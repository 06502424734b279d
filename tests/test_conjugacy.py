"""Fundamental-domain conjugacies: construction, oracle agreement,
functional equation, inversion, feasibility verdicts."""

import math
import warnings

import numpy as np
import pytest

from ifsconj import (
    BernoulliSequence,
    ExplicitSequence,
    IfsDescriptor,
    build_linear_conjugacy,
    evaluate,
    identity,
    invert,
    linear,
    same_interval_test,
    verify_conjugacy,
    weak_conjugacy_linear,
)
from ifsconj.conjugacy import (
    CompositeHomeomorphism,
    FundamentalDomainConjugacy,
    PowerLawHomeomorphism,
    TabulatedHomeomorphism,
    locate_fundamental_exponent,
)
from ifsconj.errors import (
    InversionRangeError,
    NonConjugateError,
    NonHyperbolicError,
    NumericFailureError,
)


def grid(lo=-10.0, hi=10.0, n=1001):
    xs = np.linspace(lo, hi, n)
    return xs[np.abs(xs) > 1e-6]


# -- construction and oracle ------------------------------------------------

def test_power_law_oracle_sqrt():
    h = build_linear_conjugacy(0.25, 0.5, 1.0, "power-law")
    assert evaluate(h, 4.0) == pytest.approx(2.0, rel=1e-12)
    assert evaluate(h, -9.0) == pytest.approx(-3.0, rel=1e-12)
    assert evaluate(h, 0.0) == 0.0


def test_power_law_oracle_on_grid():
    k, m = 0.25, 0.5
    h = build_linear_conjugacy(k, m, 1.0, "power-law")
    alpha = math.log(m) / math.log(k)
    xs = grid()
    expect = np.sign(xs) * np.abs(xs) ** alpha
    got = h(xs)
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-9


def test_power_law_oracle_log_spaced_to_tiny_x():
    # the closed-form agreement holds down to |x| = 1e-6 for moderate slopes
    for k, m in ((0.25, 0.5), (0.5, 0.25), (0.3, 0.6), (0.7, 0.2)):
        h = build_linear_conjugacy(k, m, 1.0, "power-law")
        alpha = math.log(m) / math.log(k)
        mags = np.geomspace(1e-6, 10.0, 200)
        xs = np.concatenate([-mags[::-1], mags])
        expect = np.sign(xs) * np.abs(xs) ** alpha
        assert np.max(np.abs(h(xs) - expect) / np.abs(expect)) < 1e-9


def test_identity_when_slopes_match():
    h = build_linear_conjugacy(0.5, 0.5, 1.0, "linear")
    xs = grid()
    assert np.max(np.abs(h(xs) - xs)) < 1e-12


def test_expansive_pair_functional_equation():
    h = build_linear_conjugacy(2.0, 3.0, 1.0, "linear")
    assert h.orientation == "inverse-composed"
    xs = grid()
    lhs = h(2.0 * xs)
    rhs = 3.0 * h(xs)
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-12


def test_negative_pair_uses_negated_route():
    h = build_linear_conjugacy(-0.5, -0.4, 1.0, "linear")
    assert h.orientation == "negated"
    xs = grid()
    assert np.max(np.abs(h(-0.5 * xs) + 0.4 * h(xs))) < 1e-9 * (1 + np.max(np.abs(h(xs))))


def test_boundary_slope_rejected():
    with pytest.raises(NonHyperbolicError):
        build_linear_conjugacy(1.0, 0.5)
    with pytest.raises(NonHyperbolicError):
        build_linear_conjugacy(0.5, 0.0)


def test_cross_interval_rejected():
    with pytest.raises(NonConjugateError) as err:
        build_linear_conjugacy(2.0, 0.5)
    assert err.value.obstruction == "attract-repel-mismatch"
    with pytest.raises(NonConjugateError) as err:
        build_linear_conjugacy(3.0, -3.0)
    assert err.value.obstruction == "orientation-mismatch"


# -- functional equation invariant across all intervals ---------------------

@pytest.mark.parametrize(
    "k,m",
    [
        (0.3, 0.7),
        (-0.3, -0.7),
        (1.7, 4.2),
        (-1.7, -4.2),
    ],
)
@pytest.mark.parametrize("bridge", ["linear", "power-law"])
def test_functional_equation_everywhere(k, m, bridge):
    h = build_linear_conjugacy(k, m, 1.0, bridge)
    xs = grid()
    hx = h(xs)
    lhs = h(k * xs)
    assert np.max(np.abs(lhs - m * hx) / (1.0 + np.abs(hx))) <= 1e-9


def test_oddness_exact():
    h = build_linear_conjugacy(0.37, 0.81, 1.0, "linear")
    xs = grid(0.01, 10.0, 500)
    assert np.max(np.abs(h(-xs) + h(xs))) <= 1e-12


def test_monotone_on_sorted_grid():
    for bridge in ("linear", "power-law"):
        h = build_linear_conjugacy(0.6, 0.2, 1.0, bridge)
        xs = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(h(xs)) > 0)


def test_negative_pair_reverses_orientation():
    h = build_linear_conjugacy(-0.6, -0.2, 1.0, "linear")
    xs = np.linspace(-10, 10, 2001)
    assert np.all(np.diff(h(xs)) < 0)


@pytest.mark.parametrize("bridge", ["linear", "power-law"])
@pytest.mark.parametrize("anchor", [0.5, 1.0, 2.0])
def test_bridge_endpoints_matched(bridge, anchor):
    k, m = 0.37, 0.62
    h = build_linear_conjugacy(k, m, anchor, bridge)
    assert evaluate(h, anchor) == pytest.approx(anchor, rel=1e-14)
    assert evaluate(h, k * anchor) == pytest.approx(m * anchor, rel=1e-14)


def test_anchor_does_not_change_verdict():
    f, g = linear(0.25), linear(0.5)
    for anchor in (0.5, 1.0, 2.0):
        h = build_linear_conjugacy(0.25, 0.5, anchor, "linear")
        rep = verify_conjugacy(f, g, h, 801, 1e-9)
        assert rep.passed


def test_bridge_independent_verdict():
    f, g = linear(0.25), linear(0.5)
    for bridge in ("linear", "power-law"):
        h = build_linear_conjugacy(0.25, 0.5, 1.0, bridge)
        assert verify_conjugacy(f, g, h, 1001, 1e-9).passed


# -- exponent location ------------------------------------------------------

def test_locate_fundamental_exponent_well_defined():
    k, a = 0.41, 1.0
    for x in (1.5, 7.0, 123.4, 0.9, 0.0004):
        n, w = locate_fundamental_exponent(x, k, a)
        assert k * a <= w <= a
        assert w == pytest.approx(k**n * x, rel=1e-12)
        if x > a:
            assert k ** (n - 1) * x > a
        if x < k * a:
            assert k ** (n + 1) * x < k * a


def test_iteration_cap_raises():
    h = build_linear_conjugacy(0.5, 0.25, 1.0, "linear")
    with pytest.raises(NumericFailureError):
        h.evaluate(1e9, max_steps=3)


def test_iteration_cap_raises_with_nan_in_batch():
    h = build_linear_conjugacy(0.5, 0.25, 1.0, "linear")
    with pytest.raises(NumericFailureError):
        h.evaluate(np.array([math.nan, 1e9]), max_steps=3)


# -- non-finite and huge inputs ---------------------------------------------

@pytest.mark.parametrize("k, m", [(0.5, 0.25), (-0.5, -0.25), (2.0, 4.0)])
def test_infinite_inputs_map_to_infinity(k, m):
    h = build_linear_conjugacy(k, m)
    sign = -1.0 if k < 0 else 1.0
    assert h(math.inf) == sign * math.inf
    assert h(-math.inf) == -sign * math.inf
    assert h.invert(math.inf) == sign * math.inf


def test_nan_maps_to_nan():
    h = build_linear_conjugacy(0.5, 0.25)
    assert math.isnan(h(math.nan)) and math.isnan(h.invert(math.nan))
    out = h(np.array([math.nan, 2.0, -math.inf]))
    assert math.isnan(out[0]) and out[1] == h(2.0) and out[2] == -math.inf


def test_overflow_raises_typed_error_without_warning():
    h = build_linear_conjugacy(0.5, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailureError):
            h(1e308)
        with pytest.raises(NumericFailureError):
            h(np.array([1.0, -1e308]))


# -- inversion ---------------------------------------------------------------

def test_invert_examples():
    h = build_linear_conjugacy(0.25, 0.5, 1.0, "power-law")
    assert invert(h, 0.0) == 0.0
    assert invert(h, 3.0) == pytest.approx(9.0, rel=1e-10)
    assert invert(h, evaluate(h, 1.7)) == pytest.approx(1.7, abs=1e-8 * 2.7)


def test_round_trip_all_orientations():
    rng = np.random.default_rng(11)
    pairs = [(0.3, 0.8), (2.2, 5.0), (-0.3, -0.8), (-2.2, -5.0)]
    for k, m in pairs:
        h = build_linear_conjugacy(k, m, 1.0, "linear")
        for x in rng.uniform(-10, 10, 20):
            y = evaluate(h, x)
            assert invert(h, y) == pytest.approx(x, abs=1e-8 * (1 + abs(x)))


def test_structural_inverse_swaps_slopes():
    h = build_linear_conjugacy(0.25, 0.5, 1.0, "power-law")
    hinv = h.inverse()
    assert (hinv.k, hinv.m) == (0.5, 0.25)


# -- verify_conjugacy ---------------------------------------------------------

def test_verify_pass_and_report_fields():
    h = build_linear_conjugacy(0.25, 0.5, 1.0, "power-law")
    rep = verify_conjugacy(linear(0.25), linear(0.5), h, 1001, 1e-9)
    assert rep.verdict == "pass"
    assert rep.residual_sup <= rep.tolerance
    assert len(rep.grid) == 1001


def test_verify_identity_zero_residual():
    rep = verify_conjugacy(linear(0.5), linear(0.5), identity(), 101, 1e-12)
    assert rep.residual_sup == 0.0


def test_verify_fails_for_non_conjugate_pair():
    rep = verify_conjugacy(linear(2.0), linear(0.5), identity(), 1001, 1e-8)
    assert rep.verdict == "fail"
    assert rep.residual_sup > 0.1


def test_verify_domain_escape_records_fail():
    f = linear(2.0, domain=(-5.0, 5.0))
    rep = verify_conjugacy(f, linear(2.0, domain=(-5.0, 5.0)), identity(), 101, 1e-9)
    assert rep.verdict == "fail"
    assert math.isinf(rep.residual_sup)


# -- weak conjugacy -----------------------------------------------------------

def test_weak_conjugacy_products():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    G = IfsDescriptor((linear(0.3), linear(0.6)))
    h = weak_conjugacy_linear(F, G, ExplicitSequence((1, 2)), 2)
    assert h.k == pytest.approx(0.125)
    assert h.m == pytest.approx(0.18)
    xs = grid()
    assert np.max(np.abs(h(0.125 * xs) - 0.18 * h(xs)) / (1 + np.abs(h(xs)))) < 1e-9


def test_weak_conjugacy_identity_case():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    sig = BernoulliSequence(0.5, seed=2)
    h = weak_conjugacy_linear(F, F, sig, 7)
    rep = verify_conjugacy(
        linear(h.k), linear(h.m), h, 1001, 1e-9
    )
    assert rep.passed
    assert h.k == h.m


def test_weak_conjugacy_negative_route():
    F = IfsDescriptor((linear(-0.5), linear(-0.4)))
    G = IfsDescriptor((linear(-0.2), linear(-0.3)))
    sig = ExplicitSequence((1, 2, 1))
    h = weak_conjugacy_linear(F, G, sig, 3)
    assert h.orientation == "negated"
    composite_f = linear(h.k)
    composite_g = linear(h.m)
    assert verify_conjugacy(composite_f, composite_g, h, 1001, 1e-9).passed


def test_weak_conjugacy_rejects_mixed_intervals():
    F = IfsDescriptor((linear(0.5), linear(2.0)))
    G = IfsDescriptor((linear(0.3), linear(0.6)))
    with pytest.raises(NonConjugateError) as err:
        weak_conjugacy_linear(F, G, ExplicitSequence((1, 2)), 2)
    assert "F[2]" in str(err.value)


# -- same_interval_test --------------------------------------------------------

def test_same_interval_obstructions():
    expand = IfsDescriptor((linear(2.0),))
    contract = IfsDescriptor((linear(0.5),))
    rep = same_interval_test(expand, contract)
    assert rep.verdict == "obstructed"
    assert rep.obstruction == "attract-repel-mismatch"

    pos = IfsDescriptor((linear(3.0),))
    neg = IfsDescriptor((linear(-3.0),))
    assert same_interval_test(pos, neg).obstruction == "orientation-mismatch"

    both = same_interval_test(
        IfsDescriptor((linear(0.5), linear(0.7))),
        IfsDescriptor((linear(0.1), linear(0.9))),
    )
    assert both.verdict == "conjugable"
    assert both.obstruction is None


def test_same_interval_boundary_raises():
    with pytest.raises(NonHyperbolicError):
        same_interval_test(IfsDescriptor((linear(1.0),)), IfsDescriptor((linear(0.5),)))


# -- auxiliary homeomorphism forms ---------------------------------------------

def test_power_law_form_and_inverse():
    h = PowerLawHomeomorphism(2.0)
    assert h(3.0) == 9.0
    assert h(-3.0) == -9.0
    assert h.invert(9.0) == 3.0


def test_composite_applies_in_order():
    double_then_square = CompositeHomeomorphism(
        (PowerLawHomeomorphism(1.0), PowerLawHomeomorphism(3.0))
    )
    assert double_then_square(2.0) == 8.0
    assert double_then_square.invert(8.0) == pytest.approx(2.0)


def test_tabulated_inversion_and_range():
    xs = np.linspace(-1, 1, 21)
    tab = TabulatedHomeomorphism(xs, xs**3 + xs)
    assert tab(0.0) == 0.0
    assert tab.invert(tab(0.5)) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(InversionRangeError):
        tab.invert(5.0)


def test_fundamental_domain_rejects_bad_bridge():
    with pytest.raises(ValueError):
        FundamentalDomainConjugacy(0.5, 0.25, 1.0, "cubic")
    with pytest.raises(ValueError):
        FundamentalDomainConjugacy(0.5, 0.25, -1.0, "linear")
