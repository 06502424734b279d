"""Fundamental-domain conjugacies: construction, oracle agreement,
functional equation, inversion, feasibility verdicts."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from ifsconj.errors import (
    InversionRangeError,
    NonConjugateError,
    NonHyperbolicError,
    NumericFailureError,
)

from exponent_reference import locate_fundamental_exponent


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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kc=st.floats(0.01, 0.99),
    mc=st.floats(0.01, 0.99),
    expansive=st.booleans(),
    negative=st.booleans(),
    t=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
)
def test_power_law_oracle_property(kc, mc, expansive, negative, t, signs):
    # k and m in each of the four slope intervals, anchor 1
    k, m = (1 / kc, 1 / mc) if expansive else (kc, mc)
    if negative:
        k, m = -k, -m
    h = build_linear_conjugacy(k, m, 1.0, "power-law")
    alpha = math.log(abs(m)) / math.log(abs(k))
    # |x| within 1e+-6, and |h(x)| = |x|**alpha within 1e+-250
    xs = np.array(signs[: len(t)]) * 10.0 ** (np.array(t) * min(6.0, 250.0 / alpha))
    # the negated route (k < 0) flips the sign of the positive-slope conjugacy
    expect = np.sign(k) * np.sign(xs) * np.abs(xs) ** alpha
    # each fundamental-domain step and the power round once, so the error
    # grows like (steps + alpha) ulp; 24000 random draws stayed below 2e-12
    assert (np.abs(h(xs) - expect) <= 1e-10 * np.abs(expect)).all()


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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kc=st.floats(0.01, 0.99),
    mc=st.floats(0.01, 0.99),
    expansive=st.booleans(),
    negative=st.booleans(),
    bridge=st.sampled_from(["linear", "power-law"]),
    log_a=st.floats(-3.0, 3.0),
    t=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
)
def test_conjugacy_properties(kc, mc, expansive, negative, bridge, log_a, t, signs):
    k, m = (1 / kc, 1 / mc) if expansive else (kc, mc)
    if negative:
        k, m = -k, -m
    h = build_linear_conjugacy(k, m, 10.0**log_a, bridge)
    # |h(x)/a| grows like |x/a|**alpha: keep x within a*1e+-30 and h(x) in range
    alpha = math.log(mc) / math.log(kc)
    log_x = log_a + np.array(t) * min(30.0, 250.0 / alpha)
    xs = np.sort(np.array(signs) * 10.0**log_x)
    hx = h(xs)
    assert (h(-xs) == -hx).all()
    assert (np.abs(h.invert(hx) - xs) <= 1e-12 * np.abs(xs)).all()
    radius = 10.0 ** (log_a + min(1.0, 250.0 / alpha))
    assert verify_conjugacy(linear(k), linear(m), h, tolerance=1e-8, radius=radius).passed
    # h never decreases, at the seams a*kc**j included, and increases
    # strictly between draws that are far enough apart
    rise = (hx[1] - hx[0]) * np.sign(k)
    assert rise >= 0
    if xs[1] - xs[0] >= 1e-9 * np.abs(xs).max():
        assert rise > 0


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


# -- deep orbits: closed-form jump, split powers, seams ----------------------

def test_near_one_slope_and_far_orbits_are_fast():
    # orbits of about 7e8 steps of 0.999999 jump to their interval after the
    # first checked steps, and the powers come from np.power per entry
    h = build_linear_conjugacy(0.999999, 0.5)
    g = h.inverse()  # g = h^-1, with g(0.5*y) = 0.999999*g(y)
    ys = np.array([1.0, 1e300, 1e-315, 5e-324])
    tracemalloc.start()
    t0 = time.perf_counter()
    hx = h(ys[[0, 2, 3]])
    with pytest.raises(NumericFailureError, match=r"h\(1e\+300\) overflows"):
        h(1e300)  # h(x) = a*(x/a)**alpha with alpha = 6.9e5 for the power-law bridge
    gy, g2y = g(ys), g(2.0 * ys)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.05 and peak < 16e6
    # 1e-315 and 5e-324 lie about 7e8 steps out: h falls below the float range
    assert hx.tolist() == [1.0, TINY, TINY]
    assert np.isfinite(gy).all() and (gy > 0).all()
    assert 0.999999 * g2y == pytest.approx(gy, rel=1e-12)
    # near 1, h is finite; a relative rounding of k*x moves h by alpha times it
    xs = np.array([1.0005, 0.9995, 1.0])
    assert h(0.999999 * xs) == pytest.approx(0.5 * h(xs), rel=1e-9)


# x / kc rounds back to x: the walk of these outward orbits never moved
@pytest.mark.parametrize("k, m, x", [
    (0.9, 0.95, 5e-324),
    (0.7, 0.9, 5e-324),
    (-0.9, -0.95, -2e-323),
    (1.0 / 0.9, 1.0 / 0.95, 5e-324),
])
def test_stuck_subnormal_gives_closed_form_value(k, m, x):
    h = build_linear_conjugacy(k, m, 1.0, "power-law")
    alpha = math.log(abs(m)) / math.log(abs(k))
    t0 = time.perf_counter()
    y = h(x)
    assert time.perf_counter() - t0 < 0.01
    assert y == pytest.approx(math.copysign(abs(x) ** alpha, k * x), rel=1e-12)


def test_split_powers_keep_values_in_float_range():
    # 0.25**-512 overflows on its own, while h(1.2e154) = 1.44e308 does not
    h = build_linear_conjugacy(0.5, 0.25, 1.0, "power-law")
    assert h(1.2e154) == pytest.approx(1.2e154**2, rel=1e-14)
    lin = build_linear_conjugacy(0.5, 0.25)
    assert lin(1.2e154) == 4.0 * lin(6e153)
    with pytest.raises(NumericFailureError, match="overflows"):
        lin(1.4e154)
    # 0.5**-1072 overflows on its own, while w = x * 2**1072 does not
    g = build_linear_conjugacy(0.5, 0.9, 1.0, "power-law")
    alpha = math.log(0.9) / math.log(0.5)
    assert g(1.5e-323) == pytest.approx(1.5e-323**alpha, rel=1e-12)


def test_seams_never_reverse_order():
    # adjacent floats within 3 ulp of the seams a*kc**j: the images of
    # neighbouring fundamental intervals meet at one float, so h never
    # decreases across a seam (the former walk reversed about 0.6% of pairs)
    rng = np.random.default_rng(2024)
    pairs = 0
    for _ in range(400):
        kc, mc = rng.uniform(0.01, 0.99, 2)
        a = 10.0 ** rng.uniform(-3, 3)
        bridge = ("linear", "power-law")[int(rng.integers(2))]
        h = FundamentalDomainConjugacy(kc, mc, a, bridge)
        reach = int(200 / max(-math.log(kc), -math.log(mc)))  # |h| within 1e+-87 a
        seams = a * kc ** np.arange(-min(reach, 40), min(reach, 40) + 1.0)
        xs = [seams]
        for _ in range(3):
            xs = [np.nextafter(xs[0], 0.0), *xs, np.nextafter(xs[-1], np.inf)]
        hx = h(np.stack(xs, axis=1))
        pairs += hx[:, 1:].size
        assert (np.diff(hx, axis=1) >= 0).all(), (kc, mc, a, bridge)
    assert pairs > 150_000


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


TINY = math.ulp(0.0)


@pytest.mark.parametrize("k, m", [(0.5, 0.25), (-0.5, -0.25)])
def test_underflow_keeps_sign(k, m):
    h = build_linear_conjugacy(k, m)
    sign = -1.0 if k < 0 else 1.0
    assert h(5e-324) == sign * TINY
    assert h(-1e-300) == -sign * TINY
    assert h(0.0) == 0.0


def test_underflow_in_batch_keeps_strict_order():
    h = build_linear_conjugacy(0.5, 0.25)
    xs = np.array([-2.0, -1e-300, 0.0, 1e-300, 0.3, 1.7])
    out = h(xs)
    assert np.all(np.diff(out) > 0)
    assert out[1] == -TINY and out[2] == 0.0 and out[3] == TINY
    assert [out[0], out[4], out[5]] == [h(-2.0), h(0.3), h(1.7)]


def test_invert_underflow_keeps_sign():
    h = build_linear_conjugacy(0.25, 0.5)
    assert h.invert(5e-324) == TINY
    assert h.invert(-1e-300) == -TINY


def test_subnormal_value_is_returned():
    h = build_linear_conjugacy(0.5, 0.25)
    y = h(1e-160)
    assert TINY < y < np.finfo(float).tiny
    assert h(np.array([1e-160, 1.0]))[0] == y


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


def test_weak_conjugacy_obstruction_pools_signs():
    # F's own slopes straddle 1, but G brings a negative slope: one rule for
    # both checks names the pooled sign disagreement
    F = IfsDescriptor((linear(0.5), linear(2.0)))
    G = IfsDescriptor((linear(-0.5), linear(0.5)))
    assert same_interval_test(F, G).obstruction == "orientation-mismatch"
    with pytest.raises(NonConjugateError) as err:
        weak_conjugacy_linear(F, G, ExplicitSequence((1, 2)), 2)
    assert err.value.obstruction == "orientation-mismatch"
    assert str(err.value) == (
        "F[1] slope 0.5 in (0,1) vs F[2] slope 2.0 in (1,+inf): not conjugable"
    )


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


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [-np.inf, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, np.nan, 2.0]),
])
def test_tabulated_rejects_non_finite_nodes(xs, ys):
    with pytest.raises(ValueError, match="finite"):
        TabulatedHomeomorphism(xs, ys)


def test_fundamental_domain_rejects_bad_bridge():
    with pytest.raises(ValueError):
        FundamentalDomainConjugacy(0.5, 0.25, 1.0, "cubic")
    with pytest.raises(ValueError):
        FundamentalDomainConjugacy(0.5, 0.25, -1.0, "linear")


# with no slope of 0, a product of 0 or inf is a float-range failure, not a
# boundary slope
@pytest.mark.parametrize("f_slopes, g_slopes, n, what", [
    ((0.5, 0.25), (0.3, 0.6), 1100, r"k\* over 1100 steps underflows"),
    ((0.5, 0.25), (0.9, 0.95), 1100, r"k\* over 1100 steps underflows"),
    ((3.0, 5.0), (2.0, 4.0), 1000, r"k\* over 1000 steps overflows"),
    ((1.5, 1.2), (3.0, 5.0), 1000, r"m\* over 1000 steps overflows"),
])
def test_weak_conjugacy_product_out_of_range(f_slopes, g_slopes, n, what):
    F = IfsDescriptor(tuple(linear(k) for k in f_slopes))
    G = IfsDescriptor(tuple(linear(k) for k in g_slopes))
    with pytest.raises(NumericFailureError, match=what):
        weak_conjugacy_linear(F, G, BernoulliSequence(0.5, seed=4), n)
