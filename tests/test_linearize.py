"""Linear parts, Koenigs tables, decay bounds and sequence fate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsconj import (
    BernoulliSequence,
    ExplicitSequence,
    IfsDescriptor,
    PeriodicSequence,
    SparseDensitySequence,
    classify_sequence_fate,
    decay_bound_check,
    koenigs_conjugacy,
    linear,
    linear_plus_lipschitz,
    linear_part,
    rational_bump,
    sine_bump,
    smooth,
)
from ifsconj.errors import (
    ConvergenceFailureError,
    HypothesisError,
    NonHyperbolicError,
    WrongCaseError,
)
from ifsconj.linearize import (
    CASE_INAPPLICABLE,
    CASE_MIXED_RATIO,
    CASE_SAME_INTERVAL,
    FATE_CONVERGES,
    FATE_DIVERGES,
    FATE_UNDETERMINED,
)


# -- linear_part ---------------------------------------------------------------

def test_linear_part_of_mixed_catalog():
    F = IfsDescriptor((smooth(0.5, 0.1), linear(0.25)))
    lp = linear_part(F)
    assert list(lp.slopes) == [0.5, 0.25]
    assert lp.hg_case == CASE_SAME_INTERVAL
    assert lp.interval_tags == ("(0,1)", "(0,1)")


def test_linear_part_case2():
    lp = linear_part(IfsDescriptor((linear(0.5), linear(2.0))))
    assert lp.hg_case == CASE_MIXED_RATIO


def test_linear_part_inapplicable_on_sign_mix():
    lp = linear_part(IfsDescriptor((linear(0.5), linear(-0.5))))
    assert lp.hg_case == CASE_INAPPLICABLE


def test_linear_part_boundary_slope_raises():
    slope_one = linear_plus_lipschitz(0.7, rational_bump(0.3))
    assert slope_one.slope_at_zero == 1.0
    with pytest.raises(NonHyperbolicError):
        linear_part(IfsDescriptor((slope_one,)))


def test_linear_part_idempotent():
    F = IfsDescriptor((linear(0.4), linear(0.7)))
    lp = linear_part(F)
    again = linear_part(lp.linear_ifs)
    assert np.array_equal(lp.slopes, again.slopes)


# -- koenigs -------------------------------------------------------------------

def koenigs_residual(f, h, radius, lam):
    xs = np.linspace(-radius, radius, 2001)
    return float(np.max(np.abs(h(f(xs)) - lam * h(xs))))


def test_koenigs_linear_is_identity():
    h = koenigs_conjugacy(linear(0.5), 0.5)
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.max(np.abs(h(xs) - xs)) == 0.0


def test_koenigs_smooth_map():
    f = smooth(0.5, 0.1)
    h = koenigs_conjugacy(f, 0.5)
    assert koenigs_residual(f, h, 0.5, 0.5) <= 1e-6
    assert h(0.0) == 0.0
    assert np.all(np.diff(h.ys) > 0)


def test_koenigs_sine_bump():
    f = linear_plus_lipschitz(0.5, sine_bump(0.2))
    h = koenigs_conjugacy(f, 0.5)
    assert koenigs_residual(f, h, 0.5, 0.7) <= 1e-6


def test_koenigs_expansive_route():
    f = smooth(2.0, 0.1)
    h = koenigs_conjugacy(f, 0.5)
    # restrict so f(x) stays within the tabulated window
    assert koenigs_residual(f, h, 0.23, 2.0) <= 1e-6


def test_koenigs_expansive_negative_slope():
    f = linear(-2.0)
    h = koenigs_conjugacy(f, 0.5)
    xs = np.linspace(-0.23, 0.23, 401)
    assert np.max(np.abs(h(f(xs)) + 2.0 * h(xs))) <= 1e-8


def test_koenigs_rejects_non_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        koenigs_conjugacy(linear_plus_lipschitz(0.7, rational_bump(0.3)), 0.5)


def test_koenigs_depth_failure():
    f = smooth(0.9, 0.05)
    with pytest.raises(ConvergenceFailureError):
        koenigs_conjugacy(f, 0.5, depth=2)


def test_koenigs_expansive_depth_failure():
    with pytest.raises(ConvergenceFailureError):
        koenigs_conjugacy(smooth(2.0, 0.1), 0.5, depth=2)


# c > 0 leaves H(-r) short of -r, c < 0 leaves H(r) short of r
@pytest.mark.parametrize("f", [smooth(2.0, 0.1), smooth(-3.0, 0.1), smooth(2.0, -0.1)])
def test_koenigs_expansive_covers_neighborhood(f):
    h = koenigs_conjugacy(f, 0.5)
    assert h.xs[0] <= -0.5 and h.xs[-1] >= 0.5
    xs = np.linspace(-0.5, 0.5, 2001)
    assert np.max(np.abs(h.invert(h(xs)) - xs)) <= 1e-12


# pchip can round h past the table's end values; invert must still accept them
@pytest.mark.parametrize("c", [0.0, 0.05, 0.1])
@pytest.mark.parametrize("lam", [0.5, -0.5, 0.3, 0.7, -0.8])
def test_koenigs_contractive_round_trip(lam, c):
    h = koenigs_conjugacy(smooth(lam, c), 0.5)
    xs = np.linspace(-0.5, 0.5, 2001)
    assert np.max(np.abs(h.invert(h(xs)) - xs)) <= 5e-12


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    magnitude=st.one_of(st.floats(0.2, 0.8), st.floats(1.5, 4.0)),
    sign=st.sampled_from([1.0, -1.0]),
    c=st.floats(0.0, 0.1),
)
def test_koenigs_residual_property(magnitude, sign, c):
    lam = sign * magnitude
    f = smooth(lam, c)
    h = koenigs_conjugacy(f, 0.5)
    xs = np.linspace(-0.5, 0.5, 2001)
    fx = f(xs)
    inside = (fx >= h.xs[0]) & (fx <= h.xs[-1])
    assert inside.any()
    residual = np.abs(h(fx[inside]) - lam * h(xs[inside]))
    assert np.max(residual) <= 1e-6
    assert h(0.0) == 0.0
    assert np.all(np.diff(h.xs) > 0) and np.all(np.diff(h.ys) > 0)


# -- decay bound ----------------------------------------------------------------

def test_decay_bound_bernoulli():
    F = IfsDescriptor(
        (
            linear_plus_lipschitz(0.5, sine_bump(0.1)),
            linear_plus_lipschitz(0.3, rational_bump(0.1)),
        )
    )
    res = decay_bound_check(F, BernoulliSequence(0.5, seed=7), 20, 5.0)
    assert res.holds
    assert res.contraction_factor == pytest.approx(0.6)
    assert res.orbit_value < res.bound


def test_decay_bound_zero_start():
    F = IfsDescriptor((linear_plus_lipschitz(0.5, sine_bump(0.1)),))
    res = decay_bound_check(F, ExplicitSequence((1,), alphabet=(1,)), 1, 0.0)
    assert res.orbit_value == 0.0
    assert res.bound == 0.0
    assert res.holds


def test_decay_bound_hypothesis_gate():
    F = IfsDescriptor((linear_plus_lipschitz(0.9, sine_bump(0.2)),))
    with pytest.raises(HypothesisError):
        decay_bound_check(F, ExplicitSequence((1,), alphabet=(1,)), 1, 1.0)
    mixed_signs = IfsDescriptor((linear(0.5), linear(-0.5)))
    with pytest.raises(HypothesisError):
        decay_bound_check(mixed_signs, ExplicitSequence((1, 2)), 2, 1.0)


def test_decay_bound_random_sweep():
    rng = np.random.default_rng(123)
    for _ in range(300):
        k1, k2 = rng.uniform(0.05, 0.7, size=2)
        e1 = rng.uniform(0.0, min(0.25, 0.99 - k1))
        e2 = rng.uniform(0.0, min(0.25, 0.99 - k2))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        F = IfsDescriptor(
            (
                linear_plus_lipschitz(sign * k1, sine_bump(rng.uniform(-e1, e1), e1)),
                linear_plus_lipschitz(sign * k2, rational_bump(rng.uniform(-e2, e2), e2)),
            )
        )
        sig = BernoulliSequence(rng.uniform(0.2, 0.8), seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 31))
        x = float(rng.uniform(-10, 10))
        assert decay_bound_check(F, sig, n, x).holds


# -- sequence fate -----------------------------------------------------------------

def case2_ifs():
    return IfsDescriptor((linear(0.5), linear(2.0)))


def test_fate_sparse_squares_converges():
    rep = classify_sequence_fate(case2_ifs(), SparseDensitySequence(2), 400, 1.0, 0.1)
    assert rep.predicted_fate == FATE_CONVERGES
    assert rep.orbit_g_abs[-1] < 1e-50
    assert rep.lyapunov_sum < -rep.margin
    assert rep.n1[-1] == 380 and rep.n2[-1] == 20
    # cross-check the log-space product against direct multiplication
    syms = SparseDensitySequence(2).prefix(400)
    direct = float(np.prod(np.where(syms == 1, 0.5, 2.0)))
    assert rep.orbit_g_abs[-1] == pytest.approx(direct, rel=1e-9)


def test_fate_swapped_sparse_diverges():
    rep = classify_sequence_fate(case2_ifs(), SparseDensitySequence(1), 400, 1.0, 0.1)
    assert rep.predicted_fate == FATE_DIVERGES
    assert rep.orbit_g_abs[-1] > 1e50


def test_fate_periodic_undetermined():
    rep = classify_sequence_fate(case2_ifs(), PeriodicSequence((1, 2)), 200, 1.0, 0.1)
    assert rep.predicted_fate == FATE_UNDETERMINED
    assert abs(rep.lyapunov_sum) <= rep.margin


def test_fate_degenerate_n2_is_undetermined():
    sig = ExplicitSequence(tuple([1] * 50))
    rep = classify_sequence_fate(case2_ifs(), sig, 50, 1.0, 0.1)
    assert rep.predicted_fate == FATE_UNDETERMINED
    assert np.isinf(rep.ratio_trajectory[-1])


def test_fate_requires_case2():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    with pytest.raises(WrongCaseError):
        classify_sequence_fate(F, PeriodicSequence((1, 2)), 10, 1.0, 0.1)


def test_fate_epsilon_hypothesis():
    with pytest.raises(HypothesisError):
        classify_sequence_fate(case2_ifs(), PeriodicSequence((1, 2)), 10, 1.0, 0.6)


def test_fate_sparse_lyapunov_band_at_scale():
    rep = classify_sequence_fate(
        case2_ifs(), SparseDensitySequence(2), 10_000, 1.0, 0.05
    )
    assert rep.lyapunov_sum < 0.9 * np.log(0.5 + 0.05)
    assert rep.predicted_fate == FATE_CONVERGES


def test_fate_bernoulli_matches_expected_log_slope():
    p = 0.5
    rep = classify_sequence_fate(
        case2_ifs(), BernoulliSequence(p, seed=31), 10_000, 1.0, 0.1
    )
    expected = p * np.log(0.5) + (1 - p) * np.log(2.0)
    se = np.std([np.log(0.5), np.log(2.0)]) / np.sqrt(10_000)
    assert abs(rep.lyapunov_sum - expected) <= 3 * se
