"""Map catalog: evaluation, exact derivatives, Lipschitz estimation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsconj import (
    chaos_game,
    compare_maps,
    derivative_at,
    estimate_lipschitz,
    linear,
    linear_plus_lipschitz,
    rational_bump,
    sine_bump,
    smooth,
)
from ifsconj.catalog import MapStack, Perturbation


def test_linear_evaluation_and_derivative():
    f = linear(0.3)
    assert f(5.0) == pytest.approx(1.5)
    assert derivative_at(f, 5.0) == 0.3
    assert f.slope_at_zero == 0.3


def test_perturbations_fix_origin():
    assert sine_bump(0.2)(0.0) == 0.0
    assert rational_bump(0.4)(0.0) == 0.0
    assert smooth(0.5, 0.1)(0.0) == 0.0


def test_declared_lipschitz_must_cover_amplitude():
    with pytest.raises(ValueError):
        Perturbation("sine", amplitude=0.5, lipschitz=0.2)


def test_sine_bump_derivative_at_zero():
    f = linear_plus_lipschitz(0.5, sine_bump(0.2))
    # k + c*cos(0)
    assert derivative_at(f, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert f.slope_at_zero == pytest.approx(0.7, abs=1e-15)


def test_smooth_derivative_at_zero_ignores_bump():
    f = smooth(0.5, 0.1)
    # the quadratic-over-rational bump has zero slope at the origin
    assert derivative_at(f, 0.0) == 0.5


def test_derivatives_match_finite_differences():
    # central differences as the independent check on every catalog kind
    maps = [
        linear(0.3),
        linear_plus_lipschitz(0.4, rational_bump(0.2)),
        linear_plus_lipschitz(0.5, sine_bump(0.15)),
        smooth(0.6, 0.1),
    ]
    xs = np.linspace(-3, 3, 11)
    step = 1e-6
    for f in maps:
        numeric = (f(xs + step) - f(xs - step)) / (2 * step)
        assert np.allclose(f.derivative(xs), numeric, atol=1e-8)


def test_estimate_lipschitz_linear_exact():
    assert estimate_lipschitz(linear(0.5), (-1.0, 1.0), 50) == pytest.approx(0.5)
    assert estimate_lipschitz(linear(1.0), (0.0, 1.0), 17) == pytest.approx(1.0)


def test_estimate_lipschitz_bounded_by_budget():
    f = linear_plus_lipschitz(0.5, sine_bump(0.2))
    est = estimate_lipschitz(f, (-1.0, 1.0), 200)
    assert est <= 0.7 + 1e-12
    assert f.lipschitz_budget == pytest.approx(0.7)


def test_estimate_lipschitz_is_lower_bound():
    f = linear_plus_lipschitz(0.5, sine_bump(0.3))
    coarse = estimate_lipschitz(f, (-1.0, 1.0), 10)
    fine = estimate_lipschitz(f, (-1.0, 1.0), 400)
    assert coarse <= fine + 1e-12 <= 0.8 + 2e-12


def test_estimate_lipschitz_validates_arguments():
    with pytest.raises(ValueError):
        estimate_lipschitz(linear(0.5), (-1.0, 1.0), 1)
    with pytest.raises(ValueError):
        estimate_lipschitz(linear(0.5), (1.0, 1.0), 10)


def test_maps_vectorize():
    f = linear_plus_lipschitz(0.5, rational_bump(0.1))
    xs = np.linspace(-2, 2, 9)
    vals = f(xs)
    assert vals.shape == xs.shape
    assert vals[4] == 0.0


def catalog_map(kind, k, c):
    if kind == "linear":
        return linear(k)
    if kind == "smooth":
        return smooth(k, c)
    bump = sine_bump(c) if kind == "sine" else rational_bump(c)
    return linear_plus_lipschitz(k, bump)


KINDS = ("linear", "sine", "rational", "smooth")
coefficients = st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(KINDS),
    params=st.lists(coefficients, min_size=1, max_size=4),
    width=st.sampled_from([1.0, 10.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_map_stack_rows_match_each_map(kind, params, width, seed):
    maps = [catalog_map(kind, k, c) for k, c in params]
    x = np.random.default_rng(seed).uniform(-width, width, (len(maps), 65))
    stack = MapStack(maps)
    got = stack(x)
    for f, row, got_row in zip(maps, x, got):
        assert got_row.tobytes() == f(row).tobytes()


def test_map_stack_needs_one_kind_shape_and_domain():
    for maps in ([linear(0.5), smooth(0.5, 0.1)],
                 [linear_plus_lipschitz(0.5, sine_bump(0.1)),
                  linear_plus_lipschitz(0.5, rational_bump(0.1))]):
        with pytest.raises(ValueError, match="one kind"):
            MapStack(maps)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(KINDS),
    k=st.floats(-3.0, 3.0),
    c=st.floats(-1.0, 1.0),
    slack=st.floats(0.0, 1.0),
    lo=st.floats(-20.0, 20.0),
    width=st.floats(0.01, 40.0),
    samples=st.integers(2, 2048),
)
def test_estimate_lipschitz_within_budget(kind, k, c, slack, lo, width, samples):
    if kind in ("sine", "rational"):
        bump = Perturbation(kind, c, abs(c) + slack)
        f = linear_plus_lipschitz(k, bump)
    else:
        f = catalog_map(kind, k, c)
    hi = lo + width
    est = estimate_lipschitz(f, (lo, hi), samples)
    # rounding of f and of the grid: a few ulp of |f| <= budget*|x| over a
    # grid step of width/(samples - 1)
    rounding = 8 * np.finfo(float).eps * (1 + max(abs(lo), abs(hi)) * samples / width)
    assert est <= f.lipschitz_budget * (1 + rounding)


def test_estimate_lipschitz_of_a_huge_slope_leaks_no_warning():
    # k*x is inf at the grid's ends; pytest turns a leaked RuntimeWarning
    # into a failure
    assert estimate_lipschitz(linear(1e308), (-10.0, 10.0), 64) >= 1e308


# -- the closed-form range of f' -------------------------------------------------

radii = st.one_of(st.sampled_from([0.5, 3.0, 10.0]), st.floats(0.01, 20.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(KINDS), k=st.floats(-1.5, 1.5), c=st.floats(-1.5, 1.5),
       radius=radii)
def test_derivative_range_matches_a_dense_grid(kind, k, c, radius):
    f = catalog_map(kind, k, c)
    lo, hi = f.derivative_range(radius)
    xs, step = np.linspace(-radius, radius, 100001, retstep=True)
    d = f.derivative(xs)
    # a grid point lies within step/2 of each extreme of f', where f'' is 0,
    # so the grid misses it by at most |f'''|*step**2/8 (|f'''| <= 6|c| for
    # every kind); the range and the grid round f' on their own
    rounding = 8 * np.finfo(float).eps * (abs(k) + abs(c))
    miss = abs(c) * step * step + rounding
    assert lo - rounding <= d.min() <= lo + miss
    assert hi - miss <= d.max() <= hi + rounding


def test_derivative_range_reads_the_extrema_inside_the_interval():
    f = linear_plus_lipschitz(0.5, sine_bump(0.3))
    # pi lies outside [-1, 1]: the least f' there is at the ends
    assert f.derivative_range(1.0) == (0.5 + 0.3 * math.cos(1.0), 0.8)
    assert f.derivative_range(4.0) == (0.5 - 0.3, 0.8)
    assert linear(-2.0).derivative_range(10.0) == (-2.0, -2.0)
    assert all(math.isnan(v) for v in linear(float("nan")).derivative_range(10.0))


@pytest.mark.parametrize("radius", [0.0, -10.0, math.nan])
def test_derivative_range_refuses_a_degenerate_interval(radius):
    # [-R, R] is a point or empty: the range, and the monotone and contraction
    # checks read from it, refuse it as estimate_lipschitz does
    f = linear_plus_lipschitz(0.3, sine_bump(0.5))
    for call in (lambda: f.derivative_range(radius),
                 lambda: compare_maps(f, linear(0.5), radius=radius),
                 lambda: chaos_game([f], 10, 0, 1, 0.5, radius=radius)):
        with pytest.raises(ValueError, match="interval is degenerate"):
            call()


def test_smooth_budget_covers_its_steepest_slope():
    f = smooth(0.5, -0.2)
    steepest = max(abs(f.derivative(s / np.sqrt(3.0))) for s in (1.0, -1.0))
    assert f.lipschitz_budget == pytest.approx(0.5 + 0.2 * 3 * np.sqrt(3) / 8)
    assert steepest <= f.lipschitz_budget <= steepest + 1e-15


# -- values and slopes past x*x's float range -----------------------------------

NONLINEAR = {
    "smooth": smooth(0.5, 0.1),
    "rational": linear_plus_lipschitz(0.5, rational_bump(0.2)),
    "rational-neg": linear_plus_lipschitz(-0.4, rational_bump(-0.3)),
}


def test_smooth_value_past_square_range():
    # c*x*x/(1 + x*x) is c there: the value was nan
    assert smooth(0.5, 0.1)(1e200) == 0.5 * 1e200 + 0.1
    assert smooth(0.5, 0.1)(-1e200) == -0.5 * 1e200 + 0.1


@pytest.mark.parametrize("name", list(NONLINEAR))
@pytest.mark.parametrize("x", [1e155, -1e155, 1e200, -3e300, 1.7e308, 1e100, -1e80])
def test_values_and_slopes_past_square_range_are_finite(name, x):
    f = NONLINEAR[name]
    k = f.k
    xs = np.array([x, 1.0, x])
    values, slopes = f(xs), f.derivative(xs)  # no RuntimeWarning
    assert np.isfinite(values).all() and np.isfinite(slopes).all()
    assert values[0] == f(x) == pytest.approx(k * x, rel=1e-15)
    # f' = k + a term below 1e-150 in size
    assert slopes[0] == f.derivative(x) == k
    assert values[1] == f(1.0) and slopes[1] == f.derivative(1.0)


def test_rational_bump_slope_past_square_range():
    # (1 - x*x)/(1 + x*x)**2 was -inf/inf = nan
    f = linear_plus_lipschitz(0.5, rational_bump(0.2))
    assert f.derivative(1e200) == 0.5
    assert rational_bump(0.2).derivative(1e200) == 0.0  # -0.2/x**2 underflows
    assert rational_bump(0.2).derivative(1e100) == pytest.approx(-0.2e-200, rel=1e-12)


@pytest.mark.parametrize("name", list(NONLINEAR))
def test_infinite_and_nan_inputs(name):
    f = NONLINEAR[name]
    xs = np.array([np.inf, -np.inf, np.nan])
    assert list(np.sign(f(xs)[:2])) == [np.sign(f.k), -np.sign(f.k)]
    assert np.isinf(f(xs)[:2]).all() and np.isnan(f(xs)[2])
    assert list(f.derivative(xs)[:2]) == [f.k, f.k] and np.isnan(f.derivative(xs)[2])
    assert f(math.inf) == f(xs)[0] and math.isnan(f(math.nan))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(NONLINEAR)),
       st.floats(-1e150, 1e150, allow_nan=False),
       st.sampled_from([lambda x: x, np.float64, lambda x: np.array([x, -x])]))
def test_values_below_square_range_keep_their_bits(name, x, wrap):
    # the formulas in the input's own arithmetic, each square a product
    f = NONLINEAR[name]
    c = f.c if f.kind == "smooth" else f.perturbation.amplitude
    v = wrap(x)
    xx = v * v
    if f.kind == "smooth":
        value = f.k * v + c * v * v / (1.0 + xx)
    else:
        value = f.k * v + c * v / (1.0 + xx)
    assert np.array_equal(f(v), value)
    if abs(x) < 1e77:  # (1 + x*x)**2 in range
        den = 1.0 + xx
        if f.kind == "smooth":
            slope = f.k + c * 2.0 * v / (den * den)
        else:
            slope = f.k + c * (1.0 - xx) / (den * den)
        assert np.array_equal(f.derivative(v), slope)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(NONLINEAR)),
       st.one_of(st.floats(-10.0, 10.0), st.floats(1e76, 1e78), st.floats(-1e78, -1e76),
                 st.floats(allow_nan=False)))
# points where Python's float ** (C pow) rounded (1 + x*x)**2 off the square
# numpy takes for an array: about 1 in 20000 of [-10, 10] differed
@example("smooth", -1.1234109366714673)
@example("rational", 1.992010917449221)
@example("rational-neg", -1.8941079331515667)
def test_derivative_of_a_float_equals_that_of_a_one_element_array(name, x):
    f = NONLINEAR[name]
    assert np.array([f.derivative(x)]).tobytes() == f.derivative(np.array([x])).tobytes()


def test_map_stack_past_square_range_matches_each_map():
    maps = [smooth(0.5, 0.1), smooth(0.3, -0.2), smooth(0.45, 0.05)]
    x = np.array([[1e200, -1e155, 2.0, np.inf], [3.0, 1e300, -np.inf, np.nan],
                  [0.0, 1e154, 1.4e154, -1e308]])
    got = MapStack(maps)(x)
    for r, f in enumerate(maps):
        assert np.array_equal(got[r], f(x[r]), equal_nan=True)
