"""Bracketed Newton inverses on one map and on a row stack of maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsconj import linear, linear_plus_lipschitz, rational_bump, sine_bump, smooth
from ifsconj.catalog import MapStack
from ifsconj.rootfind import MAX_STEPS, monotone_inverse_batch

KINDS = ("linear", "sine", "rational", "smooth")


def catalog_map(kind, k, c):
    if kind == "linear":
        return linear(k)
    if kind == "sine":
        return linear_plus_lipschitz(k, sine_bump(c))
    if kind == "rational":
        return linear_plus_lipschitz(k, rational_bump(c))
    return smooth(k, c)


# slopes of both signs, from ones whose inverse leaves the 60 bracket
# doublings (most entries invalid) to expansive ones
slopes = st.builds(
    lambda sign, magnitude: sign * magnitude,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(0.05, 5.0), st.sampled_from([1e-20, 1e-3, 0.3, 40.0])),
)


def assert_rows_match(maps, radius, grid):
    xs = np.linspace(-radius, radius, grid)
    stacked, valid = monotone_inverse_batch(
        MapStack(maps), np.broadcast_to(xs, (len(maps), grid)), -radius, radius
    )
    for f, row, row_valid in zip(maps, stacked, valid):
        alone, alone_valid = monotone_inverse_batch(f, xs, -radius, radius)
        assert row.tobytes() == alone.tobytes()
        assert np.array_equal(row_valid, alone_valid)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(KINDS),
    params=st.lists(st.tuples(slopes, st.floats(-0.5, 0.5)), min_size=1, max_size=5),
    radius=st.sampled_from([1.0, 7.3, 10.0, 123.4]),
    grid=st.sampled_from([33, 257, 1001]),
)
def test_stacked_inverse_matches_each_map_alone(kind, params, radius, grid):
    assert_rows_match([catalog_map(kind, k, c) for k, c in params], radius, grid)


@pytest.mark.parametrize("kind", KINDS)
def test_rows_with_other_directions_and_counts(kind):
    # a decreasing row, rows whose brackets grow to other widths (so other
    # start points and step counts) and a row with invalid entries, in one
    # stack
    params = [(0.5, 0.1), (-3.0, 0.2), (1e-3, 0.0), (1e-20, 0.0), (40.0, -0.3)]
    assert_rows_match([catalog_map(kind, k, c) for k, c in params], 10.0, 257)


def test_inverse_of_linear_map():
    xs, valid = monotone_inverse_batch(linear(0.5), np.array([-1.0, 0.0, 3.0]), -10.0, 10.0)
    assert valid.all()
    np.testing.assert_allclose(xs, [-2.0, 0.0, 6.0], atol=1e-11)


def bisection_reference(f, ys, lo, hi, tol=1e-12, max_expand=60):
    """The inverse this module's Newton steps replaced: the same direction
    test and bracket expansion, then bisection of each bracket to tol."""
    ys = np.asarray(ys, dtype=float)
    sgn = 1.0 if f(hi) > f(lo) else -1.0
    los = np.full(ys.shape, float(lo))
    his = np.full(ys.shape, float(hi))
    target = sgn * ys
    need_hi = sgn * f(his) < target
    step = hi - lo
    for _ in range(max_expand):
        if not need_hi.any():
            break
        his[need_hi] += step
        step *= 2.0
        need_hi = sgn * f(his) < target
    need_lo = sgn * f(los) > target
    step = hi - lo
    for _ in range(max_expand):
        if not need_lo.any():
            break
        los[need_lo] -= step
        step *= 2.0
        need_lo = sgn * f(los) > target
    valid = ~(need_hi | need_lo)
    count = int(math.ceil(math.log2(max((his - los).max(), tol) / tol))) + 2
    for _ in range(count):
        mid = 0.5 * (los + his)
        go_right = sgn * f(mid) < target
        los = np.where(go_right, mid, los)
        his = np.where(go_right, his, mid)
    return np.where(valid, 0.5 * (los + his), np.nan), valid


# the largest |c| that keeps k*x plus the kind's term monotone, per unit |k|:
# the sine and rational bumps have slopes down to -|c|, and the smooth term's
# slope reaches |c|*3*sqrt(3)/8
MONOTONE_AMPLITUDE = {"linear": 0.0, "sine": 1.0, "rational": 1.0, "smooth": 8.0 / 3.0 ** 1.5}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(KINDS),
    sign=st.sampled_from([1.0, -1.0]),
    magnitude=st.floats(1e-3, 40.0),
    # the amplitude as a fraction of the monotone bound, whose ends give a
    # root where f' = 0 (the sine bump's f'(pi) = 0 at c = k)
    fraction=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0])),
    radius=st.sampled_from([1.0, 7.3, 123.4]),
    grid=st.sampled_from([33, 257, 1001]),
)
def test_newton_residual_within_two_ulp_of_bisection(kind, sign, magnitude, fraction, radius, grid):
    k = sign * magnitude
    f = catalog_map(kind, k, fraction * MONOTONE_AMPLITUDE[kind] * magnitude)
    ys = np.linspace(-radius, radius, grid)
    xs, valid = monotone_inverse_batch(f, ys, -radius, radius)
    ref, ref_valid = bisection_reference(f, ys, -radius, radius)
    assert np.array_equal(valid, ref_valid)
    assert np.isnan(xs[~valid]).all()
    y, x = ys[valid], xs[valid]
    residual = np.abs(f(x) - y)
    ref_residual = np.abs(f(ref[valid]) - y)
    # ulps of the larger of y and k*x: f(x) = k*x + term rounds at the scale
    # of its largest part, which is y itself unless the term cancels k*x
    ulp = np.spacing(np.maximum(np.abs(y), np.abs(k * x)))
    assert np.all(residual <= ref_residual + 2.0 * ulp)


@pytest.mark.parametrize("radius", [1.0, 7.3, 10.0, 123.4])
def test_flat_root_converges_within_the_step_cap(monkeypatch, radius):
    # 0.3*x + 0.3*sin(x) has f'(pi) = f''(pi) = 0, so Newton steps toward pi
    # shrink by 2/3 each instead of squaring the error
    f = linear_plus_lipschitz(0.3, sine_bump(0.3))
    roots = np.array([-math.pi, math.pi])
    ys = f(roots)
    calls = []
    evaluate = MapStack.__call__
    monkeypatch.setattr(MapStack, "__call__", lambda self, x: calls.append(1) or evaluate(self, x))
    xs, valid = monotone_inverse_batch(f, ys, -radius, radius)
    assert valid.all()
    # both targets settle before the cap would end them (18-30 steps here)
    assert 0 < len(calls) < MAX_STEPS
    assert np.all(np.abs(xs - roots) < 1e-4)  # f - y is cubic there
    assert np.all(np.abs(f(xs) - ys) <= 2.0 * np.spacing(np.abs(ys)))


@pytest.mark.parametrize("kind", KINDS)
def test_stack_derivative_rows_match_each_map(kind):
    params = [(0.5, 0.1), (-3.0, 0.2), (1e-3, -0.4), (40.0, 0.5)]
    maps = [catalog_map(kind, k, c) for k, c in params]
    # large |x| take the rational forms' far branches; cos(inf) is nan
    x = np.array([-1e200, -3.0, -0.0, 0.0, 1e-300, 0.7, 3.0, 1e160, np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        rows = MapStack(maps).derivative(np.broadcast_to(x, (len(maps), x.size)))
        alone = [np.asarray(f.derivative(x), dtype=float) for f in maps]
    for row, slope in zip(rows, alone):
        assert row.tobytes() == slope.tobytes()
