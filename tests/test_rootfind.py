"""Bracketed bisection on one map and on a row stack of maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsconj import linear, linear_plus_lipschitz, rational_bump, sine_bump, smooth
from ifsconj.catalog import MapStack
from ifsconj.rootfind import monotone_inverse_batch

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
    # bisection counts) and a row with invalid entries, in one stack
    params = [(0.5, 0.1), (-3.0, 0.2), (1e-3, 0.0), (1e-20, 0.0), (40.0, -0.3)]
    assert_rows_match([catalog_map(kind, k, c) for k, c in params], 10.0, 257)


def test_inverse_of_linear_map():
    xs, valid = monotone_inverse_batch(linear(0.5), np.array([-1.0, 0.0, 3.0]), -10.0, 10.0)
    assert valid.all()
    np.testing.assert_allclose(xs, [-2.0, 0.0, 6.0], atol=1e-11)
