"""TabulatedHomeomorphism against scipy's PchipInterpolator, byte for byte.

The tabulated conjugacy evaluates its own pchip; these tests run where scipy
is installed and check that every value, in both directions, has the bits
scipy gives: on Koenigs tables, on tables of two and three nodes, on tables
whose secants reach 0 or trip the end-slope shape guards, and at the nodes,
outside the table, at +-0, +-inf and nans of both signs.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsconj import koenigs_conjugacy, smooth
from ifsconj.conjugacy import TabulatedHomeomorphism

interpolate = pytest.importorskip("scipy.interpolate")

# scipy maps a nan of either sign to the positive quiet nan
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


def probe_points(nodes, count=2001):
    """The nodes, count points over 1.2 times the table, and the specials."""
    lo, hi = nodes[0], nodes[-1]
    with np.errstate(over="ignore"):
        spread = lo + np.linspace(-0.1, 1.1, count) * (hi - lo)
    return np.concatenate([nodes, spread, SPECIALS])


def scipy_forward(xs, ys, v):
    """What TabulatedHomeomorphism(xs, ys)(v) gives through scipy's pchip."""
    with np.errstate(all="ignore"):  # scipy warns before it rejects an infinite slope
        out = interpolate.PchipInterpolator(xs, ys)(v)
    inside = (v >= xs[0]) & (v <= xs[-1])
    return np.where(inside, np.clip(out, ys[0], ys[-1]), out)


def scipy_inverse(xs, ys, v):
    with np.errstate(all="ignore"):
        return interpolate.PchipInterpolator(ys, xs)(v)


def image_points(ys, count=2001):
    """The points of probe_points(ys) that invert accepts."""
    w = probe_points(ys, count)
    return w[(w >= ys[0]) & (w <= ys[-1]) | np.isnan(w)]


def assert_forward_bits(xs, ys, count=2001):
    v = probe_points(xs, count)
    assert TabulatedHomeomorphism(xs, ys)(v).tobytes() == scipy_forward(xs, ys, v).tobytes()


def assert_same_bits(xs, ys, count=2001):
    """Forward and invert equal scipy's, and so does the swapped table outside."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    assert_forward_bits(xs, ys, count)
    image = image_points(ys, count)
    h = TabulatedHomeomorphism(xs, ys)
    assert h.invert(image).tobytes() == scipy_inverse(xs, ys, image).tobytes()
    assert_forward_bits(ys, xs, count)


KOENIGS_MAPS = [
    smooth(0.5, 0.1), smooth(-0.5, 0.1), smooth(0.3, 0.05),
    smooth(3.0, 0.1), smooth(-2.0, 0.1), smooth(2.0, 0.1),
]


@pytest.mark.parametrize("f", KOENIGS_MAPS, ids=lambda f: f"k={f.k}")
def test_koenigs_tables_match_scipy(f):
    h = koenigs_conjugacy(f, 0.5)
    assert_same_bits(h.xs, h.ys, count=20001)


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0], [0.0, 2.0]),
    ([-3.0, 0.7], [-1e-300, 5e300]),
    ([-1.0, 0.5, 2.0], [-2.0, 0.1, 0.3]),
    ([0.0, 1e-3, 7.0], [-5.0, 4.0, 4.5]),
    # at -0.0, every term of the sum is -0.0; scipy's sum starts from +0.0
    ([-1.0, 0.0, 1.0, 2.0], [-10.0, -0.0, 1.0, 100.0]),
], ids=["2-node", "2-node-wide", "3-node", "3-node-uneven", "signed-zero"])
def test_small_tables_match_scipy(xs, ys):
    assert_same_bits(xs, ys)


@pytest.mark.parametrize("xs, ys", [
    # a secant of one ulp between steep ones
    ([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, 1.0 + 2.0**-52, 2.0, 3.0]),
    # sharply bent ends: the three-point estimate changes sign and is set to 0
    ([0.0, 1.0, 2.0], [0.0, 1.0, 100.0]),
    ([0.0, 1.0, 2.0], [0.0, 99.0, 100.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1e-3, 1.0, 50.0, 50.001]),
], ids=["ulp-secant", "bent-right", "bent-left", "bent-both"])
def test_shape_guards_match_scipy(xs, ys):
    assert_same_bits(xs, ys)


# the first secant underflows to 0, so interior and end derivatives are 0; in
# the second table the end estimate also overflows and is capped at 3 m0. The
# swapped tables have an infinite secant, which scipy rejects with ValueError.
ZERO_SECANT_TABLES = [
    ([0.0, 1e10, 2e10, 3e10], [0.0, 1e-320, 1.0, 2.0]),
    ([-0.8e308, 0.0, 0.8e308], [-1.0, 0.0, 5e-324]),
]


@pytest.mark.parametrize("xs, ys", ZERO_SECANT_TABLES, ids=["zero-secant", "capped-end"])
def test_zero_secants_match_scipy(xs, ys):
    xs, ys = np.asarray(xs), np.asarray(ys)
    assert_forward_bits(xs, ys)
    image = image_points(ys)
    with pytest.raises(ValueError):
        scipy_inverse(xs, ys, image)
    with pytest.raises(ValueError, match="slope"):
        TabulatedHomeomorphism(xs, ys).invert(image)


def outcome(fn, *args):
    """The bytes fn returns, or ValueError where it raises one."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except ValueError:
        return ValueError


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    nodes=st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True),
            st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True),
        )
    )
)
def test_random_tables_match_scipy(nodes):
    xs, ys = (np.sort(np.array(v, dtype=float)) for v in nodes)
    assume(np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0))
    h = TabulatedHomeomorphism(xs, ys)
    v, image = probe_points(xs, 201), image_points(ys, 201)
    assert outcome(h, v) == outcome(scipy_forward, xs, ys, v)
    assert outcome(h.invert, image) == outcome(scipy_inverse, xs, ys, image)
