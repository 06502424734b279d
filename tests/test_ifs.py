"""Orbit composition, slope products and their consistency invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsconj import (
    ExplicitSequence,
    BernoulliSequence,
    IfsDescriptor,
    PeriodicSequence,
    classify_slope_interval,
    compose_orbit,
    effective_slope,
    linear,
    linear_plus_lipschitz,
    orbit_trajectory,
    sine_bump,
)
from ifsconj.errors import UnsupportedMapError


def two_map_ifs(k1, k2):
    return IfsDescriptor((linear(k1), linear(k2)))


def test_compose_orbit_hand_product():
    F = two_map_ifs(0.5, 0.25)
    assert compose_orbit(F, ExplicitSequence((1, 2, 1)), 3, 8.0) == pytest.approx(0.5)


def test_compose_orbit_fixed_origin():
    F = two_map_ifs(0.9, -0.3)
    assert compose_orbit(F, ExplicitSequence((2,)), 1, 0.0) == 0.0


def test_compose_orbit_periodic_product():
    F = two_map_ifs(2.0, 3.0)
    assert compose_orbit(F, PeriodicSequence((1, 2)), 4, 1.0) == pytest.approx(36.0)


def test_effective_slope_examples():
    F = two_map_ifs(0.5, 0.25)
    assert effective_slope(F, ExplicitSequence((1, 2, 1)), 3) == pytest.approx(0.0625)
    single = IfsDescriptor((linear(0.9),), label="one")
    assert effective_slope(single, ExplicitSequence((1,), alphabet=(1,)), 1) == 0.9
    neg = two_map_ifs(-0.5, -0.5)
    assert effective_slope(neg, ExplicitSequence((1, 2)), 2) == pytest.approx(0.25)



def test_effective_slope_leaves_float_range_quietly():
    # pytest turns a leaked overflow warning into a failure
    sig = BernoulliSequence(0.5, seed=4)
    assert effective_slope(two_map_ifs(3.0, 5.0), sig, 1000) == np.inf
    assert effective_slope(two_map_ifs(-3.0, 5.0), PeriodicSequence((1, 2)), 1001) == -np.inf
    assert effective_slope(two_map_ifs(0.5, 0.25), sig, 1100) == 0.0


@pytest.mark.parametrize("k1, k2, syms, expected", [
    # 1e200 * 1e200 overflows before the zero: the product is still 0
    (0.0, 1e200, (2, 2, 1), "0x0.0p+0"),
    (-0.0, 1e200, (2, 2, 1), "-0x0.0p+0"),
    (0.0, -1e200, (2, 2, 1), "0x0.0p+0"),
    (0.0, -1e200, (2, 1, 2, 2), "-0x0.0p+0"),
    (0.0, 0.5, (2, 1), "0x0.0p+0"),
])
def test_effective_slope_zero_slope_gives_signed_zero(k1, k2, syms, expected):
    # pytest turns a leaked invalid-value warning into a failure
    F = IfsDescriptor((linear(k1), linear(k2)))
    assert effective_slope(F, ExplicitSequence(syms), len(syms)).hex() == expected


def prod_reference(picked):
    """The np.prod form effective_slope had, with its zero rule."""
    picked = np.array(picked)
    if not picked.all():
        return -0.0 if np.signbit(picked).sum() % 2 else 0.0
    with np.errstate(over="ignore", under="ignore"):
        return float(np.prod(picked))


# zeros of both signs, factors that overflow or reach the subnormals
# together, and ordinary slopes
factors = st.one_of(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200, 5e-324, 0.5, -2.0]),
    st.floats(-1e10, 1e10),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(slopes=st.lists(factors, min_size=1, max_size=4), data=st.data())
def test_effective_slope_bits_equal_np_prod(slopes, data):
    syms = data.draw(st.lists(st.integers(1, len(slopes)), min_size=1, max_size=200))
    F = IfsDescriptor(tuple(linear(k) for k in slopes))
    sigma = ExplicitSequence(tuple(syms), alphabet=F.alphabet)
    got = effective_slope(F, sigma, len(syms))
    assert type(got) is float
    assert got.hex() == prod_reference([slopes[s - 1] for s in syms]).hex()


def test_effective_slope_rejects_nonlinear():
    F = IfsDescriptor((linear(0.5), linear_plus_lipschitz(0.5, sine_bump(0.1))))
    with pytest.raises(UnsupportedMapError):
        effective_slope(F, PeriodicSequence((1, 2)), 2)


def test_orbit_matches_effective_slope():
    rng = np.random.default_rng(77)
    for _ in range(25):
        ks = rng.uniform(0.1, 0.9, size=2)
        F = two_map_ifs(*ks)
        sig = BernoulliSequence(0.5, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 31))
        x = float(rng.uniform(-10, 10))
        lhs = compose_orbit(F, sig, n, x)
        rhs = effective_slope(F, sig, n) * x
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(x))


def test_sign_alternation_for_negative_slopes():
    F = two_map_ifs(-0.6, -0.3)
    sig = BernoulliSequence(0.5, seed=4)
    for x in (2.0, -3.5):
        for n in range(1, 12):
            val = compose_orbit(F, sig, n, x)
            assert np.sign(val) == (-1) ** n * np.sign(x)


def test_trajectory_prefix_consistency():
    F = two_map_ifs(0.5, 0.25)
    sig = PeriodicSequence((1, 2, 2))
    traj = orbit_trajectory(F, sig, 9, 4.0)
    assert traj[2] == pytest.approx(compose_orbit(F, sig, 3, 4.0))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        IfsDescriptor(())
    F = two_map_ifs(0.5, 0.2)
    with pytest.raises(ValueError):
        compose_orbit(F, ExplicitSequence((1, 3), alphabet=(1, 2, 3)), 2, 1.0)


def test_classify_slope_interval():
    assert classify_slope_interval(0.5) == "(0,1)"
    assert classify_slope_interval(-3.0) == "(-inf,-1)"
    assert classify_slope_interval(1.0) == "boundary"
    assert classify_slope_interval(-0.25) == "(-1,0)"
    assert classify_slope_interval(7.5) == "(1,+inf)"
    assert classify_slope_interval(0.0) == "boundary"
    assert classify_slope_interval(-1.0) == "boundary"
