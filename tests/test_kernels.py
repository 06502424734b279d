"""Kernel behaviours: the step cap, the reference exponent search, divergent
orbits, the Lipschitz maximum."""

import math

import numpy as np
import pytest

from ifsconj import _kernels as K
from ifsconj.catalog import linear, linear_plus_lipschitz, rational_bump, sine_bump, smooth
from ifsconj.conjugacy import locate_fundamental_exponent


def all_pairs_quotient_max(xs, fx):
    """Brute-force reference: max |fx[j] - fx[i]| / |xs[j] - xs[i]| over i < j."""
    best = 0.0
    for i in range(xs.size - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.abs((fx[i + 1:] - fx[i]) / (xs[i + 1:] - xs[i]))
        q[~np.isfinite(q)] = 0.0
        best = max(best, float(q.max()))
    return best


CATALOG = [
    linear(0.5),
    linear(-3.0),
    smooth(0.5, 0.1),
    smooth(2.0, 0.3),
    linear_plus_lipschitz(0.4, sine_bump(0.2)),
    linear_plus_lipschitz(-0.6, rational_bump(0.1)),
]


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
def test_fd_eval_nan_past_cap(bridge):
    xs = np.array([1e9, 0.7, 0.0])
    out = K.fd_eval(xs, 0.5, 0.25, 1.0, bridge, 3)
    assert np.isnan(out[0])
    assert np.isfinite(out[1]) and out[2] == 0.0


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
def test_fd_eval_matches_reference_search(bridge):
    kc, mc, a = 0.41, 0.73, 1.3
    rng = np.random.default_rng(5)
    spread = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-200, 200, 300)
    xs = np.concatenate([rng.uniform(-15, 15, 300), spread, [a, kc * a, -a, 0.0]])
    out = K.fd_eval(xs, kc, mc, a, bridge, 10_000)
    lo = kc * a
    for x, got in zip(xs, out):
        if x == 0.0:
            assert got == 0.0
            continue
        n, w = locate_fundamental_exponent(abs(x), kc, a)
        if bridge == K.BRIDGE_POWER:
            y = a * (w / a) ** (math.log(mc) / math.log(kc))
        else:
            y = mc * a + (w - lo) * ((a - mc * a) / (a - lo))
        assert got == pytest.approx(math.copysign(y * mc**-n, x), rel=1e-13)


def test_orbit_chain_holds_value_after_divergence():
    codes = np.array([K.MAP_SINE], dtype=np.int64)  # sine bump with expanding slope
    ks, cs, bs = np.array([3.0]), np.array([0.5]), np.array([0.0])
    out = K.orbit_chain(codes, ks, cs, bs, np.zeros(800, dtype=np.int64), 5.0)
    first = int(np.argmin(np.isfinite(out)))
    assert first > 0 and not np.isfinite(out[first])
    assert np.all(out[first:] == out[first])


@pytest.mark.parametrize("n", [2, 17, 256, 2048])
@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f"{f.kind}-{f.k}")
def test_pairwise_quotient_max_equals_all_pairs(f, n):
    xs = np.linspace(-2.0, 2.0, n)
    fx = np.asarray(f(xs), dtype=float)
    assert K.pairwise_quotient_max(xs, fx) == all_pairs_quotient_max(xs, fx)


def test_pairwise_quotient_max_repeated_point_scores_zero():
    f = smooth(0.5, 0.1)
    xs = np.linspace(-1.0, 1.0, 9)
    dup = np.sort(np.append(xs, xs[3]))
    fdup = np.asarray(f(dup), dtype=float)
    got = K.pairwise_quotient_max(dup, fdup)
    assert got == all_pairs_quotient_max(dup, fdup)
    assert got == K.pairwise_quotient_max(xs, np.asarray(f(xs), dtype=float))
    assert K.pairwise_quotient_max(np.array([1.0, 1.0]), np.array([2.0, 2.0])) == 0.0
