"""Kernel behaviours: the step cap, the reference exponent search, divergent
orbits, orbit chains equal to their step loops, the Lipschitz maximum."""

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


def orbit_chain_loop(codes, ks, cs, bs, symbols, x0):
    """Reference step loop: one map application per symbol, non-finite held."""
    n = symbols.shape[0]
    out = np.empty(n, dtype=np.float64)
    x = float(x0)
    ks = [float(v) for v in ks]
    cs = [float(v) for v in cs]
    bs = [float(v) for v in bs]
    for t in range(n):
        if not math.isfinite(x):
            out[t:] = x
            break
        s = symbols[t]
        code = codes[s]
        k = ks[s]
        c = cs[s]
        b = bs[s]
        if code == K.MAP_LINEAR:
            x = k * x + b
        elif code == K.MAP_SINE:
            x = k * x + c * math.sin(x)
        elif code == K.MAP_RATIONAL:
            x = k * x + c * x / (1.0 + x * x)
        else:
            x = k * x + c * x * x / (1.0 + x * x)
        out[t] = x
    return out


def orbit_chain_diag_loop(diags, symbols, x0):
    """Reference step loop: x_t = d_t * x_{t-1}, one row per symbol."""
    n = symbols.shape[0]
    out = np.empty((n, x0.shape[0]), dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    with np.errstate(all="ignore"):
        for t in range(n):
            x = diags[symbols[t]] * x
            out[t] = x
    return out


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


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
def test_fd_eval_nan_gives_nan(bridge):
    out = K.fd_eval(np.array([np.nan, 1.0, 0.0]), 0.5, 0.25, 1.0, bridge, 100)
    assert np.isnan(out[0])
    assert out[1] == 1.0 and out[2] == 0.0


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


ORBIT_STARTS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
ORBIT_TABLES = {
    # (codes, ks, cs, bs)
    "linear": ([0], [0.5], [0.0], [0.0]),
    "affine": ([0, 0], [1 / 3, -0.4], [0.0, 0.0], [2 / 3, -1e-310]),
    "sine": ([1, 1], [0.4, -0.7], [0.1, 0.25], [0.0, 0.0]),
    "rational": ([2, 2], [0.0, 1e200], [0.3, -1e-200], [0.0, 0.0]),
    "smooth-rq": ([3, 3], [1e-200, -0.5], [0.05, 1e200], [0.0, 0.0]),
    "mixed": ([0, 1, 2, 3], [-1e200, 0.3, 0.0, 1.0], [0.0, 0.2, -0.1, 0.4],
              [0.5, 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("n", [0, 1, 17, 5000])
@pytest.mark.parametrize("name", list(ORBIT_TABLES))
def test_orbit_chain_bit_identical_to_loop(name, n):
    codes, ks, cs, bs = (np.array(v) for v in ORBIT_TABLES[name])
    codes = codes.astype(np.int64)
    symbols = np.random.default_rng(n).integers(0, codes.size, n).astype(np.int64)
    for x0 in ORBIT_STARTS + [0.7, -3.0]:
        got = K.orbit_chain(codes, ks, cs, bs, symbols, x0)
        ref = orbit_chain_loop(codes, ks, cs, bs, symbols, x0)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == ref.tobytes(), x0


DIAG_TABLES = {
    "contractive": [[0.5, 0.3, 0.2], [0.4, 0.6, 0.1]],
    "signed-zero": [[0.0, -0.5, 1.0], [-0.25, 0.0, -1.0]],
    "extreme": [[1e200, 1e-200, -1e200], [1e-200, 1e200, -1e-200]],
}


@pytest.mark.parametrize("n", [0, 1, 17, 5000])
@pytest.mark.parametrize("name", list(DIAG_TABLES))
def test_orbit_chain_diag_bit_identical_to_loop(name, n):
    diags = np.array(DIAG_TABLES[name])
    symbols = np.random.default_rng(n).integers(0, len(diags), n).astype(np.int64)
    starts = ORBIT_STARTS + [0.7, -3.0, 1.0]
    for i in range(0, len(starts), 3):
        x0 = np.array(starts[i:i + 3])
        kept = x0.copy()
        got = K.orbit_chain_diag(diags, symbols, x0)
        ref = orbit_chain_diag_loop(diags, symbols, x0)
        assert got.dtype == np.float64 and got.shape == (n, 3)
        assert got.tobytes() == ref.tobytes(), x0
        assert x0.tobytes() == kept.tobytes()


def test_orbit_chain_diag_integer_diagonals_give_floats():
    diags = np.array([[2, -1], [3, 0]])
    symbols = np.array([0, 1, 0], dtype=np.int64)
    x0 = np.array([1, 5])
    got = K.orbit_chain_diag(diags, symbols, x0)
    assert got.dtype == np.float64
    assert got.tobytes() == orbit_chain_diag_loop(diags, symbols, x0).tobytes()


def test_orbit_chain_diag_overflow_is_quiet():
    # pytest turns a leaked RuntimeWarning into a failure
    diags = np.array([[1e200, 1e-200, 0.0]])
    x0 = np.array([1e200, 1e-200, math.inf])
    out = K.orbit_chain_diag(diags, np.zeros(4, dtype=np.int64), x0)
    assert np.isposinf(out[-1, 0]) and out[-1, 1] == 0.0 and np.isnan(out[-1, 2])
