"""Kernel behaviours: the step cap, the reference exponent search, the
fundamental-domain walk equal to its checked step loop, divergent orbits,
orbit chains equal to their step loops, the Lipschitz maximum."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def _walk_loop(w, e, idx, kc, a, cap, inward):
    """Reference walk: one checked step at a time for every unsettled entry."""
    lo = kc * a
    ww = w[idx]
    for n in range(1, cap + 2):
        if idx.size == 0:
            break
        if inward:
            ww = ww * kc
            out = ww > a
        else:
            ww = ww / kc
            out = ww < lo
        if not out.all():
            done = ~out
            w[idx[done]] = ww[done]
            e[idx[done]] += -n if inward else n
            idx, ww = idx[out], ww[out]
    return idx


def fd_eval_loop(x, kc, mc, a, bridge_code, cap):
    """Reference fundamental-domain evaluation with checked steps and np.power(mc, e)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.abs(x).ravel()
    lo = kc * a
    w = v.copy()
    e = np.zeros(v.shape, dtype=np.int64)
    zero = v == 0.0
    stuck_high = _walk_loop(w, e, np.flatnonzero(w > a), kc, a, cap, inward=True)
    stuck_low = _walk_loop(w, e, np.flatnonzero(~zero & (w < lo)), kc, a, cap, inward=False)
    if bridge_code == K.BRIDGE_POWER:
        alpha = math.log(mc) / math.log(kc)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = a * (w / a) ** alpha
    else:
        y = mc * a + (w - lo) * ((a - mc * a) / (a - lo))
    out = np.sign(x).ravel() * y * np.power(mc, e.astype(np.float64))
    out[zero] = 0.0
    out[stuck_high] = np.nan
    out[stuck_low] = np.nan
    return out.reshape(x.shape)


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


FD_SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
               -5e-324, 1e-310, -2.2250738585072014e-308, 2.225073858507201e-308]
# (kc, mc): core slopes near 1e-3, mid-range and near 1 - 1e-6
FD_SLOPES = [(1.1e-3, 0.37), (0.41, 0.73), (0.7, 2.3e-3), (1 - 1e-6, 1 - 3e-6)]
FD_ANCHORS = [1.0, 1e300, 1e-300]


def fd_points(kc, a, seed, depth=400, size=300):
    """Entries at orbit depths within +-depth steps of [kc*a, a], its two ends
    and their neighbours, and the special values."""
    rng = np.random.default_rng(seed)
    j = rng.integers(-depth, depth + 1, size)
    with np.errstate(over="ignore", under="ignore"):
        deep = rng.choice([-1.0, 1.0], size) * rng.uniform(kc, 1.0, size) * a * kc ** (-j.astype(float))
    lo = kc * a
    ends = [a, lo, -a, np.nextafter(a, 2 * a), np.nextafter(lo, 0.0), a / kc, lo * kc]
    return np.concatenate([deep, ends, FD_SPECIALS])


def assert_fd_equal(xs, kc, mc, a, bridge, cap):
    with np.errstate(over="ignore"):
        ref = fd_eval_loop(xs, kc, mc, a, bridge, cap)
        got = K.fd_eval(xs, kc, mc, a, bridge, cap)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert got.tobytes() == ref.tobytes(), (kc, mc, a, bridge, cap)


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
@pytest.mark.parametrize("a", FD_ANCHORS)
@pytest.mark.parametrize("kc, mc", FD_SLOPES)
def test_fd_eval_bit_identical_to_loop(kc, mc, a, bridge):
    xs = fd_points(kc, a, seed=len(FD_SLOPES) * FD_ANCHORS.index(a) + FD_SLOPES.index((kc, mc)))
    # caps 0-3, caps that end inside the blind steps of the deep entries, and
    # caps past every finite walk
    for cap in [0, 1, 2, 3, 7, 60, 250, 1000]:
        assert_fd_equal(xs, kc, mc, a, bridge, cap)


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
@pytest.mark.parametrize("kc, mc", FD_SLOPES)
def test_fd_eval_caps_near_step_counts(kc, mc, bridge):
    a = 1.3
    # about 40, 55 and 90 steps out, half a step inside a fundamental interval
    xs = a * np.array([kc ** -39.5, kc ** 55.5, -(kc ** -89.5)])
    for x in xs:
        n, _ = locate_fundamental_exponent(abs(x), kc, a)
        steps = abs(n)  # the walk settles x after |n| steps, within cap + 1
        for cap in range(steps - 4, steps + 2):
            got = K.fd_eval(np.array([x, 0.5 * a]), kc, mc, a, bridge, cap)
            assert np.isnan(got[0]) == (steps > cap + 1)
        assert_fd_equal(xs, kc, mc, a, bridge, steps - 1)
        assert_fd_equal(xs, kc, mc, a, bridge, steps - 2)


@pytest.mark.parametrize("kc", [0.9, 0.99])
@pytest.mark.parametrize("x", [1e-310, 5e-320])
def test_fd_eval_caps_near_step_counts_subnormal(x, kc):
    # a subnormal orbit rounds by more than a normal one; the walk must not
    # drop it as an overrun when a cap near its step count lets it settle
    a, mc, bridge = 1.3, 0.37, K.BRIDGE_LINEAR
    n, _ = locate_fundamental_exponent(x, kc, a, cap=10**6)
    steps = abs(n)
    xs = np.array([x, -x, 0.5 * a])
    # the loop's output at any cap: this, with nan for x and -x below steps - 1
    settled = fd_eval_loop(xs, kc, mc, a, bridge, steps - 1)
    assert np.isfinite(settled).all()
    for cap in range(steps - 4, steps + 2):
        got = K.fd_eval(xs, kc, mc, a, bridge, cap)
        want = settled.copy()
        if steps > cap + 1:
            want[:2] = np.nan
        assert got.tobytes() == want.tobytes(), cap


def test_fd_eval_restarts_an_entry_that_settles_within_its_blind_steps(monkeypatch):
    # with a subnormal anchor and kc near 1, the inward orbit of x rounds down
    # faster than its log estimate: it settles within the blind steps it is
    # given after the checked ones, so it restarts from where those left it
    kc, a, x = 0.9991514266763675, 3.157e-321, 3.31e-321
    calls = []
    blind_steps = K._blind_steps

    def spy(ww, *args):
        start = ww.copy()
        taken = blind_steps(ww, *args)
        calls.append((start, ww.copy(), taken))
        return taken

    monkeypatch.setattr(K, "_blind_steps", spy)
    for bridge in (K.BRIDGE_LINEAR, K.BRIDGE_POWER):
        for cap in (30, 40, 200):
            assert_fd_equal(np.array([x, -x]), kc, 0.25, a, bridge, cap)
            start, after, taken = calls.pop()
            estimate = (np.log(start) - math.log(a)) / -math.log(kc)
            assert (np.ceil(estimate) - 2 >= 1).all()
            assert (taken == 0).all() and after.tobytes() == start.tobytes()
        # an entry 817 steps out walks blind past the restarted ones
        assert_fd_equal(np.array([x, 2 * a, -x]), kc, 0.25, a, bridge, 1000)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kc=st.floats(1e-3, 0.999),
    mc=st.floats(1e-3, 0.999),
    log_a=st.floats(-3.0, 3.0),
    log_x=st.floats(-60.0, 60.0),
    sign=st.sampled_from([-1.0, 1.0]),
    bridge=st.sampled_from([K.BRIDGE_LINEAR, K.BRIDGE_POWER]),
)
def test_fd_eval_property_matches_reference_search(kc, mc, log_a, log_x, sign, bridge):
    a, x = 10.0**log_a, sign * 10.0**log_x
    n, w = locate_fundamental_exponent(abs(x), kc, a, cap=10**6)
    lo = kc * a
    if bridge == K.BRIDGE_POWER:
        y = a * (w / a) ** (math.log(mc) / math.log(kc))
    else:
        y = mc * a + (w - lo) * ((a - mc * a) / (a - lo))
    with np.errstate(over="ignore", under="ignore"):
        expected = float(np.float64(math.copysign(y, x)) * np.power(mc, -float(n)))
    assume(1e-290 < abs(expected) < 1e290)
    steps = abs(n)
    got = K.fd_eval(np.array([x]), kc, mc, a, bridge, steps - 1)[0]
    assert got == pytest.approx(expected, rel=1e-13)
    if steps >= 1:  # one step less than the walk needs leaves x unsettled
        assert np.isnan(K.fd_eval(np.array([x]), kc, mc, a, bridge, steps - 2)[0])


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
