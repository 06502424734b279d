"""Kernel behaviours: the step cap, the reference exponent search, the
fundamental-domain evaluation against its checked step loop and an exact
rational reference, divergent orbits, orbit chains equal to their step
loops (absorbing tails and affine lanes included), the Lipschitz maximum."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ifsconj import BernoulliSequence, IfsDescriptor, orbit_trajectory
from ifsconj import _kernels as K
from ifsconj import catalog
from ifsconj.catalog import linear, linear_plus_lipschitz, rational_bump, sine_bump, smooth

from exponent_reference import locate_fundamental_exponent


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
    """Reference step loop: one map application per symbol, the rational
    bump and the smooth term taken as catalog takes them, non-finite held."""
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
            x = k * x + catalog._quotient(catalog._rational_near, catalog._rational_far, c, x)
        else:
            x = k * x + catalog._quotient(catalog._smooth_near, catalog._smooth_far, c, x)
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


def loop_exponents(v, kc, a, cap):
    """Settled w and exponent e of each v >= 0 by the checked step loop, and
    the indices that do not settle within cap + 1 steps."""
    w = v.copy()
    e = np.zeros(v.shape, dtype=np.int64)
    stuck_high = _walk_loop(w, e, np.flatnonzero(w > a), kc, a, cap, inward=True)
    stuck_low = _walk_loop(w, e, np.flatnonzero((v != 0.0) & (w < kc * a)), kc, a, cap, inward=False)
    return w, e, np.concatenate([stuck_high, stuck_low])


def fd_eval_loop(x, kc, mc, a, bridge_code, cap):
    """Reference fundamental-domain evaluation with checked steps and np.power(mc, e)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.abs(x).ravel()
    lo = kc * a
    w, e, stuck = loop_exponents(v, kc, a, cap)
    if bridge_code == K.BRIDGE_POWER:
        alpha = math.log(mc) / math.log(kc)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = a * (w / a) ** alpha
    else:
        y = mc * a + (w - lo) * ((a - mc * a) / (a - lo))
    out = np.sign(x).ravel() * y * np.power(mc, e.astype(np.float64))
    out[v == 0.0] = 0.0
    out[stuck] = np.nan
    return out.reshape(x.shape)


def seam_clipped(x, kc, mc, a, bridge_code, cap):
    """fd_eval_loop with |h| raised to at least top(e+1) = bridge(a)*mc**(e+1),
    the top of the next interval out: the seam value at the foot of the
    interval of e, below which the loop's roundings can let h fall."""
    x = np.asarray(x, dtype=np.float64)
    ref = fd_eval_loop(x, kc, mc, a, bridge_code, cap)
    _, e, _ = loop_exponents(np.abs(x), kc, a, cap)
    lo = kc * a
    top = a if bridge_code == K.BRIDGE_POWER else mc * a + (a - lo) * ((a - mc * a) / (a - lo))
    floor = top * np.power(mc, e + 1.0)
    return np.where((np.abs(ref) < floor) & (x != 0.0), np.sign(x) * floor, ref)


def fd_exact(x, kc, mc, a):
    """(h(x), e) of the linear bridge in exact rational arithmetic."""
    X, Kc, Mc, A = (Fraction(abs(x)), Fraction(kc), Fraction(mc), Fraction(a))
    e = math.floor(math.log(abs(x) / a) / math.log(kc))
    while X > A * Kc**e:
        e -= 1
    while X < A * Kc ** (e + 1):
        e += 1
    y = Mc * A + (X / Kc**e - Kc * A) * (A - Mc * A) / (A - Kc * A)
    return (y if x > 0 else -y) * Mc**e, e


def ulps_from(got, exact):
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


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
    out = K.fd_eval(np.array([np.nan, 1.0, 0.0, -np.nan]), 0.5, 0.25, 1.0, bridge, 100)
    assert np.isnan(out[0])
    assert out[1] == 1.0 and out[2] == 0.0
    # a negative nan gives the one positive quiet nan
    assert out[3:].tobytes() == np.array([np.nan]).tobytes()


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


def assert_fd_walked_equal(xs, kc, mc, a, bridge, cap):
    """fd_eval has the NaNs of the checked loop at this cap, but where a
    subnormal orbit of the loop rounds back to itself and never settles, and
    the loop's bits, up to the seam clip, on every entry that the loop
    settles within _CHECKED steps."""
    with np.errstate(over="ignore"):
        want = seam_clipped(xs, kc, mc, a, bridge, cap)
        walked = ~np.isnan(fd_eval_loop(xs, kc, mc, a, bridge, K._CHECKED - 1))
        v = np.abs(xs)
        stuck = (v != 0.0) & (v / kc == v)  # an outward step rounds back
        got = K.fd_eval(xs, kc, mc, a, bridge, cap)
    assert got.dtype == np.float64 and got.shape == xs.shape
    assert (np.isnan(got) == np.isnan(want))[~stuck].all(), (kc, mc, a, bridge, cap)
    assert got[walked].tobytes() == want[walked].tobytes(), (kc, mc, a, bridge, cap)
    return got


@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
@pytest.mark.parametrize("a", FD_ANCHORS)
@pytest.mark.parametrize("kc, mc", FD_SLOPES)
def test_fd_eval_bit_identical_to_loop(kc, mc, a, bridge):
    xs = fd_points(kc, a, seed=len(FD_SLOPES) * FD_ANCHORS.index(a) + FD_SLOPES.index((kc, mc)))
    # caps 0-3, caps that end among the entries that jump, and caps past
    # every finite orbit; the jumped entries are checked against the exact
    # reference below
    for cap in [0, 1, 2, 3, 7, 60, 250, 1000]:
        assert_fd_walked_equal(xs, kc, mc, a, bridge, cap)
    # the seam clip moves only a few of the loop's values, by an ulp or two
    with np.errstate(over="ignore"):
        ref = fd_eval_loop(xs, kc, mc, a, bridge, K._CHECKED - 1)
        clipped = seam_clipped(xs, kc, mc, a, bridge, K._CHECKED - 1)
    moved = clipped.view(np.int64) != ref.view(np.int64)
    assert moved.sum() <= 3
    assert (np.abs(clipped - ref)[moved] <= 2 * np.spacing(np.abs(ref[moved]))).all()


# kc = 2**-j: every checked step and every power of kc is exact, so the jump
# lands on the loop's exponent and w at any depth, the seams a*kc**j included
@pytest.mark.parametrize("bridge", [K.BRIDGE_LINEAR, K.BRIDGE_POWER])
@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("kc, mc", [(0.5, 0.25), (0.5, 0.73), (0.25, 0.9)])
def test_fd_eval_power_of_two_slope_matches_loop_at_any_depth(kc, mc, a, bridge):
    rng = np.random.default_rng(17)
    j = rng.integers(-400, 401, 300).astype(float)  # mc**e stays a normal float
    deep = rng.choice([-1.0, 1.0], 300) * rng.uniform(kc, 1.0, 300) * a * kc**-j
    seams = a * kc ** np.arange(-60.0, 61.0)
    xs = np.concatenate([deep, seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)])
    with np.errstate(over="ignore"):
        want = seam_clipped(xs, kc, mc, a, bridge, 10_000)
    assert K.fd_eval(xs, kc, mc, a, bridge, None).tobytes() == want.tobytes()


EXACT_SLOPES = [(0.41, 0.73), (0.9, 0.5), (0.3, 0.6), (0.999, 0.998), (0.05, 0.2), (0.95, 0.3)]


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("kc, mc", EXACT_SLOPES)
def test_fd_eval_deep_entries_near_exact_reference(kc, mc, a):
    # entries 9 to 400 steps out, with |h| within 1e+-250. The jump rounds w
    # two or three times, where the loop rounds it once per step; the linear
    # bridge magnifies a relative error in w by up to
    # amp = kc*(1 - mc) / ((1 - kc)*mc), at w = kc*a. Over six anchors and
    # 900 points per slope pair the largest error was 1.44*(2 + amp) ulp.
    rng = np.random.default_rng(23)
    jmax = int(250 * math.log(10) / max(-math.log(kc), -math.log(mc)))
    j = rng.integers(K._CHECKED + 1, min(jmax, 400), 60) * rng.choice([-1, 1], 60)
    xs = rng.choice([-1.0, 1.0], 60) * rng.uniform(kc, 1.0, 60) * a * kc ** -j.astype(float)
    got = K.fd_eval(xs, kc, mc, a, K.BRIDGE_LINEAR, None)
    loop = fd_eval_loop(xs, kc, mc, a, K.BRIDGE_LINEAR, 10_000)
    exact = [fd_exact(x, kc, mc, a)[0] for x in xs]
    err = np.array([ulps_from(g, ex) for g, ex in zip(got, exact)])
    err_loop = np.array([ulps_from(r, ex) for r, ex in zip(loop, exact)])
    amp = kc * (1 - mc) / ((1 - kc) * mc)
    assert err.max() <= 2 * (2 + amp)
    assert err.max() <= err_loop.max()


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
    for cap in (steps - 2, steps - 1):
        with np.errstate(over="ignore"):
            got = assert_fd_walked_equal(xs, kc, mc, a, bridge, cap)
            ref = fd_eval_loop(xs, kc, mc, a, bridge, cap)
        ok = np.isfinite(ref)
        assert got[ok] == pytest.approx(ref[ok], rel=1e-9)


@pytest.mark.parametrize("kc", [0.9, 0.99])
@pytest.mark.parametrize("x", [1e-310, 5e-320])
def test_fd_eval_caps_near_step_counts_subnormal(x, kc):
    # a subnormal orbit rounds by more than a normal one in the checked loop;
    # the jump takes the exponent of the exact orbit, and the cap turns the
    # value to NaN past it. With the power-law bridge h = a*(x/a)**alpha.
    a, mc, bridge = 1.3, 0.37, K.BRIDGE_POWER
    alpha = math.log(mc) / math.log(kc)
    t = math.log(x / a) / math.log(kc)
    assert abs(t - round(t)) > 1e-6
    steps = math.ceil(t) - 1  # x lies in [a*kc**(steps+1), a*kc**steps)
    xs = np.array([x, -x, 0.5 * a])
    settled = K.fd_eval(xs, kc, mc, a, bridge, None)
    assert settled[0] == pytest.approx(a * (x / a) ** alpha, rel=1e-12)
    assert settled[1] == -settled[0]
    for cap in range(steps - 4, steps + 2):
        got = K.fd_eval(xs, kc, mc, a, bridge, cap)
        want = settled.copy()
        if steps > cap + 1:
            want[:2] = np.nan
        assert got.tobytes() == want.tobytes(), cap


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


def signed(lo, hi):
    return st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), st.floats(lo, hi))


# a contractive row: at +-0 it keeps the sign, flips it or gives one zero,
# as the signs of k, c and b decide
ZERO_ROWS = st.tuples(st.integers(0, 3), signed(0.05, 0.6), signed(0.0, 0.3),
                      st.sampled_from([0.0, -0.0, 0.25]))
EDGE_LENGTHS = [K._BLOCK - 1, K._BLOCK, K._BLOCK + 1, 2 * K._BLOCK - 1, 2 * K._BLOCK,
                2 * K._BLOCK + 1, 3 * K._BLOCK + 17]


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ZERO_ROWS, min_size=1, max_size=4), n=st.sampled_from(EDGE_LENGTHS),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_chain_zero_tail_bit_identical_to_loop(rows, n, seed):
    codes, ks, cs, bs = K.pack_rows(rows)
    symbols = np.random.default_rng(seed).integers(0, len(rows), n)
    for x0 in [0.0, -0.0, 5e-324, -5e-324, 0.7, -3.0, 1e300, math.inf, -math.inf, math.nan]:
        got = K.orbit_chain(codes, ks, cs, bs, symbols, x0)
        assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, x0).tobytes(), x0


def test_orbit_chain_zero_tail_of_the_attractor_family():
    # the rational map keeps -0 and the smooth map sends it to +0: 2048
    # rational steps leave the orbit from -3 at -0 at a block edge, and the
    # zero tail meets the smooth map there
    rows = [smooth(0.5, 0.05).kernel_row(), linear_plus_lipschitz(0.4, rational_bump(0.1)).kernel_row()]
    codes, ks, cs, bs = K.pack_rows(rows)
    rng = np.random.default_rng(17)
    symbols = np.concatenate([np.ones(2 * K._BLOCK, dtype=np.int64), rng.integers(0, 2, 200_000 - 2 * K._BLOCK)])
    got = K.orbit_chain(codes, ks, cs, bs, symbols, -3.0)
    assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, -3.0).tobytes()
    edge = got[2 * K._BLOCK - 1]
    assert edge == 0.0 and np.signbit(edge)
    assert got[-1] == 0.0 and not np.signbit(got[-1])


@settings(max_examples=150, deadline=None)
@given(k=st.floats(1.5, 4.0), log_c=st.floats(-12.0, 250.0), rational=st.booleans(),
       x0=st.floats(0.5, 10.0), sign=st.sampled_from([1.0, -1.0]))
# the orbit of smooth(3.0, 0.1) from 1.0 turned nan past 1.197e155
@example(k=3.0, log_c=-1.0, rational=False, x0=1.0, sign=1.0)
def test_orbit_chain_steps_are_map_values_past_the_overflow(k, log_c, rational, x0, sign):
    # |f(x)| >= k|x| on these orbits, so each grows past 1.34e154, where x*x
    # leaves the float range, and on to the float range's end
    c = 10.0 ** log_c
    f = linear_plus_lipschitz(k, rational_bump(c)) if rational else smooth(k, sign * c)
    codes, ks, cs, bs = K.pack_rows([f.kernel_row()])
    out = K.orbit_chain(codes, ks, cs, bs, np.zeros(2000, dtype=np.int64), sign * x0)
    xs = np.concatenate(([sign * x0], out[:-1]))
    stepped = np.isfinite(xs)
    assert (np.abs(xs[stepped]) > 1.34e154).any() and not np.isfinite(out[-1])
    want = [f(x) for x in xs[stepped].tolist()]
    assert out[stepped].tobytes() == np.array(want).tobytes()


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


# ---------------------------------------------------------------------------
# absorbing values and affine lanes
# ---------------------------------------------------------------------------

def running_product_loop(diags, symbols, x0):
    """Reference step loop in the running product's operand order: x_1 =
    d_1 * x0, then x_t = x_{t-1} * d_t. It gives orbit_chain_diag_loop's
    bits but for the payload of a nan times a nan, which takes the first
    operand's."""
    n = symbols.shape[0]
    out = np.empty((n, x0.shape[0]), dtype=np.float64)
    with np.errstate(all="ignore"):
        x = diags[symbols[0]] * x0 if n else x0
        for t in range(n):
            if t:
                x = x * diags[symbols[t]]
            out[t] = x
    return out


def assert_diag_matches_loops(diags, symbols, x0):
    got = K.orbit_chain_diag(diags, symbols, x0)
    assert got.tobytes() == running_product_loop(diags, symbols, x0).tobytes()
    ref = orbit_chain_diag_loop(diags, symbols, x0)
    assert np.array_equal(got, ref, equal_nan=True)
    assert (np.signbit(got) == np.signbit(ref))[~np.isnan(ref)].all()
    return got


def test_running_product_loop_keeps_the_first_nan():
    # 0 * inf gives the negative default nan here, which the stored +nan
    # entry then meets: a block carried in as d * prev would take the +nan
    diags = np.array([[0.0], [math.inf], [math.nan]])
    got = running_product_loop(diags, np.array([0, 1, 2]), np.array([1.0]))
    assert np.isnan(got[1:]).all() and got[2].tobytes() == got[1].tobytes()


# (code, slopes, offsets) of affine families on the lanes: contractive,
# with a slope near 1, expansive and mixed
AFFINE_SLOPES = st.one_of(st.floats(-0.95, 0.95), st.floats(0.99, 0.99999),
                          st.floats(-1.001, -0.999), st.floats(1.0001, 1.3))
LANE_EDGES = [K._BLOCK + K._MIN_LANES * K._LANE_STEPS + d for d in (-1, 0, 1, K._MIN_LANES - 1)] + \
             [K._BLOCK + K._LANES * K._LANE_STEPS + d for d in (-1, 0, 1, K._LANES + 1)]
LANE_STARTS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -0.4, 3.0, math.inf, -math.inf, math.nan]


@settings(max_examples=40, deadline=None)
@given(ks=st.lists(AFFINE_SLOPES, min_size=1, max_size=3),
       bs=st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e-300])),
                   min_size=3, max_size=3),
       n=st.sampled_from(LANE_EDGES), x0=st.sampled_from(LANE_STARTS), seed=st.integers(0, 2**32 - 1))
def test_orbit_chain_affine_lanes_bit_identical_to_loop(ks, bs, n, x0, seed):
    rows = [(K.MAP_LINEAR, k, 0.0, b) for k, b in zip(ks, bs)]
    codes, kk, cs, bb = K.pack_rows(rows)
    symbols = np.random.default_rng(seed).integers(0, len(rows), n)
    got = K.orbit_chain(codes, kk, cs, bb, symbols, x0)
    assert got.tobytes() == orbit_chain_loop(codes, kk, cs, bb, symbols, x0).tobytes()


def test_affine_lanes_settle_on_the_cantor_family():
    # the lanes take the Cantor orbit after the first block, settling in one
    # restart; their bits are the loop's
    maps = [(K.MAP_LINEAR, 1 / 3, 0.0, 0.0), (K.MAP_LINEAR, 1 / 3, 0.0, 2 / 3)]
    codes, ks, cs, bs = K.pack_rows(maps)
    symbols = np.random.default_rng(11).integers(0, 2, 200_000)
    got = K.orbit_chain(codes, ks, cs, bs, symbols, 0.5)
    assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, 0.5).tobytes()
    rest = np.empty(symbols.size - K._BLOCK)
    done = K._affine_lanes(rest, symbols[K._BLOCK:], maps, float(got[K._BLOCK - 1]))
    assert done == K._LANES * ((symbols.size - K._BLOCK) // K._LANES)
    assert rest[:done].tobytes() == got[K._BLOCK:K._BLOCK + done].tobytes()


def test_affine_lanes_leave_expansive_and_diverging_orbits_to_the_loop():
    symbols = np.random.default_rng(3).integers(0, 2, 40_000)
    # lanes from a wrong start never meet the true ones under an expansion
    expansive = [(K.MAP_LINEAR, 1.001, 0.0, 0.5), (K.MAP_LINEAR, -1.0005, 0.0, -0.25)]
    assert K._affine_lanes(np.empty(symbols.size), symbols, expansive, 0.3) == 0
    # the orbit passes 1e308 and turns infinite, which the loop holds
    diverging = [(K.MAP_LINEAR, 1.2, 0.0, 0.5), (K.MAP_LINEAR, 1.1, 0.0, 1.0)]
    assert K._affine_lanes(np.empty(symbols.size), symbols, diverging, 1e300) == 0
    for maps in (expansive, diverging):
        codes, ks, cs, bs = K.pack_rows(maps)
        got = K.orbit_chain(codes, ks, cs, bs, symbols, 0.3)
        assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, 0.3).tobytes()


# rows that keep +-5e-324 up to sign or send it to 0: |k| above or at 1/2,
# bumps too small to move a subnormal, offsets of +-0 or +-5e-324 (a
# constant map where k*x vanishes)
SUBNORMAL_ROWS = st.tuples(st.integers(0, 3),
                           st.one_of(signed(0.5, 1.0), st.sampled_from([1e-300, -1e-300, 0.0])),
                           signed(0.0, 0.3), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(SUBNORMAL_ROWS, min_size=1, max_size=4), n=st.sampled_from(EDGE_LENGTHS),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_chain_subnormal_tail_bit_identical_to_loop(rows, n, seed):
    codes, ks, cs, bs = K.pack_rows(rows)
    symbols = np.random.default_rng(seed).integers(0, len(rows), n)
    for x0 in [5e-324, -5e-324, 1e-323, 0.7, -3.0, 1e300, math.nan]:
        got = K.orbit_chain(codes, ks, cs, bs, symbols, x0)
        assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, x0).tobytes(), x0


@pytest.mark.parametrize("const", [5e-324, -5e-324])
def test_orbit_chain_subnormal_tail_with_constant_and_flipping_maps(const):
    # on +-5e-324 the first map keeps the sign, the second flips it and the
    # third, whose k*x vanishes, gives its offset whatever the sign
    rows = [(K.MAP_LINEAR, 0.7, 0.0, 0.0), (K.MAP_SINE, -0.6, 0.2, 0.0),
            (K.MAP_LINEAR, 1e-300, 0.0, const)]
    codes, ks, cs, bs = K.pack_rows(rows)
    symbols = np.random.default_rng(8).integers(0, 3, 3 * K._BLOCK + 17)
    for x0 in [1.0, -2.5, 5e-324]:
        got = K.orbit_chain(codes, ks, cs, bs, symbols, x0)
        assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, x0).tobytes(), x0
        assert np.signbit(got[K._BLOCK:]).any() and not np.signbit(got[K._BLOCK:]).all()
        assert (np.abs(got[K._BLOCK:]) == 5e-324).all()


def test_orbit_stuck_at_the_smallest_subnormal_takes_the_tail():
    # 0.6 * 5e-324 and 0.7 * 5e-324 round back to 5e-324, so the orbit never
    # reaches 0; it gets there within two blocks, and the tail writes the
    # rest. A loop over every step takes about as long per step as the sine
    # orbit below, which has a tenth of the steps and never settles
    codes, ks, cs, bs = K.pack_rows([(K.MAP_LINEAR, 0.6, 0.0, 0.0), (K.MAP_LINEAR, 0.7, 0.0, 0.0)])
    symbols = np.random.default_rng(3).integers(0, 2, 1_000_000)
    got = K.orbit_chain(codes, ks, cs, bs, symbols[:200_000], 1.0)
    assert got.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols[:200_000], 1.0).tobytes()
    assert got[2 * K._BLOCK] == got[-1] == 5e-324
    sine = K.pack_rows([(K.MAP_SINE, 0.5, 2.0, 0.0)])  # 0 repels: no tail
    stuck, looped = [], []
    for _ in range(3):
        t = time.perf_counter()
        K.orbit_chain(codes, ks, cs, bs, symbols, 1.0)
        stuck.append(time.perf_counter() - t)
        t = time.perf_counter()
        K.orbit_chain(*sine, symbols[:100_000] * 0, 1.0)
        looped.append(time.perf_counter() - t)
    assert min(stuck) < min(looped)


def test_orbit_trajectory_stuck_at_the_smallest_subnormal():
    F = IfsDescriptor((linear(0.6), linear(0.7)))
    traj = orbit_trajectory(F, BernoulliSequence(0.5, 3), 200_000, 1.0)
    codes, ks, cs, bs = F.kernel_table()
    symbols = BernoulliSequence(0.5, 3).prefix(200_000) - 1
    assert traj.tobytes() == orbit_chain_loop(codes, ks, cs, bs, symbols, 1.0).tobytes()
    assert traj[-1] == 5e-324


DIAG_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.51, -0.51, 0.7, -0.7, 1.0, -1.0, 2.0, 1e-300,
                     math.inf, math.nan]),
    st.floats(-1.0, 1.0))
DIAG_EDGES = [1, K._BLOCK - 1, K._BLOCK, K._BLOCK + 1, 2 * K._BLOCK + 1, 4 * K._BLOCK - 1,
              4 * K._BLOCK + 1, 8 * K._BLOCK + 3]
DIAG_STARTS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0, 1e308, math.inf, -math.inf, math.nan]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 3).flatmap(
           lambda m: st.lists(st.lists(DIAG_ENTRIES, min_size=m, max_size=m), min_size=1, max_size=3)),
       n=st.sampled_from(DIAG_EDGES), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_orbit_chain_diag_absorbing_tail_bit_identical_to_loop(rows, n, seed, data):
    diags = np.array(rows)
    x0 = np.array(data.draw(st.lists(st.sampled_from(DIAG_STARTS), min_size=diags.shape[1],
                                     max_size=diags.shape[1])))
    symbols = np.random.default_rng(seed).integers(0, len(rows), n)
    assert_diag_matches_loops(diags, symbols, x0)


def test_orbit_chain_diag_block_edges_keep_the_running_product_order():
    # inf * 0 gives the negative default nan on x86, and the +nan entry is
    # picked at each block's first row: carried in as d * prev, that row
    # would take the +nan
    diags = np.array([[math.inf], [math.nan], [0.5]])
    symbols = np.full(8 * K._BLOCK + 5, 2)
    symbols[0] = 0
    symbols[[K._BLOCK, 2 * K._BLOCK, 4 * K._BLOCK, 8 * K._BLOCK]] = 1
    got = assert_diag_matches_loops(diags, symbols, np.array([0.0]))
    assert np.isnan(got).all()


# the diagonal chaos game's maps have entries in (0.3, 0.7): a column whose
# entries all exceed 1/2 sticks at 5e-324, the others reach 0
BENCHMARK_DIAGS = {
    0: [[0.62, 0.45, 0.38], [0.45, 0.66, 0.52]],
    1: [[0.62, 0.45, 0.38], [0.55, 0.66, 0.52]],
    3: [[0.62, 0.51, 0.69], [0.55, 0.66, 0.52]],
}


@pytest.mark.parametrize("stuck", list(BENCHMARK_DIAGS))
def test_orbit_chain_diag_benchmark_shapes(stuck):
    diags = np.array(BENCHMARK_DIAGS[stuck])
    sticks = (diags > 0.5).all(axis=0)
    assert sticks.sum() == stuck
    symbols = np.random.default_rng(stuck).integers(0, 2, 20_000)
    x0 = np.array([4.2, -3.1, 0.7])
    got = assert_diag_matches_loops(diags, symbols, x0)
    assert got[-1].tobytes() == (np.where(sticks, 5e-324, 0.0) * np.sign(x0)).tobytes()


def test_orbit_chain_diag_signed_absorbing_tail():
    # negative entries flip the sign of the stuck and zero coordinates, an
    # entry of 1 keeps any value, and inf is kept by every nonzero entry
    diags = np.array([[-0.6, 0.7, -1.0, 2.0], [0.9, -0.55, 1.0, -0.3]])
    symbols = np.random.default_rng(5).integers(0, 2, 12_000)
    got = assert_diag_matches_loops(diags, symbols, np.array([1.0, -2.0, 0.3, math.inf]))
    assert (np.abs(got[-1]) == [5e-324, 5e-324, 0.3, math.inf]).all()
