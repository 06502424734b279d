"""Numeric kernels: orbit chains, fundamental-domain evaluation and the
Lipschitz difference-quotient maximum.

Each kernel has one numpy implementation, called under its public name by
ifs, attractor, conjugacy and catalog.

Catalog maps are encoded for the kernels as (code, k, c, b) rows:

    code 0   k*x + b            (linear; b != 0 only for attractor demos)
    code 1   k*x + c*sin(x)
    code 2   k*x + c*x/(1+x^2)
    code 3   k*x + c*x^2/(1+x^2)

Bridge codes: 0 linear interpolation, 1 power law.
"""

from __future__ import annotations

import math

import numpy as np

MAP_LINEAR = 0
MAP_SINE = 1
MAP_RATIONAL = 2
MAP_SMOOTH_RQ = 3

BRIDGE_LINEAR = 0
BRIDGE_POWER = 1


# ---------------------------------------------------------------------------
# orbit chain: x_{t+1} = f_{sym_t}(x_t), full trajectory returned
# ---------------------------------------------------------------------------

def pack_rows(rows):
    """Split a list of (code, k, c, b) rows into the codes, ks, cs, bs arrays."""
    codes = np.array([r[0] for r in rows], dtype=np.int64)
    ks = np.array([r[1] for r in rows])
    cs = np.array([r[2] for r in rows])
    bs = np.array([r[3] for r in rows])
    return codes, ks, cs, bs


def orbit_chain(codes, ks, cs, bs, symbols, x0):
    """Trajectory of x0 under the maps picked by symbols.

    Once the orbit is non-finite, the rest of the trajectory holds that
    non-finite value.
    """
    out = np.empty(symbols.shape[0], dtype=np.float64)
    maps = [(int(code), float(k), float(c), float(b))
            for code, k, c, b in zip(codes, ks, cs, bs)]
    isfinite, sin = math.isfinite, math.sin
    x = float(x0)
    # a memoryview stores a Python float into out faster than ndarray indexing
    with memoryview(out) as buf:
        for t, s in enumerate(symbols.tolist()):
            if not isfinite(x):
                out[t:] = x
                break
            code, k, c, b = maps[s]
            if code == MAP_LINEAR:
                x = k * x + b
            elif code == MAP_SINE:
                x = k * x + c * sin(x)
            elif code == MAP_RATIONAL:
                x = k * x + c * x / (1.0 + x * x)
            else:
                x = k * x + c * x * x / (1.0 + x * x)
            buf[t] = x
    return out


def orbit_chain_diag(diags, symbols, x0):
    """Trajectory in R^m of x0 under the diagonal maps picked by symbols.

    Row t is the running product ((x0*d_1)*d_2)...*d_t of the picked
    diagonals, with x0 folded into the first row. IEEE multiplication is
    commutative, so every entry is rounded exactly as in the step x_t =
    d_t * x_{t-1}, including at +-0, subnormals, +-inf and a nan start
    (only the payload of a product of two nans can depend on the order).
    """
    out = np.asarray(diags, dtype=np.float64)[symbols]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out[:1] *= x0
        np.multiply.accumulate(out, axis=0, out=out)
    return out


# ---------------------------------------------------------------------------
# fundamental-domain homeomorphism evaluation
#
# Contractive core: 0 < kc, mc < 1, anchor a > 0. Values are pushed into the
# fundamental interval [kc*a, a] by repeated multiplication/division by kc
# (ties resolved toward the smaller exponent by the closed-interval compares),
# fed through the bridge, and rescaled by the matching power of mc, read from
# a table of mc**j over the exponent range. Odd extension handles negative
# arguments. Returns NaN where the step cap is hit.
#
# Deep orbits take blind steps. For w > 0 and 0 < kc < 1, fl(w*kc) <= w and
# fl(w/kc) >= w, and rounding is monotone, so an inward walk never increases
# and an outward walk never decreases: an entry still outside [kc*a, a] after
# n steps was outside after every earlier step, and the compares of those
# steps can be skipped. Entries still outside after _CHECKED checked steps
# estimate their remaining step count from log(|w|/a) / log(1/kc) and take
# all but the last two of those steps unchecked, one in-place multiply or
# divide per step on the prefix of entries (sorted by estimate) still
# stepping. One compare then confirms each entry is still outside; the rare
# entry that already settled (subnormal orbits can round faster than the
# estimate) restarts from where the checked steps left it. The checked loop
# takes the last steps and counts each entry's blind steps against its
# cap + 1. Every entry sees the same roundings as in a loop of checked steps,
# so the output keeps its bits, and walks at most _CHECKED steps deep run the
# checked loop alone.
#
# The walk alone decides overruns. At the blind-step point it drops, as
# stopped by the cap, every entry that provably cannot settle in the steps it
# has left. When kc*a is normal, those are the entries whose log estimate
# exceeds a lower bound of the steps left: one step moves log w by at most
# log(1/kc)*(1 + 1e-15) + 1e-15 (one rounding of the step and of log(1/kc)
# itself) while w is normal, and a 1e-11 slack covers the roundings of the
# logs. A subnormal orbit can round by much more than a factor kc per step, so
# it is bounded only from fl(tiny/kc), the first normal value it can reach.
# Where no bound holds, an entry whose step rounds back to itself (w*kc == w
# inward, w/kc == w outward; only inf and subnormals do) never moves again.
# Dropped entries would reach their cap anyway, so every value and NaN keeps
# its bits, and an input that needs 1e9 steps against a cap of 1e6 fails
# after _CHECKED steps instead of walking the cap. The walk still runs over
# the entries that settle, so a batch that also holds an overrun costs what
# walking its settling entries costs.
# ---------------------------------------------------------------------------

# checked steps before the entries still outside step blind; for walks of
# fewer steps the estimate costs more numpy calls than it saves
_CHECKED = 8

_TINY = np.finfo(np.float64).tiny  # smallest normal float


def _blind_steps(ww, kc, a, cap, inward):
    """Take up to cap unchecked steps of the deep entries of ww, in place.

    Returns each entry's count of blind steps, or None when no entry takes
    one and none is sure to overrun. The count is 0 where the estimate leaves
    none, or where the entry settled within them and was put back to its
    start; it is cap, with no step taken, where the entry provably cannot
    settle within cap steps.
    """
    lo = kc * a
    ell = -math.log(kc)
    if inward:
        est = (np.log(ww) - math.log(a)) / ell
    else:
        est = (math.log(lo) - np.log(ww)) / ell
    # est > reach: the entry needs more than cap steps, by the log bound
    reach = ((cap + 1) * (ell * (1 + 1e-15) + 1e-15) + 1e-11) / ell
    if lo >= _TINY and (inward or (math.log(lo) - math.log(_TINY / kc)) / ell > reach):
        # a step rounds back to its input only at inf or a subnormal, both
        # past reach: a subnormal is bounded from fl(_TINY / kc)
        over = np.flatnonzero(est > reach)
    else:
        # no bound holds for a subnormal (nor for a normal entry within one
        # step of fl(_TINY / kc)); one whose step rounds back never moves
        over = np.flatnonzero(ww * kc == ww if inward else ww / kc == ww)
    blind = np.minimum(np.ceil(est) - 2.0, float(cap))
    blind[over] = 0.0
    deep = np.flatnonzero(blind >= 1.0)
    if deep.size == 0 and over.size == 0:
        return None
    taken = np.zeros(ww.size, dtype=np.int64)
    taken[over] = cap
    if deep.size == 0:
        return taken
    order = deep[np.argsort(-blind[deep], kind="stable")]
    steps = blind[order].astype(np.int64)
    run = ww[order]
    # before step s, the entries with at least s blind steps are a prefix of run
    widths = np.searchsorted(-steps, -np.arange(1, steps[0] + 1), side="right")
    step = np.multiply if inward else np.divide
    with np.errstate(over="ignore", under="ignore"):  # an overshoot restarts
        for width in widths.tolist():
            head = run[:width]
            step(head, kc, out=head)
    moved = run > a if inward else run < lo
    ww[order[moved]] = run[moved]
    taken[order[moved]] = steps[moved]
    return taken


def _walk(w, e, idx, kc, a, cap, inward):
    """Step w[idx] by kc until it lies in [kc*a, a], at most cap + 1 times.

    Inward steps multiply by kc (entries above a), outward steps divide by kc
    (entries below kc*a). Settled entries are written back to w, their step
    count added to e (negative inward), and dropped from the working set.
    Entries still outside after _CHECKED steps take their blind steps, and
    those sure to overrun are dropped there. Returns the indices that do not
    settle within the cap; their w and e are left as they were.
    """
    lo = kc * a
    ww = w[idx]
    left = None  # per index of w: the last loop step the entry may take
    limit = cap + 1  # the smallest of those over the working set
    stuck = []
    for n in range(1, cap + 2):
        if n == _CHECKED + 1 and idx.size:
            taken = _blind_steps(ww, kc, a, cap + 1 - _CHECKED, inward)
            if taken is not None:
                e[idx] += -taken if inward else taken
                left = np.empty(w.size, dtype=np.int64)
                left[idx] = cap + 1 - taken
                limit = cap + 1 - int(taken.max())
        if n > limit:
            over = left[idx] < n
            stuck.append(idx[over])
            idx, ww = idx[~over], ww[~over]
            limit = int(left[idx].min(initial=cap + 1))
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
    if left is None:
        return idx
    stuck = np.concatenate(stuck + [idx])
    e[stuck] = 0
    return stuck


def fd_eval(x, kc, mc, a, bridge_code, cap):
    x = np.asarray(x, dtype=np.float64)
    v = np.abs(x).ravel()
    lo = kc * a
    w = v.copy()
    e = np.zeros(v.shape, dtype=np.int64)
    zero = v == 0.0
    stuck_high = _walk(w, e, np.flatnonzero(w > a), kc, a, cap, inward=True)
    stuck_low = _walk(w, e, np.flatnonzero(~zero & (w < lo)), kc, a, cap, inward=False)

    if bridge_code == BRIDGE_POWER:
        alpha = math.log(mc) / math.log(kc)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = a * (w / a) ** alpha
    else:
        y = mc * a + (w - lo) * ((a - mc * a) / (a - lo))
    e_min = e.min(initial=0)
    powers = np.power(mc, np.arange(e_min, e.max(initial=0) + 1, dtype=np.float64))
    out = np.sign(x).ravel() * y * powers[e - e_min]
    out[zero] = 0.0
    out[stuck_high] = np.nan
    out[stuck_low] = np.nan
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Lipschitz difference-quotient maximum
# ---------------------------------------------------------------------------

def pairwise_quotient_max(xs, fx):
    """Max of |fx[j] - fx[i]| / |xs[j] - xs[i]| over all pairs, for ascending xs.

    On an ascending grid every chord slope is a convex combination of the
    adjacent slopes it spans, so the adjacent quotients give the same
    maximum. Pairs with xs[j] == xs[i] count as 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.abs(np.diff(fx) / np.diff(xs))
    q[~np.isfinite(q)] = 0.0
    return float(q.max(initial=0.0))
