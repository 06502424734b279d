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
# fed through the bridge, and rescaled by the matching power of mc. Odd
# extension handles negative arguments. Returns NaN where the step cap is hit.
# ---------------------------------------------------------------------------

def _walk(w, e, idx, kc, a, cap, inward):
    """Step w[idx] by kc until it lies in [kc*a, a], at most cap + 1 times.

    Inward steps multiply by kc (entries above a), outward steps divide by kc
    (entries below kc*a). Settled entries are written back to w, their step
    count added to e (negative inward), and dropped from the working set.
    Returns the indices still outside after the cap.
    """
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
    out = np.sign(x).ravel() * y * np.power(mc, e.astype(np.float64))
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
