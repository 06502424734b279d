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

_QUOTIENTS = (MAP_RATIONAL, MAP_SMOOTH_RQ)  # maps whose term has 1 + x*x below


# ---------------------------------------------------------------------------
# orbit chains: x_{t+1} = f_{sym_t}(x_t), full trajectory returned. Both
# kernels step in blocks and, at a block's end, stop stepping once the rest
# of the trajectory is decided, with every output byte unchanged:
#   - at a value every map keeps up to sign (an absorbing value): +-0 for
#     maps without an offset, +-5e-324 where every slope exceeds 1/2 in
#     size, +-inf for a diagonal without a 0 or nan; the rest is that value
#     with the sign the maps give it, written without arithmetic;
#   - for an affine family k*x + b with an offset, whose orbits under one
#     symbol string meet bit for bit within a few dozen steps, by stepping
#     lanes of the rest side by side and restarting each from its
#     predecessor's end until they agree (coupling from the past)
# ---------------------------------------------------------------------------

def pack_rows(rows):
    """Split a list of (code, k, c, b) rows into the codes, ks, cs, bs arrays."""
    codes = np.array([r[0] for r in rows], dtype=np.int64)
    ks = np.array([r[1] for r in rows])
    cs = np.array([r[2] for r in rows])
    bs = np.array([r[3] for r in rows])
    return codes, ks, cs, bs


def _retake(row, buf, x0, t, x):
    """x_t, where step t - 1 of the orbit, by the map of row, gave the
    non-finite x (row is None at t = 0).

    A rational or smooth step, whose input y is finite, is taken again as
    catalog takes it and written to buf: the near quotient where its
    numerator and denominator are finite, else the form in 1/y
    (catalog._rational_far, _smooth_far).
    """
    if row is None or row[0] not in _QUOTIENTS:
        return x
    code, k, c, _ = row
    y = buf[t - 2] if t > 1 else x0
    rational = code == MAP_RATIONAL
    num, den = (c * y if rational else c * y * y), 1.0 + y * y
    if math.isfinite(num) and math.isfinite(den):
        x = buf[t - 1] = k * y + num / den
    else:
        x = buf[t - 1] = k * y + (c / (y + 1.0 / y) if rational else c / (1.0 + 1.0 / (y * y)))
    return x


def _step(code, k, c, b, x):
    """One step of the orbit loop, which inlines it."""
    if code == MAP_LINEAR:
        return k * x + b
    if code == MAP_SINE:
        return k * x + c * math.sin(x)
    if code == MAP_RATIONAL:
        return k * x + c * x / (1.0 + x * x)
    return k * x + c * x * x / (1.0 + x * x)


def _absorbing_signs(maps, x):
    """For a finite x, the sign bits of each map's step at +|x| and at -|x|,
    as two bool arrays, or None unless every such step has magnitude |x|.

    A nan step fails the test, so a nan slope or offset never absorbs.
    """
    a = abs(x)
    if not all(abs(_step(*m, z)) == a for m in maps for z in (a, -a)):
        return None
    negative = np.signbit([[_step(*m, z) for z in (a, -a)] for m in maps])
    return negative[:, 0], negative[:, 1]


def _absorbing_tail(out, symbols, at_pos, at_neg, x):
    """Write the orbit of x under symbols into out, where every map sends
    {+|x|, -|x|} into itself.

    On that pair each map keeps the sign, flips it or sends both to one
    (at_pos[s], at_neg[s]: the sign bits of map s at +|x| and -|x|). So a
    step gives the value of the last constant map up to it, or x where there
    is none, negated once for each flipping map since.
    """
    const = at_pos == at_neg
    flips = at_pos & ~at_neg
    if not flips.any() and (at_pos[const] == np.signbit(x)).all():
        out[:] = x
        return
    a = abs(x)
    # 1 + the index of the last constant step up to each step, 0 before the first
    last = np.maximum.accumulate(np.arange(1, symbols.size + 1) * const[symbols])
    np.take(np.concatenate(([x], np.where(at_pos, -a, a)[symbols])), last, out=out)
    if flips.any():
        count = np.concatenate(([0], np.cumsum(flips[symbols])))
        np.negative(out, out=out, where=(count[1:] - count[last]) % 2 == 1)


_BLOCK = 1024  # loop steps between the checks for an absorbing value
_LANES = 512  # lanes of an affine orbit, at most
_LANE_STEPS = 256  # steps per lane, at least: well above the depth at which orbits meet
_MIN_LANES = 64  # fewer lanes than this cost more than the loop they replace


def _settle(buf, sym, kb, lanes):
    """Restart the given lanes of buf from the last value of the lane before
    each, stopping each at its first step equal to the stored one bit for
    bit: from there on the stored steps are its steps. Returns the lanes
    that never met theirs, whose last value has changed."""
    x = buf[-1, lanes - 1]
    for i, row in enumerate(buf):
        step = kb.take(sym[lanes, i], axis=0)
        x = step[:, 0] * x + step[:, 1]
        moved = x.view(np.int64) != row[lanes].view(np.int64)
        lanes, x = lanes[moved], x[moved]
        if not lanes.size:
            break
        row[lanes] = x
    return lanes


def _affine_lanes(out, symbols, maps, x):
    """Write the first p*L steps of the orbit of the finite x under the
    affine maps into out, and return p*L, or 0 where the lanes do not give
    the step loop's values.

    The steps are cut into p lanes of L steps, stepped side by side in one
    (L, p) buffer, lane 0 from x and the others from x as a guess. Each
    lane j >= 1 is then restarted from the last value of lane j - 1
    (_settle), at most twice over; a contractive family's lanes settle
    within a few dozen steps of the first restart. A lane that turns
    non-finite (where the loop would hold the value) or has not settled
    after the second restart leaves the steps to the loop. Every step is
    the loop's k*x + b, so a settled buffer holds the loop's bits.
    """
    p = min(_LANES, symbols.size // _LANE_STEPS)
    if p < _MIN_LANES:
        return 0
    L = symbols.size // p
    sym = symbols[:p * L].reshape(p, L)  # sym[j, i]: step i of lane j
    kb = np.array([(k, b) for _, k, _, b in maps])
    buf = np.empty((L, p))
    with np.errstate(all="ignore"):
        prev = x
        for i, row in enumerate(buf):
            step = kb.take(sym[:, i], axis=0)
            np.multiply(step[:, 0], prev, out=row)
            row += step[:, 1]
            prev = row
        # a non-finite value stays non-finite under k*x + b, so the lanes'
        # last values show every non-finite step
        if not np.isfinite(buf[-1]).all():
            return 0
        todo = np.arange(1, p)
        for _ in range(2):
            moved = _settle(buf, sym, kb, todo)
            if not np.isfinite(buf[-1, moved]).all():
                return 0
            todo = moved[moved < p - 1] + 1
            if not todo.size:
                break
        else:
            return 0
    out[:p * L].reshape(p, L)[...] = buf.T
    return p * L


def orbit_chain(codes, ks, cs, bs, symbols, x0):
    """Trajectory of x0 under the maps picked by symbols.

    Each step equals the catalog map's value. A rational or smooth step
    that leaves the float range with x*x gives a non-finite value, and is
    taken again by _retake. So is every step of such a map with |k| below
    1e-130, for which k*x could not absorb the far term the near form drops
    where only 1 + x*x overflows (at most about 1 in size): its row holds a
    nan slope. Once the orbit is non-finite, the rest of the trajectory
    holds that non-finite value.

    The loop runs in blocks of _BLOCK steps, and stops stepping in one of
    two ways, each giving the loop's bytes, sign bits included:
      - A block that leaves the orbit at a finite x where every map's step
        of +|x| and -|x| has magnitude |x| (+-0 for the maps without an
        offset, and +-5e-324 where each slope also exceeds 1/2 in size)
        ends the loop: the orbit stays on that pair, and _absorbing_tail
        writes the rest of it in a few numpy passes. Which maps keep the
        pair is found only at a block's end, so a short orbit pays nothing.
      - When every row is k*x + b, some offset is nonzero and the first
        block ends off an absorbing value, the rest of the orbit is
        stepped as lanes (_affine_lanes); the loop takes the few steps
        past the lanes, or all of them where the lanes do not settle.
        Sine rows stay on the loop, since np.sin may not round as
        math.sin; rational and smooth rows need _retake. With every offset
        0, two orbits meet only at an absorbing value, where the tail
        takes over.
    """
    n = symbols.shape[0]
    out = np.empty(n, dtype=np.float64)
    rows = [(int(code), float(k), float(c), float(b)) for code, k, c, b in zip(codes, ks, cs, bs)]
    maps = [(code, math.nan if code in _QUOTIENTS and abs(k) < 1e-130 else k, c, b)
            for code, k, c, b in rows]
    affine = all(m[0] == MAP_LINEAR for m in maps) and any(m[3] != 0.0 for m in maps)
    isfinite, sin = math.isfinite, math.sin
    x0 = x = float(x0)
    start = 0
    # a memoryview stores a Python float into out faster than ndarray indexing
    with memoryview(out) as buf:
        while start < n:
            if start and isfinite(x):
                if (signs := _absorbing_signs(maps, x)) is not None:
                    _absorbing_tail(out[start:], symbols[start:], *signs, x)
                    return out
                if start == _BLOCK and affine and (
                        done := _affine_lanes(out[start:], symbols[start:], maps, x)):
                    start += done
                    x = buf[start - 1]
                    continue
            stop = min(start + _BLOCK, n)
            for t, s in enumerate(symbols[start:stop].tolist(), start):
                if not isfinite(x):
                    x = _retake(rows[symbols[t - 1]] if t else None, buf, x0, t, x)
                    if not isfinite(x):
                        out[t:] = x
                        return out
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
            start = stop
        if n and not isfinite(x):
            _retake(rows[symbols[n - 1]], buf, x0, n, x)
    return out


def _diag_tail(out, table, symbols, v):
    """Write the orbit of the row v under the diagonals picked by symbols
    into out and return True; or return False unless |v*d| == |v| for every
    entry d of each column of table.

    Each step then keeps |v| and multiplies the sign by that of the picked
    entry: a copy of v where no entry is negative, else +-|v| by the parity
    of the negative entries picked so far, written as sign and magnitude
    bits (an arithmetic negation of +-5e-324 takes the subnormal penalty).
    """
    a = np.abs(v)
    if not (np.abs(v * table) == a).all():
        return False
    flips = np.signbit(table)
    if not flips.any():
        out[:] = v
        return True
    negative = flips[symbols]
    np.logical_xor.accumulate(negative, axis=0, out=negative)
    negative ^= np.signbit(v)
    bits = out.view(np.int64)
    np.left_shift(negative, 63, out=bits, dtype=np.int64)
    bits |= a.view(np.int64)
    return True


def orbit_chain_diag(diags, symbols, x0):
    """Trajectory in R^m of x0 under the diagonal maps picked by symbols.

    Row t is the running product ((x0*d_1)*d_2)...*d_t of the picked
    diagonals, with x0 folded into the first row. IEEE multiplication is
    commutative, so every entry is rounded exactly as in the step x_t =
    d_t * x_{t-1}, including at +-0, subnormals, +-inf and a nan start
    (only the payload of a product of two nans can depend on the order).

    The product runs in blocks, the first of _BLOCK rows and each later one
    as long as all before it, so a long orbit that never settles pays for
    few checks. Each block gathers its diagonals and carries the last row
    before it in as prev * d, the order of the running product. Once every
    coordinate's value v keeps its magnitude under every entry of its
    column (+-0 under finite entries; +-5e-324, where each further multiply
    would take the subnormal penalty, under entries above 1/2 in size;
    +-inf under entries other than 0 and nan), _diag_tail writes the rest
    without gathering or multiplying.
    """
    table = np.asarray(diags, dtype=np.float64)
    out = np.empty(symbols.shape + table.shape[1:])
    start, stop = 0, _BLOCK
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        while start < out.shape[0]:
            if start and _diag_tail(out[start:], table, symbols[start:], out[start - 1]):
                break
            out[start:stop] = np.take(table, symbols[start:stop], axis=0)
            if not start:
                out[:1] *= x0
            rows = out[max(start - 1, 0):stop]
            np.multiply.accumulate(rows, axis=0, out=rows)
            start, stop = stop, 2 * stop
    return out


# ---------------------------------------------------------------------------
# fundamental-domain homeomorphism evaluation
#
# Contractive core: 0 < kc, mc < 1, anchor a > 0. Each |x| gets an orbit
# exponent e with w = |x|*kc**-e in [kc*a, a]; h = bridge(w)*mc**e, and odd
# extension handles negative arguments. Entries first take up to _CHECKED
# checked steps, one multiply or divide by kc each, which keeps the shallow
# grids cheap; ties resolve toward the smaller |e| by the closed compares.
# The entries still outside then jump in closed form: e from the log,
# corrected by one compare each way against the seam floats a*kc**e, and
# w = |x|*kc**-e clipped to [kc*a, a]. Clipping h into [top(e+1), top(e)],
# top(e) the value at w = a, makes neighbouring intervals meet at one float,
# so h never decreases between adjacent floats, at the seams included.
# ---------------------------------------------------------------------------

_CHECKED = 8  # checked steps before the entries still outside jump

_TINY = np.finfo(np.float64).tiny  # smallest normal float


def _scale(z, base, e):
    """z * base**e for an array e of integral floats.

    Where base**e is not a normal float, z is multiplied by the powers of
    the two halves of e in turn, each in range while base**e is within its
    square.
    """
    p = np.power(base, e)
    out = z * p
    split = ~(p >= _TINY) | (p == math.inf)
    if split.any():
        half = np.floor(e[split] / 2)
        zs = z[split] if np.ndim(z) else z
        out[split] = zs * np.power(base, half) * np.power(base, e[split] - half)
    return out


def _walk(w, e, idx, kc, a, inward):
    """Step w[idx] by kc until it lies in [kc*a, a], at most _CHECKED times.

    Inward steps multiply by kc (entries above a), outward steps divide by kc
    (entries below kc*a). Settled entries are written back to w and their
    step count to e (negative inward). Returns the indices still outside.
    """
    lo = kc * a
    ww = w[idx]
    for n in range(1, _CHECKED + 1):
        if idx.size == 0:
            break
        ww = ww * kc if inward else ww / kc
        out = ww > a if inward else ww < lo
        if not out.all():
            done = ~out
            w[idx[done]] = ww[done]
            e[idx[done]] = -n if inward else n
            idx, ww = idx[out], ww[out]
    return idx


def _jump(v, kc, a, inward):
    """Exponent e and w = v*kc**-e in [kc*a, a] of the entries v > 0 that
    the walk left outside.

    v lies in (a*kc**(e+1), a*kc**e] inward and [a*kc**(e+1), a*kc**e)
    outward, the walk's ties, once the log estimate is within one of e.
    """
    e = np.floor((np.log(v) - math.log(a)) / math.log(kc))
    above, below = _scale(a, kc, e), _scale(a, kc, e + 1.0)
    if inward:
        e = np.minimum(e + (v <= below) - (v > above), -_CHECKED - 1.0)
    else:
        e = np.maximum(e + (v < below) - (v >= above), _CHECKED + 1.0)
    return e, np.clip(_scale(v, kc, -e), kc * a, a)


def fd_eval(x, kc, mc, a, bridge_code, cap):
    """h(x) of the fundamental-domain conjugacy with core slopes kc, mc.

    0 maps to 0, nan and +-inf to nan. cap is None, or a step bound: NaN
    where |e| > cap + 1, as a walk of cap + 1 steps leaves it.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.abs(x).ravel()
    finite = np.isfinite(v)
    lo = kc * a
    w = v.copy()
    e = np.zeros(v.shape)
    # a whole power may leave the float range; _scale splits it and recomputes
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for inward, outside in ((True, finite & (v > a)), (False, (v != 0.0) & (v < lo))):
            deep = _walk(w, e, np.flatnonzero(outside), kc, a, inward)
            if deep.size:
                e[deep], w[deep] = _jump(v[deep], kc, a, inward)
        if bridge_code == BRIDGE_POWER:
            alpha = math.log(mc) / math.log(kc)
            y = a * (w / a) ** alpha
            top = a  # the bridge at w = a
        else:
            slope = (a - mc * a) / (a - lo)
            y = mc * a + (w - lo) * slope
            top = mc * a + (a - lo) * slope
        h = np.maximum(_scale(y, mc, e), _scale(top, mc, e + 1.0))
    out = np.sign(x).ravel() * h
    out[v == 0.0] = 0.0
    # which nan a product of two passes on depends on where numpy's vector
    # loops place the entry: a non-finite x gets the one positive quiet nan
    out[~finite] = np.nan
    if cap is not None:
        out[np.abs(e) > cap + 1] = np.nan
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
