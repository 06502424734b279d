"""Inverses of monotone catalog maps by bracketed Newton steps.

Brackets start at the working interval and expand geometrically when the
target value lies beyond its image (the maps are bijections of the line, so
expansion terminates for monotone inputs). Inside its bracket each target
takes Newton steps on the catalog's exact derivative, with the bracket's
midpoint in place of a step that would leave the bracket or not halve the
step before it (rtsafe, Press et al., Numerical Recipes, section 9.4).
"""

from __future__ import annotations

import numpy as np

from .catalog import MapStack

# Newton steps per target at most: a root where f' vanishes (the sine bump's
# f'(pi) = 0 at k = amplitude) converges linearly, in about 20-30 steps
MAX_STEPS = 48
# a step below _SETTLED*|x| ends a target's iteration, and one below
# _ROUNDING*|x| is taken even if it does not halve the last step: near the
# root the residual is rounding noise, and halving the bracket there would
# throw the iterate away
_SETTLED = 2.0 ** -51
_ROUNDING = 2.0 ** -48


def monotone_inverse_batch(f, ys: np.ndarray, lo: float, hi: float, max_expand: int = 60):
    """Solve f(x) = y for each y by safeguarded Newton steps.

    f is a catalog map, or a catalog.MapStack when ys is a (maps, targets)
    stack of rows, whose row r goes through map r. Each row takes its own
    monotone direction and every target stops on its own test, so a row
    comes out bit for bit as a call with its map and row alone. A target
    settles at a Newton step within rounding of its x, or at the bracket end
    nearer to the root once no float is left inside the bracket; it takes
    MAX_STEPS steps at most.

    Returns (xs, valid); entries that could not be bracketed within
    max_expand doublings are NaN with valid False.
    """
    ys = np.asarray(ys, dtype=float)
    ends = ys.shape[:-1] + (1,)
    increasing = np.asarray(f(np.full(ends, float(hi))), dtype=float) > np.asarray(
        f(np.full(ends, float(lo))), dtype=float
    )
    sgn = np.where(increasing, 1.0, -1.0)

    los = np.full(ys.shape, float(lo))
    his = np.full(ys.shape, float(hi))
    width = hi - lo

    target = sgn * ys
    f_his = np.asarray(f(his), dtype=float)
    need_hi = sgn * f_his < target
    step = width
    for _ in range(max_expand):
        if not need_hi.any():
            break
        his[need_hi] += step
        step *= 2.0
        f_his = np.asarray(f(his), dtype=float)
        need_hi = sgn * f_his < target
    f_los = np.asarray(f(los), dtype=float)
    need_lo = sgn * f_los > target
    step = width
    for _ in range(max_expand):
        if not need_lo.any():
            break
        los[need_lo] -= step
        step *= 2.0
        f_los = np.asarray(f(los), dtype=float)
        need_lo = sgn * f_los > target
    valid = ~(need_hi | need_lo)

    # the valid entries, flattened, each with its own map
    at = np.flatnonzero(valid)
    stack = f if isinstance(f, MapStack) else MapStack([f])
    n = ys.shape[-1]
    g = stack.take(at // n)
    y, s = ys.ravel()[at], np.broadcast_to(sgn, ys.shape).ravel()[at]
    a, b = los.ravel()[at], his.ravel()[at]
    ra, rb = f_los.ravel()[at] - y, f_his.ravel()[at] - y
    del los, his, f_los, f_his, target  # the loop's peak memory is its own
    xs = np.full(ys.size, np.nan)
    with np.errstate(all="ignore"):
        # start at the secant point of the bracket, else its midpoint
        x = a - ra * ((b - a) / (rb - ra))
        x = np.where((a <= x) & (x <= b), x, 0.5 * (a + b))
        # s*(f - y) at the bracket ends: qa <= 0 <= qb
        qa, qb = s * ra, s * rb
        del ra, rb
        limit = b - a
        for it in range(MAX_STEPS):
            r = g(x) - y
            q = s * r
            left = q < 0.0
            a, qa = np.where(left, x, a), np.where(left, q, qa)
            b, qb = np.where(left, b, x), np.where(left, qb, q)
            step = r / g.derivative(x)
            nx = x - step
            size, ax = np.abs(step), np.abs(x)
            # a step within rounding of x settles the target at nx
            small = size <= _SETTLED * ax
            # a Newton step stays strictly inside the bracket and at most
            # halves the last step, unless it is down to rounding noise
            newton = (a < nx) & (nx < b) & ((size <= limit) | (size <= _ROUNDING * ax))
            nx = np.where(newton | small, nx, 0.5 * (a + b))
            # a bracket with no float inside settles the target at its end
            # nearer to the root
            done = small | (nx == x) | (it == MAX_STEPS - 1)
            if done.any():
                ends = np.where(qb[done] < -qa[done], b[done], a[done])
                xs[at[done]] = np.where(small[done], nx[done], ends)
                if done.all():
                    break
                keep = ~done
                at = at[keep]
                g = stack.take(at // n)
                x, nx, y, s = x[keep], nx[keep], y[keep], s[keep]
                a, b, qa, qb = a[keep], b[keep], qa[keep], qb[keep]
            limit = 0.5 * np.abs(nx - x)
            x = nx
    return xs.reshape(ys.shape), valid
