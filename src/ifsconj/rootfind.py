"""Bisection utilities for monotone catalog maps.

Brackets start at the working interval and expand geometrically when the
target value lies beyond its image (the maps are bijections of the line, so
expansion terminates for monotone inputs).
"""

from __future__ import annotations

import numpy as np


def monotone_inverse_batch(
    f,
    ys: np.ndarray,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_expand: int = 60,
):
    """Solve f(x) = y for each y by bracketed bisection to tol.

    Returns (xs, valid); entries that could not be bracketed within
    max_expand doublings are NaN with valid False.
    """
    ys = np.asarray(ys, dtype=float)
    increasing = float(f(hi)) > float(f(lo))
    sgn = 1.0 if increasing else -1.0

    los = np.full(ys.shape, float(lo))
    his = np.full(ys.shape, float(hi))
    width = hi - lo

    target = sgn * ys
    need_hi = sgn * np.asarray(f(his), dtype=float) < target
    step = width
    for _ in range(max_expand):
        if not need_hi.any():
            break
        his[need_hi] += step
        step *= 2.0
        need_hi = sgn * np.asarray(f(his), dtype=float) < target
    need_lo = sgn * np.asarray(f(los), dtype=float) > target
    step = width
    for _ in range(max_expand):
        if not need_lo.any():
            break
        los[need_lo] -= step
        step *= 2.0
        need_lo = sgn * np.asarray(f(los), dtype=float) > target

    valid = ~(need_hi | need_lo)
    span = his - los
    iters = int(np.ceil(np.log2(max(span.max(), tol) / tol))) + 2
    for _ in range(iters):
        mid = 0.5 * (los + his)
        go_right = sgn * np.asarray(f(mid), dtype=float) < target
        los = np.where(go_right, mid, los)
        his = np.where(go_right, his, mid)
    xs = 0.5 * (los + his)
    xs = np.where(valid, xs, np.nan)
    return xs, valid

