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

    ys is one row of targets, or a (maps, targets) stack of rows when f is
    a catalog.MapStack, which evaluates row r through its map r. Each row
    takes its own monotone direction and its own bisection count, so it
    comes out bit for bit as a call with its map and row alone.

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
    spans = np.maximum((his - los).max(axis=-1), tol) / tol
    counts = [int(c) + 2 for c in np.ceil(np.log2(spans)).ravel().tolist()]
    iters, fewest = np.reshape(counts, ends), min(counts)
    for it in range(max(counts)):
        mid = los + his
        mid *= 0.5
        go_right = sgn * np.asarray(f(mid), dtype=float) < target
        if it >= fewest:
            # a row past its own count keeps its bracket
            mid = np.where(iters > it, mid, np.where(go_right, los, his))
        los = np.where(go_right, mid, los)
        his = np.where(go_right, his, mid)
    xs = 0.5 * (los + his)
    xs = np.where(valid, xs, np.nan)
    return xs, valid
