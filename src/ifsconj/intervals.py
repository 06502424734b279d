"""Slope interval classification.

A nonzero slope off the unit circle lands in one of four open intervals;
these are the conjugacy classes of linear maps on the line. |s| in {0, 1}
is tagged "boundary" (no hyperbolic behavior).
"""

from __future__ import annotations

CONTRACT_POS = "(0,1)"
CONTRACT_NEG = "(-1,0)"
EXPAND_POS = "(1,+inf)"
EXPAND_NEG = "(-inf,-1)"
BOUNDARY = "boundary"


def classify_slope_interval(s: float) -> str:
    """Open interval containing s, or "boundary" when |s| is exactly 0 or 1."""
    import math

    if not math.isfinite(s):
        raise ValueError("slope must be finite")
    a = abs(s)
    if a == 0.0 or a == 1.0:
        return BOUNDARY
    if s > 0:
        return CONTRACT_POS if a < 1.0 else EXPAND_POS
    return CONTRACT_NEG if a < 1.0 else EXPAND_NEG
