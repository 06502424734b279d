"""The slope-interval policy behind every conjugacy question on the line.

A finite slope with |s| not in {0, 1} lies in one of four open intervals,
"(0,1)", "(-1,0)", "(1,+inf)" or "(-inf,-1)": the conjugacy classes of
linear maps on R. |s| in {0, 1} is tagged "boundary"; a nan or infinite
slope is a HypothesisError. Every caller of slope_feasibility reads its
answer in one order. A boundary slope raises NonHyperbolicError before any
mismatch is looked at. Slopes in more than one interval raise
NonConjugateError with the class "orientation-mismatch" when their signs
disagree, else "attract-repel-mismatch". Diagonal families on R^m add
"coordinate-interval-mix" (one coordinate's entries disagree) and
"pooled-interval-mix" (the coordinates disagree with each other). Both
errors are CLI exit 2. The Hartman-Grobman case of a linear part is read
off the class: none is case 1, attract-repel case 2, orientation inapplicable.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import HypothesisError

CONTRACT_POS = "(0,1)"
CONTRACT_NEG = "(-1,0)"
EXPAND_POS = "(1,+inf)"
EXPAND_NEG = "(-inf,-1)"
BOUNDARY = "boundary"

OBSTRUCTION_ORIENTATION = "orientation-mismatch"
OBSTRUCTION_ATTRACT_REPEL = "attract-repel-mismatch"
OBSTRUCTION_COORDINATE_MIX = "coordinate-interval-mix"
OBSTRUCTION_POOLED_MIX = "pooled-interval-mix"


def classify_slope_interval(s: float) -> str:
    """Open interval containing s, or "boundary" when |s| is exactly 0 or 1."""
    if not math.isfinite(s):
        raise HypothesisError(f"slope {s} is not finite")
    a = abs(s)
    if a == 0.0 or a == 1.0:
        return BOUNDARY
    if s > 0:
        return CONTRACT_POS if a < 1.0 else EXPAND_POS
    return CONTRACT_NEG if a < 1.0 else EXPAND_NEG


class SlopeFeasibility(NamedTuple):
    tags: tuple[str, ...]
    boundary: int | None  # index of the first boundary slope
    mismatch: int | None  # index of the first slope tagged apart from slopes[0]
    obstruction: str | None  # None when all tags agree


def slope_feasibility(slopes) -> SlopeFeasibility:
    """Tags of the slopes (a sequence) of one conjugacy question, and what
    keeps them from sharing one interval."""
    tags = tuple(classify_slope_interval(s) for s in slopes)
    boundary = tags.index(BOUNDARY) if BOUNDARY in tags else None
    mismatch = next((i for i, t in enumerate(tags) if t != tags[0]), None)
    obstruction = None
    if mismatch is not None:
        mixed_signs = len({s > 0 for s in slopes}) > 1
        obstruction = OBSTRUCTION_ORIENTATION if mixed_signs else OBSTRUCTION_ATTRACT_REPEL
    return SlopeFeasibility(tags, boundary, mismatch, obstruction)
