"""Construction and verification of conjugacies between linear maps.

The fundamental-domain construction: pick an anchor a > 0, choose any
increasing bridge from [k*a, a] onto [m*a, a] with matched endpoints, then
extend it to the whole line by the orbit recursion h(k*x) = m*h(x) and odd
reflection. For slopes in (0,1) this is the direct construction; expansive
pairs reduce to the reciprocal slopes, negative pairs to the negated
construction on the absolute values. Slopes in different intervals admit no
conjugacy at all, which same_interval_test reports as an obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, intervals
from .defaults import DEFAULT_ANCHOR, DEFAULT_RADIUS
from .errors import (
    DomainEscapeError,
    InversionRangeError,
    NonConjugateError,
    NonHyperbolicError,
    NumericFailureError,
    UnsupportedMapError,
)
from .ifs import IfsDescriptor, effective_slope
from .sequences import SymbolSequence

BRIDGE_LINEAR = "linear"
BRIDGE_POWER_LAW = "power-law"

_BRIDGE_CODES = {BRIDGE_LINEAR: _kernels.BRIDGE_LINEAR, BRIDGE_POWER_LAW: _kernels.BRIDGE_POWER}

ORIENT_DIRECT = "direct"
ORIENT_INVERSE = "inverse-composed"
ORIENT_NEGATED = "negated"

OBSTRUCTION_ORIENTATION = "orientation-mismatch"
OBSTRUCTION_ATTRACT_REPEL = "attract-repel-mismatch"


# ---------------------------------------------------------------------------
# homeomorphism forms
# ---------------------------------------------------------------------------

class Homeomorphism1D:
    """Strictly monotone odd bijection with h(0) = 0."""

    def __call__(self, x):
        if np.ndim(x) == 0:
            return float(self._eval(np.array([float(x)]))[0])
        return self._eval(np.asarray(x, dtype=float))

    def invert(self, y):
        if np.ndim(y) == 0:
            return float(self._inv(np.array([float(y)]))[0])
        return self._inv(np.asarray(y, dtype=float))

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inv(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def locate_fundamental_exponent(x: float, k: float, a: float, cap: int = 10_000):
    """Reference search for the orbit exponent of x > 0.

    Returns (n, w) with w = k**n * x inside the closed interval [k*a, a];
    n may be negative (inward orbits use negative powers). Ties resolve
    toward the exponent of smaller magnitude because both compares are
    closed. Mirrors the kernel loops step for step.
    """
    if x <= 0 or a <= 0 or not 0 < k < 1:
        raise ValueError("requires x > 0, a > 0, 0 < k < 1")
    w = x
    n = 0
    steps = 0
    while w > a:
        w *= k
        n += 1
        steps += 1
        if steps > cap:
            raise NumericFailureError(f"exponent search exceeded {cap} steps")
    while w < k * a:
        w /= k
        n -= 1
        steps += 1
        if steps > cap:
            raise NumericFailureError(f"exponent search exceeded {cap} steps")
    return n, w


def _default_cap(vals: np.ndarray, kc: float, a: float) -> int:
    nz = np.abs(vals[vals != 0])
    if nz.size == 0:
        return 64
    log_reach = max(
        math.log(nz.max()) - math.log(a), math.log(a) - math.log(nz.min()), 0.0
    )
    steps = log_reach / math.log(1.0 / kc)
    return min(10 * math.ceil(steps + 1.0) + 64, 1_000_000)


@dataclass(frozen=True)
class FundamentalDomainConjugacy(Homeomorphism1D):
    """Conjugacy h with h(k*x) = m*h(x) for same-interval slopes k, m.

    orientation records the construction route: "direct" for contractive
    positive slopes, "inverse-composed" for expansive ones (built on the
    reciprocal slopes, the inverse-map reduction), "negated" for negative
    ones (built on |k|, |m| and flipped in sign).
    """

    k: float
    m: float
    anchor: float = DEFAULT_ANCHOR
    bridge: str = BRIDGE_LINEAR

    def __post_init__(self):
        if self.bridge not in _BRIDGE_CODES:
            raise ValueError(f"unknown bridge kind {self.bridge!r}")
        if not self.anchor > 0:
            raise ValueError("anchor must be positive")
        tk = intervals.classify_slope_interval(self.k)
        tm = intervals.classify_slope_interval(self.m)
        if intervals.BOUNDARY in (tk, tm):
            raise NonHyperbolicError(
                f"boundary slope (k={self.k}, m={self.m}); |slope| of 0 or 1 "
                "admits no hyperbolic conjugacy"
            )
        if tk != tm:
            raise NonConjugateError(
                f"slopes {self.k} in {tk} and {self.m} in {tm} are not "
                "topologically conjugate",
                obstruction=_obstruction_class(self.k, self.m),
            )

    @property
    def interval_tag(self) -> str:
        return intervals.classify_slope_interval(self.k)

    @property
    def orientation(self) -> str:
        if self.k < 0:
            return ORIENT_NEGATED
        return ORIENT_DIRECT if self.k < 1 else ORIENT_INVERSE

    @property
    def core_slopes(self) -> tuple[float, float]:
        kc, mc = abs(self.k), abs(self.m)
        if kc > 1:
            kc, mc = 1.0 / kc, 1.0 / mc
        return kc, mc

    def _eval(self, xs: np.ndarray, max_steps: int | None = None) -> np.ndarray:
        """h(xs), with h(±inf) = ±inf (negated for k < 0) and h(nan) = nan."""
        kc, mc = self.core_slopes
        finite = np.isfinite(xs)
        vals = xs[finite]
        cap = max_steps if max_steps is not None else _default_cap(vals, kc, self.anchor)
        with np.errstate(over="ignore"):
            hv = _kernels.fd_eval(vals, kc, mc, self.anchor, _BRIDGE_CODES[self.bridge], cap)
        if np.isnan(hv).any():
            bad = float(vals[np.isnan(hv)][0])
            raise NumericFailureError(
                f"orbit exponent search for x={bad} exceeded {cap} steps"
            )
        if not np.isfinite(hv).all():
            bad = float(vals[~np.isfinite(hv)][0])
            raise NumericFailureError(f"h({bad}) overflows the float range")
        out = xs.copy()
        out[finite] = hv
        if self.k < 0:
            out = -out
        return out

    def evaluate(self, x, max_steps: int | None = None):
        if np.ndim(x) == 0:
            return float(self._eval(np.array([float(x)]), max_steps)[0])
        return self._eval(np.asarray(x, dtype=float), max_steps)

    def inverse(self) -> "FundamentalDomainConjugacy":
        """Structural inverse: swap the slope roles, same bridge kind."""
        return FundamentalDomainConjugacy(self.m, self.k, self.anchor, self.bridge)

    def _inv(self, ys: np.ndarray) -> np.ndarray:
        return self.inverse()._eval(ys)


@dataclass(frozen=True)
class PowerLawHomeomorphism(Homeomorphism1D):
    """h(x) = sign(x) * |x|**alpha, the smooth closed-form conjugacy."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def _eval(self, xs):
        return np.sign(xs) * np.abs(xs) ** self.alpha

    def _inv(self, ys):
        return np.sign(ys) * np.abs(ys) ** (1.0 / self.alpha)


def identity() -> PowerLawHomeomorphism:
    return PowerLawHomeomorphism(1.0)


@dataclass(frozen=True, eq=False)
class TabulatedHomeomorphism(Homeomorphism1D):
    """Monotone interpolation through (xs, ys) nodes, pchip between them."""

    xs: np.ndarray
    ys: np.ndarray
    _interp: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d node arrays with >= 2 nodes")
        if not np.all(np.diff(xs) > 0) or not np.all(np.diff(ys) > 0):
            raise ValueError("tabulated nodes must be strictly increasing")

    def _pchip(self, forward: bool):
        key = "fwd" if forward else "inv"
        fn = self._interp.get(key)
        if fn is None:
            from scipy.interpolate import PchipInterpolator

            if forward:
                fn = PchipInterpolator(self.xs, self.ys)
            else:
                fn = PchipInterpolator(self.ys, self.xs)
            self._interp[key] = fn
        return fn

    def _eval(self, xs):
        # pchip can round past an end node; inside the table, clip to the image
        out = np.asarray(self._pchip(True)(xs), dtype=float)
        inside = (xs >= self.xs[0]) & (xs <= self.xs[-1])
        return np.where(inside, np.clip(out, self.ys[0], self.ys[-1]), out)

    def _inv(self, ys):
        if np.any(ys < self.ys[0]) or np.any(ys > self.ys[-1]):
            raise InversionRangeError("value outside the tabulated image")
        return np.asarray(self._pchip(False)(ys), dtype=float)


@dataclass(frozen=True)
class CompositeHomeomorphism(Homeomorphism1D):
    """Composition of parts, applied in listed order (first part first)."""

    parts: tuple[Homeomorphism1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("composite needs at least one part")

    def _eval(self, xs):
        out = xs
        for p in self.parts:
            out = p(out)
        return np.asarray(out, dtype=float)

    def _inv(self, ys):
        out = ys
        for p in reversed(self.parts):
            out = p.invert(out)
        return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _obstruction_class(k: float, m: float) -> str:
    if (k > 0) != (m > 0):
        return OBSTRUCTION_ORIENTATION
    return OBSTRUCTION_ATTRACT_REPEL


def build_linear_conjugacy(
    k: float,
    m: float,
    anchor: float = DEFAULT_ANCHOR,
    bridge: str = BRIDGE_LINEAR,
) -> FundamentalDomainConjugacy:
    """Conjugacy h with h(kx) = m*h(x), for k, m in one slope interval.

    With the power-law bridge and anchor 1 this equals the closed form
    sign(x)*|x|**(ln m / ln k) on contractive positive slopes.
    """
    return FundamentalDomainConjugacy(float(k), float(m), float(anchor), bridge)


def evaluate(h: Homeomorphism1D, x: float) -> float:
    """Value of the homeomorphism at x."""
    return float(h(x))


def invert(h: Homeomorphism1D, y: float) -> float:
    """Preimage of y, computed structurally (no root finding)."""
    return float(h.invert(y))


@dataclass(frozen=True, eq=False)
class ConjugacyReport:
    """Grid residuals of the conjugacy equation h(f(x)) = g(h(x)).

    residual_sup is the max of |h(f(x)) - g(h(x))| / (1 + max(|h(f(x))|,
    |g(h(x))|)) over the grid; the scaling keeps the check meaningful when
    the conjugated values span hundreds of orders of magnitude.
    """

    grid: np.ndarray
    h_values: np.ndarray
    residuals: np.ndarray
    residual_sup: float
    tolerance: float
    verdict: str
    worst_point: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_conjugacy(
    f,
    g,
    h: Homeomorphism1D,
    grid_size: int = 1001,
    tolerance: float = 1e-8,
    radius: float = DEFAULT_RADIUS,
) -> ConjugacyReport:
    """Check h(f(x)) = g(h(x)) on a uniform grid over [-radius, radius]."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    xs = np.linspace(-radius, radius, grid_size)
    try:
        hx = np.asarray(h(xs), dtype=float)
        hfx = np.asarray(h(np.asarray(f(xs), dtype=float)), dtype=float)
        ghx = np.asarray(g(hx), dtype=float)
    except DomainEscapeError as exc:
        worst = exc.value if exc.value is not None else float("nan")
        return ConjugacyReport(
            grid=xs,
            h_values=np.full_like(xs, np.nan),
            residuals=np.full_like(xs, np.inf),
            residual_sup=float("inf"),
            tolerance=tolerance,
            verdict="fail",
            worst_point=float(worst),
        )
    scale = 1.0 + np.maximum(np.abs(hfx), np.abs(ghx))
    residuals = np.abs(hfx - ghx) / scale
    worst_idx = int(np.argmax(residuals))
    sup = float(residuals[worst_idx])
    return ConjugacyReport(
        grid=xs,
        h_values=hx,
        residuals=residuals,
        residual_sup=sup,
        tolerance=tolerance,
        verdict="pass" if sup <= tolerance else "fail",
        worst_point=float(xs[worst_idx]),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str  # "conjugable" | "obstructed"
    obstruction: str | None
    tags_f: tuple[str, ...]
    tags_g: tuple[str, ...]

    @property
    def conjugable(self) -> bool:
        return self.verdict == "conjugable"


def same_interval_test(F: IfsDescriptor, G: IfsDescriptor) -> FeasibilityReport:
    """Pooled slope-interval feasibility check for two IFSs.

    Conjugable iff every slope at 0, pooled over both families, shares one
    interval tag. The obstruction class mirrors the two failure modes:
    sign disagreement (orientation) or |slope| straddling 1 (attract/repel).
    """
    slopes_f = [m.slope_at_zero for m in F.maps]
    slopes_g = [m.slope_at_zero for m in G.maps]
    tags_f = tuple(intervals.classify_slope_interval(s) for s in slopes_f)
    tags_g = tuple(intervals.classify_slope_interval(s) for s in slopes_g)
    if intervals.BOUNDARY in tags_f + tags_g:
        raise NonHyperbolicError("a slope of magnitude 0 or 1 has no interval class")
    pooled = slopes_f + slopes_g
    if len(set(tags_f + tags_g)) == 1:
        return FeasibilityReport("conjugable", None, tags_f, tags_g)
    signs = {s > 0 for s in pooled}
    obstruction = (
        OBSTRUCTION_ORIENTATION if len(signs) > 1 else OBSTRUCTION_ATTRACT_REPEL
    )
    return FeasibilityReport("obstructed", obstruction, tags_f, tags_g)


def weak_conjugacy_linear(
    F: IfsDescriptor,
    G: IfsDescriptor,
    sigma: SymbolSequence,
    n: int,
    anchor: float = DEFAULT_ANCHOR,
    bridge: str = BRIDGE_LINEAR,
) -> FundamentalDomainConjugacy:
    """The n-th conjugacy h_n between composite linear orbits along sigma.

    The n-step composites are again linear with the product slopes, so h_n
    is the fundamental-domain conjugacy for that product pair. Pooled slopes
    must share one interval; negative and expansive families route through
    the negated / inverse-composed constructions automatically.
    """
    for name, ifs in (("F", F), ("G", G)):
        for i, m in enumerate(ifs.maps):
            if not m.is_linear:
                raise UnsupportedMapError(
                    f"weak_conjugacy_linear needs linear maps; {name}[{i + 1}] "
                    f"is {m.kind!r}"
                )
    labeled = [(f"F[{i + 1}]", m.k) for i, m in enumerate(F.maps)]
    labeled += [(f"G[{i + 1}]", m.k) for i, m in enumerate(G.maps)]
    tags = [(lbl, s, intervals.classify_slope_interval(s)) for lbl, s in labeled]
    for lbl, s, t in tags:
        if t == intervals.BOUNDARY:
            raise NonHyperbolicError(f"{lbl} has boundary slope {s}")
    first = tags[0]
    for other in tags[1:]:
        if other[2] != first[2]:
            raise NonConjugateError(
                f"{first[0]} slope {first[1]} in {first[2]} vs {other[0]} "
                f"slope {other[1]} in {other[2]}: not conjugable",
                obstruction=_obstruction_class(first[1], other[1]),
            )
    k_star = effective_slope(F, sigma, n)
    m_star = effective_slope(G, sigma, n)
    return build_linear_conjugacy(k_star, m_star, anchor, bridge)
