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
        fs = intervals.slope_feasibility((self.k, self.m))
        if fs.boundary is not None:
            raise NonHyperbolicError(
                f"boundary slope (k={self.k}, m={self.m}); |slope| of 0 or 1 "
                "admits no hyperbolic conjugacy"
            )
        if fs.mismatch is not None:
            raise NonConjugateError(
                f"slopes {self.k} in {fs.tags[0]} and {self.m} in {fs.tags[1]} "
                "are not topologically conjugate",
                obstruction=fs.obstruction,
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

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        """h(xs), with h(±inf) = ±inf (negated for k < 0) and h(nan) = nan.

        A finite x whose h(x) overflows raises NumericFailureError; a nonzero
        x whose h(x) underflows gets the smallest subnormal of its sign.
        """
        kc, mc = self.core_slopes
        finite = np.isfinite(xs)
        vals = xs[finite]
        hv = _kernels.fd_eval(vals, kc, mc, self.anchor, _BRIDGE_CODES[self.bridge], None)
        if not np.isfinite(hv).all():
            bad = float(vals[~np.isfinite(hv)][0])
            raise NumericFailureError(f"h({bad}) overflows the float range")
        # h(x) = 0 only at x = 0: a value below the float range keeps its sign
        underflow = (hv == 0.0) & (vals != 0.0)
        hv[underflow] = np.copysign(math.ulp(0.0), vals[underflow])
        out = xs.copy()
        out[finite] = hv
        return -out if self.k < 0 else out

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


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point derivative at an end node, with pchiptx's shape guards."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of each piece of the pchip through (x, y).

    Follows scipy 1.17's PchipInterpolator operation for operation, so every
    value keeps scipy's bits. An interior derivative is the weighted harmonic
    mean of the adjacent secants, or 0 where they differ in sign or one is 0
    (Fritsch & Butland 1984); the ends take the one-sided three-point formula
    with Moler's shape guards (pchiptx); a 2-node table is the secant line.
    Raises ValueError where a derivative is not finite, as scipy does.
    """
    with np.errstate(all="ignore"):
        h = np.diff(x)
        m = np.diff(y) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            first = _end_slope(h[0], h[1], m[0], m[1])
            last = _end_slope(h[-1], h[-2], m[-1], m[-2])
            d = np.concatenate(([first], inner, [last]))
        if not np.isfinite(d).all():
            raise ValueError("pchip slope of the tabulated nodes overflows the float range")
        t = (d[:-1] + d[1:] - 2 * m) / h
        return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


def _pchip_eval(x: np.ndarray, coeffs, v: np.ndarray) -> np.ndarray:
    """The pchip at v; the end pieces extrapolate.

    Sums the powers of s = v - x[i] in the order of scipy's PPoly; as there,
    the leading 0.0 + fixes the sign of a zero sum, and a nan of either sign
    gives the positive quiet nan.
    """
    c0, c1, c2, c3 = coeffs
    i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, x.size - 2)
    s = v - x[i]
    with np.errstate(over="ignore", invalid="ignore"):
        ss = s * s
        out = (((0.0 + c3[i]) + c2[i] * s) + c1[i] * ss) + c0[i] * (ss * s)
    out[np.isnan(v)] = np.nan
    return out


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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("tabulated nodes must be finite")
        if not np.all(np.diff(xs) > 0) or not np.all(np.diff(ys) > 0):
            raise ValueError("tabulated nodes must be strictly increasing")

    def _pchip(self, forward: bool, v: np.ndarray) -> np.ndarray:
        nodes, values = (self.xs, self.ys) if forward else (self.ys, self.xs)
        key = "fwd" if forward else "inv"
        coeffs = self._interp.get(key)
        if coeffs is None:
            coeffs = self._interp[key] = _pchip_coefficients(nodes, values)
        return _pchip_eval(nodes, coeffs, v)

    def _eval(self, xs):
        # pchip can round past an end node; inside the table, clip to the image
        out = self._pchip(True, xs)
        inside = (xs >= self.xs[0]) & (xs <= self.xs[-1])
        return np.where(inside, np.clip(out, self.ys[0], self.ys[-1]), out)

    def _inv(self, ys):
        if np.any(ys < self.ys[0]) or np.any(ys > self.ys[-1]):
            raise InversionRangeError("value outside the tabulated image")
        return self._pchip(False, ys)


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
    hx = np.asarray(h(xs), dtype=float)
    hfx = np.asarray(h(np.asarray(f(xs), dtype=float)), dtype=float)
    ghx = np.asarray(g(hx), dtype=float)
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
    fs = intervals.slope_feasibility([m.slope_at_zero for m in F.maps + G.maps])
    if fs.boundary is not None:
        raise NonHyperbolicError("a slope of magnitude 0 or 1 has no interval class")
    verdict = "conjugable" if fs.obstruction is None else "obstructed"
    nf = len(F.maps)
    return FeasibilityReport(verdict, fs.obstruction, fs.tags[:nf], fs.tags[nf:])


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
    the negated / inverse-composed constructions automatically. A product
    slope that under- or overflows the float range raises
    NumericFailureError.
    """
    labeled = [(f"{name}[{i + 1}]", m) for name, ifs in (("F", F), ("G", G))
               for i, m in enumerate(ifs.maps)]
    for lbl, m in labeled:
        if not m.is_linear:
            raise UnsupportedMapError(f"weak_conjugacy_linear needs linear maps; {lbl} is {m.kind!r}")
    fs = intervals.slope_feasibility([m.k for _, m in labeled])
    if fs.boundary is not None:
        lbl, m = labeled[fs.boundary]
        raise NonHyperbolicError(f"{lbl} has boundary slope {m.k}")
    if fs.mismatch is not None:
        (lbl0, m0), (lbl, m) = labeled[0], labeled[fs.mismatch]
        raise NonConjugateError(
            f"{lbl0} slope {m0.k} in {fs.tags[0]} vs {lbl} slope {m.k} in "
            f"{fs.tags[fs.mismatch]}: not conjugable",
            obstruction=fs.obstruction,
        )
    k_star = effective_slope(F, sigma, n)
    m_star = effective_slope(G, sigma, n)
    # no slope is 0, so a product of 0 or +-inf left the float range
    for name, s in (("k*", k_star), ("m*", m_star)):
        if s == 0.0 or not math.isfinite(s):
            what = "underflows" if s == 0.0 else "overflows"
            raise NumericFailureError(
                f"effective slope {name} over {n} steps {what} the float range"
            )
    return build_linear_conjugacy(k_star, m_star, anchor, bridge)
