"""Weak conjugacy for diagonal IFSs on R^m and similarity-transformed ones.

Products of diagonal matrices act coordinatewise, so the conjugacy between
two diagonal families is a stack of one-dimensional fundamental-domain
conjugacies; a family conjugated by an invertible matrix A is handled
exactly by the linear change of basis X -> A X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intervals
from .catalog import linear
from .conjugacy import (
    BRIDGE_LINEAR,
    Homeomorphism1D,
    weak_conjugacy_linear,
)
from .defaults import DEFAULT_ANCHOR, DEFAULT_RADIUS
from .errors import (
    DimensionMismatchError,
    NonConjugateError,
    NonHyperbolicError,
    NumericFailureError,
)
from .ifs import IfsDescriptor
from .sequences import SymbolSequence


@dataclass(frozen=True)
class DiagonalMap:
    """X -> (d_11 x_1, ..., d_mm x_m)."""

    diag: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(d) for d in self.diag))
        if not self.diag:
            raise ValueError("diagonal must be nonempty")
        if not all(np.isfinite(self.diag)):
            raise ValueError("diagonal entries must be finite")

    @property
    def dimension(self) -> int:
        return len(self.diag)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.diag)

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"map acts on R^{self.dimension}, point has shape {X.shape}"
            )
        return self.array * X


def _common_dimension(maps) -> int:
    dims = {m.dimension for m in maps}
    if len(dims) != 1:
        raise DimensionMismatchError(f"maps mix dimensions {sorted(dims)}")
    return dims.pop()


def _prefix_for(maps, sigma: SymbolSequence, n: int) -> np.ndarray:
    syms = sigma.prefix(n)
    if syms.size and (syms.min() < 1 or syms.max() > len(maps)):
        raise ValueError(f"sequence symbol outside alphabet 1..{len(maps)}")
    return syms


def diag_compose(maps, sigma: SymbolSequence, n: int, X) -> np.ndarray:
    """n-step composite along sigma: coordinatewise slope products times X.

    As in ifs.effective_slope, a product past the float range is +-inf, and
    a zero entry makes its coordinate's product the zero of the product's
    sign, even after an overflow. A zero coordinate of X maps to a zero, even
    through a product that overflowed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    maps = list(maps)
    m = _common_dimension(maps)
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != m:
        raise DimensionMismatchError(f"point has shape {X.shape}, expected (..., {m})")
    syms = _prefix_for(maps, sigma, n)
    picked = np.array([mp.diag for mp in maps])[syms - 1]
    with np.errstate(over="ignore"):
        if picked.all():
            products = np.prod(picked, axis=0)
        else:  # inf * 0 would be nan
            nonzero = picked.all(axis=0)
            products = np.where(np.signbit(picked).sum(axis=0) % 2, -0.0, 0.0)
            products[nonzero] = np.prod(picked[:, nonzero], axis=0)
    with np.errstate(invalid="ignore"):  # inf * 0, the nan of 0 * (+-inf) too
        out = products * X
    # a linear composite maps a zero coordinate to a zero, also where its
    # product overflowed; the sign is that of the steps taken one by one
    return np.where(X == 0, np.copysign(0.0, products) * X, out)


@dataclass(frozen=True)
class ComponentwiseHomeomorphism:
    """Vector homeomorphism evaluating coordinate i with component i only."""

    components: tuple[Homeomorphism1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("need at least one component")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def __call__(self, X):
        return self._apply(X, invert=False)

    def invert(self, Y):
        return self._apply(Y, invert=True)

    def _apply(self, X, invert: bool):
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"expected last axis {self.dimension}, got shape {X.shape}"
            )
        out = np.empty_like(X)
        for i, h in enumerate(self.components):
            col = X[..., i]
            out[..., i] = h.invert(col) if invert else h(col)
        return out


@dataclass(frozen=True)
class LinearChangeOfBasis:
    """h(X) = A X for an invertible matrix A."""

    A: np.ndarray

    def __call__(self, X):
        return np.asarray(X, dtype=float) @ np.asarray(self.A).T

    def invert(self, Y):
        return np.linalg.solve(np.asarray(self.A), np.asarray(Y, dtype=float).T).T


def componentwise_conjugacy(
    F,
    G,
    sigma: SymbolSequence,
    n: int,
    bridge: str = BRIDGE_LINEAR,
    anchor: float = DEFAULT_ANCHOR,
    per_coordinate: bool = False,
) -> ComponentwiseHomeomorphism:
    """Stacked scalar conjugacies between two diagonal families along sigma.

    By default every diagonal entry of every map of both families must lie
    in one slope interval (the stated hypothesis). The construction itself
    only needs agreement within each coordinate; pass per_coordinate=True to
    opt into that weaker check. A boundary entry (0 or +-1) raises
    NonHyperbolicError before either check.
    """
    F = list(F)
    G = list(G)
    if len(F) != len(G):
        raise ValueError("families must have equal map counts")
    m = _common_dimension(F + G)
    entries = np.array([mp.diag for mp in F] + [mp.diag for mp in G])
    pooled = intervals.slope_feasibility(entries.ravel())
    if pooled.boundary is not None:
        j, i = divmod(pooled.boundary, m)
        name = f"F[{j + 1}]" if j < len(F) else f"G[{j - len(F) + 1}]"
        raise NonHyperbolicError(
            f"{name} has boundary diagonal entry {entries[j, i]} in coordinate {i + 1}"
        )
    for i in range(m):
        col = intervals.slope_feasibility(entries[:, i])
        if col.mismatch is not None:
            raise NonConjugateError(
                f"coordinate {i + 1} mixes slope intervals {sorted(set(col.tags))}",
                obstruction=intervals.OBSTRUCTION_COORDINATE_MIX,
            )
    if not per_coordinate and pooled.mismatch is not None:
        raise NonConjugateError(
            "diagonal entries span several slope intervals across coordinates; "
            "per-coordinate agreement holds, pass per_coordinate=True to use it",
            obstruction=intervals.OBSTRUCTION_POOLED_MIX,
        )
    components = []
    for i in range(m):
        Fi = IfsDescriptor(tuple(linear(mp.diag[i]) for mp in F))
        Gi = IfsDescriptor(tuple(linear(mp.diag[i]) for mp in G))
        components.append(weak_conjugacy_linear(Fi, Gi, sigma, n, anchor, bridge))
    return ComponentwiseHomeomorphism(tuple(components))


def _residual_at(F, G, h, sigma, n, points: np.ndarray) -> float:
    lhs = h(diag_compose(F, sigma, n, points))
    rhs = diag_compose(G, sigma, n, h(points))
    scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / scale))


def componentwise_residual(
    F,
    G,
    h: ComponentwiseHomeomorphism,
    sigma: SymbolSequence,
    n: int,
    grid_per_axis: int = 33,
    radius: float = DEFAULT_RADIUS,
) -> float:
    """Scaled sup residual of h(F_sigma_n(X)) = G_sigma_n(h(X)) on a grid box.

    Every stage acts one coordinate at a time, so the residual of a box point
    in coordinate i depends only on its i-th axis value: the maximum over the
    grid_per_axis**m box is the maximum over the grid_per_axis diagonal
    points (a, ..., a), one per axis value, in any dimension. One evaluation
    over those points keeps the box form's nan and the column order in which
    its errors fire.
    """
    m = _common_dimension(list(F) + list(G))
    axis = np.linspace(-radius, radius, grid_per_axis)
    return _residual_at(F, G, h, sigma, n, np.repeat(axis[:, None], m, 1))


@dataclass(frozen=True, eq=False)
class SimilarityIfs:
    """Diagonal base family conjugated by an invertible matrix A."""

    base: tuple[DiagonalMap, ...]
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        if not self.base:
            raise ValueError("need at least one base map")
        m = _common_dimension(self.base)
        A = np.asarray(self.A, dtype=float)
        if A.shape != (m, m):
            raise DimensionMismatchError(
                f"A must be {m}x{m} to match the base dimension"
            )
        object.__setattr__(self, "A", A)
        inv = np.linalg.inv(A)
        with np.errstate(invalid="ignore"):  # inf*0 where A holds an inf
            gap = float(np.max(np.abs(A @ inv - np.eye(m))))
        if not gap <= 1e-10:  # a nan gap fails too
            raise ValueError(f"A times its computed inverse is off the identity by {gap:.3e}")
        object.__setattr__(self, "A_inverse", inv)

    @property
    def dimension(self) -> int:
        return self.base[0].dimension

    def conjugated_maps(self):
        return [self.A @ np.diag(d.diag) @ self.A_inverse for d in self.base]


@dataclass(frozen=True)
class SimilarityResidual:
    residual: float
    condition_estimate: float
    conditioning_warning: str | None


def similarity_conjugacy(
    S: SimilarityIfs, sigma: SymbolSequence, n: int, X
) -> SimilarityResidual:
    """Residual of A F_sigma_n(X) versus the conjugated family applied to AX.

    The two sides are computed independently (diagonal products on one side,
    step-by-step multiplication by A D A^-1 on the other); ill-conditioned A
    attaches a warning instead of failing. A side that leaves the float range
    (inf, or nan from inf * 0) raises NumericFailureError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    X = np.asarray(X, dtype=float)
    m = S.dimension
    if X.shape != (m,):
        raise DimensionMismatchError(f"X must have shape ({m},)")
    conjugated = S.conjugated_maps()
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = S.A @ diag_compose(S.base, sigma, n, X)
        rhs = S.A @ X
        for s in _prefix_for(S.base, sigma, n):
            rhs = conjugated[s - 1] @ rhs
        residual = float(np.max(np.abs(lhs - rhs)))
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise NumericFailureError(f"a side of the similarity residual at n={n} is not finite")
    cond = float(np.linalg.cond(S.A))
    warning = (
        f"condition estimate {cond:.3e} exceeds 1e8; residual may be inflated"
        if cond > 1e8
        else None
    )
    return SimilarityResidual(residual, cond, warning)
