"""Chaos-game sampling of contractive IFS attractors.

Random iteration x_{t+1} = f_{s_t}(x_t) with uniform symbols; the first
burn_in points are discarded. Affine maps k*x + b are admitted here only,
behind an explicit flag, because linear-at-origin contractive families all
have the one-point attractor {0}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .catalog import ScalarMap
from .defaults import DEFAULT_RADIUS
from .errors import HypothesisError
from .ifs import IfsDescriptor
from .multidim import DiagonalMap


@dataclass(frozen=True)
class AffineMap:
    """x -> k*x + b; attractor demos only, rejected by the analysis modules."""

    k: float
    b: float

    def __call__(self, x):
        return self.k * x + self.b

    @property
    def contraction(self) -> float:
        return abs(self.k)

    def kernel_row(self):
        return (_kernels.MAP_LINEAR, self.k, 0.0, self.b)


@dataclass(frozen=True, eq=False)
class AttractorSample:
    points: np.ndarray
    burn_in: int
    iterations: int
    seed: int
    x0: object


def _contraction_of(m, radius: float) -> float:
    if isinstance(m, AffineMap):
        return m.contraction
    if isinstance(m, DiagonalMap):
        return float(np.max(np.abs(m.array)))
    return max(map(abs, m.derivative_range(radius)))  # sup |f'| on [-R, R]


def chaos_game(
    maps,
    iterations: int,
    burn_in: int,
    seed: int,
    x0,
    allow_affine: bool = False,
    radius: float = DEFAULT_RADIUS,
) -> AttractorSample:
    """Sample the attractor by random iteration, deterministic in the seed.

    maps may be an IfsDescriptor, a list of catalog/affine maps, or a list
    of DiagonalMap for vector sampling. Every map must be contractive on the
    working interval, sup |f'| < 1 there (ScalarMap.derivative_range).
    """
    family = list(maps.maps if isinstance(maps, IfsDescriptor) else maps)
    if not family:
        raise ValueError("need at least one map")
    if iterations < 0 or burn_in < 0:
        raise ValueError("iterations and burn_in must be >= 0")
    if burn_in > iterations:
        raise ValueError("burn_in cannot exceed iterations")
    if any(isinstance(m, AffineMap) for m in family) and not allow_affine:
        raise ValueError("affine maps require allow_affine=True (demo extension)")

    for i, m in enumerate(family):
        if not _contraction_of(m, radius) < 1.0:
            raise HypothesisError(f"map {i + 1} is not contractive on the interval")

    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, len(family), size=iterations)

    if all(isinstance(m, DiagonalMap) for m in family):
        diags = np.array([m.diag for m in family])
        x = np.asarray(x0, dtype=float)
        traj = _kernels.orbit_chain_diag(diags, symbols, x)
    else:
        if not all(isinstance(m, (AffineMap, ScalarMap)) for m in family):
            raise ValueError("maps must be all scalar or all diagonal")
        codes, ks, cs, bs = _kernels.pack_rows([m.kernel_row() for m in family])
        traj = _kernels.orbit_chain(codes, ks, cs, bs, symbols, float(x0))
    return AttractorSample(traj[burn_in:], burn_in, iterations, seed, x0)
