"""Closed catalog of one-dimensional maps with exact derivatives.

Only three kinds exist: linear maps k*x, linear maps plus a Lipschitz bump
with a declared Lipschitz bound, and one smooth family k*x + c*x^2/(1+x^2).
The catalog is closed on purpose: every entry has a closed-form derivative
and a knowable Lipschitz constant, which the contraction/linearization
machinery depends on. All maps fix the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainEscapeError

KIND_LINEAR = "linear"
KIND_LIPSCHITZ = "linear+lipschitz"
KIND_SMOOTH = "smooth"

SHAPE_SINE = "sine"
SHAPE_RATIONAL = "rational"

SMOOTH_RATIONAL_QUADRATIC = "rational-quadratic"


@dataclass(frozen=True)
class Perturbation:
    """A Lipschitz bump phi with phi(0) = 0.

    shape "sine" is c*sin(x), shape "rational" is c*x/(1+x^2). Both have true
    Lipschitz constant |c|, which must not exceed the declared bound.
    """

    shape: str
    amplitude: float
    lipschitz: float

    def __post_init__(self):
        if self.shape not in (SHAPE_SINE, SHAPE_RATIONAL):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        if self.lipschitz < 0:
            raise ValueError("declared Lipschitz bound must be >= 0")
        if abs(self.amplitude) > self.lipschitz:
            raise ValueError(
                "perturbation amplitude %g exceeds declared Lipschitz bound %g"
                % (self.amplitude, self.lipschitz)
            )

    def __call__(self, x):
        if self.shape == SHAPE_SINE:
            return self.amplitude * np.sin(x)
        return self.amplitude * x / (1.0 + x * x)

    def derivative(self, x):
        if self.shape == SHAPE_SINE:
            return self.amplitude * np.cos(x)
        xx = x * x
        return self.amplitude * (1.0 - xx) / (1.0 + xx) ** 2


@dataclass(frozen=True)
class ScalarMap:
    """A map from the closed catalog, callable on scalars and arrays.

    domain is either None (all of R) or a closed interval; out-of-domain
    evaluation raises DomainEscapeError.
    """

    kind: str
    k: float
    perturbation: Perturbation | None = None
    name: str | None = None
    c: float = 0.0
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_LIPSCHITZ, KIND_SMOOTH):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == KIND_LIPSCHITZ and self.perturbation is None:
            raise ValueError("linear+lipschitz map needs a perturbation")
        if self.kind == KIND_SMOOTH and self.name != SMOOTH_RATIONAL_QUADRATIC:
            raise ValueError(f"unknown smooth catalog entry {self.name!r}")
        if self.domain is not None and not self.domain[0] < self.domain[1]:
            raise ValueError("domain interval is degenerate")

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        self._check_domain(x)
        if self.kind == KIND_LINEAR:
            return self.k * np.asarray(x) if np.ndim(x) else self.k * x
        if self.kind == KIND_LIPSCHITZ:
            return self.k * x + self.perturbation(x)
        return self.k * x + self.c * x * x / (1.0 + x * x)

    def derivative(self, x):
        """Exact analytic derivative at x."""
        if self.kind == KIND_LINEAR:
            return self.k * np.ones_like(x, dtype=float) if np.ndim(x) else self.k
        if self.kind == KIND_LIPSCHITZ:
            return self.k + self.perturbation.derivative(x)
        xx = x * x
        return self.k + self.c * 2.0 * x / (1.0 + xx) ** 2

    @property
    def slope_at_zero(self) -> float:
        """f'(0), exact from the catalog parameters."""
        if self.kind == KIND_LIPSCHITZ:
            return self.k + self.perturbation.amplitude
        return self.k

    @property
    def is_linear(self) -> bool:
        return self.kind == KIND_LINEAR

    @property
    def lipschitz_budget(self) -> float:
        """Declared bound usable in contraction hypotheses: |k| + eps."""
        eps = self.perturbation.lipschitz if self.perturbation is not None else 0.0
        return abs(self.k) + eps

    def _check_domain(self, x):
        if self.domain is None:
            return
        lo, hi = self.domain
        arr = np.asarray(x)
        if np.any(arr < lo) or np.any(arr > hi):
            bad = float(np.asarray(arr).ravel()[np.argmax((arr < lo) | (arr > hi))])
            raise DomainEscapeError(
                f"value {bad} outside map domain [{lo}, {hi}]", value=bad
            )

    # -- kernel encoding ---------------------------------------------------

    def kernel_row(self) -> tuple[int, float, float, float]:
        if self.kind == KIND_LINEAR:
            return (_kernels.MAP_LINEAR, self.k, 0.0, 0.0)
        if self.kind == KIND_LIPSCHITZ:
            code = (
                _kernels.MAP_SINE
                if self.perturbation.shape == SHAPE_SINE
                else _kernels.MAP_RATIONAL
            )
            return (code, self.k, self.perturbation.amplitude, 0.0)
        return (_kernels.MAP_SMOOTH_RQ, self.k, self.c, 0.0)


def linear(k: float, domain=None) -> ScalarMap:
    return ScalarMap(KIND_LINEAR, float(k), domain=domain)


def linear_plus_lipschitz(k: float, perturbation: Perturbation, domain=None) -> ScalarMap:
    return ScalarMap(KIND_LIPSCHITZ, float(k), perturbation=perturbation, domain=domain)


def sine_bump(amplitude: float, lipschitz: float | None = None) -> Perturbation:
    return Perturbation(SHAPE_SINE, float(amplitude), float(abs(amplitude) if lipschitz is None else lipschitz))


def rational_bump(amplitude: float, lipschitz: float | None = None) -> Perturbation:
    return Perturbation(SHAPE_RATIONAL, float(amplitude), float(abs(amplitude) if lipschitz is None else lipschitz))


def smooth(k: float, c: float, name: str = SMOOTH_RATIONAL_QUADRATIC, domain=None) -> ScalarMap:
    return ScalarMap(KIND_SMOOTH, float(k), name=name, c=float(c), domain=domain)


def derivative_at(f: ScalarMap, x: float) -> float:
    """Exact derivative of a catalog map at x."""
    return float(f.derivative(x))


def estimate_lipschitz(f: ScalarMap, interval: tuple[float, float], samples: int) -> float:
    """Max difference quotient |f(x)-f(y)|/|x-y| over the sampled grid.

    Taken over adjacent samples, which on this ascending grid gives the same
    maximum as all pairs. A lower bound on the true Lipschitz constant over
    the interval.
    """
    lo, hi = interval
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not lo < hi:
        raise ValueError("interval is degenerate")
    xs = np.linspace(lo, hi, samples)
    fx = np.asarray(f(xs), dtype=float)
    return _kernels.pairwise_quotient_max(xs, fx)
