"""Closed catalog of one-dimensional maps with exact derivatives.

Only three kinds exist: linear maps k*x, linear maps plus a Lipschitz bump
with a declared Lipschitz bound, and one smooth family k*x + c*x^2/(1+x^2).
The catalog is closed on purpose: every entry has a closed-form derivative
and a knowable Lipschitz constant, which the contraction/linearization
machinery depends on. All maps fix the origin.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

KIND_LINEAR = "linear"
KIND_LIPSCHITZ = "linear+lipschitz"
KIND_SMOOTH = "smooth"

SHAPE_SINE = "sine"
SHAPE_RATIONAL = "rational"

SMOOTH_RATIONAL_QUADRATIC = "rational-quadratic"


# an overflow, or inf/inf, is rare: it raises instead of being looked for. As
# a decorator np.errstate costs less than half of a with block per call
@np.errstate(over="raise", invalid="raise")
def _near_or_raise(near, c, x):
    num, den = near(c, x)
    return num / den


def _quotient(near, far, c, x):
    """A quotient with a power of 1 + x*x below: near(c, x) gives its
    numerator and denominator, and far(c, x) the quotient rewritten in 1/x,
    taken on the entries where near's numerator or denominator is not finite
    (x*x past the float range, x = +-inf or nan), so that no overflow gives
    nan or a warning. c is a scalar or a column of x's rows.
    """
    if type(x) is float:
        # Python floats overflow silently
        num, den = near(c, x)
        return num / den if math.isfinite(num) and math.isfinite(den) else far(c, x)
    try:
        return _near_or_raise(near, c, x)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        num, den = near(c, x)
        out = num / den
        at = ~(np.isfinite(num) & np.isfinite(den))
        if np.ndim(out) == 0:
            return far(c, x) if at else out
        at = np.broadcast_to(at, out.shape)
        cs = np.broadcast_to(c, out.shape)[at] if np.ndim(c) else c
        out[at] = far(cs, np.broadcast_to(x, out.shape)[at])
    return out


# the _quotient forms of c*x/(1 + x*x), the rational bump, and of its
# derivative c*(1 - x*x)/(1 + x*x)**2; of c*x*x/(1 + x*x), the smooth term, and
# of its derivative c*2*x/(1 + x*x)**2. A near form keeps the operation order
# of the bits pinned below the overflow; a far form is exact algebra in 1/x.
# A square is a product, which rounds a Python float as numpy rounds an array
# entry (Python's ** is C pow)

def _rational_near(c, x):
    return c * x, 1.0 + x * x


def _rational_far(c, x):
    return c / (x + 1.0 / x)


def _rational_slope_near(c, x):
    xx = x * x
    den = 1.0 + xx
    return c * (1.0 - xx), den * den


def _rational_slope_far(c, x):
    u = 1.0 / x
    uu = u * u
    den = 1.0 + uu
    return c * ((uu - 1.0) * uu) / (den * den)


def _smooth_near(c, x):
    xx = x * x
    return c * x * x, 1.0 + xx


def _smooth_far(c, x):
    return c / (1.0 + 1.0 / (x * x))


def _smooth_slope_near(c, x):
    den = 1.0 + x * x
    return c * 2.0 * x, den * den


def _smooth_slope_far(c, x):
    u = 1.0 / x
    uu = u * u
    den = 1.0 + uu
    return c * 2.0 * (u * uu) / (den * den)


def _bump(shape: str, amplitude, x):
    if shape == SHAPE_SINE:
        return amplitude * np.sin(x)
    return _quotient(_rational_near, _rational_far, amplitude, x)


def _bump_slope(shape: str, amplitude, x):
    if shape == SHAPE_SINE:
        return amplitude * np.cos(x)
    return _quotient(_rational_slope_near, _rational_slope_far, amplitude, x)


def _value(kind: str, shape: str | None, k, c, x):
    """k*x plus the nonlinear term of the kind; k and c are a map's scalars,
    the (rows, 1) columns of a MapStack, or the entry arrays of a taken one."""
    if kind == KIND_LINEAR:
        return k * np.asarray(x) if np.ndim(x) else k * x
    if kind == KIND_LIPSCHITZ:
        return k * x + _bump(shape, c, x)
    return k * x + _quotient(_smooth_near, _smooth_far, c, x)


def _slope(kind: str, shape: str | None, k, c, x):
    """The exact derivative of _value's map at x, with the same arguments."""
    if kind == KIND_LINEAR:
        return k * np.ones_like(x, dtype=float) if np.ndim(x) else k
    if kind == KIND_LIPSCHITZ:
        return k + _bump_slope(shape, c, x)
    return k + _quotient(_smooth_slope_near, _smooth_slope_far, c, x)


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
        return _bump(self.shape, self.amplitude, x)

    def derivative(self, x):
        return _bump_slope(self.shape, self.amplitude, x)


@dataclass(frozen=True)
class ScalarMap:
    """A map from the closed catalog, callable on scalars and arrays; it acts
    on all of R."""

    kind: str
    k: float
    perturbation: Perturbation | None = None
    name: str | None = None
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_LIPSCHITZ, KIND_SMOOTH):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == KIND_LIPSCHITZ and self.perturbation is None:
            raise ValueError("linear+lipschitz map needs a perturbation")
        if self.kind == KIND_SMOOTH and self.name != SMOOTH_RATIONAL_QUADRATIC:
            raise ValueError(f"unknown smooth catalog entry {self.name!r}")
        # (bump shape, coefficient) of the term added to k*x, read on every
        # call: the bump's shape and amplitude, or (None, c) for the smooth
        # and linear kinds
        if self.kind == KIND_LIPSCHITZ:
            term = (self.perturbation.shape, self.perturbation.amplitude)
        else:
            term = (None, self.c)
        object.__setattr__(self, "_term", term)

    # -- evaluation -------------------------------------------------------

    def __call__(self, x):
        shape, c = self._term
        return _value(self.kind, shape, self.k, c, x)

    def derivative(self, x):
        """Exact analytic derivative at x."""
        shape, c = self._term
        return _slope(self.kind, shape, self.k, c, x)

    @property
    def derivative_extrema(self) -> tuple[float, ...]:
        """Zeros of f'' nearest 0, where f' takes its extremes.

        The contract: on any [-R, R], f' takes its least and greatest values
        at +-R or at those of these points that lie inside, so the two ends
        and these points give the exact range of f' (derivative_range).
        The sine bump's f' is 2*pi-periodic with extremes at j*pi, so -pi, 0
        and pi reach both; the rational bump has them at 0 and +-sqrt(3), the
        smooth rational-quadratic map at +-1/sqrt(3), and past them f' tends
        monotonically to k. Linear maps have none.
        """
        if self.kind == KIND_LIPSCHITZ and self.perturbation.shape == SHAPE_SINE:
            return (-math.pi, 0.0, math.pi)
        if self.kind == KIND_LIPSCHITZ:
            return (-math.sqrt(3.0), 0.0, math.sqrt(3.0))
        if self.kind == KIND_SMOOTH:
            return (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))
        return ()

    @np.errstate(over="ignore")  # k + c past the float range is +-inf
    def derivative_range(self, radius: float) -> tuple[float, float]:
        """(least, greatest) f' on [-radius, radius], read at +-radius and at
        the derivative_extrema inside; nan for both if f' is nan anywhere.
        ValueError for a radius that is not positive."""
        if not radius > 0:
            raise ValueError("interval is degenerate")
        xs = [-radius, radius, *(x for x in self.derivative_extrema if abs(x) <= radius)]
        d = self.derivative(np.array(xs))
        return float(d.min()), float(d.max())

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
        """Declared bound usable in contraction hypotheses: |k| + eps.

        eps is the bump's declared bound, or for the smooth map the largest
        slope of c*x^2/(1+x^2), |c|*3*sqrt(3)/8 at x = +-1/sqrt(3).
        """
        if self.kind == KIND_SMOOTH:
            return abs(self.k) + abs(self.c) * 3.0 * math.sqrt(3.0) / 8.0
        eps = self.perturbation.lipschitz if self.perturbation is not None else 0.0
        return abs(self.k) + eps

    # -- kernel encoding ---------------------------------------------------

    def kernel_row(self) -> tuple[int, float, float, float]:
        if self.kind == KIND_LINEAR:
            return (_kernels.MAP_LINEAR, self.k, 0.0, 0.0)
        if self.kind == KIND_LIPSCHITZ:
            sine = self.perturbation.shape == SHAPE_SINE
            code = _kernels.MAP_SINE if sine else _kernels.MAP_RATIONAL
            return (code, self.k, self.perturbation.amplitude, 0.0)
        return (_kernels.MAP_SMOOTH_RQ, self.k, self.c, 0.0)


class MapStack:
    """Catalog maps of one kind and bump shape, evaluated row by row.

    Called on a (rows, n) array, it maps row r through maps[r] with the
    arithmetic of ScalarMap.__call__, and derivative with that of
    ScalarMap.derivative, so each row carries the bits its map gives alone.
    """

    def __init__(self, maps):
        kinds = {(m.kind, m._term[0]) for m in maps}
        if len(kinds) != 1:
            raise ValueError("a map stack needs maps of one kind and bump shape")
        (self.kind, self.shape), = kinds
        self.k = np.array([[m.k] for m in maps])
        self.c = np.array([[m._term[1]] for m in maps])

    def __call__(self, x):
        return _value(self.kind, self.shape, self.k, self.c, x)

    def derivative(self, x):
        return _slope(self.kind, self.shape, self.k, self.c, x)

    def take(self, rows):
        """The maps[r] for r in rows, an index array, as a stack that maps
        entry i of a 1-D array through maps[rows[i]]."""
        out = copy.copy(self)
        out.k, out.c = self.k[rows, 0], self.c[rows, 0]
        return out


def linear(k: float) -> ScalarMap:
    return ScalarMap(KIND_LINEAR, float(k))


def linear_plus_lipschitz(k: float, perturbation: Perturbation) -> ScalarMap:
    return ScalarMap(KIND_LIPSCHITZ, float(k), perturbation=perturbation)


def sine_bump(amplitude: float, lipschitz: float | None = None) -> Perturbation:
    return Perturbation(SHAPE_SINE, float(amplitude), float(abs(amplitude) if lipschitz is None else lipschitz))


def rational_bump(amplitude: float, lipschitz: float | None = None) -> Perturbation:
    return Perturbation(SHAPE_RATIONAL, float(amplitude), float(abs(amplitude) if lipschitz is None else lipschitz))


def smooth(k: float, c: float, name: str = SMOOTH_RATIONAL_QUADRATIC) -> ScalarMap:
    return ScalarMap(KIND_SMOOTH, float(k), name=name, c=float(c))


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
    with np.errstate(over="ignore"):  # k*x past the float range is +-inf
        fx = np.asarray(f(xs), dtype=float)
    return _kernels.pairwise_quotient_max(xs, fx)
