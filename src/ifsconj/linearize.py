"""Linearization machinery: linear parts, Koenigs conjugacies, decay bounds
and the asymptotic fate of mixed contracting/expanding orbit sequences.

The neighborhood conjugacy h of a hyperbolic map f to its linear part,
h(f(x)) = lam h(x) with lam = f'(0), is tabulated on a symmetric grid and
interpolated monotonically. A contraction uses the Koenigs limit
h(x) = lim lam**(-n) f^n(x) (G. Koenigs, 1884). An expansive map uses the
Poincare function H = h^-1, H(lam y) = f(H(y)), through the limit
H(y) = lim f^n(y / lam**n) (J. Milnor, Dynamics in One Complex Variable,
section 8); it needs only forward evaluations of f, no root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import intervals
from .catalog import KIND_LINEAR, KIND_LIPSCHITZ, ScalarMap, linear
from .defaults import FATE_MARGIN
from .errors import (
    ConvergenceFailureError,
    HypothesisError,
    NonHyperbolicError,
    NotFixedPointError,
    WrongCaseError,
)
from .conjugacy import TabulatedHomeomorphism
from .ifs import IfsDescriptor, orbit_trajectory
# unused here; perfbench/tracing.py and its tests look the name up in this module
from .rootfind import monotone_inverse_batch  # noqa: F401
from .sequences import SymbolSequence

CASE_SAME_INTERVAL = "case1-same-interval"
CASE_MIXED_RATIO = "case2-mixed-signs-ratio"
CASE_INAPPLICABLE = "inapplicable"
# the Hartman-Grobman case of a linear part, by the obstruction class of its slopes
_HG_CASES = {None: CASE_SAME_INTERVAL, intervals.OBSTRUCTION_ATTRACT_REPEL: CASE_MIXED_RATIO,
             intervals.OBSTRUCTION_ORIENTATION: CASE_INAPPLICABLE}

_FIXED_POINT_TOL = 1e-12  # largest |f(0)| of a map that fixes the origin

FATE_CONVERGES = "converges-to-zero"
FATE_DIVERGES = "diverges"
FATE_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LinearPartResult:
    linear_ifs: IfsDescriptor
    interval_tags: tuple[str, ...]
    hg_case: str

    @property
    def slopes(self) -> np.ndarray:
        return np.array([m.k for m in self.linear_ifs.maps])


def linear_part(F: IfsDescriptor) -> LinearPartResult:
    """Linear IFS of the slopes at zero, with the applicable analysis case.

    Every map must fix the origin; slopes of magnitude exactly 0 or 1 are
    rejected as non-hyperbolic.
    """
    slopes = [m.slope_at_zero for m in F.maps]
    fs = intervals.slope_feasibility(slopes)
    for i, m in enumerate(F.maps):
        v = float(m(0.0))
        if abs(v) > _FIXED_POINT_TOL:
            raise NotFixedPointError(f"map {i + 1} does not fix the origin: f(0) = {v:g}")
        if i == fs.boundary:
            raise NonHyperbolicError(f"map {i + 1} has boundary slope {slopes[i]} at the origin")
    lin = IfsDescriptor(
        tuple(linear(s) for s in slopes),
        label=(F.label + "-linear-part") if F.label else "linear-part",
    )
    return LinearPartResult(lin, fs.tags, _HG_CASES[fs.obstruction])


def _settled(tables, stop_tol: float, fail_tol: float, depth: int):
    """First table that agrees with its predecessor to stop_tol.

    tables yields successive approximations of one limit; returns the table
    and how many steps past the first it is. Raises ConvergenceFailureError
    when the last two tables still differ by more than fail_tol.
    """
    table = next(tables)
    diff = math.inf
    steps = 0
    for steps, nxt in enumerate(tables, 1):
        diff = float(np.max(np.abs(nxt - table)))
        table = nxt
        if diff <= stop_tol:
            break
    if not diff <= fail_tol:
        raise ConvergenceFailureError(
            f"Koenigs iteration still moving by {diff:.3e} at depth {depth}",
            residual=diff,
        )
    return table, steps


def _koenigs_tables(f, lam: float, xs: np.ndarray, depth: int):
    """lam**(-n) f^n(xs) for n = 0..depth."""
    y = xs
    lam_pow = 1.0
    yield xs
    for _ in range(depth):
        y = np.asarray(f(y), dtype=float)
        lam_pow *= lam
        yield y / lam_pow


def _poincare_tables(f, lam: float, ys: np.ndarray, start: int, depth: int):
    """f^n(ys / lam**n) for n = start..depth."""
    for n in range(start, depth + 1):
        u = ys / lam**n
        for _ in range(n):
            u = f(u)
        yield u


def _poincare_range(f, lam, r, depth, stop_tol, fail_tol):
    """Smallest Y = r * 2**j, j < 60, with H(-Y) <= -r and H(Y) >= r.

    Returns Y and the step before the one at which H(+-Y) settled: the
    error of f^n(y / lam**n) scales as y**2 / lam**n, so the edges of the
    table settle last and its depth loop can start there.
    """
    y_max = r
    for _ in range(60):
        # one float at a time: scalar evaluation of f is several times
        # cheaper than a call on a two-element array
        (lo, n_lo), (hi, n_hi) = (
            _settled(_poincare_tables(f, lam, y, 0, depth), stop_tol, fail_tol, depth)
            for y in (-y_max, y_max)
        )
        if lo <= -r and hi >= r:
            return y_max, max(n_lo, n_hi) - 1
        y_max *= 2.0
    raise ConvergenceFailureError(f"Poincare function does not cover [-{r:g}, {r:g}]")


def koenigs_conjugacy(
    f: ScalarMap,
    neighborhood_radius: float = 0.5,
    depth: int = 256,
    nodes: int = 2049,
    stop_tol: float = 1e-13,
    fail_tol: float = 1e-10,
) -> TabulatedHomeomorphism:
    """Tabulated conjugacy h of f to its linear part: h(f(x)) = f'(0) h(x).

    A contraction (|f'(0)| < 1) iterates the Koenigs limit
    h = lim lam**(-n) f^n on a symmetric grid of [-r, r] until successive
    tables agree to stop_tol. An expansive f tabulates the Poincare function
    H = h^-1 = lim f^n(y / lam**n) instead, which needs only forward
    evaluations of f: the y-range [-Y, Y] starts at Y = r and doubles until
    H(-Y) <= -r and H(Y) >= r, so that h is defined on all of [-r, r].
    Either way the table that is still moving by more than fail_tol at
    depth raises ConvergenceFailureError.
    """
    lam = f.slope_at_zero
    if abs(float(f(0.0))) > _FIXED_POINT_TOL:
        raise NotFixedPointError("Koenigs linearization needs f(0) = 0")
    if intervals.slope_feasibility([lam]).boundary is not None:
        raise NonHyperbolicError(f"slope {lam} at the origin is not hyperbolic")
    r = float(neighborhood_radius)
    if not r > 0:
        raise ValueError("neighborhood radius must be positive")
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError("nodes must be an odd count >= 3 so the grid contains 0")

    mid = nodes // 2
    expansive = abs(lam) > 1.0
    if expansive:
        y_max, start = _poincare_range(f, lam, r, depth, stop_tol, fail_tol)
        grid = np.linspace(-y_max, y_max, nodes)
        grid[mid] = 0.0
        tables = _poincare_tables(f, lam, grid, start, depth)
    else:
        grid = np.linspace(-r, r, nodes)
        grid[mid] = 0.0
        tables = _koenigs_tables(f, lam, grid, depth)
    table, _ = _settled(tables, stop_tol, fail_tol, depth)
    table[mid] = 0.0
    if not np.all(np.diff(table) > 0):
        raise ConvergenceFailureError("tabulated conjugacy is not strictly monotone")
    if expansive:
        return TabulatedHomeomorphism(table, grid)
    return TabulatedHomeomorphism(grid, table)


@dataclass(frozen=True)
class DecayBoundResult:
    orbit_value: float
    bound: float
    holds: bool
    contraction_factor: float


def decay_bound_check(
    F: IfsDescriptor, sigma: SymbolSequence, n: int, x: float
) -> DecayBoundResult:
    """Check |F_sigma_n(x)| <= k**n |x| with k = max_i (|k_i| + eps_i).

    Maps must be linear or linear-plus-Lipschitz with |k_i| + eps_i < 1 and
    all linear coefficients of one sign. Linear maps at the budget meet the
    bound with equality, so the check allows the rounding of the n steps
    and the power (8 ulp a step, relative) and an absolute 1e-12.
    """
    budgets = []
    signs = set()
    for i, m in enumerate(F.maps):
        if m.kind not in (KIND_LINEAR, KIND_LIPSCHITZ):
            raise HypothesisError(
                f"map {i + 1} of kind {m.kind!r} has no declared Lipschitz budget"
            )
        if m.k == 0.0:
            raise HypothesisError(f"map {i + 1} has zero linear coefficient")
        b = m.lipschitz_budget
        if b >= 1.0:
            raise HypothesisError(
                f"map {i + 1} violates the contraction hypothesis: "
                f"|k| + eps = {b:g} >= 1"
            )
        budgets.append(b)
        signs.add(m.k > 0)
    if len(signs) > 1:
        raise HypothesisError("linear coefficients must all share one sign")
    k = max(budgets)
    traj = orbit_trajectory(F, sigma, n, x)
    value = abs(float(traj[-1]))
    bound = k**n * abs(x)
    slack = 8 * (n + 1) * np.finfo(float).eps
    return DecayBoundResult(value, bound, value <= bound * (1.0 + slack) + 1e-12, k)


@dataclass(frozen=True, eq=False)
class SequenceFateReport:
    """Trajectory statistics for a mixed contracting/expanding IFS.

    predicted_fate follows the averaged log-slope of the linear part with a
    +-margin dead band; a prefix that never uses an expanding index is
    reported undetermined (the count ratio is degenerate there).
    """

    ns: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    ratio_trajectory: np.ndarray
    orbit_f_abs: np.ndarray
    orbit_g_abs: np.ndarray
    bound: np.ndarray
    lyapunov_sum: float
    predicted_fate: str
    margin: float = FATE_MARGIN


def classify_sequence_fate(
    F: IfsDescriptor,
    sigma: SymbolSequence,
    n_max: int,
    x0: float,
    epsilon: float,
) -> SequenceFateReport:
    """Ratio/decay analysis along sigma for a case-2 IFS.

    Tracks n1 (contracting symbols), n2 (expanding symbols), the orbit of F
    and of its linear part, and the envelope
    (A1 + eps)**n1 * (A2 + eps)**n2 * |x0| with A1, A2 the extreme slope
    magnitudes of each group. Orbit magnitudes of the linear part are
    computed in log space, so very long products degrade gracefully to
    0 or inf instead of over/underflowing midway.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    lp = linear_part(F)
    if lp.hg_case != CASE_MIXED_RATIO:
        raise WrongCaseError(
            f"sequence-fate analysis needs a mixed-magnitude IFS, got {lp.hg_case}"
        )
    slopes = lp.slopes
    contracting = np.abs(slopes) < 1.0
    for s, contracts in zip(slopes, contracting):
        if contracts and abs(s) + epsilon >= 1.0:
            raise HypothesisError(f"epsilon {epsilon:g} too large: |{s:g}| + eps >= 1")
        if not contracts and abs(s) - epsilon <= 1.0:
            raise HypothesisError(f"epsilon {epsilon:g} too large: |{s:g}| - eps <= 1")

    syms = sigma.prefix(n_max)
    sym_contracts = contracting[syms - 1]
    ns = np.arange(1, n_max + 1)
    n1 = np.cumsum(sym_contracts)
    n2 = ns - n1
    with np.errstate(divide="ignore"):
        ratio = np.where(n2 > 0, n1 / np.maximum(n2, 1), np.inf)

    log_slopes = np.log(np.abs(slopes))
    log_g = np.cumsum(log_slopes[syms - 1])

    a1 = float(np.max(np.abs(slopes[contracting])))
    a2 = float(np.max(np.abs(slopes[~contracting])))
    log_bound = n1 * math.log(a1 + epsilon) + n2 * math.log(a2 + epsilon)
    if x0 == 0:  # the orbit of 0 is 0, where an overflowed product times 0 is nan
        orbit_g, bound = np.zeros((2, n_max))
    else:
        with np.errstate(over="ignore"):
            orbit_g = np.exp(log_g) * abs(x0)
            bound = np.exp(log_bound) * abs(x0)

    with np.errstate(over="ignore"):
        orbit_f = np.abs(orbit_trajectory(F, sigma, n_max, x0))

    lyap = float(log_g[-1] / n_max)
    if n2[-1] == 0:
        fate = FATE_UNDETERMINED
    elif lyap < -FATE_MARGIN:
        fate = FATE_CONVERGES
    elif lyap > FATE_MARGIN:
        fate = FATE_DIVERGES
    else:
        fate = FATE_UNDETERMINED
    return SequenceFateReport(
        ns=ns,
        n1=n1.astype(np.int64),
        n2=n2.astype(np.int64),
        ratio_trajectory=ratio,
        orbit_f_abs=orbit_f,
        orbit_g_abs=orbit_g,
        bound=bound,
        lyapunov_sum=lyap,
        predicted_fate=fate,
    )
