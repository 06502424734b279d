"""C0/C1 distances between maps, cross-pair IFS distances, fixed-point
hyperbolicity audits and an empirical perturbation probe.

All suprema are taken over the working interval [-R, R]. Inverse values
needed by the C0 distance are found by bracketed Newton steps on the
catalog's exact derivative (rootfind); the bracket expands past the working
interval when the target lies beyond the map's image of it, so the inverse
gap matches the global inverse of the (strictly monotone) catalog maps.
The grids are evaluated with overflow ignored: a map with a huge slope
gives +-inf, the IEEE value of k*x, without a RuntimeWarning. Maps must be
strictly monotone, read from their exact f' range. Each call profiles the
maps it compares once (values, inverse, derivative on the grid) as rows of
catalog.MapStack stacks, bit for bit as alone: a one-row stack per map, or
in the perturbation probe one per map index, a row per candidate. An
admitted trial's weak conjugacies of the linear parts are checked by the
test the grid residual reduces to (_holds_on_grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import KIND_LIPSCHITZ, MapStack, Perturbation, ScalarMap
from .conjugacy import same_interval_test, weak_conjugacy_linear
from .defaults import BORDERLINE_TOL, DEFAULT_RADIUS, HYPERBOLIC_TOL
from .errors import (
    ContinuumOfFixedPointsError,
    GenerationError,
    HypothesisError,
    IfsConjError,
    InvertibilityError,
    NumericFailureError,
)
from .ifs import IfsDescriptor
from .linearize import linear_part
from .rootfind import monotone_inverse_batch
from .sequences import ExplicitSequence


@dataclass(frozen=True)
class MetricReport:
    rho0: float
    rho1: float
    grid_size: int
    working_interval: tuple[float, float]
    inverse_points_excluded: int


def _is_monotone(f: ScalarMap, radius: float) -> bool:
    """Whether f is strictly monotone on [-R, R]: its exact f' range is
    >= 0 and not all 0, or the reverse (f' of a catalog map is analytic, so
    a zero of f' in a range of one sign is isolated)."""
    lo, hi = f.derivative_range(radius)
    return lo >= 0 < hi or hi <= 0 > lo


# k*x past the float range is +-inf, the IEEE value of f(x), so the grid
# evaluations of a map with a huge slope do not warn
_grid_errstate = np.errstate(over="ignore")


@dataclass(frozen=True)
class _MapProfile:
    """One map's data on the grid: f(xs), the inverse at xs and f'(xs)."""

    values: np.ndarray
    inverse: np.ndarray
    valid: np.ndarray
    derivative: np.ndarray


def _check_grid(grid_size: int) -> None:
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")


def _stack_profiles(stack: MapStack, xs: np.ndarray, radius: float) -> list[_MapProfile]:
    """The profiles of a stack's rows on the grid xs."""
    grid = np.broadcast_to(xs, (len(stack.k), xs.size))
    inverse, valid = monotone_inverse_batch(stack, grid, -radius, radius)
    return list(map(_MapProfile, stack(grid), inverse, valid, stack.derivative(grid)))


@_grid_errstate
def _profiles(maps, grid_size: int, radius: float) -> list[_MapProfile]:
    """Profiles of maps on the grid, one stack row each; every map is checked
    before any is evaluated."""
    if not all(_is_monotone(f, radius) for f in maps):
        raise InvertibilityError("map is not strictly monotone on the working interval")
    xs = np.linspace(-radius, radius, grid_size)
    return [_stack_profiles(MapStack([f]), xs, radius)[0] for f in maps]


# a gap past the float range is inf, and inf - inf, where both values left it, nan
@np.errstate(over="ignore", invalid="ignore")
def _reduce(pf: _MapProfile, pg: _MapProfile) -> tuple[float, float, int]:
    """(rho0, rho1, excluded inverse points) of one pair of profiles."""
    value_gap = float(np.max(np.abs(pf.values - pg.values)))
    ok = pf.valid & pg.valid
    inv_gap = float(np.max(np.abs(pf.inverse[ok] - pg.inverse[ok]))) if ok.any() else 0.0
    r0 = max(value_gap, inv_gap)
    deriv_gap = float(np.max(np.abs(pf.derivative - pg.derivative)))
    return r0, r0 + deriv_gap, int((~ok).sum())


def compare_maps(
    f: ScalarMap, g: ScalarMap, grid_size: int = 1001, radius: float = DEFAULT_RADIUS
) -> MetricReport:
    """Both distance levels in one pass, with the excluded-point count."""
    _check_grid(grid_size)
    r0, r1, excluded = _reduce(*_profiles((f, g), grid_size, radius))
    return MetricReport(r0, r1, grid_size, (-radius, radius), excluded)


def rho0(f: ScalarMap, g: ScalarMap, grid_size: int = 1001, radius: float = DEFAULT_RADIUS) -> float:
    """Max over the grid of the value gap and the inverse-value gap."""
    return compare_maps(f, g, grid_size, radius).rho0


def rho1(f: ScalarMap, g: ScalarMap, grid_size: int = 1001, radius: float = DEFAULT_RADIUS) -> float:
    """rho0 plus the max derivative gap over the grid."""
    return compare_maps(f, g, grid_size, radius).rho1


@dataclass(frozen=True)
class IfsDistanceReport:
    d0: float | None
    d1: float | None
    argmax_pair: tuple[int, int] | None
    identical: bool


def ifs_distance(
    F: IfsDescriptor,
    G: IfsDescriptor,
    level: int = 1,
    grid_size: int = 1001,
    radius: float = DEFAULT_RADIUS,
) -> IfsDistanceReport:
    """Max of the map distance over all cross pairs (f_i, g_j).

    Structurally identical map families are assigned distance 0 outright.
    Note the cross-pair maximum compares every map of F against every map of
    G, so it is bounded below by the spread of the families themselves; two
    IFSs listing the same maps in different order still get a positive
    value. This quirk is intentional and documented, not a bug. A pair
    distance that is nan (both maps past the float range at a grid point)
    makes the family distance nan, and argmax_pair names the first such pair.
    """
    if level not in (0, 1):
        raise ValueError("level must be 0 or 1")
    _check_grid(grid_size)
    if tuple(F.maps) == tuple(G.maps):
        return IfsDistanceReport(0.0, 0.0 if level == 1 else None, None, True)
    profiles = _profiles((*F.maps, *G.maps), grid_size, radius)
    n = len(F.maps)
    # (rho0, rho1) of every cross pair, F's index major; np.argmax takes
    # the first nan or else the first maximum
    r = np.array([_reduce(pf, pg)[:2] for pf in profiles[:n] for pg in profiles[n:]])
    d0, d1 = (float(v) for v in r.max(axis=0))
    i, j = divmod(int(np.argmax(r[:, level])), len(G.maps))
    return IfsDistanceReport(d0, d1 if level == 1 else None, (i + 1, j + 1), False)


@dataclass(frozen=True)
class FixedPointRecord:
    point: float
    derivative: float
    margin: float
    verdict: str  # "hyperbolic" | "borderline" | "non-hyperbolic"


@dataclass(frozen=True)
class HyperbolicityAudit:
    records: tuple[tuple[FixedPointRecord, ...], ...]

    @property
    def all_hyperbolic(self) -> bool:
        return all(r.verdict == "hyperbolic" for per_map in self.records for r in per_map)

    def flattened(self):
        return [r for per_map in self.records for r in per_map]


def _classify_fixed_point(f: ScalarMap, p: float) -> FixedPointRecord:
    d = float(f.derivative(p))
    margin = abs(abs(d) - 1.0)
    if margin <= HYPERBOLIC_TOL:
        verdict = "non-hyperbolic"
    elif margin <= BORDERLINE_TOL:
        verdict = "borderline"
    else:
        verdict = "hyperbolic"
    return FixedPointRecord(p, d, margin, verdict)


@_grid_errstate
def _fixed_points_of(f: ScalarMap, radius: float, grid: int) -> list[float]:
    xs = np.linspace(-radius, radius, grid)
    vals = np.asarray(f(xs), dtype=float) - xs
    flat = np.abs(vals) <= 1e-12
    if np.any(flat[:-1] & flat[1:]):
        raise ContinuumOfFixedPointsError(
            "f(x) - x vanishes identically on a subinterval; "
            "a continuum of fixed points is never hyperbolic"
        )
    roots = [float(x) for x in xs[flat]]
    sign_change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    for idx in sign_change:
        lo, hi = float(xs[idx]), float(xs[idx + 1])
        flo = float(f(lo)) - lo
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = float(f(mid)) - mid
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo <= 1e-12:
                break
        roots.append(0.5 * (lo + hi))
    dedup: list[float] = []
    for r in sorted(roots):
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


def hyperbolicity_audit(
    F: IfsDescriptor, radius: float = DEFAULT_RADIUS, grid: int = 4096
) -> HyperbolicityAudit:
    """Locate fixed points of every map on [-R, R] and classify each one.

    Roots of f(x) - x come from sign changes on the scan grid refined by
    bisection; tangential fixed points without a sign change can escape the
    scan, which is a stated limitation of the grid method. ValueError for a
    radius that is not positive.
    """
    if not radius > 0:
        raise ValueError("interval is degenerate")
    per_map = []
    for f in F.maps:
        pts = _fixed_points_of(f, radius, grid)
        per_map.append(tuple(_classify_fixed_point(f, p) for p in pts))
    return HyperbolicityAudit(tuple(per_map))


# ---------------------------------------------------------------------------
# perturbation probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    delta: float
    trials: int
    passes: int
    attempts: int
    seed: int

    @property
    def pass_fraction(self) -> float:
        return 1.0 if self.trials == 0 else self.passes / self.trials


# grid of the probe's admissibility distance (paired_rho1_max's default)
_PROBE_GRID = 257


def paired_rho1_max(
    F: IfsDescriptor, G: IfsDescriptor, grid_size: int = _PROBE_GRID, radius: float = DEFAULT_RADIUS
) -> float:
    """Index-paired C1 distance max_i rho1(f_i, g_i).

    The cross-pair family distance is unusable as a closeness notion for
    families with well-separated maps (it never drops below their internal
    spread), so admissibility of a perturbation is measured pairwise.
    """
    if len(F.maps) != len(G.maps):
        raise ValueError("families must have equal map counts")
    _check_grid(grid_size)
    profiles = _profiles((*F.maps, *G.maps), grid_size, radius)
    n = len(F.maps)
    return _paired_rho1(profiles[:n], profiles[n:])


def _paired_rho1(pfs, pgs) -> float:
    """max_i rho1(f_i, g_i) from the profiles of the two families."""
    return max(_reduce(pf, pg)[1] for pf, pg in zip(pfs, pgs))


def _jitter_map(f: ScalarMap, scale: float, rng) -> ScalarMap:
    g = replace(f, k=f.k + rng.uniform(-scale, scale))
    if g.kind == KIND_LIPSCHITZ:
        amp = g.perturbation.amplitude + rng.uniform(-scale, scale)
        amp = float(np.clip(amp, -g.perturbation.lipschitz, g.perturbation.lipschitz))
        g = replace(g, perturbation=Perturbation(g.perturbation.shape, amp, g.perturbation.lipschitz))
    return g


# most trials whose candidates are profiled together. It bounds the (rows,
# grid) stacks of a probe with many trials; on 257-point grids 32 rows take
# no longer per row than 50, and about half the memory at peak
_PROBE_ROWS = 32


@_grid_errstate
def _candidate_profiles(cands, radius: float) -> list[list[_MapProfile] | None]:
    """_profiles of every candidate family, or None where _profiles would
    raise: a map not strictly monotone. Map i of all the monotone candidates
    is one stack, a row per candidate."""
    rows = [c for c, maps in enumerate(cands) if all(_is_monotone(f, radius) for f in maps)]
    out = [None] * len(cands)
    if rows:
        xs = np.linspace(-radius, radius, _PROBE_GRID)
        per_map = [_stack_profiles(MapStack([cands[c][i] for c in rows]), xs, radius)
                   for i in range(len(cands[0]))]
        for c, profiles in zip(rows, zip(*per_map)):
            out[c] = list(profiles)
    return out


def _holds_on_grid(h, radius: float) -> bool:
    """Whether verify_conjugacy(x -> h.k*x, x -> h.m*x, h) passes on the
    probe grid over [-radius, radius].

    Linear maps in one slope interval are conjugate: the residual stays far
    below the 1e-8 tolerance (at most 2e-12 over 30k sampled h) unless a
    value leaves the float range, where h.k times the grid overflows (a nan
    residual) or h does (NumericFailureError). h is odd and monotone, so
    both show at max(1, |h.k|)*radius, the largest argument h is given.
    """
    try:
        return math.isfinite(h(max(1.0, abs(h.k)) * radius))  # h(inf) = +-inf
    except NumericFailureError:
        return False


def _weakly_conjugate(f_lin: IfsDescriptor, G: IfsDescriptor, rng, radius) -> bool:
    """Whether the linear parts of F and G pass the weak-conjugacy check
    along a sequence drawn from rng, for n in {1, 5, 10}: composites of
    linear maps are linear, and h_n is checked as the conjugacy of the
    composite slopes it holds, h.k and h.m."""
    try:
        g_lin = linear_part(G).linear_ifs
        alphabet = f_lin.alphabet
        sigma = ExplicitSequence(
            tuple(rng.integers(1, len(alphabet) + 1, size=10)), alphabet
        )
        hs = [weak_conjugacy_linear(f_lin, g_lin, sigma, n) for n in (1, 5, 10)]
    except IfsConjError:
        return False
    return all(_holds_on_grid(h, radius) for h in hs)


def perturbation_probe(
    F: IfsDescriptor,
    delta: float,
    trials: int,
    seed: int,
    radius: float = DEFAULT_RADIUS,
) -> ProbeReport:
    """Sample nearby IFSs and report how many stay weakly conjugate to F.

    Each trial jitters slopes (and bump amplitudes) with its own generator,
    seeded by (seed, trial), until the index-paired C1 distance drops below
    delta, then checks interval feasibility and the conjugacy residual of
    the linear parts along a pinned random sequence for n in {1, 5, 10},
    as verify_conjugacy on the 257-point grid would (_holds_on_grid).
    Trials whose perturbation crosses an interval boundary count as
    failures, not generation errors. A candidate with a map that is not
    strictly monotone is not admissible and is redrawn.

    The trials still without an admissible candidate (up to 32 at a time)
    draw one candidate each per round, and map i of those candidates is
    inverted as one row stack; every trial draws from its generator in the
    order a trial-by-trial loop would, so the counts do not depend on the
    batching. The budget is 100 attempts per trial over the whole probe:
    GenerationError before a round that could pass it.

    F itself must have hyperbolic fixed points and all its maps in one
    slope interval, else HypothesisError; a slope of 0 or +-1 at the origin
    raises NonHyperbolicError, as in same_interval_test, unless the audit
    already raised ContinuumOfFixedPointsError.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    audit = hyperbolicity_audit(F, radius)
    # a slope of 0 or +-1 at the origin raises NonHyperbolicError here, also
    # where the audit found that fixed point non-hyperbolic (a slope of -1)
    feasible = same_interval_test(F, F).conjugable
    if not audit.all_hyperbolic:
        raise HypothesisError("probe requires every fixed point hyperbolic")
    if not feasible:
        # the pooled interval test of F and a candidate could never pass
        raise HypothesisError("probe requires the maps of F in one slope interval")
    if trials == 0:
        return ProbeReport(delta, 0, 0, 0, seed)

    kmin = min(abs(m.k) for m in F.maps)
    scale = delta / (4.0 * (radius + radius / (kmin * kmin) + 2.0))
    budget = 100 * trials
    exhausted = GenerationError(
        f"no admissible perturbation within delta={delta:g} after {budget} attempts"
    )
    try:
        f_profiles = _profiles(F.maps, _PROBE_GRID, radius)
    except IfsConjError:
        # no candidate can be compared with F, so every attempt would fail
        raise exhausted from None
    f_lin = linear_part(F).linear_ifs
    attempts = 0
    passes = 0
    started = 0
    pending = []  # generators of the started trials without an admitted candidate
    while pending or started < trials:
        while started < trials and len(pending) < _PROBE_ROWS:
            pending.append(np.random.default_rng(np.random.SeedSequence((seed, started))))
            started += 1
        # a trial-by-trial loop would run out within this round
        if attempts + len(pending) > budget:
            raise exhausted
        attempts += len(pending)
        cands = [tuple(_jitter_map(m, scale, rng) for m in F.maps) for rng in pending]
        carried = []
        for rng, maps, g_profiles in zip(pending, cands, _candidate_profiles(cands, radius)):
            if g_profiles is not None and _paired_rho1(f_profiles, g_profiles) < delta:
                passes += _weakly_conjugate(f_lin, IfsDescriptor(maps), rng, radius)
            else:
                carried.append(rng)
        pending = carried
    return ProbeReport(delta, trials, passes, attempts, seed)
