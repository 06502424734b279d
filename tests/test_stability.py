"""Map distances, cross-pair family distance, hyperbolicity audit, probe."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ifsconj.stability as stab
from ifsconj import (
    IfsDescriptor,
    compare_maps,
    hyperbolicity_audit,
    ifs_distance,
    linear,
    linear_plus_lipschitz,
    paired_rho1_max,
    perturbation_probe,
    rational_bump,
    rho0,
    rho1,
    sine_bump,
    smooth,
)
from ifsconj.conjugacy import (
    BRIDGE_LINEAR,
    BRIDGE_POWER_LAW,
    build_linear_conjugacy,
    verify_conjugacy,
    weak_conjugacy_linear,
)
from ifsconj.errors import (
    ContinuumOfFixedPointsError,
    GenerationError,
    HypothesisError,
    IfsConjError,
    InvertibilityError,
    NonHyperbolicError,
    NumericFailureError,
)
from ifsconj.ifs import effective_slope
from ifsconj.linearize import linear_part
from ifsconj.rootfind import monotone_inverse_batch
from ifsconj.sequences import ExplicitSequence


def test_rho_zero_on_identical_maps():
    f = linear(0.5)
    assert rho0(f, f) == 0.0
    assert rho1(f, f) == 0.0


def test_rho0_endpoint_fixture():
    # value gap maxes at 1.0; the inverse gap 10/0.5 - 10/0.6 = 10/3 wins
    got = rho0(linear(0.5), linear(0.6))
    assert got == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_rho1_adds_derivative_gap():
    got = rho1(linear(0.5), linear(0.6))
    assert got == pytest.approx(10.0 / 3.0 + 0.1, abs=1e-9)


def test_rho0_small_perturbation():
    f = linear(0.5)
    g = linear_plus_lipschitz(0.5, sine_bump(0.01))
    val = rho0(f, g)
    assert 0.0 < val < 0.05


def test_rho_symmetry_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        f = linear(float(rng.uniform(0.2, 0.9)))
        g = linear_plus_lipschitz(
            float(rng.uniform(0.2, 0.9)), sine_bump(float(rng.uniform(-0.05, 0.05)), 0.05)
        )
        assert rho0(f, g, 301) == pytest.approx(rho0(g, f, 301), abs=1e-12)
        assert rho1(f, g, 301) == pytest.approx(rho1(g, f, 301), abs=1e-12)


def test_rho1_dominates_rho0():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = linear(float(rng.uniform(0.2, 0.9)))
        g = linear(float(rng.uniform(0.2, 0.9)))
        rep = compare_maps(f, g, 301)
        assert rep.rho1 >= rep.rho0


def test_ifs_distance_identity_fiat():
    F = IfsDescriptor((linear(0.5), linear(0.6)))
    same = IfsDescriptor((linear(0.5), linear(0.6)), label="other-label")
    rep = ifs_distance(F, same)
    assert rep.d0 == 0.0 and rep.d1 == 0.0
    assert rep.identical


def test_ifs_distance_single_pair():
    F = IfsDescriptor((linear(0.5),))
    G = IfsDescriptor((linear(0.6),))
    rep = ifs_distance(F, G, level=1)
    assert rep.d1 == pytest.approx(rho1(linear(0.5), linear(0.6)))
    assert rep.argmax_pair == (1, 1)


def test_ifs_distance_positive_for_reordered_maps():
    F = IfsDescriptor((linear(0.5), linear(0.6)))
    G = IfsDescriptor((linear(0.6), linear(0.5)))
    rep = ifs_distance(F, G, level=1)
    assert rep.d1 > 0.0
    i, j = rep.argmax_pair
    assert F.maps[i - 1].k != G.maps[j - 1].k


def test_ifs_distance_symmetric():
    F = IfsDescriptor((linear(0.5), linear(0.3)))
    G = IfsDescriptor((linear(0.7), linear(0.4)))
    for level in (0, 1):
        a = ifs_distance(F, G, level)
        b = ifs_distance(G, F, level)
        va = a.d1 if level == 1 else a.d0
        vb = b.d1 if level == 1 else b.d0
        assert va == pytest.approx(vb, abs=1e-12)


def test_audit_single_contraction():
    audit = hyperbolicity_audit(IfsDescriptor((linear(0.5),)))
    records = audit.flattened()
    assert len(records) == 1
    assert records[0].point == pytest.approx(0.0, abs=1e-12)
    assert records[0].margin == pytest.approx(0.5)
    assert audit.all_hyperbolic


def test_audit_slope_one_flagged():
    f = linear_plus_lipschitz(0.7, rational_bump(0.3))
    audit = hyperbolicity_audit(IfsDescriptor((f,)))
    assert not audit.all_hyperbolic
    assert audit.flattened()[0].verdict == "non-hyperbolic"


def test_audit_finds_extra_roots():
    # f(x) - x = -0.5x + 0.3x/(1+x^2): roots at 0 and x^2 = -1 + 0.6 -> none real
    # use amplitude above the slope gap so side roots appear:
    f = linear_plus_lipschitz(0.5, rational_bump(0.4, 0.75))
    audit = hyperbolicity_audit(IfsDescriptor((f,)))
    pts = sorted(r.point for r in audit.flattened())
    # roots of 0.5x = 0.4x/(1+x^2): x=0 and 1+x^2 = 0.8 -> none; widen amplitude
    assert 0.0 == pytest.approx(pts[len(pts) // 2], abs=1e-9)


def test_audit_continuum_raises():
    with pytest.raises(ContinuumOfFixedPointsError):
        hyperbolicity_audit(IfsDescriptor((linear(1.0),)))


# at radius 0 the one-point scan grid read linear(0.5) as a continuum of
# fixed points, and a negative radius scanned a reversed grid
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_audit_refuses_a_degenerate_interval(radius):
    with pytest.raises(ValueError, match="interval is degenerate"):
        hyperbolicity_audit(IfsDescriptor((linear(0.5),)), radius)


def test_probe_contractive_family_all_pass():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    rep = perturbation_probe(F, 0.01, 20, seed=42)
    assert rep.pass_fraction == 1.0
    assert rep.trials == 20


def test_probe_expansive_family():
    F = IfsDescriptor((linear(2.0), linear(3.0)))
    rep = perturbation_probe(F, 0.5, 5, seed=9)
    assert rep.pass_fraction == 1.0


def test_probe_zero_trials_vacuous():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    rep = perturbation_probe(F, 0.01, 0, seed=1)
    assert rep.pass_fraction == 1.0
    assert rep.passes == 0


def test_probe_requires_hyperbolic_family():
    # 0.5x + c*sin(x) is expansive at 0, and f' = -1 at its fixed points
    # +-2.4556, which the audit finds by their sign change
    F = IfsDescriptor((linear_plus_lipschitz(0.5, sine_bump(1.9384392421028742)),))
    with pytest.raises(HypothesisError, match="every fixed point hyperbolic"):
        perturbation_probe(F, 0.01, 5, seed=1)


def test_probe_boundary_slope_at_origin_is_non_hyperbolic():
    # f'(0) = 0.7 + 0.3 = 1: the slope test raises before the audit's
    # verdict is read, as for a slope of 0 or -1 (this was a HypothesisError)
    F = IfsDescriptor((linear_plus_lipschitz(0.7, rational_bump(0.3)),))
    with pytest.raises(NonHyperbolicError):
        perturbation_probe(F, 0.01, 5, seed=1)


def test_probe_near_boundary_reports_without_asserting():
    # wide delta near the interval edge: crossings count as failed trials
    F = IfsDescriptor((linear(0.99),))
    rep = perturbation_probe(F, 0.5, 8, seed=11)
    assert 0.0 <= rep.pass_fraction <= 1.0
    assert rep.trials == 8


def test_probe_generation_budget(monkeypatch):
    calls = []

    def never_admissible(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 200, "probe drew past its budget of 100 attempts per trial"
        return float("inf")

    monkeypatch.setattr(stab, "_paired_rho1", never_admissible)
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    with pytest.raises(GenerationError, match="after 200 attempts"):
        perturbation_probe(F, 0.01, 2, seed=3)
    assert len(calls) == 200


def test_probe_paired_distance_is_small():
    F = IfsDescriptor((linear(0.5), linear(0.25)))
    G = IfsDescriptor((linear(0.5001), linear(0.2501)))
    assert paired_rho1_max(F, G) < 0.05
    # cross-pair distance stays large: it includes rho1(0.5x, 0.25x)
    assert ifs_distance(F, G, 1, grid_size=257).d1 > 1.0


# -- per-map profiles against the former per-pair computation ----------------

def compare_maps_reference(f, g, grid_size, radius):
    """(rho0, rho1, excluded) as compare_maps computed it before per-map
    profiles: both maps evaluated and inverted inside the pair's own call."""
    xs = np.linspace(-radius, radius, grid_size)
    value_gap = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
    xf, vf = monotone_inverse_batch(f, xs, -radius, radius)
    xg, vg = monotone_inverse_batch(g, xs, -radius, radius)
    ok = vf & vg
    inv_gap = float(np.max(np.abs(xf[ok] - xg[ok]))) if ok.any() else 0.0
    r0 = max(value_gap, inv_gap)
    deriv_gap = float(np.max(np.abs(np.asarray(f.derivative(xs)) - np.asarray(g.derivative(xs)))))
    return r0, r0 + deriv_gap, int((~ok).sum())


def ifs_distance_reference(F, G, level, grid_size, radius):
    """(d0, d1, argmax_pair) from the former loop over the cross pairs."""
    d0 = d1 = best = -1.0
    best_pair = None
    for i, f in enumerate(F.maps):
        for j, g in enumerate(G.maps):
            r0, r1, _ = compare_maps_reference(f, g, grid_size, radius)
            d0 = max(d0, r0)
            d1 = max(d1, r1)
            val = r1 if level == 1 else r0
            if val > best:
                best = val
                best_pair = (i + 1, j + 1)
    return d0, d1 if level == 1 else None, best_pair


def bits(x):
    return None if x is None else float(x).hex()


SINE = linear_plus_lipschitz(0.45, sine_bump(0.1))
RATIONAL_NEG = linear_plus_lipschitz(-0.5, rational_bump(0.05))
SMOOTH = smooth(0.55, 0.06)
SMOOTH_NEG = smooth(-0.4, 0.05)
# 10 / 1e-20 lies past 60 bracket doublings: most inverse points are excluded
FLAT = linear(1e-20)

FAMILY_PAIRS = {
    "1x1": ((SINE,), (SMOOTH,)),
    "2x3": ((linear(0.5), SINE), (RATIONAL_NEG, SMOOTH, SMOOTH_NEG)),
    "3x3": ((SINE, SMOOTH, SMOOTH_NEG), (linear(0.5), RATIONAL_NEG, linear(0.6))),
    "3x3-expansive": (
        (linear(2.0), smooth(1.5, 0.1), linear_plus_lipschitz(3.0, sine_bump(0.5))),
        (linear(2.5), linear_plus_lipschitz(-2.0, rational_bump(0.3)), smooth(1.8, 0.2)),
    ),
    "2x2-excluded": ((FLAT, linear(0.5)), (SINE, SMOOTH)),
    "2x2-excluded-in-g": ((SINE, SMOOTH), (linear(0.5), FLAT)),
}


def test_excluded_case_has_excluded_points():
    assert compare_maps(FLAT, SINE, 257).inverse_points_excluded > 0
    assert compare_maps(SINE, FLAT, 257).inverse_points_excluded > 0


@pytest.mark.parametrize("grid_size", [257, 1001])
@pytest.mark.parametrize("name", list(FAMILY_PAIRS))
def test_compare_maps_matches_reference(name, grid_size):
    for f in FAMILY_PAIRS[name][0]:
        for g in FAMILY_PAIRS[name][1]:
            rep = compare_maps(f, g, grid_size)
            r0, r1, excluded = compare_maps_reference(f, g, grid_size, 10.0)
            assert (bits(rep.rho0), bits(rep.rho1)) == (bits(r0), bits(r1))
            assert rep.inverse_points_excluded == excluded


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", list(FAMILY_PAIRS))
def test_ifs_distance_matches_pair_loop(name, level):
    F, G = (IfsDescriptor(maps) for maps in FAMILY_PAIRS[name])
    for grid_size, radius in ((1001, 10.0), (257, 3.0)):
        rep = ifs_distance(F, G, level, grid_size, radius)
        d0, d1, pair = ifs_distance_reference(F, G, level, grid_size, radius)
        assert (bits(rep.d0), bits(rep.d1), rep.argmax_pair) == (bits(d0), bits(d1), pair)
        assert not rep.identical


@pytest.mark.parametrize(
    "name", ["1x1", "3x3", "3x3-expansive", "2x2-excluded", "2x2-excluded-in-g"]
)
def test_paired_rho1_max_matches_index_pairs(name):
    F, G = (IfsDescriptor(maps) for maps in FAMILY_PAIRS[name])
    expected = max(compare_maps_reference(f, g, 257, 10.0)[1] for f, g in zip(F.maps, G.maps))
    assert bits(paired_rho1_max(F, G)) == bits(expected)


def test_non_monotone_map_raises_before_any_pair():
    bad = linear_plus_lipschitz(0.3, sine_bump(0.5))
    F = IfsDescriptor((linear(0.5),))
    G = IfsDescriptor((linear(0.4), bad))
    with pytest.raises(InvertibilityError, match="not strictly monotone"):
        ifs_distance(F, G)
    with pytest.raises(InvertibilityError):
        paired_rho1_max(G, IfsDescriptor((linear(0.4), linear(0.3))))


def test_ifs_distance_of_a_nan_pair_is_nan():
    # k*x is inf at both ends of the grid for every map: inf - inf is nan
    F = IfsDescriptor((linear(1e308),))
    G = IfsDescriptor((linear(1e308), linear(1e308)))
    assert math.isnan(compare_maps(F.maps[0], G.maps[0]).rho0)
    for level in (0, 1):
        rep = ifs_distance(F, G, level)
        assert math.isnan(rep.d0) and rep.argmax_pair == (1, 1)
        assert rep.d1 is None if level == 0 else math.isnan(rep.d1)


SLOPES = st.sampled_from([1e308, -1e308, 2.0, 0.5, -0.5, 1e-20, 5e-324])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(fs=st.lists(SLOPES, min_size=1, max_size=3), gs=st.lists(SLOPES, min_size=1, max_size=3),
       level=st.sampled_from([0, 1]))
def test_ifs_distance_is_never_negative(fs, gs, level):
    F, G = (IfsDescriptor(tuple(map(linear, ks))) for ks in (fs, gs))
    rep = ifs_distance(F, G, level, grid_size=65)
    for d in (rep.d0, rep.d1) if level else (rep.d0,):
        assert math.isnan(d) or d >= 0.0


def catalog_map(kind, k, c):
    if kind == "linear":
        return linear(k)
    if kind == "smooth":
        return smooth(k, c)
    return linear_plus_lipschitz(k, (sine_bump if kind == "sine" else rational_bump)(c))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.sampled_from(["linear", "sine", "rational", "smooth"]),
       k=st.floats(-1.5, 1.5), c=st.floats(-1.5, 1.5),
       radius=st.one_of(st.sampled_from([0.5, 3.0, 10.0]), st.floats(0.01, 20.0)))
def test_monotone_verdict_matches_a_dense_grid(kind, k, c, radius):
    f = catalog_map(kind, k, c)
    xs, step = np.linspace(-radius, radius, 100001, retstep=True)
    d = f.derivative(xs)
    # the grid decides where its least and greatest f' clear 0 by more than
    # it can miss an extreme of f' between two points (at most |c|*step**2,
    # see test_derivative_range_matches_a_dense_grid)
    assume(min(abs(d.min()), abs(d.max())) > abs(c) * step * step + 1e-15)
    assert stab._is_monotone(f, radius) == (d.min() > 0 or d.max() < 0)


def test_probe_with_non_monotone_map_exhausts_budget():
    # hyperbolic at its only fixed point 0, but f' < 0 near pi: no candidate
    # can be compared with F, so every attempt of the budget fails
    F = IfsDescriptor((linear(0.5), linear_plus_lipschitz(0.3, sine_bump(0.5))))
    with pytest.raises(GenerationError, match="delta=0.01 after 300 attempts"):
        perturbation_probe(F, 0.01, 3, seed=1)


# (maps, delta, trials, seed) -> (passes, attempts), recorded before the probe
# reused F's profiles across attempts
PROBE_PINS = [
    ((linear(0.5), linear(0.25)), 0.01, 20, 42, (20, 20)),
    # f' = 0.3 + 0.3 cos x touches 0 near pi: non-monotone candidates are redrawn
    # (10, 13) since the check reads f' at pi: a candidate with f'(pi) = -3e-7
    # passed the grid at (10, 12)
    ((linear_plus_lipschitz(0.3, sine_bump(0.3)), linear(0.5)), 0.01, 10, 4, (10, 13)),
    # slopes next to the boundary |k| = 1: some candidates cross it and fail
    ((linear(0.998),), 0.5, 8, 11, (6, 8)),
    ((linear(1.002), linear(2.0)), 0.5, 8, 3, (3, 8)),
    ((SMOOTH, SINE), 0.01, 10, 7, (10, 10)),
    # 2 of the 13 admitted trials fail only where h_n overflows on the grid
    ((linear(0.998),), 50.0, 20, 3, (11, 20)),
]


@pytest.mark.parametrize("maps, delta, trials, seed, expected", PROBE_PINS)
def test_probe_counts_pinned(maps, delta, trials, seed, expected):
    rep = perturbation_probe(IfsDescriptor(maps), delta, trials, seed)
    assert (rep.passes, rep.attempts) == expected


# slopes of each interval as products of up to 10 factors: (0,1), (1,inf),
# (-1,0), (-inf,-1)
INTERVALS = [(0.02, 0.999, 1.0), (1.001, 50.0, 1.0), (0.02, 0.999, -1.0), (1.001, 50.0, -1.0)]


def interval_slope(interval):
    lo, hi, sign = INTERVALS[interval]
    factors = st.lists(st.floats(lo, hi), min_size=1, max_size=10)
    return factors.map(lambda fs: sign * math.prod(fs))


def grid_check_passes(h, radius):
    """verify_conjugacy of the linear pair h conjugates on the probe grid,
    failed where h(x) overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            rep = verify_conjugacy(lambda x: h.k * x, lambda x: h.m * x, h, 257, radius=radius)
        except NumericFailureError:
            return False
    return rep.residual_sup <= 1e-8


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reduced_check_matches_the_grid_check(data):
    i = data.draw(st.integers(0, 3))
    k, m = data.draw(interval_slope(i)), data.draw(interval_slope(i))
    bridge = data.draw(st.sampled_from([BRIDGE_LINEAR, BRIDGE_POWER_LAW]))
    anchor = data.draw(st.sampled_from([1.0, 0.37, 4.0]))
    radius = data.draw(st.sampled_from([10.0, 0.5, 123.4, 1e6]))
    h = build_linear_conjugacy(k, m, anchor, bridge)
    assert stab._holds_on_grid(h, radius) == grid_check_passes(h, radius)


@pytest.mark.parametrize("k, m, radius, passes", [
    # h.k times the grid overflows: nan residuals
    (1e306, 3.0, 1e3, False), (-1e306, -3.0, 1e3, False),
    # h(10) = m**(log 10 / log k) overflows for k near 1 and a large m
    (1.001, 1e17, 10.0, False), (-1.001, -1e17, 10.0, False),
    # h(1e3) = 1e-300**(log 1e3 / log 0.5) overflows; its inverse does not
    (0.5, 1e-300, 1e3, False), (1e-300, 0.5, 1e3, True),
    # h overflows at the grid's end, not at h.k times it
    (0.5, 2e-16, 1e6, False),
    (0.5, 0.25, 10.0, True),
])
def test_reduced_check_at_extreme_slopes(k, m, radius, passes):
    h = build_linear_conjugacy(k, m)
    assert grid_check_passes(h, radius) == passes
    assert stab._holds_on_grid(h, radius) == passes


def test_probe_requires_one_slope_interval():
    # the pooled interval test of F and any candidate fails, so the probe
    # refuses instead of reporting 0 passes
    for maps in [(linear(-0.5), linear(0.4)),
                 (linear(-0.5), linear_plus_lipschitz(0.4, rational_bump(0.05)))]:
        with pytest.raises(HypothesisError, match="one slope interval"):
            perturbation_probe(IfsDescriptor(maps), 0.01, 6, 5)


def _dips_below_zero(f, x):
    assert f.derivative(x) < 0 < f.derivative(np.linspace(-10.0, 10.0, 1024)).min()
    return f


# f' < 0 only near an extremum of f' that the 1024-point grid misses; the
# bumps outweigh the slope 0.3 there by a relative 1e-7 (the sine one by 3e-6)
_OVER = 0.3 * (1 + 1e-7)
DIPPING_MAPS = {
    "sine-pi": linear_plus_lipschitz(0.3, sine_bump(0.300001)),
    "rational-0": linear_plus_lipschitz(0.3, rational_bump(-_OVER)),
    "rational-sqrt3": linear_plus_lipschitz(0.3, rational_bump(8 * _OVER)),
    "smooth-rq": smooth(0.3, _OVER * 8 * math.sqrt(3.0) / 9.0),
}
DIP_AT = {"sine-pi": math.pi, "rational-0": 0.0, "rational-sqrt3": math.sqrt(3.0),
          "smooth-rq": -1.0 / math.sqrt(3.0)}


@pytest.mark.parametrize("name", list(DIPPING_MAPS))
def test_monotone_check_reads_derivative_extrema(name):
    f = _dips_below_zero(DIPPING_MAPS[name], DIP_AT[name])
    with pytest.raises(InvertibilityError, match="not strictly monotone"):
        compare_maps(f, linear(0.5))


def test_monotone_check_allows_isolated_zero_slope():
    # f' = 0.3 + 0.3 cos x is 0 only at odd multiples of pi: still increasing
    f = linear_plus_lipschitz(0.3, sine_bump(0.3))
    assert f.derivative(math.pi) == 0.0
    compare_maps(f, linear(0.5))


# -- the batched probe against the trial-by-trial loop ------------------------

def perturbation_probe_reference(F, delta, trials, seed, radius=10.0, residual_tol=1e-8):
    """The probe past its checks of F, as a trial-by-trial loop: one
    candidate family profiled per attempt, and the composite slopes read
    from effective_slope."""
    kmin = min(abs(m.k) for m in F.maps)
    scale = delta / (4.0 * (radius + radius / (kmin * kmin) + 2.0))
    budget = 100 * trials
    exhausted = GenerationError(
        f"no admissible perturbation within delta={delta:g} after {budget} attempts"
    )
    try:
        f_profiles = stab._profiles(F.maps, 257, radius)
    except IfsConjError:
        raise exhausted from None
    attempts = passes = 0
    f_lin = linear_part(F).linear_ifs
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        G = None
        while G is None:
            if attempts >= budget:
                raise exhausted
            attempts += 1
            cand = IfsDescriptor(tuple(stab._jitter_map(m, scale, rng) for m in F.maps))
            try:
                g_profiles = stab._profiles(cand.maps, 257, radius)
                if stab._paired_rho1(f_profiles, g_profiles) < delta:
                    G = cand
            except IfsConjError:
                continue
        try:
            g_lin = linear_part(G).linear_ifs
            alphabet = f_lin.alphabet
            sigma = ExplicitSequence(tuple(rng.integers(1, len(alphabet) + 1, size=10)), alphabet)
            ok = True
            for n in (1, 5, 10):
                h = weak_conjugacy_linear(f_lin, g_lin, sigma, n)
                ks = effective_slope(f_lin, sigma, n)
                ms = effective_slope(g_lin, sigma, n)
                rep = verify_conjugacy(lambda x, _k=ks: _k * x, lambda x, _m=ms: _m * x, h,
                                       grid_size=257, tolerance=residual_tol, radius=radius)
                if not rep.passed:
                    ok = False
                    break
        except IfsConjError:
            ok = False
        passes += int(ok)
    return stab.ProbeReport(delta, trials, passes, attempts, seed)


def probe_outcome(probe, maps, delta, trials, seed):
    """(passes, attempts), or the class and message of the error raised."""
    try:
        rep = probe(IfsDescriptor(maps), delta, trials, seed)
    except IfsConjError as exc:
        return type(exc).__name__, str(exc)
    return rep.passes, rep.attempts


# the pins from the sixth on come last, which keeps the other cases' test ids
PROBE_CASES = [pin[:4] for pin in PROBE_PINS[:5]] + [
    # every candidate is refused as non-monotone: the budget runs out
    ((linear(0.5), linear_plus_lipschitz(0.3, sine_bump(0.5))), 0.01, 3, 1),
    # candidates with a slope below 1 are admitted and fail the interval test
    ((linear(1.02),), 20.0, 10, 5),
    ((linear(1.02), smooth(1.5, 0.1)), 5.0, 10, 5),
    # more trials than one round profiles together
    ((linear(0.998),), 0.5, 70, 11),
    ((linear_plus_lipschitz(0.3, sine_bump(0.3)), SMOOTH), 0.01, 70, 2),
] + [pin[:4] for pin in PROBE_PINS[5:]]


@pytest.mark.parametrize("maps, delta, trials, seed", PROBE_CASES)
def test_probe_matches_trial_by_trial_loop(maps, delta, trials, seed):
    assert (probe_outcome(perturbation_probe, maps, delta, trials, seed)
            == probe_outcome(perturbation_probe_reference, maps, delta, trials, seed))


@pytest.mark.parametrize("every, seed, raises", [(40, 8, False), (150, 8, True), (150, 3, True)])
def test_probe_budget_matches_trial_by_trial_loop(monkeypatch, every, seed, raises):
    # admit a candidate on its own bits, about one in `every`, so both loops
    # admit the same candidates whatever order they profile them in
    def rare(pfs, pgs):
        return 0.0 if int(pgs[0].derivative[0].view(np.int64)) % every == 0 else np.inf

    monkeypatch.setattr(stab, "_paired_rho1", rare)
    maps = (linear(0.5), linear(0.25))
    got = probe_outcome(perturbation_probe, maps, 0.01, 3, seed)
    assert got == probe_outcome(perturbation_probe_reference, maps, 0.01, 3, seed)
    assert (got[0] == "GenerationError") == raises


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_distances_refuse_a_grid_below_two(grid):
    F = IfsDescriptor((linear(0.5),))
    G = IfsDescriptor((linear(0.4),))
    for call in (lambda: compare_maps(F.maps[0], G.maps[0], grid),
                 lambda: ifs_distance(F, G, 1, grid),
                 lambda: ifs_distance(F, F, 1, grid),  # identical families too
                 lambda: paired_rho1_max(F, G, grid)):
        with pytest.raises(ValueError, match="grid_size must be >= 2"):
            call()
