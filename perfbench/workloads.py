"""Request generators and request bodies of the library workloads.

A workload is a fixed cycle of requests. ``make_cycle(workload, seed)``
draws every input from the seed as plain data (floats, ints, arrays,
strings); the request bodies build the library objects from that data, call
the library, check the outputs and return a digest of them. The class
pattern of a cycle is fixed per workload, so every seed gives the same mix.

A request body raises ``CheckFailed`` when an output check fails. The
caller applies the failure rule: a non-``IfsConjError`` exception, a leaked
``RuntimeWarning`` or a failed check fails the request.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import ifsconj as ic
from ifsconj.errors import IfsConjError
from ifsconj.multidim import DiagonalMap, SimilarityIfs

LIBRARY_WORKLOADS = ("conjugacy", "linearize", "stability", "attractor")


class CheckFailed(Exception):
    """An output check of a request did not hold."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Digest:
    """sha256 over the outputs a request produced, for replay comparison."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(repr(v).encode())
        return self

    def hex(self) -> str:
        return self._h.hexdigest()


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def sequence_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# conjugacy: fd_eval-bound build/verify/evaluate/invert, weak and 3-D checks
# ---------------------------------------------------------------------------

# slope-interval maps of a contractive core slope s in (0, 1)
_INTERVALS = (
    ("(0,1)", lambda s: s),
    ("(-1,0)", lambda s: -s),
    ("(1,+inf)", lambda s: 1.0 / s),
    ("(-inf,-1)", lambda s: -1.0 / s),
)
_BRIDGES = ("linear", "power-law")
_WEAK_N = (1, 5, 20, 100)
CONJ_CYCLE = 20  # 19 regular requests, then one edge request
EDGE_VALUES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, -0.0)
POINTS = 1024


def _conjugacy_cycle(rng) -> list:
    pairs = []
    for tag, to_interval in _INTERVALS:
        kc, mc = uniform(rng, 0.295, 0.305), uniform(rng, 0.595, 0.605)
        k2, m2 = uniform(rng, 0.39, 0.41), uniform(rng, 0.49, 0.51)
        for bridge in _BRIDGES:
            pairs.append({
                "interval": tag, "bridge": bridge,
                "k": to_interval(kc), "m": to_interval(mc),
                "k2": to_interval(k2), "m2": to_interval(m2),
            })
    out = []
    for i in range(CONJ_CYCLE - 1):
        pair = pairs[i % len(pairs)]
        kc = min(abs(pair["k"]), 1.0 / abs(pair["k"]))
        mc = min(abs(pair["m"]), 1.0 / abs(pair["m"]))
        # orbit exponents bounded so that |x| and |h(x)| stay within 1e+-250
        jmax = int(250 * math.log(10) / max(math.log(1 / kc), math.log(1 / mc))) - 1
        j = rng.integers(-jmax, jmax + 1, POINTS).astype(float)
        sign = np.where(rng.random(POINTS) < 0.5, -1.0, 1.0)
        xs = sign * rng.uniform(kc, 1.0, POINTS) * kc ** (-j)
        out.append(("regular", {
            **pair,
            "xs": xs,
            "n": _WEAK_N[i % len(_WEAK_N)],
            "p": uniform(rng, 0.45, 0.55),
            "sigma_seed": sequence_seed(rng),
            "diag_f": rng.uniform(0.3, 0.7, (2, 3)),
            "diag_g": rng.uniform(0.3, 0.7, (2, 3)),
            "A": np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3)),
            "X": rng.uniform(-1.0, 1.0, 3),
        }))
    out.append(("edge", dict(pairs[int(rng.integers(len(pairs)))])))
    return out


def _conjugacy_regular(s: dict, trace) -> str:
    k, m = s["k"], s["m"]
    h = ic.build_linear_conjugacy(k, m, 1.0, s["bridge"])
    rep = ic.verify_conjugacy(ic.linear(k), ic.linear(m), h, 1001, 1e-8)
    check(rep.passed, f"verify {k}, {m}: residual {rep.residual_sup}")
    xs = s["xs"]
    hx = h(xs)
    back = h.invert(hx)
    orient = -1.0 if k < 0 else 1.0
    check(np.all(np.isfinite(hx)) and np.all(np.sign(hx) == orient * np.sign(xs)),
          "h(x) not finite or of the wrong sign")
    rel = float(np.max(np.abs(back - xs) / np.abs(xs)))
    check(rel <= 1e-9, f"round trip error {rel}")

    F = ic.IfsDescriptor((ic.linear(k), ic.linear(s["k2"])))
    G = ic.IfsDescriptor((ic.linear(m), ic.linear(s["m2"])))
    sigma = ic.BernoulliSequence(s["p"], s["sigma_seed"])
    n = s["n"]
    hw = ic.weak_conjugacy_linear(F, G, sigma, n, 1.0, s["bridge"])
    k_n, m_n = ic.effective_slope(F, sigma, n), ic.effective_slope(G, sigma, n)
    weak = ic.verify_conjugacy(ic.linear(k_n), ic.linear(m_n), hw, 1001, 1e-8)
    check(weak.passed, f"weak n={n}: residual {weak.residual_sup}")

    Fd = [DiagonalMap(tuple(r)) for r in s["diag_f"]]
    Gd = [DiagonalMap(tuple(r)) for r in s["diag_g"]]
    h3 = ic.componentwise_conjugacy(Fd, Gd, sigma, 5)
    r3 = ic.componentwise_residual(Fd, Gd, h3, sigma, 5, 33)
    check(r3 <= 1e-8, f"componentwise residual {r3}")
    sim = ic.similarity_conjugacy(SimilarityIfs(tuple(Fd), s["A"]), sigma, 5, s["X"])
    check(sim.residual <= 1e-12, f"similarity residual {sim.residual}")
    return Digest().add(rep.residual_sup, hx, back, weak.residual_sup, r3, sim.residual).hex()


def _edge_ok(x: float, y) -> bool:
    """A defined value for an edge input: sign kept, zero and non-finite kept."""
    if not isinstance(y, float):
        return False
    if math.isnan(x):
        return math.isnan(y)
    if math.isinf(x):
        return y == x
    if x == 0.0:
        return y == 0.0
    return math.isfinite(y) and (y > 0) == (x > 0)


def _conjugacy_edge(s: dict, trace) -> str:
    """Point-by-point h at non-finite, huge, subnormal and signed-zero inputs.

    Each value must be a typed IfsConjError or a defined value; the caller's
    failure rule turns any other exception or a leaked RuntimeWarning into a
    failure of the request.
    """
    orient = -1.0 if s["k"] < 0 else 1.0
    h = ic.build_linear_conjugacy(s["k"], s["m"], 1.0, s["bridge"])
    d = Digest()
    for x in EDGE_VALUES:
        try:
            y = h(x)
        except IfsConjError as exc:
            d.add(type(exc).__name__)
            continue
        check(_edge_ok(x, orient * y), f"h({x!r}) = {y!r}")
        d.add(y)
    return d.hex()


# ---------------------------------------------------------------------------
# linearize: Koenigs (contractive and expansive), sequence fate, decay sweeps
# ---------------------------------------------------------------------------

# fixed class pattern of one cycle; the expansive requests are spread out
LIN_PATTERN = (["contractive"] * 6 + ["fate400"] * 2 + ["decay"] * 2 + ["fate2e4", "expansive"]) * 4


def _linearize_cycle(rng) -> list:
    def contractive_map(i):
        # kind and sign follow the position, so every seed gives the same mix
        lam = uniform(rng, 0.49, 0.51) * (-1 if i % 4 == 3 else 1)
        if i % 3 == 0:
            return {"kind": "smooth", "k": lam, "c": uniform(rng, 0.07, 0.09)}
        amp = uniform(rng, 0.045, 0.055)
        shape = "sine" if i % 3 == 1 else "rational"
        return {"kind": "lipschitz", "k": lam - amp, "shape": shape, "amp": amp}

    contractive = [contractive_map(i) for i in range(8)]
    expansive = [{"kind": "smooth", "k": uniform(rng, 2.97, 3.03) * (-1 if i % 2 else 1),
                  "c": uniform(rng, 0.095, 0.105)} for i in range(4)]
    fates = [{"rule": rule, "special": special, "a1": uniform(rng, 0.45, 0.55), "a2": uniform(rng, 1.9, 2.1)}
             for rule in ("perfect-squares", "powers-of-two") for special in (1, 2)]
    counters = {}
    out = []
    for cls in LIN_PATTERN:
        i = counters.get(cls, 0)
        counters[cls] = i + 1
        if cls == "contractive":
            spec = dict(contractive[i % 8])
        elif cls == "expansive":
            spec = dict(expansive[i % 4])
        elif cls == "fate400":
            spec = dict(fates[i % 4])
        elif cls == "fate2e4":
            spec = {"a1": uniform(rng, 0.49, 0.51), "c": uniform(rng, 0.03, 0.05), "a2": uniform(rng, 1.98, 2.02),
                    "amp": uniform(rng, 0.03, 0.05), "p": uniform(rng, 0.64, 0.66),
                    "sigma_seed": sequence_seed(rng), "x0": uniform(rng, 0.05, 0.2)}
        else:  # decay sweep
            spec = {"k1": uniform(rng, 0.38, 0.42), "k2": uniform(rng, 0.38, 0.42), "amp": uniform(rng, 0.1, 0.12),
                    "p": uniform(rng, 0.45, 0.55), "sigma_seed": sequence_seed(rng), "x0": uniform(rng, 0.5, 5.0)}
        out.append((cls, spec))
    return out


def _catalog_map(s: dict):
    if s["kind"] == "smooth":
        return ic.smooth(s["k"], s["c"])
    bump = ic.sine_bump if s["shape"] == "sine" else ic.rational_bump
    return ic.linear_plus_lipschitz(s["k"], bump(s["amp"]))


def _koenigs(s: dict, trace) -> str:
    f = _catalog_map(s)
    lam = f.slope_at_zero
    h = ic.koenigs_conjugacy(f)
    # grid on which f stays inside the tabulated neighborhood [-0.5, 0.5]
    reach = 0.45 if abs(lam) < 1 else 0.45 / (abs(lam) + 0.5)
    xs = np.linspace(-reach, reach, 257)
    residual = float(np.max(np.abs(h(f(xs)) - lam * h(xs))))
    if trace is not None:
        trace.add("linearize.koenigs.residual_max", residual)
    check(residual <= 1e-6, f"Koenigs residual {residual}")
    return Digest().add(h.xs, h.ys).hex()


def _fate400(s: dict, trace) -> str:
    F = ic.IfsDescriptor((ic.linear(s["a1"]), ic.linear(s["a2"])))
    sigma = ic.SparseDensitySequence(s["special"], s["rule"])
    rep = ic.classify_sequence_fate(F, sigma, 400, 1.0, 0.01)
    # the sparse symbol loses: a rare expander converges, a rare contractor diverges
    want = "converges-to-zero" if s["special"] == 2 else "diverges"
    check(rep.predicted_fate == want, f"fate {rep.predicted_fate}, expected {want}")
    return Digest().add(rep.predicted_fate, rep.lyapunov_sum, rep.bound, rep.orbit_f_abs).hex()


def _fate2e4(s: dict, trace) -> str:
    F = ic.IfsDescriptor((ic.smooth(s["a1"], s["c"]),
                          ic.linear_plus_lipschitz(s["a2"] - s["amp"], ic.sine_bump(s["amp"]))))
    sigma = ic.BernoulliSequence(s["p"], s["sigma_seed"])
    n = 20_000
    rep = ic.classify_sequence_fate(F, sigma, n, s["x0"], 0.01)
    logs = np.log(np.abs(np.array([s["a1"], s["a2"]])))
    lyap = float(np.mean(logs[sigma.prefix(n) - 1]))
    check(abs(rep.lyapunov_sum - lyap) <= 1e-9, "Lyapunov sum disagrees with the prefix")
    check(rep.predicted_fate == "converges-to-zero", f"fate {rep.predicted_fate}")
    return Digest().add(rep.lyapunov_sum, rep.orbit_f_abs, rep.bound).hex()


def _decay(s: dict, trace) -> str:
    F = ic.IfsDescriptor((ic.linear(s["k1"]),
                          ic.linear_plus_lipschitz(s["k2"], ic.sine_bump(s["amp"]))))
    sigma = ic.BernoulliSequence(s["p"], s["sigma_seed"])
    d = Digest()
    for n in range(1, 101):
        r = ic.decay_bound_check(F, sigma, n, s["x0"])
        check(r.holds, f"decay bound violated at n={n}")
        d.add(r.orbit_value)
    return d.hex()


# ---------------------------------------------------------------------------
# stability: C0/C1 distances, family distances, audits, perturbation probes
# ---------------------------------------------------------------------------

STAB_PATTERN = (["compare", "audit", "compare", "ifs2", "compare", "audit"] * 2
                + ["compare", "ifs3", "compare", "ifs2", "compare", "ifs3", "compare",
                   "ifs2", "compare", "ifs2", "compare", "audit", "probe"])


def _stability_cycle(rng) -> list:
    def monotone_map(i):
        k = uniform(rng, 0.45, 0.55)
        if i % 3 == 0:
            return {"kind": "smooth", "k": k, "c": uniform(rng, 0.05, 0.07)}
        amp = uniform(rng, 0.09, 0.11)
        return {"kind": "lipschitz", "k": k, "shape": "sine" if i % 3 == 1 else "rational",
                "amp": amp}

    pool = [monotone_map(i) for i in range(12)]
    out = []
    for i, cls in enumerate(STAB_PATTERN):
        # the same pool positions for every seed; the seed draws the maps
        picks = [pool[(i + j) % len(pool)] for j in range(6)]
        if cls == "compare":
            spec = {"f": picks[0], "g": picks[1]}
        elif cls in ("ifs2", "ifs3"):
            size = 2 if cls == "ifs2" else 3
            spec = {"F": picks[:size], "G": picks[size:2 * size]}
        elif cls == "audit":
            spec = {"F": picks[:2]}
        else:
            spec = {"F": picks[:2], "seed": sequence_seed(rng)}
        out.append((cls, spec))
    return out


def _compare(s: dict, trace) -> str:
    f, g = _catalog_map(s["f"]), _catalog_map(s["g"])
    rep = ic.compare_maps(f, g)
    xs = np.linspace(-10.0, 10.0, 1001)
    value_gap = float(np.max(np.abs(f(xs) - g(xs))))
    check(rep.inverse_points_excluded == 0, "inverse points excluded")
    check(rep.rho1 >= rep.rho0 >= value_gap, "distance levels out of order")
    return Digest().add(rep.rho0, rep.rho1).hex()


def _ifs_distance(s: dict, trace) -> str:
    F = ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["F"]))
    G = ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["G"]))
    rep = ic.ifs_distance(F, G)
    check(not rep.identical and rep.d1 >= rep.d0 > 0, "family distance out of order")
    check(1 <= rep.argmax_pair[0] <= len(F) and 1 <= rep.argmax_pair[1] <= len(G), "bad argmax")
    return Digest().add(rep.d0, rep.d1, rep.argmax_pair).hex()


def _audit(s: dict, trace) -> str:
    F = ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["F"]))
    audit = ic.hyperbolicity_audit(F)
    check(audit.all_hyperbolic, "audit found a non-hyperbolic fixed point")
    check(all(any(abs(r.point) < 1e-9 for r in per) for per in audit.records), "origin not found")
    return Digest().add([(r.point, r.derivative) for r in audit.flattened()]).hex()


def _probe(s: dict, trace) -> str:
    F = ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["F"]))
    rep = ic.perturbation_probe(F, 0.01, 50, s["seed"])
    check(rep.trials == 50 and rep.attempts >= 50, "probe trial accounting")
    check(rep.passes == rep.trials, f"probe passed {rep.passes} of {rep.trials}")
    return Digest().add(rep.passes, rep.attempts).hex()


# ---------------------------------------------------------------------------
# attractor: chaos game, long orbits, Lipschitz estimates
# ---------------------------------------------------------------------------

ATTR_PATTERN = ("orbit", "lipschitz", "chaos_scalar", "lipschitz", "chaos_diag",
                "orbit", "lipschitz", "chaos_cantor")
CHAOS_ITER = 200_000


def _attractor_cycle(rng) -> list:
    out = []
    for cls in ATTR_PATTERN:
        if cls == "orbit":
            spec = {"maps": [{"kind": "smooth", "k": uniform(rng, 0.49, 0.51), "c": uniform(rng, 0.04, 0.06)},
                             {"kind": "lipschitz", "k": uniform(rng, 0.39, 0.41), "shape": "sine",
                              "amp": uniform(rng, 0.09, 0.11)}],
                    "p": 0.5, "sigma_seed": sequence_seed(rng),
                    "n": 100_000, "x0": uniform(rng, 1.0, 9.0)}
        elif cls == "lipschitz":
            spec = {"f": {"kind": "smooth", "k": uniform(rng, 0.45, 0.55), "c": uniform(rng, 0.08, 0.12)}}
        elif cls == "chaos_scalar":
            spec = {"maps": [{"kind": "smooth", "k": uniform(rng, 0.49, 0.51), "c": uniform(rng, 0.04, 0.06)},
                             {"kind": "lipschitz", "k": uniform(rng, 0.39, 0.41), "shape": "rational",
                              "amp": uniform(rng, 0.09, 0.11)}],
                    "seed": sequence_seed(rng), "x0": uniform(rng, -5.0, 5.0)}
        elif cls == "chaos_diag":
            spec = {"diags": rng.uniform(0.3, 0.7, (2, 3)), "seed": sequence_seed(rng),
                    "x0": rng.uniform(-5.0, 5.0, 3)}
        else:
            spec = {"seed": sequence_seed(rng), "x0": uniform(rng, 0.0, 1.0)}
        out.append((cls, spec))
    return out


def _orbit(s: dict, trace) -> str:
    F = ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["maps"]))
    traj = ic.orbit_trajectory(F, ic.BernoulliSequence(s["p"], s["sigma_seed"]), s["n"], s["x0"])
    check(traj.shape == (s["n"],) and np.all(np.isfinite(traj)), "orbit not finite")
    check(np.all(np.abs(traj) <= abs(s["x0"])), "contractive orbit grew")
    return Digest().add(traj).hex()


def _lipschitz(s: dict, trace) -> str:
    f = _catalog_map(s["f"])
    est = ic.estimate_lipschitz(f, (-10.0, 10.0), 2048)
    sup = float(np.max(np.abs(f.derivative(np.linspace(-10.0, 10.0, 200_001)))))
    check(abs(f.slope_at_zero) * 0.999 <= est <= sup * (1 + 1e-9), f"Lipschitz estimate {est}")
    return Digest().add(est).hex()


def _chaos(cls: str, s: dict):
    if cls == "chaos_scalar":
        return ic.chaos_game(ic.IfsDescriptor(tuple(_catalog_map(m) for m in s["maps"])),
                             CHAOS_ITER, 100, s["seed"], s["x0"])
    if cls == "chaos_diag":
        maps = [DiagonalMap(tuple(r)) for r in s["diags"]]
        return ic.chaos_game(maps, CHAOS_ITER, 100, s["seed"], s["x0"])
    cantor = [ic.AffineMap(1.0 / 3.0, 0.0), ic.AffineMap(1.0 / 3.0, 2.0 / 3.0)]
    return ic.chaos_game(cantor, CHAOS_ITER, 100, s["seed"], s["x0"], allow_affine=True)


def _chaos_request(cls: str):
    def body(s: dict, trace) -> str:
        first = _chaos(cls, s)
        replay = _chaos(cls, s)
        pts = first.points
        check(pts.tobytes() == replay.points.tobytes(), "replay with the same seed differs")
        check(len(pts) == CHAOS_ITER - 100 and np.all(np.isfinite(pts)), "chaos game points")
        if cls == "chaos_cantor":
            gap = (pts > 1.0 / 3.0 + 1e-12) & (pts < 2.0 / 3.0 - 1e-12)
            check(not gap.any() and pts.min() >= -1e-12 and pts.max() <= 1 + 1e-12,
                  "Cantor middle gap is not empty")
        return Digest().add(pts).hex()

    return body


CYCLES = {
    "conjugacy": _conjugacy_cycle,
    "linearize": _linearize_cycle,
    "stability": _stability_cycle,
    "attractor": _attractor_cycle,
}

BODIES = {
    "conjugacy": {"regular": _conjugacy_regular, "edge": _conjugacy_edge},
    "linearize": {"contractive": _koenigs, "expansive": _koenigs, "fate400": _fate400,
                  "fate2e4": _fate2e4, "decay": _decay},
    "stability": {"compare": _compare, "ifs2": _ifs_distance, "ifs3": _ifs_distance,
                  "audit": _audit, "probe": _probe},
    "attractor": {"orbit": _orbit, "lipschitz": _lipschitz,
                  "chaos_scalar": _chaos_request("chaos_scalar"),
                  "chaos_diag": _chaos_request("chaos_diag"),
                  "chaos_cantor": _chaos_request("chaos_cantor")},
}


def make_cycle(workload: str, seed: int) -> list:
    """One cycle of (class, spec) requests; the inputs depend only on the seed."""
    return CYCLES[workload](seeded_rng(seed, workload))
