"""Opt-in span tracing of the ifsconj layers, installed from outside the package.

The tracer wraps public functions of each layer and rebinds every name under
which a loaded ``ifsconj`` module refers to them (``ifsconj._kernels.fd_eval``,
``ifsconj.linearize.monotone_inverse_batch``, ``ifsconj.cli.orbit_trajectory``,
...), so callers that imported a name by value are traced too. ``remove()``
puts every original object back. No file of the package changes.

Each span records its name, start, end, parent span and request id. Spans
stay in memory; ``layer_metrics()`` turns them into per-layer self times and
joins the counters recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

# per-layer metric names, in the order BENCHMARK.json lists them
COUNTED = {
    "kernels.fd_eval": ("calls", "points", "exp_sum", "self_ms"),
    "rootfind.inverse_exact": ("calls", "targets", "self_ms", "valid_frac"),
    "rootfind.inverse_tol": ("calls", "targets", "self_ms", "valid_frac"),
    "kernels.orbit_chain": ("calls", "steps", "self_ms"),
    "ifs.orbit_trajectory": ("calls", "steps", "self_ms"),
    "kernels.orbit_chain_diag": ("calls", "steps", "self_ms"),
    "attractor.chaos_game": ("calls", "iterations", "self_ms"),
    "kernels.pairwise_quotient_max": ("calls", "pairs", "self_ms"),
    "catalog.estimate_lipschitz": ("calls", "samples", "self_ms"),
    "conjugacy.build": ("calls", "self_ms"),
    "conjugacy.verify": ("calls", "self_ms", "residual_max"),
    "conjugacy.weak": ("calls", "self_ms"),
    "conjugacy.h_eval": ("calls", "self_ms"),
    "conjugacy.edge": ("calls", "fail_frac"),
    "ifs.effective_slope": ("calls", "self_ms"),
    "multidim.componentwise": ("calls", "points", "self_ms"),
    "multidim.similarity": ("calls", "self_ms"),
    "linearize.koenigs_contractive": ("calls", "self_ms"),
    "linearize.koenigs_expansive": ("calls", "self_ms"),
    "linearize.koenigs": ("residual_max",),
    "linearize.fate": ("calls", "self_ms"),
    "linearize.decay": ("calls", "self_ms", "violations"),
    "stability.compare_maps": ("calls", "self_ms", "excluded_points"),
    "stability.ifs_distance": ("calls", "self_ms"),
    "stability.audit": ("calls", "self_ms"),
    "stability.probe": ("calls", "self_ms", "accept_ratio", "pass_frac"),
}

# derived ratios: metric -> (numerator counter, denominator counter)
RATIOS = {
    "rootfind.inverse_exact.valid_frac": ("rootfind.inverse_exact.valid", "rootfind.inverse_exact.targets"),
    "rootfind.inverse_tol.valid_frac": ("rootfind.inverse_tol.valid", "rootfind.inverse_tol.targets"),
    "stability.probe.accept_ratio": ("stability.probe.trials", "stability.probe.attempts"),
    "stability.probe.pass_frac": ("stability.probe.passes", "stability.probe.trials"),
    "conjugacy.edge.fail_frac": ("conjugacy.edge.failed", "conjugacy.edge.calls"),
}
# counters kept as a running maximum instead of a sum
MAXIMA = ("conjugacy.verify.residual_max", "linearize.koenigs.residual_max")


def _orbit_exponent_sum(x, kc, a) -> int:
    """Sum of |orbit exponent| over the finite nonzero inputs of fd_eval.

    The exponent of |x| is the power of kc that moves it into [kc*a, a];
    the closed form below is computed from the inputs, not from the kernel.
    """
    v = np.abs(np.asarray(x, dtype=float))
    v = v[np.isfinite(v) & (v > 0)]
    if v.size == 0:
        return 0
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.floor(np.log(v / a) / math.log(1.0 / kc))
    return int(np.abs(j).sum())


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self):
        # (span id, name, start, end, parent span id or -1, request id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[str, float] = {}
        self.request_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        if key in MAXIMA:
            self.counts[key] = max(self.counts.get(key, -math.inf), float(value))
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, count=None):
        """Wrap fn so each call records a span and, via count, its counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, t0, t1, parent, self.request_id))
            self.add(name + ".calls")
            if count is not None:
                count(self, args, kwargs, out)
                # counting is tracer work: a child span keeps it out of the
                # parent's self time
                self.spans.append((-1, "trace.count", t1, time.perf_counter(), parent,
                                   self.request_id))
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ifsconj" or mod_name.startswith("ifsconj.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        import ifsconj.cli  # noqa: F401  (loads every layer module)
        from ifsconj import (
            _kernels,
            attractor,
            catalog,
            config,
            conjugacy,
            ifs,
            linearize,
            multidim,
            rootfind,
            stability,
        )

        def wrap(name, fn, count=None):
            self._rebind(fn, self.span(name, fn, count))

        def fd_count(t, a, kw, out):
            x, kc, _mc, anchor = a[:4]
            t.add("kernels.fd_eval.points", int(np.size(x)))
            t.add("kernels.fd_eval.exp_sum", _orbit_exponent_sum(x, kc, anchor))

        wrap("kernels.fd_eval", _kernels.fd_eval, fd_count)
        wrap("kernels.orbit_chain", _kernels.orbit_chain,
             lambda t, a, kw, out: t.add("kernels.orbit_chain.steps", int(np.size(a[4]))))
        wrap("kernels.orbit_chain_diag", _kernels.orbit_chain_diag,
             lambda t, a, kw, out: t.add("kernels.orbit_chain_diag.steps", int(np.size(a[1]))))

        def pairs_count(t, a, kw, out):
            n = int(np.size(a[0]))
            t.add("kernels.pairwise_quotient_max.pairs", n * (n - 1) // 2)

        wrap("kernels.pairwise_quotient_max", _kernels.pairwise_quotient_max, pairs_count)

        # rootfind: one function, two modes reported as two layers
        original_inverse = rootfind.monotone_inverse_batch
        exact = self.span("rootfind.inverse_exact", original_inverse, _inverse_count("inverse_exact"))
        tol = self.span("rootfind.inverse_tol", original_inverse, _inverse_count("inverse_tol"))

        @functools.wraps(original_inverse)
        def inverse_by_mode(*args, **kwargs):
            if kwargs.get("machine_precision", args[6] if len(args) > 6 else False):
                return exact(*args, **kwargs)
            return tol(*args, **kwargs)

        self._rebind(original_inverse, inverse_by_mode)

        wrap("ifs.orbit_trajectory", ifs.orbit_trajectory,
             lambda t, a, kw, out: t.add("ifs.orbit_trajectory.steps", int(a[2])))
        wrap("ifs.effective_slope", ifs.effective_slope)
        wrap("attractor.chaos_game", attractor.chaos_game,
             lambda t, a, kw, out: t.add("attractor.chaos_game.iterations", int(a[1])))
        wrap("catalog.estimate_lipschitz", catalog.estimate_lipschitz,
             lambda t, a, kw, out: t.add("catalog.estimate_lipschitz.samples", int(a[2])))

        wrap("conjugacy.build", conjugacy.build_linear_conjugacy)
        wrap("conjugacy.verify", conjugacy.verify_conjugacy,
             lambda t, a, kw, out: t.add("conjugacy.verify.residual_max", out.residual_sup))
        wrap("conjugacy.weak", conjugacy.weak_conjugacy_linear)
        fd_class = conjugacy.FundamentalDomainConjugacy
        self._patch_method(fd_class, "_eval", self.span("conjugacy.h_eval", fd_class._eval))

        def cw_points(t, a, kw, out):
            if isinstance(out, float):  # componentwise_residual: grid_per_axis ** m
                grid = a[5] if len(a) > 5 else kw.get("grid_per_axis", 33)
                dim = len(a[0][0].diag)
                t.add("multidim.componentwise.points", int(grid) ** dim)

        wrap("multidim.componentwise", multidim.componentwise_conjugacy, cw_points)
        wrap("multidim.componentwise", multidim.componentwise_residual, cw_points)
        wrap("multidim.similarity", multidim.similarity_conjugacy)

        original_koenigs = linearize.koenigs_conjugacy
        contractive = self.span("linearize.koenigs_contractive", original_koenigs)
        expansive = self.span("linearize.koenigs_expansive", original_koenigs)

        @functools.wraps(original_koenigs)
        def koenigs_by_route(f, *args, **kwargs):
            route = expansive if abs(f.slope_at_zero) > 1.0 else contractive
            return route(f, *args, **kwargs)

        self._rebind(original_koenigs, koenigs_by_route)
        wrap("linearize.fate", linearize.classify_sequence_fate)
        wrap("linearize.decay", linearize.decay_bound_check,
             lambda t, a, kw, out: t.add("linearize.decay.violations", int(not out.holds)))

        wrap("stability.compare_maps", stability.compare_maps,
             lambda t, a, kw, out: t.add("stability.compare_maps.excluded_points",
                                         out.inverse_points_excluded))
        wrap("stability.ifs_distance", stability.ifs_distance)
        wrap("stability.audit", stability.hyperbolicity_audit)

        def probe_count(t, a, kw, out):
            t.add("stability.probe.trials", out.trials)
            t.add("stability.probe.attempts", out.attempts)
            t.add("stability.probe.passes", out.passes)

        wrap("stability.probe", stability.perturbation_probe, probe_count)

        for name in ("load_json", "check_keys", "number_field", "int_field", "int_list_field",
                     "parse_perturbation", "parse_map", "parse_maps", "parse_sequence",
                     "parse_domain", "parse_diagonal_maps", "parse_matrix", "domain_radius"):
            wrap("config.parse", getattr(config, name))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reduction -----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_time: dict[int, float] = {}
        for _id, _name, t0, t1, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for span_id, name, t0, t1, _parent, _req in self.spans:
            own = (t1 - t0) - child_time.get(span_id, 0.0)
            out[name] = out.get(name, 0.0) + 1e3 * own
        return out


def _inverse_count(layer: str):
    def count(t, a, kw, out):
        _xs, valid = out
        t.add(f"rootfind.{layer}.targets", int(np.size(valid)))
        t.add(f"rootfind.{layer}.valid", int(np.count_nonzero(valid)))

    return count


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every library-layer metric, zero for layers the run did not touch."""
    self_ms = tracer.self_ms()
    out: dict[str, float] = {}
    for layer, fields in COUNTED.items():
        for field in fields:
            key = f"{layer}.{field}"
            if field == "self_ms":
                out[key] = self_ms.get(layer, 0.0)
            elif key in RATIOS:
                num, den = RATIOS[key]
                d = tracer.counts.get(den, 0)
                out[key] = tracer.counts.get(num, 0) / d if d else 0.0
            else:
                out[key] = tracer.counts.get(key, 0)
    out["config.parse_ms"] = self_ms.get("config.parse", 0.0)
    return out
