"""Set-up, the timed loop and the traced run of one workload process."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time
import warnings

from ifsconj.errors import IfsConjError

import clireq
import probes
import workloads
from tracing import Tracer, layer_metrics


def execute(body, spec, trace=None) -> tuple[bool, str]:
    """Apply the failure rule to one request; return (ok, digest or reason).

    A typed IfsConjError is handled and its class name becomes the digest.
    Any other exception, a failed output check or a RuntimeWarning that
    leaks out of the library fails the request.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = body(spec, trace)
        except IfsConjError as exc:
            result = "handled " + type(exc).__name__
        except workloads.CheckFailed as exc:
            return False, f"check: {exc}"
        except Exception as exc:  # the failure rule counts any other escape
            return False, f"{type(exc).__name__}: {exc}"
    leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if leaked:
        return False, f"RuntimeWarning: {leaked[0].message}"
    return True, result


MIN_TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# whole cycles a timed run makes at least, so that its tail falls inside one
# class on a slow host too: 12 expansive Koenigs requests, 12 probes, 6 scalar
# and 6 diagonal chaos games, 16 large cli reports
MIN_CYCLES = {"linearize": 3, "stability": 12, "attractor": 6, "cli": 2}
E2E_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
             "peak_rss_mb": "MB", "ok_frac": "frac"}


def tail_percentile(samples: list) -> tuple[float, float]:
    """Latency at the highest percentile with MIN_TAIL_BEYOND samples above it.

    Returns (value, percentile). With no more samples than that, the maximum
    is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("residual_max"):
        return "1"
    return "count"


class Bench:
    """One workload: its generated cycle, warm-up, timed loop and traced run.

    one_per_class keeps only the first request of each class in the cycle
    and drops the minimum cycle count, which is how the tests run every
    class quickly.
    """

    def __init__(self, workload: str, seed: int, root: str, one_per_class: bool = False):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.one_per_class = one_per_class
        self.work = None
        self.cli = None

    def generate(self) -> dict:
        """Generate the cycle; return the first request of each class."""
        if self.workload == "cli":
            self.cycle = clireq.make_cycle(self.seed)
        else:
            self.cycle = workloads.make_cycle(self.workload, self.seed)
        firsts = {}
        for cls, spec in self.cycle:
            firsts.setdefault(cls, (cls, spec))
        if self.one_per_class:
            self.cycle = list(firsts.values())
        return firsts

    def setup(self) -> None:
        """Generate the inputs and run one untimed request of each class."""
        firsts = self.generate()
        if self.workload == "cli":
            self.work = tempfile.mkdtemp(prefix="work-", dir=_work_root(self.root))
            self.cli = clireq.CliRunner(self.root, self.work)
            self.cli.write_inputs(self.cycle)
        for cls, spec in firsts.values():
            # warm-up runs do not set the reference bytes of the replay check
            self._run(cls, spec, None, replay=False)

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def _run(self, cls, spec, trace, runner=None, replay=True):
        if self.workload == "cli":
            runner = runner or self.cli
            return execute(lambda sp, _trace: runner.run(sp, replay), spec, trace)
        return execute(workloads.BODIES[self.workload][cls], spec, trace)

    def measure(self, trace: bool, seconds: float) -> dict:
        """Result of one run: correct, attempted, failed, metrics and notes.

        Metrics map name -> (value, unit); set-up time is added by the caller.
        """
        if trace:
            out = self.traced_run()
            metrics = {k: (float(v), layer_unit(k)) for k, v in out["layers"].items()}
            notes = []
        else:
            out = self.timed_run(seconds)
            lat = out["latencies"]
            tail, pct = tail_percentile(lat)
            who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
            values = {
                "jobs_per_s": len(lat) / out["elapsed"],
                "job_p50_ms": 1e3 * statistics.median(lat),
                "job_tail_ms": 1e3 * tail,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                "ok_frac": out["ok"] / len(lat),
            }
            metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
            notes = [f"job_tail_ms is p{pct:.1f} of {len(lat)} samples ({len(lat)} requests "
                     f"in {out['elapsed']:.2f} s, {out['cycles']:g} cycles of {len(self.cycle)})"]
        notes += [f"failed: {msg}" for msg in out["failures"][:5]]
        return {"correct": out["correct"], "attempted": out["attempted"],
                "failed": out["failed"], "metrics": metrics, "notes": notes}

    # -- timed run (tracing off) ---------------------------------------------

    def timed_run(self, seconds: float) -> dict:
        # the clock is checked after whole cycles, so every run has the same
        # request mix
        block = len(self.cycle)
        least = block if self.one_per_class else MIN_CYCLES.get(self.workload, 1) * block
        latencies, failures = [], []
        ok = regular_failed = 0
        i = 0
        t_start = time.perf_counter()
        while True:
            cls, spec = self.cycle[i % len(self.cycle)]
            t0 = time.perf_counter()
            passed, info = self._run(cls, spec, None)
            latencies.append(time.perf_counter() - t0)
            i += 1
            ok += passed
            if not passed:
                regular_failed += cls != "edge"
                failures.append(f"{cls} request {i}: {info}")
            if i % block == 0 and i >= least and time.perf_counter() - t_start >= seconds:
                break
        elapsed = time.perf_counter() - t_start
        return {
            "latencies": latencies, "elapsed": elapsed, "ok": ok,
            "attempted": i, "failed": regular_failed, "correct": regular_failed == 0,
            "failures": failures, "cycles": i / len(self.cycle),
        }

    # -- traced run --------------------------------------------------------------

    def _pass(self, trace, runner=None) -> tuple[list, float, list]:
        """One cycle; returns (per-request (ok, digest), seconds, failures)."""
        results, failures = [], []
        t0 = time.perf_counter()
        for rid, (cls, spec) in enumerate(self.cycle):
            if trace is not None:
                trace.request_id = rid
            passed, info = self._run(cls, spec, trace, runner=runner)
            results.append((passed, info))
            if trace is not None and cls == "edge":
                trace.add("conjugacy.edge.calls")
                trace.add("conjugacy.edge.failed", int(not passed))
            if not passed:
                failures.append(f"{cls} request {rid}: {info}")
        return results, time.perf_counter() - t0, failures

    def traced_run(self) -> dict:
        """One cycle untraced, the same cycle traced; outputs must match."""
        runner, failures = None, []
        if self.workload == "cli":
            # reference bytes from subprocess runs; the traced passes run
            # cli.main in-process and must reproduce them byte for byte
            _, _, failures = self._pass(None)
            runner = clireq.CliRunner(self.root, self.work, in_process=True)
            runner.replays = self.cli.replays
        untraced, t_untraced, failed_untraced = self._pass(None, runner)
        tracer = Tracer()
        with tracer:
            if runner is not None:
                runner.main_ms.clear()
                runner.report_bytes = 0
            traced, t_traced, failed_traced = self._pass(tracer, runner)
        failures += failed_untraced + failed_traced
        same = sum(a == b for a, b in zip(untraced, traced))
        if same != len(traced):
            failures.append(f"traced outputs differ from untraced on {len(traced) - same} requests")
        layers = layer_metrics(tracer)
        layers["cli.main_ms"] = statistics.median(runner.main_ms) if runner else 0.0
        layers["cli.report_bytes"] = runner.report_bytes if runner else 0
        layers.update(probes.cli_startup(self.root))
        layers.update(probes.run_kernel_probes())
        layers["trace.overhead_frac"] = t_traced / t_untraced - 1.0
        regular_failed = sum(1 for (cls, _), (ok, _) in zip(self.cycle, traced)
                             if cls != "edge" and not ok)
        return {
            "layers": layers, "attempted": len(traced), "failed": regular_failed,
            "correct": regular_failed == 0 and same == len(traced), "failures": failures,
        }


def _work_root(root: str) -> str:
    path = os.path.join(root, "perfbench", "_work")
    os.makedirs(path, exist_ok=True)
    return path
