"""The ``cli`` workload: subprocess runs of all ten ``ifsconj`` subcommands.

Input documents are generated from the seed and written to a work
directory inside the checkout. Most runs produce small reports and are bound
by interpreter start-up and imports; eight in twenty produce large reports
(half a megabyte to over a megabyte) and are bound by report serialization
and the atomic ``--output`` write. Each run is checked for its exit code,
its report fields, and a byte-identical replay of the same command line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from workloads import CheckFailed, Digest, check, seeded_rng, sequence_seed, uniform

# a cycle runs each subcommand with a small report, two of them twice, and
# four with a large one twice; the large runs are spread evenly through it
SMALL = ("verify", "conjugacy", "orbit", "linearize", "classify", "multidim", "distance",
         "audit", "probe", "attractor", "verify", "linearize")
LARGE = ("attractor", "conjugacy", "orbit", "classify") * 2

CSV_HEADERS = {
    "conjugacy": ["x", "h_x", "residual"],
    "verify": ["x", "h_x", "residual"],
    "orbit": ["step", "symbol", "value"],
    "classify": ["n", "n1", "n2", "ratio", "orbit_F", "orbit_G", "bound"],
    "distance": ["x", "value_gap", "derivative_gap"],
}
REPORT_FIELDS = {
    "verify": ("residual_sup", "tolerance", "verdict", "worst_point", "grid_size"),
    "conjugacy": ("k", "m", "orientation", "interval", "residual_sup", "verdict"),
    "orbit": ("n", "x0", "final", "trajectory", "symbols"),
    "linearize": ("slopes", "interval_tags", "hg_case"),
    "classify": ("predicted_fate", "lyapunov_sum", "n1", "n2"),
    "multidim": ("route", "residual", "components"),
    "distance": ("level", "d0", "d1", "argmax_pair", "identical"),
    "audit": ("fixed_points", "all_hyperbolic", "verdict"),
    "probe": ("delta", "trials", "passes", "pass_fraction", "attempts"),
    "attractor": ("iterations", "burn_in", "seed", "count", "points"),
}


def _smooth(rng, lo, hi):
    return {"kind": "smooth", "name": "rational-quadratic", "k": uniform(rng, lo, hi),
            "c": uniform(rng, 0.02, 0.08)}


def _linear(rng, lo, hi):
    return {"kind": "linear", "k": uniform(rng, lo, hi)}


def _doc(rng, command: str, large: bool) -> tuple[dict, list]:
    """Input document and extra flags for one run of a subcommand."""
    if command in ("verify", "conjugacy"):
        doc = {"f": _linear(rng, 0.25, 0.35), "g": _linear(rng, 0.55, 0.65)}
        return doc, (["--grid", "20001", "--format", "csv"] if large else [])
    if command == "orbit":
        doc = {"maps": [_smooth(rng, 0.4, 0.6), _linear(rng, 0.3, 0.5)],
               "sequence": {"type": "bernoulli", "p": uniform(rng, 0.3, 0.7), "seed": sequence_seed(rng)},
               "x0": uniform(rng, 1.0, 5.0), "n": 40_000 if large else 200}
        return doc, (["--format", "csv"] if large else [])
    if command == "linearize":
        return {"maps": [_smooth(rng, 0.4, 0.6), _linear(rng, 0.2, 0.3)]}, []
    if command == "classify":
        doc = {"maps": [_linear(rng, 0.4, 0.6), _linear(rng, 1.8, 2.2)],
               "sequence": {"type": "sparse-density", "special_index": 2,
                            "rule": "perfect-squares"},
               "x0": 1.0, "epsilon": 0.01}
        return doc, (["--n-max", "20000", "--format", "csv"] if large else [])
    if command == "multidim":
        doc = {"dimension": 2,
               "maps": [{"diag": list(rng.uniform(0.2, 0.8, 2))} for _ in range(2)],
               "g_maps": [{"diag": list(rng.uniform(0.2, 0.8, 2))} for _ in range(2)],
               "sequence": {"type": "explicit", "symbols": [int(s) for s in rng.integers(1, 3, 5)]}}
        return doc, []
    if command == "distance":
        doc = {"maps": [_linear(rng, 0.4, 0.6), _smooth(rng, 0.3, 0.5)],
               "g_maps": [_linear(rng, 0.4, 0.6), _linear(rng, 0.2, 0.4)]}
        return doc, (["--grid", "20001", "--format", "csv"] if large else [])
    if command in ("audit", "probe"):
        doc = {"maps": [_linear(rng, 0.4, 0.6), _smooth(rng, 0.3, 0.5)]}
        return doc, (["--trials", "4", "--seed", str(sequence_seed(rng))] if command == "probe" else [])
    # attractor: the affine Cantor system
    doc = {"maps": [{"kind": "affine", "k": 1.0 / 3.0, "b": 0.0},
                    {"kind": "affine", "k": 1.0 / 3.0, "b": 2.0 / 3.0}],
           "iterations": 60_000 if large else 2_000, "burn_in": 100,
           "x0": uniform(rng, 0.0, 1.0), "allow_affine": True}
    return doc, ["--seed", str(sequence_seed(rng))]


def make_cycle(seed: int) -> list:
    """One cycle of (class, spec) runs; spec holds the document and argv."""
    rng = seeded_rng(seed, "cli")
    small, large = iter(SMALL), iter(LARGE)
    n, n_large = len(SMALL) + len(LARGE), len(LARGE)
    order = []
    for i in range(n):
        # Bresenham spacing of the large runs
        if (i + 1) * n_large // n > i * n_large // n:
            order.append(("large", next(large)))
        else:
            order.append(("small", next(small)))
    out = []
    for i, (cls, command) in enumerate(order):
        doc, flags = _doc(rng, command, cls == "large")
        # large conjugacy and orbit tables go through the atomic --output;
        # every other run reports on stdout
        to_file = cls == "large" and command in ("conjugacy", "orbit")
        out.append((cls, {"id": i, "command": command, "doc": doc, "flags": flags,
                          "to_file": to_file}))
    return out


class CliRunner:
    """Runs cycle requests either as subprocesses or in-process via cli.main."""

    def __init__(self, root: str, work: str, in_process: bool = False):
        self.root = root
        self.work = work
        self.in_process = in_process
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.replays: dict[int, str] = {}
        self.report_bytes = 0
        self.main_ms: list[float] = []

    def write_inputs(self, cycle: list) -> None:
        for _cls, spec in cycle:
            with open(self._path(spec, "in.json"), "w") as fh:
                json.dump(spec["doc"], fh, sort_keys=True)

    def _path(self, spec: dict, suffix: str) -> str:
        return os.path.join(self.work, f"run{spec['id']:02d}-{suffix}")

    def argv(self, spec: dict) -> list:
        argv = [spec["command"], "--input", self._path(spec, "in.json"), *spec["flags"]]
        if spec["to_file"]:
            argv += ["--output", self._path(spec, "out")]
        return argv

    def run(self, spec: dict, replay: bool = True) -> str:
        """Run one request and check it; replay=False leaves the replay reference unset."""
        argv = self.argv(spec)
        if self.in_process:
            code, out = self._main(argv)
        else:
            proc = subprocess.run([sys.executable, "-m", "ifsconj.cli", *argv],
                                  capture_output=True, env=self.env, cwd=self.root)
            code, out = proc.returncode, proc.stdout
        check(code == 0, f"{spec['command']} exited {code}")
        if spec["to_file"]:
            check(out == b"", "stdout not empty with --output")
            path = self._path(spec, "out")
            with open(path, "rb") as fh:
                out = fh.read()
            os.unlink(path)
        self.report_bytes += len(out)
        _check_report(spec, out)
        digest = Digest().add(out).hex()
        if replay:
            first = self.replays.setdefault(spec["id"], digest)
            check(first == digest, f"{spec['command']} replay is not byte-identical")
        return digest

    def _main(self, argv: list):
        from ifsconj import cli

        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        self.main_ms.append(1e3 * (time.perf_counter() - t0))
        return code, buf.getvalue().encode()


def _check_report(spec: dict, out: bytes) -> None:
    command = spec["command"]
    if "csv" in spec["flags"]:
        rows = list(csv.reader(io.StringIO(out.decode())))
        check(rows and rows[0] == CSV_HEADERS[command], f"{command} CSV header")
        check(len(rows) > 1000, f"{command} CSV has {len(rows)} rows")
        return
    try:
        env = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"{command} report is not JSON: {exc}") from None
    check(env.get("command") == command and env.get("schema_version") == 1, "report envelope")
    report = env["report"]
    missing = [f for f in REPORT_FIELDS[command] if f not in report]
    check(not missing, f"{command} report lacks {missing}")
    if "verdict" in report:
        check(report["verdict"] in ("pass", "hyperbolic"), f"{command} verdict {report['verdict']}")
    if command == "classify":
        check(report["predicted_fate"] == "converges-to-zero", "classify fate")
    if command == "attractor":
        pts = np.asarray(report["points"], dtype=float)
        gap = (pts > 1.0 / 3.0 + 1e-12) & (pts < 2.0 / 3.0 - 1e-12)
        check(report["count"] == len(pts) and not gap.any(), "Cantor attractor points")
    if command == "probe":
        check(report["passes"] == report["trials"], "probe passes")
