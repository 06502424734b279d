#!/usr/bin/env python3
"""Benchmark of the ifsconj package: one workload per invocation.

    python3 perfbench/run.py --workload conjugacy --seed 1 --seconds 15 --trace 0

Workloads: conjugacy, linearize, stability, attractor, cli (see
perfbench/README.md). The command runs from the root of a checkout and
imports the package from its ``src/`` directory.

This process only orchestrates. Without tracing it starts the workload
process twice with ``--setup-only`` to sample set-up time, then once more to
measure. Each
workload process is fresh: a closed loop with one client and no think time.
With ``--trace 0`` it runs whole cycles of requests until ``--seconds`` have
passed and reports the end-to-end metrics. With ``--trace 1`` it runs one
cycle untraced, the same cycle again with the layer tracer installed, checks
that both produced identical outputs, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed request is a
regular request that leaked a non-``IfsConjError`` exception or a
``RuntimeWarning``, or failed its output check. Edge requests probe inputs
with known defects; their outcome is reported in ``ok_frac`` and in
``conjugacy.edge.*`` but not counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("conjugacy", "linearize", "stability", "attractor", "cli")
SETUP_SAMPLES = 3  # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170  # the workload process is killed after this long


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# orchestrating process
# ---------------------------------------------------------------------------

def _spawn(args, setup_only: bool):
    """Start one workload process; return (set-up seconds, result dict or None)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    watchdog = threading.Timer(DEADLINE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return setup, result


def orchestrate(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ifsconj", "__init__.py")):
        print(f"no ifsconj package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # set-up time is an end-to-end metric, so only untraced runs sample it
    samples = 1 if args.trace else SETUP_SAMPLES
    setups = [_spawn(args, setup_only=True)[0] for _ in range(samples - 1)]
    setup, result = _spawn(args, setup_only=False)
    setups.append(setup)
    print("host " + json.dumps(result.pop("host"), sort_keys=True))
    for line in result.pop("notes"):
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# workload process
# ---------------------------------------------------------------------------

def _import_package():
    sys.path.insert(0, SRC)
    import ifsconj

    if not os.path.abspath(ifsconj.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ifsconj imported from {ifsconj.__file__}, not from {SRC}")


def child(args) -> int:
    _import_package()
    import engine
    import probes

    bench = engine.Bench(args.workload, args.seed, ROOT)
    bench.setup()
    print("ready", flush=True)
    if args.setup_only:
        bench.close()
        return 0
    calib = [probes.calibrate()]
    try:
        result = bench.measure(bool(args.trace), args.seconds)
    finally:
        bench.close()
    calib.append(probes.calibrate())
    metrics = result["metrics"]
    if args.trace:
        metrics["host.calib_ms"] = (statistics.median(calib), "ms")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["host"] = {**probes.host_record(), "calib_ms": calib}
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
