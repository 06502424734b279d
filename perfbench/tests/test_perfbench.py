"""Tests of the benchmark itself: input generation, tracing and metric names.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import pickle
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import engine  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import ifsconj  # noqa: E402
from ifsconj import _kernels, linearize, stability  # noqa: E402

ALL = workloads.LIBRARY_WORKLOADS + ("cli",)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed=3, one_per_class=True):
    """A bench with its inputs generated and no warm-up."""
    b = engine.Bench(workload, seed, str(ROOT), one_per_class=one_per_class)
    b.generate()
    return b


def cycle(workload, seed):
    return bench(workload, seed, one_per_class=False).cycle


@pytest.mark.parametrize("workload", ALL)
def test_same_seed_gives_identical_inputs(workload):
    assert pickle.dumps(cycle(workload, 11)) == pickle.dumps(cycle(workload, 11))


@pytest.mark.parametrize("workload", ALL)
def test_other_seed_gives_other_inputs_same_mix(workload):
    a, b = cycle(workload, 11), cycle(workload, 12)
    assert [cls for cls, _ in a] == [cls for cls, _ in b]
    assert pickle.dumps(a) != pickle.dumps(b)


@pytest.mark.parametrize("workload", workloads.LIBRARY_WORKLOADS)
def test_tracing_leaves_outputs_identical_and_counts_repeat(workload):
    originals = (_kernels.fd_eval, linearize.monotone_inverse_batch,
                 stability.compare_maps, ifsconj.chaos_game)
    b = bench(workload)
    before, _, _ = b._pass(None)
    tracers = [Tracer(), Tracer()]
    traced = []
    for t in tracers:
        with t:
            assert _kernels.fd_eval is not originals[0]
            traced.append(b._pass(t)[0])
    after, _, _ = b._pass(None)
    assert (_kernels.fd_eval, linearize.monotone_inverse_batch,
            stability.compare_maps, ifsconj.chaos_game) == originals
    assert before == traced[0] == traced[1] == after
    assert all(ok for (cls, _), (ok, _) in zip(b.cycle, before) if cls != "edge")
    assert tracers[0].counts == tracers[1].counts
    assert tracers[0].counts  # the workload reached at least one layer


def test_self_time_excludes_children():
    t = Tracer()
    inner = t.span("inner", lambda: sum(range(200_000)))
    outer = t.span("outer", lambda: inner() + inner())
    outer()
    total = {name: 1e3 * (t1 - t0) for _, name, t0, t1, _, _ in t.spans if name == "outer"}
    self_ms = t.self_ms()
    assert 0 <= self_ms["outer"] < total["outer"]
    assert self_ms["inner"] + self_ms["outer"] == pytest.approx(total["outer"], rel=1e-6)


def test_edge_requests_record_known_defects():
    b = bench("conjugacy")
    edge = [(cls, spec) for cls, spec in b.cycle if cls == "edge"]
    ok, reason = engine.execute(workloads.BODIES["conjugacy"]["edge"], edge[0][1])
    # h(inf) and h(nan) escape as untyped errors today; once they give a
    # typed error or a defined value this request passes
    assert ok or not reason.startswith("check")


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct = engine.tail_percentile(samples)
    assert value == 90 and pct == 90.0
    assert sum(s > value for s in samples) == engine.MIN_TAIL_BEYOND
    assert engine.tail_percentile([3, 1, 2]) == (3, 100.0)


@pytest.mark.parametrize("workload", ALL)
def test_every_end_to_end_metric_is_emitted(workload):
    b = engine.Bench(workload, 5, str(ROOT), one_per_class=True)
    b.setup()
    try:
        result = b.measure(trace=False, seconds=0)
    finally:
        b.close()
    names = set(result["metrics"]) | {"setup_s"}  # set-up time is added by run.py
    assert names == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(unit == units[k] for k, (_, unit) in result["metrics"].items())
    assert result["correct"] and result["failed"] == 0


def test_kernel_probes_call_the_public_kernels():
    out = probes.run_kernel_probes(repeats=1)
    assert {m["name"] for m in SPEC["per_layer"] if ".probe_" in m["name"]} == set(out)
    assert all(v > 0 for v in out.values())


def test_every_per_layer_metric_is_emitted(monkeypatch):
    # the probes have their own test; here only their names are needed
    probe_names = [m["name"] for m in SPEC["per_layer"] if ".probe_" in m["name"]]
    monkeypatch.setattr(probes, "run_kernel_probes",
                        lambda repeats=3: dict.fromkeys(probe_names, 1.0))
    want = {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in ("conjugacy", "cli"):
        b = bench(workload)
        if workload == "cli":
            b.setup()
        try:
            result = b.measure(trace=True, seconds=0)
        finally:
            b.close()
        names = set(result["metrics"]) | {"host.calib_ms"}  # added by run.py
        assert names == want, workload
        assert all(unit == units[k] for k, (_, unit) in result["metrics"].items())
        assert result["correct"]


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(ALL)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
