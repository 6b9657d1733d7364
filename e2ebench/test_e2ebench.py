"""Tests of the benchmark's own logic (not of the program it measures).

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import importlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _answer(regions, scores) -> bytes:
    return json.dumps(
        [{"region": r, "score": s, "store_type": 0} for r, s in zip(regions, scores)]
    ).encode()


def _fake_result(workload: str, trace: int, failed_check: bool = False) -> dict:
    names = run.LAYER_METRICS[workload] if trace else run.E2E_METRICS
    return {
        "attempted": 10,
        "failed": 1 if failed_check else 0,
        "checks": [{"check": "output", "ok": not failed_check, "detail": ""}],
        "metrics": {name: 1.5 + i for i, name in enumerate(names)},
    }


def test_wrong_answer_and_refused_request_are_counted():
    expected = ([5, 7], np.array([0.9, 0.8]))
    records = [
        loadgen.Record(0, "citywide", 0.0, 0.0, 0.001, 200, _answer([5, 7], [0.9, 0.8])),
        loadgen.Record(1, "citywide", 0.0, 0.0, 0.001, 200, _answer([7, 5], [0.8, 0.9])),
        loadgen.Record(2, "shortlist", 0.0, 0.0, 0.001, None, b""),
        loadgen.Record(3, "shortlist", 0.0, 0.0, 0.001, 500, b'{"error": "x"}'),
        loadgen.Record(4, "shortlist", 0.0, 0.0, 0.001, 200, _answer([5, 7], [0.9, 0.7])),
    ]
    ok = loadgen.check_records(records, {r.index: [expected] for r in records})
    assert ok == [True, False, False, False, False]
    latencies = loadgen.latencies_ms(records, ok)
    assert len(latencies) == len(records)  # nothing dropped
    assert latencies[0][1] == pytest.approx(1.0)
    assert all(ms == float("inf") for _, ms in latencies[1:])


def test_either_arena_answer_is_accepted_within_tolerance():
    a = ([1, 2], np.array([0.5, 0.25]))
    b = ([3, 4], np.array([0.6, 0.1]))
    nudged = _answer([3, 4], [0.6 * (1 + 1e-15), 0.1])
    record = loadgen.Record(0, "citywide", 0.0, 0.0, 0.0, 200, nudged)
    assert loadgen.check_records([record], {0: [a, b]}) == [True]


def test_per_class_medians_are_taken_per_class():
    samples = [("citywide", 2.0), ("shortlist", 9.0), ("citywide", 3.0),
               ("shortlist", 7.0), ("citywide", 1.0), ("shortlist", 8.0)]
    assert common.per_class_median(samples) == {"citywide": 2.0, "shortlist": 8.0}
    # A failed request is infinitely late: it moves its own class only.
    assert common.per_class_median(samples + [("shortlist", float("inf"))] * 2) == {
        "citywide": 2.0, "shortlist": 9.0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.LAYER_METRICS))
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    """Every workload prints every end-to-end metric of the manifest
    (untraced) or every per-layer one (traced); a per-layer metric of a
    layer the workload does not call reads 0."""
    units = run.declared_units()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    line = run.summarize(workload, trace, _fake_result(workload, trace), units)
    assert line["correct"] is True
    assert list(line["metrics"]) == declared
    measured = run.LAYER_METRICS[workload] if trace else run.E2E_METRICS
    for name, value in line["metrics"].items():
        assert value["unit"] == units[name]
        assert (value["value"] > 0) == (name in measured)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [m["name"] for m in spec["per_layer"]] == run.ALL_LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(run.LAYER_METRICS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_missing_metric_is_not_correct():
    result = _fake_result("serve-metropolis", 0)
    del result["metrics"]["secondary_ms"]
    line = run.summarize("serve-metropolis", 0, result, run.declared_units())
    assert line["correct"] is False


def test_an_end_to_end_metric_that_reads_zero_is_not_correct():
    result = _fake_result("refresh-metropolis", 0)
    result["metrics"]["primary_ms"] = 0.0
    line = run.summarize("refresh-metropolis", 0, result, run.declared_units())
    assert line["correct"] is False


def test_a_per_layer_metric_of_another_workload_is_not_correct():
    result = _fake_result("train-paper", 1)
    result["metrics"]["city.simulate_s"] = 8.0
    line = run.summarize("train-paper", 1, result, run.declared_units())
    assert line["correct"] is False


@pytest.mark.parametrize("failed_check", [False, True])
def test_run_whose_output_check_fails_exits_nonzero(failed_check):
    def fake_runner(workload, seed, seconds, trace, deadline):
        return _fake_result(workload, trace, failed_check)

    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "train-paper", "--seed", "3", "--seconds", "1", "--trace", "0"],
            runner=fake_runner,
        )
    last = json.loads(out.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is (not failed_check)
    assert code == (1 if failed_check else 0)


def test_a_failed_untraced_half_of_a_traced_run_is_counted(monkeypatch):
    def fake_spawn(workload, seed, seconds, trace, setup_only, deadline):
        ok = bool(trace)  # only the untraced run fails its output check
        return {
            "attempted": 10,
            "failed": 0 if ok else 3,
            "checks": [{"check": "output", "ok": ok, "detail": ""}],
            "basis_s": 2.0 if trace else 1.0,
            "layers": {n: 1.5 for n in run.LAYER_METRICS[workload]
                       if n != "trace.overhead_pct"},
        }

    monkeypatch.setattr(run, "spawn", fake_spawn)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", "train-paper", "--seed", "3", "--seconds", "1", "--trace", "1"],
            runner=lambda *args: run.run_workload(*args),
        )
    last = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (20, 3)
    assert last["metrics"]["trace.overhead_pct"]["value"] == pytest.approx(100.0)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "train-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_schedule_is_seeded_and_keeps_the_class_mix():
    candidates = np.arange(100, 400)
    first = loadgen.make_schedule(5, 3.0, candidates, 14, 10)
    again = loadgen.make_schedule(5, 3.0, candidates, 14, 10)
    other = loadgen.make_schedule(6, 3.0, candidates, 14, 10)
    assert [r.path for r in first] == [r.path for r in again]
    assert [r.path for r in first] != [r.path for r in other]
    assert len(first) == 300
    assert sum(r.cls == loadgen.SHORTLIST_CLASS for r in first) == 100
    assert all(f"k=10" in r.path for r in first)


def test_expected_answer_applies_exclusions_and_windows():
    candidates = np.array([10, 11, 12, 13, 14])
    sheet = np.array([[0.1, 0.9, 0.5, 0.9, 0.3]])
    citywide = loadgen.Request(0, 0.0, loadgen.CITYWIDE, 0, np.array([3]))
    regions, scores = loadgen.expected_answer(sheet, candidates, citywide, 2)
    assert regions == [11, 12] and list(scores) == [0.9, 0.5]
    shortlist = loadgen.Request(1, 0.0, loadgen.SHORTLIST_CLASS, 0, np.arange(2, 5))
    # Ties break by ascending candidate position, as the service's top-k does.
    regions, _ = loadgen.expected_answer(sheet, candidates, shortlist, 3)
    assert regions == [13, 12, 14]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.add("outer", 0.0, 10.0, -1)
    tracer.add("inner", 1.0, 4.0, 0)
    tracer.add("inner", 5.0, 6.0, 0)
    tracer.add("leaf", 1.5, 2.0, 1)
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(6.0)
    assert summary["inner"]["count"] == 2
    assert summary["inner"]["self_s"] == pytest.approx(3.5)
    assert tracer.durations("leaf", tracer.within("outer")) == [0.5]


def test_a_call_nested_in_a_same_named_span_counts_once():
    tracer = Tracer()
    tracer.add("fit", 0.0, 10.0, -1)
    tracer.add("optim.adam.step", 1.0, 3.0, 0)  # Adam.step ...
    tracer.add("optim.adam.step", 1.5, 2.5, 1)  # ... and its in-place update
    tracer.add("optim.adam.step", 4.0, 5.0, 0)  # a compiled step's update
    assert tracer.durations("optim.adam.step") == [2.0, 1.0]


def test_every_traced_call_exists_in_the_program():
    import workloads

    sys.path.insert(0, str(common.SRC))
    try:
        for target, _ in workloads.TRAIN_WRAPS + workloads.REFRESH_WRAPS + workloads.SERVE_WRAPS:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), target
    finally:
        sys.path.remove(str(common.SRC))
