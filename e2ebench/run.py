"""End-to-end benchmark of the O2-SiteRec pipeline.

    python3 e2ebench/run.py --workload {train-paper,refresh-metropolis,serve-metropolis}
                            --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout (the program is found at
``src/`` next to this directory).  The first run in a checkout builds every
input with the checked-out code (``prepare.py``, a few minutes).  Each
workload runs in fresh processes (``workloads.py``); this process only
spawns them, times set-up and prints the result.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``HOST {...}``, the host and contention record of the run.  The exit code
is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import common

# Set-ups per untraced run: one before and one after the measured process
# (whose own set-up is the third), so that one busy spell of the host does
# not decide them; setup_s is their median.  Each sample is a fresh process
# (2-3 s); more would push a comparison of seventy runs past an hour when
# the host is slow (README.md).
SETUP_SAMPLES = 3
PREPARE_TIMEOUT_S = 840
RUN_BUDGET_S = 170  # everything after the prepare step

# Every workload measures every end-to-end metric; what "primary" and
# "secondary" time is differs by workload (README.md):
#   train-paper         fit wall time per training step | one evaluate_model
#   refresh-metropolis  one refresh (ingest + publish)  | its publish stage
#   serve-metropolis    citywide p50                    | shortlist p50
E2E_METRICS = ["setup_s", "primary_ms", "secondary_ms", "peak_rss_mb"]
# The per-layer metrics each workload measures.  A traced run prints every
# one of them; a metric of a layer the workload never calls reads 0.
LAYER_METRICS = {
    "train-paper": [
        "repro.import_s", "data.cache.load_s", "core.model.init_s", "graphs.build_s",
        "tensor.plan.step_ms", "tensor.plan.captures", "tensor.plan.replays",
        "tensor.plan.eager_fallbacks", "core.model.loss_ms", "tensor.backward_ms",
        "optim.adam.step_ms", "core.model.predict_ms", "tensor.pool.hit_rate",
        "tensor.pool.peak_live_mb", "metrics.evaluate_ms", "metrics.ndcg3",
        "metrics.rmse", "trace.overhead_pct",
    ],
    "refresh-metropolis": [
        "repro.import_s", "city.simulate_s", "city.orders_per_s", "data.dataset_s",
        "data.split_s", "core.model.init_s", "graphs.build_s", "core.shard.propagate_s",
        "core.shard.bands", "serve.index.build_s", "serve.index.partitions",
        "serve.arena.save_s", "serve.arena.mb", "serve.arena.open_ms",
        "refresh.unaccounted_s", "trace.overhead_pct",
    ],
    "serve-metropolis": [
        "repro.import_s", "serve.arena.open_ms", "serve.service.total_ms",
        "serve.index.retrieve_ms", "serve.cache.hit_rate", "serve.batching.queue_ms",
        "serve.batching.score_ms", "serve.batching.requests_per_batch",
        "serve.protocol.overhead_ms", "serve.workers.cpu_ms_per_request",
        "serve.workers.reloads", "serve.tail_p99_ms", "loadgen.late_p99_ms",
        "trace.overhead_pct",
    ],
}
ALL_LAYER_METRICS = list(dict.fromkeys(n for ns in LAYER_METRICS.values() for n in ns))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_units() -> Dict[str, str]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# Prepare step
def source_fingerprint() -> str:
    """Digest of the program's sources and the prepare step: inputs
    prepared by one version of the code are never reused by another."""
    digest = hashlib.sha256()
    sources = [p for p in sorted(common.SRC.rglob("*")) if p.suffix in (".py", ".c", ".h")]
    sources += [common.BENCH_DIR / "common.py", common.BENCH_DIR / "prepare.py"]
    for path in sources:
        digest.update(str(path.relative_to(common.ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_prepared() -> None:
    work = common.WORK
    work.mkdir(parents=True, exist_ok=True)
    stamp = work / "prepared.json"
    fingerprint = source_fingerprint()
    with open(work / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if json.loads(stamp.read_text()).get("fingerprint") == fingerprint:
                return
        except (OSError, ValueError):
            pass
        for child in work.iterdir():
            if child.name != ".lock":
                shutil.rmtree(child) if child.is_dir() else child.unlink()
        (work / "tmp").mkdir()
        started = time.monotonic()
        print("e2ebench: preparing inputs with the checked-out code", file=sys.stderr)
        done = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "prepare.py")],
            cwd=str(common.BENCH_DIR),
            env=common.child_env(O2_PIPELINE_CACHE=str(work / "pipeline")),
            stdout=subprocess.DEVNULL,
            timeout=PREPARE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchError(f"prepare step failed with exit code {done.returncode}")
        stamp.write_text(json.dumps(
            {"fingerprint": fingerprint, "seconds": time.monotonic() - started}
        ))


# ----------------------------------------------------------------------
# Workload processes
def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Run one workload process; return its result plus ``setup_s``."""
    cmd = [sys.executable, str(common.BENCH_DIR / "workloads.py"), workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = common.child_env(O2_PIPELINE_CACHE=(
        "0" if workload == "refresh-metropolis" else str(common.WORK / "pipeline")
    ))
    spawned = time.monotonic()
    # A process group of its own, so the serving worker it forks goes
    # down with it whatever happens.
    child = subprocess.Popen(cmd, cwd=str(common.BENCH_DIR), env=env,
                             stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process timed out") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    result = common.parse_result(stdout)
    if child.returncode != 0 or result is None:
        raise BenchError(f"{workload} process failed with exit code {child.returncode}")
    result["setup_s"] = result["ready"] - spawned
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Untraced: one measured run and the median of SETUP_SAMPLES set-ups.
    Traced: one untraced and one traced run, for the overhead; the output
    checks and operations of both count."""
    if not trace:
        def setup_only() -> float:
            return spawn(workload, seed, seconds, 0, True, deadline)["setup_s"]

        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        result = spawn(workload, seed, seconds, 0, False, deadline)
        setups.append(result["setup_s"])
        setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
        result["metrics"] = {"setup_s": statistics.median(setups), **result["e2e"]}
        result["setup_samples"] = setups
        return result
    untraced = spawn(workload, seed, seconds, 0, False, deadline)
    result = spawn(workload, seed, seconds, 1, False, deadline)
    for key in ("attempted", "failed", "checks"):
        result[key] = untraced[key] + result[key]
    overhead = result["basis_s"] - untraced["basis_s"]
    result["metrics"] = {
        **result["layers"],
        "trace.overhead_pct": 100.0 * overhead / untraced["basis_s"],
    }
    result["overhead"] = {"traced_s": result["basis_s"], "untraced_s": untraced["basis_s"],
                          "overhead_s": overhead}
    return result


def summarize(workload: str, trace: int, result: dict, units: Dict[str, str]) -> dict:
    """The final result line from a workload result: every end-to-end
    metric (untraced) or every per-layer metric (traced), in its unit."""
    if trace:
        wanted, measured = ALL_LAYER_METRICS, LAYER_METRICS[workload]
    else:
        wanted = measured = E2E_METRICS
    got = result["metrics"]
    # An end-to-end figure is a time or a size: 0 means it was not measured.
    floor = -math.inf if trace else 0.0
    problems = [n for n in measured if not isinstance(got.get(n), (int, float))
                or not math.isfinite(got[n]) or got[n] <= floor]
    problems += [n for n in got if n not in measured]
    for name in problems:
        print(f"e2ebench: metric {name} missing, not finite, not positive or undeclared",
              file=sys.stderr)
    failed = result["failed"]
    correct = failed == 0 and not problems and all(c["ok"] for c in result["checks"])
    values = {n: got.get(n) if n in measured else 0.0 for n in wanted}
    metrics = {
        n: {"value": v, "unit": units[n]}
        for n, v in values.items()
        if n in units and isinstance(v, (int, float)) and math.isfinite(v)
    }
    return {"correct": correct, "attempted": max(int(result["attempted"]), 1),
            "failed": int(failed), "metrics": metrics}


def main(argv: Optional[List[str]] = None,
         runner: Callable[..., dict] = run_workload) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYER_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program at {common.SRC}/repro; run inside a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        units = declared_units()
        if runner is run_workload:
            ensure_prepared()
        steal0 = common.cpu_times()
        probe0 = common.host_probe()
        deadline = time.monotonic() + RUN_BUDGET_S
        result = runner(args.workload, args.seed, args.seconds, args.trace, deadline)
        probes = [probe0, common.host_probe()]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    host = dict(result.get("host", {}))
    host["steal_share_run"] = common.steal_share(steal0, common.cpu_times())
    host["steal_share_phase"] = result.get("steal")
    host["probe_iters_per_s"] = probes  # before and after the run
    for key in ("setup_samples", "overhead", "info", "checks", "trace"):
        if key in result:
            host[key] = result[key]
    print("HOST " + json.dumps(host))
    line = summarize(args.workload, args.trace, result, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
