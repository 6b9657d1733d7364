"""Data-plane throughput: reference pipeline vs fast sim + artifact cache.

Three layers of measurement, every leg in a fresh subprocess so kernel
switches, allocator state and in-process memoisation cannot leak between
configurations:

1. *Simulation* -- one real-preset month, the per-order reference oracle
   (``OrderGenerator.generate_reference``, patched in by the leg) vs the
   columnar fast path.  Both legs hash their order log record by record;
   the hashes must match bit-for-bit (the fast path is a reformulation,
   not an approximation).
2. *Table data plane* -- the dataset builds behind a quick-harness
   comparison (one per round) plus the bench suite's repeated requests for
   the shared city (pre-PR, every bench process re-simulated it).  Legs:

   * ``table_ref``  -- the reference oracle, no cache;
   * ``table_cold`` -- fast sim + a fresh cache directory (first build
     simulates, repeats replay from disk);
   * ``table_warm`` -- same cache directory, re-run (everything replays).

3. *Fan-out correctness* -- a small two-cell comparison table run serially
   and through the ``O2_NUM_PROCS`` process pool; the rows must be
   identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline_throughput.py [--quick]

Writes a human-readable table to ``benchmarks/results/pipeline.txt`` and a
machine-readable summary to ``BENCH_pipeline.json`` at the repo root.
Exits non-zero when the order logs diverge, the fan-out table differs from
serial, the cold-cache leg misses its floor (3x in full mode, 1x in
``--quick``), or the warm-cache leg misses its floor (10x full, 2x quick).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

TABLE_ROUNDS = 2  # quick_harness().rounds
SHARED_REQUESTS = 5  # distinct bench processes wanting the same city


# ---------------------------------------------------------------------------
# Subprocess legs: one configuration each, fresh interpreter.
# ---------------------------------------------------------------------------

def run_sim_leg(scale: float) -> dict:
    """Simulate one real-preset month; hash the order log bit-for-bit.

    Both legs hash the record-list packing of the cache module, which
    coerces every field to its declared dtype -- the fast path may hand
    back Python floats where the reference loop kept numpy scalars, and
    those must hash the same when their values are bit-identical.  The
    fast leg's table view is materialised first: the table's own columnar
    packing is a different byte layout of the same records.
    """
    import hashlib

    from repro.city.simulator import real_world_config, simulate
    from repro.data.cache import _orders_to_arrays

    config = real_world_config(seed=7, scale=scale)
    started = time.perf_counter()
    sim = simulate(config)
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256()
    arrays = _orders_to_arrays(list(sim.orders))
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return {
        "seconds": elapsed,
        "orders": sim.num_orders,
        "orders_type": type(sim.orders).__name__,
        "sha256": digest.hexdigest(),
    }


def run_table_leg(scale: float, rounds: int, requests: int) -> dict:
    """The dataset builds behind a harness table + the bench suite's shares.

    ``rounds`` distinct (seed, scale) datasets -- what ``compare_models``
    builds -- then ``requests`` repeated asks for the round-0 dataset,
    standing in for the bench scripts that each want the same city in their
    own process (so an in-process ``lru_cache`` could not have deduplicated
    them; only the on-disk artifact cache can).
    """
    from repro.data.cache import cache_stats
    from repro.experiments.harness import build_dataset

    started = time.perf_counter()
    total_targets = 0
    for r in range(rounds):
        dataset, _ = build_dataset("real", r, scale)
        total_targets += int(dataset.targets.shape[0])
    for _ in range(requests):
        dataset, _ = build_dataset("real", 0, scale)
        total_targets += int(dataset.targets.shape[0])
    elapsed = time.perf_counter() - started

    stats = cache_stats()
    return {
        "seconds": elapsed,
        "builds": rounds + requests,
        "targets": total_targets,
        "cache_entries": int(stats["entries"]),
        "cache_bytes": int(stats["bytes"]),
    }


def run_procs_leg(scale: float) -> dict:
    """Serial vs process-pool harness table; rows must match exactly."""
    from repro import parallel
    from repro.experiments.harness import HarnessConfig, compare_models

    config = HarnessConfig(rounds=2, scale=scale, epochs=3, patience=3)
    kwargs = dict(baselines=("GC-MC",), settings=("adaption",))

    started = time.perf_counter()
    serial = compare_models("real", config, **kwargs)
    mid = time.perf_counter()
    with parallel.use_num_procs(2):
        fanned = compare_models("real", config, **kwargs)
    done = time.perf_counter()

    identical = list(serial.rows) == list(fanned.rows) and all(
        serial.rows[k].series(m).tolist() == fanned.rows[k].series(m).tolist()
        for k in serial.rows
        for m in serial.metrics
    )
    return {
        "serial_s": mid - started,
        "fanned_s": done - mid,
        "procs": 2,
        "cells": 2 * config.rounds,
        "identical": identical,
    }


LEGS = {
    # Simulation legs never touch the cache: they time the generators.
    "sim_ref": {"O2_PIPELINE_CACHE": "0"},
    "sim_fast": {"O2_PIPELINE_CACHE": "0"},
    # The reference data plane: the per-order oracle, nothing cached.
    "table_ref": {"O2_PIPELINE_CACHE": "0"},
    # Cache dir is injected by the driver (fresh for cold, reused for warm).
    "table_cold": {},
    "table_warm": {},
    "procs": {},
}


def spawn_leg(name: str, args: list, cache_dir: str | None = None) -> dict:
    env = dict(LEGS[name])
    if cache_dir is not None:
        env["O2_PIPELINE_CACHE"] = cache_dir
    return common.run_bench_leg(__file__, name, args, env=env)


def run_leg(name: str, args: argparse.Namespace) -> dict:
    # The reference legs run the per-order oracles, in-process.
    generators = (
        common.reference_orders()
        if name.endswith("_ref")
        else contextlib.nullcontext()
    )
    with generators:
        if name.startswith("sim"):
            return run_sim_leg(args.scale)
        if name.startswith("table"):
            return run_table_leg(args.scale, args.rounds, args.requests)
        return run_procs_leg(args.scale)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--leg", choices=sorted(LEGS), help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=TABLE_ROUNDS)
    parser.add_argument("--requests", type=int, default=SHARED_REQUESTS)
    args = parser.parse_args()

    if args.leg:
        print(json.dumps(run_leg(args.leg, args)))
        return 0

    quick = args.quick
    sim_scale = 0.35 if quick else 1.0
    table_scale = args.scale if args.scale is not None else (
        0.35 if quick else 0.55  # quick_harness().scale in full mode
    )
    requests = 3 if quick else SHARED_REQUESTS
    procs_scale = 0.35 if quick else 0.45
    floor_cold = 1.0 if quick else 3.0
    floor_warm = 2.0 if quick else 10.0

    sim = {
        name: spawn_leg(name, ["--scale", str(sim_scale)])
        for name in ("sim_ref", "sim_fast")
    }

    table_args = [
        "--scale", str(table_scale),
        "--rounds", str(TABLE_ROUNDS),
        "--requests", str(requests),
    ]
    cache_dir = tempfile.mkdtemp(prefix=".bench-pipeline-cache-", dir=str(ROOT))
    try:
        table = {"table_ref": spawn_leg("table_ref", table_args)}
        table["table_cold"] = spawn_leg("table_cold", table_args, cache_dir)
        table["table_warm"] = spawn_leg("table_warm", table_args, cache_dir)
        procs = spawn_leg("procs", ["--scale", str(procs_scale)], cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    sim_speedup = sim["sim_ref"]["seconds"] / sim["sim_fast"]["seconds"]
    sim_identical = sim["sim_ref"]["sha256"] == sim["sim_fast"]["sha256"]
    speedup_cold = table["table_ref"]["seconds"] / table["table_cold"]["seconds"]
    speedup_warm = table["table_ref"]["seconds"] / table["table_warm"]["seconds"]
    cold_entries = table["table_cold"]["cache_entries"]
    warm_entries = table["table_warm"]["cache_entries"]

    lines = [
        "Pipeline throughput: reference data plane vs fast sim + artifact cache",
        f"mode={'quick' if quick else 'full'}  sim_scale={sim_scale}  "
        f"table_scale={table_scale}  rounds={TABLE_ROUNDS}  "
        f"shared_requests={requests}",
        "",
        f"{'leg':<12} {'seconds':>9}   detail",
        f"{'sim_ref':<12} {sim['sim_ref']['seconds']:>9.2f}   "
        f"{sim['sim_ref']['orders']} orders (per-order reference loop)",
        f"{'sim_fast':<12} {sim['sim_fast']['seconds']:>9.2f}   "
        f"{sim['sim_fast']['orders']} orders, {sim_speedup:.2f}x, "
        f"order log {'identical' if sim_identical else 'DIVERGES'}",
        f"{'table_ref':<12} {table['table_ref']['seconds']:>9.2f}   "
        f"{table['table_ref']['builds']} dataset builds, no cache",
        f"{'table_cold':<12} {table['table_cold']['seconds']:>9.2f}   "
        f"fresh cache: {cold_entries} entries written, "
        f"{speedup_cold:.2f}x (floor {floor_cold:.1f}x)",
        f"{'table_warm':<12} {table['table_warm']['seconds']:>9.2f}   "
        f"warm cache: {warm_entries} entries reused, "
        f"{speedup_warm:.2f}x (floor {floor_warm:.1f}x)",
        "",
        f"fan-out: {procs['cells']} cells, serial {procs['serial_s']:.2f}s vs "
        f"{procs['procs']} procs {procs['fanned_s']:.2f}s, table "
        f"{'identical' if procs['identical'] else 'DIVERGES'}",
    ]
    text = "\n".join(lines)
    print(text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "pipeline.txt").write_text(text + "\n")
    payload = {
        "mode": "quick" if quick else "full",
        "sim_scale": sim_scale,
        "table_scale": table_scale,
        "rounds": TABLE_ROUNDS,
        "shared_requests": requests,
        "floors": {"cold": floor_cold, "warm": floor_warm},
        "sim": {**sim, "speedup": sim_speedup, "identical": sim_identical},
        "table": table,
        "speedup": {"cold": speedup_cold, "warm": speedup_warm},
        "procs": procs,
    }
    (ROOT / "BENCH_pipeline.json").write_text(json.dumps(payload, indent=2) + "\n")

    generators = (sim["sim_ref"]["orders_type"], sim["sim_fast"]["orders_type"])
    if generators != ("list", "OrderRecordSeq"):
        print(
            f"FAIL: sim legs ran {generators}, expected the oracle's list "
            f"and the fast path's OrderRecordSeq"
        )
        return 1
    if not sim_identical:
        print("FAIL: fast-sim order log diverges from the reference")
        return 1
    if not procs["identical"]:
        print("FAIL: process-pool table diverges from the serial run")
        return 1
    if cold_entries == 0:
        print("FAIL: cold leg wrote no cache entries (cache never engaged)")
        return 1
    if warm_entries != cold_entries:
        print(
            f"FAIL: warm leg changed the cache ({cold_entries} -> "
            f"{warm_entries} entries); expected pure hits"
        )
        return 1
    if speedup_cold < floor_cold:
        print(f"FAIL: cold speedup {speedup_cold:.2f}x below {floor_cold:.1f}x")
        return 1
    if speedup_warm < floor_warm:
        print(f"FAIL: warm speedup {speedup_warm:.2f}x below {floor_warm:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
