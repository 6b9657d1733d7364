"""Shared benchmark infrastructure.

Each bench regenerates one paper table/figure: it computes the experiment
once (timed through pytest-benchmark's pedantic single-round mode -- these
are experiments, not microbenchmarks), prints the paper-shaped rows, and
writes them to ``benchmarks/results/<id>.txt`` so the output survives
pytest's capture.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"

# Benchmark scale knobs, overridable from the environment:
#   REPRO_BENCH_SCALE=1.0 REPRO_BENCH_ROUNDS=3 pytest benchmarks/ ...
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.55"))
BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "2"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "45"))


def bench_harness():
    """The harness configuration every model-comparison bench uses."""
    # Deferred import: the standalone bench drivers import this module for
    # run_bench_leg before PYTHONPATH necessarily exposes the package.
    from repro.experiments import HarnessConfig

    return HarnessConfig(
        rounds=BENCH_ROUNDS,
        scale=BENCH_SCALE,
        epochs=BENCH_EPOCHS,
        patience=max(BENCH_EPOCHS // 4, 5),
    )


@functools.lru_cache(maxsize=1)
def motivation_city():
    """One simulated month shared by the motivation benches (Figs. 1-5).

    ``real_world_dataset`` routes through the pipeline artifact cache
    (``O2_PIPELINE_CACHE``), so across bench *processes* the month is
    simulated once and replayed from disk thereafter; the ``lru_cache``
    only deduplicates within a process.
    """
    from repro.city import real_world_dataset

    return real_world_dataset(seed=7, scale=max(BENCH_SCALE, 0.7))


def cached_dataset(kind: str, seed: int = 0, scale: float | None = None):
    """The (dataset, split) a harness round would build, cache-served.

    Every bench that needs a ready-to-train dataset goes through here (and
    so through :func:`repro.data.cache.cached_dataset`) instead of
    hand-rolling ``SiteRecDataset.from_simulation`` -- one artifact on disk
    feeds them all.  ``scale`` defaults to the suite's ``BENCH_SCALE``.
    """
    from repro.data.cache import cached_dataset as _cached

    return _cached(kind, seed, BENCH_SCALE if scale is None else scale)


def emit(experiment_id: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_bench_leg(script, leg: str, args=(), env=None) -> dict:
    """Run one benchmark leg in a fresh interpreter and harvest its JSON.

    The throughput drivers (``bench_train_throughput``, ``bench_memory``,
    ``bench_compile``, ...) compare execution modes that are selected by
    ``O2_*`` environment switches read at import time, so each leg must be
    a brand-new process: the driver re-executes ``script`` with ``--leg
    <name>`` plus ``args``, overlaying ``env`` on the inherited environment
    and pinning ``PYTHONPATH`` to the in-tree package.  The leg prints a
    single JSON object as its final stdout line; that object is returned.
    Any non-zero exit raises with both output streams attached.
    """
    leg_env = dict(os.environ)
    if env:
        leg_env.update(env)
    leg_env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, os.fspath(script), "--leg", leg, *map(str, args)],
        env=leg_env,
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{leg} leg failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


@contextlib.contextmanager
def reference_orders():
    """Run order generation and agent dispatch on the per-order oracles.

    Inside the block ``OrderGenerator.generate`` is
    ``generate_reference`` (a plain record list) and
    ``DispatchSimulator.run`` is ``run_reference``: the reference legs of
    the data-plane benchmarks time and hash these against the fast paths.
    The caller keeps the pipeline cache off (``O2_PIPELINE_CACHE=0``), or
    a cached fast-path log would stand in for the oracle's.
    """
    from repro.city.dispatch import DispatchSimulator
    from repro.city.orders import OrderGenerator

    saved = OrderGenerator.generate, DispatchSimulator.run
    OrderGenerator.generate = OrderGenerator.generate_reference
    DispatchSimulator.run = DispatchSimulator.run_reference
    try:
        yield
    finally:
        OrderGenerator.generate, DispatchSimulator.run = saved
