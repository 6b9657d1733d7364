"""Shared plumbing for the end-to-end benchmark: paths, child-process
environment, /proc readers, the host block and small statistics.

This module imports nothing from ``repro`` and no third-party package, so
``run.py`` can use it before the program has been located or prepared.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Inputs fixed by the workloads (see README.md).
PAPER_PRESET = ("real", 0, 1.0)  # cached_dataset(kind, seed, scale)
METRO_SCALE = 0.7
METRO_CITY_SEED = 7  # metropolis_dataset(seed=...) == cached_dataset("metropolis", 0, ...)
MODEL_INIT_SEED = 20220501  # train-paper and the metropolis checkpoint / arena A
ARENA_B_INIT_SEED = 20220502
SERVE_K = 10

RESULT_PREFIX = "RESULT "


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a benchmark child process.

    Every ``O2_*`` switch is dropped so the program runs on its own
    defaults; temp files (the C-kernel build cache, multiprocessing
    arenas) land inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("O2_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env.update(extra)
    return env


def emit(payload: dict) -> None:
    """A child's result: the last stdout line, prefixed for the parent."""
    sys.stdout.write(RESULT_PREFIX + json.dumps(payload) + "\n")
    sys.stdout.flush()


def parse_result(stdout: str) -> Optional[dict]:
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    return None


# ----------------------------------------------------------------------
# /proc readers (Linux).  Each returns None where /proc is unavailable.
def cpu_times() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


def steal_share(before, after) -> Optional[float]:
    """Share of all CPU time stolen by the hypervisor between two reads."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def proc_cpu_s(pid: int) -> Optional[float]:
    """utime + stime of ``pid`` in seconds."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid="self") -> Optional[float]:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def host_block() -> dict:
    """Who ran this: CPUs, Python, numpy/BLAS, thread count, C kernels.

    Imports numpy and repro lazily; call it from a child process.
    """
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    from repro import parallel
    from repro.tensor import cnative

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads": parallel.num_threads(),
        "c_kernels": cnative.available(),
    }


def host_probe(seconds: float = 0.2) -> float:
    """Single-threaded interpreter speed: loop iterations per second.

    Every workload here is CPU-bound, so a host that runs this slower than
    usual (a busy neighbour, not always visible as steal) runs the
    workloads slower too.
    """
    done, total = 0, 0
    started = time.perf_counter()
    while True:
        for i in range(2000):
            total += i * i % 7
        done += 2000
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return done / elapsed


# ----------------------------------------------------------------------
# Statistics
def per_class_median(samples: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Median of each class's own values: ``{class: median}``."""
    groups: Dict[str, List[float]] = {}
    for cls, value in samples:
        groups.setdefault(cls, []).append(value)
    return {cls: statistics.median(vals) for cls, vals in groups.items()}


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
