"""Allocation profiler for the tensor memory plane (``O2_MEM_PROFILE``).

When enabled, every buffer request routed through :mod:`repro.tensor.pool`
(pooled or not) is tallied per op tag, so a training run can report where
its allocation traffic goes: bytes and counts per op, pool hit/miss rates,
buffers still outstanding, and the process peak RSS.

The profiler is off by default (``O2_MEM_PROFILE=1`` or
:func:`set_mem_profile` to enable) and costs one dict update per recorded
allocation when on, a single flag check when off.  It profiles both the
pooled and the reference allocation paths, so the two legs of
``benchmarks/bench_memory.py`` produce comparable tables.

Usage::

    from repro.tensor import memprof
    memprof.set_mem_profile(True)
    ...  # run training
    print(memprof.format_report())
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from .. import runtime as _runtime

__all__ = [
    "enabled",
    "set_mem_profile",
    "use_mem_profile",
    "record_alloc",
    "reset",
    "report",
    "format_report",
    "current_rss_bytes",
    "peak_rss_bytes",
]

_enabled = _runtime.env_flag("O2_MEM_PROFILE", False)

_lock = threading.Lock()
# tag -> [count, bytes]; mutated under _lock (forward ops may run threaded).
_allocs: Dict[str, list] = {}


def enabled() -> bool:
    """Whether allocation recording is active."""
    return _enabled


def set_mem_profile(value: bool) -> bool:
    """Toggle the profiler; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


class use_mem_profile:
    """Context manager pinning the profiler switch (for tests/benchmarks)."""

    def __init__(self, value: bool) -> None:
        self._value = value
        self._previous: Optional[bool] = None

    def __enter__(self) -> "use_mem_profile":
        self._previous = set_mem_profile(self._value)
        return self

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_mem_profile(self._previous)


def record_alloc(tag: str, nbytes: int) -> None:
    """Tally one buffer request of ``nbytes`` under ``tag`` (if enabled)."""
    if not _enabled:
        return
    with _lock:
        entry = _allocs.get(tag)
        if entry is None:
            _allocs[tag] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes


def reset() -> None:
    """Drop all recorded allocation tallies."""
    with _lock:
        _allocs.clear()


# ----------------------------------------------------------------------
# RSS probes (Linux: /proc for current, getrusage high-water for peak).
# ----------------------------------------------------------------------

def current_rss_bytes() -> int:
    """Resident set size of this process right now (0 if unavailable)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


def peak_rss_bytes() -> int:
    """High-water resident set size of this process (0 if unavailable)."""
    try:
        import resource

        # Linux reports ru_maxrss in KiB (macOS in bytes; close enough for
        # the Linux-only benchmarks that consume this).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return 0


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------

def report() -> dict:
    """Snapshot: per-op allocation tallies, pool statistics, RSS."""
    from . import pool as _pool  # local import: pool imports memprof

    with _lock:
        allocs = {
            tag: {"count": count, "bytes": nbytes}
            for tag, (count, nbytes) in sorted(_allocs.items())
        }
    total_bytes = sum(v["bytes"] for v in allocs.values())
    total_count = sum(v["count"] for v in allocs.values())
    from . import plan as _plan  # local import: plan imports pool

    snap = {
        "enabled": _enabled,
        "allocs": allocs,
        "total_alloc_bytes": total_bytes,
        "total_alloc_count": total_count,
        "pool": _pool.global_pool().stats(),
        "pool_enabled": _pool.buffer_pool_enabled(),
        "plan": _plan.plan_stats(),
        "current_rss_bytes": current_rss_bytes(),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    try:  # core is optional from the tensor plane's point of view
        from ..core import shard as _shard

        snap["shard_train"] = _shard.shard_train_stats()
        snap["shard_gate_reason"] = _shard.shard_gate_reason()
        snap["shard_train_gate_reason"] = _shard.shard_train_gate_reason()
    except ImportError:  # pragma: no cover - trimmed installs
        pass
    return snap


def format_report(snapshot: Optional[dict] = None) -> str:
    """Human-readable rendering of :func:`report` (top ops by bytes)."""
    snap = snapshot or report()
    pool = snap["pool"]
    lines = [
        "memory plane report",
        f"  pool: enabled={snap['pool_enabled']} hits={pool['hits']} "
        f"misses={pool['misses']} hit_rate={pool['hit_rate']:.3f} "
        f"bypassed={pool['bypassed']} evicted={pool['evicted']}",
        f"  buffers: outstanding={pool['outstanding']} "
        f"idle={pool['idle_bytes'] / 1e6:.1f} MB",
        f"  rss: current={snap['current_rss_bytes'] / 1e6:.1f} MB "
        f"peak={snap['peak_rss_bytes'] / 1e6:.1f} MB",
    ]
    plan = snap.get("plan")
    if plan is not None and (
        plan["captures"]
        or plan["eager_fallbacks"]
        or plan.get("shard_fallbacks")
    ):
        lines.insert(
            2,
            f"  plan: captures={plan['captures']} replays={plan['replays']} "
            f"eager_fallbacks={plan['eager_fallbacks']} "
            f"shard_fallbacks={plan.get('shard_fallbacks', 0)} "
            f"evictions={plan['guard_evictions']} "
            f"pinned={plan['pinned_bytes'] / 1e6:.1f} MB",
        )
    st = snap.get("shard_train")
    if st is not None and (st.get("steps") or st.get("evals")):
        lines.append(
            f"  shard_train: steps={st['steps']} evals={st['evals']} "
            f"bands={st['bands']} "
            f"nodes={st['nodes']} halo={st['halo_bytes'] / 1e6:.1f} MB "
            f"({st['halo_rows']} rows) "
            f"exchange={st['exchange_bytes'] / 1e6:.1f} MB "
            f"fanout_tasks={st['fanout_tasks']} "
            f"worker_peak_rss={st['worker_peak_rss_mb']:.1f} MB"
        )
        lines.append(
            f"  shard gates: eval={snap.get('shard_gate_reason', '?')!r} "
            f"train={snap.get('shard_train_gate_reason', '?')!r}"
        )
    ranked = sorted(
        snap["allocs"].items(), key=lambda kv: kv[1]["bytes"], reverse=True
    )
    if ranked:
        lines.append(
            f"  per-op buffer requests "
            f"({snap['total_alloc_count']} total, "
            f"{snap['total_alloc_bytes'] / 1e6:.1f} MB):"
        )
        for tag, entry in ranked[:20]:
            lines.append(
                f"    {tag:<24} {entry['count']:>9}  "
                f"{entry['bytes'] / 1e6:>10.1f} MB"
            )
    return "\n".join(lines)
