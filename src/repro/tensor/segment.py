"""Segment-kernel fast path: precomputed sort plans for scatter reductions.

``np.add.at`` / ``np.maximum.at`` (the reference implementation of the
segment ops in :mod:`repro.tensor.ops`) dispatch one scalar inner loop per
indexed element, which makes them 10-100x slower than the vectorised
``ufunc.reduceat`` reductions.  The same reduction can be computed by

1. sorting the rows by segment id (a permutation that depends only on the
   ``segment_ids`` array, not on the data),
2. reducing each contiguous run with ``np.add.reduceat`` /
   ``np.maximum.reduceat``,
3. scattering the per-run results into the occupied segment slots.

:class:`SegmentPlan` precomputes step 1 and the run boundaries of step 2
for a fixed ``segment_ids`` array.  Graph edge-index arrays are immutable
and reused for every layer, period and epoch, so plans are cached in a
small LRU keyed by *array identity* (the cache holds a strong reference to
the ids array, which keeps ``id()`` stable for the lifetime of the entry).

Within one segment a stable sort preserves the original row order, and
``reduceat`` accumulates runs left to right exactly like ``ufunc.at`` does,
so the fast path is numerically equivalent to the reference kernels (tested
to 1e-12; bit-for-bit in practice).

The module-level switch :func:`set_fast_kernels` (default on) lets
benchmarks and tests pin the fast path against the pre-plan reference
kernels.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from . import pool as _pool

__all__ = [
    "SegmentPlan",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "invalidate_plans_for",
    "fast_kernels_enabled",
    "set_fast_kernels",
    "use_fast_kernels",
]


class SegmentPlan:
    """Precomputed sort permutation + run boundaries for one ids array.

    Attributes
    ----------
    perm:
        Stable argsort of ``segment_ids`` (``None`` when already sorted --
        most graph edge lists are built target-major, so the gather is
        skipped entirely).
    starts:
        Start offset of each contiguous run in the sorted order (the
        ``indices`` argument of ``ufunc.reduceat``).
    occupied:
        The segment id of each run -- segments with no rows simply have no
        run and keep the fill value in the output.
    run_of_row:
        For each sorted row, the index of its run (used to broadcast
        per-run values back to rows without a second sort).
    """

    __slots__ = (
        "segment_ids",
        "num_segments",
        "num_rows",
        "perm",
        "_inv_perm",
        "starts",
        "occupied",
        "run_of_row",
        "counts",
    )

    def __init__(self, segment_ids: np.ndarray, num_segments: int) -> None:
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"segment_ids must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise ValueError(
                f"segment ids must lie in [0, {num_segments}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        self.segment_ids = ids
        self.num_segments = int(num_segments)
        self.num_rows = ids.shape[0]
        self._inv_perm: Optional[np.ndarray] = None

        if self.num_rows == 0:
            self.perm = None
            self.starts = np.zeros(0, dtype=np.int64)
            self.occupied = np.zeros(0, dtype=np.int64)
            self.run_of_row = np.zeros(0, dtype=np.int64)
            self.counts = np.zeros(num_segments, dtype=np.int64)
            return

        if np.all(ids[1:] >= ids[:-1]):
            self.perm = None  # already sorted: reduce in place
            sorted_ids = ids
        else:
            self.perm = np.argsort(ids, kind="stable")
            sorted_ids = ids[self.perm]
        boundary = np.empty(self.num_rows, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundary[1:])
        self.starts = np.flatnonzero(boundary)
        self.occupied = sorted_ids[self.starts]
        self.run_of_row = np.cumsum(boundary) - 1
        self.counts = np.bincount(ids, minlength=num_segments)

    # ------------------------------------------------------------------
    # Sorted-space primitives (let callers amortise one permutation over
    # several reductions, e.g. the max + sum of a segment softmax).
    # ------------------------------------------------------------------
    def sort(self, values: np.ndarray) -> np.ndarray:
        """Rows of ``values`` permuted into segment-sorted order."""
        if self.perm is None:
            return values
        return _pool.take_rows(values, self.perm, tag="plan-sort")

    def unsort(self, sorted_values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`sort`."""
        if self.perm is None:
            return sorted_values
        if self._inv_perm is None:
            self._inv_perm = np.argsort(self.perm, kind="stable")
        return _pool.take_rows(sorted_values, self._inv_perm, tag="plan-unsort")

    def sum_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Per-run sums of already-sorted rows, shape ``(num_runs, ...)``."""
        if self.num_rows == 0:
            return np.zeros((0,) + sorted_values.shape[1:], dtype=np.float64)
        shape = (len(self.starts),) + sorted_values.shape[1:]
        return np.add.reduceat(
            sorted_values,
            self.starts,
            axis=0,
            out=_pool.out_buffer(shape, sorted_values.dtype, tag="plan-reduce"),
        )

    def max_sorted(self, sorted_values: np.ndarray) -> np.ndarray:
        """Per-run maxima of already-sorted rows."""
        if self.num_rows == 0:
            return np.zeros((0,) + sorted_values.shape[1:], dtype=np.float64)
        shape = (len(self.starts),) + sorted_values.shape[1:]
        return np.maximum.reduceat(
            sorted_values,
            self.starts,
            axis=0,
            out=_pool.out_buffer(shape, sorted_values.dtype, tag="plan-reduce"),
        )

    def spread_runs(self, per_run: np.ndarray) -> np.ndarray:
        """Broadcast per-run values back onto sorted rows."""
        return _pool.take_rows(per_run, self.run_of_row, tag="plan-spread")

    # ------------------------------------------------------------------
    # Segment-space reductions (the drop-in ``ufunc.at`` replacements).
    # ------------------------------------------------------------------
    def sum(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """``np.add.at``-equivalent scatter-add, shape ``(num_segments, ...)``.

        ``out`` (zeroed by the caller, or overwritten here) lets band-sliced
        consumers (the sharded training backward) reduce straight into a row
        window of a full-table gradient buffer instead of allocating a
        band-sized temporary per call.  Values are byte-identical either
        way: the scatter writes each occupied segment's run-sum exactly
        once.
        """
        shape = (self.num_segments,) + values.shape[1:]
        if out is None:
            out = _pool.zeros(shape, tag="segment-sum")
        else:
            if out.shape != shape:
                raise ValueError(f"out shape {out.shape} != {shape}")
            out.fill(0.0)
        if self.num_rows:
            out[self.occupied] = self.sum_sorted(self.sort(values))
        return out

    def max(self, values: np.ndarray, fill: float = -np.inf) -> np.ndarray:
        """``np.maximum.at``-equivalent scatter-max (``fill`` for empties)."""
        shape = (self.num_segments,) + values.shape[1:]
        out = _pool.empty(shape, tag="segment-max")
        out.fill(fill)
        if self.num_rows:
            out[self.occupied] = self.max_sorted(self.sort(values))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentPlan(rows={self.num_rows}, segments={self.num_segments}, "
            f"runs={len(self.starts)}, presorted={self.perm is None})"
        )


# ----------------------------------------------------------------------
# Plan cache: LRU keyed by (id(ids), num_segments).  Entries keep a strong
# reference to the ids array, so a cached id() cannot be recycled; after
# eviction a recycled id simply misses.  Callers must treat segment-id
# arrays as immutable (graph edge indices never change in place).
# ----------------------------------------------------------------------
_PLAN_CACHE_SIZE = 256
# key -> (ids array, plan): the stored array reference pins id(ids) for the
# lifetime of the entry and lets lookups verify the identity match.
_plan_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
_plan_lock = threading.Lock()
_plan_hits = 0
_plan_misses = 0


def get_plan(segment_ids: np.ndarray, num_segments: int) -> SegmentPlan:
    """Fetch (or build and cache) the :class:`SegmentPlan` for an ids array."""
    global _plan_hits, _plan_misses
    ids = np.asarray(segment_ids)
    key = (id(ids), int(num_segments))
    with _plan_lock:
        entry = _plan_cache.get(key)
        if entry is not None and entry[0] is ids:
            _plan_cache.move_to_end(key)
            _plan_hits += 1
            return entry[1]
    plan = SegmentPlan(ids, num_segments)
    with _plan_lock:
        _plan_misses += 1
        _plan_cache[key] = (ids, plan)
        _plan_cache.move_to_end(key)
        while len(_plan_cache) > _PLAN_CACHE_SIZE:
            _plan_cache.popitem(last=False)
    return plan


def plan_cache_info() -> dict:
    """Cache statistics (size/hits/misses) for tests and diagnostics."""
    with _plan_lock:
        return {
            "size": len(_plan_cache),
            "maxsize": _PLAN_CACHE_SIZE,
            "hits": _plan_hits,
            "misses": _plan_misses,
        }


def clear_plan_cache() -> None:
    global _plan_hits, _plan_misses
    with _plan_lock:
        _plan_cache.clear()
        _plan_hits = 0
        _plan_misses = 0


def invalidate_plans_for(array: np.ndarray) -> int:
    """Drop every cached plan built over ``array`` (matched by identity).

    The cache's immutability contract has one sanctioned exception: the
    compiled-step bind hooks refresh batch-derived index arrays *in
    place* at replay (see :mod:`repro.tensor.plan`).  They call this
    first, so backward closures rebuild plans over the new contents —
    exactly what eager execution does for each fresh batch array.
    """
    dead = 0
    with _plan_lock:
        for key in [k for k, e in _plan_cache.items() if e[0] is array]:
            del _plan_cache[key]
            dead += 1
    return dead


# ----------------------------------------------------------------------
# Fast-path switch.
# ----------------------------------------------------------------------
_fast_enabled = True


def fast_kernels_enabled() -> bool:
    """Whether segment ops (and dependent model fast paths) use plans."""
    return _fast_enabled


def set_fast_kernels(enabled: bool) -> bool:
    """Toggle the fast path; returns the previous setting."""
    global _fast_enabled
    previous = _fast_enabled
    _fast_enabled = bool(enabled)
    return previous


class use_fast_kernels:
    """Context manager pinning the fast-path switch (for tests/benchmarks)."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._previous: Optional[bool] = None

    def __enter__(self) -> "use_fast_kernels":
        self._previous = set_fast_kernels(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_fast_kernels(self._previous)
