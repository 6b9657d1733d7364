"""Pooled autograd buffers: size-bucketed, dtype-aware free lists.

Training on the numpy autograd engine allocates a fresh array for nearly
every forward op, gradient product and accumulation.  At scale the epoch is
allocator- and bandwidth-bound: each multi-megabyte temporary costs a
malloc fit (or an mmap plus kernel page-zeroing on first touch) and evicts
warm cache lines.  This module keeps retired buffers on per-size free
lists so the same hot arrays are recycled step after step -- the numpy
analogue of a caching GPU allocator.

Design
------
* **Buckets.**  Free blocks are raw byte buffers keyed by capacity.
  :meth:`BufferPool.borrow` takes the best-fitting idle block: exact
  capacity when the same shape cycles (the common case step-over-step in
  a training loop, where every gradient has the shape of its op's
  output), otherwise the smallest idle block within ``_FIT_SLACK``x of
  the request, viewed through ``np.frombuffer(..., count=...)``.
  Cross-capacity fitting is what keeps the footprint near the maximum
  *live* bytes rather than the sum of size classes: the tape's edge and
  gradient buffers differ in size across relations and periods, and with
  exact-size buckets each class would pin its own block even though the
  classes are live at different points of the step -- precisely the
  cross-size reuse glibc's free lists provide on the reference path.
* **Storage.**  Blocks are flat ndarrays from numpy's own allocator, so
  pooled memory lives in the same malloc arena as every other array --
  contiguous, hugepage-friendly, and uninitialised on miss -- rather than
  in scattered per-block mappings.
* **Lifetimes.**  Each borrow wraps its block's ``memoryview`` in a fresh
  ``np.frombuffer`` array and hands out a view of that.  Because the
  wrapper's base is a non-ndarray, numpy's view-base collapsing stops *at
  the wrapper*: every view derived from the borrowed array -- reshapes,
  slices, column views escaping into autograd closures -- keeps the
  wrapper alive.  A weakref callback on the wrapper therefore fires
  exactly when the last view (not merely the first) dies, and only then
  returns the block to its bucket.
  Ownership follows ordinary CPython reference counting: a buffer can
  never be recycled while any tensor, view or closure can still reach it,
  and dropping the autograd tape (see ``Tensor.backward(free_graph=True)``)
  releases its buffers immediately, with no explicit bookkeeping at the
  call sites.
* **Thresholds.**  Requests below ``_MIN_BYTES`` (4 KiB) bypass the
  pool -- for small arrays ``np.empty`` is cheaper than the bookkeeping.
  Idle (free-listed) memory is capped at ``_MAX_IDLE_BYTES`` (512 MB);
  recycled buffers beyond the cap are dropped.  Blocks whose size class
  has fallen out of use (e.g. after a batch-size change) are trimmed
  generationally: any block idle for more than ``_TRIM_AGE`` borrows
  (4096) is released on the next sweep, so a workload shift does not
  leave a dead reservoir pinned.  All three are module constants; a
  :class:`BufferPool` built by hand can override each one.
  Misses additionally *reclaim before growing*: when no block of the
  requested size is idle, the pool frees stale idle blocks (oldest first,
  sparing anything recycled within the last few hundred borrows) to cover
  the new allocation, so a phase change -- minibatch steps giving way to a
  full-batch pass -- recycles the old phase's reservoir into the new
  tape's storage instead of holding both, and peak footprint tracks the
  maximum *live* bytes rather than the sum over phases.

The module-level switch (env ``O2_BUFFER_POOL``, default on) gates every
caller: with the pool disabled, :func:`out_buffer` returns ``None`` so op
code falls through to numpy's own allocation (``out=None``), restoring the
reference allocation path bit for bit and byte for byte.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, insort
from typing import Dict, List, Optional

import numpy as np

from .. import runtime as _runtime
from . import memprof as _memprof

__all__ = [
    "BufferPool",
    "global_pool",
    "buffer_pool_enabled",
    "set_buffer_pool",
    "use_buffer_pool",
    "empty",
    "zeros",
    "out_buffer",
    "take_rows",
]


_MIN_BYTES = 4096  # smaller requests bypass the pool
_MAX_IDLE_BYTES = 512 * (1 << 20)  # cap on free-listed bytes
_TRIM_AGE = 4096  # borrows a block may sit idle before a sweep drops it
_TRIM_EVERY = 256  # recycles between trim sweeps
_RECLAIM_GUARD = 2048  # borrows a block must sit idle before reclaim-on-miss:
# larger than one training step's borrow span, so the cycling working set
# (retired late in backward, re-borrowed mid-next-forward) is never evicted.
_FIT_SLACK = 4  # a block may serve requests down to 1/_FIT_SLACK of its
# capacity; best-fit keeps the typical per-block waste far below that bound.
# Swept on the batch-128 training leg: 2 leaves ~13 MB of near-miss sizes
# unshared, while unbounded fitting inflates peak live capacity ~30 MB by
# parking small borrows in huge blocks; 4 sits at the footprint minimum.
_F64 = np.dtype(np.float64)


class BufferPool:
    """Free lists of raw byte blocks, bucketed by capacity, best-fit."""

    def __init__(
        self,
        max_idle_bytes: int = _MAX_IDLE_BYTES,
        min_bytes: int = _MIN_BYTES,
        trim_age: int = _TRIM_AGE,
    ) -> None:
        self._lock = threading.RLock()  # reentrant: weakref callbacks can
        # fire inside a locked region when a cyclic GC pass collects a view.
        # capacity bytes -> list of (flat uint8 storage, tick when recycled).
        self._buckets: Dict[int, List[tuple]] = {}
        self._caps: List[int] = []  # sorted keys of _buckets, for best-fit
        # id(wrapper) -> (weakref-to-wrapper, storage block).
        # Holds the only strong reference to the weakref object, so popping
        # an entry also disarms its callback.
        self._live: Dict[int, tuple] = {}
        self.max_idle_bytes = int(max_idle_bytes)
        self.min_bytes = int(min_bytes)
        self.trim_age = int(trim_age)
        self.idle_bytes = 0
        self.live_bytes = 0  # capacity of currently borrowed blocks
        self.peak_live_bytes = 0
        self.hits = 0
        self.fit_hits = 0  # subset of hits served by a larger capacity
        self.misses = 0
        self.bypassed = 0
        self.recycled = 0
        self.evicted = 0
        self._tick = 0
        self._trim_countdown = _TRIM_EVERY

    # ------------------------------------------------------------------
    # Borrow / release
    # ------------------------------------------------------------------
    def borrow(self, shape, dtype=np.float64) -> np.ndarray:
        """A writable array of ``shape``; contents are uninitialised.

        The array is a view of a pooled storage block and returns to the
        free list automatically when the last reference to it *or any view
        derived from it* dies (or earlier via :meth:`release`).  Requests
        below ``min_bytes`` fall through to a plain ``np.empty``.
        """
        dt = _F64 if dtype is np.float64 or dtype is _F64 else np.dtype(dtype)
        if type(shape) is not tuple:
            shape = (shape,) if isinstance(shape, int) else tuple(shape)
        count = 1
        for n in shape:
            count *= int(n)
        nbytes = count * dt.itemsize
        if nbytes < self.min_bytes:
            self.bypassed += 1
            return np.empty(shape, dtype=dt)

        with self._lock:
            self._tick += 1
            storage = None
            caps = self._caps
            i = bisect_left(caps, nbytes)
            if i < len(caps) and caps[i] <= nbytes * _FIT_SLACK:
                # Best fit: the smallest idle block that can hold the
                # request, exact capacity included.
                cap = caps[i]
                stack = self._buckets[cap]
                storage = stack.pop()[0]
                if not stack:
                    del self._buckets[cap]
                    caps.pop(i)
                self.hits += 1
                if cap != nbytes:
                    self.fit_hits += 1
                self.idle_bytes -= cap
            else:
                self.misses += 1
                # Reclaim-before-grow: a miss means the working set has
                # shifted (new phase, new batch shape).  Free stale idle
                # blocks to cover the new allocation before asking the OS
                # for more, so the pool's footprint tracks max live bytes
                # instead of accumulating one reservoir per phase.
                if self.idle_bytes:
                    self._reclaim_locked(nbytes)
        if storage is None:
            storage = np.empty(nbytes, dtype=np.uint8)

        # The wrapper is the lifetime sentinel: its base (a memoryview of
        # the storage array) is not an ndarray, so numpy's base collapsing
        # makes every view derived from ``view`` point at ``wrapper`` -- the
        # weakref below fires only when the last of them dies.
        wrapper = np.frombuffer(storage.data, dtype=dt, count=count)
        view = wrapper.reshape(shape)
        idw = id(wrapper)

        def _on_death(_ref, self=self, idw=idw, storage=storage):
            self._finalize(idw, storage)

        with self._lock:
            self._live[idw] = (weakref.ref(wrapper, _on_death), storage)
            self.live_bytes += storage.nbytes
            if self.live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = self.live_bytes
        return view

    def _finalize(self, idw: int, storage: np.ndarray) -> None:
        with self._lock:
            if self._live.pop(idw, None) is not None:
                self._recycle_locked(storage)

    def _recycle_locked(self, storage: np.ndarray) -> None:
        self.recycled += 1
        cap = storage.nbytes
        self.live_bytes -= cap
        if self.idle_bytes + cap > self.max_idle_bytes:
            self.evicted += 1
            return
        stack = self._buckets.get(cap)
        if stack is None:
            self._buckets[cap] = [(storage, self._tick)]
            insort(self._caps, cap)
        else:
            stack.append((storage, self._tick))
        self.idle_bytes += cap
        self._trim_countdown -= 1
        if self._trim_countdown <= 0:
            self._trim_countdown = _TRIM_EVERY
            self._trim_locked()

    def _reclaim_locked(self, need_bytes: int) -> None:
        # Evict oldest idle blocks until ``need_bytes`` are freed, but never
        # touch recently recycled ones (they are the hot mid-backward
        # frontier about to be re-borrowed).  Lists append in tick order, so
        # each bucket's head is its oldest block.
        guard = self._tick - _RECLAIM_GUARD
        freed = 0
        dirty = False
        for key in list(self._buckets):
            stack = self._buckets[key]
            drop = 0
            for storage, tick in stack:
                if tick >= guard or freed >= need_bytes:
                    break
                freed += storage.nbytes
                self.idle_bytes -= storage.nbytes
                self.evicted += 1
                drop += 1
            if drop:
                del stack[:drop]
                if not stack:
                    del self._buckets[key]
                    dirty = True
            if freed >= need_bytes:
                break
        if dirty:
            self._caps = sorted(self._buckets)

    def _trim_locked(self) -> None:
        # Drop blocks that have sat idle for more than ``trim_age`` borrows:
        # their size class has fallen out of the working set (a batch-size
        # or phase change), and keeping them pins a dead reservoir.
        horizon = self._tick - self.trim_age
        dirty = False
        for key in list(self._buckets):
            kept = []
            for storage, tick in self._buckets[key]:
                if tick >= horizon:
                    kept.append((storage, tick))
                else:
                    self.idle_bytes -= storage.nbytes
                    self.evicted += 1
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]
                dirty = True
        if dirty:
            self._caps = sorted(self._buckets)

    def release(self, array: np.ndarray) -> bool:
        """Return a borrowed array's block to the pool now.

        The caller promises no other reference to the block (via ``array``
        or any other view of it) remains.  Returns ``False`` when the
        array is not pool-owned.
        """
        base = array.base
        if base is None:
            return False
        with self._lock:
            entry = self._live.get(id(base))
            if entry is None or entry[0]() is not base:
                return False
            del self._live[id(base)]
            self._recycle_locked(entry[1])
            return True

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` views a currently borrowed block of this pool."""
        base = array.base
        if base is None:
            return False
        with self._lock:
            entry = self._live.get(id(base))
            return entry is not None and entry[0]() is base

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        """Number of borrowed views not yet returned."""
        with self._lock:
            return len(self._live)

    def stats(self) -> dict:
        with self._lock:
            requests = self.hits + self.misses
            return {
                "hits": self.hits,
                "fit_hits": self.fit_hits,
                "misses": self.misses,
                "bypassed": self.bypassed,
                "recycled": self.recycled,
                "evicted": self.evicted,
                "hit_rate": self.hits / requests if requests else 0.0,
                "outstanding": len(self._live),
                "live_bytes": self.live_bytes,
                "peak_live_bytes": self.peak_live_bytes,
                "idle_bytes": self.idle_bytes,
                "idle_buffers": sum(len(v) for v in self._buckets.values()),
                "max_idle_bytes": self.max_idle_bytes,
                "min_bytes": self.min_bytes,
            }

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.fit_hits = self.misses = self.bypassed = 0
            self.recycled = self.evicted = 0

    def clear(self) -> None:
        """Drop all idle buffers (outstanding views are unaffected)."""
        with self._lock:
            self._buckets.clear()
            self._caps.clear()
            self.idle_bytes = 0


_pool = BufferPool()


def global_pool() -> BufferPool:
    """The process-wide pool used by the tensor ops."""
    return _pool


# ----------------------------------------------------------------------
# Enable switch (mirrors segment.set_fast_kernels).
# ----------------------------------------------------------------------
_enabled = _runtime.env_flag("O2_BUFFER_POOL", True)


def buffer_pool_enabled() -> bool:
    """Whether ops borrow from the pool (env ``O2_BUFFER_POOL``)."""
    return _enabled


def set_buffer_pool(enabled: bool) -> bool:
    """Toggle the pool; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


class use_buffer_pool:
    """Context manager pinning the pool switch (for tests/benchmarks)."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._previous: Optional[bool] = None

    def __enter__(self) -> "use_buffer_pool":
        self._previous = set_buffer_pool(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_buffer_pool(self._previous)


# ----------------------------------------------------------------------
# Allocation entry points used by the op code.
# ----------------------------------------------------------------------

def _record(tag: Optional[str], shape, dtype) -> None:
    if _memprof.enabled():
        count = 1
        for n in shape:
            count *= int(n)
        _memprof.record_alloc(tag or "untagged", count * np.dtype(dtype).itemsize)


def out_buffer(shape, dtype=np.float64, tag: Optional[str] = None):
    """A pooled buffer for a ufunc ``out=`` argument, or ``None``.

    Returns ``None`` when the pool is disabled, which makes
    ``np.add(a, b, out=out_buffer(...))`` collapse to numpy's own fresh
    allocation -- the reference path, bit for bit.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    _record(tag, shape, dtype)
    if not _enabled:
        return None
    return _pool.borrow(shape, dtype)


def empty(shape, dtype=np.float64, tag: Optional[str] = None) -> np.ndarray:
    """Like ``np.empty`` but pooled when the pool is enabled."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    _record(tag, shape, dtype)
    if not _enabled:
        return np.empty(shape, dtype=dtype)
    return _pool.borrow(shape, dtype)


def zeros(shape, dtype=np.float64, tag: Optional[str] = None) -> np.ndarray:
    """Like ``np.zeros`` but pooled (borrow + fill) when enabled."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    _record(tag, shape, dtype)
    if not _enabled:
        return np.zeros(shape, dtype=dtype)
    out = _pool.borrow(shape, dtype)
    out.fill(0.0)
    return out


def take_rows(a: np.ndarray, indices: np.ndarray, tag: Optional[str] = None) -> np.ndarray:
    """``a[indices]`` along axis 0, gathered into a pooled buffer.

    The pooled path uses ``np.take(..., mode="clip")`` because ``out=`` is
    buffered (an extra full copy) under the default ``mode="raise"``; the
    callers all pass pre-validated indices, for which clip and raise are
    value-identical.  With the pool disabled this is plain fancy indexing
    -- the reference path, allocation and bounds-checking included.
    """
    buf = out_buffer(indices.shape + a.shape[1:], a.dtype, tag)
    if buf is None:
        return a[indices]
    return np.take(a, indices, axis=0, out=buf, mode="clip")
