"""Process-pool fan-out for experiment cells and order-generation tiles.

Everything in-process runs on one thread: the five time periods of the
multi-graph propagate as one batched block-diagonal pass (see
:mod:`repro.core.recommender`), and its metropolis-scale band sweep
(:mod:`repro.core.shard`) runs in-process too, so the bytes a seed trains
never depend on the host's core count.  Two coarse-grained jobs -- whole
harness cells (simulate, build, train, evaluate) and order-generation
tiles -- fan out over worker *processes* with :func:`process_map` when
``O2_NUM_PROCS`` asks for them.  Worker processes sidestep the GIL
entirely, and every task seeds its own RNG state, so a fanned-out run is
identical to the serial loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from .runtime import env_str

T = TypeVar("T")
R = TypeVar("R")


def num_threads() -> int:
    """In-process worker threads: always 1, whatever the core count."""
    return 1


# ----------------------------------------------------------------------
# Process-pool backend (``O2_NUM_PROCS``).  Tasks must be top-level
# functions with picklable arguments and results.

_proc_override: Optional[int] = None


def _env_procs() -> int:
    raw = env_str("O2_NUM_PROCS", "0")
    if raw in ("", "0", "off", "serial"):
        return 0
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(int(raw), 0)
    except ValueError:
        raise ValueError(
            f"O2_NUM_PROCS must be an integer, 'auto' or 'off', got {raw!r}"
        ) from None


def num_procs() -> int:
    """Worker-process count; ``0`` means serial (the default)."""
    if _proc_override is not None:
        return _proc_override
    return _env_procs()


def set_num_procs(value: Optional[int]) -> Optional[int]:
    """Pin the process count (``None`` defers back to ``O2_NUM_PROCS``)."""
    global _proc_override
    previous = _proc_override
    if value is not None and value < 0:
        raise ValueError("num_procs must be >= 0")
    _proc_override = value
    return previous


class use_num_procs:
    """Context manager pinning the process count (tests/benchmarks)."""

    def __init__(self, value: Optional[int]) -> None:
        self._value = value
        self._previous: Optional[int] = None

    def __enter__(self) -> "use_num_procs":
        self._previous = set_num_procs(self._value)
        return self

    def __exit__(self, *exc) -> None:
        set_num_procs(self._previous)


# True inside a process_map worker (set by the pool initializer, which runs
# once in each freshly forked/spawned child).  A task that itself calls
# process_map -- e.g. a harness cell whose city simulation would fan its
# order tiles out again -- must degrade to the serial loop instead of
# forking a pool per worker (quadratic process growth, a fork bomb under
# recursion).
_in_worker = False


def _mark_worker() -> None:
    global _in_worker
    _in_worker = True


class ProcessMapError(RuntimeError):
    """A :func:`process_map` task failed, or its worker process died.

    The pool loses the worker-side traceback at the pickle boundary, so the
    message carries what the parent needs to bisect: the failing item's
    index, a truncated repr of the item, and the original exception.
    """


class _IndexedTask:
    """Picklable wrapper attaching the item index to worker failures."""

    def __init__(self, fn: Callable[[T], R]) -> None:
        self._fn = fn

    def __call__(self, indexed):
        index, item = indexed
        try:
            return self._fn(item)
        except Exception as exc:
            detail = repr(item)
            if len(detail) > 120:
                detail = detail[:120] + "...<truncated>"
            raise ProcessMapError(
                f"process_map task {index} failed with "
                f"{type(exc).__name__}: {exc} (item: {detail})"
            ) from exc


def process_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    procs: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]`` across worker processes, in item order.

    Serial when fewer than two workers or items are configured, and always
    serial inside a pool worker (nested fan-out must not fork again).  Each
    task must seed its own RNG state (cf. ``harness._seed_init``) so results
    are identical to the serial loop regardless of which worker runs which
    item.  Workers are forked where available (cheap, inherits imports) and
    spawned elsewhere.  ``chunksize`` items travel to a worker per
    submission: the default batches about four submissions per worker,
    ``1`` keeps long-running heterogeneous tasks load-balanced.  Each
    call starts its own pool and shuts it down before returning.

    A task that raises in a worker surfaces as :class:`ProcessMapError`
    naming the failing item's index and (truncated) repr, chained from the
    original exception where pickling preserves it.  A worker that dies
    outright (a crash, an OOM kill) also raises :class:`ProcessMapError`
    instead of leaving the call waiting forever.
    """
    items = list(items)
    workers = num_procs() if procs is None else max(procs, 0)
    workers = min(workers, len(items))
    if workers <= 1 or len(items) <= 1 or _in_worker:
        return [fn(item) for item in items]
    import multiprocessing as mp

    if chunksize is None:
        chunksize = -(-len(items) // (4 * workers))
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    task, indexed = _IndexedTask(fn), list(enumerate(items))
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_mark_worker
        ) as pool:
            return list(pool.map(task, indexed, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise ProcessMapError(
            f"a process_map worker died before returning its results ({exc})"
        ) from exc
