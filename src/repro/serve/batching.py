"""Caller-runs micro-batching for the recommendation service.

Concurrent callers hand (region, type) pair blocks to
:meth:`MicroBatcher.score`, and the batcher runs no thread of its own.  A
caller that finds no scoring pass running becomes the *leader*: it takes
every queued request (its own included, up to ``max_batch_size``),
concatenates them into one pair array, runs a single vectorised scoring
pass on its own thread and splits the scores back out.  Callers that
arrive during a pass queue up and wait on a condition; the next pass --
run by the current leader if its own request is still queued, otherwise
by one of the waiters -- takes them all at once.  Under concurrent load N
per-request passes still merge into one, and an idle service never
waits: a request that finds the batcher free is scored at once, with no
window to sit out.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np


class _Request:
    __slots__ = ("pairs", "arrived", "scores", "error", "done")

    def __init__(self, pairs: np.ndarray) -> None:
        self.pairs = pairs
        self.arrived = time.monotonic()
        self.scores: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = False  # guarded by the batcher's condition

    def result(self) -> np.ndarray:
        if self.error is not None:
            raise self.error
        return self.scores


class MicroBatcher:
    """Merges concurrent scoring requests into shared vectorised passes.

    ``score_fn`` maps a ``(K, 2)`` pair array to ``(K,)`` scores and runs
    on the calling thread of whichever caller leads the pass.  Metrics
    (optional) receive per-stage latencies -- ``queue`` (arrival to the
    start of the pass that scored the request) and ``score`` (one sample
    per pass) -- and the counters ``batches`` / ``batched_requests`` /
    ``batched_pairs``.
    """

    def __init__(
        self,
        score_fn: Callable[[np.ndarray], np.ndarray],
        *,
        max_batch_size: int = 32,
        metrics=None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._score_fn = score_fn
        self.max_batch_size = max_batch_size
        self._metrics = metrics
        self._cond = threading.Condition()
        self._queue: Deque[_Request] = deque()
        self._leading = False  # a caller is running passes
        self._closed = False

    # ------------------------------------------------------------------
    def score(self, pairs: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Score one pair block, merged with whatever else is queued.

        ``timeout`` bounds how long the call waits for another caller's
        pass; it raises :class:`TimeoutError` when that runs out (a
        caller leading passes itself is bounded by their work instead).
        """
        request = _Request(np.asarray(pairs, dtype=np.int64))
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(request)
            if not self._cond.wait_for(
                lambda: request.done or not self._leading, timeout
            ):
                try:
                    self._queue.remove(request)
                except ValueError:
                    pass  # a pass holds it; its scores go unread
                raise TimeoutError(
                    f"no scoring pass took the request within {timeout} s"
                )
            if request.done:
                return request.result()
            self._leading = True
        self._lead(request)
        return request.result()

    def _lead(self, own: _Request) -> None:
        """Run passes over the queue head until ``own`` is scored.

        The queue can hold more than ``max_batch_size`` requests, so the
        leader may run several passes; ``own`` is always still queued
        here (only a leader takes requests, and there is one at a time).
        """
        batch: List[_Request] = []
        try:
            while not own.done:
                with self._cond:
                    take = min(len(self._queue), self.max_batch_size)
                    batch = [self._queue.popleft() for _ in range(take)]
                self._run_pass(batch)
                with self._cond:
                    for request in batch:
                        request.done = True
                    batch = []
                    self._cond.notify_all()
        finally:
            with self._cond:
                for request in batch:  # a pass cut short by an interrupt
                    request.error = RuntimeError("scoring pass interrupted")
                    request.done = True
                self._leading = False
                self._cond.notify_all()

    def _run_pass(self, batch: List[_Request]) -> None:
        """One vectorised pass; fills in each request's scores or error."""
        started = time.monotonic()
        if self._metrics is not None:
            for request in batch:
                self._metrics.observe("queue", started - request.arrived)
        try:
            pairs = (
                batch[0].pairs
                if len(batch) == 1
                else np.concatenate([r.pairs for r in batch], axis=0)
            )
            scores = np.asarray(self._score_fn(pairs))
        except Exception as exc:  # fails every caller of this pass
            for request in batch:
                request.error = exc
            return
        if self._metrics is not None:
            self._metrics.observe("score", time.monotonic() - started)
            self._metrics.increment("batches")
            self._metrics.increment("batched_requests", len(batch))
            self._metrics.increment("batched_pairs", len(pairs))
        offset = 0
        for request in batch:
            n = len(request.pairs)
            request.scores = scores[offset:offset + n]
            offset += n

    def close(self) -> None:
        """Refuse later calls; passes already running finish normally."""
        with self._cond:
            self._closed = True

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
