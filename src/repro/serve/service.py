"""The online recommendation service: retrieval + cache + batching + hot swap.

``RecommendationService`` owns a :class:`~repro.serve.snapshot.ModelSnapshot`
and answers top-k site queries:

* when the snapshot carries a retrieval index (:mod:`repro.serve.index`)
  and the query ranks the default candidate set, a **retrieve-then-rank**
  pass runs first: the index pulls the top-M candidate positions in
  sub-millisecond time and only the survivors reach the exact scorer
  (``use_index=False`` forces the full scan;
  explicitly supplied candidates always take the exact path);
* scores come from an LRU+TTL :class:`~repro.serve.cache.ScoreCache` when a
  (snapshot, type, candidate-set) combination repeats, otherwise from the
  :class:`~repro.serve.batching.MicroBatcher`, which scores a miss on the
  calling thread at once and merges callers that arrive during a pass
  into the next one (the service starts no thread of its own);
* :meth:`reload` atomically swaps in a new snapshot -- the swap is one
  reference assignment, a query whose scoring pass straddles it retries
  against the new generation (so every response ranks with ONE
  snapshot's candidates, index and scores -- never a torn mix), and
  cache keys include the snapshot id so stale scores can never be
  served;
* :meth:`stats` exposes per-stage latency histograms, QPS, cache/batch and
  retrieval counters for operations.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.ranking import Recommendation
from ..topk import top_k_indices
from .batching import MicroBatcher
from .cache import ScoreCache, candidate_digest
from .index import MIN_RERANK
from .metrics import ServiceMetrics
from .snapshot import ModelSnapshot, PathLike


class _CandidateResolver:
    """Per-snapshot-generation candidate machinery, built once per deploy.

    The pre-index service rebuilt the dropped-region filter with a python
    loop on *every* request; this precomputes, per snapshot generation,
    the base candidate array and a dense region-id -> position lookup so
    ``exclude_regions`` becomes a vectorised mask build -- shared by the
    no-index full scan and the retrieval path (which needs positions, not
    ids).  Holding the snapshot reference here keeps a query's snapshot,
    candidates and index coherent across a concurrent hot swap: readers
    grab one resolver reference and never mix generations.
    """

    __slots__ = ("snapshot", "base", "_lookup")

    def __init__(self, snapshot: ModelSnapshot) -> None:
        self.snapshot = snapshot
        self.base = snapshot.candidate_regions()  # one copy per generation
        self._lookup: Optional[np.ndarray] = None
        if self.base.size:
            span = int(self.base.max()) + 1
            # Region ids are grid indices in practice; only fall back to
            # np.isin when the id space is far sparser than the set.
            if 0 <= span <= max(4 * self.base.size, 1024):
                lookup = np.full(span, -1, dtype=np.int64)
                lookup[self.base] = np.arange(self.base.size, dtype=np.int64)
                self._lookup = lookup

    def keep_mask(
        self, exclude_regions: Optional[Sequence[int]]
    ) -> Optional[np.ndarray]:
        """Boolean keep-mask over base positions, or None for keep-all."""
        if exclude_regions is None:
            return None
        exclude = np.asarray(list(exclude_regions), dtype=np.int64)
        mask = np.ones(self.base.size, dtype=bool)
        if exclude.size == 0:
            return mask
        if self._lookup is not None:
            exclude = exclude[(exclude >= 0) & (exclude < self._lookup.size)]
            positions = self._lookup[exclude]
            mask[positions[positions >= 0]] = False
        else:
            mask[np.isin(self.base, exclude)] = False
        return mask


class RecommendationService:
    """Serve top-k store-site recommendations from a frozen snapshot."""

    def __init__(
        self,
        snapshot: ModelSnapshot,
        *,
        default_k: int = 3,
        per_type_k: Optional[Dict[int, int]] = None,
        max_batch_size: int = 32,
        cache_entries: int = 512,
        cache_ttl_s: float = 300.0,
        query_timeout_s: float = 30.0,
        metrics: Optional[ServiceMetrics] = None,
        use_index: Optional[bool] = None,
        retrieve_m: Optional[int] = None,
        nprobe: Optional[int] = None,
    ) -> None:
        if default_k < 1:
            raise ValueError("default_k must be >= 1")
        self.default_k = default_k
        self.per_type_k = dict(per_type_k or {})
        self.query_timeout_s = query_timeout_s
        # None -> "auto": retrieve whenever the deployed snapshot carries
        # an index; False forces the exact full scan.
        self.use_index = use_index
        self.retrieve_m = retrieve_m
        self.nprobe = nprobe
        self._resolver = _CandidateResolver(snapshot)
        self._reload_lock = threading.Lock()
        # Worker processes pass metrics wired to shared-memory counters so
        # the parent can aggregate fleet-wide stats (repro.serve.workers).
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = ScoreCache(max_entries=cache_entries, ttl_s=cache_ttl_s)
        self._batcher = MicroBatcher(
            self._score_batch,
            max_batch_size=max_batch_size,
            metrics=self.metrics,
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls, path: PathLike, dataset, split=None, **kwargs
    ) -> "RecommendationService":
        """Build a service straight from a ``save_model`` checkpoint."""
        return cls(ModelSnapshot.from_checkpoint(path, dataset, split), **kwargs)

    @classmethod
    def from_snapshot_file(cls, path: PathLike, **kwargs) -> "RecommendationService":
        """Build a service from a dataset-free ``ModelSnapshot.save`` file."""
        return cls(ModelSnapshot.load(path), **kwargs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> ModelSnapshot:
        """The currently deployed snapshot."""
        return self._resolver.snapshot

    def _score_batch(self, pairs: np.ndarray) -> np.ndarray:
        # One reference read: every pair in this batch scores against the
        # same snapshot even if a reload lands mid-pass.  A query whose
        # batch landed on the other side of a swap detects the generation
        # change and retries (see _stable_scores).
        return self._resolver.snapshot.predict(pairs)

    def _resolve_candidates(
        self,
        resolver: _CandidateResolver,
        candidate_regions: Optional[Sequence[int]],
        exclude_regions: Optional[Sequence[int]],
    ) -> np.ndarray:
        if candidate_regions is None:
            mask = resolver.keep_mask(exclude_regions)
            candidates = (
                resolver.base if mask is None else resolver.base[mask]
            )
        else:
            candidates = np.asarray(list(candidate_regions), dtype=np.int64)
            if exclude_regions is not None:
                exclude = np.asarray(list(exclude_regions), dtype=np.int64)
                if exclude.size:
                    candidates = candidates[~np.isin(candidates, exclude)]
        if len(candidates) == 0:
            raise ValueError("no candidate regions to rank")
        return candidates

    def _retrieve(
        self,
        resolver: _CandidateResolver,
        store_type_idx: int,
        exclude_regions: Optional[Sequence[int]],
        k: int,
    ) -> np.ndarray:
        """Retrieval stage: index top-M positions -> candidate region ids.

        The rerank batch is clamped to ``max(k, MIN_RERANK)`` rows: below
        ~8 rows BLAS switches kernels and subset scores stop being
        bitwise identical to the full-scan pass (see repro.serve.index).
        """
        index = resolver.snapshot.index
        keep = resolver.keep_mask(exclude_regions)
        if keep is not None and not keep.any():
            raise ValueError("no candidate regions to rank")
        m = index.retrieve_m if self.retrieve_m is None else self.retrieve_m
        m = max(int(m), k, MIN_RERANK)
        started = time.monotonic()
        positions = index.search(
            store_type_idx, m, nprobe=self.nprobe, keep=keep
        )
        self.metrics.observe("retrieve", time.monotonic() - started)
        self.metrics.increment("retrievals")
        return resolver.base[positions]

    def _scores_for(
        self,
        snapshot: ModelSnapshot,
        store_type_idx: int,
        candidates: np.ndarray,
    ) -> np.ndarray:
        key = (snapshot.snapshot_id, store_type_idx, candidate_digest(candidates))
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.increment("cache_hits")
            return cached
        self.metrics.increment("cache_misses")
        pairs = np.stack(
            [
                candidates,
                np.full(len(candidates), store_type_idx, dtype=np.int64),
            ],
            axis=1,
        )
        scores = self._batcher.score(pairs, timeout=self.query_timeout_s)
        self.cache.put(key, scores)
        return scores

    def _stable_scores(self, store_type, resolve):
        """(resolver, type idx, candidates, scores) -- ONE generation.

        ``resolve`` maps (resolver, store_type_idx) to the candidate
        array.  The scoring batch reads the service's *current* snapshot,
        so a hot swap landing between candidate resolution and the
        scoring pass could mix generations (candidates picked by the old
        index, scores from the new model).  Rather than serve that torn
        ranking, detect the generation change after scoring and retry
        against the new resolver -- swaps are rare, so the loop almost
        always runs once.
        """
        while True:
            resolver = self._resolver
            snapshot = resolver.snapshot
            store_type_idx = snapshot.type_index(store_type)
            candidates = resolve(resolver, store_type_idx)
            scores = self._scores_for(snapshot, store_type_idx, candidates)
            if self._resolver is resolver:
                return resolver, store_type_idx, candidates, scores

    def scores(
        self,
        store_type: Union[str, int],
        candidate_regions: Optional[Sequence[int]] = None,
        *,
        exclude_regions: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Raw score vector for one type over the candidate regions.

        Always the exact full pass over the resolved candidates (no
        retrieval pruning).  Cached on (snapshot id, type, candidate
        digest); misses go through the micro-batcher.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        _, _, _, scores = self._stable_scores(
            store_type,
            lambda resolver, _idx: self._resolve_candidates(
                resolver, candidate_regions, exclude_regions
            ),
        )
        return scores

    def _index_active(self, snapshot: ModelSnapshot) -> bool:
        return snapshot.index is not None and self.use_index is not False

    def query(
        self,
        store_type: Union[str, int],
        candidate_regions: Optional[Sequence[int]] = None,
        k: Optional[int] = None,
        *,
        exclude_regions: Optional[Sequence[int]] = None,
        min_score: Optional[float] = None,
    ) -> List[Recommendation]:
        """Top-k site recommendations for ``store_type``.

        ``candidate_regions`` defaults to every servable region;
        ``exclude_regions`` filters candidates (e.g. regions with an
        existing franchise); ``k`` falls back to the per-type default and
        then to ``default_k``; ``min_score`` drops candidates below a
        score floor.

        When the snapshot carries a retrieval index and no explicit
        candidate list is given, the index prunes the candidate set to
        its top-M before the exact re-rank.  Explicit candidates always
        take the exact path (counted as ``retrieval_fallbacks``).
        """
        started = time.monotonic()
        if k is not None and k < 1:
            raise ValueError("k must be >= 1")

        def wanted_k(store_type_idx: int) -> int:
            if k is not None:
                return k
            got = self.per_type_k.get(store_type_idx, self.default_k)
            if got < 1:
                raise ValueError("k must be >= 1")
            return got

        def resolve(resolver: _CandidateResolver, store_type_idx: int):
            if self._index_active(resolver.snapshot):
                if candidate_regions is None:
                    return self._retrieve(
                        resolver,
                        store_type_idx,
                        exclude_regions,
                        wanted_k(store_type_idx),
                    )
                self.metrics.increment("retrieval_fallbacks")
            return self._resolve_candidates(
                resolver, candidate_regions, exclude_regions
            )

        resolver, store_type_idx, candidates, scores = self._stable_scores(
            store_type, resolve
        )
        snapshot = resolver.snapshot
        k = wanted_k(store_type_idx)
        # Partial sort: only the k winners are ordered (identical to the
        # stable full argsort, duplicate-score tie-break included).
        order = top_k_indices(scores, min(k, len(candidates)))
        results: List[Recommendation] = []
        for i in order:
            score = float(scores[i])
            if min_score is not None and score < min_score:
                break  # scores are sorted descending
            results.append(
                Recommendation(
                    region=int(candidates[i]),
                    store_type=store_type_idx,
                    predicted_orders=score * snapshot.target_scale,
                    score=score,
                )
            )
            if len(results) == k:
                break
        self.metrics.mark_request()
        self.metrics.increment("queries")
        self.metrics.observe("total", time.monotonic() - started)
        return results

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def reload(
        self, source: Union[ModelSnapshot, PathLike]
    ) -> ModelSnapshot:
        """Atomically deploy a new snapshot (instance or ``.npz`` file).

        In-flight queries keep the snapshot their scoring pass captured;
        the swap itself is a single reference assignment, so no query ever
        observes a half-loaded model.  Returns the deployed snapshot.
        """
        if isinstance(source, ModelSnapshot):
            snapshot = source
        else:
            snapshot = ModelSnapshot.load(source)
        # Built outside the lock (it scans the snapshot once).  The
        # resolver holds the snapshot, so publishing it is ONE reference
        # assignment -- readers grab a resolver and see a coherent
        # (snapshot, candidates, index) triple either side of the swap,
        # never a torn mix of generations.
        resolver = _CandidateResolver(snapshot)
        with self._reload_lock:
            self._resolver = resolver
            # Keys embed the snapshot id, so old entries could never hit;
            # clearing just releases their memory promptly.
            self.cache.clear()
            self.metrics.increment("reloads")
        return snapshot

    def reload_checkpoint(
        self, path: PathLike, dataset, split=None
    ) -> ModelSnapshot:
        """Hot-swap from a model checkpoint (needs the training dataset)."""
        return self.reload(ModelSnapshot.from_checkpoint(path, dataset, split))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Point-in-time service health: latency, QPS, cache, snapshot."""
        deployed = self._resolver.snapshot
        report = self.metrics.snapshot()
        report["pid"] = os.getpid()
        report["cache"] = self.cache.stats()
        report["snapshot"] = {
            "id": deployed.snapshot_id,
            "store_nodes": deployed.num_store_nodes,
            "types": deployed.num_types,
            "periods": deployed.num_periods,
            "embedding_dim": deployed.embedding_dim,
        }
        report["batching"] = {"max_batch_size": self._batcher.max_batch_size}
        # Why grid-tile sharding is (not) engaged in this process: surfaced
        # here so operators can tell a deliberate dense run from a silently
        # missed gate (e.g. reference kernels forced on, grid too small).
        from ..core.shard import shard_gate_reason, shard_train_gate_reason

        report["shard"] = {
            "gate_reason": shard_gate_reason(),
            "train_gate_reason": shard_train_gate_reason(),
        }
        index = deployed.index
        if index is None:
            report["index"] = {"present": False, "active": False}
        else:
            report["index"] = {
                "present": True,
                "active": self._index_active(deployed),
                **index.describe(),
            }
            if self.retrieve_m is not None:
                report["index"]["retrieve_m"] = int(self.retrieve_m)
            if self.nprobe is not None:
                report["index"]["nprobe"] = int(self.nprobe)
        return report

    def close(self) -> None:
        """Refuse later queries; queries already running finish normally."""
        if not self._closed:
            self._closed = True
            self._batcher.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
