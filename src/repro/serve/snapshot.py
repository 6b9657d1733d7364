"""Frozen inference snapshot of a trained O2-SiteRec model.

The full model's forward pass re-runs the per-period heterogeneous
multi-graph propagation for *every* query, even though that propagation is
completely query-independent: only the final gather + time attention +
predictor MLP depend on the requested (region, type) pairs.  A
:class:`ModelSnapshot` runs the propagation exactly once (eval mode,
dropout off), freezes the per-period store-region/store-type embeddings and
the time-attention/predictor weights as plain numpy arrays, and scores
queries with a gather and a few small matmuls.

The scoring path mirrors :meth:`HeteroRecommender.forward` operation by
operation (same numpy calls in the same order), so snapshot scores are
bit-for-bit identical to ``O2SiteRec.predict`` on the same pairs --
``tests/test_serve.py`` pins this.

Snapshots also serialise standalone (:meth:`save`/:meth:`load`): unlike a
model checkpoint, a snapshot file does not need the training dataset to be
rebuilt, so it is the deployable artifact for serving hosts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

_MARKER_KEY = "__o2_snapshot__"
_META_KEY = "__snapshot_meta__"
_SNAPSHOT_FORMAT_VERSION = 1


def _npz_path(path: PathLike) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _resolve_snapshot_path(path: PathLike) -> Path:
    """An existing snapshot file for ``path``, trying known suffixes.

    ``save`` appends ``.npz`` / ``.arena`` to suffixless paths, so
    ``load`` mirrors that: the literal path wins, then the suffixed
    variants.  Missing files resolve to the ``.npz`` spelling so the
    caller sees the same ``FileNotFoundError`` as before.
    """
    path = Path(path)
    if path.exists():
        return path
    for suffixed in (_npz_path(path), path.with_name(path.name + ".arena")):
        if suffixed.exists():
            return suffixed
    return _npz_path(path)


class ModelSnapshot:
    """Query-independent state of a trained model, frozen for serving.

    Parameters are plain numpy arrays -- no autograd graph is ever built,
    and nothing here is mutated after construction, so a snapshot can be
    shared freely across serving threads.
    """

    def __init__(
        self,
        *,
        h: np.ndarray,  # (P, nS, d2) per-period store-region embeddings
        q: np.ndarray,  # (P, T, d2) per-period store-type embeddings
        pair_commercial: np.ndarray,  # (nS, T, 2)
        store_regions: np.ndarray,  # (nS,) region id of each store node
        type_names: Sequence[str],
        target_scale: float,
        product_channel: bool,
        commercial_in_predictor: bool,
        time_attention: bool,
        time_heads: int,
        time_key_weight: Optional[np.ndarray],  # (D, D) or None
        time_query_weight: Optional[np.ndarray],  # (D, D) or None
        predictor_weights: Sequence[Tuple[np.ndarray, np.ndarray]],
        meta: Optional[dict] = None,
        snapshot_id: Optional[str] = None,
        index=None,
    ) -> None:
        self.h = np.ascontiguousarray(h, dtype=np.float64)
        self.q = np.ascontiguousarray(q, dtype=np.float64)
        self.pair_commercial = np.asarray(pair_commercial, dtype=np.float64)
        self.store_regions = np.asarray(store_regions, dtype=np.int64)
        self.type_names: List[str] = list(type_names)
        self.target_scale = float(target_scale)
        self.product_channel = bool(product_channel)
        self.commercial_in_predictor = bool(commercial_in_predictor)
        self.time_attention = bool(time_attention)
        self.time_heads = int(time_heads)
        self.time_key_weight = (
            None if time_key_weight is None
            else np.asarray(time_key_weight, dtype=np.float64)
        )
        self.time_query_weight = (
            None if time_query_weight is None
            else np.asarray(time_query_weight, dtype=np.float64)
        )
        self.predictor_weights = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in predictor_weights
        ]
        self.meta = dict(meta or {})
        # Optional retrieval index (repro.serve.index.VectorIndex): the
        # coarse stage of retrieve-then-rank serving.  Not part of the
        # fingerprint -- it is derived state, rebuildable from the arrays
        # above, so indexed and plain copies of one model share an id.
        self.index = index

        self._store_index = {
            int(r): i for i, r in enumerate(self.store_regions)
        }
        # A precomputed id (from an arena header) skips hashing every
        # parameter byte -- the point of the O(ms) mmap open path.
        self.snapshot_id = snapshot_id or self._fingerprint()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_periods(self) -> int:
        return self.h.shape[0]

    @property
    def num_store_nodes(self) -> int:
        return self.h.shape[1]

    @property
    def num_types(self) -> int:
        return self.q.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.h.shape[2]

    @property
    def pair_dim(self) -> int:
        return (3 if self.product_channel else 2) * self.embedding_dim

    def candidate_regions(self) -> np.ndarray:
        """All servable regions (the model's store-node set)."""
        return self.store_regions.copy()

    def type_index(self, name_or_index: Union[str, int]) -> int:
        """Resolve a store type given a name or an integer index."""
        if isinstance(name_or_index, str):
            try:
                return self.type_names.index(name_or_index)
            except ValueError:
                raise KeyError(
                    f"unknown store type {name_or_index!r}"
                ) from None
        index = int(name_or_index)
        if not 0 <= index < self.num_types:
            raise KeyError(f"store type index {index} out of range")
        return index

    def _fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.h.tobytes())
        digest.update(self.q.tobytes())
        if self.time_key_weight is not None:
            digest.update(self.time_key_weight.tobytes())
            digest.update(self.time_query_weight.tobytes())
        for w, b in self.predictor_weights:
            digest.update(w.tobytes())
            digest.update(b.tobytes())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model,
        meta: Optional[dict] = None,
        shard_tiles: Optional[int] = None,
    ) -> "ModelSnapshot":
        """Freeze a live :class:`~repro.core.O2SiteRec` for serving.

        ``shard_tiles`` pins the row-band count of the embedding export's
        propagation (:mod:`repro.core.shard`): the batched pass sweeps its
        layers band by band instead of over the whole graph at once, which
        is how metropolis-scale snapshots stay inside the build host's
        cache/memory budget.  ``None`` defers to the usual
        ``O2_SHARD_TILES``/auto-threshold gate and ``0`` pins the dense
        layer loop; the stitched embeddings are bit-identical either way,
        so the snapshot fingerprint does not depend on the band count.
        The export runs with no autograd tape
        (:meth:`~repro.core.O2SiteRec.export_embeddings`).  The effective
        tile count is recorded under ``meta["shard_tiles"]``.
        """
        from ..core.shard import (
            shard_gate_reason,
            shard_tiles_for,
            use_shard_tiles,
        )
        from ..data.periods import TimePeriod

        with use_shard_tiles(shard_tiles):
            per_period = model.export_embeddings()
            was_training = model.training
            model.eval()
            try:
                effective_tiles = shard_tiles_for(model.recommender)
                gate_reason = shard_gate_reason()
            finally:
                if was_training:
                    model.train()
        meta = dict(meta or {})
        meta.setdefault("shard_tiles", int(effective_tiles))
        meta.setdefault("shard_gate_reason", gate_reason)
        h = np.stack([per_period[p][0] for p in TimePeriod], axis=0)
        q = np.stack([per_period[p][1] for p in TimePeriod], axis=0)

        rec = model.recommender
        cfg = model.config
        if cfg.time_attention:
            attn = rec.time_attention
            time_heads = attn.num_heads
            key_w = attn.key_proj.weight.data.copy()
            query_w = attn.query_proj.weight.data.copy()
        else:
            time_heads, key_w, query_w = 1, None, None

        predictor_weights = [
            (layer.weight.data.copy(), layer.bias.data.copy())
            for layer in rec.predictor.layers
        ]

        return cls(
            h=h,
            q=q,
            pair_commercial=rec._pair_commercial.copy(),
            store_regions=model.hetero_graph.store_regions.copy(),
            type_names=list(model.dataset.type_names),
            target_scale=model.dataset.target_scale,
            product_channel=cfg.product_channel,
            commercial_in_predictor=cfg.commercial_in_predictor,
            time_attention=cfg.time_attention,
            time_heads=time_heads,
            time_key_weight=key_w,
            time_query_weight=query_w,
            predictor_weights=predictor_weights,
            meta=meta,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: PathLike,
        dataset,
        split=None,
        meta: Optional[dict] = None,
    ) -> "ModelSnapshot":
        """Load a ``save_model`` checkpoint and freeze it in one step."""
        from ..core.serialize import load_model

        model = load_model(path, dataset, split)
        merged = {"source": str(path)}
        merged.update(meta or {})
        return cls.from_model(model, meta=merged)

    # ------------------------------------------------------------------
    # Retrieval index
    # ------------------------------------------------------------------
    def build_index(self, **kwargs):
        """Train and attach a retrieval index over the candidate regions.

        Keyword arguments go to :meth:`repro.serve.index.VectorIndex.build`
        (``kind``, ``partitions``, ``retrieve_m``, ``nprobe``, ``seed``).
        The index serialises with the snapshot in both file formats and is
        the only post-construction mutation a snapshot allows.
        """
        from .index import VectorIndex

        self.index = VectorIndex.build(self, **kwargs)
        return self.index

    # ------------------------------------------------------------------
    # Scoring (mirrors HeteroRecommender.forward bit-for-bit)
    # ------------------------------------------------------------------
    def _pair_indices(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pairs = np.asarray(pairs, dtype=np.int64)
        try:
            s_idx = np.array([self._store_index[int(r)] for r in pairs[:, 0]])
        except KeyError as exc:
            raise KeyError(f"region {exc} is not a store region") from None
        return s_idx, pairs[:, 1]

    def _score_nodes(self, s_idx: np.ndarray, types: np.ndarray) -> np.ndarray:
        periods, _, d2 = self.h.shape
        per_period = []
        for p in range(periods):
            h_pairs = self.h[p][s_idx]
            q_pairs = self.q[p][types]
            blocks = [h_pairs, q_pairs]
            if self.product_channel:
                blocks.append(h_pairs * q_pairs)
            per_period.append(np.concatenate(blocks, axis=1))
        stacked = np.stack(per_period, axis=0)  # (P, K, D)

        if self.time_attention:
            k = stacked.shape[1]
            dim = stacked.shape[2]
            head_dim = dim // self.time_heads
            flat = stacked.reshape(periods * k, dim)
            keys = (flat @ self.time_key_weight).reshape(
                periods, k, self.time_heads, head_dim
            )
            queries = (flat @ self.time_query_weight).reshape(
                periods, k, self.time_heads, head_dim
            )
            scale = 1.0 / np.sqrt(head_dim)
            # Same einsum contractions as repro.tensor.period_attention --
            # the bit-for-bit serving guarantee needs identical expressions.
            scores = np.einsum("pkhd,pkhd->pkh", keys, queries) * scale
            shifted = scores - scores.max(axis=0, keepdims=True)
            exp = np.exp(shifted)
            weights = exp / exp.sum(axis=0, keepdims=True)
            mixed = np.einsum("pkhd,pkh->khd", keys, weights)  # (K, H, hd)
            fused = mixed.reshape(k, dim)
            fused = fused * (fused > 0)  # relu, as Tensor.relu computes it
        else:
            fused = stacked.sum(axis=0) * (1.0 / periods)  # Tensor.mean

        if self.commercial_in_predictor:
            commercial = self.pair_commercial[s_idx, types]
            fused = np.concatenate([fused, commercial], axis=1)

        x = fused
        n = len(self.predictor_weights)
        for i, (w, b) in enumerate(self.predictor_weights):
            x = x @ w + b
            if i < n - 1:
                x = x * (x > 0)
        return np.squeeze(x, axis=1)

    def predict(self, pairs: np.ndarray) -> np.ndarray:
        """Scores for ``(K, 2)`` (region, type) pairs.

        Drop-in for ``O2SiteRec.predict`` -- works with
        :func:`repro.core.recommend_sites` and ``evaluate_model``.
        """
        s_idx, types = self._pair_indices(pairs)
        return self._score_nodes(s_idx, types)

    def score_candidates(
        self, store_type: Union[str, int], candidate_regions: Sequence[int]
    ) -> np.ndarray:
        """Scores for one type over a candidate region list."""
        a = self.type_index(store_type)
        candidates = np.asarray(list(candidate_regions), dtype=np.int64)
        pairs = np.stack(
            [candidates, np.full(len(candidates), a, dtype=np.int64)], axis=1
        )
        return self.predict(pairs)

    # ------------------------------------------------------------------
    # Persistence (dataset-free, unlike model checkpoints)
    # ------------------------------------------------------------------
    def _meta_payload(self) -> dict:
        """The JSON-serialisable metadata both file formats store."""
        return {
            "format_version": _SNAPSHOT_FORMAT_VERSION,
            "type_names": self.type_names,
            "target_scale": self.target_scale,
            "product_channel": self.product_channel,
            "commercial_in_predictor": self.commercial_in_predictor,
            "time_attention": self.time_attention,
            "time_heads": self.time_heads,
            "num_predictor_layers": len(self.predictor_weights),
            "extra": self.meta,
            # Optional retrieval-index metadata; readers that predate the
            # index (or files that predate it) simply see no "index" key.
            "index": None if self.index is None else self.index.meta_payload(),
        }

    def _array_payload(self) -> Dict[str, np.ndarray]:
        """Named parameter arrays, in a fixed serialisation order."""
        arrays = {
            "h": self.h,
            "q": self.q,
            "pair_commercial": self.pair_commercial,
            "store_regions": self.store_regions,
        }
        if self.time_attention:
            arrays["time_key_weight"] = self.time_key_weight
            arrays["time_query_weight"] = self.time_query_weight
        for i, (w, b) in enumerate(self.predictor_weights):
            arrays[f"predictor_w_{i}"] = w
            arrays[f"predictor_b_{i}"] = b
        if self.index is not None:
            arrays.update(self.index.array_payload())
        return arrays

    @classmethod
    def _from_payload(
        cls, meta: dict, arrays, snapshot_id: Optional[str] = None
    ) -> "ModelSnapshot":
        """Rebuild from a (meta, name->array mapping) pair."""
        version = int(meta["format_version"])
        if version != _SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"snapshot format {version} not supported "
                f"(expected {_SNAPSHOT_FORMAT_VERSION})"
            )
        time_attention = bool(meta["time_attention"])
        index_meta = meta.get("index")
        index = None
        if index_meta is not None:
            from .index import VectorIndex

            index = VectorIndex.from_payload(index_meta, arrays)
        return cls(
            h=arrays["h"],
            q=arrays["q"],
            pair_commercial=arrays["pair_commercial"],
            store_regions=arrays["store_regions"],
            type_names=meta["type_names"],
            target_scale=meta["target_scale"],
            product_channel=meta["product_channel"],
            commercial_in_predictor=meta["commercial_in_predictor"],
            time_attention=time_attention,
            time_heads=meta["time_heads"],
            time_key_weight=(
                arrays["time_key_weight"] if time_attention else None
            ),
            time_query_weight=(
                arrays["time_query_weight"] if time_attention else None
            ),
            predictor_weights=[
                (arrays[f"predictor_w_{i}"], arrays[f"predictor_b_{i}"])
                for i in range(int(meta["num_predictor_layers"]))
            ],
            meta=meta.get("extra"),
            snapshot_id=snapshot_id,
            index=index,
        )

    def save(self, path: PathLike, format: str = "npz") -> Path:
        """Write the snapshot to ``path``; returns the (suffixed) path.

        ``format="npz"`` is the portable archive; ``format="arena"`` is
        the single-file mmap container (:mod:`repro.serve.arena`) whose
        open cost is O(milliseconds) regardless of size.
        """
        if format == "arena":
            from .arena import save_arena

            return save_arena(self, path)
        if format != "npz":
            raise ValueError(f"unknown snapshot format {format!r}")
        path = _npz_path(path)
        np.savez(
            path,
            **self._array_payload(),
            **{
                _MARKER_KEY: np.array(_SNAPSHOT_FORMAT_VERSION),
                _META_KEY: np.array(json.dumps(self._meta_payload())),
            },
        )
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ModelSnapshot":
        """Read a snapshot written by :meth:`save` (either format).

        The format is sniffed from the file's magic bytes, so a serving
        host can be pointed at an ``.npz`` or an ``.arena`` file (with or
        without the suffix) interchangeably.
        """
        from .arena import is_arena_file, open_arena

        path = _resolve_snapshot_path(path)
        if is_arena_file(path):
            return open_arena(path)
        with np.load(path, allow_pickle=False) as archive:
            if _MARKER_KEY not in archive:
                raise ValueError(f"{path} is not an O2-SiteRec serving snapshot")
            meta = json.loads(str(archive[_META_KEY]))
            return cls._from_payload(meta, archive)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModelSnapshot(id={self.snapshot_id}, periods={self.num_periods}, "
            f"store_nodes={self.num_store_nodes}, types={self.num_types}, "
            f"d2={self.embedding_dim})"
        )
