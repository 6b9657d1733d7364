"""The full O2-SiteRec model: capacity model + recommender + joint loss.

``O2SiteRec`` owns the three input graphs (Eq. 1:
``p_sa = F_theta(G_h, G_c, G_ge)``), runs the courier capacity model per
period to produce S-U capacity edge embeddings, feeds them into the
heterogeneous recommender, and optimises the joint objective
``Loss = O2 + beta * O1`` (Eq. 17).

All four paper ablations are configuration flags:

========================  =============================================
variant                    configuration
========================  =============================================
w/o Co                     ``use_capacity=False`` (also rebuilds S-U
                           edges without the capacity-aware scope rule)
w/o CoCu                   ``use_capacity=False, use_preferences=False``
w/o NA                     ``node_attention=False``
w/o SA                     ``time_attention=False``
========================  =============================================
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..data.dataset import SiteRecDataset
from ..data.periods import TimePeriod
from ..data.split import InteractionSplit
from ..graphs import (
    CourierMobilityMultiGraph,
    RegionGeographicalGraph,
    build_hetero_multigraph,
)
from ..nn import Module
from ..optim import mse_loss
from ..tensor import Tensor, fast_kernels_enabled
from ..tensor import plan as _plan
from ..tensor.segment import invalidate_plans_for
from .capacity import CourierCapacityModel
from .recommender import CapacityEdgeFactors, HeteroRecommender


@dataclass(frozen=True)
class O2SiteRecConfig:
    """Hyper-parameters (scaled-down defaults; paper values below)."""

    capacity_dim: int = 12  # d1: courier mobility embedding size
    embedding_dim: int = 40  # d2: hetero-graph embedding size
    node_heads: int = 5  # heads in node-level aggregation
    time_heads: int = 2  # heads in time semantics-level aggregation
    num_layers: int = 2  # l
    dropout: float = 0.1
    beta: float = 0.2  # trade-off between O2 and O1 (Eq. 17)
    use_capacity: bool = True
    use_preferences: bool = True
    node_attention: bool = True
    time_attention: bool = True
    # Implementation choices beyond the paper's text (see DESIGN.md §2);
    # exposed as flags so their contribution can be measured.
    product_channel: bool = True  # H_sa includes h ⊙ q
    commercial_in_predictor: bool = True  # pair's S-A attrs at the head
    geo_weight_mode: str = "softmax_neg_distance"
    geo_threshold_m: float = 800.0
    mobility_min_count: int = 2

    def __post_init__(self) -> None:
        if self.embedding_dim % self.node_heads:
            raise ValueError("embedding_dim must be divisible by node_heads")
        pair_dim = (3 if self.product_channel else 2) * self.embedding_dim
        if pair_dim % self.time_heads:
            raise ValueError(
                "the pair embedding width must be divisible by time_heads"
            )
        if self.beta < 0:
            raise ValueError("beta must be non-negative")

    # -- ablation constructors -------------------------------------------
    def without_capacity(self) -> "O2SiteRecConfig":
        return replace(self, use_capacity=False)

    def without_capacity_and_preferences(self) -> "O2SiteRecConfig":
        return replace(self, use_capacity=False, use_preferences=False)

    def without_node_attention(self) -> "O2SiteRecConfig":
        return replace(self, node_attention=False)

    def without_time_attention(self) -> "O2SiteRecConfig":
        return replace(self, time_attention=False)


def paper_hyperparams() -> O2SiteRecConfig:
    """The paper's Section IV-A3 settings (d1=20, d2=90, heads 5/2, ...)."""
    return O2SiteRecConfig(capacity_dim=20, embedding_dim=90)


class O2SiteRec(Module):
    """End-to-end store site recommendation model."""

    def __init__(
        self,
        dataset: SiteRecDataset,
        split: Optional[InteractionSplit] = None,
        config: Optional[O2SiteRecConfig] = None,
    ) -> None:
        super().__init__()
        self.config = config or O2SiteRecConfig()
        self.dataset = dataset

        cfg = self.config
        self.geo_graph = RegionGeographicalGraph.from_grid(
            dataset.grid, threshold_m=cfg.geo_threshold_m
        )
        self.mobility_graph = CourierMobilityMultiGraph.from_aggregates(
            dataset.aggregates, min_count=cfg.mobility_min_count
        )
        self.hetero_graph = build_hetero_multigraph(
            dataset, split=split, capacity_aware=cfg.use_capacity
        )

        if cfg.use_capacity:
            self.capacity_model: Optional[CourierCapacityModel] = CourierCapacityModel(
                self.geo_graph,
                embedding_dim=cfg.capacity_dim,
                num_layers=cfg.num_layers,
                geo_weight_mode=cfg.geo_weight_mode,
            )
            capacity_edge_dim = self.capacity_model.edge_embedding_dim
        else:
            self.capacity_model = None
            capacity_edge_dim = 0

        self.recommender = HeteroRecommender(
            self.hetero_graph,
            d2=cfg.embedding_dim,
            node_heads=cfg.node_heads,
            time_heads=cfg.time_heads,
            num_layers=cfg.num_layers,
            capacity_edge_dim=capacity_edge_dim,
            dropout=cfg.dropout,
            node_attention=cfg.node_attention,
            time_attention=cfg.time_attention,
            use_preferences=cfg.use_preferences,
            product_channel=cfg.product_channel,
            commercial_in_predictor=cfg.commercial_in_predictor,
        )
        # Grid geometry enables grid-tile sharded eval (repro.core.shard).
        self.recommender.grid_shape = (dataset.grid.rows, dataset.grid.cols)

        self._store_index = {
            int(r): i for i, r in enumerate(self.hetero_graph.store_regions)
        }
        # Vectorised region -> store-node lookup table (-1 = not a store).
        store_regions = self.hetero_graph.store_regions
        lut_size = int(store_regions.max()) + 1 if len(store_regions) else 1
        self._store_lut = np.full(lut_size, -1, dtype=np.int64)
        self._store_lut[store_regions] = np.arange(len(store_regions))
        # Stable per-period S-U endpoint columns: slicing su_region_pairs on
        # every pass would allocate fresh arrays and defeat the identity-keyed
        # segment-plan cache behind gather_rows' backward.
        self._su_endpoints = {
            period: (
                np.ascontiguousarray(sub.su_region_pairs[:, 0]),
                np.ascontiguousarray(sub.su_region_pairs[:, 1]),
            )
            for period, sub in self.hetero_graph.subgraphs.items()
        }
        # (region, type) pair arrays -> (store-node, type) arrays, cached by
        # input-array identity (full-batch training reuses the same pairs).
        self._pair_cache: "OrderedDict[int, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    def _pair_indices(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map (region, type) pairs to (store-node index, type) arrays."""
        key = id(pairs)
        entry = self._pair_cache.get(key)
        if entry is not None and entry[0] is pairs:
            self._pair_cache.move_to_end(key)
            return entry[1], entry[2]
        pairs_in = pairs
        pairs = np.asarray(pairs, dtype=np.int64)
        regions = pairs[:, 0]
        if regions.size:
            bad = (regions < 0) | (regions >= len(self._store_lut))
            if not bad.any():
                s_idx = self._store_lut[regions]
                bad = s_idx < 0
            if bad.any():
                raise KeyError(
                    f"region {int(regions[np.flatnonzero(bad)[0]])} is not a "
                    f"store region"
                )
        else:
            s_idx = np.zeros(0, dtype=np.int64)
        types = np.ascontiguousarray(pairs[:, 1])
        if _plan.tracing():
            # Compiled-step bind hook: ``pairs`` is (a no-copy view of) the
            # plan's pinned batch buffer.  Per replay, re-derive the store
            # and type index arrays in place -- validation included, so a
            # bad region raises exactly like the eager path -- and drop any
            # segment plans cached over their old contents.
            lut = self._store_lut
            parr = pairs

            def _rebind_pair_indices() -> None:
                regions = parr[:, 0]
                if regions.size:
                    bad = (regions < 0) | (regions >= len(lut))
                    if not bad.any():
                        s_new = lut[regions]
                        bad = s_new < 0
                    if bad.any():
                        raise KeyError(
                            f"region {int(regions[np.flatnonzero(bad)[0]])} "
                            f"is not a store region"
                        )
                    np.copyto(s_idx, s_new)
                np.copyto(types, parr[:, 1])
                invalidate_plans_for(s_idx)
                invalidate_plans_for(types)

            _plan.record_bind(_rebind_pair_indices)
        self._pair_cache[key] = (pairs_in, s_idx, types)
        while len(self._pair_cache) > 8:
            self._pair_cache.popitem(last=False)
        return s_idx, types

    def _capacity_pass(
        self,
    ) -> Tuple[Optional[Dict[TimePeriod, Tensor]], Tensor]:
        """Run the capacity model for all periods.

        Returns the per-period S-U capacity edge embeddings and the summed
        auxiliary loss O1.
        """
        if self.capacity_model is None:
            return None, Tensor(0.0)

        # The geographic aggregation is period-invariant: on the fast path it
        # is evaluated once here and shared by all periods (the reference
        # path recomputes it per period, as the pre-optimisation code did).
        fast = fast_kernels_enabled()
        base = self.capacity_model.base_embeddings() if fast else None

        capacity_su = {}
        diffs = []
        for period in TimePeriod:
            mobility = self.mobility_graph.subgraph(period)
            b = self.capacity_model.region_embeddings(mobility, base=base)
            src_regions, dst_regions = self._su_endpoints[period]
            if fast:
                # Hand the region table to the recommender ungathered; the
                # aggregator projects it at table size (see
                # CapacityEdgeFactors / FactoredEdgeAttr).
                capacity_su[period] = CapacityEdgeFactors(b, dst_regions, src_regions)
            else:
                capacity_su[period] = self.capacity_model.edge_embeddings(
                    b, src_regions, dst_regions
                )
            if mobility.num_edges:
                edge_emb = self.capacity_model.edge_embeddings(
                    b, mobility.src, mobility.dst
                )
                predicted = self.capacity_model.predict_delivery_time(edge_emb)
                diffs.append((predicted - Tensor(mobility.delivery_time)).abs().mean())
        # O1 terms are summed after the loop, in period order.
        o1 = sum(diffs[1:], diffs[0]) if diffs else Tensor(0.0)
        return capacity_su, o1 * (1.0 / len(TimePeriod))

    def forward(self, pairs: np.ndarray) -> Tensor:
        """Predicted normalised order counts for (region, type) pairs."""
        s_idx, types = self._pair_indices(pairs)
        capacity_su, _ = self._capacity_pass()
        return self.recommender(s_idx, types, capacity_su)

    def loss(self, pairs: np.ndarray, targets: np.ndarray) -> Tuple[Tensor, float, float]:
        """Joint loss (Eq. 17).  Returns (loss, O2 value, O1 value)."""
        s_idx, types = self._pair_indices(pairs)
        capacity_su, o1 = self._capacity_pass()
        predictions = self.recommender(s_idx, types, capacity_su)
        o2 = mse_loss(predictions, targets)
        total = o2 + o1 * self.config.beta
        return total, float(o2.data), float(o1.data)

    def predict(self, pairs: np.ndarray) -> np.ndarray:
        """Inference-mode predictions as a numpy array."""
        was_training = self.training
        self.eval()
        try:
            return self.forward(pairs).numpy().copy()
        finally:
            if was_training:
                self.train()

    def export_embeddings(self) -> Dict[TimePeriod, Tuple[np.ndarray, np.ndarray]]:
        """Frozen per-period propagation outputs ``{period: (h, q)}``.

        Runs the capacity pass and the full multi-graph propagation once in
        eval mode (dropout off) and returns plain numpy copies of the
        store-region and store-type embeddings for every period.  These are
        query-independent: scoring any (region, type) pair afterwards only
        needs a gather + time attention + the predictor MLP, which is what
        :class:`repro.serve.ModelSnapshot` exploits.
        """
        was_training = self.training
        self.eval()
        try:
            capacity_su, _ = self._capacity_pass()
            per_period = self.recommender.propagate_periods(capacity_su)
            return {
                period: (h.data.copy(), q.data.copy())
                for period, (h, q) in per_period.items()
            }
        finally:
            if was_training:
                self.train()

    def period_attention(self, pairs: np.ndarray) -> np.ndarray:
        """Attention over periods per pair, shape ``(K, P)``.

        Runs an inference pass and returns the time semantics-level
        attention distribution (averaged over heads) -- which periods the
        model weighs for each (region, type) pair.  Requires
        ``time_attention=True``.
        """
        if not self.config.time_attention:
            raise ValueError("period_attention requires time_attention=True")
        self.predict(pairs)
        weights = self.recommender.time_attention.last_weights  # (P, K, H)
        if weights is None:  # pragma: no cover - defensive
            raise RuntimeError("no forward pass recorded attention weights")
        return weights.mean(axis=2).T.copy()
