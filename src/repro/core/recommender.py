"""Heterogeneous multi-graph based recommendation model (Section III-E).

Five steps, mirroring Fig. 9:

1. *Node attributes fusion*: ID embeddings fused with geographic features
   (``h_s = sigma(W_S [h'_s, f_s])`` etc.).
2. *Edge attributes fusion*: S-U edge attributes concatenated with the
   courier capacity edge embedding from the capacity model.
3. *Node-level aggregation* (Eqs. 7-12): store-region, customer-region and
   store-type embeddings updated for ``l`` layers using the edge-type and
   edge-attribute aware multi-head attention ``Aggre``.
4. *Time semantics-level aggregation* (Eqs. 13-15): per-(s, a) embeddings
   from each period combined with multi-head attention over periods.
5. *Prediction* (Eq. 16): an MLP maps the fused embedding to the order
   count; the MSE is the main loss ``O2``.

Ablations: ``node_attention=False`` swaps ``Aggre`` for mean aggregation
(w/o NA); ``time_attention=False`` averages the periods (w/o SA);
``use_preferences=False`` drops the S-U and U-A edges (half of w/o CoCu).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.periods import TimePeriod
from ..graphs.hetero import RegionTypeHeteroMultiGraph
from ..nn import (
    MLP,
    Dropout,
    Embedding,
    FactoredEdgeAttr,
    Linear,
    MeanSegmentAggregation,
    Module,
    ModuleList,
    MultiHeadSegmentAttention,
)
from ..tensor import (
    Tensor,
    concat,
    fast_kernels_enabled,
    gather_rows,
    period_attention,
    softmax,
    stack,
)
from ..tensor import plan as _plan
from ..tensor.segment import invalidate_plans_for


def _make_aggregator(
    node_attention: bool,
    query_dim: int,
    source_dim: int,
    edge_dim: int,
    num_heads: int,
    head_dim: int,
) -> Module:
    if node_attention:
        return MultiHeadSegmentAttention(
            query_dim=query_dim,
            source_dim=source_dim,
            edge_dim=edge_dim,
            num_heads=num_heads,
            head_dim=head_dim,
        )
    return MeanSegmentAggregation(source_dim, num_heads * head_dim)


class CapacityEdgeFactors:
    """Per-period capacity edge embeddings in factored form.

    The capacity model's S-U edge embedding is
    ``concat([b[dst_regions], b[src_regions]])`` for the period's region
    embedding table ``b`` (``num_regions`` rows).  The fast path hands the
    table and the endpoint index arrays to the aggregator ungathered (as a
    :class:`repro.nn.FactoredEdgeAttr`), so the fusion layer projects ``b``
    at table size instead of running an E-row matmul over gathered copies.
    """

    __slots__ = ("values", "dst_regions", "src_regions")

    def __init__(
        self, values: Tensor, dst_regions: np.ndarray, src_regions: np.ndarray
    ) -> None:
        self.values = values
        self.dst_regions = dst_regions
        self.src_regions = src_regions

    def dense(self) -> Tensor:
        """The equivalent gathered ``(E, 2 * d1)`` edge-embedding tensor."""
        return concat(
            [
                gather_rows(self.values, self.dst_regions),
                gather_rows(self.values, self.src_regions),
            ],
            axis=1,
        )


class _EdgeSet:
    """Edge endpoint arrays + attribute tensors for one propagation pass.

    A pass may cover a single period (the per-period reference) or all
    periods stacked into one block-diagonal graph with node indices offset
    per period (the batched fast path) -- the node-level layer is agnostic
    to which.
    """

    __slots__ = (
        "sa_src_s",
        "sa_dst_a",
        "sa_attr",
        "su_src_u",
        "su_dst_s",
        "su_attr",
        "ua_src_a",
        "ua_dst_u",
        "ua_attr",
    )

    def __init__(
        self,
        sa_src_s: np.ndarray,
        sa_dst_a: np.ndarray,
        sa_attr: Tensor,
        su_src_u: np.ndarray,
        su_dst_s: np.ndarray,
        su_attr: Optional[Tensor],
        ua_src_a: np.ndarray,
        ua_dst_u: np.ndarray,
        ua_attr: Optional[Tensor],
    ) -> None:
        self.sa_src_s = sa_src_s
        self.sa_dst_a = sa_dst_a
        self.sa_attr = sa_attr
        self.su_src_u = su_src_u
        self.su_dst_s = su_dst_s
        self.su_attr = su_attr
        self.ua_src_a = ua_src_a
        self.ua_dst_u = ua_dst_u
        self.ua_attr = ua_attr

    def with_su_attr(self, su_attr: Tensor) -> "_EdgeSet":
        """A copy of this edge set with a different S-U attribute tensor."""
        return _EdgeSet(
            self.sa_src_s,
            self.sa_dst_a,
            self.sa_attr,
            self.su_src_u,
            self.su_dst_s,
            su_attr,
            self.ua_src_a,
            self.ua_dst_u,
            self.ua_attr,
        )


class _NodeLevelLayer(Module):
    """One round of node-level aggregation over all edge types (Eqs. 7-9)."""

    def __init__(
        self,
        d2: int,
        su_edge_dim: int,
        num_heads: int,
        node_attention: bool,
    ) -> None:
        super().__init__()
        if d2 % num_heads:
            raise ValueError(f"embedding size {d2} not divisible by {num_heads} heads")
        head_dim = d2 // num_heads
        make = lambda src_dim, edge_dim: _make_aggregator(  # noqa: E731
            node_attention, d2, src_dim, edge_dim, num_heads, head_dim
        )
        # One aggregator (and thus one W_e) per edge type/direction.
        self.su = make(d2, su_edge_dim)  # customer-region -> store-region
        self.sa_to_s = make(d2, 3)  # type -> store-region
        self.ua = make(d2, 1)  # type -> customer-region
        self.sa_to_a = make(d2, 3)  # store-region -> type
        self.w_s = Linear(d2, d2)
        self.w_u = Linear(d2, d2)
        self.w_a = Linear(d2, d2)

    def forward(
        self,
        h: Tensor,
        z: Tensor,
        q: Tensor,
        edges: _EdgeSet,
        use_preferences: bool,
    ):
        # Store-region update (Eq. 7): customers in scope + incident types.
        agg_s = self.sa_to_s(h, q, edges.sa_dst_a, edges.sa_src_s, edges.sa_attr)
        if use_preferences:
            agg_s = agg_s + self.su(
                h, z, edges.su_src_u, edges.su_dst_s, edges.su_attr
            )
        h_new = self.w_s(agg_s + h).relu()

        # Customer-region update (Eq. 8): preferred types.
        if use_preferences:
            agg_u = self.ua(z, q, edges.ua_src_a, edges.ua_dst_u, edges.ua_attr)
            z_new = self.w_u(agg_u + z).relu()
        else:
            z_new = self.w_u(z).relu()

        # Store-type update (Eq. 9): interacting store-regions.
        agg_a = self.sa_to_a(q, h, edges.sa_src_s, edges.sa_dst_a, edges.sa_attr)
        q_new = self.w_a(agg_a + q).relu()
        return h_new, z_new, q_new


class _TimeSemanticsAttention(Module):
    """Multi-head attention over periods (Eqs. 13-15).

    After each forward pass, :attr:`last_weights` holds the attention
    distribution over periods, shape ``(P, K, H)`` -- the interpretability
    signal behind the paper's claim that "various types of stores are
    sensitive to different periods".
    """

    def __init__(self, dim: int, num_heads: int) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by {num_heads} time heads")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.key_proj = Linear(dim, dim, bias=False)
        self.query_proj = Linear(dim, dim, bias=False)
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.last_weights: Optional[np.ndarray] = None

    def forward(self, stacked: Tensor) -> Tensor:
        """``stacked`` has shape (P, K, dim); returns (K, dim)."""
        periods, k, dim = stacked.shape
        flat = stacked.reshape(periods * k, dim)
        if fast_kernels_enabled():
            return self.attend_flat(flat, periods)
        keys = self.key_proj(flat).reshape(periods, k, self.num_heads, self.head_dim)
        queries = self.query_proj(flat).reshape(
            periods, k, self.num_heads, self.head_dim
        )
        scores = (keys * queries).sum(axis=3) * self.scale  # (P, K, H)
        weights = softmax(scores, axis=0)
        if not self.training:
            # The interpretability signal is only consumed by offline
            # analyses (period_attention); copying the (P, K, H) weights on
            # every training forward is pure allocation churn.
            self.last_weights = weights.data.copy()
        mixed = (keys * weights.expand_dims(3)).sum(axis=0)  # (K, H, hd)
        return mixed.reshape(k, dim).relu()

    def attend_flat(self, flat: Tensor, periods: int) -> Tensor:
        """Fused attention over a period-major ``(P*K, dim)`` tensor.

        One autograd node (see :func:`repro.tensor.period_attention`); the
        batched forward calls this directly to skip the stack/reshape.
        """
        out, weights = period_attention(
            flat,
            self.key_proj.weight,
            self.query_proj.weight,
            periods,
            self.num_heads,
            self.scale,
        )
        if not self.training:
            self.last_weights = weights
        return out


class HeteroRecommender(Module):
    """The demand-side model: multi-graph propagation + order prediction."""

    def __init__(
        self,
        graph: RegionTypeHeteroMultiGraph,
        d2: int = 40,
        node_heads: int = 5,
        time_heads: int = 2,
        num_layers: int = 2,
        capacity_edge_dim: int = 0,
        dropout: float = 0.1,
        node_attention: bool = True,
        time_attention: bool = True,
        use_preferences: bool = True,
        product_channel: bool = True,
        commercial_in_predictor: bool = True,
    ) -> None:
        super().__init__()
        self.graph = graph
        self.num_layers = num_layers
        self.use_preferences = use_preferences
        self.time_attention_enabled = time_attention
        feature_dim = graph.store_features.shape[1]

        self.store_embedding = Embedding(graph.num_store_nodes, d2)
        self.customer_embedding = Embedding(graph.num_customer_nodes, d2)
        self.type_embedding = Embedding(graph.num_types, d2)
        self.fuse_store = Linear(d2 + feature_dim, d2)  # W_S (fusion)
        self.fuse_customer = Linear(d2 + feature_dim, d2)  # W_U (fusion)
        self.dropout = Dropout(dropout)

        su_edge_dim = 2 + capacity_edge_dim  # [distance, transactions, em^c]
        self.layers = ModuleList(
            _NodeLevelLayer(d2, su_edge_dim, node_heads, node_attention)
            for _ in range(num_layers)
        )
        # H_sa,t = [h_s,t, q_a,t, h_s,t * q_a,t]: the elementwise product
        # channel lets the predictor express region-x-type interactions
        # directly (a purely additive first layer cannot fit per-pair
        # variation; see DESIGN.md).  Both it and the commercial predictor
        # inputs are flags so their contribution can be ablated.
        self.product_channel = product_channel
        self.commercial_in_predictor = commercial_in_predictor
        pair_dim = (3 if product_channel else 2) * d2
        self.time_attention = _TimeSemanticsAttention(pair_dim, time_heads)
        # The predictor additionally sees the pair's own observable S-A
        # commercial attributes (competitiveness, complementarity) -- the
        # graph carries them on S-A edges but attention mixes them across a
        # region's types, losing the pair-specific value.  The history-order
        # channel is deliberately NOT fed here (for training pairs it equals
        # the target, a pure shortcut).
        head_in = pair_dim + (2 if commercial_in_predictor else 0)
        self.predictor = MLP(head_in, [d2], 1, dropout=dropout)
        self._d2 = d2
        self._pair_commercial = self._dense_commercial(graph)

        self._store_features = Tensor(graph.store_features)
        self._customer_features = Tensor(graph.customer_features)
        # Hoisted per-forward constants: edge attribute matrices never
        # change after graph construction, so wrap them once instead of
        # re-allocating a Tensor per layer per period per step.
        self._sa_attr = Tensor(graph.sa_attr)
        self._su_attr = {
            period: Tensor(graph.subgraph(period).su_attr) for period in TimePeriod
        }
        self._ua_attr = {
            period: Tensor(graph.subgraph(period).ua_attr) for period in TimePeriod
        }
        # Dense commercial rows gathered per (pairs) identity -- full-batch
        # training reuses the same pair arrays every epoch.
        self._commercial_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # All periods stacked into one block-diagonal graph (built lazily):
        # node index of store s in period p is ``s + p * num_store_nodes``,
        # and likewise for customer and type nodes.
        self._batched_edges: Optional[_EdgeSet] = None
        # Period-offset region index arrays for factored capacity attributes
        # on the batched path (row of region r in period p is ``r + p * R``).
        self._batched_cap_idx: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Period-offset pair index arrays for the batched forward, cached by
        # pair-array identity like the commercial rows.
        self._offset_idx_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # (rows, cols) of the underlying region grid, attached by O2SiteRec;
        # required (with the fast kernels) for grid-tile banded propagation
        # (repro.core.shard) to engage.
        self.grid_shape: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def _fuse_base(self):
        """Step 1 (pre-dropout): node attribute fusion.

        Deterministic in the parameters, hence identical for every period
        -- the fast path computes it once per forward and only the dropout
        masks differ per period.
        """
        h0 = self.fuse_store(
            concat([self.store_embedding(), self._store_features], axis=1)
        ).relu()
        z0 = self.fuse_customer(
            concat([self.customer_embedding(), self._customer_features], axis=1)
        ).relu()
        q0 = self.type_embedding()
        return h0, z0, q0

    def _period_edges(self, period: TimePeriod, capacity_su: Optional[Tensor]):
        """One period's edge set (step 2: S-U attrs fused with capacity)."""
        subgraph = self.graph.subgraph(period)
        fast = fast_kernels_enabled()
        su_attr = self._su_attr[period] if fast else Tensor(subgraph.su_attr)
        if isinstance(capacity_su, CapacityEdgeFactors):
            su_attr = FactoredEdgeAttr(
                su_attr,
                [
                    (capacity_su.values, capacity_su.dst_regions),
                    (capacity_su.values, capacity_su.src_regions),
                ],
            )
        elif capacity_su is not None:
            su_attr = concat([su_attr, capacity_su], axis=1)
        return _EdgeSet(
            sa_src_s=self.graph.sa_src_s,
            sa_dst_a=self.graph.sa_dst_a,
            sa_attr=self._sa_attr if fast else Tensor(self.graph.sa_attr),
            su_src_u=subgraph.su_src_u,
            su_dst_s=subgraph.su_dst_s,
            su_attr=su_attr,
            ua_src_a=subgraph.ua_src_a,
            ua_dst_u=subgraph.ua_dst_u,
            ua_attr=self._ua_attr[period] if fast else Tensor(subgraph.ua_attr),
        )

    # -- batched all-periods propagation --------------------------------
    def _build_batched(self) -> _EdgeSet:
        """Stack all periods into one block-diagonal edge set.

        Node indices are offset by ``period * num_nodes`` per node family,
        so a single layer pass over the stacked arrays computes exactly the
        same messages as one pass per period -- with 1/P the Python and
        kernel-dispatch overhead and P-fold taller matmuls.
        """
        g = self.graph
        periods = list(TimePeriod)
        n_s, n_u, n_t = g.num_store_nodes, g.num_customer_nodes, g.num_types
        subs = [g.subgraph(p) for p in periods]
        rng = range(len(periods))
        return _EdgeSet(
            sa_src_s=np.concatenate([g.sa_src_s + p * n_s for p in rng]),
            sa_dst_a=np.concatenate([g.sa_dst_a + p * n_t for p in rng]),
            sa_attr=Tensor(np.tile(g.sa_attr, (len(periods), 1))),
            su_src_u=np.concatenate([s.su_src_u + p * n_u for p, s in zip(rng, subs)]),
            su_dst_s=np.concatenate([s.su_dst_s + p * n_s for p, s in zip(rng, subs)]),
            su_attr=Tensor(np.concatenate([s.su_attr for s in subs], axis=0)),
            ua_src_a=np.concatenate([s.ua_src_a + p * n_t for p, s in zip(rng, subs)]),
            ua_dst_u=np.concatenate([s.ua_dst_u + p * n_u for p, s in zip(rng, subs)]),
            ua_attr=Tensor(np.concatenate([s.ua_attr for s in subs], axis=0)),
        )

    def _propagate_batched(
        self, capacity_su: Optional[Dict[TimePeriod, Tensor]] = None
    ) -> Tuple[Tensor, Tensor]:
        """Steps 2-3 for all periods at once; returns stacked ``(h, q)``.

        Row block ``p`` of the outputs is period ``p``'s embedding matrix.
        Dropout masks are drawn in the same order as the per-period
        reference, so both consume an identical RNG stream.  The layers run
        as the dense loop below or, once the shard gate engages, as the
        grid-tile band sweep (:mod:`repro.core.shard`) -- in eval and in
        training alike, bit-identical either way.
        """
        periods = list(TimePeriod)
        if self._batched_edges is None:
            self._batched_edges = self._build_batched()
        edges = self._batched_edges
        if capacity_su is not None and isinstance(
            capacity_su[periods[0]], CapacityEdgeFactors
        ):
            b_all = concat([capacity_su[p].values for p in periods], axis=0)
            if self._batched_cap_idx is None:
                num_regions = capacity_su[periods[0]].values.shape[0]
                self._batched_cap_idx = (
                    np.concatenate(
                        [
                            capacity_su[p].dst_regions + i * num_regions
                            for i, p in enumerate(periods)
                        ]
                    ),
                    np.concatenate(
                        [
                            capacity_su[p].src_regions + i * num_regions
                            for i, p in enumerate(periods)
                        ]
                    ),
                )
            dst_all, src_all = self._batched_cap_idx
            edges = edges.with_su_attr(
                FactoredEdgeAttr(
                    edges.su_attr, [(b_all, dst_all), (b_all, src_all)]
                )
            )
        elif capacity_su is not None:
            cap = concat([capacity_su[p] for p in periods], axis=0)
            edges = edges.with_su_attr(concat([edges.su_attr, cap], axis=1))

        h0, z0, q0 = self._fuse_base()
        dropped = [(self.dropout(h0), self.dropout(z0)) for _ in periods]
        h = concat([d[0] for d in dropped], axis=0)
        z = concat([d[1] for d in dropped], axis=0)
        q = concat([q0] * len(periods), axis=0)
        from . import shard

        tiles = shard.shard_tiles_for(self, capacity_su)
        if tiles:
            # Looked up through the module at call time, so a wrapper
            # installed on ``shard.propagate_periods_sharded`` sees the call.
            h, z, q = shard.propagate_periods_sharded(
                self, edges, h, z, q, tiles
            )
        else:
            for layer in self.layers:
                h, z, q = layer(h, z, q, edges, self.use_preferences)
        return h, q

    def propagate_per_period(
        self, capacity_su: Optional[Dict[TimePeriod, Tensor]] = None
    ) -> Dict[TimePeriod, Tuple[Tensor, Tensor]]:
        """Steps 2-3 one period at a time: the reference oracle.

        A plain serial loop over the period graphs that fuses the nodes
        afresh for each period.  The batched pass matches it to ~1e-15 in
        training: its weight gradients sum all periods' rows in one taller
        matmul.
        """
        out: Dict[TimePeriod, Tuple[Tensor, Tensor]] = {}
        for period in TimePeriod:
            h0, z0, q = self._fuse_base()
            h, z = self.dropout(h0), self.dropout(z0)
            cap = capacity_su.get(period) if capacity_su else None
            edges = self._period_edges(period, cap)
            for layer in self.layers:
                h, z, q = layer(h, z, q, edges, self.use_preferences)
            out[period] = (h, q)
        return out

    def propagate_periods(
        self, capacity_su: Optional[Dict[TimePeriod, Tensor]] = None
    ) -> Dict[TimePeriod, Tuple[Tensor, Tensor]]:
        """Steps 2-3 for every period: ``{period: (h, q)}``.

        The propagation is completely query-independent -- only the final
        gather + time attention + predictor depend on the requested pairs --
        so these outputs can be frozen once per trained model and reused for
        every online query (see :mod:`repro.serve`).

        On the fast kernels this is one batched pass over the period-stacked
        graph (its layers swept over grid-tile row bands once the shard gate
        engages); the reference kernels run :meth:`propagate_per_period`.
        The path never depends on the host's core count.
        """
        if not fast_kernels_enabled():
            return self.propagate_per_period(capacity_su)

        h_b, q_b = self._propagate_batched(capacity_su)
        n_s, n_t = self.graph.num_store_nodes, self.graph.num_types
        return {
            period: (
                h_b[p * n_s : (p + 1) * n_s],
                q_b[p * n_t : (p + 1) * n_t],
            )
            for p, period in enumerate(TimePeriod)
        }

    def forward(
        self,
        pairs_store_idx: np.ndarray,
        pairs_type: np.ndarray,
        capacity_su: Optional[Dict[TimePeriod, Tensor]] = None,
    ) -> Tensor:
        """Predict normalised order counts for (store-node, type) pairs."""
        periods = list(TimePeriod)
        if fast_kernels_enabled():
            # Batched path: gather all periods' pair rows straight from the
            # stacked embeddings with period-offset indices -- one gather
            # per node family instead of one per family per period.
            h_b, q_b = self._propagate_batched(capacity_su)
            idx_s, idx_a = self._offset_pair_indices(pairs_store_idx, pairs_type)
            k = len(pairs_store_idx)
            h_pairs = gather_rows(h_b, idx_s)
            q_pairs = gather_rows(q_b, idx_a)
            blocks = [h_pairs, q_pairs]
            if self.product_channel:
                blocks.append(h_pairs * q_pairs)
            flat = concat(blocks, axis=1)  # (P*K, pair_dim), period-major
            if self.time_attention_enabled:
                # Row p*K + j of ``flat`` equals row j of period p's pair
                # embedding bit-for-bit, so the fused attention node sees
                # the very same operands as the per-period path's
                # stack+reshape -- the predictions stay bitwise identical.
                fused = self.time_attention.attend_flat(flat, len(periods))
            else:
                pair_dim = (3 if self.product_channel else 2) * self._d2
                stacked = flat.reshape(len(periods), k, pair_dim)
                fused = stacked.mean(axis=0)  # w/o SA ablation
        else:
            per_period: List[Tensor] = []
            per_period_hq = self.propagate_per_period(capacity_su)
            for period in periods:
                h_t, q_t = per_period_hq[period]
                h_pairs = gather_rows(h_t, pairs_store_idx)
                q_pairs = gather_rows(q_t, pairs_type)
                blocks = [h_pairs, q_pairs]
                if self.product_channel:
                    blocks.append(h_pairs * q_pairs)
                per_period.append(concat(blocks, axis=1))
            stacked = stack(per_period, axis=0)  # (P, K, pair_dim)
            if self.time_attention_enabled:
                fused = self.time_attention(stacked)
            else:
                fused = stacked.mean(axis=0)  # w/o SA ablation
        if self.commercial_in_predictor:
            fused = concat(
                [fused, self._commercial_rows(pairs_store_idx, pairs_type)], axis=1
            )
        return self.predictor(fused).squeeze(1)

    def _offset_pair_indices(
        self, pairs_store_idx: np.ndarray, pairs_type: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Period-offset (P*K,) index arrays into the stacked embeddings.

        Cached by pair-array identity so full-batch training reuses the
        arrays (and the segment plans built on them) every epoch.
        """
        key = (id(pairs_store_idx), id(pairs_type))
        entry = self._offset_idx_cache.get(key)
        if entry is not None and entry[0] is pairs_store_idx and entry[1] is pairs_type:
            self._offset_idx_cache.move_to_end(key)
            return entry[2], entry[3]
        num_periods = len(TimePeriod)
        offs = np.arange(num_periods, dtype=np.int64)[:, None]
        s = np.asarray(pairs_store_idx, dtype=np.int64)[None, :]
        a = np.asarray(pairs_type, dtype=np.int64)[None, :]
        idx_s = (s + offs * self.graph.num_store_nodes).reshape(-1)
        idx_a = (a + offs * self.graph.num_types).reshape(-1)
        if _plan.tracing():
            # Compiled-step bind hook: the pair arrays are refreshed in
            # place per replay (see O2SiteRec._pair_indices), so recompute
            # the offset arrays from them -- same expressions as above --
            # and drop any segment plans built over the old contents.
            ns, nt = self.graph.num_store_nodes, self.graph.num_types

            def _rebind_offsets() -> None:
                s2 = np.asarray(pairs_store_idx, dtype=np.int64)[None, :]
                a2 = np.asarray(pairs_type, dtype=np.int64)[None, :]
                np.copyto(idx_s, (s2 + offs * ns).reshape(-1))
                np.copyto(idx_a, (a2 + offs * nt).reshape(-1))
                invalidate_plans_for(idx_s)
                invalidate_plans_for(idx_a)

            _plan.record_bind(_rebind_offsets)
        self._offset_idx_cache[key] = (pairs_store_idx, pairs_type, idx_s, idx_a)
        while len(self._offset_idx_cache) > 8:
            self._offset_idx_cache.popitem(last=False)
        return idx_s, idx_a

    def _commercial_rows(
        self, pairs_store_idx: np.ndarray, pairs_type: np.ndarray
    ) -> Tensor:
        """Dense commercial attributes for the requested pairs.

        The gather is a constant for a fixed pair of index arrays, so it is
        cached by array identity -- full-batch training and repeated
        evaluation hit the cache every epoch.
        """
        key = (id(pairs_store_idx), id(pairs_type))
        entry = self._commercial_cache.get(key)
        if entry is not None and entry[0] is pairs_store_idx and entry[1] is pairs_type:
            self._commercial_cache.move_to_end(key)
            return entry[2]
        value = Tensor(self._pair_commercial[pairs_store_idx, pairs_type])
        if _plan.tracing():
            dense = self._pair_commercial
            vdata = value.data

            def _rebind_commercial() -> None:
                np.copyto(vdata, dense[pairs_store_idx, pairs_type])

            _plan.record_bind(_rebind_commercial)
        self._commercial_cache[key] = (pairs_store_idx, pairs_type, value)
        while len(self._commercial_cache) > 8:
            self._commercial_cache.popitem(last=False)
        return value

    @staticmethod
    def _dense_commercial(graph: RegionTypeHeteroMultiGraph) -> np.ndarray:
        """Dense (nS, T, 2) competitiveness/complementarity from S-A edges."""
        dense = np.zeros((graph.num_store_nodes, graph.num_types, 2))
        dense[graph.sa_src_s, graph.sa_dst_a] = graph.sa_attr[:, :2]
        return dense
