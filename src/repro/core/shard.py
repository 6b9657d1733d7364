"""Grid-tile banded propagation: one engine for eval and training.

At paper scale (a 14x14 region grid) one process propagates all periods in
well under a second; at metropolis scale (10k+ regions, millions of S-U
edges) the edge-sized attention kernels dominate wall-clock, and their
full-graph intermediates dominate memory.  This module runs the node-level
layers (Eqs. 7-9) of the period-batched pass
(:meth:`HeteroRecommender._propagate_batched`) over row bands of the region
grid, byte for byte equal to its dense layer loop in eval and in training.

What is banded
--------------
Regions are laid out row-major and the store/customer node lists are sorted
by region id, so a partition into horizontal row bands
(:class:`repro.graphs.partition.GridTilePartition`) makes every band's node
set a *contiguous index range*.  The batched pass stacks all periods into
one block-diagonal graph whose destination-sorted edge arrays stay
*globally* sorted under the period offsets, so the partition extends to
``periods x tiles`` bands (:func:`repro.graphs.partition.stacked_band_cuts`)
and each band owns a contiguous edge slice.  For each layer, the three
destination-sorted relations -- type->store (``sa_to_s``), customer->store
(``su``) and type->customer (``ua``) -- run as **one autograd node per
relation** that sweeps its bands instead of the dense three-node chain
(edge projection -> fused message -> segment attention) over the full edge
set:

* **forward**: each band recomputes its block-cover edge projection, fused
  messages and keys (:func:`_band_aggregate`), and only the stitched
  ``(N, H*hd)`` value plus its relu sign mask are recorded.  The dense path
  pins the ``(E, F)`` relu mask and the ``(E, H)`` attention weights/leaky
  slopes of every relation of every layer until backward; the banded tape
  pins none of that.
* **backward** (training): each band rebuilds its fused-message checkpoint
  and keys from the block cover -- the halo ring: cover rows beyond the
  owned edge window, counted in :func:`shard_train_stats` -- and runs the
  segment-local attention backward.  Parameter gradients are reduced with
  the block-deterministic :func:`~repro.tensor.ops.matmul_grad_blocked` /
  :func:`~repro.tensor.ops.matmul_blocked` pair in ascending band (block)
  order.

The unsorted store->type hub direction (``sa_to_a``) keeps the dense
autograd call: its destination order admits no contiguous banding, and it
is a factor ``P * tiles`` smaller than the banded relations.

Why the bytes match
-------------------
Edge-sized matmuls (the edge-attribute projection and the key projection)
are evaluated with :func:`repro.tensor.ops.matmul_blocked` in *both* the
dense layer loop and the bands: fixed 4096-row blocks anchored at absolute
edge offsets, so a band recomputing the covering blocks of its edge range
reproduces the dense bytes exactly (BLAS results vary bitwise with the row
count, so naive subset matmuls would not).  Segment reductions use the same
:class:`~repro.tensor.segment.SegmentPlan` kernels, which reduce run-locally
per segment -- a band's segments see the same edges in the same order as
the full run.

Eval and training
-----------------
One gate, :func:`shard_tiles_for`, decides for both modes and records its
reason under the model's mode (:func:`shard_gate_reason` for eval,
:func:`shard_train_gate_reason` for training).  :func:`set_shard_tiles` /
:func:`use_shard_tiles` force a band count (``0`` disables banding in both
modes); otherwise it engages automatically from 4096 regions up.  The
eval entry points run under
:func:`repro.tensor.no_grad`, so an eval sweep records no backward and
skips the per-band attention stash only the backward reads.

Execution
---------
The band sweep runs in-process and cache-tiled -- band intermediates stay
resident instead of streaming full ``(E, F)`` blocks through DRAM per
kernel -- and forks nothing, whatever ``O2_NUM_PROCS`` says: fanning the
bands over a process pool lost to it in training and in eval on every
host measured (DESIGN.md section 12).

Compiled-step interplay: a banded step builds data-dependent band closures
a replay plan cannot pin, so an active capture is *poisoned* on entry
(never a silent double-path) and the step runs eager; the decision is
counted on the memprof ``plan:`` line as ``shard_fallbacks``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..data.periods import TimePeriod
from ..graphs.partition import (
    GridTilePartition,
    band_node_splits,
    stacked_band_cuts,
)
from ..tensor import Tensor, fast_kernels_enabled, is_grad_enabled
from ..tensor import cnative as _cnative
from ..tensor import plan as _plan
from ..tensor import pool as _pool
from ..tensor.ops import (
    MATMUL_BLOCK,
    edge_message_value,
    matmul_blocked,
    matmul_grad_blocked,
)
from ..tensor.segment import SegmentPlan, get_plan

__all__ = [
    "DEFAULT_SHARD_TILES",
    "propagate_periods_sharded",
    "reset_shard_train_stats",
    "resolve_shard_tiles",
    "set_shard_tiles",
    "shard_gate_reason",
    "shard_tiles_for",
    "shard_train_gate_reason",
    "shard_train_stats",
    "use_shard_tiles",
]

DEFAULT_SHARD_TILES = 8
_AUTO_MIN_REGIONS = 4096
_NEGATIVE_SLOPE = 0.2

_tile_override: Optional[int] = None

# Why the last shard_tiles_for call said no (or yes), one short string per
# model mode, surfaced by memprof reports and the serving stats endpoint so
# "running dense" is always explained.
_gate_reason = "not evaluated yet"
_train_gate_reason = "not evaluated yet"


def shard_gate_reason() -> str:
    """Why the last eval-mode :func:`shard_tiles_for` call engaged (or not)."""
    return _gate_reason


def shard_train_gate_reason() -> str:
    """Why the last training-mode :func:`shard_tiles_for` call engaged."""
    return _train_gate_reason


def set_shard_tiles(tiles: Optional[int]) -> Optional[int]:
    """Force the shard tile count (``<=1`` disables, ``None`` = auto).

    Returns the previous override.
    """
    global _tile_override
    previous = _tile_override
    _tile_override = None if tiles is None else int(tiles)
    return previous


@contextmanager
def use_shard_tiles(tiles: Optional[int]) -> Iterator[None]:
    """Scoped :func:`set_shard_tiles` (no-op when ``tiles`` is ``None``)."""
    if tiles is None:
        yield
        return
    previous = set_shard_tiles(tiles)
    try:
        yield
    finally:
        set_shard_tiles(previous)


def resolve_shard_tiles(num_regions: int) -> int:
    """Requested tile count for a ``num_regions`` grid (0 = sharding off).

    A :func:`set_shard_tiles` override wins; otherwise the automatic
    threshold gives :data:`DEFAULT_SHARD_TILES` tiles once the grid
    reaches ``_AUTO_MIN_REGIONS`` (4096) regions: band-local evaluation
    keeps every intermediate cache-resident, which beats the monolithic
    sweep on one core (see ``BENCH_shard.json``).
    """
    if _tile_override is not None:
        tiles = _tile_override
    elif num_regions >= _AUTO_MIN_REGIONS:
        tiles = DEFAULT_SHARD_TILES
    else:
        tiles = 0
    return tiles if tiles > 1 else 0


def _aggregator_gate_reason(recommender, capacity_su) -> Optional[str]:
    """Model-shape preconditions; ``None`` when they hold."""
    from ..nn.attention import MultiHeadSegmentAttention

    for layer in recommender.layers:
        for agg in (layer.su, layer.sa_to_s, layer.ua, layer.sa_to_a):
            if not isinstance(agg, MultiHeadSegmentAttention):
                return "non-attention aggregator (mean ablation)"
    if capacity_su is not None:
        from .recommender import CapacityEdgeFactors

        if not all(
            isinstance(cap, CapacityEdgeFactors) for cap in capacity_su.values()
        ):
            return "dense capacity edge attributes"
    return None


def _gate(recommender, capacity_su) -> Tuple[int, str]:
    """Row-band count and reason for one propagation pass."""
    if recommender is None:
        # Baseline models carry no recommender; nothing to band.
        return 0, "no recommender (baseline model)"
    grid_shape = getattr(recommender, "grid_shape", None)
    if grid_shape is None:
        return 0, "no grid shape attached to the recommender"
    if not fast_kernels_enabled():
        return 0, "reference kernels (fast attention path off)"
    reason = _aggregator_gate_reason(recommender, capacity_su)
    if reason is not None:
        return 0, reason
    rows, cols = grid_shape
    tiles = min(resolve_shard_tiles(rows * cols), rows)
    if tiles > 1:
        return tiles, f"engaged: {tiles} row bands over a {rows}x{cols} grid"
    if _tile_override is not None:
        return 0, "disabled (tile count <= 1: set_shard_tiles)"
    return 0, (
        f"grid below the {_AUTO_MIN_REGIONS}-region auto threshold "
        f"({rows * cols} regions) and no tile override"
    )


def shard_tiles_for(recommender, capacity_su=None) -> int:
    """Row-band count the batched pass will sweep (0 = dense layer loop).

    Banding needs a grid shape (attached by
    :class:`repro.core.model.O2SiteRec`), the fast-kernel attention path,
    attention aggregators on every relation, and factored (or absent)
    capacity edge attributes.  The sweep forks nothing, so a harness cell
    running inside a :func:`repro.parallel.process_map` worker bands like
    any other process.  The tile count is clamped to the grid's row count
    so every band owns at least one region row.  The reason is recorded
    under the model's mode: :func:`shard_train_gate_reason` in training,
    :func:`shard_gate_reason` in eval.  Baseline models (no recommender)
    reach the gate only through the Trainer's step guard, so theirs counts
    as training.
    """
    global _gate_reason, _train_gate_reason
    tiles, reason = _gate(recommender, capacity_su)
    if getattr(recommender, "training", True):
        _train_gate_reason = reason
    else:
        _gate_reason = reason
    return tiles


# ---------------------------------------------------------------------------
# Band forward kernels (values only -- the banded node records the backward),
# mirroring repro.tensor.ops expression by expression: any edit there that
# changes forward bytes must land here too.
# ---------------------------------------------------------------------------


def _attention_value(
    keys: np.ndarray,
    q_we: np.ndarray,
    plan: SegmentPlan,
    scale: float,
    att_state: Optional[dict] = None,
) -> np.ndarray:
    """Forward of :func:`repro.tensor.ops.segment_attention`, values only.

    ``plan`` is the band's segment plan from its band-table row.
    ``att_state`` optionally receives the compiled kernel's attention
    ``weights``/``leaky`` intermediates: a training sweep stashes them per
    band so its backward can skip the softmax recompute (the stash holds
    the exact bytes the recompute would produce).  The stash buffers are
    caller-owned allocations so the scratch pool never recycles them.
    """
    num_edges, num_heads, head_dim = keys.shape
    out_dim = num_heads * head_dim
    num_segments = plan.num_segments
    if _cnative.available():
        q_c = np.ascontiguousarray(q_we)
        if att_state is not None:
            weights_c = np.empty((num_edges, num_heads))
            leaky_c = np.empty((num_edges, num_heads))
            agg = _pool.zeros((num_segments, out_dim), tag="c-att-agg")
            _cnative.seg_att_fwd(
                keys, q_c, plan, scale, _NEGATIVE_SLOPE,
                out=(weights_c, leaky_c, agg),
            )
            att_state["weights"] = weights_c
            att_state["leaky"] = leaky_c
        else:
            _, _, agg = _cnative.seg_att_fwd(
                keys, q_c, plan, scale, _NEGATIVE_SLOPE
            )
        return np.multiply(agg, agg > 0)
    q_edge = q_we[plan.segment_ids]
    scores = np.einsum("ehd,ehd->eh", keys, q_edge)
    scores = np.multiply(scores, scale)
    leaky = np.where(scores > 0, 1.0, _NEGATIVE_SLOPE)
    act = np.multiply(scores, leaky)
    sorted_scores = plan.sort(act)
    seg_max = plan.max_sorted(sorted_scores)
    spread_max = plan.spread_runs(seg_max)
    shifted = np.subtract(sorted_scores, spread_max)
    exp = np.exp(shifted)
    seg_sum = plan.sum_sorted(exp)
    spread_sum = plan.spread_runs(seg_sum)
    weights = plan.unsort(np.divide(exp, spread_sum))
    weighted = np.multiply(keys, weights[:, :, None])
    agg = plan.sum(weighted.reshape(num_edges, out_dim))
    return np.multiply(agg, agg > 0)


def _band_keys(
    src: np.ndarray,
    attr: np.ndarray,
    w_edge: np.ndarray,
    pre: np.ndarray,
    bias: np.ndarray,
    key_w: np.ndarray,
    extras,
    e0: int,
    e1: int,
    num_heads: int,
    head_dim: int,
) -> np.ndarray:
    """The ``(e1 - e0, H, hd)`` attention keys of edge window ``[e0, e1)``.

    The edge-attribute and key projections run over the *block cover* of
    the window -- the smallest span of absolute
    :data:`~repro.tensor.ops.MATMUL_BLOCK` blocks containing it -- so their
    bytes match the full-range ``matmul_blocked`` output row for row.
    """
    b0, b1 = _cover(e0, e1, attr.shape[0])
    eproj = matmul_blocked(attr[b0:b1], w_edge)
    idx = np.asarray(src[b0:b1], dtype=np.int64)
    extras_loc = [
        (values, np.asarray(index[b0:b1], dtype=np.int64))
        for values, index in extras
    ]
    fused = edge_message_value(pre, eproj, bias, idx, extras_loc)
    keys_flat = matmul_blocked(fused, key_w)
    return keys_flat[e0 - b0 : e1 - b0].reshape(e1 - e0, num_heads, head_dim)


def _band_aggregate(
    src: np.ndarray,
    attr: np.ndarray,
    w_edge: np.ndarray,
    pre: np.ndarray,
    bias: np.ndarray,
    key_w: np.ndarray,
    q_we: np.ndarray,
    extras,
    lo: int,
    e0: int,
    e1: int,
    plan: SegmentPlan,
    num_heads: int,
    head_dim: int,
    scale: float,
    att_state: Optional[dict] = None,
) -> np.ndarray:
    """One relation's attention rows for the band's targets from ``lo``.

    ``[e0, e1)`` is the band's window of the destination-sorted edge
    arrays and ``plan`` the segment plan over its band-local ids
    (``dst[e0:e1] - lo``), both from the band table.  The keys come from
    :func:`_band_keys`.
    """
    n_band = plan.num_segments
    if e1 <= e0:
        return np.zeros((n_band, num_heads * head_dim))
    keys = _band_keys(
        src, attr, w_edge, pre, bias, key_w, extras, e0, e1, num_heads,
        head_dim,
    )
    return _attention_value(
        keys, q_we[lo : lo + n_band], plan, scale, att_state=att_state
    )


# ---------------------------------------------------------------------------
# Counters (consumed by repro.tensor.memprof and tests).
# ---------------------------------------------------------------------------

_stats = {
    "steps": 0,
    "evals": 0,
    "nodes": 0,
    "bands": 0,
    "halo_rows": 0,
    "halo_bytes": 0,
}


def shard_train_stats() -> dict:
    """Band-sweep counters since the last reset.

    ``steps`` counts training passes through the sweep and ``evals`` eval
    passes, so a training gate that never engaged shows ``steps == 0``
    whatever the validation passes did.  ``halo_rows``/``halo_bytes``
    count block-cover rows recomputed beyond the owned edge windows (the
    halo rings crossed by the banded backward).
    """
    return dict(_stats)


def reset_shard_train_stats() -> None:
    for key in _stats:
        _stats[key] = 0


# ---------------------------------------------------------------------------
# Band tables: per destination array, the (lo, hi, e0, e1, plan) row of
# every band, ``plan`` being the SegmentPlan over the band-local segment
# ids ``dst[e0:e1] - lo``.  The caller's ``tables`` dict (the recommender's
# ``_band_tables``) keys them by array identity -- the stacked edge arrays
# are built once per recommender -- so the plans are built once, reused by
# every pass, and released with the recommender; band ids never enter the
# global plan cache.
# ---------------------------------------------------------------------------


def _band_table(
    tables: Dict[int, tuple], dst: np.ndarray, cuts: np.ndarray
) -> List[tuple]:
    key = id(dst)
    cuts_key = tuple(int(c) for c in cuts)
    entry = tables.get(key)
    if entry is not None and entry[0] is dst and entry[1] == cuts_key:
        return entry[2]
    bounds = np.searchsorted(dst, cuts)
    table = []
    for band in range(len(cuts) - 1):
        lo, hi = int(cuts[band]), int(cuts[band + 1])
        e0, e1 = int(bounds[band]), int(bounds[band + 1])
        ids = np.subtract(np.asarray(dst[e0:e1], dtype=np.int64), lo)
        table.append((lo, hi, e0, e1, SegmentPlan(ids, hi - lo)))
    tables[key] = (dst, cuts_key, table)
    return table


# ---------------------------------------------------------------------------
# Band-local attention backward.  Mirrors both dispatch branches of
# repro.tensor.ops.segment_attention's backward expression by expression on
# the band's rows -- the attention softmax and its gradient are segment-
# local and bands never split a segment, so each band computes exactly its
# slice of the full-graph result.
# ---------------------------------------------------------------------------


def _band_att_backward(
    keys: np.ndarray,
    q_band: np.ndarray,
    gout_band: np.ndarray,
    plan: SegmentPlan,
    scale: float,
    g_q_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients (d keys, d queries) of one band's segment attention.

    ``keys`` is the band's ``(E_b, H, hd)`` key slice (recomputed from the
    block cover), ``q_band`` the ``(n_band, H, hd)`` query window,
    ``gout_band`` the relu-masked output gradient rows and ``plan`` the
    band's segment plan from its band-table row.  The attention
    weights and leaky slopes are recomputed band-locally -- the banded tape
    does not pin them -- with the same kernels as the recorded forward.
    ``g_q_out`` optionally receives the query gradient in place (the
    numpy path's band-sliced ``SegmentPlan.sum(out=...)`` variant).
    """
    num_edges, num_heads, head_dim = keys.shape
    out_dim = num_heads * head_dim
    n_band = plan.num_segments
    if _cnative.available():
        q_c = np.ascontiguousarray(q_band)
        weights, leaky, _agg = _cnative.seg_att_fwd(
            keys, q_c, plan, scale, _NEGATIVE_SLOPE
        )
        g_keys, g_q = _cnative.seg_att_bwd(
            keys, q_c, weights, leaky, gout_band, plan, scale
        )
        if g_q_out is not None:
            np.copyto(g_q_out.reshape(g_q.shape), g_q)
            g_q = g_q_out
        return g_keys, g_q
    # Reference-kernel branch: recompute the softmax forward, then the
    # backward chain, exactly as ops.segment_attention writes them.
    ids = plan.segment_ids
    q_edge = _pool.take_rows(q_band, ids, tag="segatt-qedge")
    scores = np.einsum("ehd,ehd->eh", keys, q_edge)
    scores = np.multiply(scores, scale)
    leaky = np.where(scores > 0, 1.0, _NEGATIVE_SLOPE)
    act = np.multiply(scores, leaky)
    sorted_scores = plan.sort(act)
    seg_max = plan.max_sorted(sorted_scores)
    spread_max = plan.spread_runs(seg_max)
    shifted = np.subtract(sorted_scores, spread_max)
    exp = np.exp(shifted)
    seg_sum = plan.sum_sorted(exp)
    spread_sum = plan.spread_runs(seg_sum)
    weights = plan.unsort(np.divide(exp, spread_sum))

    g = _pool.take_rows(gout_band, ids, tag="segatt-bwd").reshape(
        num_edges, num_heads, head_dim
    )
    g_w = np.einsum("ehd,ehd->eh", g, keys)
    g_keys = np.multiply(g, weights[:, :, None])
    wgw = np.multiply(weights, g_w)
    inner = plan.sum(wgw)
    inner_edge = _pool.take_rows(inner, ids, tag="segatt-bwd")
    g_s = np.subtract(g_w, inner_edge)
    g_s = np.multiply(weights, g_s)
    g_s *= leaky
    g_s *= scale
    qs = np.multiply(q_edge, g_s[:, :, None])
    g_keys += qs
    ks = np.multiply(keys, g_s[:, :, None])
    if g_q_out is not None:
        g_q = plan.sum(
            ks.reshape(num_edges, out_dim), out=g_q_out.reshape(n_band, out_dim)
        ).reshape(n_band, num_heads, head_dim)
    else:
        g_q = plan.sum(ks.reshape(num_edges, out_dim)).reshape(
            n_band, num_heads, head_dim
        )
    return g_keys, g_q


# Minimum owned edge rows per band before a relation's band count is
# reduced below the gate's tile count: each band pays up to one extra
# MATMUL_BLOCK of cover recompute at each end, so bands much smaller than
# a few blocks spend more time on halo rows than on their own edges.
_MIN_BAND_ROWS = 8 * MATMUL_BLOCK


def _cover(e0: int, e1: int, num_edges: int) -> Tuple[int, int]:
    """Block cover of an edge window (see ``matmul_blocked``)."""
    b0 = (e0 // MATMUL_BLOCK) * MATMUL_BLOCK
    b1 = min(-(-e1 // MATMUL_BLOCK) * MATMUL_BLOCK, num_edges)
    return b0, b1


# ---------------------------------------------------------------------------
# The banded autograd node.
# ---------------------------------------------------------------------------


def _banded_attention(
    agg,
    dst: np.ndarray,
    src_index: np.ndarray,
    bands: List[tuple],
    prelude: dict,
    value: np.ndarray,
    att_stash: Optional[list] = None,
) -> Tensor:
    """One relation's aggregation as a single band-swept autograd node.

    Replaces the dense chain (``rows_matmul`` -> ``edge_message`` ->
    ``segment_attention``) for a destination-sorted relation.  ``prelude``
    carries the autograd prelude tensors built by :func:`_build_prelude`
    with the dense expressions (their graph edges are what routes
    gradients back into the parameters); ``value`` the stitched banded
    forward.  The parent order reproduces the dense graph's DFS visit
    sequence, so leaf gradients accumulate in the identical order.
    """
    pre = prelude["pre"]
    extras_t = prelude["extras_t"]
    w_e = prelude["w_e"]
    q_we = prelude["q_we"]
    bias = agg.fuse.bias
    key_w = agg.key_proj.weight
    num_heads, head_dim, scale = agg.num_heads, agg.head_dim, agg.scale
    out_dim = num_heads * head_dim
    attr_arr = prelude["attr_arr"]
    extras_data = [(t.data, i) for t, i in extras_t]
    idx64 = np.asarray(src_index, dtype=np.int64)
    num_sources = pre.shape[0]
    num_edges = dst.shape[0]
    fuse_dim = w_e.shape[1]

    pos = np.greater(value, 0)
    _stats["nodes"] += 1

    def _bwd_blockwise(gout: np.ndarray):
        """Band-local block-sweep backward (compiled-kernel path).

        No edge-count-sized buffer is ever materialised: each band's
        fused-message checkpoint is recomputed over its block cover in
        cache-resident scratch, the attention backward runs band-local,
        and the parameter-gradient reductions are flushed one
        :data:`MATMUL_BLOCK` run at a time.  Bitwise identity with the
        full-range reference reductions holds because (a) the C
        ``edge_fuse_bwd`` kernel accumulates strictly sequentially in
        ascending edge order, so feeding it ascending edge slices
        through shared accumulators replays the identical FP op
        sequence, (b) every run starts at a block multiple (``done`` is
        only ever advanced to one), so ``matmul_blocked`` over a run
        reproduces the full-range block bytes, and (c) the ``d_kw`` /
        ``d_we`` per-block partials are accumulated in strictly
        ascending block order exactly as ``matmul_grad_blocked`` does.
        A <=one-block carry buffer holds gradient rows of bands that end
        mid-block until the next band completes their block.
        """
        B = MATMUL_BLOCK
        dt = w_e.data.dtype
        gpre = np.zeros((num_sources, fuse_dim), dtype=dt)
        gbias = np.zeros(fuse_dim, dtype=dt)
        gex_list = [
            np.zeros((t.shape[0], fuse_dim), dtype=dt) for t, _i in extras_t
        ]
        d_kw = None
        d_we = None
        g_q = np.zeros(q_we.shape)
        g_q2d = g_q.reshape(q_we.shape[0], out_dim)
        live = [
            (band, b) for band, b in enumerate(bands) if b[3] > b[2]
        ]
        if not live:
            return (
                gpre,
                gex_list,
                np.zeros((attr_arr.shape[1], fuse_dim), dtype=dt),
                gbias,
                np.zeros((fuse_dim, out_dim), dtype=dt),
                g_q,
            )
        max_cover = max(
            _cover(b[2], b[3], num_edges)[1] - _cover(b[2], b[3], num_edges)[0]
            for _band, b in live
        )
        def _scratch(shape, tag):
            # Sliced per band, so the pool-off ``None`` sentinel cannot be
            # forwarded to ``out=`` -- fall back to a plain allocation.
            buf = _pool.out_buffer(shape, dt, tag=tag)
            return np.empty(shape, dtype=dt) if buf is None else buf

        eproj_s = _scratch((max_cover, fuse_dim), "band-eproj")
        fd_s = _scratch((max_cover, fuse_dim), "band-fused")
        keys_s = _scratch((max_cover, out_dim), "band-keys")
        gk_run = _scratch((max_cover, out_dim), "band-gk-run")
        gf_s = _scratch((max_cover, fuse_dim), "band-gf")
        gm_s = _scratch((max_cover, fuse_dim), "band-gmask")
        pend = _scratch((B, out_dim), "band-gk-carry")
        done = 0
        for band_i, (lo, hi, e0, e1, plan) in enumerate(bands):
            if e1 <= e0:
                continue  # empty band: no edge rows, g_q stays zero
            direct = False  # band gradient written in-run (stash path)
            b0, b1 = _cover(e0, e1, num_edges)
            ncov = b1 - b0
            # Cover recompute of the fused-message checkpoint, block-
            # anchored at b0 so every row matches the full-range bytes.
            ep = matmul_blocked(
                attr_arr[b0:b1], w_e.data, out=eproj_s[:ncov]
            )
            fdc = _cnative.edge_fuse_fwd(
                pre.data,
                idx64[b0:b1],
                [(v, i[b0:b1]) for v, i in extras_data],
                ep,
                bias.data,
                out=fd_s[:ncov],
            )
            keys_c = matmul_blocked(fdc, key_w.data, out=keys_s[:ncov])
            k_band = keys_c[e0 - b0 : e1 - b0].reshape(
                e1 - e0, num_heads, head_dim
            )
            stash_wl = att_stash[band_i] if att_stash is not None else None
            if stash_wl is not None:
                # The forward sweep stashed this band's attention
                # weights/leaky -- the exact bytes the softmax
                # recompute would produce -- so go straight to the
                # attention backward kernel, writing the key gradient
                # at its run offset (``done == b0``, so the band's
                # rows land at ``[e0 - done, e1 - done)``).
                weights_b, leaky_b = stash_wl
                direct = True
                _g_keys, g_q_b = _cnative.seg_att_bwd(
                    k_band,
                    np.ascontiguousarray(q_we.data[lo:hi]),
                    weights_b,
                    leaky_b,
                    gout[lo:hi],
                    plan,
                    scale,
                    gkeys_out=gk_run[e0 - done : e1 - done].reshape(
                        e1 - e0, num_heads, head_dim
                    ),
                )
                gk2d = None
                np.copyto(g_q2d[lo:hi].reshape(g_q_b.shape), g_q_b)
                att_stash[band_i] = None  # consumed: free eagerly
            else:
                g_keys, _g_q_b = _band_att_backward(
                    k_band,
                    q_we.data[lo:hi],
                    gout[lo:hi],
                    plan,
                    scale,
                    g_q_out=g_q2d[lo:hi],
                )
                gk2d = g_keys.reshape(e1 - e0, out_dim)
            _stats["halo_rows"] += (e0 - b0) + (b1 - e1)
            _stats["halo_bytes"] += ((e0 - b0) + (b1 - e1)) * fuse_dim * 8
            _stats["bands"] += 1
            # Flush every block this band completes.  ``done`` (first
            # unreduced edge) is always a block multiple and equals b0,
            # so the carried rows' checkpoint lives in this band's cover.
            kE = num_edges if e1 == num_edges else (e1 // B) * B
            if kE > done:
                n_run = kE - done
                n_pend = e0 - done
                run = gk_run[:n_run]
                if n_pend:
                    run[:n_pend] = pend[:n_pend]
                if not direct:
                    run[n_pend:] = gk2d[: kE - e0]
                g_f = matmul_blocked(run, key_w.data.T, out=gf_s[:n_run])
                gm = gm_s[:n_run]
                _cnative.edge_fuse_bwd(
                    g_f,
                    fdc[done - b0 : kE - b0],
                    idx64[done:kE],
                    num_sources,
                    [(t.shape[0], i[done:kE]) for t, i in extras_t],
                    accum=(gm, gpre, gex_list, gbias),
                )
                for kb in range(done, kE, B):
                    ke = min(kb + B, kE)
                    pk = np.matmul(
                        fdc[kb - b0 : ke - b0].T, run[kb - done : ke - done]
                    )
                    d_kw = pk if d_kw is None else np.add(d_kw, pk, out=d_kw)
                    pw = np.matmul(
                        attr_arr[kb:ke].T, gm[kb - done : ke - done]
                    )
                    d_we = pw if d_we is None else np.add(d_we, pw, out=d_we)
                left = e1 - kE
                if left:
                    if direct:
                        pend[:left] = gk_run[kE - done : e1 - done]
                    else:
                        pend[:left] = gk2d[kE - e0 :]
                done = kE
            else:
                # No block completed: move this band's rows to the carry
                # (offsets relative to ``done`` are unchanged).
                if direct:
                    pend[e0 - done : e1 - done] = gk_run[e0 - done : e1 - done]
                else:
                    pend[e0 - done : e1 - done] = gk2d
        return gpre, gex_list, d_we, gbias, d_kw, g_q

    def _bwd_reference(gout: np.ndarray):
        """Full-range reference backward (numpy-kernel ablation path).

        The numpy segment plans reduce with ``np.add.reduceat`` whose
        pairwise summation tree depends on the full edge count, so the
        parameter-gradient reductions cannot be banded bitwise; they are
        kept full-range, matching the reference graph expression for
        expression.
        """
        # Full-range fused-message recompute: the same checkpoint
        # expressions the reference backward replays (attention.py's
        # ``recompute`` closure), feeding the block-deterministic
        # parameter-gradient reductions below.
        eproj_r = matmul_blocked(
            attr_arr,
            w_e.data,
            out=_pool.out_buffer(
                (num_edges, fuse_dim), w_e.data.dtype, tag="edge-msg-ckpt"
            ),
        )
        fd = edge_message_value(
            pre.data, eproj_r, bias.data, idx64, extras_data
        )
        gk = np.empty((num_edges, out_dim))
        g_q = np.zeros(q_we.shape)
        g_q2d = g_q.reshape(q_we.shape[0], out_dim)
        for lo, hi, e0, e1, plan in bands:
            if e1 <= e0:
                continue  # empty band: gk has no rows, g_q stays zero
            b0, b1 = _cover(e0, e1, num_edges)
            keys_c = matmul_blocked(fd[b0:b1], key_w.data)
            k_band = keys_c[e0 - b0 : e1 - b0].reshape(
                e1 - e0, num_heads, head_dim
            )
            g_keys, _g_q_b = _band_att_backward(
                k_band,
                q_we.data[lo:hi],
                gout[lo:hi],
                plan,
                scale,
                g_q_out=g_q2d[lo:hi],
            )
            gk[e0:e1] = g_keys.reshape(e1 - e0, out_dim)
            _stats["halo_rows"] += (e0 - b0) + (b1 - e1)
            _stats["halo_bytes"] += ((e0 - b0) + (b1 - e1)) * fuse_dim * 8
            _stats["bands"] += 1
        # Full-range, block-deterministic reductions --
        # bit-identical to the reference backward's own expressions.
        g_f = matmul_blocked(
            gk,
            key_w.data.T,
            out=_pool.out_buffer(
                (num_edges, fuse_dim), fd.dtype, tag="segatt-gf"
            ),
        )
        d_kw = matmul_grad_blocked(fd, gk)
        if _cnative.available():
            gmask, gpre, gex, gbias = _cnative.edge_fuse_bwd(
                g_f,
                fd,  # read only through ``> 0``: identical to the relu mask
                idx64,
                num_sources,
                [(t.shape[0], i) for t, i in extras_t],
            )
        else:
            m = np.greater(fd, 0)
            gmask = np.multiply(
                g_f,
                m,
                out=_pool.out_buffer(g_f.shape, g_f.dtype, tag="edge-msg-bwd"),
            )
            gpre = get_plan(idx64, num_sources).sum(gmask)
            gex = [
                get_plan(i, t.shape[0]).sum(gmask) for t, i in extras_t
            ]
            gbias = gmask.sum(axis=0)
        d_we = matmul_grad_blocked(attr_arr, gmask)
        return gpre, gex, d_we, gbias, d_kw, g_q

    def backward(grad: np.ndarray):
        gout = np.multiply(
            grad,
            pos,
            out=_pool.out_buffer(grad.shape, grad.dtype, tag="segatt-gout"),
        )
        if _cnative.available():
            gpre, gex, d_we, gbias, d_kw, g_q = _bwd_blockwise(gout)
        else:
            gpre, gex, d_we, gbias, d_kw, g_q = _bwd_reference(gout)
        out = []
        if pre.requires_grad:
            out.append((pre, gpre))
        for (t, _i), g in zip(extras_t, gex):
            if t.requires_grad:
                out.append((t, g))
        if w_e.requires_grad:
            out.append((w_e, d_we))
        if bias.requires_grad:
            out.append((bias, gbias))
        if key_w.requires_grad:
            out.append((key_w, d_kw))
        if q_we.requires_grad:
            out.append((q_we, g_q))
        return out

    parents = [pre]
    parents.extend(t for t, _i in extras_t)
    parents.extend((w_e, bias, key_w, q_we))
    return Tensor(value, parents=tuple(parents), backward=backward)


def _build_prelude(agg, target: Tensor, source: Tensor, edge_attr) -> dict:
    """The node-table autograd prelude of one aggregator's fast path.

    The exact expressions of ``MultiHeadSegmentAttention.forward``'s fast
    path -- source projection through the fusion weight's source block,
    per-block capacity projections, the bilinear-folded queries -- so the
    graph upstream of the banded node is the reference graph.  Unlike the
    reference, the prelude values are *kept* (node-table sized): the banded
    backward reads them for its full-range fused recompute instead of
    re-deriving them through a checkpoint closure.
    """
    from ..nn.attention import FactoredEdgeAttr

    w = agg.fuse.weight
    source_dim = source.shape[1]
    pre = source @ w[:source_dim]
    extras_t: List[tuple] = []
    if isinstance(edge_attr, FactoredEdgeAttr):
        off = source_dim
        s = edge_attr.static.shape[1]
        w_e = w[off : off + s]
        off += s
        for values, index in edge_attr.blocks:
            d = values.shape[1]
            extras_t.append(
                (values @ w[off : off + d], np.asarray(index, dtype=np.int64))
            )
            off += d
        attr_arr = edge_attr.static.data
    else:
        w_e = w[source_dim:]
        attr_arr = edge_attr.data
    num_targets = target.shape[0]
    queries = agg.query_proj(target)
    q_we = (
        queries.reshape(num_targets * agg.num_heads, agg.head_dim)
        @ agg.edge_type_weight.T
    ).reshape(num_targets, agg.num_heads, agg.head_dim)
    return {
        "pre": pre,
        "extras_t": extras_t,
        "w_e": w_e,
        "q_we": q_we,
        "attr_arr": attr_arr,
    }


def _serial_values(
    rel_spec: dict,
    bands: List[tuple],
    agg,
    stash: Optional[list] = None,
) -> np.ndarray:
    """In-process band sweep of one relation's forward values.

    ``stash`` (one slot per band) receives each band's attention
    ``(weights, leaky)`` intermediates so the banded backward can skip
    the softmax recompute -- identical bytes, one kernel pass saved.
    """
    out_dim = agg.num_heads * agg.head_dim
    prelude = rel_spec["prelude"]
    value = np.empty((prelude["q_we"].shape[0], out_dim))
    extras_data = [(t.data, i) for t, i in prelude["extras_t"]]
    for band_i, (lo, hi, e0, e1, plan) in enumerate(bands):
        slot = {} if stash is not None else None
        value[lo:hi] = _band_aggregate(
            src=rel_spec["src"],
            attr=prelude["attr_arr"],
            w_edge=prelude["w_e"].data,
            pre=prelude["pre"].data,
            bias=agg.fuse.bias.data,
            key_w=agg.key_proj.weight.data,
            q_we=prelude["q_we"].data,
            extras=extras_data,
            lo=lo,
            e0=e0,
            e1=e1,
            plan=plan,
            num_heads=agg.num_heads,
            head_dim=agg.head_dim,
            scale=agg.scale,
            att_state=slot,
        )
        if stash is not None and slot:
            stash[band_i] = (slot["weights"], slot["leaky"])
        _stats["bands"] += 1
        b0, b1 = _cover(e0, e1, rel_spec["dst"].shape[0]) if e1 > e0 else (
            e0,
            e1,
        )
        _stats["halo_rows"] += (e0 - b0) + (b1 - e1)
        _stats["halo_bytes"] += (
            ((e0 - b0) + (b1 - e1)) * prelude["w_e"].shape[1] * 8
        )
    return value


# ---------------------------------------------------------------------------
# Entry point: the banded replacement of _propagate_batched's layer loop.
# ---------------------------------------------------------------------------


def propagate_periods_sharded(
    recommender, edges, h: Tensor, z: Tensor, q: Tensor, tiles: int
) -> Tuple[Tensor, Tensor, Tensor]:
    """Run the node-level layers of the batched pass over row bands.

    Drop-in replacement for the layer loop of
    :meth:`HeteroRecommender._propagate_batched` when
    :func:`shard_tiles_for` engages, in either mode: identical inputs,
    bit-identical outputs and, in training, bit-identical loss curves and
    parameter gradients.  Under :func:`repro.tensor.no_grad` the sweep
    keeps no per-band attention stash, since no backward will read it.
    """
    if _plan.tracing():
        # Fail-soft compile_step interplay: the banded backward closes over
        # per-band state a replay plan cannot pin or refresh.  Poison the
        # capture (the step runs eager, never a silent double-path) and
        # count the decision for the memprof ``plan:`` line.
        _plan.poison("banded sharded training step is not capturable")
        _plan._bump("shard_fallbacks")
    graph = recommender.graph
    periods = len(TimePeriod)
    rows, cols = recommender.grid_shape
    use_pref = recommender.use_preferences

    def rel_bands(dst: np.ndarray, regions, num_nodes: int, kind: str):
        # Per-relation band count: the gate's tile count sizes the largest
        # relation; smaller relations drop to fewer row bands so the
        # 4096-row block covers (whole blocks recomputed around each band,
        # see _cover) stay a small fraction of their edge count instead of
        # nearly doubling it.
        rel_tiles = max(
            1,
            min(
                min(int(tiles), rows),
                dst.shape[0] // (periods * _MIN_BAND_ROWS) or 1,
            ),
        )
        part = GridTilePartition(rows, cols, rel_tiles, 1)
        splits = band_node_splits(regions, part.row_splits * cols, kind)
        return _band_table(
            recommender._band_tables,
            dst,
            stacked_band_cuts(splits, num_nodes, periods),
        )

    bands_s = rel_bands(
        edges.sa_src_s, graph.store_regions, graph.num_store_nodes, "store"
    )
    bands_su = bands_u = None
    if use_pref:
        bands_su = rel_bands(
            edges.su_dst_s, graph.store_regions, graph.num_store_nodes, "store"
        )
        bands_u = rel_bands(
            edges.ua_dst_u,
            graph.customer_regions,
            graph.num_customer_nodes,
            "customer",
        )
    _stats["steps" if recommender.training else "evals"] += 1
    # The per-band attention stash only saves the backward a recompute.
    stash_bands = _cnative.available() and is_grad_enabled()

    for layer in recommender.layers:
        # Preludes first (node-table matmuls with the reference autograd
        # expressions), then the band values of every banded relation.
        rel_specs = {
            "sas": {
                "agg": layer.sa_to_s,
                "dst": edges.sa_src_s,
                "src": edges.sa_dst_a,
                "bands": bands_s,
                "prelude": _build_prelude(layer.sa_to_s, h, q, edges.sa_attr),
            }
        }
        if use_pref:
            rel_specs["su"] = {
                "agg": layer.su,
                "dst": edges.su_dst_s,
                "src": edges.su_src_u,
                "bands": bands_su,
                "prelude": _build_prelude(layer.su, h, z, edges.su_attr),
            }
            rel_specs["ua"] = {
                "agg": layer.ua,
                "dst": edges.ua_dst_u,
                "src": edges.ua_src_a,
                "bands": bands_u,
                "prelude": _build_prelude(layer.ua, z, q, edges.ua_attr),
            }
        for spec in rel_specs.values():
            stash = [None] * len(spec["bands"]) if stash_bands else None
            spec["value"] = _serial_values(
                spec, spec["bands"], spec["agg"], stash=stash
            )
            spec["att_stash"] = stash

        def banded(rel: str) -> Tensor:
            spec = rel_specs[rel]
            return _banded_attention(
                spec["agg"],
                spec["dst"],
                spec["src"],
                spec["bands"],
                spec["prelude"],
                spec["value"],
                att_stash=spec["att_stash"],
            )

        # Combine exactly as _NodeLevelLayer.forward does (Eqs. 7-9), with
        # the banded nodes standing in for the three destination-sorted
        # aggregations and the type hub kept on the dense autograd op.
        agg_s = banded("sas")
        if use_pref:
            agg_s = agg_s + banded("su")
        h_new = layer.w_s(agg_s + h).relu()
        if use_pref:
            agg_u = banded("ua")
            z_new = layer.w_u(agg_u + z).relu()
        else:
            z_new = layer.w_u(z).relu()
        agg_a = layer.sa_to_a(q, h, edges.sa_src_s, edges.sa_dst_a, edges.sa_attr)
        q_new = layer.w_a(agg_a + q).relu()
        h, z, q = h_new, z_new, q_new
    return h, z, q
