"""Grid-tile sharded propagation for metropolis-scale graphs.

At paper scale (a 14x14 region grid) one process propagates all periods in
well under a second; at metropolis scale (10k+ regions, millions of S-U
edges) the edge-sized attention kernels dominate wall-clock and run on one
core.  This module fans the node-level aggregation out over row-band tiles
of the region grid (:class:`repro.graphs.partition.GridTilePartition`) and
a :func:`repro.parallel.process_map` worker pool, while keeping the result
**bit-identical** to the single-process per-period path.

How the work is split
---------------------
Regions are laid out row-major and the store/customer node lists are sorted
by region id, so a partition into horizontal row bands makes every tile's
node set a *contiguous index range* -- and because the hetero graph builder
emits edges grouped by destination (S-U sorted by store node, U-A by
customer node, S-A by store node), each tile's owned edge set is a
contiguous slice found with two ``searchsorted`` calls.  A worker task is
one ``(tile, period)`` pair: it computes the store band's S-A and S-U
attention rows and the customer band's U-A rows, reading every operand from
two read-only mmap arenas (:func:`repro.serve.arena.save_raw_arena`):

* the **static arena**, written once per propagate call: edge endpoint and
  attribute arrays, per-layer fusion/key weights, and the (table-sized)
  capacity projections;
* the **round arena**, written once per layer: the source-side projections
  ``pre`` and the bilinear-folded queries ``q_we`` for every period --
  node-table matmuls stay on the master, whose full-matrix results are
  bitwise reproducible by construction.

Workers are forked, so the arenas cost no serialization: the OS page cache
backs every worker with one physical copy of the features.

Why the bytes match
-------------------
Edge-sized matmuls (the edge-attribute projection and the key projection)
are evaluated with :func:`repro.tensor.ops.matmul_blocked` in *both* the
unsharded path and the workers: fixed 4096-row blocks anchored at absolute
edge offsets, so a worker recomputing the covering blocks of its edge range
reproduces the master's bytes exactly (BLAS results vary bitwise with the
row count, so naive subset matmuls would not).  Segment reductions use the
same :class:`~repro.tensor.segment.SegmentPlan` kernels, which reduce
run-locally per segment -- a band's segments see the same edges in the same
order as the full run.  Everything node-sized (``pre``, queries, the
type-hub S-A aggregation and the per-layer state updates) runs on the
master as full-matrix operations, mirroring the autograd ops expression by
expression.

Scope: sharding is **evaluation-only** (gradients never cross process
boundaries) and engages only on the fast-kernel attention path; the
reference path, mean-aggregation ablations and dense capacity attributes
fall back to the unsharded code, as does any call inside a worker process.
:func:`shard_tiles_for` centralises the gate; ``O2_SHARD_TILES`` /
:func:`set_shard_tiles` force it (or disable it with ``0``), and past
``O2_SHARD_MIN_REGIONS`` regions (default 4096) it engages automatically.
Without a worker pool the tile tasks run as an in-process band sweep --
no arena files, no forks -- which is already markedly faster than the
monolithic path on one core: every band's edge intermediates fit in cache
instead of streaming hundreds of MB through DRAM, and the peak footprint
drops by the tile count.  ``O2_NUM_PROCS``/:func:`set_num_procs` layer
true process parallelism on top on multi-core machines.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..data.periods import TimePeriod
from ..graphs.partition import GridTilePartition, band_node_splits
from ..parallel import in_process_worker, num_procs, process_map
from ..runtime import env_int, env_str
from ..serve.arena import open_raw_arena, save_raw_arena
from ..tensor import Tensor, fast_kernels_enabled
from ..tensor import cnative as _cnative
from ..tensor import pool as _pool
from ..tensor.ops import MATMUL_BLOCK, edge_message_value, matmul_blocked
from ..tensor.segment import get_plan

__all__ = [
    "DEFAULT_SHARD_TILES",
    "propagate_periods_sharded",
    "resolve_shard_tiles",
    "set_shard_tiles",
    "set_shard_train",
    "shard_gate_reason",
    "shard_tiles_for",
    "shard_train_enabled",
    "shard_train_gate_reason",
    "shard_train_tiles_for",
    "use_shard_tiles",
    "use_shard_train",
]

DEFAULT_SHARD_TILES = 8
_AUTO_MIN_REGIONS = 4096
_NEGATIVE_SLOPE = 0.2

_tile_override: Optional[int] = None

# Why the last shard_tiles_for / shard_train_tiles_for call said no (or
# yes): one short string each, surfaced by O2_MEM_PROFILE reports and the
# serving stats endpoint so "running dense" is always explained.
_gate_reason = "not evaluated yet"
_train_gate_reason = "not evaluated yet"


def shard_gate_reason() -> str:
    """Why the last :func:`shard_tiles_for` call engaged (or declined)."""
    return _gate_reason


def shard_train_gate_reason() -> str:
    """Why the last :func:`shard_train_tiles_for` call engaged (or declined)."""
    return _train_gate_reason


def set_shard_tiles(tiles: Optional[int]) -> Optional[int]:
    """Force the shard tile count (``<=1`` disables, ``None`` = env/auto).

    Returns the previous override.  Mirrors ``O2_SHARD_TILES``, with the
    override taking precedence.
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

    Priority: :func:`set_shard_tiles` override, then ``O2_SHARD_TILES``
    (an explicit ``0``/``off`` disables, unset defers), then the automatic
    threshold -- :data:`DEFAULT_SHARD_TILES` tiles once the grid reaches
    ``O2_SHARD_MIN_REGIONS`` regions.  The automatic path engages even
    without a worker pool: band-local evaluation keeps every intermediate
    cache-resident, which already beats the monolithic sweep on one core
    (see ``BENCH_shard.json``); a pool adds process parallelism on top.
    """
    if _tile_override is not None:
        tiles = _tile_override
    else:
        raw = env_str("O2_SHARD_TILES", "")
        if raw in ("0", "off"):
            return 0
        tiles = int(raw) if raw else 0
        if tiles <= 0:
            threshold = env_int("O2_SHARD_MIN_REGIONS", _AUTO_MIN_REGIONS)
            if num_regions >= threshold:
                tiles = DEFAULT_SHARD_TILES
    return tiles if tiles > 1 else 0


def _aggregator_gate_reason(recommender, capacity_su) -> Optional[str]:
    """Shared model-shape preconditions; ``None`` when they hold."""
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


def _resolve_gate_tiles(grid_shape) -> Tuple[int, str]:
    rows, cols = grid_shape
    tiles = resolve_shard_tiles(rows * cols)
    if tiles:
        tiles = min(tiles, rows)
    if tiles > 1:
        return tiles, f"engaged: {tiles} row bands over a {rows}x{cols} grid"
    return 0, (
        f"grid below O2_SHARD_MIN_REGIONS ({rows * cols} regions) "
        "and no tile override"
    )


def _gate(recommender, capacity_su, training: bool) -> Tuple[int, str]:
    """Row-band count and reason shared by the eval and training gates."""
    if recommender is None:
        # Baseline models carry no recommender; nothing to band.
        return 0, "no recommender (baseline model)"
    if bool(recommender.training) != training:
        return 0, (
            "evaluation mode (training gate)"
            if training
            else "training mode (eval sharding is value-only)"
        )
    if training and not shard_train_enabled():
        return 0, "disabled (O2_SHARD_TRAIN=0 / TrainConfig.shard_train=False)"
    grid_shape = getattr(recommender, "grid_shape", None)
    if grid_shape is None:
        return 0, "no grid shape attached to the recommender"
    if not fast_kernels_enabled():
        return 0, "reference kernels (fast attention path off)"
    if in_process_worker():
        return 0, "inside a process_map worker (no nested fan-out)"
    reason = _aggregator_gate_reason(recommender, capacity_su)
    if reason is not None:
        return 0, reason
    return _resolve_gate_tiles(grid_shape)


def shard_tiles_for(recommender, capacity_su=None) -> int:
    """Row-band count sharded propagation will use for this call (0 = off).

    Sharding needs a grid shape (attached by
    :class:`repro.core.model.O2SiteRec`), evaluation mode, the fast-kernel
    attention path, attention aggregators on every relation, factored (or
    absent) capacity edge attributes, and a process that is not itself a
    fan-out worker.  The tile count is clamped to the grid's row count so
    every band owns at least one region row.  Every exit records why in
    :func:`shard_gate_reason`.
    """
    global _gate_reason
    tiles, _gate_reason = _gate(recommender, capacity_su, training=False)
    return tiles


# ---------------------------------------------------------------------------
# Training gate (``O2_SHARD_TRAIN`` / ``TrainConfig.shard_train``): banded
# sharded training replaces the layer loop of the period-batched pass, the
# one dense training path.
# ---------------------------------------------------------------------------

_train_override: Optional[bool] = None


def set_shard_train(enabled: Optional[bool]) -> Optional[bool]:
    """Force sharded training on/off (``None`` defers to ``O2_SHARD_TRAIN``).

    Returns the previous override.
    """
    global _train_override
    previous = _train_override
    _train_override = None if enabled is None else bool(enabled)
    return previous


@contextmanager
def use_shard_train(enabled: Optional[bool]) -> Iterator[None]:
    """Scoped :func:`set_shard_train` (no-op when ``enabled`` is ``None``)."""
    if enabled is None:
        yield
        return
    previous = set_shard_train(enabled)
    try:
        yield
    finally:
        set_shard_train(previous)


def shard_train_enabled() -> bool:
    """Whether banded training may engage (default on; gate still applies)."""
    if _train_override is not None:
        return _train_override
    return env_str("O2_SHARD_TRAIN", "1") not in ("0", "off")


def shard_train_tiles_for(recommender, capacity_su=None) -> int:
    """Row-band count the banded *training* step will use (0 = dense).

    The training direction of :func:`shard_tiles_for`: the same
    preconditions, except that the model must be in training mode with
    banded training enabled.  Every exit records why in
    :func:`shard_train_gate_reason`.
    """
    global _train_gate_reason
    tiles, _train_gate_reason = _gate(recommender, capacity_su, training=True)
    return tiles


# ---------------------------------------------------------------------------
# Value-level kernels (no autograd), mirroring repro.tensor.ops expression by
# expression -- any edit there that changes forward bytes must land here too.
# ---------------------------------------------------------------------------


def _attention_value(
    keys: np.ndarray,
    q_we: np.ndarray,
    ids: np.ndarray,
    num_segments: int,
    scale: float,
    att_state: Optional[dict] = None,
) -> np.ndarray:
    """Forward of :func:`repro.tensor.ops.segment_attention`, values only.

    ``att_state`` optionally receives the compiled kernel's attention
    ``weights``/``leaky`` intermediates: banded training stashes them per
    band so its backward can skip the softmax recompute (the stash holds
    the exact bytes the recompute would produce).  The stash buffers are
    caller-owned allocations so the scratch pool never recycles them.
    """
    num_edges, num_heads, head_dim = keys.shape
    out_dim = num_heads * head_dim
    plan = get_plan(ids, num_segments)
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
    q_edge = q_we[ids]
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


def _band_aggregate(
    dst: np.ndarray,
    src: np.ndarray,
    attr: np.ndarray,
    w_edge: np.ndarray,
    pre: np.ndarray,
    bias: np.ndarray,
    key_w: np.ndarray,
    q_we: np.ndarray,
    extras,
    lo: int,
    n_band: int,
    num_heads: int,
    head_dim: int,
    scale: float,
    edge_range: Optional[Tuple[int, int]] = None,
    ids: Optional[np.ndarray] = None,
    att_state: Optional[dict] = None,
) -> np.ndarray:
    """One relation's attention rows for targets ``[lo, lo + n_band)``.

    ``dst`` must be sorted ascending unless ``edge_range`` pins the edge
    window explicitly (the master passes the full range for the unsorted
    S-A type-hub direction).  The edge-attribute and key projections run
    over the *block cover* of the window -- the smallest span of absolute
    :data:`~repro.tensor.ops.MATMUL_BLOCK` blocks containing it -- so their
    bytes match the unsharded ``matmul_blocked`` output row for row.
    ``ids`` may pass the band-local segment ids (``dst[e0:e1] - lo``)
    precomputed -- banded training caches them per fit so the
    ``SegmentPlan`` identity cache hits on every step.
    """
    out_dim = num_heads * head_dim
    if n_band <= 0:
        return np.zeros((0, out_dim))
    num_edges = dst.shape[0]
    if num_edges == 0:
        return np.zeros((n_band, out_dim))
    if edge_range is None:
        e0, e1 = np.searchsorted(dst, (lo, lo + n_band))
        e0, e1 = int(e0), int(e1)
    else:
        e0, e1 = edge_range
    if e1 <= e0:
        return np.zeros((n_band, out_dim))
    b0 = (e0 // MATMUL_BLOCK) * MATMUL_BLOCK
    b1 = min(-(-e1 // MATMUL_BLOCK) * MATMUL_BLOCK, num_edges)
    eproj = matmul_blocked(attr[b0:b1], w_edge)
    idx = np.asarray(src[b0:b1], dtype=np.int64)
    extras_loc = [
        (values, np.asarray(index[b0:b1], dtype=np.int64))
        for values, index in extras
    ]
    fused = edge_message_value(pre, eproj, bias, idx, extras_loc)
    keys_flat = matmul_blocked(fused, key_w)
    keys = keys_flat[e0 - b0 : e1 - b0].reshape(e1 - e0, num_heads, head_dim)
    if ids is None:
        ids = np.asarray(dst[e0:e1], dtype=np.int64) - lo
    return _attention_value(
        keys, q_we[lo : lo + n_band], ids, n_band, scale, att_state=att_state
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

# Opened arenas keyed by path; workers are forked fresh per round, so this
# mainly amortises the open across the ~tasks/worker of one round.
_WORKER_ARENAS: Dict[str, Tuple[dict, Dict[str, np.ndarray]]] = {}

# Serial execution (no worker pool) skips the file round-trip entirely:
# the "arena" is published here and tasks read the arrays in place.  Keys
# are per-call tokens, dropped in the propagate's ``finally``.
_INPROC_ARENAS: Dict[str, Tuple[dict, Dict[str, np.ndarray]]] = {}
_inproc_serial = 0


def _worker_arena(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    entry = _INPROC_ARENAS.get(path)
    if entry is not None:
        return entry
    entry = _WORKER_ARENAS.get(path)
    if entry is None:
        if len(_WORKER_ARENAS) >= 8:
            _WORKER_ARENAS.clear()
        entry = open_raw_arena(path)
        _WORKER_ARENAS[path] = entry
    return entry


def _publish_arena(
    arrays: Dict[str, np.ndarray], meta: dict, path: str, fanout: bool
) -> None:
    """File arena for a worker pool, in-process registry otherwise.

    Values (and therefore results) are identical either way -- the file
    round-trip only changes the memory backing the same bytes -- so the
    serial path keeps bit-identity while skipping ~hundreds of MB of
    ``write``/``mmap`` traffic per propagate at metropolis scale.
    """
    if fanout:
        save_raw_arena(arrays, meta, path, durable=False)
    else:
        _INPROC_ARENAS[path] = ({"meta": meta}, arrays)


def _shard_task(task: Tuple[str, str, int, int]):
    """One (tile, period) unit: the tile's aggregation bands for one layer."""
    static_path, round_path, tile, pi = task
    sheader, stat = _worker_arena(static_path)
    rheader, rnd = _worker_arena(round_path)
    meta = sheader["meta"]
    want_c = bool(meta["c_kernels"])
    _cnative.set_c_kernels(want_c)
    if want_c != _cnative.available():
        raise RuntimeError(
            "shard worker cannot match the master's kernel dispatch "
            "(compiled kernels unavailable in the worker process)"
        )
    num_heads = int(meta["num_heads"])
    head_dim = int(meta["head_dim"])
    scale = float(meta["scale"])
    layer = int(rheader["meta"]["layer"])
    store_splits = stat["store_splits"]
    cust_splits = stat["cust_splits"]
    s_lo, s_hi = int(store_splits[tile]), int(store_splits[tile + 1])
    u_lo, u_hi = int(cust_splits[tile]), int(cust_splits[tile + 1])

    agg_s = _band_aggregate(
        dst=stat["sa_store"],
        src=stat["sa_type"],
        attr=stat["sa_attr"],
        w_edge=stat[f"wedge_sas_{layer}"],
        pre=rnd[f"pre_sas_{pi}"],
        bias=stat[f"bias_sas_{layer}"],
        key_w=stat[f"keyw_sas_{layer}"],
        q_we=rnd[f"qwe_sas_{pi}"],
        extras=(),
        lo=s_lo,
        n_band=s_hi - s_lo,
        num_heads=num_heads,
        head_dim=head_dim,
        scale=scale,
    )
    agg_u = None
    if bool(meta["use_preferences"]):
        extras = ()
        if bool(meta["capacity_factored"]):
            extras = (
                (stat[f"capd_{layer}_{pi}"], stat[f"capdix_{pi}"]),
                (stat[f"caps_{layer}_{pi}"], stat[f"capsix_{pi}"]),
            )
        su_band = _band_aggregate(
            dst=stat[f"su_dst_{pi}"],
            src=stat[f"su_src_{pi}"],
            attr=stat[f"su_attr_{pi}"],
            w_edge=stat[f"wedge_su_{layer}"],
            pre=rnd[f"pre_su_{pi}"],
            bias=stat[f"bias_su_{layer}"],
            key_w=stat[f"keyw_su_{layer}"],
            q_we=rnd[f"qwe_su_{pi}"],
            extras=extras,
            lo=s_lo,
            n_band=s_hi - s_lo,
            num_heads=num_heads,
            head_dim=head_dim,
            scale=scale,
        )
        # Same accumulation order as the layer: sa_to_s + su.
        agg_s = np.add(agg_s, su_band)
        agg_u = _band_aggregate(
            dst=stat[f"ua_dst_{pi}"],
            src=stat[f"ua_src_{pi}"],
            attr=stat[f"ua_attr_{pi}"],
            w_edge=stat[f"wedge_ua_{layer}"],
            pre=rnd[f"pre_ua_{pi}"],
            bias=stat[f"bias_ua_{layer}"],
            key_w=stat[f"keyw_ua_{layer}"],
            q_we=rnd[f"qwe_ua_{pi}"],
            extras=(),
            lo=u_lo,
            n_band=u_hi - u_lo,
            num_heads=num_heads,
            head_dim=head_dim,
            scale=scale,
        )
    return tile, pi, agg_s, agg_u


# ---------------------------------------------------------------------------
# Master side
# ---------------------------------------------------------------------------


def _q_we_value(state: np.ndarray, agg) -> np.ndarray:
    """Bilinear-folded queries, mirroring the aggregator's fast path."""
    n = state.shape[0]
    queries = np.matmul(state, agg.query_proj.weight.data)
    flat = queries.reshape(n * agg.num_heads, agg.head_dim)
    q_we = np.matmul(flat, agg.edge_type_weight.data.T)
    return q_we.reshape(n, agg.num_heads, agg.head_dim)


def _linear_relu(x: np.ndarray, linear) -> np.ndarray:
    """``relu(x @ W + b)`` mirroring ``Linear`` + ``Tensor.relu``."""
    y = np.matmul(x, linear.weight.data)
    y = np.add(y, linear.bias.data)
    return np.multiply(y, np.greater(y, 0))


def propagate_periods_sharded(
    recommender,
    capacity_su,
    tiles: int,
    procs: Optional[int] = None,
) -> Dict[TimePeriod, Tuple[Tensor, Tensor]]:
    """Sharded evaluation of ``HeteroRecommender.propagate_periods``.

    Bit-identical to ``HeteroRecommender.propagate_per_period`` on the fast
    kernels (the caller routes here only when :func:`shard_tiles_for` says
    the preconditions hold).
    One worker round per layer: every round writes the node-table
    projections for all periods into a round arena, fans ``tiles x periods``
    tasks over the process pool, stitches the returned bands, then applies
    the type-hub aggregation and the per-layer state updates on the master.
    """
    graph = recommender.graph
    periods = list(TimePeriod)
    rows, cols = recommender.grid_shape
    part = GridTilePartition(rows, cols, min(int(tiles), rows), 1)
    n_tiles = part.num_tiles
    region_cuts = part.row_splits * cols
    store_splits = band_node_splits(graph.store_regions, region_cuts, "store")
    cust_splits = band_node_splits(
        graph.customer_regions, region_cuts, "customer"
    )

    d2 = recommender._d2
    use_pref = recommender.use_preferences
    cap_factored = capacity_su is not None
    agg0 = recommender.layers[0].sa_to_s

    workers = num_procs() if procs is None else max(int(procs), 0)
    fanout = workers > 1 and not in_process_worker()
    global _inproc_serial
    if fanout:
        tmpdir = tempfile.mkdtemp(prefix="o2shard-")
    else:
        _inproc_serial += 1
        tmpdir = f"o2shard-inproc-{_inproc_serial}"
    try:
        static_path = os.path.join(tmpdir, "static.arena")
        arrays: Dict[str, np.ndarray] = {
            "store_splits": store_splits,
            "cust_splits": cust_splits,
            "sa_store": graph.sa_src_s,
            "sa_type": graph.sa_dst_a,
            "sa_attr": graph.sa_attr,
        }
        for pi, period in enumerate(periods):
            sub = graph.subgraph(period)
            if use_pref:
                arrays[f"su_src_{pi}"] = sub.su_src_u
                arrays[f"su_dst_{pi}"] = sub.su_dst_s
                arrays[f"su_attr_{pi}"] = sub.su_attr
                arrays[f"ua_src_{pi}"] = sub.ua_src_a
                arrays[f"ua_dst_{pi}"] = sub.ua_dst_u
                arrays[f"ua_attr_{pi}"] = sub.ua_attr
            if cap_factored and use_pref:
                cap = capacity_su[period]
                arrays[f"capdix_{pi}"] = cap.dst_regions
                arrays[f"capsix_{pi}"] = cap.src_regions
        for li, layer in enumerate(recommender.layers):
            w_sas = layer.sa_to_s.fuse.weight.data
            arrays[f"wedge_sas_{li}"] = w_sas[d2 : d2 + 3]
            arrays[f"bias_sas_{li}"] = layer.sa_to_s.fuse.bias.data
            arrays[f"keyw_sas_{li}"] = layer.sa_to_s.key_proj.weight.data
            if use_pref:
                w_su = layer.su.fuse.weight.data
                arrays[f"wedge_su_{li}"] = w_su[d2 : d2 + 2]
                arrays[f"bias_su_{li}"] = layer.su.fuse.bias.data
                arrays[f"keyw_su_{li}"] = layer.su.key_proj.weight.data
                w_ua = layer.ua.fuse.weight.data
                arrays[f"wedge_ua_{li}"] = w_ua[d2 : d2 + 1]
                arrays[f"bias_ua_{li}"] = layer.ua.fuse.bias.data
                arrays[f"keyw_ua_{li}"] = layer.ua.key_proj.weight.data
                if cap_factored:
                    # Factored capacity blocks: table-sized projections
                    # through the fusion weight's capacity columns, in the
                    # same (dst, src) block order as _period_edges.
                    off = d2 + 2
                    for pi, period in enumerate(periods):
                        values = capacity_su[period].values.data
                        d1 = values.shape[1]
                        arrays[f"capd_{li}_{pi}"] = np.matmul(
                            values, w_su[off : off + d1]
                        )
                        arrays[f"caps_{li}_{pi}"] = np.matmul(
                            values, w_su[off + d1 : off + 2 * d1]
                        )
        meta = {
            "num_heads": agg0.num_heads,
            "head_dim": agg0.head_dim,
            "scale": agg0.scale,
            "use_preferences": use_pref,
            "capacity_factored": cap_factored,
            "c_kernels": bool(_cnative.available()),
            "tiles": n_tiles,
            "periods": len(periods),
        }
        _publish_arena(arrays, meta, static_path, fanout)

        h0, z0, q0 = recommender._fuse_base()
        states: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (h0.data, z0.data, q0.data) for _ in periods
        ]
        num_sa_edges = len(graph.sa_dst_a)
        for li, layer in enumerate(recommender.layers):
            round_path = os.path.join(tmpdir, f"round{li}.arena")
            round_arrays: Dict[str, np.ndarray] = {}
            for pi, (h, z, q) in enumerate(states):
                round_arrays[f"pre_sas_{pi}"] = np.matmul(
                    q, layer.sa_to_s.fuse.weight.data[:d2]
                )
                round_arrays[f"qwe_sas_{pi}"] = _q_we_value(h, layer.sa_to_s)
                if use_pref:
                    round_arrays[f"pre_su_{pi}"] = np.matmul(
                        z, layer.su.fuse.weight.data[:d2]
                    )
                    round_arrays[f"qwe_su_{pi}"] = _q_we_value(h, layer.su)
                    round_arrays[f"pre_ua_{pi}"] = np.matmul(
                        q, layer.ua.fuse.weight.data[:d2]
                    )
                    round_arrays[f"qwe_ua_{pi}"] = _q_we_value(z, layer.ua)
            _publish_arena(round_arrays, {"layer": li}, round_path, fanout)

            tasks = [
                (static_path, round_path, tile, pi)
                for pi in range(len(periods))
                for tile in range(n_tiles)
            ]
            if fanout:
                results = process_map(
                    _shard_task, tasks, procs=workers, chunksize=1,
                    persistent=True,
                )
            else:
                results = [_shard_task(task) for task in tasks]

            out_dim = agg0.out_dim
            agg_s = [
                np.empty((graph.num_store_nodes, out_dim)) for _ in periods
            ]
            agg_u = (
                [np.empty((graph.num_customer_nodes, out_dim)) for _ in periods]
                if use_pref
                else None
            )
            for tile, pi, band_s, band_u in results:
                agg_s[pi][store_splits[tile] : store_splits[tile + 1]] = band_s
                if band_u is not None:
                    agg_u[pi][cust_splits[tile] : cust_splits[tile + 1]] = (
                        band_u
                    )

            new_states: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for pi, (h, z, q) in enumerate(states):
                sa_to_a = layer.sa_to_a
                agg_a = _band_aggregate(
                    dst=graph.sa_dst_a,
                    src=graph.sa_src_s,
                    attr=graph.sa_attr,
                    w_edge=sa_to_a.fuse.weight.data[d2 : d2 + 3],
                    pre=np.matmul(h, sa_to_a.fuse.weight.data[:d2]),
                    bias=sa_to_a.fuse.bias.data,
                    key_w=sa_to_a.key_proj.weight.data,
                    q_we=_q_we_value(q, sa_to_a),
                    extras=(),
                    lo=0,
                    n_band=q.shape[0],
                    num_heads=sa_to_a.num_heads,
                    head_dim=sa_to_a.head_dim,
                    scale=sa_to_a.scale,
                    edge_range=(0, num_sa_edges),
                )
                h_new = _linear_relu(np.add(agg_s[pi], h), layer.w_s)
                if use_pref:
                    z_new = _linear_relu(np.add(agg_u[pi], z), layer.w_u)
                else:
                    z_new = _linear_relu(z, layer.w_u)
                q_new = _linear_relu(np.add(agg_a, q), layer.w_a)
                new_states.append((h_new, z_new, q_new))
            states = new_states
    finally:
        if fanout:
            shutil.rmtree(tmpdir, ignore_errors=True)
        else:
            for token in list(_INPROC_ARENAS):
                if token.startswith(tmpdir):
                    del _INPROC_ARENAS[token]

    return {
        period: (Tensor(states[pi][0]), Tensor(states[pi][2]))
        for pi, period in enumerate(periods)
    }
