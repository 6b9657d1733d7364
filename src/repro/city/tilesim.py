"""Tile-parallel order generation with deterministic per-tile RNG streams.

``CityConfig.order_streams == "tiles"`` replaces the shared-stream order
generator with an embarrassingly parallel one: the region grid is cut into
near-square tiles of ~:data:`TILE_TARGET_REGIONS` regions
(:func:`repro.graphs.partition.partition_grid` -- the same tiling the
sharded graph plane uses), every tile draws all of its orders from its own
``SeedSequence``-spawned stream, and the per-tile columnar chunks are
stitched in tile order into one :class:`~repro.data.ordertable.OrderTable`.

Determinism contract: the output is a pure function of the config.  The
tile layout depends only on the grid shape (a fixed target constant, never
an environment knob), each tile's stream is ``SeedSequence(seed).spawn``
child ``tile + 1`` (child ``0`` drives the city-wide day factors), and
stitching is by tile id -- so one process, ``O2_NUM_PROCS=4``, or any other
worker count produce byte-identical tables (pinned by
``tests/test_tilesim.py``), and pipeline-cache keys never shift with the
execution environment.

This mode is a *different stochastic discipline* from ``"shared"``: the
shared stream interleaves every order's draws in one global sequence (the
paper-scale reference, bit-pinned by ``tests/test_fast_sim.py``), while
tiles draw block-wise.  Same demand model, same arithmetic
(:func:`repro.city.orders.compute_order_columns`), different random
numbers -- which is exactly what makes the mode parallel and fully
vectorised: per-tile Poisson tensors, one augmented-``searchsorted`` pass
for type choice, per-(period, type) candidate tables restricted to touched
regions and halo stores for store choice.

Under a process pool, workers spill their column chunks as ``.npy`` files
into a shared on-disk arena and the parent stitches memory-mapped loads --
order logs never travel through pickle.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.ordertable import COLUMNS, OrderTable
from ..data.periods import NUM_PERIODS, TimePeriod
from ..data.records import MINUTES_PER_DAY
from ..graphs.partition import GridTilePartition, partition_grid
from ..parallel import num_procs, process_map

__all__ = ["TILE_TARGET_REGIONS", "generate_tiled", "tile_layout"]

# Target regions per tile.  A fixed constant (never an env knob): the tile
# layout -- and therefore the RNG stream assignment and the output -- must
# be a pure function of the city config so cached artifacts stay valid
# across machines and worker counts.
TILE_TARGET_REGIONS = 1024


def tile_layout(rows: int, cols: int) -> GridTilePartition:
    """The canonical tiling for a ``rows x cols`` city."""
    want = max(1, -(-(rows * cols) // TILE_TARGET_REGIONS))
    return partition_grid(rows, cols, want)


# ----------------------------------------------------------------------
# Worker context.  Set in the parent before forking; tile workers are
# top-level functions (``Pool.map`` pickles the callable even under fork)
# that read this module global inherited through fork.
@dataclass
class _TileContext:
    gen: object  # OrderGenerator
    partition: GridTilePartition
    streams: List[np.random.SeedSequence]
    day_factors: np.ndarray  # (D,)
    store_x: np.ndarray  # (S,)
    store_y: np.ndarray  # (S,)
    pool_sizes: np.ndarray  # (N,) effective courier-pool sizes
    period_start: np.ndarray  # (P,) start hour
    period_hours: np.ndarray  # (P,) duration in hours
    halo_m: float  # candidate-store halo width in metres
    arena: Optional[str] = None  # spill directory under a process pool
    by_type: List[np.ndarray] = field(default_factory=list)  # global stores/type


_TILE_CTX: Optional[_TileContext] = None


def _chunk_path(arena: str, tile: int, name: str) -> str:
    return os.path.join(arena, f"tile{tile:05d}_{name}.npy")


def _tile_worker(tile: int) -> int:
    """Pool entry point: generate one tile, spill columns to the arena."""
    ctx = _TILE_CTX
    chunk = _tile_columns(tile)
    if chunk is None:
        return 0
    for name in COLUMNS:
        np.save(_chunk_path(ctx.arena, tile, name), chunk[name],
                allow_pickle=False)
    return len(chunk[COLUMNS[0]])


def _load_chunk(arena: str, tile: int) -> Dict[str, np.ndarray]:
    return {
        name: np.load(_chunk_path(arena, tile, name), mmap_mode="r",
                      allow_pickle=False)
        for name in COLUMNS
    }


# ----------------------------------------------------------------------
# Per-tile generation: one vectorised pass, one private RNG stream.
def _tile_columns(tile: int) -> Optional[Dict[str, np.ndarray]]:
    ctx = _TILE_CTX
    gen = ctx.gen
    cfg = gen.config
    grid = gen.land.grid
    rng = np.random.default_rng(ctx.streams[tile])

    tregs = ctx.partition.tile_regions(tile)  # global region ids, ascending
    n_local = len(tregs)
    num_days = cfg.num_days

    # 1. Demand: Poisson counts over (day, period, local region).
    lam = (
        ctx.day_factors[:, None, None]
        * (gen.fleet.demand_rate[tregs].T * ctx.period_hours[:, None])[None]
    )  # (D, P, R)
    counts = rng.poisson(lam)
    n = int(counts.sum())
    if n == 0:
        return None

    # Expand to per-order (day, period, local-region) labels in C order --
    # day outer, period, region -- mirroring the reference loop nesting.
    cell = np.repeat(np.arange(counts.size, dtype=np.int64), counts.ravel())
    d_of = cell // (NUM_PERIODS * n_local)
    p_of = (cell // n_local) % NUM_PERIODS
    r_of = cell % n_local  # local row into tregs

    # 2. Store type per order: inverse-CDF over the (region, period) type
    # distribution, all orders in one augmented searchsorted.
    arch = gen.land.archetype[tregs].astype(np.int64)  # (R,)
    taste = gen.land.taste[tregs]  # (R, T)
    num_types = cfg.num_store_types
    # W[r, p, ty] = popularity[ty, p] * affinity[ty, arch[r]] * taste[r, ty]
    weights = (
        gen._popularity.T[None, :, :]
        * gen._affinity[:, arch].T[:, None, :]
        * taste[:, None, :]
    )  # (R, P, T)
    totals = weights.sum(axis=2, keepdims=True)
    probs = np.divide(
        weights,
        totals,
        out=np.full_like(weights, 1.0 / num_types),
        where=totals > 0,
    )
    type_cdf = probs.cumsum(axis=2).reshape(n_local * NUM_PERIODS, num_types)
    np.clip(type_cdf, 0.0, 1.0, out=type_cdf)  # keep the augmented key sorted
    type_cdf[:, -1] = 1.0
    group = r_of * NUM_PERIODS + p_of
    aug = (
        np.arange(n_local * NUM_PERIODS, dtype=np.float64)[:, None] + type_cdf
    ).ravel()
    u_type = rng.random(n)
    ty_of = np.searchsorted(aug, group + u_type, side="right") - group * num_types

    # 3. Store per order.  ``u_store`` is drawn for every order up front (a
    # fixed stream position independent of candidate availability); the
    # per-(period, type) loop only decides how each u is interpreted.
    u_store = rng.random(n)
    pick = np.full(n, -1, dtype=np.int64)

    r0, r1, c0, c1 = ctx.partition.tile_bounds(tile)
    x0, x1 = c0 * cfg.cell_size - ctx.halo_m, c1 * cfg.cell_size + ctx.halo_m
    y0, y1 = r0 * cfg.cell_size - ctx.halo_m, r1 * cfg.cell_size + ctx.halo_m

    cen = gen._centroids  # (N, 2) metres
    sregions = gen._store_regions
    squal = np.asarray([s.quality for s in gen.stores])
    scopes = gen._scopes  # (N, P)
    cong = gen._congestion  # (S, P)
    speed = cfg.courier_speed_m_per_min

    for p in range(NUM_PERIODS):
        in_p = p_of == p
        for ty in range(num_types):
            sel = np.flatnonzero(in_p & (ty_of == ty))
            if len(sel) == 0:
                continue
            cand = ctx.by_type[ty]
            cand_h = cand[
                (ctx.store_x[cand] >= x0) & (ctx.store_x[cand] <= x1)
                & (ctx.store_y[cand] >= y0) & (ctx.store_y[cand] <= y1)
            ]
            # The 3-nearest fallback may reach past the halo: only trust the
            # halo subset when it can serve the fallback on its own.
            if len(cand_h) >= 3:
                cand = cand_h
            if len(cand) == 0:
                continue  # type has no store anywhere: orders dropped
            rows = np.unique(r_of[sel])  # touched local regions
            row_of = np.searchsorted(rows, r_of[sel])
            cxy = cen[tregs[rows]]  # (m, 2)
            dx = ctx.store_x[cand][None, :] - cxy[:, 0:1]
            dy = ctx.store_y[cand][None, :] - cxy[:, 1:2]
            dmat = np.sqrt(dx * dx + dy * dy)  # (m, k)
            est = cfg.handling_minutes + dmat / speed * cong[cand, p][None, :]
            wmat = squal[cand][None, :] * np.exp(
                -(dmat / cfg.distance_decay_m + est / cfg.time_tolerance_min)
            )
            wmat = np.where(dmat <= scopes[sregions[cand], p][None, :], wmat, 0.0)
            rowsum = wmat.sum(axis=1)
            for b in np.flatnonzero(rowsum <= 0):
                # No store's scope covers this region: the platform still
                # shows the three nearest (long delivery times and all).
                nearest = np.argsort(dmat[b], kind="stable")[:3]
                wmat[b, nearest] = squal[cand][nearest] * np.exp(
                    -(dmat[b, nearest] / cfg.distance_decay_m
                      + est[b, nearest] / cfg.time_tolerance_min)
                )
                rowsum[b] = wmat[b].sum()
            cdf = wmat.cumsum(axis=1) / rowsum[:, None]
            np.clip(cdf, 0.0, 1.0, out=cdf)
            cdf[:, -1] = 1.0
            aug = (np.arange(len(rows), dtype=np.float64)[:, None] + cdf).ravel()
            j = (
                np.searchsorted(aug, row_of + u_store[sel], side="right")
                - row_of * len(cand)
            )
            pick[sel] = cand[j]

    kept = pick >= 0
    if not kept.all():
        d_of, p_of, r_of, ty_of = d_of[kept], p_of[kept], r_of[kept], ty_of[kept]
        pick = pick[kept]
    m = len(pick)
    if m == 0:
        return None

    # 4. Per-order noise draws, one vector call each (block discipline).
    noisy = cfg.observation_noise > 0
    uni = rng.random((m, 3))
    exp_d = rng.exponential(1.2, m)
    prep_ln = rng.lognormal(0.0, 0.2, m)
    deliv_ln = rng.lognormal(0.0, 0.12, m)
    noise_z = rng.standard_normal(m) if noisy else None
    cust = rng.integers(0, 10_000, m)
    sregs = sregions[pick]
    cour = rng.integers(ctx.pool_sizes[sregs])

    # 5. Assemble through the shared columnar arithmetic.
    greg = tregs[r_of]
    row, col = np.divmod(greg, grid.cols)
    base = d_of * MINUTES_PER_DAY + ctx.period_start[p_of] * 60
    from .orders import compute_order_columns

    out = compute_order_columns(
        cfg,
        gen._prep[ty_of],
        cong[pick, p_of],
        uni,
        exp_d,
        prep_ln,
        deliv_ln,
        noise_z,
        base,
        ctx.period_hours[p_of],
        col,
        row,
        ctx.store_x[pick],
        ctx.store_y[pick],
    )
    clon, clat = grid.to_lonlat(out["cx"], out["cy"])
    return {
        "store_index": pick,
        "store_region": sregs,
        "customer_region": greg,
        "store_type": ty_of,
        "cust_tag": greg,
        "cust_serial": cust,
        "courier_num": gen._courier_numbers_for(sregs, cour),
        "customer_lon": clon,
        "customer_lat": clat,
        "created_minute": out["created"],
        "accepted_minute": out["accepted"],
        "pickup_minute": out["pickup"],
        "delivered_minute": out["delivered"],
        "distance_m": out["distance"],
    }


# ----------------------------------------------------------------------
# Driver.
def generate_tiled(gen):
    """Generate the order log tile-by-tile; see the module docstring."""
    global _TILE_CTX
    cfg = gen.config
    grid = gen.land.grid
    part = tile_layout(grid.rows, grid.cols)

    # Stream 0 drives the city-wide day factors (shared by every tile, so
    # demand keeps its day-to-day correlation); stream t+1 belongs to tile t.
    children = np.random.SeedSequence(cfg.seed).spawn(part.num_tiles + 1)
    day_rng = np.random.default_rng(children[0])
    weekend = np.array([d % 7 in (5, 6) for d in range(cfg.num_days)])
    day_factors = np.where(weekend, 1.15, 1.0) * day_rng.lognormal(
        0.0, cfg.demand_noise, cfg.num_days
    )

    # Warm the shared lookups in the parent so forked workers inherit them.
    registry = gen.store_registry()
    ctx = _TileContext(
        gen=gen,
        partition=part,
        streams=children[1:],
        day_factors=day_factors,
        store_x=np.array([s.x for s in gen.stores]),
        store_y=np.array([s.y for s in gen.stores]),
        pool_sizes=np.array(gen._courier_pool_sizes(), dtype=np.int64),
        period_start=np.array(
            [TimePeriod(t).hours[0] for t in range(NUM_PERIODS)], dtype=np.int64
        ),
        period_hours=np.array(
            [TimePeriod(t).duration_hours for t in range(NUM_PERIODS)],
            dtype=np.int64,
        ),
        halo_m=cfg.max_scope_m + cfg.cell_size,
        by_type=[gen._store_index[t].indices for t in range(cfg.num_store_types)],
    )

    tiles = list(range(part.num_tiles))
    _TILE_CTX = ctx
    try:
        if _pool_usable(len(tiles)):
            with tempfile.TemporaryDirectory(prefix="o2-tilesim-") as arena:
                ctx.arena = arena
                sizes = process_map(_tile_worker, tiles, chunksize=1)
                chunks = [
                    _load_chunk(arena, t)
                    for t, size in zip(tiles, sizes)
                    if size
                ]
                table = OrderTable.concat(chunks, registry)
        else:
            produced = (_tile_columns(t) for t in tiles)
            table = OrderTable.concat(
                [c for c in produced if c is not None], registry
            )
    finally:
        _TILE_CTX = None
    return table.records_view()


def _pool_usable(num_tiles: int) -> bool:
    """Fork-based pools only: workers read ``_TILE_CTX`` through fork."""
    if num_tiles < 2 or num_procs() < 2:
        return False
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()
