"""Tile-parallel order generation: determinism and cache-key stability.

``order_streams="tiles"`` must be a pure function of the city config: the
same table -- byte for byte -- for any ``O2_NUM_PROCS``, and pipeline-cache
keys that never move with the execution environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.city import CityConfig
from repro.city.simulator import megacity_config, simulate_uncached
from repro.city.tilesim import TILE_TARGET_REGIONS, tile_layout
from repro.data.cache import cache_key
from repro.data.ordertable import OrderRecordSeq
from repro.parallel import use_num_procs


def _tiled_config(**overrides) -> CityConfig:
    base = dict(
        rows=36, cols=36, num_days=2, num_couriers=300, seed=5,
        base_population=1500.0, order_streams="tiles",
    )
    base.update(overrides)
    return CityConfig(**base)


def _sha(config: CityConfig) -> str:
    return simulate_uncached(config).orders.table.sha256()


class TestLayout:
    def test_layout_is_pure_function_of_shape(self):
        a = tile_layout(36, 36)
        b = tile_layout(36, 36)
        assert (a.tile_rows, a.tile_cols) == (b.tile_rows, b.tile_cols)
        assert np.array_equal(a.owner, b.owner)

    def test_layout_scales_with_grid(self):
        assert tile_layout(7, 7).num_tiles == 1
        big = tile_layout(100, 100)
        assert big.num_tiles >= 10_000 // TILE_TARGET_REGIONS

    def test_multi_tile_config_used_below(self):
        assert tile_layout(36, 36).num_tiles > 1


class TestDeterminism:
    def test_identical_across_worker_counts(self):
        shas = []
        for procs in (0, 2, 4):
            with use_num_procs(procs):
                shas.append(_sha(_tiled_config()))
        assert len(set(shas)) == 1

    def test_repeatable_within_process(self):
        assert _sha(_tiled_config()) == _sha(_tiled_config())

    def test_seed_changes_output(self):
        assert _sha(_tiled_config()) != _sha(_tiled_config(seed=6))

    def test_cache_key_stable_across_procs(self):
        """Env knobs (O2_NUM_PROCS) never leak into cache keys or artifacts."""
        config = _tiled_config()
        keys, shas = [], []
        for procs in (0, 3):
            with use_num_procs(procs):
                keys.append(cache_key("simulation", config))
                shas.append(_sha(_tiled_config()))
        assert keys[0] == keys[1]
        assert shas[0] == shas[1]


class TestRecords:
    def test_orders_are_well_formed(self):
        sim = simulate_uncached(_tiled_config())
        assert isinstance(sim.orders, OrderRecordSeq)
        assert len(sim.orders) > 0
        order = sim.orders[0]
        assert order.order_id == "O0000000"
        assert order.store_id.startswith("S")
        assert order.courier_id.startswith("C")
        assert order.delivered_minute > order.pickup_minute > order.created_minute
        regions = sim.orders.table.column("customer_region")
        assert regions.min() >= 0
        assert regions.max() < sim.land.num_regions

    def test_observation_noise_supported(self):
        sim = simulate_uncached(_tiled_config(observation_noise=0.3, num_days=1))
        assert len(sim.orders) > 0

    def test_day_factors_shared_city_wide(self):
        """Tiles see the same day-to-day demand factor (stream 0)."""
        sim = simulate_uncached(_tiled_config(num_days=2, demand_noise=0.9))
        table = sim.orders.table
        days = (table.column("created_minute") // 1440).astype(np.int64)
        part = tile_layout(36, 36)
        owner = part.owner[table.column("customer_region").astype(np.int64)]
        per_tile = []
        for tile in range(part.num_tiles):
            mask = owner == tile
            counts = np.bincount(days[mask], minlength=2).astype(float)
            per_tile.append(counts[1] / max(counts[0], 1.0))
        # With a 0.9-sigma shared day factor the day-1/day-0 volume ratio
        # must move together across tiles (all same side within 3x band).
        ratios = np.array(per_tile)
        assert ratios.max() / ratios.min() < 3.0


class TestMegacityPreset:
    def test_megacity_config_shape(self):
        config = megacity_config(seed=7, scale=1.0)
        assert config.order_streams == "tiles"
        assert config.rows * config.cols >= 99_000

    def test_megacity_small_scale_simulates(self):
        sim = simulate_uncached(megacity_config(seed=7, scale=0.1))
        assert len(sim.orders) > 0
        assert sim.orders.table is not None
