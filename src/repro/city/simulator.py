"""Simulation entry points and the two dataset presets.

:func:`simulate` wires land use -> stores -> fleet -> orders and returns a
:class:`SimulationResult`.  The presets mirror the paper's two evaluation
datasets:

* :func:`real_world_dataset` -- the stand-in for the one-month Eleme
  Shanghai dataset (dense, clean);
* :func:`simulation_dataset` -- the stand-in for the paper's open-dataset
  simulation (sparser, noisier: the paper reports worse absolute scores on
  it "due to the noise generated by the simulation and data sparsity").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.ordertable import OrderTable
from ..data.periods import NUM_PERIODS, TimePeriod
from ..data.records import MINUTES_PER_DAY, OrderRecord
from ..geo.grid import RegionGrid
from .config import CityConfig
from .couriers import CourierFleet, build_fleet
from .landuse import CityLandUse, synthesize_land_use
from .orders import OrderGenerator
from .stores import PlacedStore, place_stores, store_type_counts

# int(created % 1440 // 60) -> TimePeriod, as a gather table.
_HOUR_PERIOD = np.array(
    [int(TimePeriod.from_hour(h)) for h in range(24)], dtype=np.int64
)


@dataclass
class SimulationResult:
    """Everything a study needs: the city, its stores and a month of orders.

    ``land`` and ``fleet`` contain latent ground truth (archetypes, true
    capacity ratios); the learning pipeline must only consume ``orders``,
    ``stores`` and the public context arrays (POIs, roads) -- the same
    information boundary as the paper's.
    """

    config: CityConfig
    land: CityLandUse
    stores: List[PlacedStore]
    fleet: CourierFleet
    orders: Sequence[OrderRecord]

    @property
    def num_orders(self) -> int:
        return len(self.orders)

    @property
    def num_stores(self) -> int:
        return len(self.stores)

    @property
    def order_table(self) -> Optional[OrderTable]:
        """The columnar order log, when the orders are an ``OrderRecordSeq``.

        Both order generators emit one.  ``None`` when the orders are a
        materialised record list: agent-dispatch re-stamping, or the
        per-order reference oracles that tests patch in.
        """
        return getattr(self.orders, "table", None)

    def store_type_counts(self) -> np.ndarray:
        """Observable (region x type) store counts."""
        return store_type_counts(
            self.stores, self.land.num_regions, self.config.num_store_types
        )

    def order_stats(self) -> Dict[str, object]:
        """Per-period order counts and mean delivery minutes.

        Columnar when the orders carry an :class:`OrderTable` (three numpy
        reductions), a single Python pass over the records otherwise.
        """
        table = self.order_table
        if table is not None and len(table):
            created = table.column("created_minute")
            hours = (
                created.astype(np.int64) % MINUTES_PER_DAY
            ) // 60
            periods = _HOUR_PERIOD[hours]
            per_period = np.bincount(periods, minlength=NUM_PERIODS)
            mean_delivery = float(
                (
                    table.column("delivered_minute")
                    - table.column("pickup_minute")
                ).mean()
            )
        else:
            per_period = np.zeros(NUM_PERIODS, dtype=np.int64)
            total = 0.0
            for o in self.orders:
                per_period[int(o.period)] += 1
                total += o.delivery_minutes
            mean_delivery = total / max(len(self.orders), 1)
        return {
            "per_period": per_period,
            "mean_delivery_minutes": mean_delivery,
        }

    def summary(self) -> str:
        cfg = self.config
        text = (
            f"SyntheticCity {cfg.rows}x{cfg.cols} regions "
            f"({cfg.cell_size:.0f} m cells), {self.num_stores} stores, "
            f"{cfg.num_store_types} types, {cfg.num_days} days, "
            f"{self.num_orders} orders, {cfg.num_couriers} couriers"
        )
        if self.num_orders:
            stats = self.order_stats()
            peak = int(np.argmax(stats["per_period"]))
            text += (
                f"; mean delivery {stats['mean_delivery_minutes']:.1f} min, "
                f"peak period {TimePeriod(peak).name.lower()}"
            )
        return text


def simulate(config: CityConfig) -> SimulationResult:
    """Run the full simulation pipeline for ``config``.

    With ``dispatch_mode="agents"`` the generated orders are re-stamped by
    the event-driven dispatcher: delivery times then *emerge* from courier
    agents instead of the closed-form congestion model.

    When the pipeline artifact cache is enabled (``O2_PIPELINE_CACHE``,
    see :mod:`repro.data.cache`), the order log is served from disk on
    repeat calls with an identical config; the returned result is equal to
    a fresh simulation either way.
    """
    from ..data.cache import pipeline_cache_enabled, simulate_cached

    if pipeline_cache_enabled():
        return simulate_cached(config)
    return simulate_uncached(config)


def simulate_uncached(config: CityConfig) -> SimulationResult:
    """The raw pipeline: land use -> stores -> fleet -> orders."""
    rng = np.random.default_rng(config.seed)
    land = synthesize_land_use(config, rng)
    stores = place_stores(config, land, rng)
    fleet = build_fleet(config, land, rng)
    orders = OrderGenerator(config, land, stores, fleet, rng).generate()
    if not orders:
        raise RuntimeError("simulation produced no orders; raise order_rate")
    if config.dispatch_mode == "agents":
        from .dispatch import dispatch_orders

        orders = dispatch_orders(config, land, fleet, orders, seed=config.seed)
    return SimulationResult(
        config=config, land=land, stores=stores, fleet=fleet, orders=orders
    )


def real_world_config(seed: int = 7, scale: float = 1.0) -> CityConfig:
    """Config of the Eleme-Shanghai stand-in (dense, low-noise)."""
    rows = max(int(round(16 * scale)), 6)
    return CityConfig(
        rows=rows,
        cols=rows,
        num_days=14,
        num_couriers=int(300 * scale * scale) + 40,
        seed=seed,
        demand_noise=0.12,
        observation_noise=0.0,
        sparsity=0.55,
    )


def real_world_dataset(seed: int = 7, scale: float = 1.0) -> SimulationResult:
    """Stand-in for the Eleme Shanghai month (dense, clean).

    ``scale`` < 1 shrinks the city for quick experiments.
    """
    return simulate(real_world_config(seed=seed, scale=scale))


def _resynthesize_customer_locations(
    sim: SimulationResult, rng: np.random.Generator
) -> Sequence[OrderRecord]:
    """Regenerate customer locations from distances, as the paper did.

    The paper's open simulation dataset lacked customer locations; the
    authors "use distance to randomly generate the customer's location
    based on historical transaction patterns".  We mirror that degradation:
    each order keeps its store, timestamps and customer-store distance, but
    the customer is re-placed at the same distance in a uniformly random
    direction (clamped to the city).  This scrambles the customer-region
    signal exactly the way their synthesis does.
    """
    grid = sim.land.grid
    max_x = grid.cols * grid.cell_size
    max_y = grid.rows * grid.cell_size
    table = sim.order_table
    if table is not None:
        # Columnar twin of the record loop below: the same draws (one
        # ``rng.random()`` per order equals ``rng.random(n)``), the same
        # arithmetic elementwise, and ``region_of_point``'s clamp, but
        # reading/writing table columns instead of record fields.  The
        # customer_id (cust_tag/cust_serial) survives unchanged, exactly as
        # ``replace`` keeps it on the record path.
        si = table.column("store_index")
        slon = table.registry.store_lon[si]
        slat = table.registry.store_lat[si]
        dist = table.column("distance_m")
        sx, sy = grid.from_lonlat(slon, slat)
        angle = rng.random(len(table)) * 2 * np.pi
        cx = np.clip(sx + dist * np.cos(angle), 0, max_x - 1)
        cy = np.clip(sy + dist * np.sin(angle), 0, max_y - 1)
        lon, lat = grid.to_lonlat(cx, cy)
        col = np.clip(cx // grid.cell_size, 0, grid.cols - 1).astype(np.int64)
        row = np.clip(cy // grid.cell_size, 0, grid.rows - 1).astype(np.int64)
        region = row * grid.cols + col
        return table.replace_columns(
            customer_lon=lon,
            customer_lat=lat,
            customer_region=region.astype(np.int32),
        ).records_view()
    rewritten = []
    for order in sim.orders:
        sx, sy = grid.from_lonlat(order.store_lon, order.store_lat)
        angle = rng.random() * 2 * np.pi
        cx = float(np.clip(sx + order.distance_m * np.cos(angle), 0, max_x - 1))
        cy = float(np.clip(sy + order.distance_m * np.sin(angle), 0, max_y - 1))
        lon, lat = grid.to_lonlat(cx, cy)
        rewritten.append(
            replace(
                order,
                customer_lon=lon,
                customer_lat=lat,
                customer_region=grid.region_of_point(cx, cy),
            )
        )
    return rewritten


def simulation_config(seed: int = 11, scale: float = 1.0) -> CityConfig:
    """Config of the open-dataset simulation stand-in (sparse, noisy)."""
    rows = max(int(round(16 * scale)), 6)
    return CityConfig(
        rows=rows,
        cols=rows,
        num_days=10,
        num_couriers=int(160 * scale * scale) + 30,
        seed=seed,
        demand_noise=0.5,
        observation_noise=0.35,
        sparsity=0.45,
    )


def simulation_dataset(seed: int = 11, scale: float = 1.0) -> SimulationResult:
    """Stand-in for the paper's open-dataset simulation (sparse, noisy).

    Same city footprint as :func:`real_world_dataset` (so candidate pools
    are comparable) but fewer orders, noisier demand and recorded delivery
    times, and -- matching the paper's construction -- customer locations
    re-synthesised from distances, which scrambles the customer-region
    signal.  The paper attributes the lower Table IV scores to exactly this
    noise and sparsity.
    """
    sim = simulate(simulation_config(seed=seed, scale=scale))
    rng = np.random.default_rng(seed + 991)
    noisy_orders = _resynthesize_customer_locations(sim, rng)
    return SimulationResult(
        config=sim.config,
        land=sim.land,
        stores=sim.stores,
        fleet=sim.fleet,
        orders=noisy_orders,
    )


def metropolis_config(seed: int = 7, scale: float = 1.0) -> CityConfig:
    """Config of the metropolis preset: a 10k+-region city at ``scale=1``.

    The paper's real setting is a city-wide feed (23.6M orders across
    Shanghai); the two paper-shaped presets above stop at 16x16 grids.
    This preset stresses the *graph* dimension instead: a 100x100 grid
    (10,000 regions, ~1.3M S-U edges per day across the periods) with a
    thin order history per region -- the regime the grid-tile sharded
    propagation path (:mod:`repro.core.shard`) exists for.  Simulation
    relies on the vectorised fast path; expect ~20s at full scale.
    """
    rows = max(int(round(100 * scale)), 24)
    return CityConfig(
        rows=rows,
        cols=rows,
        num_days=2,
        num_couriers=max(int(5000 * scale * scale), 200),
        seed=seed,
        sparsity=0.1,
        base_population=1800.0,
    )


def metropolis_dataset(seed: int = 7, scale: float = 1.0) -> SimulationResult:
    """A 10k+-region metropolis month slice (see :func:`metropolis_config`)."""
    return simulate(metropolis_config(seed=seed, scale=scale))


def megacity_config(seed: int = 7, scale: float = 1.0) -> CityConfig:
    """Config of the megacity preset: ~100k regions at ``scale=1``.

    One order of magnitude past :func:`metropolis_config`: a 316x316 grid
    (99,856 regions) covering a ~158 km square -- the regime where the
    order generator and graph build, not propagation, are the bottleneck.
    The preset therefore switches ``order_streams`` to ``"tiles"``: orders
    are generated per grid tile from independent ``SeedSequence``-spawned
    streams (:mod:`repro.city.tilesim`), embarrassingly parallel and
    deterministic for any worker count, instead of the shared-stream
    reference discipline the paper-scale presets keep.  The graph build at
    this size runs the streaming banded path (:mod:`repro.graphs.hetero`).
    """
    rows = max(int(round(316 * scale)), 24)
    return CityConfig(
        rows=rows,
        cols=rows,
        num_days=1,
        num_couriers=max(int(40_000 * scale * scale), 200),
        seed=seed,
        sparsity=0.35,
        base_population=1600.0,
        order_streams="tiles",
    )


def megacity_dataset(seed: int = 7, scale: float = 1.0) -> SimulationResult:
    """A ~100k-region megacity day slice (see :func:`megacity_config`)."""
    return simulate(megacity_config(seed=seed, scale=scale))


def tiny_dataset(seed: int = 3) -> SimulationResult:
    """A minutes-fast city for unit tests and doc examples."""
    config = CityConfig(
        rows=7,
        cols=7,
        num_days=5,
        num_couriers=60,
        seed=seed,
        base_population=2200.0,
    )
    return simulate(config)
