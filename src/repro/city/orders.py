"""Order generation: the demand side of the synthetic O2O platform.

For every (day, period, customer-region) we draw a Poisson number of orders,
assign each a store type (period popularity x archetype affinity x sticky
regional taste -- Section II-C: preferences differ by period and by
neighbourhood), and pick a store among those whose pressure-controlled
delivery scope covers the customer, weighted by store quality, distance
decay and estimated delivery time (Section II-B3: long delivery times deter
customers).  The result is a columnar log of Table-I order records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.cache import LRUCache
from ..data.ordertable import OrderTable, StoreRegistry
from ..data.periods import NUM_PERIODS, TimePeriod
from ..data.records import MINUTES_PER_DAY, OrderRecord
from .config import CityConfig
from .couriers import CourierFleet
from .landuse import CityLandUse
from .stores import PlacedStore

# Hard cap on cached (region, type, period) store-choice tables.  The
# per-generator bound is the city's own key count when that is smaller, so
# normal cities cache every cell while huge sweeps stay bounded (~2 KB/entry).
CHOICE_CACHE_SIZE = 65536


@dataclass
class _StoreIndex:
    """Per-type store lookup tables for vectorised choice."""

    indices: np.ndarray  # global store index per type member
    positions: np.ndarray  # (k, 2) metres
    regions: np.ndarray  # (k,)
    qualities: np.ndarray  # (k,)


def _index_stores(stores: List[PlacedStore], num_types: int) -> List[_StoreIndex]:
    by_type: List[List[int]] = [[] for _ in range(num_types)]
    for i, s in enumerate(stores):
        by_type[s.record.store_type].append(i)
    result = []
    for members in by_type:
        members_arr = np.array(members, dtype=np.int64)
        result.append(
            _StoreIndex(
                indices=members_arr,
                positions=np.array([[stores[i].x, stores[i].y] for i in members])
                if members
                else np.zeros((0, 2)),
                regions=np.array(
                    [stores[i].record.region for i in members], dtype=np.int64
                ),
                qualities=np.array([stores[i].quality for i in members]),
            )
        )
    return result


def compute_order_columns(
    cfg: CityConfig,
    prep_per_order: np.ndarray,
    congestion_per_order: np.ndarray,
    uni: np.ndarray,
    exp_d: np.ndarray,
    prep_ln: np.ndarray,
    deliv_ln: np.ndarray,
    noise_z: Optional[np.ndarray],
    base: np.ndarray,
    duration: np.ndarray,
    col: np.ndarray,
    row: np.ndarray,
    store_x: np.ndarray,
    store_y: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Columnar twin of the per-order arithmetic in ``_make_order``.

    Shared by the shared-stream fast path (:meth:`OrderGenerator
    ._assemble_fast`) and the tile-parallel generator
    (:mod:`repro.city.tilesim`); every expression mirrors the scalar
    operation order of the reference exactly so floats match bit-for-bit.
    """
    # cx = (col + u) * cell; cy = (row + u) * cell
    cx = (col + uni[:, 0]) * cfg.cell_size
    cy = (row + uni[:, 1]) * cfg.cell_size
    distance = np.hypot(store_x - cx, store_y - cy)
    # created = day*1440 + start*60 + u*(end-start)*60
    created = base + (uni[:, 2] * duration) * 60
    accepted = created + 0.3 + exp_d
    # prep = max(2.0, prep_minutes[type] * lognormal)
    prep = np.maximum(2.0, prep_per_order * prep_ln)
    pickup = accepted + prep
    # CourierFleet.delivery_minutes, columnar:
    travel = distance / cfg.courier_speed_m_per_min
    minutes = cfg.handling_minutes + travel * congestion_per_order
    minutes = minutes * deliv_ln
    if noise_z is not None:
        # rng.normal(0.0, s) == s * standard_normal(), bit-for-bit.
        minutes = minutes + (cfg.observation_noise * minutes) * noise_z
    delivery = np.maximum(minutes, 2.0)
    delivered = pickup + delivery
    return {
        "cx": cx,
        "cy": cy,
        "distance": distance,
        "created": created,
        "accepted": accepted,
        "pickup": pickup,
        "delivered": delivered,
    }


class OrderGenerator:
    """Generates a month of orders for a synthetic city."""

    def __init__(
        self,
        config: CityConfig,
        land: CityLandUse,
        stores: List[PlacedStore],
        fleet: CourierFleet,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.land = land
        self.stores = stores
        self.fleet = fleet
        self.rng = rng
        self._store_index = _index_stores(stores, config.num_store_types)
        self._centroids = land.grid.centroids()
        # Sticky regional taste: shared with store placement (see landuse).
        self._taste = land.taste
        self._popularity = np.array(
            [t.period_popularity for t in config.store_types]
        )  # (T, P)
        self._affinity = np.array(
            [t.archetype_affinity for t in config.store_types]
        )  # (T, 4)
        self._prep = np.array([t.prep_minutes for t in config.store_types])
        # Congestion multiplier per (store, period), from the store's region.
        self._store_regions = np.array(
            [s.record.region for s in stores], dtype=np.int64
        )
        self._congestion = fleet.congestion_matrix()[self._store_regions]
        self._scopes = fleet.scope_matrix()  # (N, P)
        self._choice_cache: LRUCache = LRUCache(
            maxsize=min(
                land.num_regions * config.num_store_types * NUM_PERIODS,
                CHOICE_CACHE_SIZE,
            )
        )

    # ------------------------------------------------------------------
    def _type_probabilities(self, region: int, period: TimePeriod) -> np.ndarray:
        arch = int(self.land.archetype[region])
        weights = (
            self._popularity[:, int(period)]
            * self._affinity[:, arch]
            * self._taste[region]
        )
        total = weights.sum()
        if total <= 0:  # pragma: no cover - defensive
            return np.full(len(weights), 1.0 / len(weights))
        return weights / total

    def _store_choice(
        self, region: int, store_type: int, period: TimePeriod
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Candidate store lookup for one (region, type, period) cell.

        Returns ``(candidates, probs, cdf, global_indices)``: positions in
        the per-type table, their choice probabilities, the normalised
        cumulative distribution (the fast path inlines ``rng.choice`` as an
        inverse-CDF lookup), and the matching global store indices.  Cached
        per (region, type, period) -- scopes and congestion are static
        within a simulated month -- in a bounded LRU.
        """
        key = (region, store_type, int(period))
        cached = self._choice_cache.get(key)
        if cached is not None:
            return cached

        table = self._store_index[store_type]
        if len(table.indices) == 0:
            empty = (
                np.array([], dtype=np.int64),
                np.array([]),
                np.array([]),
                np.array([], dtype=np.int64),
            )
            self._choice_cache[key] = empty
            return empty

        cfg = self.config
        centroid = self._centroids[region]
        dists = np.sqrt(((table.positions - centroid) ** 2).sum(axis=1))
        scopes = self._scopes[table.regions, int(period)]
        within = dists <= scopes
        if not within.any():
            # Fall back to the three nearest stores (platform always shows
            # *something*, albeit with long delivery times).
            within = np.zeros_like(within)
            within[np.argsort(dists)[:3]] = True

        candidates = np.flatnonzero(within)
        d = dists[candidates]
        est_time = (
            cfg.handling_minutes
            + d
            / cfg.courier_speed_m_per_min
            * self._congestion[table.indices[candidates], int(period)]
        )
        weights = (
            table.qualities[candidates]
            * np.exp(-d / cfg.distance_decay_m)
            * np.exp(-est_time / cfg.time_tolerance_min)
        )
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(len(weights), 1.0 / len(weights))
        # Inverse-CDF table, normalised exactly the way ``rng.choice`` does
        # internally so the fast path's searchsorted draws match bit-for-bit.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        entry = (candidates, probs, cdf, table.indices[candidates])
        self._choice_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    def generate(self) -> Sequence[OrderRecord]:
        """Simulate ``config.num_days`` days of orders.

        Returns a lazy :class:`~repro.data.ordertable.OrderRecordSeq` view
        over an :class:`~repro.data.ordertable.OrderTable`.  The shared
        stream runs the columnar :meth:`_generate_fast`, record-for-record
        equal to :meth:`generate_reference` (``tests/test_fast_sim.py``).
        With ``config.order_streams == "tiles"`` the deterministic-streams
        tile-parallel generator runs instead (its own RNG discipline, see
        :mod:`repro.city.tilesim`).
        """
        if getattr(self.config, "order_streams", "shared") == "tiles":
            from .tilesim import generate_tiled

            return generate_tiled(self)
        return self._generate_fast()

    def generate_reference(self) -> List[OrderRecord]:
        """The shared stream's per-order reference loop (the test oracle).

        Draws every variate and assembles every record in nested Python
        loops (:meth:`_make_order`), as a materialised record list.  No
        production path calls it: tests and the benchmarks' reference legs
        patch it over :meth:`generate` to check the fast path against it.
        """
        cfg = self.config
        rng = self.rng
        orders: List[OrderRecord] = []
        order_counter = 0

        for day in range(cfg.num_days):
            weekend = day % 7 in (5, 6)
            day_factor = (1.15 if weekend else 1.0) * rng.lognormal(
                0.0, cfg.demand_noise
            )
            for period in TimePeriod:
                t = int(period)
                lam = (
                    self.fleet.demand_rate[:, t]
                    * period.duration_hours
                    * day_factor
                )
                counts = rng.poisson(lam)
                for region in np.flatnonzero(counts):
                    n = int(counts[region])
                    type_probs = self._type_probabilities(region, period)
                    type_counts = rng.multinomial(n, type_probs)
                    for store_type in np.flatnonzero(type_counts):
                        k = int(type_counts[store_type])
                        candidates, probs = self._store_choice(
                            region, int(store_type), period
                        )[:2]
                        if len(candidates) == 0:
                            continue  # type has no store anywhere
                        picks = rng.choice(candidates, size=k, p=probs)
                        for pick in picks:
                            orders.append(
                                self._make_order(
                                    order_counter,
                                    day,
                                    period,
                                    region,
                                    int(store_type),
                                    int(pick),
                                )
                            )
                            order_counter += 1
        return orders

    # -- columnar fast path --------------------------------------------
    def _courier_pool_sizes(self) -> List[int]:
        """Per-region courier-pool sizes with the empty-pool fallback applied.

        ``CourierFleet.sample_courier`` draws from the whole fleet whenever
        a region has no home couriers; the fast paths' ``rng.integers(size)``
        draws must use the same pool size to stay identical.
        """
        pools = self.fleet.couriers_by_region
        fleet_size = sum(len(p) for p in pools)
        return [len(p) if p else fleet_size for p in pools]

    def _courier_numbering(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, has_pool, flat_ids)`` for integer courier lookup.

        ``flat_ids`` is the whole fleet in region-concatenation order --
        the same flattening ``sample_courier`` uses for the empty-pool
        fallback -- so an in-pool draw ``ci`` for store region ``sr`` maps
        to global courier number ``offsets[sr] + ci`` and a fallback draw
        maps to ``ci`` directly.
        """
        cached = getattr(self, "_courier_numbers", None)
        if cached is None:
            pools = self.fleet.couriers_by_region
            sizes = np.array([len(p) for p in pools], dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            flat_ids = np.array(
                [c for regional in pools for c in regional]
            )
            cached = (offsets, sizes > 0, flat_ids)
            self._courier_numbers = cached
        return cached

    def _courier_numbers_for(
        self, store_regions: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Global courier numbers for per-order pool draws ``draws``."""
        offsets, has_pool, _ = self._courier_numbering()
        nums = np.empty(len(draws), dtype=np.int64)
        mask = has_pool[store_regions]
        nums[mask] = offsets[store_regions[mask]] + draws[mask]
        nums[~mask] = draws[~mask]
        return nums

    def store_registry(self) -> StoreRegistry:
        """Shared id tables for :class:`~repro.data.ordertable.OrderTable`."""
        cached = getattr(self, "_registry", None)
        if cached is None:
            stores = self.stores
            cached = StoreRegistry(
                store_ids=np.array([s.record.store_id for s in stores]),
                store_lon=np.array([s.record.lon for s in stores]),
                store_lat=np.array([s.record.lat for s in stores]),
                courier_ids=self._courier_numbering()[2],
            )
            self._registry = cached
        return cached

    def _generate_fast(self) -> Sequence[OrderRecord]:
        """Columnar twin of :meth:`generate_reference`, bit-for-bit.

        RNG calls happen in exactly the reference order: the per-day and
        per-period group draws are unchanged, ``rng.choice`` becomes the
        equivalent ``rng.random(k)`` + inverse-CDF lookup, and the per-order
        draws run in a tight buffer-filling loop (the delivery-noise
        ``normal`` as a ``standard_normal`` scaled later).  All derived
        arithmetic is deferred to :meth:`_assemble_fast`, as columnar numpy
        expressions that reproduce the reference's scalar operation order
        elementwise.

        The numpy stream identities this relies on, bitwise (pinned by
        ``tests/test_fast_sim.py``, so a numpy upgrade that breaks one fails
        there first):

        * ``rng.random(n)`` draws the same doubles as ``n`` scalar
          ``rng.random()`` calls;
        * ``rng.lognormal(0.0, [s1, s2])`` draws the same values as two
          scalar ``rng.lognormal(0.0, si)`` calls;
        * ``rng.normal(0.0, s)`` equals ``s * rng.standard_normal()``
          (``0.0 + s*z`` cannot round differently from ``s*z``);
        * ``rng.choice(a, size=k, p=p)`` equals
          ``a[cdf.searchsorted(rng.random(k), 'right')]`` with
          ``cdf = p.cumsum(); cdf /= cdf[-1]`` -- numpy's own implementation
          of the replacement path.
        """
        cfg = self.config
        rng = self.rng
        cols = self.land.grid.cols
        noisy = cfg.observation_noise > 0

        rand = rng.random
        rexp = rng.exponential
        rlog = rng.lognormal
        rint = rng.integers
        rstd = rng.standard_normal

        pool_sizes = self._courier_pool_sizes()
        store_regions = self._store_regions
        choice_get = self._choice_cache.get
        type_prob_cache: Dict[Tuple[int, int], np.ndarray] = {}

        # Per-order draw buffers (plain lists: append beats array stores at
        # the typical group size of 1-2 picks) and per-group metadata.
        u0, u1, u2 = [], [], []
        exp_d, prep_ln, deliv_ln, noise_z = [], [], [], []
        cust, cour = [], []
        picked_groups = []  # (k,) global store indices per group
        g_meta = []  # (base_minute, duration, t, col, row, region, type, k)

        for day in range(cfg.num_days):
            weekend = day % 7 in (5, 6)
            day_factor = (1.15 if weekend else 1.0) * rng.lognormal(
                0.0, cfg.demand_noise
            )
            for period in TimePeriod:
                t = int(period)
                start_hour, end_hour = period.hours
                lam = (
                    self.fleet.demand_rate[:, t]
                    * period.duration_hours
                    * day_factor
                )
                counts = rng.poisson(lam)
                base = day * MINUTES_PER_DAY + start_hour * 60
                duration = end_hour - start_hour

                for region in np.flatnonzero(counts).tolist():
                    n = int(counts[region])
                    type_probs = type_prob_cache.get((region, t))
                    if type_probs is None:
                        type_probs = self._type_probabilities(region, period)
                        type_prob_cache[(region, t)] = type_probs
                    type_counts = rng.multinomial(n, type_probs)
                    row, col = divmod(region, cols)
                    for store_type in np.flatnonzero(type_counts).tolist():
                        k = int(type_counts[store_type])
                        entry = choice_get((region, store_type, t))
                        if entry is None:
                            entry = self._store_choice(
                                region, store_type, period
                            )
                        candidates, _, cdf, global_idx = entry
                        if len(candidates) == 0:
                            continue  # type has no store anywhere
                        # rng.choice(candidates, size=k, p=probs), inlined.
                        picked = global_idx[
                            cdf.searchsorted(rand(k), side="right")
                        ]
                        picked_groups.append(picked)
                        g_meta.append(
                            (base, duration, t, col, row, region, store_type, k)
                        )
                        if noisy:
                            for sr in store_regions[picked].tolist():
                                u0.append(rand())
                                u1.append(rand())
                                u2.append(rand())
                                exp_d.append(rexp(1.2))
                                prep_ln.append(rlog(0.0, 0.2))
                                deliv_ln.append(rlog(0.0, 0.12))
                                noise_z.append(rstd())
                                cust.append(rint(10_000))
                                cour.append(rint(pool_sizes[sr]))
                        else:
                            for sr in store_regions[picked].tolist():
                                u0.append(rand())
                                u1.append(rand())
                                u2.append(rand())
                                exp_d.append(rexp(1.2))
                                prep_ln.append(rlog(0.0, 0.2))
                                deliv_ln.append(rlog(0.0, 0.12))
                                cust.append(rint(10_000))
                                cour.append(rint(pool_sizes[sr]))

        if not picked_groups:
            return OrderTable.concat([], self.store_registry()).records_view()
        draws = {
            "u0": np.array(u0),
            "u1": np.array(u1),
            "u2": np.array(u2),
            "exp": np.array(exp_d),
            "prep_ln": np.array(prep_ln),
            "deliv_ln": np.array(deliv_ln),
            "noise_z": np.array(noise_z) if noisy else None,
            "cust": np.array(cust, dtype=np.int64),
            "cour": np.array(cour, dtype=np.int64),
        }
        return self._assemble_fast(picked_groups, g_meta, draws, noisy)

    def _assemble_fast(
        self, picked_groups, g_meta, draws, noisy: bool
    ) -> Sequence[OrderRecord]:
        """Turn draw buffers into an order-table view, columnar.

        Each expression mirrors the scalar operation order of
        :meth:`_make_order` exactly (same grouping, same operand order) so
        every float matches the reference bit-for-bit.  The result is a
        lazy :class:`~repro.data.ordertable.OrderRecordSeq` view over an
        :class:`~repro.data.ordertable.OrderTable`.
        """
        cfg = self.config
        grid = self.land.grid

        gidx = np.concatenate(picked_groups)
        meta = np.array(g_meta, dtype=np.int64)  # (G, 8)
        ks = meta[:, 7]
        base = np.repeat(meta[:, 0], ks)
        duration = np.repeat(meta[:, 1], ks)
        t_arr = np.repeat(meta[:, 2], ks)
        col = np.repeat(meta[:, 3], ks)
        row = np.repeat(meta[:, 4], ks)
        creg = np.repeat(meta[:, 5], ks)
        stype = np.repeat(meta[:, 6], ks)
        uni = np.stack([draws["u0"], draws["u1"], draws["u2"]], axis=1)

        stores = self.stores
        store_x = np.array([s.x for s in stores])
        store_y = np.array([s.y for s in stores])

        cols = compute_order_columns(
            cfg,
            self._prep[stype],
            self._congestion[gidx, t_arr],
            uni,
            draws["exp"],
            draws["prep_ln"],
            draws["deliv_ln"],
            draws["noise_z"] if noisy else None,
            base,
            duration,
            col,
            row,
            store_x[gidx],
            store_y[gidx],
        )
        clon, clat = grid.to_lonlat(cols["cx"], cols["cy"])
        sregs = self._store_regions[gidx]
        table = OrderTable(
            {
                "store_index": gidx,
                "store_region": sregs,
                "customer_region": creg,
                "store_type": stype,
                "cust_tag": creg,
                "cust_serial": draws["cust"],
                "courier_num": self._courier_numbers_for(sregs, draws["cour"]),
                "customer_lon": clon,
                "customer_lat": clat,
                "created_minute": cols["created"],
                "accepted_minute": cols["accepted"],
                "pickup_minute": cols["pickup"],
                "delivered_minute": cols["delivered"],
                "distance_m": cols["distance"],
            },
            self.store_registry(),
        )
        return table.records_view()

    def _make_order(
        self,
        counter: int,
        day: int,
        period: TimePeriod,
        customer_region: int,
        store_type: int,
        pick: int,
    ) -> OrderRecord:
        cfg = self.config
        rng = self.rng
        table = self._store_index[store_type]
        store = self.stores[int(table.indices[pick])]

        row, col = self.land.grid.row_col(customer_region)
        cx = (col + rng.random()) * cfg.cell_size
        cy = (row + rng.random()) * cfg.cell_size
        distance = float(np.hypot(store.x - cx, store.y - cy))

        start_hour, end_hour = period.hours
        created = (
            day * MINUTES_PER_DAY
            + start_hour * 60
            + rng.random() * (end_hour - start_hour) * 60
        )
        accepted = created + 0.3 + rng.exponential(1.2)
        prep = max(2.0, self._prep[store_type] * rng.lognormal(0.0, 0.2))
        pickup = accepted + prep
        delivery = self.fleet.delivery_minutes(
            store.record.region, distance, period, rng
        )
        delivered = pickup + delivery

        clon, clat = self.land.grid.to_lonlat(cx, cy)
        return OrderRecord(
            order_id=f"O{counter:07d}",
            store_id=store.record.store_id,
            customer_id=f"U{customer_region:04d}_{int(rng.integers(10_000)):04d}",
            courier_id=self.fleet.sample_courier(store.record.region, rng),
            store_lon=store.record.lon,
            store_lat=store.record.lat,
            customer_lon=clon,
            customer_lat=clat,
            store_region=store.record.region,
            customer_region=customer_region,
            created_minute=float(created),
            accepted_minute=float(accepted),
            pickup_minute=float(pickup),
            delivered_minute=float(delivered),
            distance_m=distance,
            store_type=store_type,
        )
