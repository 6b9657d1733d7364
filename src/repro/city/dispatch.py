"""Event-driven courier dispatch simulation.

The default simulator stamps delivery times from a closed-form congestion
model.  This module offers the agent-based alternative
(``CityConfig.dispatch_mode = "agents"``): couriers are stateful agents
with positions and availability times; each order is assigned to the
courier who can reach the store soonest, and pickup/delivery timestamps
emerge from the agents' movements.  Rush-hour shortages then produce long
delivery times *mechanically* -- every courier is still finishing the
previous job -- rather than through a formula, which is how the real
platform's capacity constraint (Section II-B) actually arises.

The dispatcher mirrors published descriptions of on-demand dispatch (cf.
the paper's reference [1]): greedy nearest-ETA assignment over the on-shift
fleet, with couriers returning to duty at the customer's location.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..data.periods import TimePeriod
from ..data.records import OrderRecord
from .config import CityConfig
from .couriers import ACTIVE_FRACTION, CourierFleet
from .landuse import CityLandUse


@dataclass
class CourierState:
    """One courier agent."""

    courier_id: str
    x: float
    y: float
    available_at: float  # minute the courier is free again
    on_shift: bool = True


class DispatchSimulator:
    """Greedy nearest-ETA dispatcher over a stateful courier fleet."""

    def __init__(
        self,
        config: CityConfig,
        land: CityLandUse,
        fleet: CourierFleet,
        rng: np.random.Generator,
        max_wait_minutes: float = 45.0,
    ) -> None:
        if max_wait_minutes <= 0:
            raise ValueError("max_wait_minutes must be positive")
        self.config = config
        self.land = land
        self.fleet = fleet
        self.rng = rng
        # The platform's admission control: if no courier can reach the
        # store within this bound, the order is rejected (in reality the
        # delivery scope would have been shrunk before this point -- this
        # is the same pressure-control mechanism at the dispatch stage).
        self.max_wait_minutes = max_wait_minutes
        self.rejected: int = 0
        self._couriers = self._spawn_couriers()
        # Vectorised views of courier state, kept in sync with _couriers.
        self._xy = np.array([[c.x, c.y] for c in self._couriers])
        self._available = np.array([c.available_at for c in self._couriers])

    def _spawn_couriers(self) -> List[CourierState]:
        couriers: List[CourierState] = []
        grid = self.land.grid
        for region, pool in enumerate(self.fleet.couriers_by_region):
            row, col = grid.row_col(region)
            for courier_id in pool:
                x = (col + self.rng.random()) * self.config.cell_size
                y = (row + self.rng.random()) * self.config.cell_size
                couriers.append(
                    CourierState(courier_id=courier_id, x=x, y=y, available_at=0.0)
                )
        if not couriers:
            raise RuntimeError("fleet has no couriers to dispatch")
        return couriers

    # ------------------------------------------------------------------
    def _on_shift_mask(self, minute: float) -> np.ndarray:
        """Which couriers are on shift at ``minute``.

        Shift membership is deterministic per courier and period: courier
        ``i`` works a period when ``i`` falls inside the period's active
        fraction of the (rotated) fleet, so the on-duty headcount matches
        the schedule the closed-form model uses.
        """
        period = TimePeriod.from_hour(int((minute % 1440) // 60))
        fraction = ACTIVE_FRACTION[period]
        n = len(self._couriers)
        count = max(int(round(fraction * n)), 1)
        start = int(period) * (n // 5)
        indices = (np.arange(count) + start) % n
        mask = np.zeros(n, dtype=bool)
        mask[indices] = True
        return mask

    def assign(self, order: OrderRecord) -> Optional[OrderRecord]:
        """Dispatch one order; ``None`` if admission control rejects it.

        The store-side fields, creation time and customer location are kept;
        acceptance, pickup and delivery are recomputed from the assigned
        courier's state.
        """
        cfg = self.config
        grid = self.land.grid
        sx, sy = grid.from_lonlat(order.store_lon, order.store_lat)
        cx, cy = grid.from_lonlat(order.customer_lon, order.customer_lat)

        mask = self._on_shift_mask(order.created_minute)
        candidates = np.flatnonzero(mask)
        if len(candidates) == 0:  # pragma: no cover - mask always non-empty
            candidates = np.arange(len(self._couriers))

        to_store = np.hypot(
            self._xy[candidates, 0] - sx, self._xy[candidates, 1] - sy
        )
        free_at = np.maximum(self._available[candidates], order.created_minute)
        eta = free_at + to_store / cfg.courier_speed_m_per_min
        best = int(candidates[np.argmin(eta)])
        if float(np.min(eta)) - order.created_minute > self.max_wait_minutes:
            self.rejected += 1
            return None

        accepted = max(
            order.created_minute + 0.3,
            min(float(eta[np.argmin(eta)]) - 1e-9, order.created_minute + 15.0),
        )
        accepted = max(accepted, order.created_minute + 0.3)

        prep_ready = order.pickup_minute - order.accepted_minute  # original prep
        arrive_store = float(np.min(eta)) + cfg.handling_minutes / 2.0
        pickup = max(arrive_store, order.created_minute + prep_ready)

        travel = (
            np.hypot(sx - cx, sy - cy) / cfg.courier_speed_m_per_min
        ) * self.rng.lognormal(0.0, 0.08)
        delivered = pickup + travel + cfg.handling_minutes / 2.0

        # Update the winning courier: finishes at the customer's door.
        courier = self._couriers[best]
        courier.x, courier.y = cx, cy
        courier.available_at = delivered + 0.5  # drop-off/confirmation
        self._xy[best] = (cx, cy)
        self._available[best] = courier.available_at

        return replace(
            order,
            courier_id=courier.courier_id,
            accepted_minute=min(accepted, pickup),
            pickup_minute=pickup,
            delivered_minute=delivered,
        )

    def run(self, orders: Sequence[OrderRecord]) -> List[OrderRecord]:
        """Dispatch a month of orders in creation order.

        Rejected orders (admission control) are dropped from the log, as
        they would never appear in the platform's completed-order records;
        the count is available as :attr:`rejected`.

        This is the :meth:`assign` loop with per-order overhead hoisted,
        bit-for-bit equal to :meth:`run_reference`: the sole RNG draw per
        accepted order happens at the same point in the stream, the
        store/customer coordinates are the same ``from_lonlat`` arithmetic
        evaluated columnar up front, and the on-shift candidate set (a pure
        function of the period) is computed once per period instead of per
        order.
        """
        ordered = sorted(orders, key=lambda o: o.created_minute)
        cfg = self.config
        grid = self.land.grid
        speed = cfg.courier_speed_m_per_min
        half_handling = cfg.handling_minutes / 2.0
        max_wait = self.max_wait_minutes
        n = len(self._couriers)

        slon = np.array([o.store_lon for o in ordered])
        slat = np.array([o.store_lat for o in ordered])
        clon = np.array([o.customer_lon for o in ordered])
        clat = np.array([o.customer_lat for o in ordered])
        sx, sy = grid.from_lonlat(slon, slat)
        cx, cy = grid.from_lonlat(clon, clat)
        sx = sx.tolist()
        sy = sy.tolist()
        cx = cx.tolist()
        cy = cy.tolist()

        candidate_cache = {}
        xy = self._xy
        available = self._available
        couriers = self._couriers
        lognormal = self.rng.lognormal
        out: List[OrderRecord] = []

        for i, order in enumerate(ordered):
            created = order.created_minute
            period = TimePeriod.from_hour(int((created % 1440) // 60))
            candidates = candidate_cache.get(period)
            if candidates is None:
                mask = self._on_shift_mask(created)
                candidates = np.flatnonzero(mask)
                if len(candidates) == 0:  # pragma: no cover - non-empty
                    candidates = np.arange(n)
                candidate_cache[period] = candidates

            sxi = sx[i]
            syi = sy[i]
            to_store = np.hypot(xy[candidates, 0] - sxi, xy[candidates, 1] - syi)
            free_at = np.maximum(available[candidates], created)
            eta = free_at + to_store / speed
            j = int(np.argmin(eta))
            eta_min = float(eta[j])
            if eta_min - created > max_wait:
                self.rejected += 1
                continue
            best = int(candidates[j])

            accepted = max(
                created + 0.3, min(eta_min - 1e-9, created + 15.0)
            )
            prep_ready = order.pickup_minute - order.accepted_minute
            arrive_store = eta_min + half_handling
            pickup = max(arrive_store, created + prep_ready)

            cxi = cx[i]
            cyi = cy[i]
            travel = (np.hypot(sxi - cxi, syi - cyi) / speed) * lognormal(
                0.0, 0.08
            )
            delivered = pickup + travel + half_handling

            courier = couriers[best]
            courier.x, courier.y = cxi, cyi
            courier.available_at = delivered + 0.5
            xy[best] = (cxi, cyi)
            available[best] = courier.available_at

            out.append(
                replace(
                    order,
                    courier_id=courier.courier_id,
                    accepted_minute=min(accepted, pickup),
                    pickup_minute=pickup,
                    delivered_minute=delivered,
                )
            )
        return out

    def run_reference(self, orders: Sequence[OrderRecord]) -> List[OrderRecord]:
        """One :meth:`assign` per order: :meth:`run`'s test oracle.

        No production path calls it: tests and the benchmarks' reference
        legs patch it over :meth:`run` to check the fast loop against it.
        """
        ordered = sorted(orders, key=lambda o: o.created_minute)
        dispatched = (self.assign(o) for o in ordered)
        return [o for o in dispatched if o is not None]

    # ------------------------------------------------------------------
    def utilisation(self, minute: float) -> float:
        """Fraction of on-shift couriers busy at ``minute`` (diagnostics)."""
        mask = self._on_shift_mask(minute)
        if not mask.any():
            return 0.0
        busy = self._available[mask] > minute
        return float(busy.mean())


def dispatch_orders(
    config: CityConfig,
    land: CityLandUse,
    fleet: CourierFleet,
    orders: Sequence[OrderRecord],
    seed: int = 0,
) -> List[OrderRecord]:
    """Convenience wrapper: agent-dispatch a generated order list."""
    rng = np.random.default_rng(seed)
    return DispatchSimulator(config, land, fleet, rng).run(orders)
