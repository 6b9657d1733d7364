"""The vectorised simulation path must be bit-for-bit the reference.

The columnar order generator and the hoisted dispatch loop are a
*reformulation* of the per-order oracles (``OrderGenerator
.generate_reference``, ``DispatchSimulator.run_reference``), not an
approximation: every test here asserts exact equality of the emitted
records, not closeness.  The RNG-equivalence pins at the bottom document
the numpy stream identities the columnar rewrite leans on -- if a numpy
upgrade ever breaks one of them, these fail first and point at the exact
identity that changed.
"""

from __future__ import annotations

import numpy as np

from repro.city import CityConfig
from repro.city.couriers import build_fleet
from repro.city.dispatch import DispatchSimulator
from repro.city.landuse import synthesize_land_use
from repro.city.simulator import (
    simulate,
    simulate_uncached,
    simulation_config,
)
from repro.data.ordertable import OrderRecordSeq
from repro.data.periods import NUM_PERIODS, TimePeriod


def _tiny_config(**overrides) -> CityConfig:
    base = dict(
        rows=7, cols=7, num_days=4, num_couriers=60, seed=3,
        base_population=2200.0,
    )
    base.update(overrides)
    return CityConfig(**base)


def _run_both(config: CityConfig, reference_orders):
    with reference_orders():
        ref = simulate_uncached(config)
    fast = simulate_uncached(config)
    return ref, fast


def test_reference_fixture_routes_to_the_oracle(reference_orders):
    # Warm the pipeline cache first: inside the fixture a cached fast-path
    # log must not stand in for the oracle's record list.
    config = _tiny_config(num_days=2, seed=21)
    simulate(config)
    with reference_orders():
        ref = simulate(config)
        assert DispatchSimulator.run is DispatchSimulator.run_reference
    assert type(ref.orders) is list
    assert isinstance(simulate(config).orders, OrderRecordSeq)
    assert DispatchSimulator.run is not DispatchSimulator.run_reference


def test_formula_mode_records_identical(reference_orders):
    ref, fast = _run_both(_tiny_config(), reference_orders)
    assert len(ref.orders) > 0
    assert ref.orders == fast.orders


def test_agents_dispatch_records_identical(reference_orders):
    ref, fast = _run_both(_tiny_config(dispatch_mode="agents"), reference_orders)
    assert len(ref.orders) > 0
    assert ref.orders == fast.orders


def test_observation_noise_records_identical(reference_orders):
    # The sim preset's distinguishing knobs: recorded-time noise plus
    # customer re-synthesis happen on separate RNG streams; cover the
    # noisy generator branch here.
    config = _tiny_config(observation_noise=0.35, demand_noise=0.5)
    ref, fast = _run_both(config, reference_orders)
    assert len(ref.orders) > 0
    assert ref.orders == fast.orders


def test_simulation_preset_identical(monkeypatch, reference_orders):
    # simulation_dataset() routes through simulate() (cache-aware): turn
    # the cache off so both runs genuinely re-simulate.
    monkeypatch.setenv("O2_PIPELINE_CACHE", "0")
    from repro.city.simulator import simulation_dataset

    config = simulation_config(seed=11, scale=0.4)
    assert config.observation_noise > 0  # the branch worth covering
    with reference_orders():
        ref = simulation_dataset(seed=11, scale=0.4)
    fast = simulation_dataset(seed=11, scale=0.4)
    assert type(ref.orders) is list  # re-synthesised by the record loop
    assert ref.orders == fast.orders


def test_congestion_and_scope_matrices_match_reference():
    config = _tiny_config()
    rng = np.random.default_rng(config.seed)
    land = synthesize_land_use(config, rng)
    fleet = build_fleet(config, land, rng)

    congestion = fleet.congestion_matrix()
    scope = fleet.scope_matrix()
    reference_congestion = np.array(
        [
            [fleet.congestion(r, TimePeriod(t)) for t in range(NUM_PERIODS)]
            for r in range(land.num_regions)
        ]
    )
    reference_scope = np.array(
        [
            [fleet.delivery_scope_m(r, TimePeriod(t)) for t in range(NUM_PERIODS)]
            for r in range(land.num_regions)
        ]
    )
    np.testing.assert_array_equal(congestion, reference_congestion)
    np.testing.assert_array_equal(scope, reference_scope)


# ---------------------------------------------------------------------------
# RNG stream identities the fast path relies on (bitwise, not approximate).
# ---------------------------------------------------------------------------

def test_pin_choice_equals_cdf_searchsorted():
    probs = np.random.default_rng(0).random(37)
    probs /= probs.sum()
    candidates = np.arange(100, 137)

    a = np.random.default_rng(7).choice(candidates, size=25, p=probs)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    draws = np.random.default_rng(7).random(25)
    b = candidates[cdf.searchsorted(draws, side="right")]
    np.testing.assert_array_equal(a, b)


def test_pin_vector_random_equals_scalar_stream():
    a = np.random.default_rng(5).random(64)
    rng = np.random.default_rng(5)
    b = np.array([rng.random() for _ in range(64)])
    np.testing.assert_array_equal(a, b)


def test_pin_normal_equals_scaled_standard_normal():
    sigma = 0.35 * 17.25
    a = np.random.default_rng(9).normal(0.0, sigma)
    b = sigma * np.random.default_rng(9).standard_normal()
    assert a == b


def test_pin_scalar_vs_array_elementwise_math():
    values = np.random.default_rng(3).random(50) * 4 - 2
    for fn in (np.exp, np.cos, np.sin):
        vector = fn(values)
        scalars = np.array([float(fn(v)) for v in values])
        np.testing.assert_array_equal(vector, scalars)
    xs, ys = values[:25], values[25:]
    np.testing.assert_array_equal(
        np.hypot(xs, ys), np.array([float(np.hypot(x, y)) for x, y in zip(xs, ys)])
    )
