"""Shared fixtures: one tiny simulated city reused across the suite.

Simulation and dataset construction are deterministic in the seed, so
session scope is safe; tests must not mutate these objects.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import shutil
import tempfile

import numpy as np
import pytest

# Route the pipeline artifact cache (repro.data.cache) to a throwaway
# directory for the whole test session: repeated simulations of identical
# configs across test modules replay from disk instead of re-running, and
# nothing leaks into (or reads from) the user's real cache.  Set before any
# repro import so every cache_root() call in the session sees it; tests
# that exercise the cache itself override the variable via monkeypatch.
_TEST_CACHE_DIR = tempfile.mkdtemp(prefix="o2-test-cache-")
os.environ.setdefault("O2_PIPELINE_CACHE", _TEST_CACHE_DIR)
atexit.register(shutil.rmtree, _TEST_CACHE_DIR, ignore_errors=True)

from repro.city import CityConfig, simulate, tiny_dataset
from repro.city.dispatch import DispatchSimulator
from repro.city.orders import OrderGenerator
from repro.data import SiteRecDataset


@pytest.fixture(scope="session")
def sim():
    """A small but fully populated simulated city-month."""
    return tiny_dataset(seed=3)


@pytest.fixture(scope="session")
def dataset(sim):
    return SiteRecDataset.from_simulation(sim)


@pytest.fixture(scope="session")
def split(dataset):
    return dataset.split(seed=0)


@pytest.fixture(scope="session")
def medium_sim():
    """A city wide enough for the motivation analyses (Figs. 1-5, Table II).

    The tiny fixture's afternoon order volume is too small for tail
    statistics like the farthest delivery distance.
    """
    return simulate(
        CityConfig(
            rows=14,
            cols=14,
            num_days=7,
            num_couriers=220,
            seed=7,
            sparsity=0.7,
        )
    )


@pytest.fixture(scope="session")
def micro_sim():
    """An even smaller city for the expensive model-training tests."""
    return simulate(
        CityConfig(
            rows=5,
            cols=5,
            num_days=3,
            num_couriers=40,
            seed=5,
            base_population=2000.0,
        )
    )


@pytest.fixture(scope="session")
def micro_dataset(micro_sim):
    return SiteRecDataset.from_simulation(micro_sim)


@pytest.fixture(scope="session")
def micro_split(micro_dataset):
    return micro_dataset.split(seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def per_period_reference(monkeypatch):
    """``route(model)`` runs the model's fast passes on the per-period oracle.

    ``HeteroRecommender._propagate_batched`` is the one fast entry point of
    both ``forward`` and ``propagate_periods``, and it hosts the banded
    sweep too; stacking the outputs of ``propagate_per_period`` in its place
    makes every fast pass, banded or not, compute the reference that the
    batched pass matches to ~1e-15 in training.
    """
    from repro.data.periods import TimePeriod
    from repro.tensor import concat

    def route(model):
        recommender = model.recommender

        def stacked(capacity_su=None):
            out = recommender.propagate_per_period(capacity_su)
            return tuple(
                concat([out[period][i] for period in TimePeriod], axis=0)
                for i in (0, 1)
            )

        monkeypatch.setattr(recommender, "_propagate_batched", stacked)
        return model

    return route


@pytest.fixture(scope="session")
def reference_orders():
    """``with reference_orders(): ...`` simulates on the per-order oracles.

    Order generation runs ``OrderGenerator.generate_reference`` and agent
    dispatch ``DispatchSimulator.run_reference`` in place of the fast
    paths.  The pipeline cache is off inside the block, so a cached
    fast-path log cannot stand in for the oracle's.
    """

    @contextlib.contextmanager
    def route():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                OrderGenerator, "generate", OrderGenerator.generate_reference
            )
            patch.setattr(
                DispatchSimulator, "run", DispatchSimulator.run_reference
            )
            patch.setenv("O2_PIPELINE_CACHE", "0")
            yield

    return route
