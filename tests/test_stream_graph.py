"""Streaming (banded) S-U graph build vs the reference per-store loop.

The streaming build is the only S-U builder: it bounds peak memory at
metropolis scale and is the fast path at paper scale.  It must produce
*identical* edge arrays -- same order, same float64 attrs -- as the
reference loop over the dense distance matrix on any dataset.  The
reference is reached by swapping it in for the streaming build, which
takes the same arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.city import CityConfig
from repro.city.simulator import simulate_uncached
from repro.data.dataset import SiteRecDataset
from repro.graphs import hetero
from repro.graphs.hetero import build_hetero_multigraph


@pytest.fixture(scope="module")
def dataset():
    sim = simulate_uncached(
        CityConfig(rows=9, cols=9, num_days=3, num_couriers=90, seed=17,
                   base_population=2000.0)
    )
    return SiteRecDataset.from_simulation(sim)


def _reference_build(dataset):
    """The graph with its S-U edges from the per-store reference loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hetero, "_su_edges_streaming", hetero._su_edges_reference)
        return build_hetero_multigraph(dataset)


@pytest.fixture(scope="module")
def graphs(dataset):
    return _reference_build(dataset), build_hetero_multigraph(dataset)


def test_su_edges_identical(graphs):
    ref, stream = graphs
    for period, sub_ref in ref.subgraphs.items():
        sub_s = stream.subgraphs[period]
        assert np.array_equal(sub_ref.su_src_u, sub_s.su_src_u), period
        assert np.array_equal(sub_ref.su_dst_s, sub_s.su_dst_s), period
        assert np.array_equal(sub_ref.su_attr, sub_s.su_attr), period


def test_ua_and_sa_identical(graphs):
    ref, stream = graphs
    assert np.array_equal(ref.sa_src_s, stream.sa_src_s)
    assert np.array_equal(ref.sa_dst_a, stream.sa_dst_a)
    assert np.array_equal(ref.sa_attr, stream.sa_attr)
    for period, sub_ref in ref.subgraphs.items():
        sub_s = stream.subgraphs[period]
        assert np.array_equal(sub_ref.ua_src_a, sub_s.ua_src_a)
        assert np.array_equal(sub_ref.ua_dst_u, sub_s.ua_dst_u)
        assert np.array_equal(sub_ref.ua_attr, sub_s.ua_attr)


def test_streaming_matches_windowed_reference(dataset, monkeypatch):
    """Streaming equals the reference when its windows are one store row."""
    ref = _reference_build(dataset)
    monkeypatch.setattr(hetero, "DENSE_DISTANCE_LIMIT", 64)
    stream = build_hetero_multigraph(dataset)
    for period, sub_ref in ref.subgraphs.items():
        sub_s = stream.subgraphs[period]
        assert np.array_equal(sub_ref.su_dst_s, sub_s.su_dst_s)
        assert np.array_equal(sub_ref.su_attr, sub_s.su_attr)
