"""Columnar order log (``OrderTable``): view semantics and bit-identity.

The struct-of-arrays order representation must be indistinguishable from
the ``List[OrderRecord]`` the per-order reference oracle builds: records
materialised from the table compare equal field-for-field, every
downstream artifact (aggregates, dataset features, graphs, a trained model)
is *identical* -- not close -- between the two, and the cache round-trips
columns without touching a single record object.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.city import CityConfig
from repro.city.simulator import simulate_uncached
from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer
from repro.data.aggregates import OrderAggregates
from repro.data.dataset import SiteRecDataset
from repro.data.ordertable import COLUMNS, OrderRecordSeq, OrderTable
from repro.graphs.hetero import build_hetero_multigraph
from repro.nn import init


def _config(**overrides) -> CityConfig:
    base = dict(
        rows=7, cols=7, num_days=4, num_couriers=60, seed=3,
        base_population=2200.0,
    )
    base.update(overrides)
    return CityConfig(**base)


@pytest.fixture(scope="module")
def both_sims(reference_orders):
    """The same city: the oracle's record list and the columnar table."""
    with reference_orders():
        listed = simulate_uncached(_config())
    columnar = simulate_uncached(_config())
    assert type(listed.orders) is list
    return listed, columnar


class TestViewSemantics:
    def test_is_lazy_view(self, both_sims):
        _, columnar = both_sims
        assert isinstance(columnar.orders, OrderRecordSeq)
        assert columnar.order_table is not None
        assert len(columnar.orders) == len(columnar.order_table)

    def test_indexing_and_slicing(self, both_sims):
        listed, columnar = both_sims
        view = columnar.orders
        assert view[0] == listed.orders[0]
        assert view[-1] == listed.orders[-1]
        assert view[3:7] == listed.orders[3:7]
        with pytest.raises(IndexError):
            view[len(view)]

    def test_iteration_matches(self, both_sims):
        listed, columnar = both_sims
        for ref, got in zip(listed.orders, columnar.orders):
            assert ref == got

    def test_equality_both_directions(self, both_sims):
        listed, columnar = both_sims
        assert columnar.orders == listed.orders
        assert listed.orders == columnar.orders  # reflected __eq__
        assert not (columnar.orders != listed.orders)

    def test_record_fields_exact(self, both_sims):
        listed, columnar = both_sims
        ref, got = listed.orders[5], columnar.orders[5]
        for field in ref.__dataclass_fields__:
            assert getattr(ref, field) == getattr(got, field), field

    def test_records_smaller_than_objects(self, both_sims):
        _, columnar = both_sims
        table = columnar.order_table
        # ~100 B/order columnar vs ~400 B/order as objects.
        assert table.nbytes < 150 * len(table)


class TestTableOps:
    def test_array_roundtrip(self, both_sims):
        _, columnar = both_sims
        table = columnar.order_table
        back = OrderTable.from_arrays(table.to_arrays())
        assert back.records_view() == columnar.orders
        assert back.sha256() == table.sha256()

    def test_replace_columns_copy_on_write(self, both_sims):
        _, columnar = both_sims
        table = columnar.order_table
        bumped = table.replace_columns(
            distance_m=table.column("distance_m") + 1.0
        )
        assert bumped.sha256() != table.sha256()
        assert bumped.column("created_minute") is table.column("created_minute")
        with pytest.raises(KeyError):
            table.replace_columns(no_such_column=np.zeros(len(table)))

    def test_concat_in_chunk_order(self, both_sims):
        _, columnar = both_sims
        table = columnar.order_table
        half = len(table) // 2
        chunks = [
            {name: table.column(name)[:half] for name in COLUMNS},
            {name: table.column(name)[half:] for name in COLUMNS},
        ]
        stitched = OrderTable.concat(chunks, table.registry)
        assert stitched.sha256() == table.sha256()


class TestDownstreamIdentity:
    def test_aggregates_identical(self, both_sims):
        listed, columnar = both_sims
        n = listed.land.num_regions
        t = listed.config.num_store_types
        ref = OrderAggregates.from_orders(listed.orders, n, t)
        got = OrderAggregates.from_orders(columnar.orders, n, t)
        for name in ("counts_sa", "counts_sat", "counts_uat",
                     "farthest_distance", "mean_distance",
                     "region_delivery_time", "total_orders_s"):
            assert np.array_equal(getattr(ref, name), getattr(got, name)), name
        assert ref.pair_stats == got.pair_stats
        for p_ref, p_got in zip(ref.pair_tables, got.pair_tables):
            assert np.array_equal(p_ref.keys, p_got.keys)
            assert np.array_equal(p_ref.counts, p_got.counts)

    def test_mobility_edges_identical(self, both_sims):
        listed, columnar = both_sims
        n = listed.land.num_regions
        t = listed.config.num_store_types
        ref = OrderAggregates.from_orders(listed.orders, n, t)
        got = OrderAggregates.from_orders(columnar.orders, n, t)
        for p in range(len(ref.pair_tables)):
            assert ref.mobility_edges(p) == got.mobility_edges(p)

    def test_dataset_and_graph_identical(self, both_sims):
        listed, columnar = both_sims
        ref = SiteRecDataset.from_simulation(listed)
        got = SiteRecDataset.from_simulation(columnar)
        assert np.array_equal(ref.region_features, got.region_features)
        assert np.array_equal(ref.targets, got.targets)
        g_ref = build_hetero_multigraph(ref)
        g_got = build_hetero_multigraph(got)
        assert np.array_equal(g_ref.sa_src_s, g_got.sa_src_s)
        assert np.array_equal(g_ref.sa_attr, g_got.sa_attr)
        for period, sub_ref in g_ref.subgraphs.items():
            sub_got = g_got.subgraphs[period]
            assert np.array_equal(sub_ref.ua_src_a, sub_got.ua_src_a)
            assert np.array_equal(sub_ref.ua_attr, sub_got.ua_attr)

    def test_fit_identical_across_ablation(self, both_sims):
        """Training is unchanged end-to-end: same losses, same parameters."""
        listed, columnar = both_sims
        digests, losses = [], []
        for sim in (listed, columnar):
            dataset = SiteRecDataset.from_simulation(sim)
            split = dataset.split(seed=2)
            init.seed(5)
            model = O2SiteRec(
                dataset, split, O2SiteRecConfig(capacity_dim=4, embedding_dim=20)
            )
            result = Trainer(model, TrainConfig(epochs=3, lr=5e-3)).fit(
                split.train_pairs, dataset.pair_targets(split.train_pairs)
            )
            losses.append(result.train_losses)
            digest = hashlib.sha256()
            for name, param in model.named_parameters():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(param.data).tobytes())
            digests.append(digest.hexdigest())
        assert losses[0] == losses[1]
        assert digests[0] == digests[1]


class TestResynthesis:
    def test_observation_noise_table_matches_list(self, reference_orders):
        config = _config(observation_noise=0.3, seed=9)
        with reference_orders():
            listed = simulate_uncached(config)
        columnar = simulate_uncached(config)
        assert columnar.orders == listed.orders
