"""Retrieve-then-rank serving: the vector index and its service wiring.

Pins the subsystem's contracts:

* flat (exhaustive) retrieval reproduces the full-scan ``service.query``
  float for float, duplicate-score ties included (``repro.topk`` stable
  ascending-index tie-break);
* IVF probing by per-partition max score guarantees recall@k = 1.0 for
  ``nprobe >= k`` and stays above the bench floor at the defaults;
* index segments round-trip through both snapshot formats, mmap
  zero-copy from the arena, and survive hot swap -- in-process reloads
  under concurrent queries and fleet-wide manifest cutover;
* the exactness toggles (``use_index=False``, ``O2_SERVE_INDEX=0``,
  explicit candidate lists) fall back to the full scan bit for bit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    ModelSnapshot,
    RecommendationService,
    VectorIndex,
    arena_segments,
    open_arena,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.index import MIN_RERANK
from repro.serve.service import _CandidateResolver
from repro.serve.workers import SHARED_COUNTERS, SHARED_STAGES, WorkerPool
from repro.topk import top_k_indices

NUM_TYPES = 6
EMBED_DIM = 10
PERIODS = 3


def make_snapshot(
    num_regions=240, seed=0, duplicate_pairs=0
) -> ModelSnapshot:
    """A synthetic snapshot with hub-clustered embeddings.

    ``duplicate_pairs`` copies the embedding rows of the first regions
    onto later ones (every period), producing regions with *identical*
    exact scores for every type -- the duplicate-score tie case.
    """
    rng = np.random.default_rng(seed)
    hubs = rng.normal(size=(max(num_regions // 30, 4), EMBED_DIM))
    base = hubs[rng.integers(len(hubs), size=num_regions)]
    base = base + 0.2 * rng.normal(size=base.shape)
    for i in range(duplicate_pairs):
        base[num_regions - 1 - i] = base[i]
    h = np.stack(
        [base + 0.05 * rng.normal(size=base.shape) for _ in range(PERIODS)],
        axis=0,
    )
    for i in range(duplicate_pairs):  # ties must hold in every period
        h[:, num_regions - 1 - i] = h[:, i]
    dim = 3 * EMBED_DIM
    predictor = [
        (rng.normal(scale=0.4, size=(dim, 8)), rng.normal(scale=0.1, size=8)),
        (rng.normal(scale=0.4, size=(8, 1)), rng.normal(scale=0.1, size=1)),
    ]
    return ModelSnapshot(
        h=h,
        q=rng.normal(size=(PERIODS, NUM_TYPES, EMBED_DIM)),
        pair_commercial=np.zeros((num_regions, NUM_TYPES, 2)),
        store_regions=np.arange(num_regions, dtype=np.int64),
        type_names=[f"type_{t}" for t in range(NUM_TYPES)],
        target_scale=50.0,
        product_channel=True,
        commercial_in_predictor=False,
        time_attention=False,
        time_heads=1,
        time_key_weight=None,
        time_query_weight=None,
        predictor_weights=predictor,
    )


@pytest.fixture(scope="module")
def snapshot():
    return make_snapshot(seed=0)


@pytest.fixture(scope="module")
def indexed_snapshot():
    snap = make_snapshot(seed=0)
    snap.build_index(kind="ivf", retrieve_m=32, seed=0)
    return snap


def query_rows(service, store_type, k, **kwargs):
    return [
        (r.region, r.score) for r in service.query(store_type, k=k, **kwargs)
    ]


SERVICE_KWARGS = dict(cache_entries=0)


# ----------------------------------------------------------------------
# The index itself
# ----------------------------------------------------------------------
class TestVectorIndex:
    def test_flat_search_is_true_top_m(self, snapshot):
        index = VectorIndex.build(snapshot, kind="flat", retrieve_m=16)
        for store_type in range(snapshot.num_types):
            expected = np.sort(top_k_indices(index.sheet[store_type], 16))
            assert np.array_equal(index.search(store_type), expected)

    def test_sheet_holds_exact_scores(self, indexed_snapshot):
        snap = indexed_snapshot
        regions = snap.candidate_regions()
        for store_type in (0, snap.num_types - 1):
            exact = snap.score_candidates(store_type, regions)
            assert np.array_equal(exact, snap.index.sheet[store_type])

    def test_ivf_full_probe_equals_flat(self, snapshot, indexed_snapshot):
        flat = VectorIndex.build(snapshot, kind="flat", retrieve_m=32)
        ivf = indexed_snapshot.index
        for store_type in range(snapshot.num_types):
            assert np.array_equal(
                ivf.search(store_type, nprobe=ivf.num_partitions),
                flat.search(store_type),
            )

    def test_max_probe_recall_guarantee(self, indexed_snapshot):
        # Probing by per-partition max: nprobe >= k implies every
        # partition holding a true top-k member is probed, so recall is
        # exactly 1.0 -- not approximately.
        index = indexed_snapshot.index
        k = 10
        assert index.num_partitions > k
        for store_type in range(index.num_types):
            assert index.recall_against_full_scan(
                store_type, k, m=32, nprobe=k
            ) == 1.0

    def test_default_operating_point_recall_floor(self, indexed_snapshot):
        index = indexed_snapshot.index
        recalls = [
            index.recall_against_full_scan(t, 10)
            for t in range(index.num_types)
        ]
        assert float(np.mean(recalls)) >= 0.95  # the bench floor

    def test_keep_mask_filters_survivors(self, indexed_snapshot):
        index = indexed_snapshot.index
        keep = np.ones(index.num_candidates, dtype=bool)
        banned = top_k_indices(index.sheet[0], 3)
        keep[banned] = False
        survivors = index.search(0, 16, keep=keep)
        assert not np.isin(banned, survivors).any()
        assert len(survivors) == 16

    def test_duplicate_scores_keep_lowest_indices(self):
        snap = make_snapshot(seed=2, duplicate_pairs=3)
        index = VectorIndex.build(snap, kind="flat", retrieve_m=8)
        n = index.num_candidates
        for store_type in range(snap.num_types):
            row = index.sheet[store_type]
            assert np.array_equal(row[:3], row[n - 3:][::-1])  # real ties
            survivors = index.search(store_type, 8)
            # Same stable semantics as the full argsort the scan uses.
            expected = np.sort(np.argsort(-row, kind="stable")[:8])
            assert np.array_equal(survivors, expected)

    def test_validation(self, indexed_snapshot):
        index = indexed_snapshot.index
        with pytest.raises(KeyError):
            index.search(index.num_types)
        with pytest.raises(ValueError):
            index.search(0, 0)
        with pytest.raises(ValueError):
            VectorIndex.build(indexed_snapshot, kind="lsh")

    def test_describe_and_nbytes(self, indexed_snapshot):
        info = indexed_snapshot.index.describe()
        assert info["kind"] == "ivf"
        assert info["candidates"] == indexed_snapshot.num_store_nodes
        assert info["bytes"] == indexed_snapshot.index.nbytes() > 0


# ----------------------------------------------------------------------
# Serialisation: npz, arena, zero-copy
# ----------------------------------------------------------------------
class TestIndexSerialisation:
    def test_npz_round_trip(self, indexed_snapshot, tmp_path):
        path = indexed_snapshot.save(tmp_path / "snap.npz")
        loaded = ModelSnapshot.load(path)
        assert loaded.index is not None
        assert loaded.index.kind == "ivf"
        assert loaded.index.retrieve_m == indexed_snapshot.index.retrieve_m
        assert loaded.index.nprobe == indexed_snapshot.index.nprobe
        for name, array in indexed_snapshot.index.array_payload().items():
            assert np.array_equal(
                array, loaded.index.array_payload()[name]
            ), name

    def test_arena_round_trip_zero_copy(self, indexed_snapshot, tmp_path):
        path = indexed_snapshot.save(tmp_path / "snap.arena", format="arena")
        segments = arena_segments(path)
        index_segments = {
            n for n in segments if n.startswith("index__")
        }
        assert index_segments == set(
            indexed_snapshot.index.array_payload()
        )
        loaded = open_arena(path, verify=True)
        # Views into the shared mmap, not copies.
        assert not loaded.index.sheet.flags["OWNDATA"]
        assert not loaded.index.list_members.flags["OWNDATA"]
        for store_type in range(loaded.num_types):
            assert np.array_equal(
                loaded.index.search(store_type),
                indexed_snapshot.index.search(store_type),
            )

    def test_flat_index_arena_round_trip(self, snapshot, tmp_path):
        # Flat indexes serialise zero-length partition arrays; the arena
        # must keep their (empty) segments addressable.
        snap = make_snapshot(seed=0)
        snap.build_index(kind="flat", retrieve_m=16)
        path = snap.save(tmp_path / "flat.arena", format="arena")
        loaded = ModelSnapshot.load(path)
        assert loaded.index.kind == "flat"
        assert loaded.index.num_partitions == 0
        assert np.array_equal(loaded.index.search(1), snap.index.search(1))

    def test_plain_snapshot_has_no_index(self, snapshot, tmp_path):
        for fmt, name in (("npz", "p.npz"), ("arena", "p.arena")):
            path = snapshot.save(tmp_path / name, format=fmt)
            assert ModelSnapshot.load(path).index is None

    def test_index_not_part_of_fingerprint(self, tmp_path):
        plain = make_snapshot(seed=0)
        indexed = make_snapshot(seed=0)
        indexed.build_index(kind="ivf", retrieve_m=32, seed=0)
        # Derived state: indexed and plain copies of one model share an
        # id, so a build-index deploy is not a model change.
        assert plain.snapshot_id == indexed.snapshot_id
        path = indexed.save(tmp_path / "snap.arena", format="arena")
        assert ModelSnapshot.load(path).snapshot_id == plain.snapshot_id

    def test_build_is_deterministic(self):
        a = make_snapshot(seed=0)
        b = make_snapshot(seed=0)
        ia = a.build_index(kind="ivf", retrieve_m=32, seed=5)
        ib = b.build_index(kind="ivf", retrieve_m=32, seed=5)
        for name, array in ia.array_payload().items():
            assert np.array_equal(array, ib.array_payload()[name]), name


# ----------------------------------------------------------------------
# Service wiring: retrieval path, toggles, counters
# ----------------------------------------------------------------------
class TestServiceRetrieval:
    def test_flat_mode_identical_to_full_scan(self):
        plain = make_snapshot(seed=1, duplicate_pairs=4)
        flat = make_snapshot(seed=1, duplicate_pairs=4)
        flat.build_index(kind="flat", retrieve_m=16)
        with RecommendationService(
            plain, **SERVICE_KWARGS
        ) as exact, RecommendationService(flat, **SERVICE_KWARGS) as indexed:
            for store_type in range(plain.num_types):
                for k in (1, 3, 10):
                    assert query_rows(indexed, store_type, k) == query_rows(
                        exact, store_type, k
                    )
            assert (
                indexed.stats()["counters"]["retrievals"]
                == plain.num_types * 3
            )

    def test_exclude_regions_identical_to_full_scan(self, indexed_snapshot):
        plain = make_snapshot(seed=0)
        exclude = [0, 5, 7, 9999]  # 9999 is not a candidate: ignored
        with RecommendationService(
            plain, **SERVICE_KWARGS
        ) as exact, RecommendationService(
            indexed_snapshot, nprobe=indexed_snapshot.index.num_partitions,
            **SERVICE_KWARGS,
        ) as indexed:
            a = query_rows(exact, 2, 8, exclude_regions=exclude)
            b = query_rows(indexed, 2, 8, exclude_regions=exclude)
            assert a == b
            assert not {r for r, _ in a} & set(exclude)

    def test_explicit_candidates_fall_back_exactly(self, indexed_snapshot):
        plain = make_snapshot(seed=0)
        candidates = list(plain.candidate_regions()[3:40])
        with RecommendationService(
            plain, **SERVICE_KWARGS
        ) as exact, RecommendationService(
            indexed_snapshot, **SERVICE_KWARGS
        ) as indexed:
            assert query_rows(
                indexed, 1, 5, candidate_regions=candidates
            ) == query_rows(exact, 1, 5, candidate_regions=candidates)
            counters = indexed.stats()["counters"]
            assert counters["retrieval_fallbacks"] == 1
            assert counters.get("retrievals", 0) == 0

    def test_use_index_false_matches_plain_bitwise(self, indexed_snapshot):
        plain = make_snapshot(seed=0)
        with RecommendationService(
            plain, **SERVICE_KWARGS
        ) as exact, RecommendationService(
            indexed_snapshot, use_index=False, **SERVICE_KWARGS
        ) as disabled:
            for store_type in range(plain.num_types):
                assert query_rows(disabled, store_type, 5) == query_rows(
                    exact, store_type, 5
                )
            assert disabled.stats()["counters"].get("retrievals", 0) == 0
            assert disabled.stats()["index"]["active"] is False

    def test_env_toggle_disables_index(self, indexed_snapshot, monkeypatch):
        monkeypatch.setenv("O2_SERVE_INDEX", "0")
        with RecommendationService(
            indexed_snapshot, **SERVICE_KWARGS
        ) as service:
            assert service.use_index is False
            service.query(0, k=3)
            assert service.stats()["counters"].get("retrievals", 0) == 0
        monkeypatch.setenv("O2_SERVE_INDEX", "on")
        with RecommendationService(
            indexed_snapshot, **SERVICE_KWARGS
        ) as service:
            assert service.use_index is True
            service.query(0, k=3)
            assert service.stats()["counters"]["retrievals"] == 1

    def test_min_rerank_clamp(self, indexed_snapshot):
        # k=1 must still re-rank a batch of >= MIN_RERANK survivors so
        # subset scoring stays in the same BLAS regime as the full scan.
        plain = make_snapshot(seed=0)
        with RecommendationService(
            plain, **SERVICE_KWARGS
        ) as exact, RecommendationService(
            indexed_snapshot, retrieve_m=1, **SERVICE_KWARGS
        ) as indexed:
            assert MIN_RERANK >= 8
            for store_type in range(plain.num_types):
                assert query_rows(indexed, store_type, 1) == query_rows(
                    exact, store_type, 1
                )

    def test_retrieve_stage_and_stats(self, indexed_snapshot):
        with RecommendationService(
            indexed_snapshot, **SERVICE_KWARGS
        ) as service:
            service.query(0, k=5)
            stats = service.stats()
            assert stats["counters"]["retrievals"] == 1
            assert stats["latency"]["retrieve"]["count"] == 1
            assert stats["index"]["present"] is True
            assert stats["index"]["active"] is True
            assert stats["index"]["kind"] == "ivf"
        assert "retrievals" in SHARED_COUNTERS
        assert "retrieval_fallbacks" in SHARED_COUNTERS
        assert "retrieve" in SHARED_STAGES

    def test_all_excluded_raises(self, indexed_snapshot):
        everything = list(indexed_snapshot.candidate_regions())
        with RecommendationService(
            indexed_snapshot, **SERVICE_KWARGS
        ) as service:
            with pytest.raises(ValueError):
                service.query(0, k=3, exclude_regions=everything)


class TestCandidateResolver:
    def test_matches_naive_filter(self, snapshot):
        resolver = _CandidateResolver(snapshot)
        base = snapshot.candidate_regions()
        rng = np.random.default_rng(0)
        for size in (0, 1, 17, len(base)):
            exclude = list(
                rng.choice(base, size=size, replace=False)
            ) + [99999, -3]
            dropped = set(int(r) for r in exclude)
            naive = np.asarray(
                [r for r in base if int(r) not in dropped], dtype=np.int64
            )
            mask = resolver.keep_mask(exclude)
            assert np.array_equal(resolver.base[mask], naive)

    def test_none_means_keep_all(self, snapshot):
        resolver = _CandidateResolver(snapshot)
        assert resolver.keep_mask(None) is None
        assert resolver.keep_mask([]).all()

    def test_sparse_id_space_falls_back_to_isin(self):
        snap = make_snapshot(num_regions=64, seed=3)
        snap.store_regions = snap.store_regions * 10_000  # sparse ids
        snap._store_index = {
            int(r): i for i, r in enumerate(snap.store_regions)
        }
        resolver = _CandidateResolver(snap)
        assert resolver._lookup is None
        mask = resolver.keep_mask([0, 10_000])
        assert mask.sum() == 62


# ----------------------------------------------------------------------
# Hot swap: in-process and fleet-wide, retrieval stays consistent
# ----------------------------------------------------------------------
def _expected_rows(snapshot, store_type, k):
    with RecommendationService(snapshot, **SERVICE_KWARGS) as service:
        return query_rows(service, store_type, k)


class TestHotSwap:
    def test_reload_under_concurrent_retrieval(self):
        old = make_snapshot(seed=1)
        old.build_index(kind="ivf", retrieve_m=32, seed=0)
        new = make_snapshot(seed=2)
        new.build_index(kind="ivf", retrieve_m=32, seed=0)
        expect_old = _expected_rows(old, 1, 6)
        expect_new = _expected_rows(new, 1, 6)
        assert expect_old != expect_new

        torn = []
        observed = []
        stop = threading.Event()
        with RecommendationService(old, **SERVICE_KWARGS) as service:

            def hammer():
                while not stop.is_set():
                    rows = query_rows(service, 1, 6)
                    observed.append(tuple(rows))
                    # Atomicity pin: the retrieval index, resolver and
                    # scorer must all come from ONE generation.
                    if rows != expect_old and rows != expect_new:
                        torn.append(rows)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.15)
                service.reload(new)
                time.sleep(0.15)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=20)
            assert query_rows(service, 1, 6) == expect_new
            # >=: a query that straddled the swap retried its retrieval.
            assert service.stats()["counters"]["retrievals"] >= len(observed) + 1
        assert not torn, f"torn reads: {torn[:3]}"
        assert tuple(expect_old) in observed

    def test_manifest_cutover_with_indexed_arenas(self, tmp_path):
        old = make_snapshot(seed=1)
        old.build_index(kind="ivf", retrieve_m=32, seed=0)
        new = make_snapshot(seed=2)
        new.build_index(kind="ivf", retrieve_m=32, seed=0)
        old_path = old.save(tmp_path / "old.arena", format="arena")
        new_path = new.save(tmp_path / "new.arena", format="arena")
        expect_new = [s for _, s in _expected_rows(new, 1, 4)]

        def get(port, path):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200, body
                return json.loads(body)
            finally:
                conn.close()

        manifest = tmp_path / "deploy.json"
        with WorkerPool(
            old_path, procs=2, manifest_path=manifest, poll_interval_s=0.05
        ) as pool:
            for _ in range(4):
                assert len(get(pool.port, "/recommend?type=1&k=4")) == 4
            pool.reload(new_path)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if pool.shared.counter("reloads") >= 2:
                    break
                time.sleep(0.05)
            # Indexed arenas cut over like plain ones, and the fleet
            # keeps retrieving (counter mirrors through shared memory).
            scores = [
                r["score"] for r in get(pool.port, "/recommend?type=1&k=4")
            ]
            assert scores == expect_new
            stats = pool.stats()
            assert stats["counters"]["reload_errors"] == 0
            assert stats["counters"]["retrievals"] >= 5
            assert stats["latency"]["retrieve"]["count"] >= 5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_build_index_round_trip(self, tmp_path, capsys):
        snap = make_snapshot(seed=0)
        npz = snap.save(tmp_path / "snap.npz")
        assert (
            serve_main(
                ["build-index", str(npz), "--retrieve-m", "24",
                 "--nprobe", "4"]
            )
            == 0
        )
        assert "ivf index" in capsys.readouterr().out
        loaded = ModelSnapshot.load(npz)
        assert loaded.index is not None
        assert loaded.index.retrieve_m == 24
        assert loaded.index.nprobe == 4

    def test_build_index_to_arena_dest(self, tmp_path, capsys):
        snap = make_snapshot(seed=0)
        npz = snap.save(tmp_path / "snap.npz")
        dest = tmp_path / "snap.arena"
        assert (
            serve_main(["build-index", str(npz), str(dest), "--kind", "flat"])
            == 0
        )
        loaded = ModelSnapshot.load(dest)
        assert loaded.index.kind == "flat"
        assert ModelSnapshot.load(npz).index is None  # source untouched

    def test_serve_once_index_toggle(self, tmp_path, capsys):
        snap = make_snapshot(seed=0)
        snap.build_index(kind="flat", retrieve_m=16)
        path = snap.save(tmp_path / "snap.arena", format="arena")
        assert (
            serve_main(
                ["--snapshot", str(path), "--index", "on",
                 "--once", "QUERY 1 K=3"]
            )
            == 0
        )
        with_index = capsys.readouterr().out
        assert (
            serve_main(
                ["--snapshot", str(path), "--index", "off",
                 "--once", "QUERY 1 K=3"]
            )
            == 0
        )
        assert capsys.readouterr().out == with_index  # bit-for-bit

    def test_index_on_requires_index(self, tmp_path):
        snap = make_snapshot(seed=0)
        path = snap.save(tmp_path / "plain.npz")
        with pytest.raises(SystemExit):
            serve_main(
                ["--snapshot", str(path), "--index", "on",
                 "--once", "QUERY 1 K=3"]
            )
