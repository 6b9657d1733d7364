"""The online serving layer: snapshots, cache, batching, service, protocol."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import O2SiteRec, O2SiteRecConfig, recommend_sites, save_model
from repro.nn import init
from repro.serve import (
    LatencyHistogram,
    MicroBatcher,
    ModelSnapshot,
    RecommendationService,
    ScoreCache,
    ServiceMetrics,
    candidate_digest,
    handle_line,
    serve_http,
)
from repro.serve.__main__ import main as serve_main


@pytest.fixture(scope="module")
def served_model(micro_dataset, micro_split):
    init.seed(4)
    return O2SiteRec(
        micro_dataset,
        micro_split,
        O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
    )


@pytest.fixture(scope="module")
def snapshot(served_model):
    return ModelSnapshot.from_model(served_model)


@pytest.fixture()
def service(snapshot):
    svc = RecommendationService(snapshot, max_batch_size=16)
    yield svc
    svc.close()


class TestModelSnapshot:
    def test_scores_match_model_bit_for_bit(
        self, served_model, snapshot, micro_split
    ):
        pairs = micro_split.test_pairs[:20]
        cold = served_model.predict(pairs)
        warm = snapshot.predict(pairs)
        assert np.array_equal(cold, warm)  # identical bits, not just close

    def test_matches_ablated_variants(self, micro_dataset, micro_split):
        init.seed(4)
        model = O2SiteRec(
            micro_dataset,
            micro_split,
            O2SiteRecConfig(
                capacity_dim=6,
                embedding_dim=20,
                time_attention=False,
                commercial_in_predictor=False,
            ),
        )
        pairs = micro_split.test_pairs[:10]
        snap = ModelSnapshot.from_model(model)
        assert np.array_equal(model.predict(pairs), snap.predict(pairs))

    def test_recommend_sites_drop_in(self, served_model, snapshot, micro_split):
        candidates = micro_split.test_regions_for_type(1)
        from_model = recommend_sites(served_model, 1, candidates, k=3)
        from_snapshot = recommend_sites(snapshot, 1, candidates, k=3)
        assert from_model == from_snapshot

    def test_unknown_region_raises(self, snapshot):
        bogus = 10_000
        assert bogus not in snapshot.candidate_regions()
        with pytest.raises(KeyError, match="not a store region"):
            snapshot.predict(np.array([[bogus, 0]]))

    def test_type_index_by_name_and_index(self, snapshot):
        name = snapshot.type_names[2]
        assert snapshot.type_index(name) == 2
        assert snapshot.type_index(2) == 2
        with pytest.raises(KeyError):
            snapshot.type_index("no_such_type")
        with pytest.raises(KeyError):
            snapshot.type_index(snapshot.num_types)

    def test_save_load_roundtrip_suffixless(
        self, snapshot, micro_split, tmp_path
    ):
        written = snapshot.save(tmp_path / "snap")  # no .npz suffix
        assert written == tmp_path / "snap.npz"
        restored = ModelSnapshot.load(tmp_path / "snap")
        pairs = micro_split.test_pairs[:10]
        assert np.array_equal(snapshot.predict(pairs), restored.predict(pairs))
        assert restored.snapshot_id == snapshot.snapshot_id
        assert restored.type_names == snapshot.type_names
        assert restored.target_scale == snapshot.target_scale

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not an O2-SiteRec serving snapshot"):
            ModelSnapshot.load(path)


class TestScoreCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ScoreCache(max_entries=2, ttl_s=60.0)
        a, b, c = np.ones(2), np.ones(3), np.ones(4)
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refreshes recency
        cache.put("c", c)  # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") is a and cache.get("c") is c
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["size"] == 2

    def test_ttl_expiry(self):
        now = [0.0]
        cache = ScoreCache(max_entries=4, ttl_s=10.0, clock=lambda: now[0])
        cache.put("k", np.zeros(1))
        assert cache.get("k") is not None
        now[0] = 11.0
        assert cache.get("k") is None
        assert cache.stats()["expirations"] == 1

    def test_zero_entries_disables_storage(self):
        cache = ScoreCache(max_entries=0)
        cache.put("k", np.zeros(1))
        assert cache.get("k") is None and len(cache) == 0

    def test_candidate_digest_order_sensitive(self):
        a = np.array([1, 2, 3])
        assert candidate_digest(a) == candidate_digest(a.copy())
        assert candidate_digest(a) != candidate_digest(a[::-1])


class TestMetrics:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 500):
            hist.observe(ms / 1e3)
        assert hist.count == 10
        assert hist.percentile(50) < hist.percentile(99)
        assert hist.summary()["p99_ms"] >= 100

    def test_qps_window(self):
        now = [0.0]
        metrics = ServiceMetrics(clock=lambda: now[0], qps_window_s=10.0)
        for _ in range(20):
            now[0] += 0.1
            metrics.mark_request()
        assert metrics.qps() == pytest.approx(10.0, rel=0.2)
        now[0] += 100.0  # everything falls out of the window
        assert metrics.qps() == 0.0

    def test_snapshot_structure(self):
        metrics = ServiceMetrics()
        metrics.observe("score", 0.001)
        metrics.increment("queries")
        report = metrics.snapshot()
        assert report["counters"]["queries"] == 1
        assert "score" in report["latency"]


def _keyed(pairs):
    """A score that is a pure function of each pair, so rows are checkable."""
    return pairs[:, 0] * 1000 + pairs[:, 1]


class _HeldPass:
    """Wraps a score_fn so the first pass blocks until ``released`` is set:
    callers arriving meanwhile queue up behind it."""

    def __init__(self, score_fn):
        self.score_fn = score_fn
        self.entered = threading.Event()
        self.released = threading.Event()
        self.passes = 0  # one leader at a time, so no lock needed

    def __call__(self, pairs):
        self.passes += 1
        if self.passes == 1:
            self.entered.set()
            assert self.released.wait(10)
        return self.score_fn(pairs)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def _start_held_pass(batcher, held, block):
    """Start a caller whose pass ``held`` blocks; returns (thread, outcome)."""
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(batcher.score(block)), daemon=True
    )
    thread.start()
    assert held.entered.wait(10)
    return thread, outcome


def _start_callers(batcher, blocks, **kwargs):
    """One thread per block while a held pass runs, each queued before the
    next starts, so the queue holds the blocks in order; returns
    (threads, outcomes), an outcome being the scores or the exception."""
    outcomes = [None] * len(blocks)

    def call(i):
        try:
            outcomes[i] = batcher.score(blocks[i], **kwargs)
        except Exception as exc:  # the test inspects it
            outcomes[i] = exc

    threads = []
    for i in range(len(blocks)):
        threads.append(threading.Thread(target=call, args=(i,), daemon=True))
        threads[-1].start()
        _wait_for(lambda: len(batcher._queue) == i + 1)
    return threads, outcomes


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestMicroBatcher:
    def test_solo_miss_scores_on_the_calling_thread(self):
        idents = []

        def score_fn(pairs):
            idents.append(threading.get_ident())
            return _keyed(pairs)

        metrics = ServiceMetrics()
        before = set(threading.enumerate())
        with MicroBatcher(score_fn, metrics=metrics) as batcher:
            got = batcher.score(np.array([[3, 1], [4, 2]]))
            assert set(threading.enumerate()) <= before
        assert np.array_equal(got, [3001, 4002])
        assert idents == [threading.get_ident()]
        assert metrics.counter("batches") == 1
        assert metrics.histogram("queue").count == 1

    def test_concurrent_requests_share_batches(self, snapshot, micro_split):
        pairs = micro_split.test_pairs[:8]
        expected = snapshot.predict(pairs)
        held = _HeldPass(snapshot.predict)
        metrics = ServiceMetrics()
        with MicroBatcher(held, max_batch_size=64, metrics=metrics) as batcher:
            lead, _ = _start_held_pass(batcher, held, pairs[:1])
            threads, outcomes = _start_callers(
                batcher, [pairs[i:i + 1] for i in range(len(pairs))]
            )
            held.released.set()
            _join_all([lead] + threads)
        got = np.concatenate(outcomes)
        assert np.array_equal(got, expected)
        # The backlog queued behind the held pass merges into one pass.
        assert metrics.counter("batches") == 2
        assert metrics.counter("batched_requests") == len(pairs) + 1

    def test_leaders_drain_a_queue_longer_than_the_cap(self):
        held = _HeldPass(_keyed)
        metrics = ServiceMetrics()
        blocks = [
            np.array([[i, t] for t in range(1 + i % 3)]) for i in range(10)
        ]
        with MicroBatcher(held, max_batch_size=4, metrics=metrics) as batcher:
            lead, first = _start_held_pass(batcher, held, np.array([[99, 0]]))
            threads, outcomes = _start_callers(batcher, blocks)
            held.released.set()
            _join_all([lead] + threads)
        assert np.array_equal(first[0], [99000])
        for block, got in zip(blocks, outcomes):
            assert np.array_equal(got, _keyed(block))  # exactly its own rows
        # The held pass, then the ten queued requests as 4 + 4 + 2.
        assert metrics.counter("batches") == 1 + 3
        assert metrics.counter("batched_requests") == len(blocks) + 1
        assert metrics.counter("batched_pairs") == 1 + sum(map(len, blocks))
        assert metrics.histogram("queue").count == len(blocks) + 1

    def test_error_propagates_to_all_callers(self):
        passes = []

        def second_pass_fails(pairs):
            passes.append(len(pairs))
            if len(passes) == 2:
                raise RuntimeError("scoring failed")
            return _keyed(pairs)

        held = _HeldPass(second_pass_fails)
        with MicroBatcher(held) as batcher:
            lead, first = _start_held_pass(batcher, held, np.array([[7, 0]]))
            threads, outcomes = _start_callers(
                batcher, [np.array([[i, 1]]) for i in range(4)]
            )
            held.released.set()
            _join_all([lead] + threads)
            assert np.array_equal(first[0], [7000])
            for outcome in outcomes:
                assert isinstance(outcome, RuntimeError)
                assert "scoring failed" in str(outcome)
            # The failed pass released leadership: the next call leads.
            assert np.array_equal(batcher.score(np.array([[5, 2]])), [5002])
        assert passes == [1, 4, 1]

    def test_waiter_honours_its_timeout(self):
        held = _HeldPass(_keyed)
        metrics = ServiceMetrics()
        with MicroBatcher(held, metrics=metrics) as batcher:
            lead, _ = _start_held_pass(batcher, held, np.array([[1, 0]]))
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                batcher.score(np.array([[2, 0]]), timeout=0.05)
            assert 0.05 <= time.monotonic() - started < 5.0
            held.released.set()
            _join_all([lead])
            assert np.array_equal(batcher.score(np.array([[3, 0]])), [3000])
        # The timed-out request was withdrawn: no later pass scored it.
        assert metrics.counter("batched_requests") == 2
        assert metrics.counter("batched_pairs") == 2

    def test_many_threads_each_get_their_own_rows(self):
        threads_n, calls = 16, 50
        metrics = ServiceMetrics()
        rows_sent = [0] * threads_n
        failures = []

        def caller(t):
            rng = np.random.default_rng(t)
            for c in range(calls):
                rows = int(rng.integers(1, 6))
                block = np.stack(
                    [np.full(rows, t * calls + c), np.arange(rows)], axis=1
                )
                try:
                    got = batcher.score(block, timeout=30)
                except Exception as exc:  # reported below
                    failures.append((t, c, exc))
                    continue
                rows_sent[t] += rows
                if not np.array_equal(got, _keyed(block)):
                    failures.append((t, c, got))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            batcher = MicroBatcher(_keyed, max_batch_size=4, metrics=metrics)
            with batcher:
                threads = [
                    threading.Thread(target=caller, args=(t,), daemon=True)
                    for t in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert metrics.counter("batched_requests") == threads_n * calls
        assert metrics.counter("batched_pairs") == sum(rows_sent)
        assert metrics.histogram("queue").count == threads_n * calls
        assert metrics.histogram("score").count == metrics.counter("batches")

    def test_score_after_close_raises(self, snapshot):
        batcher = MicroBatcher(snapshot.predict)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.score(np.array([[0, 0]]))


class TestRecommendationService:
    def test_topk_matches_direct_ranking(self, service, snapshot):
        results = service.query(2, k=4)
        candidates = snapshot.candidate_regions()
        scores = snapshot.score_candidates(2, candidates)
        order = np.argsort(-scores, kind="stable")[:4]
        assert [r.region for r in results] == [int(candidates[i]) for i in order]
        assert results[0].predicted_orders == pytest.approx(
            results[0].score * snapshot.target_scale
        )

    def test_candidate_filters_and_per_type_defaults(self, snapshot):
        with RecommendationService(
            snapshot, default_k=2, per_type_k={1: 5}
        ) as svc:
            assert len(svc.query(0)) == 2  # default_k
            assert len(svc.query(1)) == 5  # per-type override
            top = svc.query(1, k=1)[0]
            filtered = svc.query(1, k=1, exclude_regions=[top.region])
            assert filtered[0].region != top.region

    def test_min_score_floor(self, service):
        everything = service.query(3, k=100)
        floor = everything[1].score  # keep only the strictly better ones
        kept = service.query(3, k=100, min_score=floor)
        assert len(kept) >= 1
        assert all(r.score >= floor for r in kept)

    def test_query_by_type_name(self, service, snapshot):
        name = snapshot.type_names[0]
        assert service.query(name, k=2) == service.query(0, k=2)

    def test_repeat_query_hits_cache(self, service):
        service.query(2, k=3)
        misses = service.cache.misses
        hits = service.cache.hits
        assert service.query(2, k=5)[:3] == service.query(2, k=3)
        assert service.cache.hits > hits
        assert service.cache.misses == misses

    def test_reload_swaps_snapshot_and_invalidates_cache(
        self, snapshot, micro_dataset, micro_split
    ):
        init.seed(9)  # different weights -> different scores
        other = ModelSnapshot.from_model(
            O2SiteRec(
                micro_dataset,
                micro_split,
                O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
            )
        )
        assert other.snapshot_id != snapshot.snapshot_id
        with RecommendationService(snapshot) as svc:
            before = svc.query(1, k=3)
            assert len(svc.cache) > 0
            deployed = svc.reload(other)
            assert deployed is other and svc.snapshot is other
            assert len(svc.cache) == 0  # cleared on swap
            after = svc.query(1, k=3)
            assert [r.score for r in after] != [r.score for r in before]
            # The fresh query recomputed rather than reusing stale scores.
            assert svc.cache.hits == 0
            assert svc.metrics.counter("reloads") == 1
            assert svc.stats()["snapshot"]["id"] == other.snapshot_id

    def test_reload_from_file(self, snapshot, service, tmp_path):
        path = snapshot.save(tmp_path / "again.npz")
        deployed = service.reload(path)
        assert deployed.snapshot_id == snapshot.snapshot_id

    def test_concurrent_queries_are_consistent(self, service, snapshot):
        types = [t % snapshot.num_types for t in range(24)]
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda t: service.query(t, k=2), types))
        for t, result in zip(types, results):
            # Batched GEMMs may round the last ulp differently than a solo
            # pass, so compare up to float tolerance, not bitwise.
            reference = service.query(t, k=2)
            assert [r.region for r in result] == [r.region for r in reference]
            assert [r.score for r in result] == pytest.approx(
                [r.score for r in reference]
            )

    def test_service_starts_no_thread(self, snapshot):
        before = set(threading.enumerate())
        with RecommendationService(snapshot) as svc:
            assert svc.query(1, k=2)
            assert set(threading.enumerate()) <= before
        assert svc.stats()["batching"] == {"max_batch_size": 32}

    def test_stats_shape(self, service):
        service.query(0)
        stats = service.stats()
        assert stats["counters"]["queries"] >= 1
        assert "total" in stats["latency"]
        assert stats["cache"]["size"] >= 0
        assert stats["snapshot"]["types"] == service.snapshot.num_types
        assert stats["batching"]["max_batch_size"] == 16


class TestProtocol:
    def test_ping_and_quit(self, service):
        assert handle_line(service, "PING") == ("PONG", True)
        response, keep_going = handle_line(service, "quit")
        assert response == "BYE" and not keep_going

    def test_types_lists_names(self, service, snapshot):
        response, _ = handle_line(service, "TYPES")
        names = json.loads(response[3:])
        assert names["0"] == snapshot.type_names[0]

    def test_query_with_options(self, service, snapshot):
        candidates = snapshot.candidate_regions()[:6]
        joined = ",".join(str(int(r)) for r in candidates)
        response, _ = handle_line(
            service, f"QUERY 2 K=2 CANDIDATES={joined} EXCLUDE={int(candidates[0])}"
        )
        assert response.startswith("OK ")
        rows = json.loads(response[3:])
        assert len(rows) == 2
        assert all(row["region"] != int(candidates[0]) for row in rows)
        assert rows[0]["type_name"] == snapshot.type_names[2]

    def test_query_by_name(self, service, snapshot):
        response, _ = handle_line(service, f"QUERY {snapshot.type_names[1]} K=1")
        assert response.startswith("OK ")

    def test_errors(self, service):
        assert handle_line(service, "")[0].startswith("ERR")
        assert handle_line(service, "FROBNICATE")[0].startswith("ERR")
        assert handle_line(service, "QUERY")[0].startswith("ERR")
        assert handle_line(service, "QUERY 999")[0].startswith("ERR")
        assert handle_line(service, "QUERY 0 BOGUS=1")[0].startswith("ERR")
        assert handle_line(service, "RELOAD")[0].startswith("ERR")

    def test_stats_roundtrips_json(self, service):
        response, _ = handle_line(service, "STATS")
        assert json.loads(response[3:])["snapshot"]["id"]

    def test_reload_command(self, service, snapshot, tmp_path):
        path = snapshot.save(tmp_path / "reload.npz")
        response, _ = handle_line(service, f"RELOAD {path}")
        assert json.loads(response[3:])["snapshot_id"] == snapshot.snapshot_id

    def test_reload_missing_file_keeps_serving(self, service, tmp_path):
        response, keep_going = handle_line(
            service, f"RELOAD {tmp_path / 'absent.npz'}"
        )
        assert response.startswith("ERR")
        assert keep_going
        assert handle_line(service, "PING") == ("PONG", True)

    def test_http_endpoints(self, service):
        server = serve_http(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            def get(path):
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10
                ) as response:
                    return response.status, json.loads(response.read())

            assert get("/healthz") == (200, {"status": "ok"})
            status, rows = get("/recommend?type=2&k=2")
            assert status == 200 and len(rows) == 2
            status, stats = get("/stats")
            assert status == 200 and stats["counters"]["queries"] >= 1
            status, types = get("/types")
            assert status == 200 and len(types) == service.snapshot.num_types
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/recommend")  # missing type
            err.value.close()
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            err.value.close()
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestServeCli:
    @pytest.fixture(scope="class")
    def snapshot_file(self, snapshot, tmp_path_factory):
        return snapshot.save(tmp_path_factory.mktemp("serve") / "snap.npz")

    def test_once_query(self, snapshot_file, capsys):
        rc = serve_main(
            ["--snapshot", str(snapshot_file), "--once", "QUERY 2 K=2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("OK ")
        assert len(json.loads(out[3:])) == 2

    def test_once_error_exit_code(self, snapshot_file, capsys):
        rc = serve_main(
            ["--snapshot", str(snapshot_file), "--once", "QUERY 999"]
        )
        assert rc == 1
        assert capsys.readouterr().out.startswith("ERR")

    def test_checkpoint_export_roundtrip(
        self, served_model, micro_split, tmp_path, monkeypatch, capsys
    ):
        # Freeze a checkpoint into a snapshot via the CLI, monkeypatching
        # the preset loader to reuse the session fixtures (a full preset
        # rebuild is too slow for the tier-1 suite).
        ckpt = tmp_path / "model"  # suffixless: exercises the .npz fix
        save_model(served_model, ckpt)
        import repro.serve.__main__ as serve_cli

        monkeypatch.setattr(
            serve_cli,
            "_load_snapshot",
            lambda args: (
                ModelSnapshot.from_checkpoint(
                    args.checkpoint,
                    served_model.dataset,
                    micro_split,
                )
            ),
        )
        out_path = tmp_path / "frozen.npz"
        rc = serve_main(
            [
                "--checkpoint", str(ckpt),
                "--export-snapshot", str(out_path),
            ]
        )
        assert rc == 0 and out_path.exists()
        assert "wrote snapshot" in capsys.readouterr().out
