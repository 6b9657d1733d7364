"""The scale-out serving plane: arena snapshots, worker pool, partial top-k.

Pins the PR's three layers against their reference implementations:

* the ``.arena`` container round-trips a snapshot bit-for-bit (scores,
  fingerprint, metadata) and loads interchangeably with ``.npz``;
* ``top_k_indices``/``top_k_mask`` match the stable full argsort exactly,
  duplicate-score ties included, and the bulk metrics kernel matches the
  per-k metric calls float-for-float;
* ``WorkerPool`` serves over N processes with correct shared-memory stats
  aggregation and atomic fleet-wide hot swap -- every response observed
  during a swap matches the old snapshot or the new one, never a blend;
  the BLAS-thread cap its workers apply only ever lowers the count.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import O2SiteRec, O2SiteRecConfig
from repro.metrics import (
    hit_rate_at_k,
    ndcg_at_k,
    precision_at_k,
    ranking_metrics_bulk,
    recall_at_k,
)
from repro import runtime
from repro.nn import init
from repro.serve import (
    ModelSnapshot,
    RecommendationService,
    ServiceMetrics,
    SharedServiceStats,
    convert_snapshot,
    is_arena_file,
    open_arena,
    read_manifest,
    serve_http,
    write_manifest,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.workers import WorkerPool, _WorkerSink
from repro.topk import top_k_indices, top_k_mask


@pytest.fixture(scope="module")
def snapshots(micro_dataset, micro_split):
    """Two snapshots with different weights (for hot-swap tests)."""
    init.seed(4)
    model_a = O2SiteRec(
        micro_dataset,
        micro_split,
        O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
    )
    init.seed(9)
    model_b = O2SiteRec(
        micro_dataset,
        micro_split,
        O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
    )
    return ModelSnapshot.from_model(model_a), ModelSnapshot.from_model(model_b)


@pytest.fixture(scope="module")
def snapshot(snapshots):
    return snapshots[0]


def _all_pairs(snapshot):
    regions = snapshot.candidate_regions()
    return np.stack(
        [
            np.tile(regions, snapshot.num_types),
            np.repeat(
                np.arange(snapshot.num_types, dtype=np.int64), len(regions)
            ),
        ],
        axis=1,
    )


# ----------------------------------------------------------------------
# Arena container
# ----------------------------------------------------------------------
class TestArena:
    def test_round_trip_bit_for_bit(self, snapshot, tmp_path):
        npz_path = snapshot.save(tmp_path / "snap.npz")
        arena_path = snapshot.save(tmp_path / "snap.arena", format="arena")
        assert is_arena_file(arena_path)
        assert not is_arena_file(npz_path)

        from_npz = ModelSnapshot.load(npz_path)
        from_arena = ModelSnapshot.load(arena_path)
        pairs = _all_pairs(snapshot)
        assert np.array_equal(from_npz.predict(pairs), from_arena.predict(pairs))
        assert np.array_equal(snapshot.predict(pairs), from_arena.predict(pairs))
        # Fingerprint and metadata survive the format change.
        assert from_arena.snapshot_id == from_npz.snapshot_id == snapshot.snapshot_id
        assert from_arena.type_names == from_npz.type_names
        assert from_arena.target_scale == from_npz.target_scale
        assert from_arena.num_periods == from_npz.num_periods
        assert from_arena.embedding_dim == from_npz.embedding_dim

    def test_open_is_zero_copy(self, snapshot, tmp_path):
        path = snapshot.save(tmp_path / "snap.arena", format="arena")
        loaded = open_arena(path)
        assert isinstance(loaded.h, np.memmap) or not loaded.h.flags["OWNDATA"]

    def test_verify_checks_fingerprint(self, snapshot, tmp_path):
        path = snapshot.save(tmp_path / "snap.arena", format="arena")
        open_arena(path, verify=True)  # must not raise

    def test_truncated_arena_rejected(self, snapshot, tmp_path):
        path = snapshot.save(tmp_path / "snap.arena", format="arena")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(ValueError, match="truncated"):
            ModelSnapshot.load(path)

    def test_suffixless_load_resolves_arena(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "snap.arena", format="arena")
        loaded = ModelSnapshot.load(tmp_path / "snap")
        assert loaded.snapshot_id == snapshot.snapshot_id

    def test_convert_snapshot(self, snapshot, tmp_path):
        npz_path = snapshot.save(tmp_path / "snap.npz")
        arena_path = convert_snapshot(npz_path, verify=True)
        assert arena_path == tmp_path / "snap.arena"
        converted = ModelSnapshot.load(arena_path)
        pairs = _all_pairs(snapshot)
        assert np.array_equal(snapshot.predict(pairs), converted.predict(pairs))

    def test_convert_cli(self, snapshot, tmp_path, capsys):
        npz_path = snapshot.save(tmp_path / "snap.npz")
        dest = tmp_path / "migrated.arena"
        assert serve_main(["convert", str(npz_path), str(dest)]) == 0
        assert "wrote arena" in capsys.readouterr().out
        assert ModelSnapshot.load(dest).snapshot_id == snapshot.snapshot_id

    def test_export_snapshot_format_flag(self, snapshot, tmp_path, capsys):
        src = snapshot.save(tmp_path / "snap.npz")
        # Round-trip through the CLI export path in arena format.
        out = tmp_path / "exported.arena"
        code = serve_main(
            [
                "--snapshot", str(src),
                "--export-snapshot", str(out),
                "--snapshot-format", "arena",
            ]
        )
        assert code == 0
        assert is_arena_file(out)


# ----------------------------------------------------------------------
# Partial-sort top-k
# ----------------------------------------------------------------------
class TestTopK:
    def _reference(self, scores, k):
        return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k]

    @pytest.mark.parametrize("k", [1, 2, 5, 31, 32, 40])
    def test_matches_stable_argsort(self, rng, k):
        scores = rng.normal(size=32)
        assert np.array_equal(
            top_k_indices(scores, k), self._reference(scores, k)
        )

    @pytest.mark.parametrize(
        "scores",
        [
            np.zeros(16),  # all tied
            np.array([1.0, 1.0, 0.5, 1.0, 0.5, 0.25] * 4),  # heavy duplicates
            np.array([3.0, -1.0, 3.0, 3.0, 2.0]),
            np.array([np.nan, 1.0, 2.0, np.nan]),  # NaN falls back to full sort
            np.array([np.inf, -np.inf, 0.0, np.inf]),
        ],
    )
    def test_tie_break_identical(self, scores):
        for k in range(1, len(scores) + 1):
            assert np.array_equal(
                top_k_indices(scores, k), self._reference(scores, k)
            ), f"k={k}"

    def test_fuzz_ties(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 40))
            # Coarse quantisation forces duplicate scores.
            scores = np.round(rng.normal(size=n), 1)
            k = int(rng.integers(1, n + 1))
            assert np.array_equal(
                top_k_indices(scores, k), self._reference(scores, k)
            )

    def test_mask_matches_indices(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            scores = np.round(rng.normal(size=n), 1)
            k = int(rng.integers(1, n + 1))
            mask = top_k_mask(scores, k)
            expected = np.zeros(n, dtype=bool)
            expected[self._reference(scores, k)] = True
            assert np.array_equal(mask, expected)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_indices(np.arange(4.0), 0)
        with pytest.raises(ValueError):
            top_k_mask(np.arange(4.0), 0)


class TestBulkMetrics:
    def test_matches_per_k_calls(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 60))
            scores = np.round(rng.normal(size=n), 1)
            relevance = np.round(rng.exponential(size=n) * 5, 0)
            top_n = int(rng.integers(1, n + 1))
            ks = [1, 3, 5, 10]
            bulk = ranking_metrics_bulk(scores, relevance, ks, top_n=top_n)
            for k in ks:
                # Float-for-float: the bulk kernel shares the sorts but
                # must reproduce each metric's exact summation order.
                assert bulk[f"NDCG@{k}"] == ndcg_at_k(scores, relevance, k)
                assert bulk[f"Precision@{k}"] == precision_at_k(
                    scores, relevance, k, top_n=top_n
                )

    def test_per_k_functions_match_recall_and_hit(self, rng):
        # The mask-based rewrites of recall/hit-rate stay consistent with
        # precision on the same inputs.
        scores = np.round(rng.normal(size=25), 1)
        relevance = np.round(rng.exponential(size=25) * 3, 0)
        p = precision_at_k(scores, relevance, 5, top_n=10)
        r = recall_at_k(scores, relevance, 5, top_n=10)
        assert p * 5 == r * 10  # same hit count, different denominators
        best = int(np.argmax(relevance))
        in_top = best in np.argsort(-scores, kind="stable")[:5]
        assert hit_rate_at_k(scores, relevance, 5) == float(in_top)

    def test_evaluate_model_matches_loop(self, micro_dataset, micro_split):
        from repro.metrics.evaluation import evaluate_model
        from repro.metrics.ranking import rmse

        init.seed(4)
        model = O2SiteRec(
            micro_dataset,
            micro_split,
            O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
        )
        result = evaluate_model(
            model, micro_dataset, micro_split, top_n_frac=0.4
        )
        # Reference: the pre-vectorisation per-pair loop over the public
        # per-k metric functions.
        for a, row in result.per_type.items():
            candidates = micro_split.test_regions_for_type(a)
            pairs = np.stack(
                [candidates, np.full(len(candidates), a, dtype=np.int64)],
                axis=1,
            )
            scores = np.asarray(model.predict(pairs), dtype=np.float64)
            relevance = micro_dataset.pair_targets(pairs)
            top_n = max(3, int(round(0.4 * len(pairs))))
            expected = {}
            for k in (3, 5, 10):
                expected[f"NDCG@{k}"] = ndcg_at_k(scores, relevance, k)
                expected[f"Precision@{k}"] = precision_at_k(
                    scores, relevance, k, top_n=top_n
                )
            expected["RMSE"] = rmse(scores, relevance)
            assert row == expected  # exact, not approx


# ----------------------------------------------------------------------
# Shared-memory stats
# ----------------------------------------------------------------------
class TestSharedStats:
    def test_counters_and_histograms_aggregate(self):
        shared = SharedServiceStats(num_workers=2)
        sink_a = _WorkerSink(shared, 0)
        sink_b = _WorkerSink(shared, 1)
        for _ in range(3):
            sink_a.increment("queries")
        sink_b.increment("queries", 2)
        sink_a.increment("cache_hits", 5)
        sink_b.observe("total", 0.010)
        sink_a.observe("total", 0.0001)
        sink_a.increment("not_a_fleet_counter")  # silently ignored
        sink_a.observe("not_a_stage", 1.0)

        report = shared.aggregate()
        assert report["counters"]["queries"] == 5
        assert report["counters"]["cache_hits"] == 5
        assert report["per_worker_queries"] == [3, 2]
        total = report["latency"]["total"]
        assert total["count"] == 2
        assert total["p99_ms"] >= total["p50_ms"] > 0.0

    def test_service_metrics_mirror_to_sink(self):
        shared = SharedServiceStats(num_workers=1)
        metrics = ServiceMetrics(sink=_WorkerSink(shared, 0))
        metrics.increment("queries")
        metrics.observe("total", 0.002)
        # Local view and fleet view agree.
        assert metrics.counter("queries") == 1
        assert shared.counter("queries") == 1
        assert shared.aggregate()["latency"]["total"]["count"] == 1

    def test_manifest_round_trip(self, tmp_path):
        manifest = tmp_path / "deploy.json"
        assert write_manifest(manifest, "a.arena") == 1
        assert read_manifest(manifest) == (1, "a.arena")
        assert write_manifest(manifest, "b.arena") == 2
        assert read_manifest(manifest) == (2, "b.arena")
        assert write_manifest(manifest, "c.arena", version=10) == 10
        assert read_manifest(manifest) == (10, "c.arena")


# ----------------------------------------------------------------------
# HTTP keep-alive
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_two_requests_one_connection(self, snapshot):
        with RecommendationService(snapshot) as service:
            server = serve_http(service, port=0)
            port = server.server_address[1]
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                first = conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert response.version == 11
                # Same socket must survive for a second exchange.
                sock = conn.sock
                assert sock is not None
                conn.request("GET", "/recommend?type=1&k=2")
                response = conn.getresponse()
                assert response.status == 200
                assert len(json.loads(response.read())) == 2
                assert conn.sock is sock
                conn.close()
            finally:
                server.shutdown()
                server.server_close()


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def _get(port, path, timeout=15):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
        return json.loads(body)
    finally:
        conn.close()


class TestWorkerPool:
    def test_serves_and_aggregates_stats(self, snapshot, tmp_path):
        path = snapshot.save(tmp_path / "snap.arena", format="arena")
        with WorkerPool(path, procs=2) as pool:
            assert _get(pool.port, "/healthz") == {"status": "ok"}
            for _ in range(8):
                results = _get(pool.port, "/recommend?type=1&k=2")
                assert len(results) == 2
            stats = pool.stats()
            assert stats["procs"] == 2
            assert stats["counters"]["queries"] == 8
            assert sum(stats["per_worker_queries"]) == 8
            assert len(stats["pids"]) == 2
            assert all(stats["alive"])
            assert stats["latency"]["total"]["count"] == 8
        # Stopped cleanly: processes are gone.
        assert not any(worker.is_alive() for worker in pool._workers)

    def test_inherited_socket_fallback(self, snapshot, tmp_path, monkeypatch):
        from repro.serve import workers as workers_mod

        monkeypatch.setattr(workers_mod, "reuseport_available", lambda: False)
        path = snapshot.save(tmp_path / "snap.arena", format="arena")
        with WorkerPool(path, procs=2) as pool:
            for _ in range(4):
                assert len(_get(pool.port, "/recommend?type=0&k=1")) == 1
            assert pool.stats()["counters"]["queries"] == 4

    def test_hot_swap_under_concurrent_queries(self, snapshots, tmp_path):
        old_snapshot, new_snapshot = snapshots
        old_path = old_snapshot.save(tmp_path / "old.arena", format="arena")
        new_path = new_snapshot.save(tmp_path / "new.arena", format="arena")

        # Ground truth score vectors for one fixed query, per snapshot.
        regions = old_snapshot.candidate_regions()[:6]
        query = "/recommend?type=1&k=6&candidates=" + ",".join(
            str(int(r)) for r in regions
        )
        with RecommendationService(old_snapshot) as svc:
            expect_old = [rec.score for rec in svc.query(1, regions, k=6)]
        with RecommendationService(new_snapshot) as svc:
            expect_new = [rec.score for rec in svc.query(1, regions, k=6)]
        assert expect_old != expect_new  # the swap must be observable

        manifest = tmp_path / "deploy.json"
        observed = []
        torn = []
        stop = threading.Event()

        with WorkerPool(
            old_path, procs=2, manifest_path=manifest, poll_interval_s=0.05
        ) as pool:

            def hammer():
                while not stop.is_set():
                    scores = [r["score"] for r in _get(pool.port, query)]
                    observed.append(tuple(scores))
                    # Atomicity pin: every response is exactly one
                    # snapshot's ranking, never a mixture.
                    if scores != expect_old and scores != expect_new:
                        torn.append(scores)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.3)
                version = pool.reload(new_path)
                assert version == 1
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if pool.shared.counter("reloads") >= 2:
                        break
                    time.sleep(0.05)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=20)

            stats = pool.stats()
            assert stats["counters"]["reloads"] == 2  # every worker cut over
            assert stats["counters"]["reload_errors"] == 0
            assert stats["manifest"] == {
                "version": 1,
                "snapshot": str(new_path),
            }
            # After the fleet-wide swap the new ranking is served.
            assert [r["score"] for r in _get(pool.port, query)] == expect_new

        assert not torn, f"torn reads: {torn[:3]}"
        assert tuple(expect_old) in observed  # traffic ran before the swap


# A fresh interpreter, so the thread count starts at numpy's default and
# no other test's cap leaks in.
_BLAS_LIMIT_SCRIPT = textwrap.dedent(
    """
    import json
    from repro import runtime

    calls = runtime._openblas_thread_calls()
    if calls is None:
        print("null")
    else:
        get_threads = calls[1]
        before = get_threads()
        lowered = runtime.limit_blas_threads(1)
        after = get_threads()
        kept = runtime.limit_blas_threads(before + 2)
        print(json.dumps([before, lowered, after, kept, get_threads()]))
    """
)


def test_limit_blas_threads_lowers_and_never_raises():
    src = Path(runtime.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]
    ))
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_LIMIT_SCRIPT],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    if record is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count symbol")
    before, lowered, after, kept, final = record
    assert before >= 1 and lowered and kept
    assert after == 1  # lowered to the cap
    assert final == 1  # a cap above the count never raises it
