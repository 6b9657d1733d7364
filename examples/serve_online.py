"""Online serving: train once, freeze a snapshot, answer queries fast.

The training-side model re-runs the full multi-graph propagation on every
``predict``; the serving layer (``repro.serve``) runs it once, freezes the
per-period embeddings, and serves top-k queries from a gather + small
matmuls -- with an LRU+TTL score cache, micro-batched concurrent scoring,
atomic hot swap for retrained models, and a retrieve-then-rank vector
index that shortlists candidate regions before the exact scorer runs.

    python examples/serve_online.py
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.city import tiny_dataset
from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer, save_model
from repro.data import SiteRecDataset
from repro.serve import ModelSnapshot, RecommendationService


def main() -> None:
    # 1. Train a small model (exactly as in quickstart.py).
    sim = tiny_dataset(seed=3)
    dataset = SiteRecDataset.from_simulation(sim)
    split = dataset.split(seed=0)
    model = O2SiteRec(
        dataset, split, O2SiteRecConfig(embedding_dim=20, capacity_dim=8)
    )
    trainer = Trainer(model, TrainConfig(epochs=40, lr=5e-3, patience=10))
    trainer.fit(split.train_pairs, dataset.pair_targets(split.train_pairs))

    # 2. The deployment hand-off: checkpoint -> frozen serving snapshot.
    save_model(model, "/tmp/o2_siterec_ckpt.npz")
    snapshot = ModelSnapshot.from_checkpoint(
        "/tmp/o2_siterec_ckpt.npz", dataset, split
    )
    snapshot.save("/tmp/o2_siterec_snap.npz")  # dataset-free artifact
    print(f"frozen snapshot {snapshot.snapshot_id}: {snapshot!r}")

    # 3. Snapshot scoring is identical to the model, but ~1000x faster.
    pairs = split.test_pairs[:20]
    t0 = time.perf_counter()
    cold = model.predict(pairs)
    cold_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    warm = snapshot.predict(pairs)
    warm_ms = (time.perf_counter() - t0) * 1e3
    print(
        f"cold {cold_ms:.1f} ms vs snapshot {warm_ms:.2f} ms "
        f"({cold_ms / warm_ms:.0f}x); identical scores: "
        f"{bool(np.array_equal(cold, warm))}"
    )

    # 4. Serve top-k queries (cache + micro-batching under the hood).
    with RecommendationService(snapshot, default_k=3) as service:
        juice = snapshot.type_index("juice")
        print("\nTop sites for a new juice store:")
        for rec in service.query(juice, split.test_regions_for_type(juice)):
            print(
                f"  region {rec.region}: "
                f"predicted {rec.predicted_orders:.0f} orders/month"
            )

        # Concurrent load: callers share vectorised scoring passes.
        types = [t % snapshot.num_types for t in range(60)]
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(lambda t: service.query(t, k=3), types))

        stats = service.stats()
        print(
            f"\nserved {stats['counters']['queries']} queries at "
            f"{stats['qps']:.0f} QPS; cache hits {stats['cache']['hits']}, "
            f"batches {stats['counters'].get('batches', 0)}"
        )
        print(
            "total latency p50/p99: "
            f"{stats['latency']['total']['p50_ms']:.2f} / "
            f"{stats['latency']['total']['p99_ms']:.2f} ms"
        )

        # 5. Hot swap: deploy a retrained model without dropping queries.
        trainer.fit(split.train_pairs, dataset.pair_targets(split.train_pairs))
        service.reload(ModelSnapshot.from_model(model))
        print(f"\nhot-swapped to snapshot {service.snapshot.snapshot_id}")
        print(f"post-reload top region: {service.query(juice, k=1)[0].region}")

    # 6. Retrieve-then-rank: attach a vector index so unconstrained
    #    queries probe IVF partitions of the exact score sheet instead of
    #    scanning every region, then re-rank survivors with the exact
    #    scorer (DESIGN.md section 10; `use_index=` here, `--index` on
    #    the CLI).  The index rides inside the snapshot file either format.
    index = snapshot.build_index(kind="ivf", retrieve_m=16)
    snapshot.save("/tmp/o2_siterec_snap.arena", format="arena")
    info = index.describe()
    print(
        f"\nbuilt {info['kind']} index: {info['partitions']} partitions, "
        f"retrieve_m={info['retrieve_m']}, nprobe={info['nprobe']}, "
        f"{info['bytes'] / 1024:.1f} KiB"
    )
    with RecommendationService(snapshot, default_k=3, use_index=True) as fast:
        via_index = fast.query(juice)
        retrievals = fast.stats()["counters"]["retrievals"]
    with RecommendationService(snapshot, default_k=3, use_index=False) as exact:
        full_scan = exact.query(juice)
    identical = [(r.region, r.predicted_orders) for r in via_index] == [
        (r.region, r.predicted_orders) for r in full_scan
    ]
    recall = index.recall_against_full_scan(juice, k=3)
    print(
        f"retrieval recall@3: {recall:.3f}; indexed top-3 identical to "
        f"exact full scan: {identical} ({retrievals} retrieval pass)"
    )


if __name__ == "__main__":
    main()
