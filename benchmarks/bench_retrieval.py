"""Retrieve-then-rank serving: the vector index vs the exact full scan.

Four measurement layers, every leg in a fresh subprocess so page-cache
warmth, BLAS thread pools and allocator state cannot leak between
configurations (the BENCH_pipeline driver convention):

1. *Prepare* -- synthesize a deploy-sized snapshot (2k+ candidate regions
   quick, 8k full; hub-clustered embeddings so partitions are
   score-coherent, the regime the index is built for) and write three
   arenas: plain, flat-indexed and IVF-indexed.
2. *Recall sweep* -- recall@10 against the full scan across the
   (retrieve_m, nprobe) grid, averaged over every store type, plus the
   flat mode's exactness pin (recall exactly 1.0).
3. *Latency* -- single-query p50/QPS through ``RecommendationService``:
   the exact full scan on the plain arena vs retrieve-then-rank on the
   IVF arena, plus the bare ``index.search`` cost (the sub-ms claim) and
   a float-for-float equality pin of flat-indexed vs plain results.
4. *Open* -- arena open-time delta, plain vs indexed (the index rides as
   extra mmap segments, so the delta should be header-parsing noise).

Floors (enforced, non-zero exit): recall@10 >= 0.95 at the default
operating point and a >= 3x single-query speedup at 2k+ candidate
regions -- both modes; quick is the CI smoke leg.

Usage::

    PYTHONPATH=src python benchmarks/bench_retrieval.py [--quick]

Writes ``benchmarks/results/retrieval.txt`` and ``BENCH_retrieval.json``
at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

NUM_TYPES = 12
EMBED_DIM = 24
PERIODS = 3
QUERY_K = 10


def _percentile_ms(latencies, p):
    import numpy as np

    return float(np.percentile(np.asarray(latencies), p) * 1e3)


def _synthetic_snapshot(num_regions: int, seed: int):
    """A deploy-sized snapshot with hub-clustered region embeddings.

    Simulating a city with thousands of regions takes minutes; the index
    only sees the frozen arrays, so the bench builds them directly.
    Regions come in clusters around shared hubs (the spatial coherence a
    real city exhibits), which is exactly what makes IVF partitions
    score-coherent and pruning safe.
    """
    import numpy as np

    from repro.serve import ModelSnapshot

    rng = np.random.default_rng(seed)
    num_hubs = max(num_regions // 50, 8)
    hubs = rng.normal(size=(num_hubs, EMBED_DIM))
    member_hub = rng.integers(num_hubs, size=num_regions)
    base = hubs[member_hub] + 0.15 * rng.normal(size=(num_regions, EMBED_DIM))
    # Per-period views share the cluster structure with small drift.
    h = np.stack(
        [base + 0.05 * rng.normal(size=base.shape) for _ in range(PERIODS)],
        axis=0,
    )
    q = rng.normal(size=(PERIODS, NUM_TYPES, EMBED_DIM))

    dim = 3 * EMBED_DIM  # product_channel concatenates h, q, h*q
    hidden = 16
    predictor = [
        (rng.normal(scale=0.3, size=(dim, hidden)), rng.normal(scale=0.1, size=hidden)),
        (rng.normal(scale=0.3, size=(hidden, 1)), rng.normal(scale=0.1, size=1)),
    ]
    return ModelSnapshot(
        h=h,
        q=q,
        pair_commercial=np.zeros((num_regions, NUM_TYPES, 2)),
        store_regions=np.arange(num_regions, dtype=np.int64),
        type_names=[f"type_{t}" for t in range(NUM_TYPES)],
        target_scale=100.0,
        product_channel=True,
        commercial_in_predictor=False,
        time_attention=False,
        time_heads=1,
        time_key_weight=None,
        time_query_weight=None,
        predictor_weights=predictor,
        meta={"bench": "retrieval", "hubs": int(num_hubs)},
    )


# ---------------------------------------------------------------------------
# Subprocess legs.
# ---------------------------------------------------------------------------

def run_prepare_leg(args) -> dict:
    """Build the bench snapshot and its three arenas once."""
    from repro.serve import ModelSnapshot, arena_segments

    out = Path(args.dir)
    snapshot = _synthetic_snapshot(args.regions, seed=17)
    snapshot.save(out / "plain.arena", format="arena")

    started = time.perf_counter()
    flat = snapshot.build_index(kind="flat", retrieve_m=64)
    flat_build_s = time.perf_counter() - started
    snapshot.save(out / "flat.arena", format="arena")

    started = time.perf_counter()
    ivf = snapshot.build_index(kind="ivf", retrieve_m=64)
    ivf_build_s = time.perf_counter() - started
    snapshot.save(out / "ivf.arena", format="arena")

    segments = arena_segments(out / "ivf.arena")
    index_bytes = sum(
        entry["nbytes"]
        for name, entry in segments.items()
        if name.startswith("index__")
    )
    reopened = ModelSnapshot.load(out / "ivf.arena")
    zero_copy = not reopened.index.sheet.flags.owndata

    return {
        "regions": snapshot.num_store_nodes,
        "types": snapshot.num_types,
        "periods": snapshot.num_periods,
        "embedding_dim": snapshot.embedding_dim,
        "partitions": ivf.num_partitions,
        "default_retrieve_m": ivf.retrieve_m,
        "default_nprobe": ivf.nprobe,
        "flat_build_s": flat_build_s,
        "ivf_build_s": ivf_build_s,
        "index_segments": sum(1 for n in segments if n.startswith("index__")),
        "index_mb": index_bytes / 2**20,
        "arena_mb": (out / "ivf.arena").stat().st_size / 2**20,
        "index_zero_copy": zero_copy,
    }


def run_recall_leg(args) -> dict:
    """Recall@10 vs the full scan over the (retrieve_m, nprobe) grid."""
    import numpy as np

    from repro.serve import ModelSnapshot

    snapshot = ModelSnapshot.load(Path(args.dir) / "ivf.arena")
    index = snapshot.index
    types = range(snapshot.num_types)

    def mean_recall(m, nprobe):
        return float(
            np.mean(
                [
                    index.recall_against_full_scan(
                        t, QUERY_K, m=m, nprobe=nprobe
                    )
                    for t in types
                ]
            )
        )

    k = index.num_partitions
    m_grid = [16, 32, 64, 128]
    nprobe_grid = sorted(
        {max(1, k // 8), max(1, k // 4), max(1, k // 2), k}
    )
    grid = [
        {"retrieve_m": m, "nprobe": p, "recall_at_10": mean_recall(m, p)}
        for m in m_grid
        for p in nprobe_grid
    ]

    flat_snapshot = ModelSnapshot.load(Path(args.dir) / "flat.arena")
    flat_recall = float(
        np.mean(
            [
                flat_snapshot.index.recall_against_full_scan(t, QUERY_K)
                for t in types
            ]
        )
    )
    return {
        "grid": grid,
        "default": {
            "retrieve_m": index.retrieve_m,
            "nprobe": index.nprobe,
            "recall_at_10": mean_recall(index.retrieve_m, index.nprobe),
        },
        "flat_recall_at_10": flat_recall,
    }


def run_latency_leg(args) -> dict:
    """Single-query latency/QPS: exact full scan vs retrieve-then-rank.

    Caching is disabled so every query pays the real scoring cost -- this
    measures the planes, not the cache.
    """
    import numpy as np

    from repro.serve import ModelSnapshot, RecommendationService

    leg_dir = Path(args.dir)
    service_kwargs = dict(cache_entries=0, default_k=QUERY_K)

    def measure(service, reps):
        latencies = [0.0] * reps
        for i in range(reps):
            store_type = i % service.snapshot.num_types
            started = time.perf_counter()
            service.query(store_type, k=QUERY_K)
            latencies[i] = time.perf_counter() - started
        return latencies

    results = {}
    for name, path in (("full_scan", "plain.arena"), ("retrieve", "ivf.arena")):
        with RecommendationService.from_snapshot_file(
            leg_dir / path, **service_kwargs
        ) as service:
            measure(service, min(args.reps, 32))  # warm
            latencies = measure(service, args.reps)
            counters = service.stats()["counters"]
        results[name] = {
            "p50_ms": _percentile_ms(latencies, 50),
            "p99_ms": _percentile_ms(latencies, 99),
            "qps": len(latencies) / sum(latencies),
            "retrievals": int(counters.get("retrievals", 0)),
        }

    # The bare retrieval stage (the sub-ms claim): index.search alone.
    snapshot = ModelSnapshot.load(leg_dir / "ivf.arena")
    index = snapshot.index
    search_lat = [0.0] * args.reps
    for i in range(args.reps):
        store_type = i % snapshot.num_types
        started = time.perf_counter()
        index.search(store_type)
        search_lat[i] = time.perf_counter() - started
    results["index_search"] = {
        "p50_ms": _percentile_ms(search_lat, 50),
        "p99_ms": _percentile_ms(search_lat, 99),
    }

    # Equality pin: the flat-indexed service must reproduce the plain
    # service's top-k float for float (same regions, same score bits).
    with RecommendationService.from_snapshot_file(
        leg_dir / "plain.arena", **service_kwargs
    ) as exact, RecommendationService.from_snapshot_file(
        leg_dir / "flat.arena", **service_kwargs
    ) as flat:
        equal = True
        for store_type in range(exact.snapshot.num_types):
            a = exact.query(store_type, k=QUERY_K)
            b = flat.query(store_type, k=QUERY_K)
            if [(r.region, r.score) for r in a] != [
                (r.region, r.score) for r in b
            ]:
                equal = False
                break
    results["flat_equal"] = equal
    results["speedup_p50"] = (
        results["full_scan"]["p50_ms"] / results["retrieve"]["p50_ms"]
    )
    return results


def run_open_leg(args) -> dict:
    """Arena open time, plain vs indexed: the delta should be noise."""
    import numpy as np

    from repro.serve import ModelSnapshot

    def time_open(path, reps):
        times = [0.0] * reps
        for i in range(reps):
            started = time.perf_counter()
            ModelSnapshot.load(path)
            times[i] = time.perf_counter() - started
        return float(np.median(times))

    plain_s = time_open(Path(args.dir) / "plain.arena", args.reps)
    indexed_s = time_open(Path(args.dir) / "ivf.arena", args.reps)
    return {
        "plain_ms": plain_s * 1e3,
        "indexed_ms": indexed_s * 1e3,
        "delta_ms": (indexed_s - plain_s) * 1e3,
        "reps": args.reps,
    }


LEGS = {
    "prepare": run_prepare_leg,
    "recall": run_recall_leg,
    "latency": run_latency_leg,
    "open": run_open_leg,
}


def spawn_leg(name: str, extra: list) -> dict:
    return common.run_bench_leg(__file__, name, extra)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--leg", choices=sorted(LEGS), help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--regions", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    args = parser.parse_args()

    if args.leg:
        print(json.dumps(LEGS[args.leg](args)))
        return 0

    quick = args.quick
    # The >= 3x speedup floor is asserted "at 2k+ candidate regions", so
    # even the CI smoke leg stays above that scale.
    regions = args.regions or (2400 if quick else 8000)
    reps = args.reps or (200 if quick else 600)
    floor_recall = 0.95
    floor_speedup = 3.0

    with tempfile.TemporaryDirectory(
        prefix=".bench-retrieval-", dir=str(ROOT)
    ) as tmp_dir:
        common = ["--dir", tmp_dir]
        prepare = spawn_leg(
            "prepare", common + ["--regions", str(regions)]
        )
        recall = spawn_leg("recall", common)
        latency = spawn_leg("latency", common + ["--reps", str(reps)])
        opened = spawn_leg(
            "open", common + ["--reps", str(5 if quick else 15)]
        )

    default = recall["default"]
    full = latency["full_scan"]
    retrieve = latency["retrieve"]
    search = latency["index_search"]

    lines = [
        "Retrieve-then-rank serving -- vector index vs exact full scan",
        f"mode={'quick' if quick else 'full'}  snapshot: "
        f"{prepare['regions']} regions, {prepare['types']} types, "
        f"{prepare['periods']} periods, d2={prepare['embedding_dim']}",
        f"index: {prepare['partitions']} partitions, "
        f"retrieve_m={prepare['default_retrieve_m']}, "
        f"nprobe={prepare['default_nprobe']}, "
        f"{prepare['index_mb']:.2f}MB in {prepare['index_segments']} arena "
        f"segments (build {prepare['ivf_build_s']:.2f}s, "
        f"{'zero-copy mmap' if prepare['index_zero_copy'] else 'COPIED'})",
        "",
        f"recall@10 vs full scan  (default operating point: "
        f"m={default['retrieve_m']}, nprobe={default['nprobe']} -> "
        f"{default['recall_at_10']:.3f}, floor {floor_recall:.2f}; "
        f"flat mode {recall['flat_recall_at_10']:.3f})",
        f"{'retrieve_m':>12}" + "".join(
            f"{'np=' + str(p): >10}"
            for p in sorted({row['nprobe'] for row in recall['grid']})
        ),
    ]
    nprobes = sorted({row["nprobe"] for row in recall["grid"]})
    for m in sorted({row["retrieve_m"] for row in recall["grid"]}):
        cells = {
            row["nprobe"]: row["recall_at_10"]
            for row in recall["grid"]
            if row["retrieve_m"] == m
        }
        lines.append(
            f"{m:>12}" + "".join(f"{cells[p]:>10.3f}" for p in nprobes)
        )
    lines += [
        "",
        f"{'leg':<26}{'p50 ms':>10}{'p99 ms':>10}{'QPS':>10}",
        f"{'exact full scan':<26}{full['p50_ms']:>10.3f}"
        f"{full['p99_ms']:>10.3f}{full['qps']:>10.0f}",
        f"{'retrieve-then-rank':<26}{retrieve['p50_ms']:>10.3f}"
        f"{retrieve['p99_ms']:>10.3f}{retrieve['qps']:>10.0f}",
        f"{'index.search alone':<26}{search['p50_ms']:>10.3f}"
        f"{search['p99_ms']:>10.3f}{'':>10}",
        "",
        f"single-query speedup: {latency['speedup_p50']:.2f}x "
        f"(floor {floor_speedup:.1f}x at {prepare['regions']} regions)",
        f"flat-indexed top-{QUERY_K}: "
        f"{'float-for-float equal to full scan' if latency['flat_equal'] else 'DIVERGES'}",
        f"arena open: plain {opened['plain_ms']:.3f}ms vs indexed "
        f"{opened['indexed_ms']:.3f}ms (delta {opened['delta_ms']:+.3f}ms)",
    ]
    text = "\n".join(lines)
    print(text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "retrieval.txt").write_text(text + "\n")
    payload = {
        "mode": "quick" if quick else "full",
        "regions": regions,
        "reps": reps,
        "query_k": QUERY_K,
        "prepare": prepare,
        "recall": recall,
        "latency": latency,
        "open": opened,
        "floors": {"recall_at_10": floor_recall, "speedup": floor_speedup},
    }
    (ROOT / "BENCH_retrieval.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not latency["flat_equal"]:
        print("FAIL: flat-indexed top-k diverges from the exact full scan")
        return 1
    if not prepare["index_zero_copy"]:
        print("FAIL: index segments were copied out of the arena mmap")
        return 1
    if recall["flat_recall_at_10"] < 1.0:
        print("FAIL: flat mode must have recall exactly 1.0")
        return 1
    if default["recall_at_10"] < floor_recall:
        print(
            f"FAIL: recall@10 {default['recall_at_10']:.3f} below "
            f"{floor_recall:.2f} at the default operating point"
        )
        return 1
    if latency["speedup_p50"] < floor_speedup:
        print(
            f"FAIL: retrieve-then-rank speedup {latency['speedup_p50']:.2f}x "
            f"below {floor_speedup:.1f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
