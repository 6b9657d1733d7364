"""Sharded propagation: grid-tile band sweep vs the single-process legs.

Three fresh-subprocess legs on the metropolis preset (10k+ regions, ~1.3M
S-U edges across five periods), identical except for the tile switch read
at import time and the propagation entry point they time:

* ``single``    -- ``O2_SHARD_TILES=0``: the dense period-batched pass
  (full-graph kernels), the reference the band sweep is pinned to;
* ``perperiod`` -- ``O2_SHARD_TILES=0``, timing
  ``HeteroRecommender.propagate_per_period``: the per-period test oracle;
* ``sharded``   -- ``O2_SHARD_TILES=8``: the same batched pass with its
  layers swept over grid-tile row bands.  On a single core this runs as
  the in-process band sweep (no forks); the win is cache tiling --
  band-local edge intermediates stay resident instead of streaming
  ~85 MB of full-graph temporaries through DRAM per kernel.  With
  ``O2_NUM_PROCS`` set on a multi-core host the same bands fan out over a
  process pool and shared read-only arenas.

Every leg propagates under :func:`repro.tensor.no_grad`, as the product's
eval entry points (``predict``, ``export_embeddings``) do, and records a
SHA-256 over the propagated ``(h, q)`` tensors of all periods.  The driver
asserts ``sharded`` is *identical* to both ``single`` and ``perperiod``:
in eval mode the batched pass and the per-period oracle have given the
same bytes on every city measured (they differ in training, where the
batched weight gradients sum all periods' rows in one taller matmul).
The sharded leg must also report that the gate actually engaged, so the
speedup is measuring the engine and not a silent fallback.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py [--quick]

Writes ``benchmarks/results/shard.txt`` and (full mode) ``BENCH_shard.json``.
Full mode runs the scale-1.0 metropolis and enforces the PR floor: the
*cold* sharded propagation -- the first run in a fresh process, which is
how metropolis propagation is actually consumed (snapshot export, a
post-``fit`` eval) -- must be >=3x the default single-process leg's cold
run.  Cold is where the full-graph legs pay for their working set: ~2 GB
of period-stacked temporaries page-faulted in through the pool, versus
~0.9 GB peak for the band sweep.  Warm repetitions are recorded
alongside (best + median): once the pool is hot the per-period reference
closes most of the gap in time (not in memory), and the report says so.
``--quick`` (CI smoke) runs a small metropolis with forced tiles for a
live bit-identity + engagement check, then validates the recorded
``BENCH_shard.json`` against the same floor; it never overwrites the
recorded full-mode numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
from pathlib import Path

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

SPEEDUP_FLOOR = 3.0
FULL_SCALE = 1.0
QUICK_SCALE = 0.24  # 24x24 grid -- below the auto threshold, tiles forced
SHARD_TILES = 8  # optimum from the band-count scan (4/8/16/25/50)


# ---------------------------------------------------------------------------
# Subprocess leg: one propagation mode, fresh interpreter.
# ---------------------------------------------------------------------------

def run_leg(leg: str, scale: float, reps: int) -> dict:
    from repro.core import shard
    from repro.core.model import O2SiteRec
    from repro.nn import init
    from repro.runtime import tune_allocator
    from repro.tensor import no_grad

    tune_allocator()

    dataset, _split = common.cached_dataset("metropolis", 0, scale)
    init.seed(0)
    model = O2SiteRec(dataset)
    model.eval()
    rec = model.recommender
    with no_grad():
        capacity_su, _ = model._capacity_pass()
    tiles_engaged = shard.shard_tiles_for(rec, capacity_su)
    propagate = (
        rec.propagate_per_period if leg == "perperiod" else rec.propagate_periods
    )

    def sha_periods(out) -> str:
        digest = hashlib.sha256()
        for period in sorted(out, key=int):
            h, q = out[period]
            digest.update(h.data.tobytes())
            digest.update(q.data.tobytes())
        return digest.hexdigest()

    times, sha = [], None
    gc.collect()
    for _ in range(reps):
        started = time.perf_counter()
        with no_grad():
            out = propagate(capacity_su)
        times.append(time.perf_counter() - started)
        digest = sha_periods(out)
        assert sha is None or digest == sha, "propagation is not deterministic"
        sha = digest
        del out
        gc.collect()

    warm = times[1:] or times
    edges = sum(
        len(sub.su_dst_s) for sub in rec.graph.subgraphs.values()
    ) + len(rec.graph.sa_attr)
    return {
        "leg": leg,
        "scale": scale,
        "tiles_engaged": int(tiles_engaged),
        "store_nodes": int(rec.graph.num_store_nodes),
        "customer_nodes": int(rec.graph.num_customer_nodes),
        "edges": int(edges),
        "cold_s": times[0],
        "best_s": min(times),
        "median_warm_s": sorted(warm)[len(warm) // 2],
        "times_s": times,
        "sha": sha,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

LEG_ENV = {
    "single": {"O2_SHARD_TILES": "0"},
    "perperiod": {"O2_SHARD_TILES": "0"},
    "sharded": {"O2_SHARD_TILES": str(SHARD_TILES)},
}


def spawn_leg(name: str, scale: float, reps: int) -> dict:
    return common.run_bench_leg(
        __file__,
        name,
        ["--scale", scale, "--reps", reps],
        env=LEG_ENV[name],
    )


def check_legs(legs: dict) -> None:
    """Engagement + bit-identity invariants shared by quick and full."""
    if legs["single"]["tiles_engaged"] != 0:
        raise SystemExit("single leg unexpectedly sharded")
    if legs["perperiod"]["tiles_engaged"] != 0:
        raise SystemExit("perperiod leg unexpectedly sharded")
    if legs["sharded"]["tiles_engaged"] <= 1:
        raise SystemExit("sharded leg did not engage the tile gate")
    for ref in ("single", "perperiod"):
        if legs["sharded"]["sha"] != legs[ref]["sha"]:
            raise SystemExit(
                f"sharded propagation is NOT bit-identical to the {ref} "
                f"leg: {legs['sharded']['sha'][:16]} != "
                f"{legs[ref]['sha'][:16]}"
            )


def format_report(legs: dict, scale: float, mode: str, floor: float) -> str:
    single, perperiod, sharded = (
        legs["single"], legs["perperiod"], legs["sharded"],
    )
    speedup_cold = single["cold_s"] / sharded["cold_s"]
    speedup_warm = single["best_s"] / sharded["best_s"]
    speedup_vs_pp = perperiod["cold_s"] / sharded["cold_s"]
    rss_ratio = single["peak_rss_mb"] / sharded["peak_rss_mb"]
    lines = [
        "Sharded propagation: grid-tile band sweep vs single-process legs",
        f"mode={mode}  scale={scale}  tiles={sharded['tiles_engaged']}  "
        f"stores={single['store_nodes']}  "
        f"customers={single['customer_nodes']}  edges={single['edges']}",
        "",
        f"{'leg':<10} {'cold':>9} {'best':>9} {'median':>9} "
        f"{'peak rss':>10} {'sha':>18}",
    ]
    for name in ("single", "perperiod", "sharded"):
        leg = legs[name]
        lines.append(
            f"{name:<10} {leg['cold_s']:>7.2f} s {leg['best_s']:>7.2f} s "
            f"{leg['median_warm_s']:>7.2f} s {leg['peak_rss_mb']:>7.0f} MB "
            f"{leg['sha'][:16]:>18}"
        )
    lines += [
        "",
        f"cold speedup vs default single-process leg: {speedup_cold:.2f}x"
        + (
            f" (gated, floor {floor:.1f}x)"
            if mode == "full"
            else " (below-threshold scale; floor gated on the recorded run)"
        )
        + f"; vs per-period reference: {speedup_vs_pp:.2f}x",
        f"warm best-of-reps vs default single-process leg: "
        f"{speedup_warm:.2f}x (pool hot: the full-graph legs stop paying "
        f"page-in, the memory gap remains)",
        f"peak RSS: {single['peak_rss_mb']:.0f} MB single vs "
        f"{sharded['peak_rss_mb']:.0f} MB sharded ({rss_ratio:.1f}x)",
        f"bit-identical to the single and perperiod legs: "
        f"{sharded['sha'] == single['sha'] == perperiod['sha']}",
    ]
    return "\n".join(lines)


def validate_recorded(path: Path, floor: float) -> str:
    """CI gate on the recorded full-mode numbers (quick mode)."""
    if not path.exists():
        return "BENCH_shard.json: absent (fresh checkout), floor not checked"
    data = json.loads(path.read_text())
    recorded = float(data["speedup"]["vs_single_cold"])
    if not data.get("identical"):
        raise SystemExit("BENCH_shard.json records a bit-identity failure")
    if recorded < floor:
        raise SystemExit(
            f"BENCH_shard.json speedup {recorded:.2f}x is below the "
            f"{floor:.1f}x floor"
        )
    return (
        f"BENCH_shard.json: recorded {recorded:.2f}x at "
        f"scale={data['scale']} tiles={data['tiles']} -- floor OK"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--leg", choices=sorted(LEG_ENV))
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--reps", type=int, default=None)
    ns = parser.parse_args()

    if ns.leg:
        result = run_leg(ns.leg, ns.scale or FULL_SCALE, ns.reps or 3)
        print(json.dumps(result))
        return

    quick = ns.quick
    scale = ns.scale if ns.scale is not None else (
        QUICK_SCALE if quick else FULL_SCALE
    )
    reps = ns.reps if ns.reps is not None else (2 if quick else 3)

    legs = {name: spawn_leg(name, scale, reps) for name in LEG_ENV}
    check_legs(legs)
    text = format_report(legs, scale, "quick" if quick else "full",
                         SPEEDUP_FLOOR)
    if quick:
        text += "\n" + validate_recorded(ROOT / "BENCH_shard.json",
                                         SPEEDUP_FLOOR)
    common.emit("shard", text)

    speedup = legs["single"]["cold_s"] / legs["sharded"]["cold_s"]
    if not quick:
        payload = {
            "mode": "full",
            "scale": scale,
            "reps": reps,
            "tiles": legs["sharded"]["tiles_engaged"],
            "floors": {"speedup": SPEEDUP_FLOOR},
            "leg_env": LEG_ENV,
            "identical": legs["sharded"]["sha"] == legs["perperiod"]["sha"],
            "speedup": {
                "vs_single_cold": speedup,
                "vs_single_warm_best": legs["single"]["best_s"]
                / legs["sharded"]["best_s"],
                "vs_perperiod_cold": legs["perperiod"]["cold_s"]
                / legs["sharded"]["cold_s"],
                "peak_rss": legs["single"]["peak_rss_mb"]
                / legs["sharded"]["peak_rss_mb"],
            },
            **{name: legs[name] for name in LEG_ENV},
        }
        (ROOT / "BENCH_shard.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        if speedup < SPEEDUP_FLOOR:
            raise SystemExit(
                f"cold sharded speedup {speedup:.2f}x is below the "
                f"{SPEEDUP_FLOOR:.1f}x floor"
            )


if __name__ == "__main__":
    main()
