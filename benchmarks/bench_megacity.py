"""Megacity data plane: columnar orders, tile-parallel sim, streaming graphs.

Fresh-subprocess legs on the 100k-region megacity preset (316x316 grid):

* ``serial`` -- the shared-stream fast path (one global RNG sequence) on
  the same city, timed on order generation only;
* ``tiled``  -- the megacity default: per-tile ``SeedSequence`` streams,
  fully vectorised per-tile kernels, one stitched ``OrderTable``.  Spawned
  three times with ``O2_NUM_PROCS`` 1/2/4; the driver asserts all three
  report the same table SHA-256 (worker-count determinism);
* ``graph``  -- tiled sim -> dataset -> streaming banded hetero-graph
  build, with peak RSS gated against a static ceiling: the dense distance
  matrix alone would need ~80 GB at this size;
* ``identity`` -- the paper-scale (16x16 x 14-day) oracle check:
  ``identity_ref`` runs the per-order reference oracles
  (``OrderGenerator.generate_reference``, ``DispatchSimulator
  .run_reference``), ``identity_fast`` the default generator; both hash
  the order stream, the dataset arrays and a short fit (loss curve +
  parameter SHA-256), and the driver asserts the two are identical, i.e.
  the columnar order pipeline changed *nothing* observable at paper
  scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_megacity.py [--quick]

Writes ``benchmarks/results/megacity.txt`` and (full mode)
``BENCH_megacity.json``.  Full mode runs scale 1.0 and enforces the
floors: tiled generation >= 3x the serial leg, graph-build peak RSS under
the ceiling, determinism and identity exact.  ``--quick`` (CI smoke) runs
a reduced-scale live check of every invariant, then validates the
recorded ``BENCH_megacity.json`` against the same floors; it never
overwrites the recorded numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

import numpy as np

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

SPEEDUP_FLOOR = 3.0
# Peak RSS ceiling for the full-scale graph leg (sim + dataset + streaming
# build at 99,856 regions).  Dense distance rows alone would be ~80 GB;
# the recorded banded build peaks at ~2.1 GB, so 4 GB leaves allocator
# headroom while still catching any fallback to dense construction.
GRAPH_RSS_CEILING_MB = 4096.0
FULL_SCALE = 1.0
QUICK_SCALE = 0.22  # 69x69 grid: multi-tile, seconds per leg
IDENTITY_SCALE = 1.0  # the paper-shaped 16x16 real-world preset
IDENTITY_QUICK_SCALE = 0.5
IDENTITY_EPOCHS = 4


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _order_stream_sha(orders) -> str:
    """Digest of an order stream: columnar table SHA, or record-wise."""
    table = getattr(orders, "table", None)
    if table is not None:
        return table.sha256()
    return _record_identity_sha(orders)


def _record_identity_sha(orders) -> str:
    """Digest every record field-for-field (both identity legs use this).

    Iterates records, so a columnar view and a materialised list of the
    same orders digest identically.
    """
    digest = hashlib.sha256()
    for o in orders:
        digest.update(
            f"{o.order_id}|{o.store_id}|{o.customer_id}|{o.courier_id}".encode()
        )
        digest.update(
            np.array([
                o.store_lon, o.store_lat, o.customer_lon, o.customer_lat,
                o.created_minute, o.accepted_minute, o.pickup_minute,
                o.delivered_minute, o.distance_m,
            ]).tobytes()
        )
        digest.update(
            np.array(
                [o.store_region, o.customer_region, o.store_type],
                dtype=np.int64,
            ).tobytes()
        )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Subprocess legs.
# ---------------------------------------------------------------------------

def _build_city(config):
    """Pre-order stages (land, stores, fleet) -- excluded from sim timing."""
    from repro.city.couriers import build_fleet
    from repro.city.landuse import synthesize_land_use
    from repro.city.orders import OrderGenerator
    from repro.city.stores import place_stores

    rng = np.random.default_rng(config.seed)
    land = synthesize_land_use(config, rng)
    stores = place_stores(config, land, rng)
    fleet = build_fleet(config, land, rng)
    return OrderGenerator(config, land, stores, fleet, rng)


def run_sim_leg(leg: str, scale: float) -> dict:
    """Time order generation (the data-plane hot loop) for one stream mode."""
    from dataclasses import replace

    from repro.city.simulator import megacity_config
    from repro.city.tilesim import tile_layout
    from repro.parallel import num_procs
    from repro.runtime import tune_allocator

    tune_allocator()
    config = megacity_config(seed=7, scale=scale)
    if leg == "serial":
        config = replace(config, order_streams="shared")
    gen = _build_city(config)

    started = time.perf_counter()
    orders = gen.generate()
    gen_s = time.perf_counter() - started

    return {
        "leg": leg,
        "scale": scale,
        "regions": int(config.rows * config.cols),
        "tiles": int(tile_layout(config.rows, config.cols).num_tiles),
        "num_procs": int(num_procs()),
        "order_table": getattr(orders, "table", None) is not None,
        "num_orders": len(orders),
        "gen_s": gen_s,
        "orders_per_s": len(orders) / gen_s if gen_s > 0 else 0.0,
        "sha": _order_stream_sha(orders),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_graph_leg(scale: float) -> dict:
    """Tiled sim -> dataset -> streaming hetero-graph build, RSS-gated."""
    from repro.city.simulator import megacity_config, simulate_uncached
    from repro.data.dataset import SiteRecDataset
    from repro.graphs.hetero import build_hetero_multigraph
    from repro.runtime import tune_allocator

    tune_allocator()
    config = megacity_config(seed=7, scale=scale)
    started = time.perf_counter()
    sim = simulate_uncached(config)
    sim_s = time.perf_counter() - started

    started = time.perf_counter()
    dataset = SiteRecDataset.from_simulation(sim)
    dataset_s = time.perf_counter() - started

    started = time.perf_counter()
    graph = build_hetero_multigraph(dataset)
    graph_s = time.perf_counter() - started

    su_edges = sum(len(sub.su_dst_s) for sub in graph.subgraphs.values())
    digest = hashlib.sha256()
    for period in sorted(graph.subgraphs, key=int):
        sub = graph.subgraphs[period]
        digest.update(np.ascontiguousarray(sub.su_dst_s).tobytes())
        digest.update(np.ascontiguousarray(sub.su_attr).tobytes())
    return {
        "leg": "graph",
        "scale": scale,
        "regions": int(config.rows * config.cols),
        "num_orders": len(sim.orders),
        "store_nodes": int(graph.num_store_nodes),
        "customer_nodes": int(graph.num_customer_nodes),
        "su_edges": int(su_edges),
        "sim_s": sim_s,
        "dataset_s": dataset_s,
        "graph_s": graph_s,
        "sha": digest.hexdigest(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_identity_leg(scale: float, oracle: bool) -> dict:
    """One side of the paper-scale identity: the oracles or the fast path."""
    from repro.city.simulator import real_world_config, simulate_uncached
    from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer
    from repro.data.dataset import SiteRecDataset
    from repro.nn import init
    from repro.runtime import tune_allocator

    tune_allocator()
    config = real_world_config(seed=7, scale=scale)
    if oracle:
        with common.reference_orders():
            sim = simulate_uncached(config)
    else:
        sim = simulate_uncached(config)
    orders_sha = _record_identity_sha(sim.orders)

    dataset = SiteRecDataset.from_simulation(sim)
    features_sha = hashlib.sha256(
        np.ascontiguousarray(dataset.region_features).tobytes()
        + np.ascontiguousarray(dataset.targets).tobytes()
    ).hexdigest()

    split = dataset.split(seed=2)
    init.seed(5)
    model = O2SiteRec(dataset, split, O2SiteRecConfig())
    result = Trainer(model, TrainConfig(epochs=IDENTITY_EPOCHS, lr=5e-3)).fit(
        split.train_pairs, dataset.pair_targets(split.train_pairs)
    )
    params = hashlib.sha256()
    for name, param in model.named_parameters():
        params.update(name.encode())
        params.update(np.ascontiguousarray(param.data).tobytes())
    return {
        "leg": "identity",
        "scale": scale,
        "orders_type": type(sim.orders).__name__,
        "num_orders": len(sim.orders),
        "orders_sha": orders_sha,
        "features_sha": features_sha,
        "train_losses": [float(x) for x in result.train_losses],
        "params_sha": params.hexdigest(),
        "peak_rss_mb": _peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

LEG_ENV = {
    "serial": {"O2_NUM_PROCS": "0"},
    "tiled": {"O2_NUM_PROCS": "1"},
    "tiled_p2": {"O2_NUM_PROCS": "2"},
    "tiled_p4": {"O2_NUM_PROCS": "4"},
    "graph": {},
    "identity_ref": {},
    "identity_fast": {},
}


def spawn_leg(name: str, args) -> dict:
    return common.run_bench_leg(__file__, name, args, env=LEG_ENV[name])


def check_legs(legs: dict) -> None:
    """Invariants shared by quick and full mode (live, every run)."""
    if not legs["tiled"]["order_table"]:
        raise SystemExit("tiled leg lost the order table (not the default)")
    if legs["tiled"]["tiles"] < 2:
        raise SystemExit("tiled leg ran on a single tile; scale too small")
    shas = {legs[n]["sha"] for n in ("tiled", "tiled_p2", "tiled_p4")}
    if len(shas) != 1:
        raise SystemExit(
            f"tile-parallel sim is NOT deterministic across worker counts: "
            f"{sorted(s[:16] for s in shas)}"
        )
    ref, fast = legs["identity_ref"], legs["identity_fast"]
    generators = (ref["orders_type"], fast["orders_type"])
    if generators != ("list", "OrderRecordSeq"):
        raise SystemExit(
            f"identity legs ran {generators}, expected the oracle's list "
            f"and the fast path's OrderRecordSeq"
        )
    for key in ("orders_sha", "features_sha", "train_losses", "params_sha"):
        if ref[key] != fast[key]:
            raise SystemExit(
                f"paper-scale identity broken: {key} differs between the "
                f"reference oracle and the fast path"
            )


def format_report(legs: dict, scale: float, mode: str) -> str:
    serial, tiled, graph = legs["serial"], legs["tiled"], legs["graph"]
    speedup = serial["gen_s"] / tiled["gen_s"]
    lines = [
        "Megacity data plane: columnar orders, tile-parallel sim, "
        "streaming graph",
        f"mode={mode}  scale={scale}  regions={serial['regions']}  "
        f"tiles={tiled['tiles']}",
        "",
        f"{'leg':<10} {'orders':>9} {'gen':>9} {'orders/s':>10} "
        f"{'peak rss':>10} {'sha':>18}",
    ]
    for name in ("serial", "tiled", "tiled_p2", "tiled_p4"):
        leg = legs[name]
        lines.append(
            f"{name:<10} {leg['num_orders']:>9} {leg['gen_s']:>7.2f} s "
            f"{leg['orders_per_s']:>10.0f} {leg['peak_rss_mb']:>7.0f} MB "
            f"{leg['sha'][:16]:>18}"
        )
    lines += [
        "",
        f"tiled generation vs shared-stream serial leg: {speedup:.2f}x"
        + (
            f" (gated, floor {SPEEDUP_FLOOR:.1f}x)"
            if mode == "full"
            else " (reduced scale; floor gated on the recorded run)"
        ),
        f"worker-count determinism (1/2/4 procs): "
        f"{legs['tiled']['sha'] == legs['tiled_p4']['sha']}",
        f"graph leg: {graph['su_edges']} S-U edges over "
        f"{graph['store_nodes']}x{graph['customer_nodes']} nodes in "
        f"{graph['graph_s']:.1f} s (sim {graph['sim_s']:.1f} s, dataset "
        f"{graph['dataset_s']:.1f} s), peak RSS {graph['peak_rss_mb']:.0f} MB"
        + (
            f" (gated, ceiling {GRAPH_RSS_CEILING_MB:.0f} MB)"
            if mode == "full"
            else ""
        ),
        f"paper-scale oracle vs fast path: orders, features, "
        f"{IDENTITY_EPOCHS}-epoch loss curve and parameters identical: "
        f"{legs['identity_ref']['params_sha'] == legs['identity_fast']['params_sha']}",
    ]
    return "\n".join(lines)


def validate_recorded(path: Path) -> str:
    """CI gate on the recorded full-mode numbers (quick mode)."""
    if not path.exists():
        return "BENCH_megacity.json: absent (fresh checkout), floors not checked"
    data = json.loads(path.read_text())
    speedup = float(data["speedup"]["tiled_vs_serial"])
    if not data.get("deterministic"):
        raise SystemExit("BENCH_megacity.json records a determinism failure")
    if not data.get("identity"):
        raise SystemExit("BENCH_megacity.json records an identity failure")
    if speedup < SPEEDUP_FLOOR:
        raise SystemExit(
            f"BENCH_megacity.json speedup {speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x floor"
        )
    rss = float(data["graph"]["peak_rss_mb"])
    if rss > GRAPH_RSS_CEILING_MB:
        raise SystemExit(
            f"BENCH_megacity.json graph peak RSS {rss:.0f} MB exceeds the "
            f"{GRAPH_RSS_CEILING_MB:.0f} MB ceiling"
        )
    return (
        f"BENCH_megacity.json: recorded {speedup:.2f}x at scale="
        f"{data['scale']}, graph peak {rss:.0f} MB -- floors OK"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--leg", choices=sorted(LEG_ENV))
    parser.add_argument("--scale", type=float, default=None)
    ns = parser.parse_args()

    if ns.leg:
        scale = ns.scale if ns.scale is not None else FULL_SCALE
        if ns.leg in ("serial", "tiled", "tiled_p2", "tiled_p4"):
            result = run_sim_leg(
                "serial" if ns.leg == "serial" else "tiled", scale
            )
        elif ns.leg == "graph":
            result = run_graph_leg(scale)
        else:
            result = run_identity_leg(scale, oracle=ns.leg == "identity_ref")
        print(json.dumps(result))
        return

    quick = ns.quick
    scale = ns.scale if ns.scale is not None else (
        QUICK_SCALE if quick else FULL_SCALE
    )
    id_scale = IDENTITY_QUICK_SCALE if quick else IDENTITY_SCALE

    legs = {}
    for name in ("serial", "tiled", "tiled_p2", "tiled_p4", "graph"):
        legs[name] = spawn_leg(name, ["--scale", scale])
    for name in ("identity_ref", "identity_fast"):
        legs[name] = spawn_leg(name, ["--scale", id_scale])
    check_legs(legs)

    text = format_report(legs, scale, "quick" if quick else "full")
    if quick:
        text += "\n" + validate_recorded(ROOT / "BENCH_megacity.json")
    common.emit("megacity", text)

    speedup = legs["serial"]["gen_s"] / legs["tiled"]["gen_s"]
    if not quick:
        payload = {
            "mode": "full",
            "scale": scale,
            "identity_scale": id_scale,
            "floors": {
                "speedup": SPEEDUP_FLOOR,
                "graph_rss_mb": GRAPH_RSS_CEILING_MB,
            },
            "leg_env": LEG_ENV,
            "deterministic": legs["tiled"]["sha"] == legs["tiled_p2"]["sha"]
            == legs["tiled_p4"]["sha"],
            "identity": legs["identity_ref"]["params_sha"]
            == legs["identity_fast"]["params_sha"],
            "speedup": {
                "tiled_vs_serial": speedup,
                "orders_per_s_tiled": legs["tiled"]["orders_per_s"],
                "orders_per_s_serial": legs["serial"]["orders_per_s"],
            },
            "graph": {
                "graph_s": legs["graph"]["graph_s"],
                "su_edges": legs["graph"]["su_edges"],
                "peak_rss_mb": legs["graph"]["peak_rss_mb"],
            },
            **{name: legs[name] for name in LEG_ENV},
        }
        (ROOT / "BENCH_megacity.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        if speedup < SPEEDUP_FLOOR:
            raise SystemExit(
                f"tiled speedup {speedup:.2f}x is below the "
                f"{SPEEDUP_FLOOR:.1f}x floor"
            )
        if legs["graph"]["peak_rss_mb"] > GRAPH_RSS_CEILING_MB:
            raise SystemExit(
                f"graph peak RSS {legs['graph']['peak_rss_mb']:.0f} MB "
                f"exceeds the {GRAPH_RSS_CEILING_MB:.0f} MB ceiling"
            )


if __name__ == "__main__":
    main()
