"""Banded training step: halo-synchronised tile-parallel fwd+bwd vs dense.

Two fresh-subprocess legs run the same eager batch-128 Adam steps on the
metropolis preset (10k+ regions), identical except for the tile count each
leg sets at its start (``set_shard_tiles``, :data:`LEG_TILES`):

* ``reference`` -- 0 tiles: the dense training step (full-range autograd
  attention per relation per period);
* ``serial``    -- 8 tiles:
  the banded step as the in-process cache-tiled band sweep.  The win is
  locality: band-sized edge intermediates stay cache-resident through the
  block-sweep backward instead of streaming full-graph temporaries
  through DRAM, and the forward stashes each band's attention softmax so
  the backward skips the recompute.

Neither leg builds a ``CompiledStep``: a banded step poisons an active
capture by design (see DESIGN.md section 12), so eager-vs-eager isolates
the band sweep.  Every leg records its per-step losses and a SHA-256 over
the final parameters; the bench asserts the banded leg is *bitwise
identical* to the reference, and that the gate actually engaged, so the
speedup measures the band sweep and not a silent fallback.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_train.py [--quick]

Writes ``benchmarks/results/shard_train.txt`` and (full mode)
``BENCH_shard_train.json``.  Full mode runs scale-1.0 metropolis and
enforces the PR floor on the *cold* step -- the first batch in a fresh
process, where the dense step pays page-in for its full-graph autograd
temporaries -- which must be >=1.3x the reference leg's cold step.  Warm
medians are recorded alongside with a per-epoch extrapolation (an epoch
is one cold step plus ~hundreds of warm ones, so the epoch ratio tracks
the warm median).  ``--quick`` (CI smoke) runs a small metropolis with
forced tiles for a live bit-identity + engagement check, then validates
the recorded ``BENCH_shard_train.json`` against the same floor; it never
overwrites the recorded full-mode numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

SPEEDUP_FLOOR = 1.3
FULL_SCALE = 1.0
QUICK_SCALE = 0.24  # 24x24 grid -- below the auto threshold, tiles forced
SHARD_TILES = 8  # the eval-shard optimum; train adapts per relation
FULL_STEPS = 6
QUICK_STEPS = 3
BATCH = 128


# ---------------------------------------------------------------------------
# Subprocess leg: one training mode, fresh interpreter.
# ---------------------------------------------------------------------------

def run_leg(leg: str, scale: float, steps: int) -> dict:
    import numpy as np

    from repro.core import shard
    from repro.core.model import O2SiteRec
    from repro.nn import init
    from repro.optim import Adam, clip_grad_norm
    from repro.runtime import tune_allocator

    shard.set_shard_tiles(LEG_TILES[leg])
    tune_allocator()

    dataset, split = common.cached_dataset("metropolis", 0, scale)
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    opt = Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
    order = np.random.default_rng(0).permutation(len(pairs))

    times, losses = [], []
    for step in range(steps):
        batch = order[step * BATCH : step * BATCH + BATCH]
        batch_pairs, batch_targets = pairs[batch], targets[batch]
        started = time.perf_counter()
        opt.zero_grad()
        loss, _, _ = model.loss(batch_pairs, batch_targets)
        loss.backward(free_graph=True)
        clip_grad_norm(model.parameters(), 5.0)
        opt.step()
        times.append(time.perf_counter() - started)
        losses.append(float(loss.data))

    digest = hashlib.sha256()
    for param in model.parameters():
        digest.update(np.ascontiguousarray(param.data).tobytes())

    warm = times[1:] or times
    return {
        "leg": leg,
        "scale": scale,
        "steps": steps,
        "batch": BATCH,
        "steps_per_epoch": -(-len(pairs) // BATCH),
        "regions": int(dataset.num_regions),
        "gate": shard.shard_train_gate_reason(),
        "cold_s": times[0],
        "best_s": min(times),
        "median_warm_s": sorted(warm)[len(warm) // 2],
        "times_s": times,
        "losses": losses,
        "param_sha": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "stats": shard.shard_train_stats(),
    }


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

# Eager on every leg (run_leg never builds a CompiledStep): the banded
# step poisons replay capture by design, so compiled-vs-eager would
# measure the fallback, not the executor.
LEG_TILES = {"reference": 0, "serial": SHARD_TILES}


def spawn_leg(name: str, scale: float, steps: int) -> dict:
    return common.run_bench_leg(
        __file__, name, ["--scale", scale, "--steps", steps]
    )


def check_legs(legs: dict) -> None:
    """Engagement + bit-identity invariants shared by quick and full."""
    if legs["reference"]["gate"].startswith("engaged"):
        raise SystemExit("reference leg unexpectedly ran banded")
    leg = legs["serial"]
    if not leg["gate"].startswith("engaged"):
        raise SystemExit(
            f"serial leg did not engage the banded-training gate: "
            f"{leg['gate']!r}"
        )
    if leg["stats"]["steps"] == 0 or leg["stats"]["bands"] == 0:
        raise SystemExit("serial leg recorded no banded work")
    if leg["losses"] != legs["reference"]["losses"]:
        raise SystemExit(
            f"serial losses are NOT bitwise identical to the reference: "
            f"{leg['losses']} != {legs['reference']['losses']}"
        )
    if leg["param_sha"] != legs["reference"]["param_sha"]:
        raise SystemExit(
            f"serial final parameters are NOT bitwise identical to the "
            f"reference: {leg['param_sha'][:16]} != "
            f"{legs['reference']['param_sha'][:16]}"
        )


def format_report(legs: dict, scale: float, mode: str, floor: float) -> str:
    reference, serial = legs["reference"], legs["serial"]
    speedup_cold = reference["cold_s"] / serial["cold_s"]
    speedup_warm = reference["median_warm_s"] / serial["median_warm_s"]
    rss_drop = 1.0 - serial["peak_rss_mb"] / reference["peak_rss_mb"]
    epoch_steps = reference["steps_per_epoch"]
    lines = [
        "Banded training step: tile-parallel fwd+bwd vs the dense step",
        f"mode={mode}  scale={scale}  regions={reference['regions']}  "
        f"batch={reference['batch']}  steps={reference['steps']}  "
        f"(epoch = {epoch_steps} steps)",
        f"serial gate: {serial['gate']}",
        "",
        f"{'leg':<10} {'cold':>9} {'best':>9} {'median':>9} "
        f"{'peak rss':>10} {'param sha':>18}",
    ]
    for name in LEG_TILES:
        leg = legs[name]
        lines.append(
            f"{name:<10} {leg['cold_s']:>7.2f} s {leg['best_s']:>7.2f} s "
            f"{leg['median_warm_s']:>7.2f} s {leg['peak_rss_mb']:>7.0f} MB "
            f"{leg['param_sha'][:16]:>18}"
        )
    lines += [
        "",
        f"cold-step speedup vs dense reference: {speedup_cold:.2f}x"
        + (
            f" (gated, floor {floor:.1f}x)"
            if mode == "full"
            else " (below-threshold scale; floor gated on the recorded run)"
        ),
        f"warm-median speedup vs dense reference: {speedup_warm:.2f}x "
        f"(a batch-{reference['batch']} epoch is 1 cold + "
        f"{epoch_steps - 1} warm steps, so epoch time tracks this)",
        f"peak training RSS: {reference['peak_rss_mb']:.0f} MB dense vs "
        f"{serial['peak_rss_mb']:.0f} MB banded ({rss_drop:.0%} lower)",
        "losses + final params bitwise identical across all legs: True",
    ]
    return "\n".join(lines)


def validate_recorded(path: Path, floor: float) -> str:
    """CI gate on the recorded full-mode numbers (quick mode)."""
    if not path.exists():
        return (
            "BENCH_shard_train.json: absent (fresh checkout), "
            "floor not checked"
        )
    data = json.loads(path.read_text())
    recorded = float(data["speedup"]["vs_reference_cold"])
    if not data.get("identical"):
        raise SystemExit(
            "BENCH_shard_train.json records a bit-identity failure"
        )
    if recorded < floor:
        raise SystemExit(
            f"BENCH_shard_train.json cold speedup {recorded:.2f}x is below "
            f"the {floor:.1f}x floor"
        )
    return (
        f"BENCH_shard_train.json: recorded {recorded:.2f}x cold / "
        f"{data['speedup']['vs_reference_warm_median']:.2f}x warm at "
        f"scale={data['scale']} -- floor OK"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--leg", choices=sorted(LEG_TILES))
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    ns = parser.parse_args()

    if ns.leg:
        result = run_leg(ns.leg, ns.scale or FULL_SCALE, ns.steps or 3)
        print(json.dumps(result))
        return

    quick = ns.quick
    scale = ns.scale if ns.scale is not None else (
        QUICK_SCALE if quick else FULL_SCALE
    )
    steps = ns.steps if ns.steps is not None else (
        QUICK_STEPS if quick else FULL_STEPS
    )

    legs = {name: spawn_leg(name, scale, steps) for name in LEG_TILES}
    check_legs(legs)
    text = format_report(legs, scale, "quick" if quick else "full",
                         SPEEDUP_FLOOR)
    if quick:
        text += "\n" + validate_recorded(
            ROOT / "BENCH_shard_train.json", SPEEDUP_FLOOR
        )
    common.emit("shard_train", text)

    speedup = legs["reference"]["cold_s"] / legs["serial"]["cold_s"]
    if not quick:
        payload = {
            "mode": "full",
            "scale": scale,
            "steps": steps,
            "batch": BATCH,
            "floors": {"speedup_cold": SPEEDUP_FLOOR},
            "leg_tiles": LEG_TILES,
            "identical": (
                legs["serial"]["param_sha"] == legs["reference"]["param_sha"]
                and legs["serial"]["losses"] == legs["reference"]["losses"]
            ),
            "speedup": {
                "vs_reference_cold": speedup,
                "vs_reference_warm_median": legs["reference"][
                    "median_warm_s"
                ]
                / legs["serial"]["median_warm_s"],
                "vs_reference_warm_best": legs["reference"]["best_s"]
                / legs["serial"]["best_s"],
                "peak_rss": legs["reference"]["peak_rss_mb"]
                / legs["serial"]["peak_rss_mb"],
            },
            **{name: legs[name] for name in LEG_TILES},
        }
        (ROOT / "BENCH_shard_train.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        if speedup < SPEEDUP_FLOOR:
            raise SystemExit(
                f"cold banded-step speedup {speedup:.2f}x is below the "
                f"{SPEEDUP_FLOOR:.1f}x floor"
            )


if __name__ == "__main__":
    main()
