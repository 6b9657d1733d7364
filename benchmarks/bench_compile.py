"""Step compiler: trace-and-replay training vs the eager pooled baseline.

Two fresh-subprocess legs on the real-city preset, identical except for
whether the leg builds a :class:`repro.tensor.plan.CompiledStep` (both run
the default memory plane: buffer pool on, tuned allocator, tape
retirement):

* ``eager`` -- no compiled step: every batch step builds the autograd
  tape, walks it node by node, and dispatches each op through the Python
  tensor layer (the BENCH_memory ``pool`` leg's configuration);
* ``plan``  -- a compiled step: the first step per batch signature
  is captured into an :class:`repro.tensor.plan.ExecutionPlan`; every
  subsequent step replays the recorded thunk list and flat backward
  schedule with zero tape construction and zero autograd dispatch.

Both legs record the full batch-loss sequence and a SHA-256 fingerprint of
the final parameters; the driver asserts they are *identical* -- replay
re-runs the same FP op sequence into the same buffers, it never reorders
math.  The driver also asserts the plan leg actually captured and replayed
(and never fell back to eager), so the speedup is measuring the compiler.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py [--quick]

Writes ``benchmarks/results/compile.txt`` and ``BENCH_compile.json``.
Full mode runs two epochs per leg (the steady statistic is the fastest
step of the final epoch, past every capture; the median is recorded
alongside) and enforces the PR floor on the scale-1.0 batch-128
epoch: >=1.25x over the pooled baseline recorded by the memory-plane
bench (``BENCH_memory.json`` ``pool`` leg -- the epoch this PR's charter
is to win back; target 1.5x), with the live re-measured eager leg
reported alongside.  ``--quick`` (CI smoke) asserts bit-for-bit
equality, plan engagement, and a >=1.0x floor against the live eager leg
(the tiny city leaves little dispatch overhead to win back, so quick
only checks "not slower").
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

BATCH_SIZE = 128  # paper_train_config().batch_size


# ---------------------------------------------------------------------------
# Subprocess leg: one execution mode, fresh interpreter.
# ---------------------------------------------------------------------------

def run_leg(leg: str, scale: float, steps: int) -> dict:
    from repro.experiments.harness import build_dataset
    from repro.core.model import O2SiteRec
    from repro.nn import init
    from repro.optim import Adam, clip_grad_norm
    from repro.runtime import tune_allocator
    from repro.tensor import memprof
    from repro.tensor.plan import CompiledStep

    tune_allocator()

    dataset, split = build_dataset("real", 0, scale)
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)

    rng = np.random.default_rng(0)
    order = rng.permutation(len(pairs))
    batches = np.array_split(order, int(np.ceil(len(pairs) / BATCH_SIZE)))
    batch_data = [
        (np.ascontiguousarray(pairs[sel]), targets[sel]) for sel in batches
    ]

    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-4)

    compiled = None
    if LEG_COMPILE_STEP[leg]:
        compiled = CompiledStep(
            loss_fn=lambda p, t: model.loss(p, t)[0],
            parameters=model.parameters(),
            optimizer=optimizer,
            clip_fn=lambda: clip_grad_norm(model.parameters(), 5.0),
            guard_fn=lambda: (model.training,),
        )
    gc.collect()

    def one_step(batch_pairs, batch_targets) -> float:
        if compiled is not None:
            loss_val = compiled.step(batch_pairs, batch_targets)
            if loss_val is not None:
                return loss_val
        optimizer.zero_grad()
        loss, _, _ = model.loss(batch_pairs, batch_targets)
        loss.backward(free_graph=True)
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        return float(loss.data)

    # GC hygiene for the timed region: the eager tape is cycle-heavy
    # (node -> closure -> node), and collector pauses land as one-sided
    # noise on a single-core box.  Both legs get the same treatment.
    #
    # The allocation profile is snapshotted after the warmup epoch(s) --
    # captures included, which is where the interesting allocations are --
    # and the profiler is then switched off so the steady window times the
    # step, not the per-request profiler hook.  Both legs alike.
    losses, batch_times = [], []
    snap = None
    profile_cutoff = steps - min(len(batch_data), steps)
    gc.collect()
    gc.disable()
    try:
        for i in range(steps):
            if i == profile_cutoff and snap is None:
                snap = memprof.report()
                memprof.set_mem_profile(False)
            batch_pairs, batch_targets = batch_data[i % len(batch_data)]
            started = time.perf_counter()
            losses.append(one_step(batch_pairs, batch_targets))
            batch_times.append((time.perf_counter() - started) * 1e3)
    finally:
        gc.enable()

    # Full-batch steps: one plan, deepest graph -- the regime where capture
    # cost amortises fastest (a single signature replays every epoch).  The
    # first two steps are warmup (the plan leg pays its one-off capture
    # there; the eager leg warms its identity-keyed caches) so the timed
    # window measures the steady state both legs settle into.
    full_times = []
    gc.collect()
    gc.disable()
    try:
        for step_no in range(2 + max(2, steps // 5)):
            started = time.perf_counter()
            losses.append(one_step(pairs, targets))
            if step_no >= 2:
                full_times.append((time.perf_counter() - started) * 1e3)
    finally:
        gc.enable()

    fingerprint = hashlib.sha256(
        b"".join(
            np.ascontiguousarray(p.data).tobytes() for p in model.parameters()
        )
    ).hexdigest()
    if snap is None:
        snap = memprof.report()
    if compiled is not None:
        compiled.close()

    # Minimum over the steady window: per-step cost is math plus a
    # strictly one-sided noise term (scheduler preemption on a shared
    # single-core box adds time, never removes it), so the fastest
    # observed steady step is the least-contaminated estimate of the
    # per-step cost for both legs alike -- the statistic interval timers
    # like hyperfine report for the same reason.  The window covers the
    # final epoch, past every capture the plan leg pays (two batch
    # signatures from the array_split remainder); the median over the
    # same window is reported alongside for noise visibility.
    window = min(len(batch_data), len(batch_times))
    steady = lambda xs, w: float(np.min(xs[-min(w, len(xs)):]))  # noqa: E731
    steady_med = lambda xs, w: float(  # noqa: E731
        np.median(xs[-min(w, len(xs)):])
    )
    batch_step_ms = steady(batch_times, window)
    return {
        "leg": leg,
        "num_pairs": int(len(pairs)),
        "num_batches": len(batch_data),
        "losses": losses,
        "param_sha256": fingerprint,
        "batch_step_ms": batch_step_ms,
        "batch_step_ms_median": steady_med(batch_times, window),
        "batch_epoch_s": batch_step_ms * len(batch_data) / 1e3,
        "full_step_ms": steady(full_times, 8),
        "full_step_ms_median": steady_med(full_times, 8),
        "plan": snap["plan"],
        "pool": snap["pool"],
        "memprof_text": memprof.format_report(snap),
    }


# Both legs run the default memory plane (pool on, tuned allocator) with
# the allocation profiler on; the only difference is whether the step
# compiler is engaged, so the measured delta is tape construction + Python
# autograd dispatch and nothing else.
LEG_COMPILE_STEP = {"eager": False, "plan": True}
LEG_ENV = {"O2_MEM_PROFILE": "1"}


def spawn_leg(name: str, scale: float, steps: int) -> dict:
    return common.run_bench_leg(
        __file__, name, ["--scale", scale, "--steps", steps], env=LEG_ENV
    )


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument(
        "--leg", choices=sorted(LEG_COMPILE_STEP), help=argparse.SUPPRESS
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()

    if args.leg:
        print(json.dumps(run_leg(args.leg, args.scale, args.steps)))
        return 0

    quick = args.quick
    scale = args.scale if args.scale is not None else (0.3 if quick else 1.0)
    # Full mode runs two epochs so the steady window (the last epoch) sits
    # past both batch-signature captures the plan leg pays in epoch one.
    steps = args.steps if args.steps is not None else (8 if quick else 42)
    # Quick mode runs a tiny city on shared CI runners: the floor only
    # guards against the compiler making things *slower*; the 1.25x
    # acceptance floor (1.5x target) applies to the full-scale run.
    speedup_floor = 1.0 if quick else 1.25
    speedup_target = 1.5

    legs = {name: spawn_leg(name, scale, steps) for name in ("eager", "plan")}
    eager, plan = legs["eager"], legs["plan"]

    identical = (
        eager["losses"] == plan["losses"]
        and eager["param_sha256"] == plan["param_sha256"]
    )
    stats = plan["plan"]
    engaged = (
        stats["captures"] >= 1
        and stats["replays"] >= 1
        and stats["eager_fallbacks"] == 0
    )
    speedup = eager["batch_epoch_s"] / plan["batch_epoch_s"]
    speedup_full = eager["full_step_ms"] / plan["full_step_ms"]

    # The PR floor is defined against the memory-plane bench's pooled
    # baseline (BENCH_memory.json, ``pool`` leg): the step compiler's
    # charter is to win back what is left of *that* epoch.  The live
    # eager leg above is the same configuration re-measured today and is
    # reported alongside for transparency; when BENCH_memory.json is
    # absent (fresh checkout), the live leg doubles as the baseline.
    baseline_epoch_s = eager["batch_epoch_s"]
    baseline_src = "live eager leg"
    mem_json = ROOT / "BENCH_memory.json"
    if not quick and mem_json.exists():
        try:
            mem = json.loads(mem_json.read_text())
            if mem.get("scale") == scale and mem.get("batch_size") == BATCH_SIZE:
                baseline_epoch_s = float(mem["pool"]["batch_epoch_s"])
                baseline_src = "BENCH_memory.json pool leg"
        except (KeyError, TypeError, ValueError):
            pass
    speedup_vs_baseline = baseline_epoch_s / plan["batch_epoch_s"]
    gated_speedup = speedup_vs_baseline if not quick else speedup

    lines = [
        "Step compiler: trace-and-replay plans vs eager pooled training",
        f"mode={'quick' if quick else 'full'}  scale={scale}  "
        f"batch_size={BATCH_SIZE}  pairs={plan['num_pairs']}  "
        f"batches/epoch={plan['num_batches']}  steps={steps}",
        "",
        f"{'leg':<6} {'batch step':>12} {'(median)':>10} "
        f"{'batch epoch':>12} {'full step':>11}",
    ]
    for name in ("eager", "plan"):
        leg = legs[name]
        lines.append(
            f"{name:<6} {leg['batch_step_ms']:>9.2f} ms "
            f"{leg['batch_step_ms_median']:>7.2f} ms "
            f"{leg['batch_epoch_s']:>10.3f} s {leg['full_step_ms']:>8.1f} ms"
        )
    lines += [
        "",
        f"speedup: batched epoch {speedup:.2f}x vs live eager leg, "
        f"full-batch step {speedup_full:.2f}x",
        f"speedup vs pooled baseline ({baseline_src}, "
        f"{baseline_epoch_s:.3f} s/epoch): {speedup_vs_baseline:.2f}x "
        f"(floor {speedup_floor:.2f}x, target {speedup_target:.2f}x)",
        f"plan stats: captures={stats['captures']} replays={stats['replays']} "
        f"eager_fallbacks={stats['eager_fallbacks']} "
        f"evictions={stats['guard_evictions']} "
        f"pinned={stats['pinned_bytes'] / 1e6:.1f} MB",
        f"pool hit rate (plan leg): {plan['pool']['hit_rate']:.3f}",
        f"bit-for-bit identical losses + final params: {identical}",
        "",
        "plan-leg allocation profile:",
        plan["memprof_text"],
        "",
        "eager-leg allocation profile:",
        eager["memprof_text"],
    ]
    text = "\n".join(lines)
    print(text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "compile.txt").write_text(text + "\n")
    payload = {
        "mode": "quick" if quick else "full",
        "scale": scale,
        "batch_size": BATCH_SIZE,
        "steps": steps,
        "floors": {"speedup": speedup_floor, "target": speedup_target},
        "leg_env": LEG_ENV,
        "leg_compile_step": LEG_COMPILE_STEP,
        "eager": {k: v for k, v in eager.items() if k != "memprof_text"},
        "plan": {k: v for k, v in plan.items() if k != "memprof_text"},
        "speedup": {
            "batch_epoch": speedup,
            "full_step": speedup_full,
            "vs_pooled_baseline": speedup_vs_baseline,
            "baseline_src": baseline_src,
            "baseline_epoch_s": baseline_epoch_s,
        },
        "identical": identical,
        "engaged": engaged,
    }
    (ROOT / "BENCH_compile.json").write_text(json.dumps(payload, indent=2) + "\n")

    if not identical:
        print("FAIL: compiled replay diverged from the eager path")
        return 1
    if not engaged:
        print(
            "FAIL: plan leg never engaged "
            f"(captures={stats['captures']} replays={stats['replays']} "
            f"eager_fallbacks={stats['eager_fallbacks']})"
        )
        return 1
    if gated_speedup < speedup_floor:
        print(
            f"FAIL: epoch speedup {gated_speedup:.2f}x "
            f"(vs {baseline_src}) below {speedup_floor:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
