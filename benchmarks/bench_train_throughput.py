"""Training throughput: reference path vs the fast segment-kernel path.

Two layers of measurement on the real-city preset:

1. *Op microbenchmarks* -- the old kernel compositions (``np.add.at`` /
   ``np.maximum.at`` scatters, the ten-node aggregator chain) against their
   replacements (SegmentPlan bincount/reduceat kernels, the fused
   ``edge_message`` / ``segment_attention`` nodes, and the compiled C
   kernels where available), at the benchmark city's S-U edge shape.  They
   run in their own subprocess with one BLAS/OpenMP thread
   (:data:`MICRO_ENV`): on a multi-core host, multi-threaded OpenBLAS on
   these small matmuls dominates the rows and misreports the kernels.
2. *End-to-end epochs* -- each leg runs in a fresh subprocess so allocator
   state and kernel switches cannot leak between them.  The reference leg
   re-creates the pre-optimisation configuration (``set_fast_kernels(False)``
   and the stock allocator: no ``tune_allocator()``); the fast leg is the
   default configuration.  Both report the paper-faithful batched epoch
   (``paper_train_config``'s batch size, cycling real batches to steady
   state) and the full-batch epoch (one step + one evaluation pass).

Usage::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py [--quick]

Writes a human-readable table to ``benchmarks/results/train.txt`` and a
machine-readable summary to ``BENCH_train.json`` at the repo root.  Exits
non-zero when the fast path misses its floor: 3x on the batched epoch in
full mode (the PR's acceptance bar), 1x (i.e. "not slower") in ``--quick``
mode, whose tiny city and short runs are only a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import common

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

BATCH_SIZE = 128  # paper_train_config().batch_size


# ---------------------------------------------------------------------------
# Subprocess leg: one configuration, fresh interpreter.
# ---------------------------------------------------------------------------

def run_leg(leg: str, scale: float, steps: int) -> dict:
    """Measure one configuration (see :data:`LEGS`) in this process."""
    from repro.experiments.harness import build_dataset
    from repro.core.model import O2SiteRec
    from repro.nn import init
    from repro.optim import Adam
    from repro.runtime import tune_allocator
    from repro.tensor import set_fast_kernels

    if leg == "ref":
        set_fast_kernels(False)  # and the stock allocator: no tuning
    else:
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

    first_loss = None
    batch_times = []
    for i in range(steps):
        batch_pairs, batch_targets = batch_data[i % len(batch_data)]
        started = time.perf_counter()
        loss, _, _ = model.loss(batch_pairs, batch_targets)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        batch_times.append((time.perf_counter() - started) * 1e3)
        if first_loss is None:
            first_loss = float(loss.data)
        loss = None  # drop the graph before the next step's allocation burst

    full_steps = max(steps // 2, 3)
    step_times, eval_times = [], []
    for _ in range(full_steps):
        model.train()
        started = time.perf_counter()
        loss, _, _ = model.loss(pairs, targets)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        mid = time.perf_counter()
        loss = None
        model.eval()
        model.predict(pairs)
        done = time.perf_counter()
        step_times.append((mid - started) * 1e3)
        eval_times.append((done - mid) * 1e3)

    steady = lambda xs: float(np.mean(xs[-min(5, len(xs)):]))  # noqa: E731
    batch_step_ms = steady(batch_times)
    full_step_ms = steady(step_times)
    eval_ms = steady(eval_times)
    return {
        "num_pairs": int(len(pairs)),
        "num_batches": len(batch_data),
        "first_batch_loss": first_loss,
        "batch_step_ms": batch_step_ms,
        "batch_epoch_s": batch_step_ms * len(batch_data) / 1e3,
        "full_step_ms": full_step_ms,
        "eval_ms": eval_ms,
        "full_epoch_ms": full_step_ms + eval_ms,
    }


# The reference leg reproduces the pre-optimisation execution: in-tree
# reference kernels and the untouched allocator.  Neither leg builds a
# CompiledStep, so the kernel comparison stays eager-vs-eager;
# bench_compile.py owns the compiled-step story.
LEGS = ("ref", "fast")


def spawn_leg(name: str, scale: float, steps: int) -> dict:
    return common.run_bench_leg(
        __file__, name, ["--scale", scale, "--steps", steps]
    )


MICRO_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def spawn_micro(quick: bool) -> list:
    return common.run_bench_leg(
        __file__, "micro", ["--quick"] if quick else [], env=MICRO_ENV
    )


# ---------------------------------------------------------------------------
# Op microbenchmarks (the ``micro`` leg).
# ---------------------------------------------------------------------------

def _time_ms(fn, reps: int) -> float:
    fn()  # warm up caches / plan construction
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1e3)
    return float(np.median(times))


def micro_benchmarks(quick: bool) -> list:
    """Old kernel compositions vs their fast-path replacements."""
    from repro.tensor import (
        Tensor,
        concat,
        edge_message,
        gather_rows,
        segment_attention,
        segment_softmax,
        segment_sum,
        use_fast_kernels,
    )
    from repro.tensor.segment import get_plan
    from repro.tensor import cnative

    # Benchmark-city S-U shape (scaled down in quick mode).
    rng = np.random.default_rng(0)
    num_edges = 4096 if quick else 34310
    num_nodes = 256 if quick else 1190
    heads, head_dim = 5, 8
    dim = heads * head_dim
    reps = 5 if quick else 20

    ids = np.sort(rng.integers(0, num_nodes, num_edges)).astype(np.int64)
    values = rng.standard_normal((num_edges, dim))
    rows = []

    # 1. Scatter-add: np.add.at vs SegmentPlan bincount/reduceat.
    def scatter_old():
        out = np.zeros((num_nodes, dim))
        np.add.at(out, ids, values)
        return out

    plan = get_plan(ids, num_nodes)
    rows.append(
        ("scatter-add (E,%d)->(N,%d)" % (dim, dim),
         _time_ms(scatter_old, reps), _time_ms(lambda: plan.sum(values), reps))
    )

    # 2. Segment max: np.maximum.at vs the plan's reduceat kernel.
    scores = rng.standard_normal((num_edges, heads))

    def seg_max_old():
        out = np.full((num_nodes, heads), -np.inf)
        np.maximum.at(out, ids, scores)
        return out

    rows.append(
        ("segment-max (E,%d)" % heads,
         _time_ms(seg_max_old, reps), _time_ms(lambda: plan.max(scores), reps))
    )

    # 3. Aggregator prelude: gather+concat+matmul+relu chain vs edge_message.
    src = rng.integers(0, num_nodes, num_edges).astype(np.int64)
    source = Tensor(rng.standard_normal((num_nodes, dim)), requires_grad=True)
    edge_attr = Tensor(rng.standard_normal((num_edges, 26)), requires_grad=True)
    weight = Tensor(rng.standard_normal((dim + 26, dim)) * 0.1, requires_grad=True)
    bias = Tensor(np.zeros(dim), requires_grad=True)
    grad_out = rng.standard_normal((num_edges, dim))

    def prelude_old():
        with use_fast_kernels(False):
            fused_in = concat([gather_rows(source, src), edge_attr], axis=1)
            out = (fused_in @ weight + bias).relu()
            out.backward(grad_out)

    def prelude_new():
        pre = source @ weight[:dim]
        eproj = edge_attr @ weight[dim:]
        out = edge_message(pre, eproj, bias, src)
        out.backward(grad_out)

    rows.append(
        ("aggregator prelude fwd+bwd",
         _time_ms(prelude_old, reps), _time_ms(prelude_new, reps))
    )

    # 4. Segment attention, forward+backward: the ten-node reference chain
    #    vs the fused node (C kernels when available).
    fused_e = Tensor(rng.standard_normal((num_edges, dim)), requires_grad=True)
    key_w = Tensor(rng.standard_normal((dim, dim)) * 0.1, requires_grad=True)
    queries = Tensor(rng.standard_normal((num_nodes, heads, head_dim)), requires_grad=True)
    scale = 1.0 / np.sqrt(head_dim)
    grad_n = rng.standard_normal((num_nodes, dim))

    def attention_old():
        with use_fast_kernels(False):
            keys = (fused_e @ key_w).reshape(num_edges, heads, head_dim)
            q_edge = gather_rows(
                Tensor(queries.data.reshape(num_nodes, dim)), ids
            ).reshape(num_edges, heads, head_dim)
            att = ((keys * q_edge).sum(axis=2) * scale).leaky_relu(0.2)
            w = segment_softmax(att, ids, num_nodes)
            agg = segment_sum(
                (keys * w.expand_dims(2)).reshape(num_edges, dim), ids, num_nodes
            )
            agg.relu().backward(grad_n)

    def attention_new():
        out = segment_attention(fused_e, key_w, queries, ids, num_nodes, scale)
        out.backward(grad_n)

    label = "segment attention fwd+bwd" + (
        " [C]" if cnative.available() else " [numpy]"
    )
    rows.append((label, _time_ms(attention_old, reps), _time_ms(attention_new, reps)))

    return [
        {"name": name, "old_ms": old, "new_ms": new, "speedup": old / new}
        for name, old, new in rows
    ]


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument(
        "--leg", choices=list(LEGS) + ["micro"], help=argparse.SUPPRESS
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()

    if args.leg == "micro":
        print(json.dumps(micro_benchmarks(args.quick)))
        return 0
    if args.leg:
        print(json.dumps(run_leg(args.leg, args.scale, args.steps)))
        return 0

    quick = args.quick
    scale = args.scale if args.scale is not None else (0.3 if quick else 1.0)
    steps = args.steps if args.steps is not None else (6 if quick else 15)
    floor = 1.0 if quick else 3.0

    micro = spawn_micro(quick)
    legs = {name: spawn_leg(name, scale, steps) for name in LEGS}

    loss_delta = abs(
        legs["ref"]["first_batch_loss"] - legs["fast"]["first_batch_loss"]
    )
    speedup_batch = legs["ref"]["batch_epoch_s"] / legs["fast"]["batch_epoch_s"]
    speedup_full = legs["ref"]["full_epoch_ms"] / legs["fast"]["full_epoch_ms"]

    lines = [
        "Training throughput: reference path vs fast path",
        f"mode={'quick' if quick else 'full'}  scale={scale}  "
        f"batch_size={BATCH_SIZE}  pairs={legs['fast']['num_pairs']}  "
        f"batches/epoch={legs['fast']['num_batches']}",
        "",
        "op microbenchmarks (median ms, old vs new; "
        + " ".join(f"{k}={v}" for k, v in MICRO_ENV.items())
        + "):",
    ]
    for row in micro:
        lines.append(
            f"  {row['name']:<38} {row['old_ms']:8.2f} -> {row['new_ms']:7.2f}"
            f"   {row['speedup']:5.1f}x"
        )
    lines.append("")
    lines.append(
        f"{'leg':<6} {'batch step':>12} {'batch epoch':>12} "
        f"{'full step':>11} {'eval':>9} {'full epoch':>11}"
    )
    for name in ("ref", "fast"):
        leg = legs[name]
        lines.append(
            f"{name:<6} {leg['batch_step_ms']:>9.1f} ms {leg['batch_epoch_s']:>10.2f} s"
            f" {leg['full_step_ms']:>8.1f} ms {leg['eval_ms']:>6.1f} ms"
            f" {leg['full_epoch_ms']:>8.1f} ms"
        )
    lines += [
        "",
        f"speedup: batched epoch {speedup_batch:.2f}x, "
        f"full-batch epoch {speedup_full:.2f}x (floor {floor:.1f}x)",
        f"first-step loss delta ref vs fast: {loss_delta:.3e}",
    ]
    text = "\n".join(lines)
    print(text)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "train.txt").write_text(text + "\n")
    payload = {
        "mode": "quick" if quick else "full",
        "scale": scale,
        "batch_size": BATCH_SIZE,
        "floor": floor,
        "ref": legs["ref"],
        "fast": legs["fast"],
        "speedup": {"batch_epoch": speedup_batch, "full_epoch": speedup_full},
        "loss_delta": loss_delta,
        "micro_env": MICRO_ENV,
        "micro": micro,
    }
    (ROOT / "BENCH_train.json").write_text(json.dumps(payload, indent=2) + "\n")

    if loss_delta > 1e-9:
        print(f"FAIL: fast-path loss diverges from reference ({loss_delta:.3e})")
        return 1
    if speedup_batch < floor:
        print(f"FAIL: batched-epoch speedup {speedup_batch:.2f}x below {floor:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
