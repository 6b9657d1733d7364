"""One workload run in a fresh process: ``python3 e2ebench/workloads.py
<workload> --seed N --seconds S --trace 0|1 [--setup-only]``.

``run.py`` starts this process and times set-up from the moment it spawns
it to the ``ready`` timestamp reported here (CLOCK_MONOTONIC is shared by
all processes on Linux).  With ``--setup-only`` the process stops at that
point.  The result is one ``RESULT {json}`` line on stdout.

With ``--trace 1`` the public calls into each layer are wrapped with
spans (see ``tracing.py``); end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import replace

import common
from tracing import Tracer, format_summary, layer_self_times

TRAIN_WRAPS = (
    ("repro.data.cache:cached_dataset", "data.cache.load"),
    ("repro.core.model:O2SiteRec.__init__", "core.model.init"),
    ("repro.graphs.geographic:RegionGeographicalGraph.from_grid", "graphs.geo"),
    ("repro.graphs.mobility:CourierMobilityMultiGraph.from_aggregates", "graphs.mobility"),
    ("repro.core.model:build_hetero_multigraph", "graphs.hetero"),
    ("repro.core.trainer:Trainer.fit", "core.trainer.fit"),
    ("repro.tensor.plan:CompiledStep.step", "tensor.plan.step"),
    ("repro.core.model:O2SiteRec.loss", "core.model.loss"),
    # The eager entry points, and what the compiled step calls in their
    # place: its recorded (capture) and replayed backward, and Adam's
    # in-place update.  A call nested in a same-named span counts once.
    ("repro.tensor.tensor:Tensor.backward", "tensor.backward"),
    ("repro.tensor.plan:_record_backward", "tensor.backward"),
    ("repro.tensor.plan:_replay_backward", "tensor.backward"),
    ("repro.optim.adam:Adam.step", "optim.adam.step"),
    ("repro.optim.adam:Adam._step_inplace", "optim.adam.step"),
    ("repro.core.model:O2SiteRec.predict", "core.model.predict"),
    ("repro.metrics.evaluation:evaluate_model", "metrics.evaluate"),
)
REFRESH_WRAPS = (
    ("repro.city.simulator:metropolis_dataset", "city.simulate"),
    ("repro.data.dataset:SiteRecDataset.from_simulation", "data.dataset"),
    ("repro.data.dataset:SiteRecDataset.split", "data.split"),
    ("repro.serve.snapshot:ModelSnapshot.from_checkpoint", "serve.snapshot.from_checkpoint"),
    ("repro.core.serialize:load_model", "core.serialize.load_model"),
    ("repro.core.model:O2SiteRec.__init__", "core.model.init"),
    ("repro.graphs.geographic:RegionGeographicalGraph.from_grid", "graphs.geo"),
    ("repro.graphs.mobility:CourierMobilityMultiGraph.from_aggregates", "graphs.mobility"),
    ("repro.core.model:build_hetero_multigraph", "graphs.hetero"),
    ("repro.serve.snapshot:ModelSnapshot.from_model", "serve.snapshot.from_model"),
    ("repro.core.shard:propagate_periods_sharded", "core.shard.propagate"),
    ("repro.serve.snapshot:ModelSnapshot.build_index", "serve.index.build"),
    ("repro.serve.snapshot:ModelSnapshot.save", "serve.arena.save"),
    ("repro.serve.snapshot:ModelSnapshot.load", "serve.arena.open"),
)
SERVE_WRAPS = (
    ("repro.serve.workers:WorkerPool.start", "serve.workers.start"),
    ("repro.serve.workers:WorkerPool.reload", "serve.workers.reload"),
    ("repro.serve.snapshot:ModelSnapshot.load", "serve.arena.open"),
)
REFRESH_STAGES = (
    "city.simulate", "data.dataset", "data.split", "serve.snapshot.from_checkpoint",
    "serve.index.build", "serve.arena.save", "serve.arena.open",
)
# Fixed work per run.  The host's speed shifts every few seconds to
# minutes (README.md), so each timed operation is repeated over a stretch
# of the run and reported as wall time per operation over all of it.  An
# epoch of the paper preset takes 4-6 s on 2 vCPUs, so the fit takes about
# 15 s; one evaluation of the test fold takes 0.1-0.2 s, so sixty take
# about 9 s.  A refresh takes 9-15 s (about 35 s for three).  Only
# serve-metropolis scales with --seconds.
EPOCHS = 3
EVALUATIONS = 60
REFRESHES = 3
# The paper preset's test-fold quality after EPOCHS epochs on the code this
# benchmark was written against.  Each train-paper run checks that its
# figures are no more than QUALITY_TOLERANCE worse.
REFERENCE_NDCG3 = 0.5824
REFERENCE_RMSE = 0.1208
QUALITY_TOLERANCE = 0.05


class Run:
    """State shared by the three workloads: timing, tracing, checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.tracer = Tracer() if args.trace else None
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.e2e = {}
        self.layers = {}
        self.info = {}

    def import_repro(self, wraps) -> None:
        started = time.monotonic()
        import repro  # noqa: F401

        self.layers["repro.import_s"] = time.monotonic() - started
        if self.tracer is not None:
            for target, name in wraps:
                self.tracer.wrap(target, name)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext(-1)
        return self.tracer.span(name)

    def check(self, name: str, ok: bool, detail="", weight: int = 1) -> None:
        """Record one output check; a failed check fails ``weight`` ops."""
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += weight
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    def finish(self, ready: float, basis_s: float, steal) -> None:
        """Emit the result; ``basis_s`` is the timed quantity the tracing
        overhead is computed on (traced minus untraced)."""
        payload = {
            "ready": ready,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "e2e": self.e2e,
            "layers": self.layers,
            "basis_s": basis_s,
            "steal": steal,
            "info": self.info,
        }
        payload["host"] = common.host_block()
        if self.tracer is not None:
            summary = self.tracer.summary()
            print(format_summary(summary), file=sys.stderr)
            payload["trace"] = {
                "spans": len(self.tracer.spans),
                "self_s_by_layer": layer_self_times(summary),
            }
        common.emit(payload)


def _total(tracer: Tracer, names) -> float:
    summary = tracer.summary()
    return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)


def _mean_ms(values) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def _percentiles(values) -> list:
    """The 1st to 99th percentiles; index 49 is the median."""
    return statistics.quantiles(values, n=100, method="inclusive")


# ----------------------------------------------------------------------
def train_paper(args) -> int:
    run = Run(args)
    run.import_repro(TRAIN_WRAPS)
    import numpy as np
    import repro

    with run.span("bench.setup"):
        dataset, split = repro.data.cache.cached_dataset(*common.PAPER_PRESET)
        repro.nn.init.seed(common.MODEL_INIT_SEED)
        model = repro.core.model.O2SiteRec(dataset, split)
    ready = time.monotonic()
    if args.setup_only:
        common.emit({"ready": ready})
        return 0

    from repro.tensor import plan
    from repro.tensor.pool import global_pool

    config = replace(
        repro.core.trainer.paper_train_config(),
        epochs=EPOCHS, min_epochs=EPOCHS, patience=EPOCHS,  # no early stop
    )
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    fit_pairs = len(pairs) - max(int(len(pairs) * config.validation_frac), 1)
    steps_per_epoch = math.ceil(fit_pairs / config.batch_size)
    plan.reset_stats()
    global_pool().reset_stats()
    steps = EPOCHS * steps_per_epoch
    run.attempted = steps + EVALUATIONS

    steal0 = common.cpu_times()
    started = time.monotonic()
    with run.span("bench.fit"):
        result = repro.core.trainer.Trainer(model, config).fit(pairs, targets)
    fit_s = time.monotonic() - started
    evaluations, evaluate_s = [], []
    with run.span("bench.evaluate"):
        for _ in range(EVALUATIONS):
            started = time.monotonic()
            evaluations.append(repro.metrics.evaluation.evaluate_model(
                model, dataset, split, top_n_frac=0.35
            ))
            evaluate_s.append(time.monotonic() - started)
    steal = common.steal_share(steal0, common.cpu_times())

    for epoch, loss in enumerate(result.train_losses):
        run.check(f"epoch {epoch + 1} loss finite", np.isfinite(loss), loss, steps_per_epoch)
    run.check("all epochs ran", len(result.train_losses) == EPOCHS, len(result.train_losses))
    quality = [(float(e["NDCG@3"]), float(e["RMSE"])) for e in evaluations]
    ndcg3, rmse = quality[0]
    run.check("evaluation finite", 0.0 < ndcg3 <= 1.0 and math.isfinite(rmse) and rmse > 0,
              {"ndcg3": ndcg3, "rmse": rmse})
    run.check("every evaluation gives the same figures", len(set(quality)) == 1,
              sorted(set(quality)), EVALUATIONS)
    run.check(f"quality within {QUALITY_TOLERANCE:.0%} of the reference",
              ndcg3 >= REFERENCE_NDCG3 * (1 - QUALITY_TOLERANCE)
              and rmse <= REFERENCE_RMSE * (1 + QUALITY_TOLERANCE),
              {"ndcg3": ndcg3, "rmse": rmse,
               "reference": {"ndcg3": REFERENCE_NDCG3, "rmse": REFERENCE_RMSE}})
    stats = plan.plan_stats()
    pool = global_pool().stats()
    run.info = {"epochs": EPOCHS, "fit_pairs": fit_pairs, "fit_s": fit_s,
                "train_pairs_per_s": EPOCHS * fit_pairs / fit_s,
                "ndcg3": ndcg3, "rmse": rmse, "evaluate_s": evaluate_s,
                "plan_stats": stats, "train_losses": result.train_losses}
    print(f"plan_stats {stats}", file=sys.stderr)

    run.e2e = {
        "primary_ms": 1e3 * fit_s / steps,
        "secondary_ms": 1e3 * sum(evaluate_s) / EVALUATIONS,
        "peak_rss_mb": common.vm_hwm_mb(),
    }
    run.layers.update({
        "metrics.ndcg3": ndcg3,
        "metrics.rmse": rmse,
        "tensor.plan.captures": stats["captures"],
        "tensor.plan.replays": stats["replays"],
        "tensor.plan.eager_fallbacks": stats["eager_fallbacks"],
        "tensor.pool.hit_rate": pool["hit_rate"],
        "tensor.pool.peak_live_mb": pool["peak_live_bytes"] / 2**20,
    })
    if run.tracer is not None:
        t = run.tracer
        in_fit = t.within("core.trainer.fit")
        run.layers.update({
            "data.cache.load_s": _total(t, ["data.cache.load"]),
            "core.model.init_s": _total(t, ["core.model.init"]),
            "graphs.build_s": _total(t, ["graphs.geo", "graphs.mobility", "graphs.hetero"]),
            "tensor.plan.step_ms": _mean_ms(t.durations("tensor.plan.step")),
            "core.model.loss_ms": _mean_ms(t.durations("core.model.loss", in_fit)),
            "tensor.backward_ms": _mean_ms(t.durations("tensor.backward", in_fit)),
            "optim.adam.step_ms": _mean_ms(t.durations("optim.adam.step", in_fit)),
            "core.model.predict_ms": _mean_ms(t.durations("core.model.predict", in_fit)),
            "metrics.evaluate_ms": _mean_ms(t.durations("metrics.evaluate")),
        })
    run.finish(ready, fit_s, steal)
    return 0


# ----------------------------------------------------------------------
def _refresh_once(run: Run, checkpoint, arena_path, split_seed: int) -> dict:
    """One ingest + publish, with its output checks."""
    import numpy as np
    import repro
    from repro.core import shard

    ModelSnapshot = repro.serve.snapshot.ModelSnapshot
    run.attempted += len(REFRESH_STAGES)
    started = time.monotonic()
    with run.span("bench.ingest"):
        sim = repro.city.simulator.metropolis_dataset(
            seed=common.METRO_CITY_SEED, scale=common.METRO_SCALE
        )
        dataset = repro.data.dataset.SiteRecDataset.from_simulation(sim)
        split = dataset.split(seed=split_seed)
    ingest_s = time.monotonic() - started
    started = time.monotonic()
    with run.span("bench.publish"):
        snapshot = ModelSnapshot.from_checkpoint(checkpoint, dataset, split)
        gate = shard.shard_gate_reason()
        index = snapshot.build_index()
        path = snapshot.save(arena_path, format="arena")
        reopened = ModelSnapshot.load(path)
    publish_s = time.monotonic() - started

    num_orders = len(sim.orders)
    run.check("simulate: orders generated", num_orders > 0, num_orders)
    run.check("dataset: 14 store types", dataset.num_types == 14, dataset.num_types)
    run.check("split: train pairs", len(split.train_pairs) > 0, len(split.train_pairs))
    run.check("from_checkpoint: banded eval engaged", gate.startswith("engaged"), gate)
    recalls = [reopened.index.recall_against_full_scan(t, k=10)
               for t in range(reopened.num_types)]
    run.check("build_index: recall@10 == 1.0 for every type",
              all(r == 1.0 for r in recalls), recalls)
    arena_bytes = path.stat().st_size
    run.check("save: arena written", arena_bytes > 0, arena_bytes)
    probe = np.stack([snapshot.store_regions,
                      np.arange(len(snapshot.store_regions)) % snapshot.num_types], axis=1)
    same = (reopened.snapshot_id == snapshot.snapshot_id
            and np.array_equal(reopened.predict(probe), snapshot.predict(probe)))
    run.check("load: same snapshot_id and scores", same,
              [reopened.snapshot_id, snapshot.snapshot_id])
    return {"ingest_s": ingest_s, "publish_s": publish_s, "gate": gate,
            "orders": num_orders, "partitions": index.num_partitions,
            "arena_bytes": arena_bytes}


def refresh_metropolis(args) -> int:
    """``REFRESHES`` refreshes; the phase times are means over them,
    peak RSS is read after the first."""
    run = Run(args)
    run.import_repro(REFRESH_WRAPS)
    import repro

    checkpoint = common.WORK / "metro.ckpt.npz"
    if not checkpoint.is_file():
        raise SystemExit(f"missing prepared checkpoint {checkpoint}")
    ready = time.monotonic()
    if args.setup_only:
        common.emit({"ready": ready})
        return 0

    out_dir = common.WORK / "runs" / f"refresh-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    steal0 = common.cpu_times()
    try:
        for _ in range(REFRESHES):
            samples.append(_refresh_once(run, checkpoint, out_dir / "refresh.arena", args.seed))
            if len(samples) == 1:
                peak_rss = common.vm_hwm_mb()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    steal = common.steal_share(steal0, common.cpu_times())
    gate = samples[0]["gate"]
    print(f"shard gate (eval): {gate}", file=sys.stderr)
    print(f"shard gate (train): {repro.core.shard.shard_train_gate_reason()}", file=sys.stderr)

    ingest_s = statistics.fmean(s["ingest_s"] for s in samples)
    publish_s = statistics.fmean(s["publish_s"] for s in samples)
    run.e2e = {"primary_ms": 1e3 * (ingest_s + publish_s), "secondary_ms": 1e3 * publish_s,
               "peak_rss_mb": peak_rss}
    bands = gate.split("engaged: ")[-1].split(" ")[0]
    run.layers.update({
        "core.shard.bands": int(bands) if bands.isdigit() else 0,
        "serve.index.partitions": samples[0]["partitions"],
        "serve.arena.mb": samples[0]["arena_bytes"] / 2**20,
    })
    run.info = {"refreshes": len(samples), "gate": gate,
                "train_gate": repro.core.shard.shard_train_gate_reason(),
                "split_seed": args.seed,
                "samples": [{k: s[k] for k in ("ingest_s", "publish_s", "orders")}
                            for s in samples]}
    if run.tracer is not None:
        # Per refresh: span totals over all refreshes / their count.
        t, n = run.tracer, len(samples)
        phases = sum(s["ingest_s"] + s["publish_s"] for s in samples)
        simulate_s = _total(t, ["city.simulate"]) / n
        stages = _total(t, REFRESH_STAGES)
        run.layers.update({
            "city.simulate_s": simulate_s,
            "city.orders_per_s": samples[0]["orders"] / simulate_s,
            "data.dataset_s": _total(t, ["data.dataset"]) / n,
            "data.split_s": _total(t, ["data.split"]) / n,
            "core.model.init_s": _total(t, ["core.model.init"]) / n,
            "graphs.build_s": _total(t, ["graphs.geo", "graphs.mobility", "graphs.hetero"]) / n,
            "core.shard.propagate_s": _total(t, ["core.shard.propagate"]) / n,
            "serve.index.build_s": _total(t, ["serve.index.build"]) / n,
            "serve.arena.save_s": _total(t, ["serve.arena.save"]) / n,
            "serve.arena.open_ms": 1e3 * _total(t, ["serve.arena.open"]) / n,
            "refresh.unaccounted_s": (phases - stages) / n,
        })
        print(f"stages {stages:.4f}s of ingest+publish {phases:.4f}s over {n} refreshes; "
              f"remainder {phases - stages:.4f}s", file=sys.stderr)
    run.finish(ready, ingest_s + publish_s, steal)
    return 0


# ----------------------------------------------------------------------
def serve_metropolis(args) -> int:
    run = Run(args)
    run.import_repro(SERVE_WRAPS)
    import repro

    work = common.WORK
    run_dir = work / "runs" / f"serve-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = run_dir / "manifest.json"
    arenas = {"A": str(work / "A.arena"), "B": str(work / "B.arena")}
    repro.serve.workers.write_manifest(manifest, arenas["A"], version=1)
    # Fork the worker first, before this process starts any thread.
    pool = repro.serve.workers.WorkerPool(
        arenas["A"], procs=1, manifest_path=manifest
    )
    try:
        with run.span("bench.setup"):
            pool.start()
        return _serve_with(run, pool, arenas)
    finally:
        pool.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _serve_with(run: Run, pool, arenas) -> int:
    import http.client

    import numpy as np

    import loadgen
    import repro

    args = run.args
    k = common.SERVE_K
    conn = http.client.HTTPConnection(pool.host, pool.port, timeout=30)
    try:
        conn.request("GET", f"/recommend?type=0&k={k}")
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    ready = time.monotonic()  # set-up ends here if this answer checks out
    expect = np.load(common.WORK / "expect.npz")
    candidates = expect["candidates"]
    sheets = {"A": expect["sheet_A"], "B": expect["sheet_B"]}
    # Type 0, no exclusions: a shortlist of every servable region.
    probe = loadgen.Request(-1, 0.0, loadgen.SHORTLIST_CLASS, 0, np.arange(len(candidates)))
    first_ok = response.status == 200 and loadgen.answer_matches(
        body, loadgen.expected_answer(sheets["A"], candidates, probe, k))
    if not first_ok:
        raise SystemExit(f"first response from the worker is wrong: {body[:200]!r}")
    if args.setup_only:
        common.emit({"ready": ready})
        return 0

    schedule = loadgen.make_schedule(args.seed, args.seconds, candidates,
                                     sheets["A"].shape[0], k)
    expectations = {
        r.index: [loadgen.expected_answer(sheets[a], candidates, r, k) for a in "AB"]
        for r in schedule
    }
    worker_pid = pool.pids[0]
    swaps = [(args.seconds * i / 4, arenas["B" if i % 2 else "A"]) for i in (1, 2, 3)]
    before = pool.stats()
    cpu0 = common.proc_cpu_s(worker_pid)
    steal0 = common.cpu_times()
    start = time.monotonic() + 0.05
    with run.span("bench.serve") as phase:
        records = loadgen.run_open_loop(
            pool.host, pool.port, schedule, start,
            actions=[(offset, (lambda p=path: pool.reload(p))) for offset, path in swaps],
        )
    phase_s = time.monotonic() - start
    steal = common.steal_share(steal0, common.cpu_times())
    cpu1 = common.proc_cpu_s(worker_pid)
    deadline = time.monotonic() + 5.0  # the manifest is polled every 0.25 s
    while (pool.stats()["counters"]["reloads"] - before["counters"]["reloads"] < len(swaps)
           and time.monotonic() < deadline):
        time.sleep(0.05)
    after = pool.stats()
    peak_rss = common.vm_hwm_mb(worker_pid)

    ok = loadgen.check_records(records, expectations)
    run.attempted = len(records)
    wrong = [r.index for r, good in zip(records, ok) if not good]
    run.check("every response equals A's or B's expected answer", not wrong,
              {"failed": len(wrong), "first": wrong[:5]}, weight=len(wrong))
    delta = {n: after["counters"][n] - before["counters"][n] for n in after["counters"]}
    run.check("reloads == swaps issued", delta["reloads"] == len(swaps),
              {"reloads": delta["reloads"], "swaps": len(swaps)})
    if run.tracer is not None:
        for r in records:
            run.tracer.add(f"serve.request.{r.cls}", r.sent, r.done, phase)

    lat = loadgen.latencies_ms(records, ok)
    p50 = common.per_class_median(lat)
    all_ms = [ms for _, ms in lat]
    late_ms = [(r.sent - r.due) * 1e3 for r in records]
    late = _percentiles(late_ms)
    client_ms = [(r.done - r.sent) * 1e3 for r, good in zip(records, ok) if good]

    def stage_mean_ms(stage):
        b = before["latency"].get(stage, {"count": 0, "mean_ms": 0.0})
        a = after["latency"].get(stage, {"count": 0, "mean_ms": 0.0})
        n = a["count"] - b["count"]
        return (a["mean_ms"] * a["count"] - b["mean_ms"] * b["count"]) / n if n else 0.0

    lookups = delta["cache_hits"] + delta["cache_misses"]
    total_ms = stage_mean_ms("total")
    run.e2e = {
        "primary_ms": p50[loadgen.CITYWIDE],
        "secondary_ms": p50[loadgen.SHORTLIST_CLASS],
        "peak_rss_mb": peak_rss,
    }
    run.layers.update({
        "serve.service.total_ms": total_ms,
        "serve.index.retrieve_ms": stage_mean_ms("retrieve"),
        "serve.cache.hit_rate": delta["cache_hits"] / lookups if lookups else 0.0,
        "serve.batching.queue_ms": stage_mean_ms("queue"),
        "serve.batching.score_ms": stage_mean_ms("score"),
        "serve.batching.requests_per_batch":
            delta["batched_requests"] / delta["batches"] if delta["batches"] else 0.0,
        "serve.protocol.overhead_ms": common.mean(client_ms) - total_ms,
        "serve.workers.cpu_ms_per_request": 1e3 * (cpu1 - cpu0) / len(records),
        "serve.workers.reloads": delta["reloads"],
        "serve.tail_p99_ms": _percentiles(all_ms)[98],
        "loadgen.late_p99_ms": late[98],
    })
    run.info = {
        "requests": len(records),
        "per_class": {c: sum(1 for r in records if r.cls == c)
                      for c in (loadgen.CITYWIDE, loadgen.SHORTLIST_CLASS)},
        "swaps": len(swaps),
        "loadgen_late_ms": {"p50": late[49], "p99": late[98], "max": max(late_ms)},
        "client_mean_ms": common.mean(client_ms),
        "worker_cpu_share": (cpu1 - cpu0) / phase_s,
    }
    if run.tracer is not None:
        opens = []
        for _ in range(5):
            started = time.monotonic()
            repro.serve.snapshot.ModelSnapshot.load(arenas["A"])
            opens.append((time.monotonic() - started) * 1e3)
        run.layers["serve.arena.open_ms"] = sorted(opens)[2]
    run.finish(ready, common.mean(client_ms) / 1e3, steal)
    return 0


WORKLOADS = {
    "train-paper": train_paper,
    "refresh-metropolis": refresh_metropolis,
    "serve-metropolis": serve_metropolis,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    return WORKLOADS[args.workload](args)


if __name__ == "__main__":
    sys.exit(main())
