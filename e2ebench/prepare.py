"""Untimed prepare step: build every input the workloads read.

Run by ``run.py`` once per checkout (and again whenever the program's or
the benchmark's sources change), always with the code under test, so a
change to the cache, checkpoint or snapshot format is measured rather than
hidden by a stale artifact.  Everything goes under ``e2ebench/.work``:

* ``pipeline/`` -- a benchmark-owned ``O2_PIPELINE_CACHE``, warmed with the
  paper preset and the metropolis preset at scale 0.7;
* ``tmp/`` -- ``TMPDIR``, where the C kernels compile once;
* ``metro.ckpt.npz`` -- a metropolis-0.7 checkpoint at a fixed init seed;
* ``A.arena`` / ``B.arena`` -- indexed snapshots from two init seeds (A is
  the checkpoint's model);
* ``expect.npz`` -- full-scan scores of every servable region for every
  store type under A and B, from which each run derives the expected
  answer to each request of its seeded schedule.
"""

from __future__ import annotations

import json
import sys
import time

import common


def _sheet(snapshot, candidates):
    import numpy as np

    return np.stack(
        [snapshot.score_candidates(t, candidates) for t in range(snapshot.num_types)]
    )


def main() -> int:
    import numpy as np

    import repro
    from repro.core import O2SiteRec, save_model
    from repro.data.cache import cached_dataset
    from repro.nn import init
    from repro.serve.snapshot import ModelSnapshot
    from repro.tensor import cnative

    work = common.WORK
    timings = {}
    started = time.monotonic()
    timings["c_kernels"] = cnative.available()
    cached_dataset(*common.PAPER_PRESET)
    dataset, split = cached_dataset("metropolis", 0, common.METRO_SCALE)
    timings["datasets_s"] = time.monotonic() - started

    paths = {"A": work / "A.arena", "B": work / "B.arena"}
    for name, seed in (("A", common.MODEL_INIT_SEED), ("B", common.ARENA_B_INIT_SEED)):
        t = time.monotonic()
        init.seed(seed)
        model = O2SiteRec(dataset, split)
        if name == "A":
            save_model(model, work / "metro.ckpt.npz")
        snapshot = ModelSnapshot.from_model(model)
        snapshot.build_index()
        snapshot.save(paths[name], format="arena")
        timings[f"arena_{name}_s"] = time.monotonic() - t
        del model, snapshot

    arena_a = ModelSnapshot.load(paths["A"])
    arena_b = ModelSnapshot.load(paths["B"])
    candidates = arena_a.candidate_regions()
    if not np.array_equal(candidates, arena_b.candidate_regions()):
        raise SystemExit("arenas A and B serve different region sets")
    if arena_a.snapshot_id == arena_b.snapshot_id:
        raise SystemExit("arenas A and B are the same snapshot")
    np.savez(
        work / "expect.npz",
        candidates=candidates,
        sheet_A=_sheet(arena_a, candidates),
        sheet_B=_sheet(arena_b, candidates),
    )
    info = {
        "A": {"path": str(paths["A"]), "snapshot_id": arena_a.snapshot_id},
        "B": {"path": str(paths["B"]), "snapshot_id": arena_b.snapshot_id},
        "num_types": arena_a.num_types,
        "servable_regions": int(len(candidates)),
        "index": arena_a.index.meta_payload() if arena_a.index is not None else None,
        "timings": timings,
        "total_s": time.monotonic() - started,
        "repro": repro.__version__,
    }
    print(json.dumps(info), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
