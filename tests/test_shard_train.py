"""Banded training (``repro.core.shard``): bit-identity.

Training raises the banded engine's eval contract: not just forward values
but **loss curves and every parameter byte** must match the dense step
(``use_shard_tiles(0)``) -- across band counts, kernel backends and the
buffer-pool ablation, and with process fan-out switched on, which the
in-process sweep must ignore -- because the banded backward re-derives the
dense gradients from per-band recomputation plus block-deterministic
reductions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import parallel
from repro.core import shard
from repro.core.model import O2SiteRec
from repro.core.trainer import TrainConfig, Trainer
from repro.nn import init
from repro.nn.attention import FactoredEdgeAttr, MultiHeadSegmentAttention
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, cnative, pool
from repro.tensor import memprof
from repro.tensor import plan as _plan
from repro.tensor.segment import SegmentPlan, plan_cache_info


@pytest.fixture(autouse=True)
def _restore_toggles():
    """Every test leaves the global shard/pool/kernel state untouched."""
    prev_tiles = shard.set_shard_tiles(None)
    shard.set_shard_tiles(prev_tiles)
    prev_procs = parallel.set_num_procs(None)
    parallel.set_num_procs(prev_procs)
    prev_c = cnative.set_c_kernels(True)
    cnative.set_c_kernels(prev_c)
    prev_pool = pool.set_buffer_pool(True)
    pool.set_buffer_pool(prev_pool)
    yield
    shard.set_shard_tiles(prev_tiles)
    parallel.set_num_procs(prev_procs)
    cnative.set_c_kernels(prev_c)
    pool.set_buffer_pool(prev_pool)


def _params_sha(model) -> str:
    digest = hashlib.sha256()
    for param in model.parameters():
        digest.update(param.data.tobytes())
    return digest.hexdigest()


def _fit_fingerprint(dataset, split, pairs, targets, *, tiles=3, procs=0,
                     compile_step=False):
    init.seed(0)
    prev = parallel.set_num_procs(procs)
    try:
        model = O2SiteRec(dataset, split=split)
        trainer = Trainer(
            model,
            TrainConfig(epochs=2, min_epochs=1, seed=0,
                        compile_step=compile_step),
        )
        with shard.use_shard_tiles(tiles):
            result = trainer.fit(pairs, targets)
    finally:
        parallel.set_num_procs(prev)
    return result.train_losses, result.validation_losses, _params_sha(model)


# ---------------------------------------------------------------------------
# Whole-fit bit-identity (the tentpole contract).
# ---------------------------------------------------------------------------


def test_banded_training_fit_bitwise(dataset, split):
    """Dense vs banded fits: loss curves and parameter bytes, float-exact.

    The dense leg runs every step and eval pass under
    ``use_shard_tiles(0)``; the
    banded leg is checked at two band counts.
    """
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    reference = _fit_fingerprint(dataset, split, pairs, targets, tiles=0)

    shard.reset_shard_train_stats()
    banded = _fit_fingerprint(dataset, split, pairs, targets)
    stats = shard.shard_train_stats()
    assert stats["steps"] > 0, "training gate did not engage"
    assert stats["evals"] > 0, "eval gate did not engage"
    assert stats["nodes"] > 0 and stats["bands"] > 0
    assert banded == reference

    # Non-divisible band count.
    assert _fit_fingerprint(dataset, split, pairs, targets,
                            tiles=5) == reference


def test_band_sweep_never_forks(dataset, split, monkeypatch):
    """With process fan-out on, a banded fit still runs in-process.

    ``O2_NUM_PROCS`` reaches harness cells and order tiles only: the band
    sweep must start no pool, and the fit must keep the dense bytes.
    """
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    reference = _fit_fingerprint(dataset, split, pairs, targets, tiles=0)

    def no_pool(*args, **kwargs):
        raise AssertionError("the band sweep started a process pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    shard.reset_shard_train_stats()
    banded = _fit_fingerprint(dataset, split, pairs, targets, procs=2)
    stats = shard.shard_train_stats()
    assert stats["steps"] > 0 and stats["evals"] > 0
    assert banded == reference


@pytest.mark.skipif(not cnative.available(), reason="C kernels not built")
def test_banded_training_fit_bitwise_reference_kernels(dataset, split):
    """The numpy-kernel ablation holds the same contract."""
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    cnative.set_c_kernels(False)
    reference = _fit_fingerprint(dataset, split, pairs, targets, tiles=0)
    assert _fit_fingerprint(dataset, split, pairs, targets) == reference


def test_banded_training_fit_bitwise_pool_off(dataset, split):
    """The buffer pool is value-transparent under banded training too."""
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    reference = _fit_fingerprint(dataset, split, pairs, targets, tiles=0)
    pool.set_buffer_pool(False)
    assert _fit_fingerprint(dataset, split, pairs, targets) == reference


def test_single_step_all_param_grads_bitwise(dataset, split):
    """One step, gradient by gradient -- localises any backward drift."""
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)

    def one_step(banded):
        init.seed(0)
        model = O2SiteRec(dataset, split=split)
        model.train()
        prev_tiles = shard.set_shard_tiles(3 if banded else 0)
        opt = Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
        try:
            opt.zero_grad()
            loss, _, _ = model.loss(pairs, targets)
            loss.backward(free_graph=True)
        finally:
            shard.set_shard_tiles(prev_tiles)
        grads = [
            None if p.grad is None else p.grad.copy()
            for p in model.parameters()
        ]
        return float(loss.data), grads

    loss_ref, grads_ref = one_step(False)
    loss_band, grads_band = one_step(True)
    assert loss_band == loss_ref
    assert len(grads_band) == len(grads_ref)
    for i, (a, b) in enumerate(zip(grads_ref, grads_band)):
        if a is None:
            assert b is None, f"param {i}: banded grew a gradient"
        else:
            assert b is not None, f"param {i}: banded lost its gradient"
            assert np.array_equal(a, b), f"param {i}: gradient bytes differ"


# ---------------------------------------------------------------------------
# Synthetic multi-block relation: degenerate partitions, forward + backward.
# ---------------------------------------------------------------------------


def _synthetic_relation(seed=0, factored=False):
    """A destination-sorted relation spanning >2 MATMUL_BLOCK blocks, with
    a destination hole so interior bands can be genuinely empty."""
    rng = np.random.default_rng(seed)
    num_targets, num_sources = 60, 17
    dst = np.sort(rng.integers(0, num_targets, 9500))
    dst = dst[(dst < 20) | (dst >= 30)]  # no edges into targets [20, 30)
    num_edges = len(dst)
    src = rng.integers(0, num_sources, num_edges).astype(np.int64)
    init.seed(seed + 1)
    agg = MultiHeadSegmentAttention(
        query_dim=8, source_dim=8, edge_dim=4, num_heads=2, head_dim=4
    )
    target = Tensor(rng.normal(size=(num_targets, 8)), requires_grad=True)
    source = Tensor(rng.normal(size=(num_sources, 8)), requires_grad=True)
    if factored:
        static = Tensor(rng.normal(size=(num_edges, 2)))
        values = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
        index = rng.integers(0, 12, num_edges).astype(np.int64)
        attr = FactoredEdgeAttr(static, [(values, index)])
    else:
        attr = Tensor(rng.normal(size=(num_edges, 4)))
    return agg, target, source, attr, dst, src


def _run_reference(agg, target, source, attr, dst, src):
    for p in agg.parameters():
        p.grad = None
    target.grad = source.grad = None
    out = agg(target, source, src, dst, attr)
    out.sum().backward(free_graph=True)
    return out.data.copy(), [
        None if p.grad is None else p.grad.copy() for p in agg.parameters()
    ], target.grad.copy(), source.grad.copy()


def _run_banded(agg, target, source, attr, dst, src, cuts):
    for p in agg.parameters():
        p.grad = None
    target.grad = source.grad = None
    bands = shard._band_table({}, dst, np.asarray(cuts, dtype=np.int64))
    prelude = shard._build_prelude(agg, target, source, attr)
    spec = {"dst": dst, "src": src, "prelude": prelude}
    value = shard._serial_values(spec, bands, agg)
    out = shard._banded_attention(agg, dst, src, bands, prelude, value)
    out.sum().backward(free_graph=True)
    return out.data.copy(), [
        None if p.grad is None else p.grad.copy() for p in agg.parameters()
    ], target.grad.copy(), source.grad.copy()


@pytest.mark.parametrize("factored", [False, True])
@pytest.mark.parametrize(
    "cuts_name", ["one_band", "empty_interior", "per_target"]
)
def test_synthetic_multiblock_degenerate_partitions(cuts_name, factored):
    agg, target, source, attr, dst, src = _synthetic_relation(
        factored=factored
    )
    num_targets = target.shape[0]
    cuts = {
        # 1 tile: the banded machinery over a single full-range band.
        "one_band": [0, num_targets],
        # Interior bands with zero edges (the [20, 30) destination hole),
        # including one fully inside the hole.
        "empty_interior": [0, 12, 20, 24, 30, 47, num_targets],
        # tiles >= regions: one band per destination row (single-row halos).
        "per_target": list(range(num_targets + 1)),
    }[cuts_name]
    ref_val, ref_grads, ref_gt, ref_gs = _run_reference(
        agg, target, source, attr, dst, src
    )
    band_val, band_grads, band_gt, band_gs = _run_banded(
        agg, target, source, attr, dst, src, cuts
    )
    assert band_val.tobytes() == ref_val.tobytes()
    assert np.array_equal(band_gt, ref_gt)
    assert np.array_equal(band_gs, ref_gs)
    for i, (a, b) in enumerate(zip(ref_grads, band_grads)):
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b), f"agg param {i} gradient differs"


@pytest.mark.skipif(not cnative.available(), reason="C kernels not built")
def test_synthetic_multiblock_reference_kernels():
    cnative.set_c_kernels(False)
    agg, target, source, attr, dst, src = _synthetic_relation()
    ref = _run_reference(agg, target, source, attr, dst, src)
    band = _run_banded(
        agg, target, source, attr, dst, src, [0, 12, 20, 24, 30, 47, 60]
    )
    assert band[0].tobytes() == ref[0].tobytes()
    assert np.array_equal(band[2], ref[2])
    assert np.array_equal(band[3], ref[3])
    for a, b in zip(ref[1], band[1]):
        assert (a is None and b is None) or np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Gates and reasons.
# ---------------------------------------------------------------------------


def test_train_gate_declines_without_recommender():
    # Baseline models carry no recommender attribute; the Trainer guard
    # passes None and the gate must decline instead of raising.
    assert shard.shard_tiles_for(None) == 0
    assert "no recommender" in shard.shard_train_gate_reason()


def test_train_gate_reasons(dataset):
    model = O2SiteRec(dataset)
    rec = model.recommender
    model.train()

    shard.set_shard_tiles(0)
    assert shard.shard_tiles_for(rec) == 0
    assert "disabled" in shard.shard_train_gate_reason()

    shard.set_shard_tiles(3)
    tiles = shard.shard_tiles_for(rec)
    rows = rec.grid_shape[0]
    assert tiles == min(3, rows) and tiles > 1
    assert "engaged" in shard.shard_train_gate_reason()

    # Auto threshold: the tiny grid sits far below 4096 regions.
    shard.set_shard_tiles(None)
    assert shard.shard_tiles_for(rec) == 0
    assert "4096-region auto threshold" in shard.shard_train_gate_reason()

    # Eval-side reason is recorded independently.
    model.eval()
    shard.set_shard_tiles(3)
    assert shard.shard_tiles_for(rec) > 1
    assert "engaged" in shard.shard_gate_reason()
    assert "4096-region auto threshold" in shard.shard_train_gate_reason()


# ---------------------------------------------------------------------------
# Compiled-step interplay: poison, count, guard flip.  Never a silent
# double-path.
# ---------------------------------------------------------------------------


def _compiled_step(model, opt, guard_fn=None):
    return _plan.CompiledStep(
        loss_fn=lambda p, t: model.loss(p, t)[0],
        parameters=model.parameters(),
        optimizer=opt,
        clip_fn=lambda: clip_grad_norm(model.parameters(), 5.0),
        guard_fn=guard_fn,
    )


def test_compiled_step_poisons_banded_capture(dataset, split):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    shard.set_shard_tiles(3)
    opt = Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
    cs = _compiled_step(model, opt)
    _plan.reset_stats()
    try:
        loss = cs.step(pairs, targets)
        # The capture was poisoned but the step ran (eagerly, once): a real
        # loss comes back and no plan is cached.
        assert loss is not None
        stats = cs.stats()
        assert stats["plans"] == 0
        assert stats["failed_signatures"] == 1
        assert stats["shard_fallbacks"] == 1
        # Subsequent steps skip capture for this signature entirely.
        assert cs.step(pairs, targets) is None
        assert cs.stats()["shard_fallbacks"] == 1
    finally:
        cs.close()


def test_compiled_step_guard_flip_recaptures(dataset, split):
    """Flipping the training gate mid-fit must evict the dense plan."""
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    shard.set_shard_tiles(0)
    opt = Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
    cs = _compiled_step(
        model,
        opt,
        guard_fn=lambda: (
            model.training,
            bool(shard.shard_tiles_for(model.recommender)),
        ),
    )
    _plan.reset_stats()
    try:
        assert cs.step(pairs, targets) is not None  # dense: captures a plan
        assert cs.stats()["plans"] == 1
        shard.set_shard_tiles(3)  # gate flips on under the same plan
        assert cs.step(pairs, targets) is not None  # evict + poisoned eager
        stats = cs.stats()
        assert stats["plans"] == 0
        assert stats["guard_evictions"] == 1
        assert stats["shard_fallbacks"] == 1
    finally:
        cs.close()


# ---------------------------------------------------------------------------
# Memprof surface.
# ---------------------------------------------------------------------------


def test_memprof_reports_shard_train_counters(dataset, split):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    shard.reset_shard_train_stats()
    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    shard.set_shard_tiles(3)
    loss, _, _ = model.loss(pairs, targets)
    loss.backward(free_graph=True)
    snap = memprof.report()
    st = snap["shard_train"]
    assert st["steps"] >= 1 and st["bands"] > 0 and st["nodes"] > 0
    assert st["halo_rows"] >= 0 and st["halo_bytes"] >= 0
    assert "engaged" in snap["shard_train_gate_reason"]
    text = memprof.format_report(snap)
    assert "shard_train:" in text
    assert "shard gates:" in text


def test_memprof_plan_line_shows_shard_fallbacks(dataset, split):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.train()
    shard.set_shard_tiles(3)
    opt = Adam(model.parameters(), lr=3e-3, weight_decay=1e-5)
    cs = _compiled_step(model, opt)
    _plan.reset_stats()
    try:
        cs.step(pairs, targets)
    finally:
        cs.close()
    text = memprof.format_report(memprof.report())
    assert "shard_fallbacks=1" in text


# ---------------------------------------------------------------------------
# Substrate pieces that landed with the tentpole.
# ---------------------------------------------------------------------------


def test_segment_plan_sum_out_variant():
    rng = np.random.default_rng(1)
    ids = np.sort(rng.integers(0, 9, 200)).astype(np.int64)
    values = rng.normal(size=(200, 4))
    plan = SegmentPlan(ids, 12)
    reference = plan.sum(values).copy()
    out = np.full((12, 4), 7.0)  # must be overwritten, not accumulated
    result = plan.sum(values, out=out)
    assert result is out
    assert np.array_equal(result, reference)
    with pytest.raises(ValueError):
        plan.sum(values, out=np.zeros((11, 4)))


def test_band_table_caches_ids_identity():
    dst = np.sort(np.random.default_rng(2).integers(0, 40, 500)).astype(
        np.int64
    )
    cuts = np.array([0, 10, 25, 40], dtype=np.int64)
    tables = {}
    misses = plan_cache_info()["misses"]
    t1 = shard._band_table(tables, dst, cuts)
    t2 = shard._band_table(tables, dst, cuts)
    assert all(a[4] is b[4] for a, b in zip(t1, t2))  # one plan per band
    # Each row carries the plan over its band-local segment ids, built
    # outside the global plan cache.
    lo, hi, e0, e1, plan = t1[1]
    assert plan.num_segments == hi - lo
    assert np.array_equal(plan.segment_ids, dst[e0:e1] - lo)
    assert plan_cache_info()["misses"] == misses
    # Different cuts over the same dst rebuild rather than alias.
    t3 = shard._band_table(tables, dst, np.array([0, 20, 40], dtype=np.int64))
    assert len(t3) == 2 and len(tables) == 1
