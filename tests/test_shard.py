"""Banded eval (``repro.core.shard``): bit-identity and gating.

The engine's contract is the strongest the repo makes: the stitched
per-band result must be **byte-for-byte** the dense batched pass, across
the ablation grid (capacity / preferences / C kernels), across serial
in-process and forked-pool execution, and through a whole training ``fit``
(loss curves + final parameter fingerprint).  Anything weaker would let the
metropolis path drift from the paper's model.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import parallel
from repro.core import shard
from repro.core.model import O2SiteRec, O2SiteRecConfig
from repro.core.trainer import TrainConfig, Trainer
from repro.tensor import cnative


@pytest.fixture(autouse=True)
def _restore_toggles():
    """Every test leaves the global shard/pool/kernel state untouched."""
    prev_tiles = shard.set_shard_tiles(None)
    shard.set_shard_tiles(prev_tiles)
    prev_procs = parallel.set_num_procs(None)
    parallel.set_num_procs(prev_procs)
    prev_c = cnative.set_c_kernels(True)
    cnative.set_c_kernels(prev_c)
    yield
    shard.set_shard_tiles(prev_tiles)
    parallel.set_num_procs(prev_procs)
    cnative.set_c_kernels(prev_c)


def _sha_periods(out) -> str:
    digest = hashlib.sha256()
    for period in sorted(out, key=int):
        h, q = out[period]
        digest.update(h.data.tobytes())
        digest.update(q.data.tobytes())
    return digest.hexdigest()


def _propagate_sha(model, tiles: int, procs: int) -> str:
    shard.set_shard_tiles(tiles)
    parallel.set_num_procs(procs)
    capacity_su, _ = model._capacity_pass()
    return _sha_periods(model.recommender.propagate_periods(capacity_su))


def _reference_sha(model) -> str:
    """The dense batched pass every banded run must reproduce."""
    return _propagate_sha(model, tiles=0, procs=0)


@pytest.mark.parametrize("variant", ["full", "wo_co", "wo_cocu"])
def test_sharded_bitwise_equals_unsharded(dataset, variant):
    config = O2SiteRecConfig()
    if variant == "wo_co":
        config = config.without_capacity()
    elif variant == "wo_cocu":
        config = config.without_capacity_and_preferences()
    model = O2SiteRec(dataset, config=config)
    model.eval()
    reference = _reference_sha(model)
    assert _propagate_sha(model, tiles=3, procs=0) == reference
    assert _propagate_sha(model, tiles=3, procs=2) == reference
    # Non-divisible band count and the maximum (one band per grid row).
    assert _propagate_sha(model, tiles=5, procs=0) == reference
    rows = model.recommender.grid_shape[0]
    assert _propagate_sha(model, tiles=rows, procs=0) == reference


@pytest.mark.skipif(not cnative.available(), reason="C kernels not built")
def test_sharded_bitwise_without_c_kernels(dataset):
    cnative.set_c_kernels(False)
    model = O2SiteRec(dataset)
    model.eval()
    reference = _reference_sha(model)
    assert _propagate_sha(model, tiles=3, procs=0) == reference
    assert _propagate_sha(model, tiles=3, procs=2) == reference


def test_fit_identical_with_sharded_eval(dataset, split):
    """Loss curves and final parameters survive banding untouched."""
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)

    def fingerprint(shard_tiles):
        from repro.nn import init

        init.seed(0)
        model = O2SiteRec(dataset, split=split)
        trainer = Trainer(
            model,
            TrainConfig(epochs=2, min_epochs=1, seed=0,
                        shard_tiles=shard_tiles),
        )
        result = trainer.fit(pairs, targets)
        digest = hashlib.sha256()
        for param in model.parameters():
            digest.update(param.data.tobytes())
        return result.train_losses, result.validation_losses, digest.hexdigest()

    unsharded = fingerprint(0)
    sharded = fingerprint(3)
    assert sharded[0] == unsharded[0]  # train losses, float-exact
    assert sharded[1] == unsharded[1]  # validation losses, float-exact
    assert sharded[2] == unsharded[2]  # parameter bytes


def test_gate_off_below_threshold_and_in_training(dataset):
    model = O2SiteRec(dataset)
    rec = model.recommender
    # Auto gate: the tiny grid sits far below O2_SHARD_MIN_REGIONS, in
    # training as in eval.
    model.eval()
    assert shard.shard_tiles_for(rec) == 0
    model.train()
    assert shard.shard_tiles_for(rec) == 0
    # Forced on: one gate, the same band count in both modes.
    shard.set_shard_tiles(3)
    assert shard.shard_tiles_for(rec) == 3
    model.eval()
    assert shard.shard_tiles_for(rec) == 3
    # tiles <= 1 disables; tile counts are clamped to the grid rows.
    shard.set_shard_tiles(1)
    assert shard.shard_tiles_for(rec) == 0
    shard.set_shard_tiles(10_000)
    assert shard.shard_tiles_for(rec) == rec.grid_shape[0]


def test_resolve_tiles_env(monkeypatch):
    monkeypatch.setattr(shard, "_tile_override", None)
    # Explicit off beats the auto threshold.
    monkeypatch.setenv("O2_SHARD_TILES", "0")
    assert shard.resolve_shard_tiles(1_000_000) == 0
    monkeypatch.setenv("O2_SHARD_TILES", "off")
    assert shard.resolve_shard_tiles(1_000_000) == 0
    monkeypatch.setenv("O2_SHARD_TILES", "6")
    assert shard.resolve_shard_tiles(16) == 6
    monkeypatch.delenv("O2_SHARD_TILES")
    # Auto: engages at the metropolis threshold, serial or not.
    assert shard.resolve_shard_tiles(shard._AUTO_MIN_REGIONS) == (
        shard.DEFAULT_SHARD_TILES
    )
    assert shard.resolve_shard_tiles(shard._AUTO_MIN_REGIONS - 1) == 0
    monkeypatch.setenv("O2_SHARD_MIN_REGIONS", "10")
    assert shard.resolve_shard_tiles(10) == shard.DEFAULT_SHARD_TILES


def test_no_shard_inside_pool_worker(dataset, monkeypatch):
    """A fan-out worker must not re-shard (no nested pools, no recursion)."""
    model = O2SiteRec(dataset)
    model.eval()
    shard.set_shard_tiles(3)
    monkeypatch.setattr(parallel, "_in_worker", True)
    assert shard.shard_tiles_for(model.recommender) == 0


def test_snapshot_from_sharded_build_matches(dataset, split):
    """Per-tile snapshot build: same fingerprint, tiles recorded in meta."""
    from repro.nn import init
    from repro.serve.snapshot import ModelSnapshot

    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    model.eval()
    plain = ModelSnapshot.from_model(model, shard_tiles=0)
    tiled = ModelSnapshot.from_model(model, shard_tiles=3)
    assert tiled.snapshot_id == plain.snapshot_id
    assert tiled.meta["shard_tiles"] == 3
    assert plain.meta["shard_tiles"] == 0
    test_pairs = split.test_pairs[:16]
    assert np.array_equal(tiled.predict(test_pairs), plain.predict(test_pairs))


def test_export_embeddings_builds_no_tape(dataset, split, monkeypatch):
    """A banded export records no autograd node and keeps the fingerprint."""
    from repro.nn import init
    from repro.serve.snapshot import ModelSnapshot
    from repro.tensor import Tensor

    init.seed(0)
    model = O2SiteRec(dataset, split=split)
    shard.set_shard_tiles(3)
    counts = {"tensors": 0, "taped": 0}
    original_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        counts["tensors"] += 1
        if self._parents or self._backward is not None:
            counts["taped"] += 1

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    model.export_embeddings()
    monkeypatch.undo()
    assert shard.shard_gate_reason().startswith("engaged: 3 row bands")
    assert counts["tensors"] > 0
    assert counts["taped"] == 0
    assert model.training  # the export restores the caller's mode
    plain = ModelSnapshot.from_model(model, shard_tiles=0)
    tiled = ModelSnapshot.from_model(model, shard_tiles=3)
    assert tiled.snapshot_id == plain.snapshot_id
