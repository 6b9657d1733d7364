"""Step compiler: trace-and-replay plans vs eager tape execution.

Three layers of guarantees, matching what ``repro.tensor.plan`` promises:

* compiled training is bit-for-bit identical to eager training -- loss
  curves, final parameters, and post-fit predictions -- across the
  ``use_fast_kernels`` x ``use_buffer_pool`` ablation grid, with the plans
  actually engaged (captures and replays observed, zero eager fallbacks);
* replay never corrupts caller state: the pinned input buffers are
  private copies, so the batch arrays handed to ``CompiledStep.step``
  are byte-identical afterwards;
* the compiler is fail-soft: guard flips (kernel switches, train/eval
  mode) evict and recapture rather than replay a stale plan, and batches
  whose capture cannot cover the tape fall back to the eager path while
  still completing a full training step.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer
from repro.nn import init
from repro.optim import Adam
from repro.optim.optimizer import clip_grad_norm
from repro.tensor import use_buffer_pool, use_fast_kernels
from repro.tensor import plan as plan_mod
from repro.tensor.plan import CompiledStep


def _param_sha256(model) -> str:
    return hashlib.sha256(
        b"".join(
            np.ascontiguousarray(p.data).tobytes() for p in model.parameters()
        )
    ).hexdigest()


def _fit_and_predict(dataset, split, compile_step, epochs=2, batch_size=None):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(7)
    model = O2SiteRec(
        dataset, split, O2SiteRecConfig(capacity_dim=6, embedding_dim=20)
    )
    trainer = Trainer(
        model,
        TrainConfig(
            epochs=epochs,
            lr=1e-3,
            patience=epochs,
            min_epochs=epochs,
            batch_size=batch_size,
            compile_step=compile_step,
        ),
    )
    result = trainer.fit(pairs, targets)
    return (
        np.asarray(result.train_losses),
        np.asarray(result.validation_losses),
        model.predict(split.test_pairs),
        _param_sha256(model),
    )


def _make_compiled(model, optimizer):
    return CompiledStep(
        loss_fn=lambda p, t: model.loss(p, t)[0],
        parameters=model.parameters(),
        optimizer=optimizer,
        clip_fn=lambda: clip_grad_norm(model.parameters(), 5.0),
        guard_fn=lambda: (model.training,),
    )


class TestCompiledFitBitwise:
    """compile_step=True training is bit-for-bit equal to =False."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
    def test_batched_fit_curve_bitwise(
        self, micro_dataset, micro_split, fast, pooled
    ):
        with use_fast_kernels(fast), use_buffer_pool(pooled):
            plan_mod.reset_stats()
            compiled = _fit_and_predict(
                micro_dataset, micro_split, compile_step=True, batch_size=32
            )
            stats = plan_mod.plan_stats()
            eager = _fit_and_predict(
                micro_dataset, micro_split, compile_step=False, batch_size=32
            )
        for got, want in zip(compiled[:3], eager[:3]):
            np.testing.assert_array_equal(got, want)
        assert compiled[3] == eager[3]
        # The identity must come from actual replays, not silent fallback.
        assert stats["captures"] >= 1
        assert stats["replays"] >= 1
        assert stats["eager_fallbacks"] == 0

    def test_full_batch_fit_curve_bitwise(self, micro_dataset, micro_split):
        plan_mod.reset_stats()
        compiled = _fit_and_predict(micro_dataset, micro_split, compile_step=True)
        stats = plan_mod.plan_stats()
        eager = _fit_and_predict(micro_dataset, micro_split, compile_step=False)
        for got, want in zip(compiled[:3], eager[:3]):
            np.testing.assert_array_equal(got, want)
        assert compiled[3] == eager[3]
        assert stats["captures"] >= 1 and stats["replays"] >= 1
        assert stats["eager_fallbacks"] == 0


class TestCompiledStepMechanics:
    def _setup(self, micro_dataset, micro_split):
        plan_mod.reset_stats()  # plan counters are process-wide
        init.seed(3)
        model = O2SiteRec(
            micro_dataset,
            micro_split,
            O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
        )
        model.train()
        optimizer = Adam(model.parameters(), lr=1e-3)
        pairs = micro_split.train_pairs[:24]
        targets = micro_dataset.pair_targets(pairs)
        return model, optimizer, pairs, targets

    def test_replay_does_not_mutate_caller_batches(
        self, micro_dataset, micro_split
    ):
        model, optimizer, pairs, targets = self._setup(micro_dataset, micro_split)
        compiled = _make_compiled(model, optimizer)
        try:
            first = np.ascontiguousarray(pairs[:16])
            first_t = targets[:16].copy()
            second = np.ascontiguousarray(pairs[8:24])
            second_t = targets[8:24].copy()
            snap_p, snap_t = first.copy(), first_t.copy()
            assert compiled.step(first, first_t) is not None  # capture
            assert compiled.step(second, second_t) is not None  # replay
            # The pinned plan buffers are private copies: replaying the
            # second batch must leave the first batch's arrays untouched.
            np.testing.assert_array_equal(first, snap_p)
            np.testing.assert_array_equal(first_t, snap_t)
        finally:
            compiled.close()

    def test_guard_flip_evicts_and_recaptures(self, micro_dataset, micro_split):
        model, optimizer, pairs, targets = self._setup(micro_dataset, micro_split)
        compiled = _make_compiled(model, optimizer)
        try:
            assert compiled.step(pairs, targets) is not None
            before = compiled.stats()
            assert before["captures"] == 1
            model.eval()  # flips the guard signature
            model.training = True  # keep dropout semantics of train mode
            model.training = False
            # A stale guard must evict the plan, then recapture fresh.
            model.train()
            model.eval()
            model.train()
            assert compiled.step(pairs, targets) is not None  # same guards: replay
            assert compiled.stats()["replays"] >= 1
            model.eval()
            result = compiled.step(pairs, targets)
            stats = compiled.stats()
            assert result is not None
            assert stats["guard_evictions"] >= 1
            assert stats["captures"] >= 2
        finally:
            compiled.close()

    def test_failed_signature_falls_back_to_eager(
        self, micro_dataset, micro_split
    ):
        model, optimizer, pairs, targets = self._setup(micro_dataset, micro_split)

        calls = {"n": 0}
        real_loss = model.loss

        def loss_fn(p, t):
            calls["n"] += 1
            root = real_loss(p, t)[0]
            plan_mod.poison("test: deliberately uncapturable")
            return root

        compiled = CompiledStep(
            loss_fn=loss_fn,
            parameters=model.parameters(),
            optimizer=optimizer,
            clip_fn=lambda: clip_grad_norm(model.parameters(), 5.0),
            guard_fn=None,
        )
        try:
            before = _param_sha256(model)
            # Capture attempt is poisoned but still completes a full
            # training step (loss + backward + clip + update)...
            loss_val = compiled.step(pairs, targets)
            assert loss_val is not None and np.isfinite(loss_val)
            assert _param_sha256(model) != before
            assert compiled.stats()["failed_signatures"] == 1
            # ... and the signature is remembered: later batches skip
            # capture entirely and report the eager fallback.
            assert compiled.step(pairs, targets) is None
            assert compiled.stats()["eager_fallbacks"] >= 1
            assert calls["n"] == 1
        finally:
            compiled.close()

    def test_pool_hit_rate_not_regressed_by_replay(
        self, micro_dataset, micro_split
    ):
        from repro.tensor import pool as pool_mod

        with use_buffer_pool(True):
            model, optimizer, pairs, targets = self._setup(
                micro_dataset, micro_split
            )
            compiled = _make_compiled(model, optimizer)
            try:
                compiled.step(pairs, targets)  # capture
                stats_before = pool_mod.global_pool().stats()
                for _ in range(4):
                    assert compiled.step(pairs, targets) is not None
                stats_after = pool_mod.global_pool().stats()
            finally:
                compiled.close()
        # Replay thunks keep borrowing scratch buffers from the pool
        # (plan.sort scratch, kernel temporaries); with the plan's working
        # set pinned, those requests should be pool hits, not misses.
        hits = stats_after["hits"] - stats_before["hits"]
        misses = stats_after["misses"] - stats_before["misses"]
        assert hits > 0
        assert hits / max(hits + misses, 1) >= 0.5
