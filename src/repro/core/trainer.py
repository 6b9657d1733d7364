"""Training loop for O2-SiteRec and any module with a ``loss`` method.

Full-batch Adam by default (the propagation over the multi-graph dominates
the cost, so mini-batching the handful of (s, a) pairs buys nothing on the
scaled-down cities); mini-batches are available via ``batch_size`` for
paper-faithful runs.  Early stopping watches a held-out slice of the
*training* pairs -- the test fold is never touched during fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..optim import Adam, CosineLR, StepLR, clip_grad_norm
from ..runtime import env_flag, tune_allocator
from ..tensor.plan import CompiledStep
from .model import O2SiteRec
from .shard import shard_tiles_for, use_shard_tiles


@dataclass
class TrainConfig:
    """Optimisation settings (paper: Adam, lr 1e-4, batch 128)."""

    epochs: int = 60
    lr: float = 3e-3
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    batch_size: Optional[int] = None  # None = full batch
    validation_frac: float = 0.1
    patience: int = 10
    min_epochs: int = 10
    seed: int = 0
    verbose: bool = False
    # Optional learning-rate schedule: None (constant), "cosine" or "step".
    schedule: Optional[str] = None
    # Trace-and-replay step compilation (see repro.tensor.plan).  None
    # defers to the ``O2_COMPILE_STEP`` env switch (default on); replay is
    # bit-identical to eager, so this is purely a throughput knob.
    compile_step: Optional[bool] = None
    # Grid-tile banded propagation (see repro.core.shard) for every
    # training step and eval pass of this fit.  None defers to
    # ``O2_SHARD_TILES`` / the automatic metropolis threshold; an explicit
    # count pins it, and 0 pins the dense layer loop.  Bit-identical
    # either way.
    shard_tiles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.schedule not in (None, "cosine", "step"):
            raise ValueError(
                f"schedule must be None, 'cosine' or 'step', got {self.schedule!r}"
            )


@dataclass
class TrainResult:
    """Loss curves and the epoch at which training stopped."""

    train_losses: List[float]
    validation_losses: List[float]
    stopped_epoch: int
    best_validation: float


def paper_train_config() -> TrainConfig:
    """The paper's optimisation settings (expect long runtimes on CPU)."""
    return TrainConfig(epochs=200, lr=1e-4, batch_size=128)


class Trainer:
    """Fits a model exposing ``loss(pairs, targets) -> (Tensor, ...)``."""

    def __init__(self, model: O2SiteRec, config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.lr,
            weight_decay=self.config.weight_decay,
        )
        if self.config.schedule == "cosine":
            self.schedule = CosineLR(
                self.optimizer,
                total_epochs=self.config.epochs,
                min_lr=self.config.lr * 0.05,
            )
        elif self.config.schedule == "step":
            self.schedule = StepLR(
                self.optimizer,
                step_size=max(self.config.epochs // 3, 1),
                gamma=0.3,
            )
        else:
            self.schedule = None
        self._compiled: Optional[CompiledStep] = None

    def fit(self, pairs: np.ndarray, targets: np.ndarray) -> TrainResult:
        """Train on (region, type) pairs with normalised count targets."""
        # Training churns through large short-lived arrays; keep them in the
        # malloc arena instead of handing pages back to the kernel per op
        # (no-op off glibc or with O2_MALLOC_TUNE=0; see repro.runtime).
        tune_allocator()
        cfg = self.config
        pairs = np.asarray(pairs, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.float64)
        if len(pairs) != len(targets):
            raise ValueError("pairs and targets must have the same length")
        if len(pairs) < 2:
            raise ValueError("need at least two training pairs")

        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(pairs))
        n_val = max(int(len(pairs) * cfg.validation_frac), 1)
        val_idx, fit_idx = order[:n_val], order[n_val:]
        if len(fit_idx) == 0:
            fit_idx, val_idx = order, order[:1]

        fit_pairs, fit_targets = pairs[fit_idx], targets[fit_idx]
        val_pairs, val_targets = pairs[val_idx], targets[val_idx]

        train_losses: List[float] = []
        val_losses: List[float] = []
        best_val = np.inf
        best_state = None
        bad_epochs = 0
        stopped = cfg.epochs

        compile_enabled = (
            cfg.compile_step
            if cfg.compile_step is not None
            else env_flag("O2_COMPILE_STEP", True)
        )
        if compile_enabled:
            self._compiled = CompiledStep(
                loss_fn=lambda p, t: self.model.loss(p, t)[0],
                parameters=self.model.parameters(),
                optimizer=self.optimizer,
                clip_fn=lambda: clip_grad_norm(
                    self.model.parameters(), cfg.grad_clip
                ),
                # A plan is specialised on the training-mode dropout draws
                # and the shard gate; recapture if either flips (a banded
                # step poisons its capture and runs eager -- see
                # repro.core.shard -- so a gate flip must not silently
                # replay the dense plan).
                guard_fn=lambda: (
                    self.model.training,
                    bool(shard_tiles_for(
                        getattr(self.model, "recommender", None)
                    )),
                ),
            )
            # The captured tape will pin its buffers for the life of the
            # plan; swap the arena to the matching malloc profile.
            tune_allocator(profile="pinned")
        try:
            with use_shard_tiles(cfg.shard_tiles):
                return self._fit_loop(
                    cfg, fit_pairs, fit_targets, val_pairs, val_targets, rng,
                    train_losses, val_losses, best_val, best_state, bad_epochs,
                    stopped,
                )
        finally:
            if self._compiled is not None:
                self._compiled.close()
                self._compiled = None

    def _fit_loop(
        self, cfg, fit_pairs, fit_targets, val_pairs, val_targets, rng,
        train_losses, val_losses, best_val, best_state, bad_epochs, stopped,
    ) -> TrainResult:
        for epoch in range(cfg.epochs):
            self.model.train()
            epoch_loss = self._run_epoch(fit_pairs, fit_targets, rng)
            train_losses.append(epoch_loss)
            if self.schedule is not None:
                self.schedule.step()

            val_loss = self._evaluate(val_pairs, val_targets)
            val_losses.append(val_loss)
            if cfg.verbose:
                print(
                    f"epoch {epoch + 1:3d}: train {epoch_loss:.5f} "
                    f"val {val_loss:.5f}"
                )

            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_state = self.model.state_dict()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if epoch + 1 >= cfg.min_epochs and bad_epochs > cfg.patience:
                    stopped = epoch + 1
                    break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        return TrainResult(
            train_losses=train_losses,
            validation_losses=val_losses,
            stopped_epoch=stopped,
            best_validation=float(best_val),
        )

    # ------------------------------------------------------------------
    def _run_epoch(
        self, pairs: np.ndarray, targets: np.ndarray, rng: np.random.Generator
    ) -> float:
        cfg = self.config
        if cfg.batch_size is None or cfg.batch_size >= len(pairs):
            # Full batch: pass the arrays through untouched so identity-keyed
            # caches (pair indices, commercial gathers, segment plans built
            # on the pair arrays) hit on every epoch.
            batch_data = [(pairs, targets)]
        else:
            order = rng.permutation(len(pairs))
            batches = np.array_split(order, int(np.ceil(len(pairs) / cfg.batch_size)))
            batch_data = [(pairs[b], targets[b]) for b in batches]

        total, count = 0.0, 0
        for batch_pairs, batch_targets in batch_data:
            if self._compiled is not None:
                # Capture-or-replay; both are full training steps.  None
                # means this batch signature cannot be compiled -- run it
                # eagerly below (fail-soft, bit-identical either way).
                loss_val = self._compiled.step(batch_pairs, batch_targets)
                if loss_val is not None:
                    total += loss_val * len(batch_pairs)
                    count += len(batch_pairs)
                    continue
            self.optimizer.zero_grad()
            loss, _, _ = self.model.loss(batch_pairs, batch_targets)
            # Retire the tape as it is walked: intermediates (and their
            # pooled buffers) free mid-backward instead of at loss rebind,
            # so peak RSS stops scaling with graph depth.
            loss.backward(free_graph=True)
            clip_grad_norm(self.model.parameters(), cfg.grad_clip)
            self.optimizer.step()
            total += float(loss.data) * len(batch_pairs)
            count += len(batch_pairs)
        return total / max(count, 1)

    def _evaluate(self, pairs: np.ndarray, targets: np.ndarray) -> float:
        self.model.eval()
        predictions = self.model.predict(pairs)
        return float(np.mean((predictions - targets) ** 2))
