"""Trace-and-replay compiled training step (CUDA-graph-style step capture).

The batch training step is shape-static: every epoch re-executes the same
autograd graph on the same-shaped inputs, yet the eager engine rebuilds the
whole tape — Python op dispatch, ``Tensor`` node construction, closure
allocation, topological sort, cache probes — on every batch.  PRs 2 and 5
made the kernels fast and allocation-free, so this bookkeeping is now a
real fraction of the remaining epoch time.

This module records one *executed* batch step into a static
:class:`ExecutionPlan` and replays it per batch with zero tape
construction and zero Python autograd dispatch:

* **Capture.**  :class:`CompiledStep` copies the batch into pinned input
  buffers and runs one ordinary eager step with a :class:`Trace` active.
  Every op site in :mod:`repro.tensor.tensor` / :mod:`repro.tensor.ops`
  emits a *replay thunk* — a closure over the concrete input/output
  ndarrays it just used, re-running exactly the same kernel (numpy ufunc,
  ``SegmentPlan`` reduction, or compiled C loop) with ``out=`` its
  original output buffer.  Because each thunk holds references to its
  arrays, the buffer pool can never recycle them: the plan's buffers are
  pinned for its lifetime and no two captured arrays alias.
* **Backward schedule.**  After the forward, the backward driver is run
  once with per-node logging: for each tape node, which slot its gradient
  lives in and how each parent gradient is folded in (init / in-place add
  / owned-accumulator add).  Replay walks the flat schedule calling the
  original backward closures — no topological sort, no dict churn.
* **Replay.**  ``np.copyto`` the new batch into the pinned input buffers,
  run the recorded *bind hooks* (batch-derived index arrays recomputed in
  place + their ``SegmentPlan`` cache entries invalidated), then execute
  the thunk list, the backward schedule, gradient clipping, and the
  optimizer's captured in-place update.

Replay preserves the reference FP op order exactly — every thunk re-runs
the same expressions on the same buffers — so loss curves and parameter
hashes stay bit-identical to eager across the ``set_fast_kernels`` /
``set_c_kernels`` ablations (pinned by ``tests/test_compiled_step.py``).

Fail-soft by design: ops whose closures capture non-refreshable values
*poison* the trace, a coverage check (nodes created == nodes recorded)
catches any un-instrumented op, and guard checks at replay (batch
shape/dtype signature, kernel-flag triple, parameter identity, trainer
guard) fall back to eager or recapture.  The capture step itself is a
bit-for-bit ordinary training step, so a failed capture costs nothing but
the bookkeeping.

Enabled by ``TrainConfig.compile_step`` (default on); see
:class:`repro.core.trainer.Trainer`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import cnative as _cnative
from . import pool as _pool
from . import segment as _segment

__all__ = [
    "Trace",
    "ExecutionPlan",
    "CompiledStep",
    "tracing",
    "emit",
    "emit_aux",
    "emit_view",
    "emit_refresh",
    "poison",
    "record_bind",
    "plan_stats",
    "reset_stats",
]

# ----------------------------------------------------------------------
# Module state: the active trace (None when not capturing) + counters.
# ----------------------------------------------------------------------
_TRACE: Optional["Trace"] = None

_stats_lock = threading.Lock()
_captures = 0
_replays = 0
_eager_fallbacks = 0
_guard_evictions = 0
_live_plans = 0
_pinned_bytes = 0
# Captures poisoned because the step routed through the banded sharded
# backward (repro.core.shard), which builds data-dependent band
# closures a replay plan cannot pin.  Deliberate and fail-soft: the step
# runs eager, and this counter is the "never a silent double-path" receipt
# surfaced on the memprof ``plan:`` line.
_shard_fallbacks = 0


def plan_stats() -> Dict[str, int]:
    """Process-wide step-compiler counters (consumed by memprof.report)."""
    with _stats_lock:
        return {
            "captures": _captures,
            "replays": _replays,
            "eager_fallbacks": _eager_fallbacks,
            "guard_evictions": _guard_evictions,
            "shard_fallbacks": _shard_fallbacks,
            "live_plans": _live_plans,
            "pinned_bytes": _pinned_bytes,
        }


def reset_stats() -> None:
    global _captures, _replays, _eager_fallbacks, _guard_evictions
    global _shard_fallbacks
    with _stats_lock:
        _captures = _replays = _eager_fallbacks = _guard_evictions = 0
        _shard_fallbacks = 0


def _bump(name: str, delta: int = 1) -> None:
    with _stats_lock:
        globals()["_" + name] = globals()["_" + name] + delta


class Trace:
    """Mutable capture state: thunks, bind hooks, and coverage counters.

    ``nodes_created`` counts autograd nodes built while the trace is
    active (incremented from ``Tensor.__init__``); ``nodes_recorded``
    counts op sites that emitted a replay thunk (or proved their output a
    view).  The two must match for the plan to be complete — a mismatch
    means some op path is not instrumented and the plan is discarded.

    A capture runs on the thread that drives the step, so the append
    order is program order: a valid topological order for serial replay.
    """

    __slots__ = (
        "thunks",
        "binds",
        "nodes_created",
        "nodes_recorded",
        "poisoned",
        "poison_reason",
    )

    def __init__(self) -> None:
        self.thunks: List[Callable[[], None]] = []
        self.binds: List[Callable[[], None]] = []
        self.nodes_created = 0
        self.nodes_recorded = 0
        self.poisoned = False
        self.poison_reason = ""

    def count_node(self) -> None:
        self.nodes_created += 1


def tracing() -> bool:
    """Whether a step capture is currently recording op emissions."""
    return _TRACE is not None


def emit(fn: Callable[[], None]) -> None:
    """Record a replay thunk for the op (counts toward coverage)."""
    t = _TRACE
    if t is None:
        return
    t.thunks.append(fn)
    t.nodes_recorded += 1


def emit_aux(fn: Callable[[], None]) -> None:
    """Record an auxiliary thunk (RNG redraw etc.; not an op node)."""
    t = _TRACE
    if t is None:
        return
    t.thunks.append(fn)


def emit_view(dst, src, fn: Optional[Callable[[], np.ndarray]] = None) -> None:
    """Record a view-producing op.

    If ``dst`` aliases ``src`` (reshape/transpose/slice views), replay
    needs no thunk: refreshing the base in place refreshes every view.
    Otherwise the op made a copy; ``fn`` recomputes it for a copy thunk.
    """
    t = _TRACE
    if t is None:
        return
    if isinstance(dst, np.ndarray) and np.may_share_memory(dst, src):
        t.nodes_recorded += 1
        return
    if fn is None or not isinstance(dst, np.ndarray):
        poison("view output does not alias its source")
        return
    emit(lambda: np.copyto(dst, fn()))


def emit_refresh(dst, fn: Callable[[], np.ndarray]) -> None:
    """Record a recompute-and-copy thunk targeting the captured ``dst``.

    Used by ops whose backward closure reads a captured value array:
    replay must overwrite *that object* in place.  A non-ndarray ``dst``
    (numpy scalar from a 0-d op) cannot be refreshed and poisons the
    trace — the step falls back to eager, fail-soft.
    """
    if not isinstance(dst, np.ndarray):
        poison("op value is a numpy scalar; closure capture not refreshable")
        return
    emit(lambda: np.copyto(dst, fn()))


def poison(reason: str) -> None:
    """Mark the active trace unusable (capture falls back to eager)."""
    t = _TRACE
    if t is not None and not t.poisoned:
        t.poisoned = True
        t.poison_reason = reason


def record_bind(fn: Callable[[], None]) -> None:
    """Register a replay-time input rebind hook (registration order kept).

    Bind hooks recompute batch-derived arrays (pair index arrays, gathered
    commercial rows) *in place* from the plan's pinned input buffers and
    invalidate any ``SegmentPlan`` cached over them.  They run before the
    forward thunks on every replay.
    """
    t = _TRACE
    if t is not None:
        t.binds.append(fn)


# ----------------------------------------------------------------------
# Backward schedule: record the driver's walk once, replay it flat.
# ----------------------------------------------------------------------
# Per-parent fold actions, aligned with each closure's returned pairs.
_SKIP, _INIT, _ADD_INPLACE, _ADD_NEW, _ADD_UNPOOLED = 0, 1, 2, 3, 4
# Schedule entry kinds.
_LEAF, _BW = 0, 1


def _record_backward(root) -> Tuple[list, int]:
    """Run the eager backward driver once, logging a flat replay schedule.

    Mirrors ``Tensor.backward`` exactly (same seed, same fold branches,
    same pooled accumulators) while noting, per tape node, the slot its
    gradient occupies and the action applied per returned parent pair.
    Gradients accumulate into the leaves as a side effect — this *is* the
    capture step's backward pass.
    """
    from .tensor import _accumulate_leaf

    pooled = _pool.buffer_pool_enabled()
    seed_owned = False
    if pooled:
        grad = _pool.empty(root.data.shape, tag="seed-grad")
        grad.fill(1.0)
        seed_owned = True
    else:
        grad = np.ones_like(root.data)

    order = root._topological_order()
    slot = {id(node): i for i, node in enumerate(order)}
    tape_bytes = sum(node.data.nbytes for node in order)
    schedule: list = []
    grads: dict = {id(root): grad}
    owned: set = {id(root)} if seed_owned else set()
    for i, node in enumerate(order):
        key = id(node)
        node_grad = grads.pop(key, None)
        owned.discard(key)
        if node_grad is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                _accumulate_leaf(node, node_grad, pooled)
                schedule.append((_LEAF, i, node))
            continue
        acts: list = []
        for parent, parent_grad in node._backward(node_grad):
            if not parent.requires_grad:
                acts.append((_SKIP, 0))
                continue
            pkey = id(parent)
            existing = grads.get(pkey)
            if existing is None:
                grads[pkey] = parent_grad
                acts.append((_INIT, slot[pkey]))
            elif pooled:
                if pkey in owned:
                    np.add(existing, parent_grad, out=existing)
                    acts.append((_ADD_INPLACE, slot[pkey]))
                else:
                    buf = _pool.empty(existing.shape, tag="grad-accum")
                    np.add(existing, parent_grad, out=buf)
                    grads[pkey] = buf
                    owned.add(pkey)
                    acts.append((_ADD_NEW, slot[pkey]))
            else:
                grads[pkey] = existing + parent_grad
                acts.append((_ADD_UNPOOLED, slot[pkey]))
        schedule.append((_BW, i, node._backward, acts))
    return schedule, len(order), tape_bytes


def _replay_backward(plan: "ExecutionPlan") -> None:
    """Walk the recorded schedule: original closures, no graph traversal."""
    from .tensor import _accumulate_leaf

    pooled = _pool.buffer_pool_enabled()
    vals: list = [None] * plan.num_slots
    root_data = plan.root.data
    if pooled:
        seed = _pool.empty(root_data.shape, tag="seed-grad")
        seed.fill(1.0)
    else:
        seed = np.ones_like(root_data)
    vals[0] = seed
    for entry in plan.schedule:
        if entry[0] == _LEAF:
            _, i, node = entry
            g = vals[i]
            vals[i] = None
            _accumulate_leaf(node, g, pooled)
        else:
            _, i, closure, acts = entry
            g = vals[i]
            vals[i] = None
            for (act, pslot), pair in zip(acts, closure(g)):
                if act == _SKIP:
                    continue
                pg = pair[1]
                existing = vals[pslot]
                if act == _INIT:
                    vals[pslot] = pg
                elif act == _ADD_INPLACE:
                    np.add(existing, pg, out=existing)
                elif act == _ADD_NEW:
                    buf = _pool.empty(existing.shape, tag="grad-accum")
                    np.add(existing, pg, out=buf)
                    vals[pslot] = buf
                else:
                    vals[pslot] = existing + pg
        g = None


class ExecutionPlan:
    """One captured batch step: flat thunk list + backward schedule.

    Holds the root loss tensor (keeping the whole captured tape and its
    pinned pooled buffers alive), the pinned batch input buffers, the
    bind hooks, and the flag/guard signatures checked before replay.
    """

    __slots__ = (
        "signature",
        "pairs_buf",
        "targets_buf",
        "binds",
        "thunks",
        "schedule",
        "num_slots",
        "root",
        "flags",
        "guard_sig",
        "param_data",
        "pinned_bytes",
    )

    def __init__(
        self,
        signature,
        pairs_buf: np.ndarray,
        targets_buf: np.ndarray,
        binds,
        thunks,
        schedule,
        num_slots: int,
        root,
        flags,
        guard_sig,
        param_data,
        pinned_bytes: int,
    ) -> None:
        self.signature = signature
        self.pairs_buf = pairs_buf
        self.targets_buf = targets_buf
        self.binds = binds
        self.thunks = thunks
        self.schedule = schedule
        self.num_slots = num_slots
        self.root = root
        self.flags = flags
        self.guard_sig = guard_sig
        self.param_data = param_data
        self.pinned_bytes = pinned_bytes


def _kernel_flags() -> tuple:
    """The kernel-dispatch switches a captured tape is specialised on."""
    return (
        _pool.buffer_pool_enabled(),
        _segment.fast_kernels_enabled(),
        _cnative.available(),
    )


class CompiledStep:
    """Capture-once / replay-many driver for the batch training step.

    ``step(pairs, targets)`` returns the batch loss as a float, or
    ``None`` when the caller should run the step eagerly (capture failed
    for this signature, or the plan table overflowed).  The first call
    per batch signature performs an ordinary eager step under capture —
    so every call trains the model; compilation is free-running and
    fail-soft.

    Guards, all fail-soft: the batch shape/dtype signature keys the plan
    table; the kernel-flag triple and the trainer-supplied ``guard_fn``
    signature must match capture (else the plan is evicted and
    recaptured); every parameter's ``.data`` must be the captured array
    object (in-place optimizers preserve this; a ``load_state_dict``
    rebind evicts).
    """

    def __init__(
        self,
        loss_fn: Callable[[np.ndarray, np.ndarray], object],
        parameters,
        optimizer,
        clip_fn: Optional[Callable[[], object]] = None,
        guard_fn: Optional[Callable[[], tuple]] = None,
        max_plans: int = 4,
    ) -> None:
        self.loss_fn = loss_fn
        self.parameters = list(parameters)
        self.optimizer = optimizer
        self.clip_fn = clip_fn
        self.guard_fn = guard_fn
        self.max_plans = max_plans
        self._plans: Dict[tuple, ExecutionPlan] = {}
        self._failed: set = set()
        self._step_fn = None  # captured in-place optimizer update

    # -- public -------------------------------------------------------
    def step(self, pairs: np.ndarray, targets: np.ndarray) -> Optional[float]:
        pairs = np.asarray(pairs)
        targets = np.asarray(targets)
        sig = (pairs.shape, pairs.dtype.str, targets.shape, targets.dtype.str)
        if sig in self._failed:
            _bump("eager_fallbacks")
            return None
        plan = self._plans.get(sig)
        if plan is not None:
            if self._guards_ok(plan):
                return self._replay(plan, pairs, targets)
            # Stale plan (flags flipped, params rebound): evict and
            # recapture under the current configuration.
            self._evict(plan, sig)
            _bump("guard_evictions")
        if len(self._plans) >= self.max_plans:
            _bump("eager_fallbacks")
            return None
        return self._capture(sig, pairs, targets)

    def stats(self) -> Dict[str, int]:
        out = plan_stats()
        out["plans"] = len(self._plans)
        out["failed_signatures"] = len(self._failed)
        return out

    def close(self) -> None:
        """Drop all plans (releases the pinned tapes and buffers)."""
        for sig in list(self._plans):
            self._evict(self._plans[sig], sig)

    # -- internals ----------------------------------------------------
    def _evict(self, plan: ExecutionPlan, sig) -> None:
        self._plans.pop(sig, None)
        _bump("live_plans", -1)
        _bump("pinned_bytes", -plan.pinned_bytes)

    def _guards_ok(self, plan: ExecutionPlan) -> bool:
        if plan.flags != _kernel_flags():
            return False
        if self.guard_fn is not None and self.guard_fn() != plan.guard_sig:
            return False
        for p, d in plan.param_data:
            if p.data is not d:
                return False
        return True

    def _capture(self, sig, pairs: np.ndarray, targets: np.ndarray):
        """Run one real eager step under trace; finalize a plan if clean."""
        global _TRACE
        step_fn = self._step_fn
        if step_fn is None:
            step_fn = self._step_fn = self.optimizer.capture_step()
        if step_fn is None:
            # Optimizer has no in-place captured update: its reference
            # step rebinds parameter arrays, which no plan can survive.
            self._failed.add(sig)
            return None

        # Pin the batch: all capture-time caches key on these objects, and
        # replay refreshes them in place.  The copies must be private --
        # ``ascontiguousarray`` would return the caller's own array when it
        # is already contiguous, and replaying a later batch would then
        # silently overwrite the caller's cached batch data.
        pairs_buf = np.array(pairs, order="C", copy=True)
        targets_buf = np.array(targets, order="C", copy=True)
        guard_sig = self.guard_fn() if self.guard_fn is not None else None
        flags = _kernel_flags()

        self.optimizer.zero_grad()
        trace = Trace()
        _TRACE = trace
        try:
            root = self.loss_fn(pairs_buf, targets_buf)
        finally:
            _TRACE = None

        ok = (
            not trace.poisoned
            and trace.nodes_created == trace.nodes_recorded
            and getattr(root, "_backward", None) is not None
        )
        if ok:
            schedule, num_slots, tape_bytes = _record_backward(root)
        else:
            root.backward(free_graph=True)
        if self.clip_fn is not None:
            self.clip_fn()
        step_fn()
        loss = float(root.data)
        if not ok:
            self._failed.add(sig)
            _bump("eager_fallbacks")
            return loss

        pinned = tape_bytes + pairs_buf.nbytes + targets_buf.nbytes
        plan = ExecutionPlan(
            signature=sig,
            pairs_buf=pairs_buf,
            targets_buf=targets_buf,
            binds=tuple(trace.binds),
            thunks=tuple(trace.thunks),
            schedule=schedule,
            num_slots=num_slots,
            root=root,
            flags=flags,
            guard_sig=guard_sig,
            param_data=tuple((p, p.data) for p in self.parameters),
            pinned_bytes=pinned,
        )
        self._plans[sig] = plan
        _bump("captures")
        _bump("live_plans")
        _bump("pinned_bytes", plan.pinned_bytes)
        return loss

    def _replay(self, plan: ExecutionPlan, pairs, targets) -> float:
        # The bind hooks re-derive batch-dependent index arrays (and
        # invalidate the segment-plan caches built on them), which is the
        # per-replay analogue of the eager path's identity-keyed cache
        # misses.  When the incoming batch is byte-identical to what is
        # already pinned -- the full-batch regime, where the same arrays
        # arrive every epoch -- all of that would recompute the values
        # already sitting there, so skip it (eager gets the same effect
        # from its identity caches).
        if not (
            np.array_equal(plan.pairs_buf, pairs)
            and np.array_equal(plan.targets_buf, targets)
        ):
            np.copyto(plan.pairs_buf, pairs)
            np.copyto(plan.targets_buf, targets)
            for fn in plan.binds:
                fn()
        self.optimizer.zero_grad()
        for fn in plan.thunks:
            fn()
        _replay_backward(plan)
        if self.clip_fn is not None:
            self.clip_fn()
        self._step_fn()
        _bump("replays")
        return float(plan.root.data)
