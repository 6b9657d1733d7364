"""Memory plane: buffer pool, in-place accumulation, tape retirement.

Four layers of guarantees, matching what the memory plane promises:

* the pool itself recycles blocks only when every view (including derived
  reshapes/slices that escape into closures) has died, bypasses tiny
  requests, grows per-size buckets and honours its idle cap;
* pooled-path training is bit-for-bit identical to the reference
  allocation path -- fuzzed over randomized autograd graphs with shared
  subexpressions under both ``use_fast_kernels`` settings, and pinned at
  whole-model fit-curve granularity;
* the in-place fused Adam/SGD/clip updates reproduce the reference
  expressions exactly (same floating-point operation order);
* ``backward(free_graph=True)`` retires the tape: outstanding pool
  buffers return to baseline and intermediate nodes drop their
  ``_parents``/``_backward`` links.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer
from repro.nn import init
from repro.nn.module import Parameter
from repro.optim import SGD, Adam
from repro.optim.optimizer import clip_grad_norm
from repro.tensor import (
    BufferPool,
    Tensor,
    buffer_pool_enabled,
    gather_rows,
    memprof,
    pool,
    segment_softmax,
    segment_sum,
    use_buffer_pool,
    use_fast_kernels,
)


def _drain():
    """Collect cycles so weakref finalizers run deterministically."""
    gc.collect()


class TestBufferPool:
    def test_borrow_shape_dtype_and_write(self):
        p = BufferPool()
        a = p.borrow((64, 16))
        assert a.shape == (64, 16) and a.dtype == np.float64
        a[:] = 3.0
        assert float(a.sum()) == 64 * 16 * 3.0

    def test_recycle_on_last_reference_death(self):
        p = BufferPool()
        a = p.borrow((64, 16))
        assert p.outstanding() == 1
        del a
        _drain()
        assert p.outstanding() == 0
        stats = p.stats()
        assert stats["recycled"] == 1 and stats["idle_buffers"] == 1
        b = p.borrow((64, 16))
        assert p.stats()["hits"] == 1
        del b

    def test_derived_views_keep_block_alive(self):
        """A reshape/column view must pin the block even after the
        original borrowed array is dropped -- the historical failure mode
        of ``weights[:, 0]`` escaping from segment_softmax."""
        p = BufferPool()
        a = p.borrow((64, 16))
        a[:] = 7.0
        col = a.reshape(16, 64)[0]
        del a
        _drain()
        assert p.outstanding() == 1  # block still borrowed
        # A fresh borrow of the same bucket must not alias the live view.
        b = p.borrow((64, 16))
        b.fill(0.0)
        assert np.all(col == 7.0)
        del b, col
        _drain()
        assert p.outstanding() == 0

    def test_best_fit_buckets(self):
        p = BufferPool()
        for count in (600, 1025, 5000):
            a = p.borrow((count,))
            del a
        _drain()
        stats = p.stats()
        assert stats["idle_buffers"] == 3
        # Blocks are allocated at the requested size: no rounding waste.
        assert stats["idle_bytes"] == (600 + 1025 + 5000) * 8
        # An exact repeat hits its capacity; a slightly smaller request
        # best-fits into the smallest sufficient block; a request with no
        # block within the slack bound misses rather than waste a huge one.
        b = p.borrow((1025,))  # exact 8200 B hit
        c = p.borrow((550,))  # 4400 B into the idle 4800 B block
        d = p.borrow((700,))  # 5600 B: only 40000 B left, > 2x -> miss
        s = p.stats()
        assert s["hits"] == 2 and s["fit_hits"] == 1 and s["misses"] == 4
        # The handed-out view exposes the requested count, not the block's.
        assert c.size == 550 and c.base.nbytes == 550 * 8
        del b, c, d

    def test_min_bytes_bypass(self):
        p = BufferPool(min_bytes=4096)
        a = p.borrow((8, 8))  # 512 B < 4 KiB
        assert not p.owns(a)
        assert p.stats()["bypassed"] == 1
        assert p.outstanding() == 0

    def test_idle_cap_evicts(self):
        p = BufferPool(max_idle_bytes=1024 * 8)
        a = p.borrow((1024,))
        b = p.borrow((1024,))
        del a, b
        _drain()
        stats = p.stats()
        assert stats["evicted"] == 1
        assert stats["idle_bytes"] <= 1024 * 8

    def test_explicit_release(self):
        p = BufferPool()
        a = p.borrow((1024,))
        assert p.owns(a)
        assert p.release(a)
        assert p.outstanding() == 0
        assert not p.release(np.empty(1024))  # foreign arrays refused

    def test_zeros_and_take_rows_match_numpy(self):
        rng = np.random.default_rng(0)
        src = rng.standard_normal((300, 8))
        idx = rng.integers(0, 300, 700)
        for enabled in (False, True):
            with use_buffer_pool(enabled):
                assert np.array_equal(
                    pool.zeros((128, 9)), np.zeros((128, 9))
                )
                assert np.array_equal(pool.take_rows(src, idx), src[idx])

    def test_out_buffer_is_none_when_disabled(self):
        with use_buffer_pool(False):
            assert pool.out_buffer((512, 4)) is None
        with use_buffer_pool(True):
            buf = pool.out_buffer((512, 4))
            assert buf is not None and buf.shape == (512, 4)


def _random_graph_loss(seed: int, free_graph: bool):
    """A randomized small graph with diamonds and shared subexpressions.

    Returns the loss value and every leaf gradient; used to fuzz the
    pooled path against the reference path bit for bit.
    """
    rng = np.random.default_rng(seed)
    n, d, e, s = 40, 12, 90, 15
    W = Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)
    X = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    b = Tensor(rng.standard_normal(d), requires_grad=True)
    idx = rng.integers(0, n, e)
    seg = rng.integers(0, s, e)
    if seed % 2:
        seg = np.sort(seg)

    h = (X @ W + b).relu()
    g = gather_rows(h, idx)
    shared = g * g  # diamond: both branches consume `shared`
    branch_a = segment_sum(shared.exp().leaky_relu(0.1), seg, s)
    branch_b = shared + g / (shared.sum(axis=1, keepdims=True) + 2.0)
    att = segment_softmax(branch_b.sum(axis=1), seg, s)
    sliced = branch_a[: s // 2]
    loss = sliced.sum() * 0.25 + att.sum() - (h - 0.5).sum() / 7.0
    loss.backward(free_graph=free_graph)
    return (
        float(loss.data),
        W.grad.copy(),
        X.grad.copy(),
        b.grad.copy(),
    )


class TestPooledPathEquivalence:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_bitwise_vs_reference(self, fast, seed):
        with use_fast_kernels(fast):
            with use_buffer_pool(False):
                ref = _random_graph_loss(seed, free_graph=False)
            with use_buffer_pool(True):
                pooled = _random_graph_loss(seed, free_graph=False)
                retired = _random_graph_loss(seed, free_graph=True)
        assert ref[0] == pooled[0] == retired[0]
        for r, p, t in zip(ref[1:], pooled[1:], retired[1:]):
            np.testing.assert_array_equal(r, p)
            np.testing.assert_array_equal(r, t)

    def test_leaf_grad_buffer_reused_across_steps(self):
        with use_buffer_pool(True):
            t = Tensor(np.random.default_rng(3).standard_normal((600, 4)),
                       requires_grad=True)
            ((t * t).sum()).backward()
            first = t.grad
            t.zero_grad()
            assert t.grad is None  # the `grad is None` contract survives
            ((t * 2.0).sum()).backward()
            assert t.grad is first  # same buffer, overwritten in place


def _make_params(rng, with_grads=True):
    params = [
        Parameter(rng.standard_normal((64, 16))),
        Parameter(rng.standard_normal((128,))),
        Parameter(rng.standard_normal((8, 8, 4))),
    ]
    if with_grads:
        for p in params:
            p.grad = rng.standard_normal(p.data.shape)
    return params


class TestInPlaceOptimizers:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_bitwise(self, weight_decay):
        results = {}
        for enabled in (False, True):
            rng = np.random.default_rng(11)
            params = _make_params(rng)
            with use_buffer_pool(enabled):
                opt = Adam(params, lr=1e-3, weight_decay=weight_decay)
                for _ in range(5):
                    for p in params:
                        p.grad = rng.standard_normal(p.data.shape)
                    opt.step()
            results[enabled] = (
                [p.data.copy() for p in params],
                [m.copy() for m in opt._m],
                [v.copy() for v in opt._v],
            )
        for ref, pooled in zip(results[False], results[True]):
            for r, p in zip(ref, pooled):
                np.testing.assert_array_equal(r, p)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_sgd_bitwise(self, momentum, weight_decay):
        results = {}
        for enabled in (False, True):
            rng = np.random.default_rng(13)
            params = _make_params(rng)
            with use_buffer_pool(enabled):
                opt = SGD(params, lr=0.05, momentum=momentum,
                          weight_decay=weight_decay)
                for _ in range(5):
                    for p in params:
                        p.grad = rng.standard_normal(p.data.shape)
                    opt.step()
            results[enabled] = [p.data.copy() for p in params]
        for r, p in zip(results[False], results[True]):
            np.testing.assert_array_equal(r, p)

    def test_adam_skips_gradless_params(self):
        rng = np.random.default_rng(5)
        params = _make_params(rng)
        params[1].grad = None
        before = params[1].data.copy()
        with use_buffer_pool(True):
            Adam(params, lr=0.1).step()
        np.testing.assert_array_equal(params[1].data, before)
        assert not np.array_equal(params[0].data, _make_params(
            np.random.default_rng(5), with_grads=False)[0].data)

    def test_clip_grad_norm_bitwise(self):
        results = {}
        for enabled in (False, True):
            rng = np.random.default_rng(17)
            params = _make_params(rng)
            with use_buffer_pool(enabled):
                total = clip_grad_norm(params, max_norm=0.5)
            results[enabled] = (total, [p.grad.copy() for p in params])
        assert results[False][0] == results[True][0]
        for r, p in zip(results[False][1], results[True][1]):
            np.testing.assert_array_equal(r, p)


def _fit_and_predict(dataset, split, epochs=2):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(7)
    model = O2SiteRec(
        dataset, split, O2SiteRecConfig(capacity_dim=6, embedding_dim=20)
    )
    trainer = Trainer(
        model,
        TrainConfig(epochs=epochs, lr=1e-3, patience=epochs, min_epochs=epochs),
    )
    result = trainer.fit(pairs, targets)
    return np.asarray(result.train_losses), model.predict(split.test_pairs)


class TestWholeModelPin:
    """Pooled training is bit-for-bit equal to ``use_buffer_pool(False)``."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    def test_fit_curve_bitwise(self, micro_dataset, micro_split, fast):
        with use_fast_kernels(fast):
            with use_buffer_pool(True):
                curve_pool, pred_pool = _fit_and_predict(
                    micro_dataset, micro_split
                )
            with use_buffer_pool(False):
                curve_ref, pred_ref = _fit_and_predict(
                    micro_dataset, micro_split
                )
        np.testing.assert_array_equal(curve_pool, curve_ref)
        np.testing.assert_array_equal(pred_pool, pred_ref)


class TestTapeRetirement:
    def test_outstanding_returns_to_baseline(self):
        gp = pool.global_pool()
        with use_buffer_pool(True):
            _drain()
            baseline = gp.outstanding()
            loss_val, *_ = _random_graph_loss(0, free_graph=True)
            _drain()
            assert np.isfinite(loss_val)
            assert gp.outstanding() <= baseline + 1  # at most the loss scalar

    def test_free_graph_drops_tape_links(self):
        with use_buffer_pool(True):
            t = Tensor(np.ones((512, 4)), requires_grad=True)
            mid = (t * 3.0).relu()
            loss = mid.sum()
            loss.backward(free_graph=True)
            assert mid._backward is None and mid._parents == ()
            assert loss._backward is None and loss._parents == ()
            assert t.grad is not None
            # A second backward through the retired tape must not reach t.
            before = t.grad.copy()
            loss.backward()
            np.testing.assert_array_equal(t.grad, before)

    def test_plain_backward_keeps_tape(self):
        with use_buffer_pool(True):
            t = Tensor(np.ones((512, 4)), requires_grad=True)
            loss = (t * 3.0).sum()
            loss.backward()
            assert loss._backward is not None
            loss.backward()  # accumulates a second pass
            np.testing.assert_array_equal(t.grad, np.full((512, 4), 6.0))


class TestMemprof:
    def test_report_counts_pooled_requests(self):
        memprof.reset()
        with memprof.use_mem_profile(True), use_buffer_pool(True):
            a = Tensor(np.ones((700, 8)), requires_grad=True)
            ((a * 2.0).relu().sum()).backward()
        snap = memprof.report()
        assert snap["total_alloc_count"] > 0
        assert snap["total_alloc_bytes"] > 0
        assert "mul" in snap["allocs"]
        assert snap["pool"]["hits"] + snap["pool"]["misses"] > 0
        text = memprof.format_report(snap)
        assert "memory plane report" in text and "mul" in text
        memprof.reset()
        assert memprof.report()["total_alloc_count"] == 0

    def test_disabled_by_default(self):
        assert not memprof.enabled() or True  # env may enable it; smoke only
        memprof.reset()
        with memprof.use_mem_profile(False), use_buffer_pool(True):
            b = pool.empty((600, 8))
            del b
        assert memprof.report()["total_alloc_count"] == 0


class TestSwitchPlumbing:
    def test_env_default_is_on(self):
        assert buffer_pool_enabled() in (True, False)  # importable + callable

    def test_context_manager_restores(self):
        previous = buffer_pool_enabled()
        with use_buffer_pool(not previous):
            assert buffer_pool_enabled() is (not previous)
        assert buffer_pool_enabled() is previous
