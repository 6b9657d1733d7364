"""Fast-path kernels: SegmentPlan, fused ops, C kernels, path equivalence.

Three layers of guarantees, matching what the fast path promises:

* the SegmentPlan reductions are drop-in replacements for the
  ``np.add.at`` / ``np.maximum.at`` scatters (empty segments, repeated
  indices, presorted and unsorted ids);
* the fused autograd nodes (``edge_message``, ``segment_attention``,
  ``period_attention``) match the composed reference chains to 1e-9 in the
  forward and pass a central-difference gradient check -- with the compiled
  C kernels both on and off;
* whole-model predictions and training-loss curves agree between the
  reference path, the per-period oracle and every fast configuration
  (batched, factored capacity), and the default path trains the same bytes
  whatever the host's core count.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.core import O2SiteRec, O2SiteRecConfig, TrainConfig, Trainer
from repro.nn import FactoredEdgeAttr, MultiHeadSegmentAttention, init
from repro.tensor import (
    Tensor,
    concat,
    cnative,
    edge_message,
    gather_rows,
    period_attention,
    segment_attention,
    segment_softmax,
    segment_sum,
    use_fast_kernels,
)
from repro.tensor.segment import get_plan


C_MODES = [False, True] if cnative.available() else [False]


@pytest.fixture(params=C_MODES, ids=lambda c: "c" if c else "numpy")
def c_kernels(request):
    """Run a test under both kernel backends where C is available."""
    previous = cnative.set_c_kernels(request.param)
    yield request.param
    cnative.set_c_kernels(previous)


def numeric_grad(fn, value, h=1e-6):
    """Central-difference gradient of scalar ``fn`` w.r.t. ``value``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn()
        flat[i] = keep - h
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * h)
    return grad


class TestSegmentPlan:
    @pytest.mark.parametrize("presorted", [True, False])
    def test_sum_matches_add_at(self, rng, presorted):
        ids = rng.integers(0, 9, 40).astype(np.int64)
        ids[ids == 3] = 4  # segment 3 stays empty
        ids[:5] = 7  # repeated indices
        if presorted:
            ids = np.sort(ids)
        values = rng.standard_normal((40, 6))
        expected = np.zeros((9, 6))
        np.add.at(expected, ids, values)
        np.testing.assert_allclose(
            get_plan(ids, 9).sum(values), expected, atol=1e-12
        )

    def test_max_matches_maximum_at(self, rng):
        ids = rng.integers(0, 7, 30).astype(np.int64)
        ids[ids == 2] = 5
        scores = rng.standard_normal((30, 3))
        expected = np.full((7, 3), -np.inf)
        np.maximum.at(expected, ids, scores)
        np.testing.assert_array_equal(
            get_plan(ids, 7).max(scores), expected
        )

    def test_plan_cached_by_identity(self):
        ids = np.array([0, 0, 2, 2, 2], dtype=np.int64)
        assert get_plan(ids, 3) is get_plan(ids, 3)
        assert get_plan(ids.copy(), 3) is not get_plan(ids, 3)


class TestEdgeMessage:
    def _reference(self, pre, eproj, bias, src, extra=()):
        buf = pre.data[src]
        for values, idx in extra:
            buf = buf + values.data[idx]
        if eproj is not None:
            buf = buf + eproj.data
        return np.maximum(buf + bias.data, 0.0)

    def test_forward_matches_reference(self, rng, c_kernels):
        src = rng.integers(0, 5, 12).astype(np.int64)
        pre = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        eproj = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        out = edge_message(pre, eproj, bias, src)
        np.testing.assert_allclose(
            out.data, self._reference(pre, eproj, bias, src), atol=1e-9
        )

    def test_gradients(self, rng, c_kernels):
        src = np.array([0, 2, 2, 1, 0, 2, 4, 3], dtype=np.int64)  # 2 repeats
        pre = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        eproj = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(3), requires_grad=True)
        probe = rng.standard_normal((8, 3))

        out = edge_message(pre, eproj, bias, src)
        (out * Tensor(probe)).sum().backward()

        for tensor in (pre, eproj, bias):
            def value():
                return float(
                    (self._reference(pre, eproj, bias, src) * probe).sum()
                )

            np.testing.assert_allclose(
                tensor.grad, numeric_grad(value, tensor.data), atol=1e-5
            )

    def test_factored_extras_match_dense(self, rng, c_kernels):
        """Two gathered blocks == the dense concat they factor."""
        src = rng.integers(0, 4, 10).astype(np.int64)
        i0 = rng.integers(0, 6, 10).astype(np.int64)
        i1 = rng.integers(0, 6, 10).astype(np.int64)
        pre = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(3), requires_grad=True)

        out = edge_message(pre, None, bias, src, extra=[(table, i0), (table, i1)])
        dense = edge_message(
            pre, gather_rows(table, i0) + gather_rows(table, i1), bias, src
        )
        np.testing.assert_allclose(out.data, dense.data, atol=1e-9)

        probe = rng.standard_normal((10, 3))
        (out * Tensor(probe)).sum().backward()
        got = {t: t.grad.copy() for t in (pre, table, bias)}
        for t in (pre, table, bias):
            t.grad = None
        (dense * Tensor(probe)).sum().backward()
        for t in (pre, table, bias):
            np.testing.assert_allclose(got[t], t.grad, atol=1e-9)


class TestSegmentAttention:
    H, HD = 3, 4

    def _inputs(self, rng, num_edges=14, num_nodes=6, empty=True):
        ids = np.sort(rng.integers(0, num_nodes, num_edges)).astype(np.int64)
        if empty:
            ids[ids == 1] = 2  # leave segment 1 with no edges
        dim = self.H * self.HD
        fused = Tensor(rng.standard_normal((num_edges, dim)), requires_grad=True)
        key_w = Tensor(rng.standard_normal((dim, dim)) * 0.3, requires_grad=True)
        queries = Tensor(
            rng.standard_normal((num_nodes, self.H, self.HD)), requires_grad=True
        )
        return fused, key_w, queries, ids, num_nodes

    def _reference(self, fused, key_w, queries, ids, num_nodes, scale):
        """The composed 10-node chain the fused kernel replaces."""
        num_edges, dim = fused.shape
        keys = (fused @ key_w).reshape(num_edges, self.H, self.HD)
        q_edge = gather_rows(
            queries.reshape(num_nodes, dim), ids
        ).reshape(num_edges, self.H, self.HD)
        # (E, H) per-head scores.
        scores = ((keys * q_edge).sum(axis=2) * scale).leaky_relu(0.2)
        weights = segment_softmax(scores, ids, num_nodes)
        weighted = (keys * weights.expand_dims(2)).reshape(num_edges, dim)
        return segment_sum(weighted, ids, num_nodes).relu()

    @pytest.mark.parametrize("presorted", [True, False])
    def test_forward_matches_reference(self, rng, c_kernels, presorted):
        fused, key_w, queries, ids, n = self._inputs(rng)
        if not presorted:
            ids = rng.permutation(ids)
        scale = 1.0 / np.sqrt(self.HD)
        out = segment_attention(fused, key_w, queries, ids, n, scale)
        ref = self._reference(fused, key_w, queries, ids, n, scale)
        assert out.shape == (n, self.H * self.HD)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-9)
        assert np.all(out.data[1] == 0.0)  # the empty segment

    def test_gradients_match_reference(self, rng, c_kernels):
        fused, key_w, queries, ids, n = self._inputs(rng)
        scale = 1.0 / np.sqrt(self.HD)
        probe = rng.standard_normal((n, self.H * self.HD))

        out = segment_attention(fused, key_w, queries, ids, n, scale)
        (out * Tensor(probe)).sum().backward()
        got = {t: t.grad.copy() for t in (fused, key_w, queries)}
        for t in (fused, key_w, queries):
            t.grad = None
        ref = self._reference(fused, key_w, queries, ids, n, scale)
        (ref * Tensor(probe)).sum().backward()
        for t in (fused, key_w, queries):
            np.testing.assert_allclose(got[t], t.grad, atol=1e-9)

    def test_numeric_grad(self, rng, c_kernels):
        fused, key_w, queries, ids, n = self._inputs(rng, num_edges=8, num_nodes=4)
        scale = 1.0 / np.sqrt(self.HD)
        probe = rng.standard_normal((n, self.H * self.HD))

        out = segment_attention(fused, key_w, queries, ids, n, scale)
        (out * Tensor(probe)).sum().backward()

        for tensor in (fused, key_w, queries):
            def value():
                out = segment_attention(fused, key_w, queries, ids, n, scale)
                return float((out.data * probe).sum())

            np.testing.assert_allclose(
                tensor.grad, numeric_grad(value, tensor.data), atol=1e-5
            )


class TestPeriodAttentionOp:
    def test_numeric_grad(self, rng):
        periods, k, heads, dim = 3, 4, 2, 6
        flat = Tensor(rng.standard_normal((periods * k, dim)), requires_grad=True)
        wk = Tensor(rng.standard_normal((dim, dim)) * 0.3, requires_grad=True)
        wq = Tensor(rng.standard_normal((dim, dim)) * 0.3, requires_grad=True)
        scale = 1.0 / np.sqrt(dim // heads)
        probe = rng.standard_normal((k, dim))

        out, weights = period_attention(flat, wk, wq, periods, heads, scale)
        assert weights.shape == (periods, k, heads)
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-12)
        (out * Tensor(probe)).sum().backward()

        for tensor in (flat, wk, wq):
            def value():
                out, _ = period_attention(flat, wk, wq, periods, heads, scale)
                return float((out.data * probe).sum())

            np.testing.assert_allclose(
                tensor.grad, numeric_grad(value, tensor.data), atol=1e-5
            )


class TestFactoredEdgeAttr:
    def test_aggregator_matches_dense_attr(self, rng, c_kernels):
        init.seed(0)
        module = MultiHeadSegmentAttention(
            query_dim=6, source_dim=6, edge_dim=8, num_heads=2, head_dim=3
        )
        src = rng.integers(0, 5, 12).astype(np.int64)
        dst = np.sort(rng.integers(0, 4, 12)).astype(np.int64)
        target = Tensor(rng.standard_normal((4, 6)))
        source = Tensor(rng.standard_normal((5, 6)))
        static = Tensor(rng.standard_normal((12, 2)))
        table = Tensor(rng.standard_normal((7, 3)))
        i0 = rng.integers(0, 7, 12).astype(np.int64)
        i1 = rng.integers(0, 7, 12).astype(np.int64)

        factored = FactoredEdgeAttr(static, [(table, i0), (table, i1)])
        assert factored.dim == 8
        dense = concat(
            [static, gather_rows(table, i0), gather_rows(table, i1)], axis=1
        )
        out_f = module(target, source, src, dst, factored)
        out_d = module(target, source, src, dst, dense)
        np.testing.assert_allclose(out_f.data, out_d.data, atol=1e-9)
        # The reference path densifies the container itself.
        with use_fast_kernels(False):
            out_r = module(target, source, src, dst, factored)
        np.testing.assert_allclose(out_f.data, out_r.data, atol=1e-9)


def _fit(dataset, split, config, epochs=3, route=lambda model: model):
    pairs = split.train_pairs
    targets = dataset.pair_targets(pairs)
    init.seed(7)
    model = route(O2SiteRec(dataset, split, config))
    trainer = Trainer(
        model,
        TrainConfig(epochs=epochs, lr=1e-3, patience=epochs, min_epochs=epochs),
    )
    return model, trainer.fit(pairs, targets)


def _fit_curve(dataset, split, config, epochs=3, route=lambda model: model):
    model, result = _fit(dataset, split, config, epochs, route)
    init.seed(7)  # predict in eval mode is RNG-free, reseed for symmetry
    return np.asarray(result.train_losses), model.predict(split.test_pairs)


ABLATIONS = {
    "full": O2SiteRecConfig(capacity_dim=6, embedding_dim=20),
    "wo_na": O2SiteRecConfig(capacity_dim=6, embedding_dim=20).without_node_attention(),
    "wo_sa": O2SiteRecConfig(capacity_dim=6, embedding_dim=20).without_time_attention(),
    "wo_cocu": O2SiteRecConfig(
        capacity_dim=6, embedding_dim=20
    ).without_capacity_and_preferences(),
}


class TestPathEquivalence:
    """Whole-model: every fast configuration tracks the reference path."""

    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_fit_and_predict_match_reference(
        self, micro_dataset, micro_split, name
    ):
        config = ABLATIONS[name]
        curve_fast, pred_fast = _fit_curve(micro_dataset, micro_split, config)
        with use_fast_kernels(False):
            curve_ref, pred_ref = _fit_curve(micro_dataset, micro_split, config)
        np.testing.assert_allclose(curve_fast, curve_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(pred_fast, pred_ref, rtol=0, atol=1e-9)

    def test_same_bytes_on_any_host(self, micro_dataset, micro_split, monkeypatch):
        """One seed, one byte stream: the default path ignores the core count."""
        fingerprints = []
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            model, result = _fit(micro_dataset, micro_split, ABLATIONS["full"])
            digest = hashlib.sha256()
            for param in model.parameters():
                digest.update(param.data.tobytes())
            fingerprints.append(
                (result.train_losses, result.validation_losses, digest.hexdigest())
            )
        assert fingerprints[1] == fingerprints[0]
        assert fingerprints[2] == fingerprints[0]

    def test_batched_matches_per_period(
        self, micro_dataset, micro_split, per_period_reference
    ):
        config = ABLATIONS["full"]
        curve_batched, pred_batched = _fit_curve(micro_dataset, micro_split, config)
        curve_pp, pred_pp = _fit_curve(
            micro_dataset, micro_split, config, route=per_period_reference
        )
        np.testing.assert_allclose(curve_batched, curve_pp, rtol=0, atol=1e-9)
        np.testing.assert_allclose(pred_batched, pred_pp, rtol=0, atol=1e-9)
