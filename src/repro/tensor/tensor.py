"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, the computational substrate
for every neural model in this repository (the paper's reference
implementation uses PyTorch; this is a self-contained replacement).

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations used
to produce it.  Calling :meth:`Tensor.backward` on a result walks the
recorded graph in reverse topological order and accumulates gradients into
every tensor created with ``requires_grad=True``.

Design note: each op's backward is a closure that receives the output
gradient and *returns* ``(parent, parent_grad)`` pairs.  Closures capture
only their parents and local constants -- never the output tensor -- so a
discarded graph is reclaimed by reference counting alone, without waiting
for the cycle collector (important for training loops that build thousands
of small graphs).

Broadcasting follows numpy semantics; gradients of broadcast operands are
reduced back to the operand's shape (see :func:`unbroadcast`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import plan as _plan
from . import pool as _pool

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# A backward rule maps the output gradient to (parent, gradient) pairs.
BackwardRule = Callable[[np.ndarray], Iterable[Tuple["Tensor", np.ndarray]]]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Inverse of numpy broadcasting: axes that were added are summed away and
    axes that were stretched from size 1 are summed back to size 1.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _bshape(a: np.ndarray, b: np.ndarray) -> Tuple[int, ...]:
    """Result shape of a broadcast binary op (fast path for equal shapes)."""
    if a.shape == b.shape:
        return a.shape
    return np.broadcast_shapes(a.shape, b.shape)


def _accumulate_leaf(node: "Tensor", node_grad: np.ndarray, pooled: bool) -> None:
    """Fold ``node_grad`` into a leaf's ``.grad`` (reusing buffers if pooled)."""
    if node.grad is None:
        if pooled:
            buf = node._grad_buf
            node._grad_buf = None
            if buf is not None and buf.shape == node_grad.shape:
                # The buffer parked by zero_grad: overwrite in place
                # (bit-for-bit equal to node_grad.copy()).
                np.copyto(buf, node_grad)
                node.grad = buf
                return
        node.grad = node_grad.copy()
    elif pooled:
        # The leaf's .grad is exclusively owned (created by copy/copyto
        # above), so in-place accumulation is safe and bit-identical.
        np.add(node.grad, node_grad, out=node.grad)
    else:
        node.grad = node.grad + node_grad


# Tape recording switch (process-wide, like the buffer-pool switch).
_grad_enabled = True


def is_grad_enabled() -> bool:
    """Whether new tensors record their parents and backward closure."""
    return _grad_enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no tape: tensors created inside keep no parents and no backward.

    Values are unchanged -- every op runs the same kernels -- but nothing
    pins the intermediates, so each one is reclaimed as soon as its last
    consumer has read it.  Inference entry points (``O2SiteRec.predict``,
    ``O2SiteRec.export_embeddings``) run under it.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _emit_ufunc2(ufunc, x: np.ndarray, y: np.ndarray, dst: np.ndarray) -> None:
    """Step-capture thunk for a binary ufunc: same kernel, out= in place."""
    _plan.emit(lambda: ufunc(x, y, out=dst))


def _emit_ufunc1(ufunc, x: np.ndarray, dst: np.ndarray) -> None:
    _plan.emit(lambda: ufunc(x, out=dst))


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = (
        "data",
        "grad",
        "_grad_buf",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[BackwardRule] = None,
        name: str = "",
    ) -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._grad_buf: Optional[np.ndarray] = None
        if not _grad_enabled:
            parents, backward = (), None
        self.requires_grad: bool = requires_grad or any(
            p.requires_grad for p in parents
        )
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward: Optional[BackwardRule] = backward
        self.name = name
        if backward is not None and _plan._TRACE is not None:
            # Step capture coverage: every tape node must be matched by a
            # replay-thunk emission at its op site (see repro.tensor.plan).
            _plan._TRACE.count_node()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        # With the buffer pool on, park the gradient buffer instead of
        # dropping it: the next backward overwrites it in place
        # (np.copyto), so leaf gradients stop allocating at steady state.
        if self.grad is not None and _pool.buffer_pool_enabled():
            self._grad_buf = self.grad
        self.grad = None

    def release_data(self) -> None:
        """Drop this interior node's value array, keeping the autograd node.

        Tape slimming for op outputs that are consumed at graph-build time
        only: once every forward consumer has read ``.data`` and no
        backward rule re-reads it (matmul-style rules read their
        *parents'* data; scatter-style rules read only gradients), the
        value is dead weight pinned for the rest of the step.  The data is
        replaced by a zero-stride placeholder of the same shape and dtype,
        so the (pooled) buffer recycles immediately mid-forward while
        shape introspection keeps working; an accidental later read sees
        deterministic zeros, not freed memory.

        The caller asserts the no-later-read contract.  No-op on leaves
        (their data is the model state) and with the buffer pool disabled,
        which keeps the reference allocation path untouched.
        """
        if self._backward is None or not _pool.buffer_pool_enabled():
            return
        self.data = np.broadcast_to(
            np.zeros((), dtype=self.data.dtype), self.data.shape
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd driver
    # ------------------------------------------------------------------
    def backward(
        self, grad: Optional[np.ndarray] = None, free_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so ``loss.backward()`` works for scalar
        losses).  Gradients accumulate into ``.grad`` of every reachable
        tensor with ``requires_grad=True``.

        With ``free_graph=True`` the tape is retired as it is consumed:
        each node's ``_parents``/``_backward`` links are dropped right
        after its gradient has been propagated, so intermediate tensors
        (and their pooled buffers) are reclaimed *during* the walk --
        backward gradients recycle the forward pass's buffers instead of
        stacking on top of the full tape -- and peak memory stops scaling
        with graph depth.  Retired tensors keep ``data`` and ``grad`` but
        cannot be backpropagated through again.

        With the buffer pool on (the default), gradient
        fan-in accumulates in place into driver-owned pooled buffers
        (``np.add(g, pg, out=g)``) -- bit-for-bit identical to the
        reference ``g + pg`` binding, without the per-accumulation
        allocation.  An accumulator is only ever mutated when this driver
        created it; gradients handed back by op closures (which may alias
        the output gradient or each other) are never written to.
        """
        pooled = _pool.buffer_pool_enabled()
        seed_owned = False
        if grad is None:
            if pooled:
                grad = _pool.empty(self.data.shape, tag="seed-grad")
                grad.fill(1.0)
                seed_owned = True
            else:
                grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        order = self._topological_order()
        grads: dict = {id(self): grad}
        # Keys whose accumulator buffer was created by this driver and is
        # therefore safe to mutate in place.
        owned: set = {id(self)} if seed_owned else set()
        for i in range(len(order)):
            node = order[i]
            key = id(node)
            node_grad = grads.pop(key, None)
            owned.discard(key)
            if node_grad is not None:
                if node._backward is None:
                    if node.requires_grad:
                        _accumulate_leaf(node, node_grad, pooled)
                else:
                    for parent, parent_grad in node._backward(node_grad):
                        if not parent.requires_grad:
                            continue
                        pkey = id(parent)
                        existing = grads.get(pkey)
                        if existing is None:
                            grads[pkey] = parent_grad
                        elif pooled:
                            if pkey in owned:
                                np.add(existing, parent_grad, out=existing)
                            else:
                                buf = _pool.empty(
                                    existing.shape, tag="grad-accum"
                                )
                                np.add(existing, parent_grad, out=buf)
                                grads[pkey] = buf
                                owned.add(pkey)
                        else:
                            grads[pkey] = existing + parent_grad
            if free_graph:
                node._backward = None
                node._parents = ()
                order[i] = None
            # Drop the loop references so a retired node (and its pooled
            # buffers) frees before the next iteration's allocations.
            node = None
            node_grad = None

    def _topological_order(self) -> List["Tensor"]:
        """Reverse topological order (this tensor first)."""
        order: List[Tensor] = []
        visited: set = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Binary arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            # Gradients are only materialised for parents that need them:
            # constants (edge attributes, dropout masks, feature matrices)
            # are everywhere in the hot path and their grads would be
            # computed only to be discarded by the driver.
            out = []
            if a.requires_grad:
                out.append((a, unbroadcast(grad, a.shape)))
            if b.requires_grad:
                out.append((b, unbroadcast(grad, b.shape)))
            return out

        value = np.add(
            a.data, b.data, out=_pool.out_buffer(_bshape(a.data, b.data), tag="add")
        )
        out = Tensor(value, parents=(a, b), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc2(np.add, a.data, b.data, out.data)
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            out = []
            if a.requires_grad:
                out.append((a, unbroadcast(grad, a.shape)))
            if b.requires_grad:
                neg = np.negative(
                    grad, out=_pool.out_buffer(grad.shape, tag="sub-bwd")
                )
                out.append((b, unbroadcast(neg, b.shape)))
            return out

        value = np.subtract(
            a.data, b.data, out=_pool.out_buffer(_bshape(a.data, b.data), tag="sub")
        )
        out = Tensor(value, parents=(a, b), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc2(np.subtract, a.data, b.data, out.data)
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            out = []
            if a.requires_grad:
                ga = np.multiply(
                    grad,
                    b.data,
                    out=_pool.out_buffer(_bshape(grad, b.data), tag="mul-bwd"),
                )
                out.append((a, unbroadcast(ga, a.shape)))
            if b.requires_grad:
                gb = np.multiply(
                    grad,
                    a.data,
                    out=_pool.out_buffer(_bshape(grad, a.data), tag="mul-bwd"),
                )
                out.append((b, unbroadcast(gb, b.shape)))
            return out

        value = np.multiply(
            a.data, b.data, out=_pool.out_buffer(_bshape(a.data, b.data), tag="mul")
        )
        out = Tensor(value, parents=(a, b), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc2(np.multiply, a.data, b.data, out.data)
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            out = []
            if a.requires_grad:
                ga = np.divide(
                    grad,
                    b.data,
                    out=_pool.out_buffer(_bshape(grad, b.data), tag="div-bwd"),
                )
                out.append((a, unbroadcast(ga, a.shape)))
            if b.requires_grad:
                out.append((b, unbroadcast(-grad * a.data / (b.data**2), b.shape)))
            return out

        value = np.divide(
            a.data, b.data, out=_pool.out_buffer(_bshape(a.data, b.data), tag="div")
        )
        out = Tensor(value, parents=(a, b), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc2(np.divide, a.data, b.data, out.data)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            neg = np.negative(grad, out=_pool.out_buffer(grad.shape, tag="neg-bwd"))
            return ((a, neg),)

        value = np.negative(a.data, out=_pool.out_buffer(a.shape, tag="neg"))
        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc1(np.negative, a.data, out.data)
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self

        def backward(grad: np.ndarray):
            return ((a, grad * exponent * a.data ** (exponent - 1)),)

        out = Tensor(a.data**exponent, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            # ``**`` takes numpy's scalar-power fast paths (x*x for 2 etc.);
            # re-running the original expression keeps that bit-for-bit.
            x, dst = a.data, out.data
            _plan.emit(lambda: np.copyto(dst, x**exponent))
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched operands."""
        other = as_tensor(other)
        a, b = self, other

        def backward(grad: np.ndarray):
            a_data, b_data = a.data, b.data
            need_a, need_b = a.requires_grad, b.requires_grad
            out = []
            if a_data.ndim == 1 and b_data.ndim == 1:
                if need_a:
                    out.append((a, grad * b_data))
                if need_b:
                    out.append((b, grad * a_data))
            elif a_data.ndim == 1:
                if need_a:
                    out.append((a, grad @ b_data.T))
                if need_b:
                    out.append((b, np.outer(a_data, grad)))
            elif b_data.ndim == 1:
                if need_a:
                    out.append((a, np.outer(grad, b_data)))
                if need_b:
                    out.append((b, a_data.T @ grad))
            elif a_data.ndim == 2 and b_data.ndim == 2:
                if need_a:
                    ga = np.matmul(
                        grad,
                        b_data.T,
                        out=_pool.out_buffer(a_data.shape, tag="matmul-bwd"),
                    )
                    out.append((a, ga))
                if need_b:
                    gb = np.matmul(
                        a_data.T,
                        grad,
                        out=_pool.out_buffer(b_data.shape, tag="matmul-bwd"),
                    )
                    out.append((b, gb))
            else:
                if need_a:
                    ga = grad @ np.swapaxes(b_data, -1, -2)
                    out.append((a, unbroadcast(ga, a_data.shape)))
                if need_b:
                    gb = np.swapaxes(a_data, -1, -2) @ grad
                    out.append((b, unbroadcast(gb, b_data.shape)))
            return out

        if a.data.ndim == 2 and b.data.ndim == 2:
            value = np.matmul(
                a.data,
                b.data,
                out=_pool.out_buffer(
                    (a.data.shape[0], b.data.shape[1]), tag="matmul"
                ),
            )
        else:
            value = a.data @ b.data
        out = Tensor(value, parents=(a, b), backward=backward)
        if _plan._TRACE is not None:
            x, y, dst = a.data, b.data, out.data
            if x.ndim == 2 and y.ndim == 2:
                _plan.emit(lambda: np.matmul(x, y, out=dst))
            else:
                _plan.emit(lambda: np.copyto(dst, x @ y))
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        value = np.exp(a.data, out=_pool.out_buffer(a.shape, tag="exp"))

        def backward(grad: np.ndarray):
            g = np.multiply(
                grad, value, out=_pool.out_buffer(grad.shape, tag="exp-bwd")
            )
            return ((a, g),)

        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            # The closure reads the captured ``value``; refresh that object.
            if isinstance(value, np.ndarray):
                _emit_ufunc1(np.exp, a.data, value)
            else:
                _plan.poison("exp of a 0-d tensor")
        return out

    def log(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            return ((a, grad / a.data),)

        out = Tensor(np.log(a.data), parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc1(np.log, a.data, out.data)
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            return ((a, grad * np.sign(a.data)),)

        out = Tensor(np.abs(a.data), parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _emit_ufunc1(np.absolute, a.data, out.data)
        return out

    def relu(self) -> "Tensor":
        a = self
        mask = np.greater(
            a.data, 0, out=_pool.out_buffer(a.shape, np.bool_, tag="relu-mask")
        )

        def backward(grad: np.ndarray):
            g = np.multiply(
                grad, mask, out=_pool.out_buffer(grad.shape, tag="relu-bwd")
            )
            return ((a, g),)

        value = np.multiply(
            a.data, mask, out=_pool.out_buffer(a.shape, tag="relu")
        )
        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            if isinstance(mask, np.ndarray):
                x, dst = a.data, out.data

                def _replay_relu():
                    np.greater(x, 0, out=mask)
                    np.multiply(x, mask, out=dst)

                _plan.emit(_replay_relu)
            else:
                _plan.poison("relu of a 0-d tensor")
        return out

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        a = self
        scale = np.where(a.data > 0, 1.0, slope)

        def backward(grad: np.ndarray):
            g = np.multiply(
                grad, scale, out=_pool.out_buffer(grad.shape, tag="lrelu-bwd")
            )
            return ((a, g),)

        value = np.multiply(
            a.data, scale, out=_pool.out_buffer(a.shape, tag="lrelu")
        )
        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            if isinstance(scale, np.ndarray):
                x, dst = a.data, out.data

                def _replay_lrelu():
                    np.copyto(scale, np.where(x > 0, 1.0, slope))
                    np.multiply(x, scale, out=dst)

                _plan.emit(_replay_lrelu)
            else:
                _plan.poison("leaky_relu of a 0-d tensor")
        return out

    def sigmoid(self) -> "Tensor":
        a = self
        value = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))

        def backward(grad: np.ndarray):
            return ((a, grad * value * (1.0 - value)),)

        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            x = a.data
            _plan.emit_refresh(
                value, lambda: 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
            )
        return out

    def tanh(self) -> "Tensor":
        a = self
        value = np.tanh(a.data)

        def backward(grad: np.ndarray):
            return ((a, grad * (1.0 - value**2)),)

        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            if isinstance(value, np.ndarray):
                _emit_ufunc1(np.tanh, a.data, value)
            else:
                _plan.poison("tanh of a 0-d tensor")
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        shape = a.shape

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    g = np.expand_dims(g, axis=ax)
            buf = _pool.out_buffer(shape, tag="sum-bwd")
            if buf is None:
                return ((a, np.broadcast_to(g, shape).copy()),)
            np.copyto(buf, g)  # broadcasting copy, == broadcast_to().copy()
            return ((a, buf),)

        out = Tensor(
            a.data.sum(axis=axis, keepdims=keepdims), parents=(a,), backward=backward
        )
        if _plan._TRACE is not None:
            x, dst = a.data, out.data
            _plan.emit(lambda: np.sum(x, axis=axis, keepdims=keepdims, out=dst))
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        shape = a.shape
        value = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            g, v = grad, value
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(ax % len(shape) for ax in axes)
                for ax in sorted(axes):
                    g = np.expand_dims(g, axis=ax)
                    v = np.expand_dims(v, axis=ax)
            mask = a.data == v
            # Split gradient evenly among ties (subgradient convention).
            counts = (
                mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            )
            return ((a, np.where(mask, g / counts, 0.0)),)

        out = Tensor(value, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            # The closure reads the captured ``value`` (max of a 0-d or
            # full reduction yields a scalar -> not refreshable -> poison).
            x = a.data
            _plan.emit_refresh(
                value, lambda: x.max(axis=axis, keepdims=keepdims)
            )
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(grad: np.ndarray):
            return ((a, grad.reshape(original)),)

        out = Tensor(a.data.reshape(shape), parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            x = a.data
            _plan.emit_view(out.data, x, lambda: x.reshape(shape))
        return out

    def transpose(self, *axes: int) -> "Tensor":
        a = self
        if not axes:
            axes_seq: Optional[Tuple[int, ...]] = None
            data = a.data.T
        else:
            if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
                axes = tuple(axes[0])
            axes_seq = tuple(axes)
            data = a.data.transpose(axes_seq)

        def backward(grad: np.ndarray):
            if axes_seq is None:
                return ((a, grad.T),)
            return ((a, grad.transpose(np.argsort(axes_seq))),)

        out = Tensor(data, parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _plan.emit_view(out.data, a.data)
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def expand_dims(self, axis: int) -> "Tensor":
        a = self

        def backward(grad: np.ndarray):
            return ((a, np.squeeze(grad, axis=axis)),)

        out = Tensor(np.expand_dims(a.data, axis), parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _plan.emit_view(out.data, a.data)
        return out

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        a = self
        original = a.shape

        def backward(grad: np.ndarray):
            return ((a, grad.reshape(original)),)

        out = Tensor(np.squeeze(a.data, axis=axis), parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            _plan.emit_view(out.data, a.data)
        return out

    def __getitem__(self, index) -> "Tensor":
        a = self
        shape = a.shape
        # Slices and plain ints cannot alias, so the scatter-add collapses
        # to a direct in-place add; only fancy (array) indices need the
        # slow duplicate-aware np.add.at.
        simple = isinstance(index, (int, slice)) or (
            isinstance(index, tuple)
            and all(isinstance(i, (int, slice)) for i in index)
        )

        def backward(grad: np.ndarray):
            full = _pool.zeros(shape, tag="getitem-bwd")
            if simple:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            return ((a, full),)

        out = Tensor(a.data[index], parents=(a,), backward=backward)
        if _plan._TRACE is not None:
            x = a.data
            _plan.emit_view(out.data, x, lambda: x[index])
        return out
