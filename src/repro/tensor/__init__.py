"""Numpy-backed reverse-mode autodiff substrate.

The paper's reference implementation runs on PyTorch; this package is the
self-contained replacement used by every model in the repository.
"""

from . import cnative, memprof, plan, pool
from .grad_check import check_gradients, numerical_gradient
from .plan import CompiledStep
from .pool import (
    BufferPool,
    buffer_pool_enabled,
    global_pool,
    set_buffer_pool,
    use_buffer_pool,
)
from .ops import (
    MATMUL_BLOCK,
    concat,
    edge_message,
    edge_message_value,
    gather_rows,
    matmul_blocked,
    rows_matmul,
    gather_rows_reference,
    ones,
    period_attention,
    segment_attention,
    segment_counts,
    segment_mean,
    segment_softmax,
    segment_softmax_reference,
    segment_sum,
    segment_sum_reference,
    softmax,
    stack,
    where,
    zeros,
)
from .segment import (
    SegmentPlan,
    clear_plan_cache,
    fast_kernels_enabled,
    get_plan,
    plan_cache_info,
    set_fast_kernels,
    use_fast_kernels,
)
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "Tensor",
    "as_tensor",
    "unbroadcast",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "stack",
    "gather_rows",
    "gather_rows_reference",
    "edge_message",
    "edge_message_value",
    "MATMUL_BLOCK",
    "matmul_blocked",
    "rows_matmul",
    "segment_sum",
    "segment_sum_reference",
    "segment_mean",
    "segment_counts",
    "segment_softmax",
    "segment_softmax_reference",
    "segment_attention",
    "period_attention",
    "softmax",
    "where",
    "zeros",
    "ones",
    "check_gradients",
    "numerical_gradient",
    "SegmentPlan",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "fast_kernels_enabled",
    "set_fast_kernels",
    "cnative",
    "use_fast_kernels",
    "pool",
    "memprof",
    "plan",
    "CompiledStep",
    "BufferPool",
    "global_pool",
    "buffer_pool_enabled",
    "set_buffer_pool",
    "use_buffer_pool",
]
