"""Runtime-compiled C kernels for the hottest segment-attention loops.

The numpy fast path (:mod:`repro.tensor.segment`) already replaces
``ufunc.at`` scatter loops with sorted ``reduceat`` reductions, but every
numpy expression still costs one full pass over the edge-sized arrays, and
a multi-head segment attention needs ~10 of them.  On the bandwidth-bound
single-core training profile those passes, not FLOPs, dominate.

This module compiles a tiny C library once per machine (cached in the
temp directory, keyed by a hash of the source) and exposes three fused
kernels that collapse the per-edge work into one or two passes:

``edge_fuse_fwd`` / ``edge_fuse_bwd``
    ``relu(pre[src] + eproj + bias)`` and its backward (mask, scatter-add
    to the source rows, bias column-sum) -- the aggregator's edge-message
    prelude.
``seg_att_fwd`` / ``seg_att_bwd``
    The per-edge bilinear scores, leaky relu, segment softmax and weighted
    segment sum of :func:`repro.tensor.ops.segment_attention` (and its
    backward), walking each segment run once in plan-sorted order.

The arithmetic follows the numpy kernels expression-for-expression in the
same left-to-right accumulation order, so results agree to the last few
ulps (well inside the 1e-9 equivalence the fast path is pinned to).

Everything is best-effort: no compiler, a failed compile, or
``set_c_kernels(False)`` simply leaves :func:`available` false and callers
fall back to the numpy fast path.  No third-party dependency is involved --
only ``cc`` and ``ctypes``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Optional

import numpy as np

from .. import runtime as _runtime
from . import pool as _pool

__all__ = ["available", "lib", "set_c_kernels"]

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define RESTRICT __restrict__

/* out[e,:] = relu(pre[src[e],:] + a1[i1[e],:] + a2[i2[e],:] + eproj[e,:]
                   + bias[:])
   a1/a2 (extra gathered terms, e.g. region-level capacity projections) and
   eproj may each be NULL. */
void edge_fuse_fwd(const double *RESTRICT pre, const int64_t *RESTRICT src,
                   const double *RESTRICT a1, const int64_t *RESTRICT i1,
                   const double *RESTRICT a2, const int64_t *RESTRICT i2,
                   const double *RESTRICT eproj, const double *RESTRICT bias,
                   int64_t E, int64_t F, double *RESTRICT out) {
    for (int64_t e = 0; e < E; ++e) {
        const double *p = pre + src[e] * F;
        const double *x1 = a1 ? a1 + i1[e] * F : 0;
        const double *x2 = a2 ? a2 + i2[e] * F : 0;
        const double *q = eproj ? eproj + e * F : 0;
        double *o = out + e * F;
        for (int64_t j = 0; j < F; ++j) {
            double v = p[j];
            if (x1) v += x1[j];
            if (x2) v += x2[j];
            if (q) v += q[j];
            v += bias[j];
            o[j] = v > 0.0 ? v : 0.0;
        }
    }
}

/* gmask[e,:] = grad[e,:] * (out[e,:] > 0); gpre[src[e],:] += gmask[e,:];
   g1[i1[e],:] += gmask[e,:]; g2[i2[e],:] += gmask[e,:];
   gbias[:] += gmask[e,:].  Accumulators must be pre-zeroed; g1/g2 may be
   NULL (with their index arrays). */
void edge_fuse_bwd(const double *RESTRICT grad, const double *RESTRICT out,
                   const int64_t *RESTRICT src, const int64_t *RESTRICT i1,
                   const int64_t *RESTRICT i2, int64_t E, int64_t F,
                   double *RESTRICT gmask, double *RESTRICT gpre,
                   double *RESTRICT g1, double *RESTRICT g2,
                   double *RESTRICT gbias) {
    for (int64_t e = 0; e < E; ++e) {
        const double *g = grad + e * F;
        const double *o = out + e * F;
        double *gm = gmask + e * F;
        double *gp = gpre + src[e] * F;
        double *h1 = g1 ? g1 + i1[e] * F : 0;
        double *h2 = g2 ? g2 + i2[e] * F : 0;
        for (int64_t j = 0; j < F; ++j) {
            double v = o[j] > 0.0 ? g[j] : 0.0;
            gm[j] = v;
            gp[j] += v;
            if (h1) h1[j] += v;
            if (h2) h2[j] += v;
            gbias[j] += v;
        }
    }
}

/* Segment attention forward over plan-sorted runs.

   keys   : (E, H, hd) in original edge order
   q      : (N, H, hd) per-target queries (edge-type form already folded in)
   order  : sorted-row -> original-row permutation (NULL if presorted)
   starts : run start offsets in sorted order, R entries
   occupied: target segment of each run, R entries
   weights/leaky : (E, H) outputs in original edge order
   agg    : (N, H*hd), pre-zeroed accumulator. */
void seg_att_fwd(const double *RESTRICT keys, const double *RESTRICT q,
                 const int64_t *RESTRICT order, const int64_t *RESTRICT starts,
                 const int64_t *RESTRICT occupied, int64_t R, int64_t E,
                 int64_t H, int64_t hd, double scale, double slope,
                 double *RESTRICT weights, double *RESTRICT leaky,
                 double *RESTRICT agg) {
    const int64_t D = H * hd;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t lo = starts[r];
        const int64_t hi = (r + 1 < R) ? starts[r + 1] : E;
        const int64_t seg = occupied[r];
        const double *qs = q + seg * D;
        double *as = agg + seg * D;
        for (int64_t h = 0; h < H; ++h) {
            const double *qh = qs + h * hd;
            double mx = -INFINITY;
            for (int64_t i = lo; i < hi; ++i) {
                const int64_t e = order ? order[i] : i;
                const double *kh = keys + (e * H + h) * hd;
                double s = 0.0;
                for (int64_t d = 0; d < hd; ++d) s += kh[d] * qh[d];
                s *= scale;
                double lk = s > 0.0 ? 1.0 : slope;
                s *= lk;
                leaky[e * H + h] = lk;
                weights[e * H + h] = s;
                if (s > mx) mx = s;
            }
            double total = 0.0;
            for (int64_t i = lo; i < hi; ++i) {
                const int64_t e = order ? order[i] : i;
                double w = exp(weights[e * H + h] - mx);
                weights[e * H + h] = w;
                total += w;
            }
            const double inv = 1.0 / total;
            for (int64_t i = lo; i < hi; ++i) {
                const int64_t e = order ? order[i] : i;
                const double w = weights[e * H + h] * inv;
                weights[e * H + h] = w;
                const double *kh = keys + (e * H + h) * hd;
                double *ah = as + h * hd;
                for (int64_t d = 0; d < hd; ++d) ah[d] += w * kh[d];
            }
        }
    }
}

/* Segment attention backward.  gout is the (N, H*hd) upstream gradient with
   the output relu mask already applied; gkeys (E, H, hd) is written, gq
   (N, H, hd) must be pre-zeroed. */
void seg_att_bwd(const double *RESTRICT keys, const double *RESTRICT q,
                 const double *RESTRICT weights, const double *RESTRICT leaky,
                 const double *RESTRICT gout, const int64_t *RESTRICT order,
                 const int64_t *RESTRICT starts,
                 const int64_t *RESTRICT occupied, int64_t R, int64_t E,
                 int64_t H, int64_t hd, double scale,
                 double *RESTRICT gkeys, double *RESTRICT gw_scratch,
                 double *RESTRICT gq) {
    const int64_t D = H * hd;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t lo = starts[r];
        const int64_t hi = (r + 1 < R) ? starts[r + 1] : E;
        const int64_t seg = occupied[r];
        const double *gs_seg = gout + seg * D;
        double *gq_seg = gq + seg * D;
        for (int64_t h = 0; h < H; ++h) {
            const double *gh = gs_seg + h * hd;
            const double *qh = q + seg * D + h * hd;
            double inner = 0.0;
            for (int64_t i = lo; i < hi; ++i) {
                const int64_t e = order ? order[i] : i;
                const double *kh = keys + (e * H + h) * hd;
                double gw = 0.0;
                for (int64_t d = 0; d < hd; ++d) gw += gh[d] * kh[d];
                gw_scratch[e * H + h] = gw;
                inner += weights[e * H + h] * gw;
            }
            double *gqh = gq_seg + h * hd;
            for (int64_t i = lo; i < hi; ++i) {
                const int64_t e = order ? order[i] : i;
                const double w = weights[e * H + h];
                const double gs = w * (gw_scratch[e * H + h] - inner) *
                                  leaky[e * H + h] * scale;
                const double *kh = keys + (e * H + h) * hd;
                double *gk = gkeys + (e * H + h) * hd;
                for (int64_t d = 0; d < hd; ++d) {
                    gk[d] = w * gh[d] + qh[d] * gs;
                    gqh[d] += kh[d] * gs;
                }
            }
        }
    }
}
"""

_I64 = ctypes.c_int64
_PD = ctypes.POINTER(ctypes.c_double)
_PI = ctypes.POINTER(ctypes.c_int64)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_tried = False

_enabled = True


def set_c_kernels(enabled: bool) -> bool:
    """Toggle the compiled kernels; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def _ptr_d(a: np.ndarray):
    return a.ctypes.data_as(_PD)


def _ptr_i(a: Optional[np.ndarray]):
    return a.ctypes.data_as(_PI) if a is not None else None


def _compile() -> Optional[ctypes.CDLL]:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(tempfile.gettempdir(), f"o2_ckernels_{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(tempfile.gettempdir(), f"o2_ckernels_{digest}.c")
        with open(src_path, "w") as f:
            f.write(_SOURCE)
        tmp_so = so_path + f".tmp{os.getpid()}"
        cmd = [
            _runtime.env_str("CC", "cc", lower=False),
            "-O3",
            "-march=native",
            "-fno-math-errno",
            "-shared",
            "-fPIC",
            src_path,
            "-lm",
            "-o",
            tmp_so,
        ]
        try:
            subprocess.run(
                cmd,
                check=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic: concurrent compiles race safely
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib_ = ctypes.CDLL(so_path)
    except OSError:
        return None

    lib_.edge_fuse_fwd.argtypes = [
        _PD, _PI, _PD, _PI, _PD, _PI, _PD, _PD, _I64, _I64, _PD,
    ]
    lib_.edge_fuse_bwd.argtypes = [
        _PD, _PD, _PI, _PI, _PI, _I64, _I64, _PD, _PD, _PD, _PD, _PD,
    ]
    lib_.seg_att_fwd.argtypes = [
        _PD, _PD, _PI, _PI, _PI, _I64, _I64, _I64, _I64,
        ctypes.c_double, ctypes.c_double, _PD, _PD, _PD,
    ]
    lib_.seg_att_bwd.argtypes = [
        _PD, _PD, _PD, _PD, _PD, _PI, _PI, _PI,
        _I64, _I64, _I64, _I64, ctypes.c_double, _PD, _PD, _PD,
    ]
    for fn in (lib_.edge_fuse_fwd, lib_.edge_fuse_bwd, lib_.seg_att_fwd,
               lib_.seg_att_bwd):
        fn.restype = None
    return lib_


def lib() -> Optional[ctypes.CDLL]:
    """The compiled library, or ``None`` when disabled/unavailable."""
    global _lib, _tried
    if not _enabled:
        return None
    if not _tried:
        with _lock:
            if not _tried:
                _lib = _compile()
                _tried = True
    return _lib


def available() -> bool:
    """Whether the compiled kernels can be used right now."""
    return lib() is not None


# ----------------------------------------------------------------------
# numpy-facing wrappers (all arrays are made C-contiguous float64/int64 by
# the callers in repro.tensor.ops, which own the layout guarantees).
# ----------------------------------------------------------------------
def edge_fuse_fwd(
    pre: np.ndarray,
    src: np.ndarray,
    extras,  # sequence of (values (Ni, F), idx (E,)) pairs, up to 2
    eproj: Optional[np.ndarray],
    bias: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused gather+add+relu; ``out`` lets plan replay reuse its pinned
    buffer (the kernel overwrites every element, no zeroing needed)."""
    lib_ = lib()
    assert lib_ is not None
    E = src.shape[0]
    F = pre.shape[1]
    a = [(None, None), (None, None)]
    for k, (vals, idx) in enumerate(extras):
        a[k] = (vals, idx)
    if out is None:
        out = _pool.empty((E, F), tag="c-edge-fwd")
    lib_.edge_fuse_fwd(
        _ptr_d(pre),
        _ptr_i(src),
        _ptr_d(a[0][0]) if a[0][0] is not None else None,
        _ptr_i(a[0][1]),
        _ptr_d(a[1][0]) if a[1][0] is not None else None,
        _ptr_i(a[1][1]),
        _ptr_d(eproj) if eproj is not None else None,
        _ptr_d(bias),
        E,
        F,
        _ptr_d(out),
    )
    return out


def edge_fuse_bwd(
    grad: np.ndarray,
    out: np.ndarray,
    src: np.ndarray,
    num_sources: int,
    extras,  # sequence of (num_rows Ni, idx (E,)) pairs, up to 2
    accum=None,  # optional (gmask, gpre, gex_list, gbias) caller buffers
):
    """Fused edge-message backward.

    ``accum`` lets a caller pass its own ``(gmask, gpre, gex_list, gbias)``
    buffers: ``gmask`` is overwritten, the rest are *accumulated into* (the
    kernel only ever does ``+=`` on them, in ascending edge order), so a
    band-sweeping caller can feed edge slices through the same shared
    accumulators and reproduce the one-call gradient bytes exactly.
    """
    lib_ = lib()
    assert lib_ is not None
    E, F = grad.shape
    gex = [None, None]
    idxs = [None, None]
    if accum is not None:
        gmask, gpre, gex_list, gbias = accum
        for k, (_n_rows, idx) in enumerate(extras):
            gex[k] = gex_list[k]
            idxs[k] = idx
    else:
        gmask = _pool.empty((E, F), tag="c-edge-bwd")
        gpre = _pool.zeros((num_sources, F), tag="c-edge-gpre")
        gbias = np.zeros(F, dtype=np.float64)
        for k, (n_rows, idx) in enumerate(extras):
            gex[k] = _pool.zeros((n_rows, F), tag="c-edge-gex")
            idxs[k] = idx
    lib_.edge_fuse_bwd(
        _ptr_d(grad),
        _ptr_d(out),
        _ptr_i(src),
        _ptr_i(idxs[0]),
        _ptr_i(idxs[1]),
        E,
        F,
        _ptr_d(gmask),
        _ptr_d(gpre),
        _ptr_d(gex[0]) if gex[0] is not None else None,
        _ptr_d(gex[1]) if gex[1] is not None else None,
        _ptr_d(gbias),
    )
    return gmask, gpre, [g for g in gex if g is not None], gbias


def seg_att_fwd(
    keys: np.ndarray,
    q: np.ndarray,
    plan,
    scale: float,
    slope: float,
    out=None,
):
    """Fused attention forward; ``out`` is an optional ``(weights, leaky,
    agg)`` triple of caller buffers for plan replay.  ``agg`` is
    accumulated into, so the caller must hand it over zeroed."""
    lib_ = lib()
    assert lib_ is not None
    E, H, hd = keys.shape
    N = q.shape[0]
    if out is not None:
        weights, leaky, agg = out
    else:
        weights = _pool.empty((E, H), tag="c-att-w")
        leaky = _pool.empty((E, H), tag="c-att-leaky")
        agg = _pool.zeros((N, H * hd), tag="c-att-agg")
    lib_.seg_att_fwd(
        _ptr_d(keys), _ptr_d(q), _ptr_i(plan.perm), _ptr_i(plan.starts),
        _ptr_i(plan.occupied), plan.starts.shape[0], E, H, hd,
        scale, slope, _ptr_d(weights), _ptr_d(leaky), _ptr_d(agg),
    )
    return weights, leaky, agg


def seg_att_bwd(
    keys: np.ndarray,
    q: np.ndarray,
    weights: np.ndarray,
    leaky: np.ndarray,
    gout: np.ndarray,
    plan,
    scale: float,
    gkeys_out: Optional[np.ndarray] = None,
):
    """Attention backward; ``gkeys_out`` lets a band-sweeping caller have
    the key gradient written at its run offset instead of copying it."""
    lib_ = lib()
    assert lib_ is not None
    E, H, hd = keys.shape
    if gkeys_out is not None:
        gkeys = gkeys_out
    else:
        gkeys = _pool.empty((E, H, hd), tag="c-att-gkeys")
    scratch = _pool.empty((E, H), tag="c-att-scratch")
    gq = _pool.zeros(q.shape, tag="c-att-gq")
    lib_.seg_att_bwd(
        _ptr_d(keys), _ptr_d(q), _ptr_d(weights), _ptr_d(leaky), _ptr_d(gout),
        _ptr_i(plan.perm), _ptr_i(plan.starts), _ptr_i(plan.occupied),
        plan.starts.shape[0], E, H, hd, scale,
        _ptr_d(gkeys), _ptr_d(scratch), _ptr_d(gq),
    )
    return gkeys, gq
