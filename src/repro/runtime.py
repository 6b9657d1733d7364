"""Process-level runtime tuning for the numpy training fast path.

On glibc, malloc serves allocations above ``M_MMAP_THRESHOLD`` (128 KiB by
default) with a fresh ``mmap`` and returns them to the kernel on free.
Training steps on this codebase allocate thousands of multi-megabyte
temporaries per second (edge-message matrices, gradients), so with the
default thresholds every one of them costs an mmap/munmap round trip plus
kernel page-zeroing on first touch -- profiled at 15-25% of a training step
on the batched fast path.

:func:`tune_allocator` picks its profile from the memory plane.  With the
buffer pool disabled it raises ``M_MMAP_THRESHOLD`` and
``M_TRIM_THRESHOLD`` so freed arena memory is retained and recycled in
user space -- the pre-pool behaviour, trading resident high-water mark for
speed.  With the pool enabled (``O2_BUFFER_POOL``, the default) the big
training temporaries are recycled by :mod:`repro.tensor.pool` itself, so
arena hoarding would only double-cache them: the lean profile keeps
glibc's documented 128 KiB mmap threshold (pinned, so the dynamic
threshold cannot drift it upward) and a small trim threshold, which lets
pool evictions and bypassed buffers return to the OS promptly.  When the
step compiler is active the trainer retunes to a third, ``pinned``
profile: the captured tape pins its pooled buffers anyway, so prompt
trimming cannot lower RSS but does force an mmap/munmap plus kernel
page-zeroing round trip on every replay's plain-numpy temporaries.
Applied by :class:`repro.core.trainer.Trainer` and the benchmarks;
long-lived, memory-sensitive processes (e.g. the serving layer) simply do
not call it.

The tuning is best-effort: on non-glibc platforms (musl, macOS, Windows)
``mallopt`` is absent or a no-op and the function reports ``False``.  Set
``O2_MALLOC_TUNE=0`` to disable it entirely.

:func:`limit_blas_threads` caps the thread count of the OpenBLAS numpy
loaded.  OpenBLAS helper threads keep spinning for a while after each
call, so a serving worker that scores one small matmul every few
milliseconds burns a second core doing nothing, and several workers on
one host oversubscribe its cores; :mod:`repro.serve.workers` gives each
worker of a multi-worker pool its share of the CPUs.  It is fail-soft in
the same way: ``False`` when numpy's BLAS is not an OpenBLAS it can find.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Callable, List, Optional, Tuple

__all__ = [
    "env_flag",
    "env_float",
    "env_int",
    "env_str",
    "tune_allocator",
    "allocator_tuned",
    "limit_blas_threads",
]

# One truthiness convention for every O2_* switch: anything except an
# explicit "0"/"false"/"off" counts as on (so O2_FLAG= and O2_FLAG=yes both
# enable).  ``default`` supplies the unset value -- flags that default off
# (e.g. O2_MEM_PROFILE) and flags that default on (e.g. O2_BUFFER_POOL)
# share the same parser instead of each module inverting it by hand.
_FALSY = ("0", "false", "off")


def env_flag(name: str, default: bool = True) -> bool:
    """Parse the boolean env switch ``name`` with the repo-wide convention."""
    raw = os.environ.get(name)
    if raw is None:
        return bool(default)
    return raw.strip().lower() not in _FALSY


def env_int(name: str, default: int) -> int:
    """Parse the integer env knob ``name``; malformed values fall back.

    Accepts float spellings (``O2_SHARD_MIN_REGIONS=4e3``) by truncation.
    """
    raw = os.environ.get(name, "")
    try:
        return int(float(raw or default))
    except ValueError:
        return int(default)


def env_float(name: str, default: float) -> float:
    """Parse the float env knob ``name``; malformed values fall back."""
    raw = os.environ.get(name, "")
    try:
        return float(raw or default)
    except ValueError:
        return float(default)


def env_str(name: str, default: str, lower: bool = True) -> str:
    """Parse the enum-valued env switch ``name``: stripped and lowercased.

    Every enum-valued ``O2_*`` switch (``O2_NUM_PROCS=auto``,
    ``O2_SERVE_INDEX=on``...) compares case-insensitively against keyword
    spellings; centralising the normalisation here keeps the modules on one
    convention, mirroring :func:`env_flag`.  Unset falls back to ``default``
    (also normalised, so callers can pass the canonical spelling).  Pass
    ``lower=False`` for case-sensitive values (``CC=/opt/bin/GCC-14``).
    """
    raw = os.environ.get(name)
    if raw is None:
        raw = default
    raw = raw.strip()
    return raw.lower() if lower else raw

# From glibc's malloc.h; mallopt param numbers are ABI-stable.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Applied (mmap_threshold, trim_threshold), or None before the first tune.
_tuned: "tuple[int, int] | None" = None

# Named threshold profiles (mmap, trim); see tune_allocator.
_PROFILES = {
    # No pool: hoard the arena, recycle big temporaries in user space.
    "hoard": (1 << 29, 1 << 29),
    # Pool on: the pool is the only cache; give freed pages back promptly.
    "lean": (131072, 1 << 20),
    # Compiled step: the captured tape pins its pooled buffers for the
    # life of the plan, so RSS is dominated by pinned memory and prompt
    # trimming buys nothing.  Replays still make plain-numpy allocations
    # above 128 KiB (segment-plan rebuilds, leaf-gradient copies); under
    # the lean thresholds each costs an mmap/munmap round trip plus
    # kernel page-zeroing *every replay*.  Keep them in the arena.
    "pinned": (1 << 25, 1 << 25),
}


def allocator_tuned() -> bool:
    """Whether :func:`tune_allocator` has successfully applied a tuning."""
    return _tuned is not None


def tune_allocator(
    mmap_threshold: int | None = None,
    trim_threshold: int | None = None,
    profile: str | None = None,
) -> bool:
    """Tune glibc malloc for training (profile depends on the memory plane).

    Pool disabled: keep large freed buffers in the malloc arena instead of
    unmapping (``hoard``).  Pool enabled: pin the documented default
    thresholds so non-pooled frees return to the OS and the pool stays the
    only cache (``lean``).  Step compiler active: the pinned tape already
    dominates RSS, so retain replay-path temporaries too (``pinned``).
    ``profile`` selects one by name; explicit thresholds override it.

    Idempotent per threshold pair and fail-soft: returns ``True`` if the
    requested thresholds are (or already were) applied, ``False`` when
    disabled via ``O2_MALLOC_TUNE=0`` or when the platform has no usable
    glibc ``mallopt``.  Callers may retune: the last applied profile wins,
    which lets a compiled-training phase hand a leaner arena back to a
    serving phase in the same process.
    """
    global _tuned
    if not env_flag("O2_MALLOC_TUNE", True):
        return False
    if mmap_threshold is None or trim_threshold is None:
        if profile is None:
            from .tensor import pool as _pool

            profile = "lean" if _pool.buffer_pool_enabled() else "hoard"
        prof_mmap, prof_trim = _PROFILES[profile]
        if mmap_threshold is None:
            mmap_threshold = prof_mmap
        if trim_threshold is None:
            trim_threshold = prof_trim
    want = (int(mmap_threshold), int(trim_threshold))
    if _tuned == want:
        return True
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        mallopt = libc.mallopt
    except (OSError, AttributeError):  # pragma: no cover - non-glibc platform
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = mallopt(_M_MMAP_THRESHOLD, want[0]) and mallopt(
        _M_TRIM_THRESHOLD, want[1]
    )
    if ok:
        _tuned = want
    return bool(ok)


# (set, get) thread-count symbols, one pair per OpenBLAS build: the
# scipy-openblas64 that numpy wheels bundle, an ILP64 build with the
# symbol suffix, and the plain build.  set takes a C int; get returns one.
# scipy wheels load a second, LP64 copy (``scipy_openblas_*`` without the
# suffix) that numpy does not call; it is left out on purpose.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_libraries() -> List[str]:
    """Paths of the OpenBLAS libraries numpy loaded into this process.

    Read from ``/proc/self/maps``; empty where that does not exist.
    """
    import numpy  # noqa: F401 -- imported to load its BLAS

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in Path(p).name.lower())


def _openblas_thread_calls() -> Optional[Tuple[Callable, Callable]]:
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)  # the loaded copy: same handle, no reload
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                set_threads = getattr(lib, set_name)
                get_threads = getattr(lib, get_name)
            except AttributeError:
                continue
            set_threads.argtypes = (ctypes.c_int,)
            set_threads.restype = None
            get_threads.argtypes = ()
            get_threads.restype = ctypes.c_int
            return set_threads, get_threads
    return None


def limit_blas_threads(limit: int) -> bool:
    """Lower numpy's OpenBLAS thread count to at most ``limit`` (>= 1).

    Never raises the count.  Returns ``True`` when the count is now at
    most ``limit`` and ``False`` when no loaded OpenBLAS exports a known
    thread-count symbol (numpy on MKL or Accelerate, or a platform
    without ``/proc/self/maps``), in which case nothing changes.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        return False
    set_threads, get_threads = calls
    limit = max(1, int(limit))
    if get_threads() > limit:
        set_threads(limit)
    return True
