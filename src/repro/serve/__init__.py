"""Online serving for O2-SiteRec: precomputed embeddings, caller-runs
micro-batching, hot-swappable snapshots, and a scale-out multi-process
plane.

The training-side model re-runs the full multi-graph propagation on every
``predict`` call; this package separates the expensive, query-independent
representation building from the cheap per-request scoring:

* :class:`ModelSnapshot` -- runs propagation once and freezes per-period
  embeddings + head weights; scoring is a gather + small matmuls and is
  bit-for-bit identical to ``O2SiteRec.predict``.
* :mod:`~repro.serve.arena` -- a zero-copy single-file snapshot container
  opened via ``np.memmap``: O(ms) loads regardless of size, and N worker
  processes share one physical copy through the OS page cache.
* :class:`~repro.serve.index.VectorIndex` -- a dependency-free IVF/flat
  retrieval index over the snapshot's region embeddings: the coarse
  stage of retrieve-then-rank serving, serialized as extra 64B-aligned
  arena segments (``python -m repro.serve build-index``).
* :class:`RecommendationService` -- top-k query API with candidate
  filters, retrieve-then-rank when the snapshot carries an index
  (``O2_SERVE_INDEX`` / ``--index``), an LRU+TTL score cache, a
  caller-runs :class:`MicroBatcher` (a cache miss scores on the calling
  thread at once; callers arriving during a pass share the next one, and
  no batching thread exists) and atomic snapshot hot swap
  (``service.reload``).
* :class:`~repro.serve.workers.WorkerPool` -- pre-forked multi-process
  HTTP serving (``O2_SERVE_PROCS``): ``SO_REUSEPORT`` load balancing with
  a fail-soft inherited-socket fallback, each worker's BLAS threads
  capped at its share of the CPUs, shared-memory fleet metrics, and
  manifest-driven fleet-wide hot swap.
* ``python -m repro.serve`` -- loads a checkpoint or snapshot and serves
  a line-protocol loop or the HTTP API (``--procs N`` scales out);
  ``python -m repro.serve convert`` rewrites ``.npz`` snapshots as arenas.
"""

from .arena import (
    arena_segments,
    convert_snapshot,
    is_arena_file,
    open_arena,
    save_arena,
)
from .batching import MicroBatcher
from .cache import ScoreCache, candidate_digest
from .index import VectorIndex
from .metrics import LatencyHistogram, ServiceMetrics
from .protocol import handle_line, make_http_handler, serve_http, serve_lines
from .service import RecommendationService
from .snapshot import ModelSnapshot
from .workers import SharedServiceStats, WorkerPool, read_manifest, write_manifest

__all__ = [
    "ModelSnapshot",
    "RecommendationService",
    "VectorIndex",
    "MicroBatcher",
    "ScoreCache",
    "candidate_digest",
    "ServiceMetrics",
    "LatencyHistogram",
    "handle_line",
    "serve_lines",
    "serve_http",
    "make_http_handler",
    "save_arena",
    "open_arena",
    "is_arena_file",
    "arena_segments",
    "convert_snapshot",
    "WorkerPool",
    "SharedServiceStats",
    "read_manifest",
    "write_manifest",
]
