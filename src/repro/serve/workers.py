"""Pre-forked multi-process serving plane (``O2_SERVE_PROCS``).

One Python process can only parse HTTP, digest candidates and rank top-k
on one core at a time -- the GIL serialises everything but the numpy
matmuls.  ``WorkerPool`` scales the serving plane out instead of up:

* **N pre-forked workers**, each a full :class:`RecommendationService`
  (own micro-batcher, own score cache) behind the shared listen port.
  Each worker of a multi-worker pool caps numpy's OpenBLAS threads at
  its share of the CPUs (:func:`repro.runtime.limit_blas_threads`), so
  the fleet does not oversubscribe the host's cores.
  Where the platform supports it every worker binds the port itself with
  ``SO_REUSEPORT`` and the kernel load-balances connections; elsewhere the
  pool fails soft to the classic pre-fork model -- the parent binds and
  listens once and every forked worker ``accept``\\ s on the inherited
  socket.
* **One snapshot, zero copies**: workers open the same
  :mod:`repro.serve.arena` file, so the OS page cache backs the whole
  fleet with a single physical copy of the embeddings (``.npz`` snapshots
  also work, at the cost of a private copy per worker).
* **Shared-memory metrics** (:class:`SharedServiceStats`): counters and
  fixed-bucket latency histograms live in ``multiprocessing`` shared
  arrays, mirrored from each worker's local :class:`ServiceMetrics` via
  its sink hook, so :meth:`WorkerPool.stats` aggregates fleet-wide QPS,
  p50/p99 and cache ratios without asking any worker anything.
* **Atomic fleet-wide hot swap**: deploys are a manifest-file version
  bump (:func:`write_manifest`, temp file + ``os.replace``).  Every
  worker watches the manifest and calls ``service.reload`` on a bump;
  each worker's cutover is a single reference swap, queries in flight
  finish on whichever snapshot their scoring pass captured, and no
  half-written state is ever visible because the manifest (and the arena
  it points at) only ever replace atomically.
"""

from __future__ import annotations

import bisect
import json
import multiprocessing as mp
import os
import signal
import socket
import tempfile
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..parallel import num_serve_procs
from ..runtime import limit_blas_threads
from .metrics import BUCKET_BOUNDS, ServiceMetrics
from .protocol import make_http_handler
from .service import RecommendationService
from .snapshot import ModelSnapshot, PathLike

# Counter/stage names mirrored into shared memory.  Fixed at fork time:
# shared arrays cannot grow, and a fixed layout keeps recording lock-cheap.
SHARED_COUNTERS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "batches",
    "batched_requests",
    "batched_pairs",
    "reloads",
    "reload_errors",
    "retrievals",
    "retrieval_fallbacks",
)
SHARED_STAGES = ("total", "queue", "score", "retrieve")


# ----------------------------------------------------------------------
# Shared-memory metrics
# ----------------------------------------------------------------------
class SharedServiceStats:
    """Fleet-wide counters + latency histograms in shared memory.

    The bucket bounds replicate :data:`repro.serve.metrics.BUCKET_BOUNDS`
    so aggregated percentiles mean the same thing as per-worker ones.
    Everything updates under one cross-process lock; recording is a few
    integer adds, cheap enough for the request hot path.
    """

    def __init__(self, num_workers: int, ctx=None) -> None:
        ctx = ctx or mp.get_context()
        self.num_workers = num_workers
        self._lock = ctx.Lock()
        self._counters = ctx.Array("q", len(SHARED_COUNTERS), lock=False)
        self._worker_queries = ctx.Array("q", max(num_workers, 1), lock=False)
        buckets = len(BUCKET_BOUNDS) + 1
        self._buckets = ctx.Array("q", len(SHARED_STAGES) * buckets, lock=False)
        self._counts = ctx.Array("q", len(SHARED_STAGES), lock=False)
        self._sums = ctx.Array("d", len(SHARED_STAGES), lock=False)
        self._maxes = ctx.Array("d", len(SHARED_STAGES), lock=False)

    # -- recording (called from worker processes) -----------------------
    def increment(
        self, name: str, amount: int = 1, worker: Optional[int] = None
    ) -> None:
        try:
            idx = SHARED_COUNTERS.index(name)
        except ValueError:
            return  # not a fleet-level counter
        with self._lock:
            self._counters[idx] += amount
            if name == "queries" and worker is not None:
                self._worker_queries[worker] += amount

    def observe(self, stage: str, seconds: float) -> None:
        try:
            s = SHARED_STAGES.index(stage)
        except ValueError:
            return
        buckets = len(BUCKET_BOUNDS) + 1
        b = bisect.bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            self._buckets[s * buckets + b] += 1
            self._counts[s] += 1
            self._sums[s] += seconds
            if seconds > self._maxes[s]:
                self._maxes[s] = seconds

    # -- reading (parent process) ---------------------------------------
    def counter(self, name: str) -> int:
        idx = SHARED_COUNTERS.index(name)
        with self._lock:
            return int(self._counters[idx])

    def worker_queries(self) -> List[int]:
        with self._lock:
            return list(self._worker_queries)

    @staticmethod
    def _percentile(counts: List[int], total: int, max_s: float, p: float) -> float:
        if not total:
            return 0.0
        rank = p / 100.0 * total
        cumulative = 0
        for i, n in enumerate(counts):
            cumulative += n
            if cumulative >= rank and n:
                if i < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[i]
                return max_s
        return max_s

    def aggregate(self) -> Dict[str, object]:
        """Fleet totals in the shape of ``ServiceMetrics.snapshot()``."""
        buckets = len(BUCKET_BOUNDS) + 1
        with self._lock:
            counters = {
                name: int(self._counters[i])
                for i, name in enumerate(SHARED_COUNTERS)
            }
            latency: Dict[str, Dict[str, float]] = {}
            for s, stage in enumerate(SHARED_STAGES):
                total = int(self._counts[s])
                if not total:
                    continue
                row = list(self._buckets[s * buckets:(s + 1) * buckets])
                max_s = float(self._maxes[s])
                latency[stage] = {
                    "count": total,
                    "mean_ms": self._sums[s] / total * 1e3,
                    "p50_ms": self._percentile(row, total, max_s, 50) * 1e3,
                    "p99_ms": self._percentile(row, total, max_s, 99) * 1e3,
                    "max_ms": max_s * 1e3,
                }
            worker_queries = list(self._worker_queries)
        return {
            "counters": counters,
            "latency": latency,
            "per_worker_queries": worker_queries,
        }


class _WorkerSink:
    """Adapts ``SharedServiceStats`` to the ``ServiceMetrics`` sink API,
    tagging query counts with the owning worker's slot."""

    def __init__(self, shared: SharedServiceStats, worker_index: int) -> None:
        self._shared = shared
        self._worker = worker_index

    def increment(self, name: str, amount: int = 1) -> None:
        self._shared.increment(name, amount, worker=self._worker)

    def observe(self, stage: str, seconds: float) -> None:
        self._shared.observe(stage, seconds)


# ----------------------------------------------------------------------
# Deploy manifest: the fleet-wide hot-swap coordination point
# ----------------------------------------------------------------------
def read_manifest(path: PathLike) -> Tuple[int, str]:
    """The (version, snapshot path) currently deployed by ``path``."""
    payload = json.loads(Path(path).read_text())
    return int(payload["version"]), str(payload["snapshot"])

def write_manifest(
    path: PathLike, snapshot_path: PathLike, version: Optional[int] = None
) -> int:
    """Atomically point the manifest at ``snapshot_path``; returns version.

    ``version`` defaults to the current manifest version + 1.  The write
    is temp-file + ``os.replace``, so watchers see either the old or the
    new manifest in full -- the deploy is one atomic bump for the whole
    fleet, exactly like ``service.reload`` is for one process.
    """
    path = Path(path)
    if version is None:
        try:
            version = read_manifest(path)[0] + 1
        except (OSError, ValueError, KeyError):
            version = 1
    payload = {"version": int(version), "snapshot": str(snapshot_path)}
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as out:
            json.dump(payload, out)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return int(version)


class _ManifestWatcher(threading.Thread):
    """Polls the manifest and hot-swaps the worker's service on a bump."""

    def __init__(
        self,
        service: RecommendationService,
        manifest_path: Path,
        seen_version: int,
        poll_interval_s: float,
        shared: Optional[SharedServiceStats],
        stop_event: threading.Event,
    ) -> None:
        super().__init__(name="o2-serve-manifest", daemon=True)
        self._service = service
        self._manifest_path = manifest_path
        self._seen = seen_version
        self._poll = poll_interval_s
        self._shared = shared
        self._stop = stop_event

    def run(self) -> None:
        while not self._stop.wait(self._poll):
            try:
                version, snapshot_path = read_manifest(self._manifest_path)
            except (OSError, ValueError, KeyError):
                continue  # not written yet / mid-deploy race lost benignly
            if version == self._seen:
                continue
            try:
                self._service.reload(snapshot_path)
                self._seen = version
            except Exception:
                # Keep serving the old snapshot; surface the failure in
                # the fleet counters instead of killing the worker.
                self._seen = version
                if self._shared is not None:
                    self._shared.increment("reload_errors")


# ----------------------------------------------------------------------
# HTTP servers for the two socket-sharing strategies
# ----------------------------------------------------------------------
class _ReusePortHTTPServer(ThreadingHTTPServer):
    """Each worker binds the same (host, port) with ``SO_REUSEPORT``."""

    daemon_threads = True

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _InheritedSocketHTTPServer(ThreadingHTTPServer):
    """Workers accept on one listening socket inherited from the parent."""

    daemon_threads = True

    def __init__(self, listen_sock: socket.socket, handler) -> None:
        super().__init__(
            listen_sock.getsockname()[:2], handler, bind_and_activate=False
        )
        self.socket.close()  # replace the unused fresh socket
        self.socket = listen_sock
        self.server_address = listen_sock.getsockname()
        host, port = self.server_address[:2]
        self.server_name = socket.getfqdn(host)
        self.server_port = port
        # The parent already called bind() and listen(); activating again
        # would listen() twice (harmless) -- skip for clarity.

    def server_close(self) -> None:
        # The listen socket belongs to the pool, not this worker.
        pass


def reuseport_available() -> bool:
    """Whether this platform can load-balance via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------
def _cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_main(
    worker_index: int,
    procs: int,
    snapshot_path: str,
    host: str,
    port: int,
    shared: SharedServiceStats,
    manifest_path: Optional[str],
    poll_interval_s: float,
    service_kwargs: dict,
    ready_event,
    stop_event,
    listen_sock: Optional[socket.socket],
) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates
    if procs > 1:
        # Each worker gets its share of the cores for BLAS: an OpenBLAS
        # helper thread spins on after every scoring matmul, so N workers
        # at the default count oversubscribe the host.  Passes of up to
        # ~12k pairs scored the same bytes at 1 and 2 threads on a
        # 4,579-region arena; a larger pass can differ in the last ulp.
        limit_blas_threads(max(1, _cpus() // procs))

    boot_path = snapshot_path
    seen_version = 0
    if manifest_path is not None:
        try:
            seen_version, boot_path = read_manifest(manifest_path)
        except (OSError, ValueError, KeyError):
            pass  # no manifest yet: boot from the given snapshot

    snapshot = ModelSnapshot.load(boot_path)
    metrics = ServiceMetrics(sink=_WorkerSink(shared, worker_index))
    service = RecommendationService(snapshot, metrics=metrics, **service_kwargs)
    handler = make_http_handler(service)
    if listen_sock is not None:
        server = _InheritedSocketHTTPServer(listen_sock, handler)
    else:
        server = _ReusePortHTTPServer((host, port), handler)

    local_stop = threading.Event()
    if manifest_path is not None:
        _ManifestWatcher(
            service,
            Path(manifest_path),
            seen_version,
            poll_interval_s,
            shared,
            local_stop,
        ).start()

    serve_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="o2-serve-http",
        daemon=True,
    )
    serve_thread.start()
    ready_event.set()
    try:
        while not stop_event.wait(0.2):
            pass
    finally:
        local_stop.set()
        server.shutdown()
        server.server_close()
        service.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` (Linux /proc; None elsewhere)."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class WorkerPool:
    """N pre-forked HTTP serving workers behind one port.

    ``procs`` defaults to ``O2_SERVE_PROCS`` (``auto`` = CPU count).
    ``manifest_path`` enables fleet-wide hot swap: :meth:`reload` bumps
    the manifest and every worker cuts over atomically within
    ``poll_interval_s``.  ``service_kwargs`` are forwarded to each
    worker's :class:`RecommendationService`.
    """

    def __init__(
        self,
        snapshot_path: PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        procs: Optional[int] = None,
        manifest_path: Optional[PathLike] = None,
        poll_interval_s: float = 0.25,
        service_kwargs: Optional[dict] = None,
        start_timeout_s: float = 60.0,
    ) -> None:
        self.snapshot_path = str(snapshot_path)
        self.host = host
        self.port = port  # resolved on start() when 0
        self.procs = procs if procs is not None else num_serve_procs()
        if self.procs < 1:
            raise ValueError("procs must be >= 1")
        self.manifest_path = (
            None if manifest_path is None else Path(manifest_path)
        )
        self.poll_interval_s = poll_interval_s
        self.service_kwargs = dict(service_kwargs or {})
        self.start_timeout_s = start_timeout_s
        self.shared: Optional[SharedServiceStats] = None
        self._workers: List[mp.Process] = []
        self._reserve_sock: Optional[socket.socket] = None
        self._stop_event = None
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerPool":
        if self._started:
            raise RuntimeError("pool already started")
        if "fork" in mp.get_all_start_methods():
            ctx = mp.get_context("fork")
        elif reuseport_available():
            ctx = mp.get_context()
        else:  # pragma: no cover - exotic platform
            raise RuntimeError(
                "WorkerPool needs fork (to inherit a listen socket) or "
                "SO_REUSEPORT; this platform offers neither"
            )

        self.shared = SharedServiceStats(self.procs, ctx=ctx)
        self._stop_event = ctx.Event()

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen_sock: Optional[socket.socket] = None
        if reuseport_available():
            # Reserve the port without serving from it: a bound TCP socket
            # that never listens is not in the REUSEPORT accept group, so
            # it pins the (possibly ephemeral) port for late worker binds
            # while receiving no connections itself.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
        else:  # fail-soft: classic pre-fork, workers share one socket
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(128)
            listen_sock = sock
        self._reserve_sock = sock
        self.port = sock.getsockname()[1]

        ready_events = [ctx.Event() for _ in range(self.procs)]
        self._workers = [
            ctx.Process(
                target=_worker_main,
                args=(
                    i,
                    self.procs,
                    self.snapshot_path,
                    self.host,
                    self.port,
                    self.shared,
                    None if self.manifest_path is None else str(self.manifest_path),
                    self.poll_interval_s,
                    self.service_kwargs,
                    ready_events[i],
                    self._stop_event,
                    listen_sock,
                ),
                name=f"o2-serve-worker-{i}",
                daemon=True,
            )
            for i in range(self.procs)
        ]
        for worker in self._workers:
            worker.start()
        deadline = time.monotonic() + self.start_timeout_s
        for i, event in enumerate(ready_events):
            if not event.wait(max(deadline - time.monotonic(), 0.0)):
                self.stop()
                raise RuntimeError(
                    f"serving worker {i} failed to become ready within "
                    f"{self.start_timeout_s:.0f}s"
                )
        self._started = True
        return self

    def stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()
        for worker in self._workers:
            worker.join(timeout=10.0)
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=5.0)
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- operations -----------------------------------------------------
    @property
    def pids(self) -> List[int]:
        return [worker.pid for worker in self._workers if worker.pid]

    def reload(self, snapshot_path: PathLike) -> int:
        """Deploy ``snapshot_path`` fleet-wide via a manifest bump."""
        if self.manifest_path is None:
            raise RuntimeError(
                "hot swap needs a manifest_path; start the pool with one"
            )
        return write_manifest(self.manifest_path, snapshot_path)

    def stats(self) -> Dict[str, object]:
        """Aggregated fleet stats + per-worker health (pids, RSS)."""
        report = (
            self.shared.aggregate()
            if self.shared is not None
            else {"counters": {}, "latency": {}, "per_worker_queries": []}
        )
        report["procs"] = self.procs
        report["port"] = self.port
        report["pids"] = self.pids
        report["alive"] = [worker.is_alive() for worker in self._workers]
        report["rss_bytes"] = [_rss_bytes(pid) for pid in self.pids]
        report["reuseport"] = reuseport_available()
        if self.manifest_path is not None:
            try:
                version, snapshot = read_manifest(self.manifest_path)
                report["manifest"] = {"version": version, "snapshot": snapshot}
            except (OSError, ValueError, KeyError):
                report["manifest"] = None
        return report
