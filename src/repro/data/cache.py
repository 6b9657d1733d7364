"""Content-addressed artifact cache for the data plane (``O2_PIPELINE_CACHE``).

Simulating a city, building a :class:`~repro.data.dataset.SiteRecDataset`
and splitting it are pure functions of ``(city config, seed, scale,
pipeline code version)``.  This module keys those artifacts by a SHA-256
over a canonical encoding of exactly that tuple and stores them on disk, so
a full experiment table simulates each (kind, seed, scale) once ever --
across benchmark scripts, harness rounds, worker processes and repeat runs.

Layout and guarantees:

* one directory per entry (``<root>/<key[:2]>/<key>/``) holding
  ``manifest.json``, one ``.npy`` file per array column and optionally a
  pickled ``payload.pkl`` for structured artifacts (datasets + splits);
* writes go to a temp directory first and are published with a single
  ``os.rename`` -- concurrent writers race benignly (the loser discards);
* array loads are memory-mapped (``mmap_mode="r"``), so a warm order log
  costs page faults, not a parse;
* the cache is bounded (``O2_PIPELINE_CACHE_MB``, default 2048): after each
  store, least-recently-used entries (directory mtime, refreshed on every
  hit) are evicted until the total size fits;
* corrupt or truncated entries are deleted and treated as misses -- the
  caller silently rebuilds (fail-soft, pinned by ``tests/test_data_cache.py``).

``O2_PIPELINE_CACHE`` semantics: unset/``1``/``on`` -> enabled under
``$XDG_CACHE_HOME/o2-siterec/pipeline`` (or ``~/.cache/...``);
``0``/``off``/``false``/``no`` (:data:`repro.runtime.FALSY`, the one set
of "off" spellings) -> disabled; any other value -> used as the cache
directory.

CLI: ``python -m repro.data.cache {stats,clear,warm}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..runtime import FALSY, env_float, env_str

__all__ = [
    "PIPELINE_VERSION",
    "LRUCache",
    "pipeline_cache_enabled",
    "cache_root",
    "cache_key",
    "CacheEntry",
    "load_entry",
    "store_entry",
    "cache_stats",
    "clear_cache",
    "simulate_cached",
    "cached_dataset",
]

# Bump whenever simulation/dataset-building semantics change: every key
# embeds it, so stale artifacts from older code can never be served.
PIPELINE_VERSION = "pr9.1"

_ON = ("", "1", "on", "true", "yes")


# ----------------------------------------------------------------------
# Small bounded mapping, shared with in-process caches (e.g. the order
# generator's per-(region, type, period) store-choice tables).
class LRUCache:
    """A dict bounded to ``maxsize`` entries with LRU eviction."""

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def __getitem__(self, key: Any) -> Any:
        self._data.move_to_end(key)
        return self._data[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


# ----------------------------------------------------------------------
# Configuration.
def cache_root() -> Optional[Path]:
    """Cache directory, or ``None`` when the cache is disabled."""
    low = env_str("O2_PIPELINE_CACHE", "1")
    if low in FALSY:
        return None
    if low in _ON:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        return Path(base) / "o2-siterec" / "pipeline"
    # Any other value is a cache directory: keep the user's spelling
    # (paths are case-sensitive), only trimmed.
    return Path(os.environ["O2_PIPELINE_CACHE"].strip())


def pipeline_cache_enabled() -> bool:
    return cache_root() is not None


def _max_bytes() -> int:
    return int(env_float("O2_PIPELINE_CACHE_MB", 2048.0) * 2**20)


# ----------------------------------------------------------------------
# Content addressing.
def _canonical(obj: Any) -> Any:
    """JSON-able canonical form: stable across processes and sessions."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": [
                [f.name, _canonical(getattr(obj, f.name))] for f in fields(obj)
            ],
        }
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": [str(obj.dtype), list(obj.shape)],
            "sha256": hashlib.sha256(
                np.ascontiguousarray(obj).tobytes()
            ).hexdigest(),
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                [str(k), _canonical(v)] for k, v in obj.items()
            )
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def cache_key(kind: str, *parts: Any) -> str:
    """SHA-256 over (artifact kind, pipeline version, canonical parts)."""
    payload = json.dumps(
        [kind, PIPELINE_VERSION, [_canonical(p) for p in parts]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Entry storage.
@dataclass
class CacheEntry:
    arrays: Dict[str, np.ndarray]
    payload: Any
    meta: Dict[str, Any]


def _entry_dir(root: Path, key: str) -> Path:
    return root / key[:2] / key


def store_entry(
    key: str,
    arrays: Optional[Dict[str, np.ndarray]] = None,
    payload: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> bool:
    """Persist an entry atomically; returns whether it is now on disk."""
    root = cache_root()
    if root is None:
        return False
    final = _entry_dir(root, key)
    if (final / "manifest.json").exists():
        return True
    try:
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=str(root), prefix="tmp-"))
        names: List[str] = []
        for name, arr in (arrays or {}).items():
            np.save(tmp / f"{name}.npy", np.asarray(arr), allow_pickle=False)
            names.append(name)
        if payload is not None:
            with open(tmp / "payload.pkl", "wb") as fh:
                pickle.dump(payload, fh, protocol=4)
        manifest = {
            "version": PIPELINE_VERSION,
            "arrays": names,
            "payload": payload is not None,
            "meta": meta or {},
        }
        # The manifest is written last inside tmp, and tmp is published
        # with one rename: readers either see a complete entry or none.
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        try:
            os.rename(tmp, final)
        except OSError:
            shutil.rmtree(str(tmp), ignore_errors=True)  # lost a benign race
        _evict(root)
        return True
    except OSError:
        return False


def load_entry(key: str, mmap: bool = True) -> Optional[CacheEntry]:
    """Fetch an entry; corrupt entries are deleted and reported as misses."""
    root = cache_root()
    if root is None:
        return None
    entry = _entry_dir(root, key)
    manifest_path = entry / "manifest.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
        arrays = {
            name: np.load(
                entry / f"{name}.npy",
                mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
            for name in manifest["arrays"]
        }
        payload = None
        if manifest.get("payload"):
            with open(entry / "payload.pkl", "rb") as fh:
                payload = pickle.load(fh)
        os.utime(entry)  # refresh LRU recency
        return CacheEntry(
            arrays=arrays, payload=payload, meta=manifest.get("meta", {})
        )
    except Exception:
        shutil.rmtree(str(entry), ignore_errors=True)
        return None


def _entries(root: Path) -> Iterable[Tuple[float, int, Path]]:
    """(mtime, bytes, path) per entry directory."""
    if not root.exists():
        return
    for shard in root.iterdir():
        if not shard.is_dir() or shard.name.startswith("tmp-"):
            continue
        for entry in shard.iterdir():
            if not entry.is_dir():
                continue
            try:
                size = sum(f.stat().st_size for f in entry.iterdir())
                yield entry.stat().st_mtime, size, entry
            except OSError:
                continue


def _evict(root: Path) -> None:
    """Drop least-recently-used entries until the size bound is met."""
    budget = _max_bytes()
    entries = sorted(_entries(root))
    total = sum(size for _, size, _ in entries)
    for _, size, path in entries:
        if total <= budget:
            break
        shutil.rmtree(str(path), ignore_errors=True)
        total -= size


def cache_stats() -> Dict[str, Any]:
    root = cache_root()
    if root is None:
        return {"enabled": False, "root": None, "entries": 0, "bytes": 0}
    entries = list(_entries(root))
    return {
        "enabled": True,
        "root": str(root),
        "entries": len(entries),
        "bytes": sum(size for _, size, _ in entries),
        "max_bytes": _max_bytes(),
    }


def clear_cache() -> int:
    """Remove every entry; returns how many were deleted."""
    root = cache_root()
    if root is None or not root.exists():
        return 0
    count = 0
    for _, _, path in list(_entries(root)):
        shutil.rmtree(str(path), ignore_errors=True)
        count += 1
    return count


# ----------------------------------------------------------------------
# Order-log packing.  Columnar order logs (``OrderTable``) persist as one
# ``.npy`` chunk per column plus the shared registry arrays -- loads are
# memory-mapped column by column and never materialise records.  Legacy
# ``List[OrderRecord]`` logs keep the original fixed-width packing.
_FLOAT_FIELDS = (
    "store_lon",
    "store_lat",
    "customer_lon",
    "customer_lat",
    "created_minute",
    "accepted_minute",
    "pickup_minute",
    "delivered_minute",
    "distance_m",
)
_INT_FIELDS = ("store_region", "customer_region", "store_type")


def _orders_to_arrays(orders) -> Dict[str, np.ndarray]:
    table = getattr(orders, "table", None)
    if table is not None:
        return table.to_arrays()
    return {
        "order_id": np.array([o.order_id for o in orders]),
        "store_id": np.array([o.store_id for o in orders]),
        "customer_id": np.array([o.customer_id for o in orders]),
        "courier_id": np.array([o.courier_id for o in orders]),
        "floats": np.array(
            [[getattr(o, f) for f in _FLOAT_FIELDS] for o in orders]
        ),
        "ints": np.array(
            [[getattr(o, f) for f in _INT_FIELDS] for o in orders],
            dtype=np.int64,
        ),
    }


def _orders_from_arrays(arrays: Dict[str, np.ndarray]):
    if "tbl_store_index" in arrays:
        from .ordertable import OrderTable

        return OrderTable.from_arrays(arrays).records_view()
    from .records import OrderRecord

    flo = np.asarray(arrays["floats"])
    ints = np.asarray(arrays["ints"])
    return [
        OrderRecord(
            oid,
            sid,
            cid,
            kid,
            slon,
            slat,
            clon,
            clat,
            sreg,
            creg,
            cm,
            am,
            pm,
            dm,
            dist,
            st,
        )
        for oid, sid, cid, kid, (
            slon,
            slat,
            clon,
            clat,
            cm,
            am,
            pm,
            dm,
            dist,
        ), (sreg, creg, st) in zip(
            np.asarray(arrays["order_id"]).tolist(),
            np.asarray(arrays["store_id"]).tolist(),
            np.asarray(arrays["customer_id"]).tolist(),
            np.asarray(arrays["courier_id"]).tolist(),
            flo.tolist(),
            ints.tolist(),
        )
    ]


# ----------------------------------------------------------------------
# High-level artifacts.  City imports stay lazy: repro.city.orders imports
# LRUCache from this module at import time.
def simulate_cached(config) -> Any:
    """:func:`repro.city.simulator.simulate`, through the artifact cache.

    Hits replay the cached order log and re-run only the cheap pre-order
    stages (land use, stores, fleet): those consume the config RNG *before*
    order generation, so rebuilding them reproduces a fresh
    ``SimulationResult`` exactly.
    """
    from ..city.simulator import SimulationResult, simulate_uncached

    if not pipeline_cache_enabled():
        return simulate_uncached(config)
    key = cache_key("simulation", config)
    entry = load_entry(key)
    if entry is not None:
        try:
            orders = _orders_from_arrays(entry.arrays)
        except Exception:
            root = cache_root()
            if root is not None:
                shutil.rmtree(str(_entry_dir(root, key)), ignore_errors=True)
            orders = None
        if orders:
            rng = np.random.default_rng(config.seed)
            from ..city.couriers import build_fleet
            from ..city.landuse import synthesize_land_use
            from ..city.stores import place_stores

            land = synthesize_land_use(config, rng)
            stores = place_stores(config, land, rng)
            fleet = build_fleet(config, land, rng)
            return SimulationResult(
                config=config,
                land=land,
                stores=stores,
                fleet=fleet,
                orders=orders,
            )
    result = simulate_uncached(config)
    columnar = getattr(result.orders, "table", None) is not None
    store_entry(
        key,
        arrays=_orders_to_arrays(result.orders),
        meta={
            "artifact": "simulation",
            "num_orders": len(result.orders),
            "format": "table" if columnar else "records",
        },
    )
    return result


def cached_dataset(kind: str, seed: int, scale: float):
    """``(dataset, split)`` for one harness round, through the cache.

    Mirrors :func:`repro.experiments.harness.build_dataset`; the key is the
    *resolved* city config (not just ``(kind, seed, scale)``), so any change
    to the preset recipes invalidates naturally.
    """
    from ..city.simulator import (
        megacity_config,
        metropolis_config,
        real_world_config,
        simulation_config,
    )

    if kind == "real":
        config = real_world_config(seed=7 + seed, scale=scale)
    elif kind == "sim":
        config = simulation_config(seed=11 + seed, scale=scale)
    elif kind == "metropolis":
        config = metropolis_config(seed=7 + seed, scale=scale)
    elif kind == "megacity":
        config = megacity_config(seed=7 + seed, scale=scale)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")

    if not pipeline_cache_enabled():
        return _build_dataset_uncached(kind, seed, scale)

    key = cache_key("dataset", kind, int(seed), config)
    entry = load_entry(key)
    if entry is not None and isinstance(entry.payload, tuple):
        return entry.payload
    dataset, split = _build_dataset_uncached(kind, seed, scale)
    store_entry(
        key,
        payload=(dataset, split),
        meta={
            "artifact": "dataset",
            "kind": kind,
            "seed": int(seed),
            "scale": float(scale),
        },
    )
    return dataset, split


def _build_dataset_uncached(kind: str, seed: int, scale: float):
    from ..city.simulator import (
        megacity_dataset,
        metropolis_dataset,
        real_world_dataset,
        simulation_dataset,
    )
    from .dataset import SiteRecDataset

    if kind == "real":
        sim = real_world_dataset(seed=7 + seed, scale=scale)
    elif kind == "sim":
        sim = simulation_dataset(seed=11 + seed, scale=scale)
    elif kind == "metropolis":
        sim = metropolis_dataset(seed=7 + seed, scale=scale)
    elif kind == "megacity":
        sim = megacity_dataset(seed=7 + seed, scale=scale)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    dataset = SiteRecDataset.from_simulation(sim)
    return dataset, dataset.split(seed=seed)


# ----------------------------------------------------------------------
# CLI.
def _main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.data.cache",
        description="Inspect and manage the pipeline artifact cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", help="print entry count and size")
    sub.add_parser("clear", help="delete every cached artifact")
    warm = sub.add_parser(
        "warm", help="pre-build harness datasets into the cache"
    )
    warm.add_argument(
        "--kind",
        default="real",
        choices=("real", "sim", "metropolis", "megacity"),
    )
    warm.add_argument("--seed", type=int, default=0)
    warm.add_argument("--scale", type=float, default=0.55)
    warm.add_argument(
        "--rounds", type=int, default=1, help="seeds seed..seed+rounds-1"
    )
    args = parser.parse_args(argv)

    if args.command == "stats":
        stats = cache_stats()
        print(json.dumps(stats, indent=2))
        return 0
    if args.command == "clear":
        print(f"removed {clear_cache()} entries")
        return 0
    if args.command == "warm":
        if not pipeline_cache_enabled():
            print("cache disabled (O2_PIPELINE_CACHE=0)")
            return 1
        for r in range(args.rounds):
            dataset, _ = cached_dataset(args.kind, args.seed + r, args.scale)
            print(
                f"warmed {args.kind} seed={args.seed + r} "
                f"scale={args.scale}: {dataset.targets.shape[0]} regions"
            )
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
