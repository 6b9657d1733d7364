"""Zero-copy snapshot arena: a single-file mmap container for serving.

``ModelSnapshot.save(..., format="npz")`` writes a zip archive that a
loader must decompress, copy into fresh buffers and re-fingerprint -- cost
proportional to the snapshot size, paid again in *every* worker process.
The arena is the deployment-grade alternative: one flat file holding

* an 8-byte magic + fixed little-endian header length,
* a JSON header (snapshot metadata, the precomputed fingerprint, and an
  array table of ``name -> dtype/shape/offset/nbytes``), and
* the raw C-contiguous bytes of every parameter array, each segment
  aligned to 64 bytes.

Retrieval-index state (:mod:`repro.serve.index`) rides in the same
container as additional ``index__``-prefixed segments plus an ``index``
key in the header metadata -- an indexed arena opens exactly like a plain
one (zero copies, ~zero extra open cost) and hot-swaps with its snapshot
as one atomic unit.  :func:`arena_segments` lists the table for
inspection.

:func:`open_arena` memory-maps the file read-only and hands
:class:`~repro.serve.snapshot.ModelSnapshot` views straight into the map:
no bytes are copied, no hash is recomputed (the fingerprint rides in the
header), so opening is O(milliseconds) regardless of snapshot size --
and when N pre-forked workers open the same arena, the OS page cache
backs all of them with **one** physical copy of the embeddings.

Scores from an arena-backed snapshot are bit-for-bit identical to the
``.npz`` path: the arrays hold the same bytes and the scoring code never
branches on the backing store (``tests/test_serve_scale.py`` pins this).

Writes publish atomically (temp file + ``os.replace``) so a snapshot
being exported can never be observed half-written by a worker fleet.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .snapshot import ModelSnapshot, PathLike

ARENA_MAGIC = b"O2ARENA\x01"
_ALIGN = 64
_LEN_STRUCT = struct.Struct("<Q")


def _arena_path(path: PathLike) -> Path:
    path = Path(path)
    if path.suffix != ".arena":
        path = path.with_name(path.name + ".arena")
    return path


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def is_arena_file(path: PathLike) -> bool:
    """True when ``path`` exists and starts with the arena magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(ARENA_MAGIC)) == ARENA_MAGIC
    except OSError:
        return False


def save_raw_arena(
    arrays: Dict[str, np.ndarray],
    meta: dict,
    path: PathLike,
    *,
    extra_header: Union[dict, None] = None,
) -> Path:
    """Write named arrays + JSON-able metadata as one arena file.

    The generic writer under :func:`save_arena`.  ``extra_header`` entries
    are merged into the top-level JSON header (the snapshot path stores
    ``snapshot_id`` there).  The write is atomic and durable: the temp
    file is ``fsync``-ed before ``os.replace`` publishes it.
    """
    path = Path(path)
    arrays = {
        name: np.ascontiguousarray(array) for name, array in arrays.items()
    }
    table: Dict[str, dict] = {}
    offset = 0  # relative to the (aligned) start of the data section
    for name, array in arrays.items():
        offset = _align(offset)
        table[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        }
        offset += array.nbytes
    payload = {"meta": meta, "arrays": table}
    if extra_header:
        payload.update(extra_header)
    header = json.dumps(payload).encode("utf-8")
    data_start = _align(len(ARENA_MAGIC) + _LEN_STRUCT.size + len(header))

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(ARENA_MAGIC)
            out.write(_LEN_STRUCT.pack(len(header)))
            out.write(header)
            for name, array in arrays.items():
                out.seek(data_start + table[name]["offset"])
                out.write(array.tobytes())
            # Zero-byte segments (e.g. a flat index's empty inverted
            # lists) can leave their offsets past EOF -- a seek with no
            # write does not extend the file.  Truncate up so every table
            # entry is in bounds.
            out.truncate(data_start + offset)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_arena(snapshot: ModelSnapshot, path: PathLike) -> Path:
    """Write ``snapshot`` as an arena file; returns the (suffixed) path."""
    return save_raw_arena(
        snapshot._array_payload(),
        snapshot._meta_payload(),
        _arena_path(path),
        extra_header={"snapshot_id": snapshot.snapshot_id},
    )


def read_arena_header(path: PathLike) -> Tuple[dict, int]:
    """The parsed JSON header and the data-section start offset."""
    with open(path, "rb") as handle:
        magic = handle.read(len(ARENA_MAGIC))
        if magic != ARENA_MAGIC:
            raise ValueError(f"{path} is not an O2-SiteRec snapshot arena")
        (header_len,) = _LEN_STRUCT.unpack(handle.read(_LEN_STRUCT.size))
        header = json.loads(handle.read(header_len).decode("utf-8"))
    data_start = _align(len(ARENA_MAGIC) + _LEN_STRUCT.size + header_len)
    return header, data_start


def arena_segments(path: PathLike) -> Dict[str, dict]:
    """The arena's array table: ``name -> dtype/shape/offset/nbytes``.

    Pure header read (no data pages touched).  Index segments are the
    entries whose name starts with ``index__``; summing their ``nbytes``
    gives the on-disk cost of the retrieval stage.
    """
    header, _ = read_arena_header(path)
    return dict(header["arrays"])


def open_raw_arena(path: PathLike) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Open an arena as ``(header, arrays)`` views into one shared mmap.

    The generic reader under :func:`open_arena`; nothing is copied, and
    when N forked workers open the same file the OS page cache backs them
    all with one physical copy of the data.
    """
    path = Path(path)
    header, data_start = read_arena_header(path)
    buffer = np.memmap(path, dtype=np.uint8, mode="r")
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in header["arrays"].items():
        start = data_start + int(entry["offset"])
        end = start + int(entry["nbytes"])
        if end > buffer.shape[0]:
            raise ValueError(f"{path}: truncated arena (array {name!r})")
        arrays[name] = (
            buffer[start:end]
            .view(np.dtype(entry["dtype"]))
            .reshape(entry["shape"])
        )
    return header, arrays


def open_arena(
    path: PathLike, *, verify: bool = False
) -> ModelSnapshot:
    """Open an arena as a :class:`ModelSnapshot` backed by one mmap.

    The returned snapshot's arrays are read-only views into a shared
    memory map; nothing is copied and (unless ``verify``) nothing beyond
    the header is even paged in until scoring touches it.  ``verify``
    recomputes the parameter fingerprint and fails loudly on mismatch --
    useful after transfering an arena between hosts.
    """
    header, arrays = open_raw_arena(path)
    snapshot = ModelSnapshot._from_payload(
        header["meta"], arrays, snapshot_id=header["snapshot_id"]
    )
    if verify and snapshot._fingerprint() != header["snapshot_id"]:
        raise ValueError(f"{path}: fingerprint mismatch (corrupt arena?)")
    return snapshot


def convert_snapshot(
    source: PathLike, dest: Union[PathLike, None] = None, *, verify: bool = True
) -> Path:
    """Migrate a snapshot file to the arena format (``convert`` CLI).

    ``dest`` defaults to the source path with an ``.arena`` suffix.  The
    write is atomic, and by default the fresh arena is re-opened and
    fingerprint-verified before returning.
    """
    snapshot = ModelSnapshot.load(source)
    if dest is None:
        source_path = Path(source)
        stem = (
            source_path.with_suffix("")
            if source_path.suffix == ".npz"
            else source_path
        )
        dest = stem.with_name(stem.name + ".arena")
    written = save_arena(snapshot, dest)
    if verify:
        open_arena(written, verify=True)
    return written
