"""Command-line serving entry point.

Serve a dataset-free snapshot over stdin/stdout (line protocol):

    python -m repro.serve --snapshot snap.npz

Serve over HTTP, scaled out across pre-forked worker processes (snapshots
in the zero-copy ``.arena`` format are shared between workers through the
OS page cache):

    python -m repro.serve --snapshot snap.arena --http 8080 --procs 4

Export a snapshot from a training checkpoint (rebuilds the dataset from a
city preset; the preset/seed/split-seed must match training):

    python -m repro.serve --checkpoint ckpt.npz --preset tiny \
        --export-snapshot snap.arena --snapshot-format arena

Convert an existing ``.npz`` snapshot to the mmap arena format:

    python -m repro.serve convert snap.npz

Attach a retrieval index (retrieve-then-rank serving) to a snapshot; the
index rides inside the same file as extra arena segments:

    python -m repro.serve build-index snap.arena --retrieve-m 64

Run one command and exit (useful for scripting/smoke tests):

    python -m repro.serve --snapshot snap.npz --once "QUERY 2 K=3"
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arena import convert_snapshot, is_arena_file
from .protocol import handle_line, serve_http, serve_lines
from .service import RecommendationService
from .snapshot import ModelSnapshot
from .workers import WorkerPool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve O2-SiteRec store-site recommendations online.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--snapshot", type=Path, help="dataset-free ModelSnapshot .npz"
    )
    source.add_argument(
        "--checkpoint", type=Path, help="save_model checkpoint .npz"
    )
    parser.add_argument(
        "--preset",
        choices=["tiny", "real", "sim"],
        default="tiny",
        help="city preset used to rebuild the checkpoint's dataset",
    )
    parser.add_argument("--seed", type=int, default=3, help="preset seed")
    parser.add_argument("--scale", type=float, default=1.0, help="preset scale")
    parser.add_argument(
        "--split-seed", type=int, default=0, help="interaction split seed"
    )
    parser.add_argument(
        "--export-snapshot",
        type=Path,
        default=None,
        help="freeze the checkpoint to this snapshot file and exit",
    )
    parser.add_argument(
        "--snapshot-format",
        choices=["npz", "arena"],
        default="npz",
        help="--export-snapshot container: portable .npz or zero-copy "
        "mmap .arena (O(ms) open, shared across serving workers)",
    )
    parser.add_argument("--http", type=int, default=None, metavar="PORT")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help="pre-forked HTTP worker processes (default 1); values > 1 "
        "require --http",
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="deploy-manifest path for fleet-wide hot swap (multi-process "
        "serving); bump it with repro.serve.workers.write_manifest",
    )
    parser.add_argument("--once", default=None, metavar="COMMAND")
    parser.add_argument("--default-k", type=int, default=3)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--cache-entries", type=int, default=512)
    parser.add_argument("--cache-ttl-s", type=float, default=300.0)
    parser.add_argument(
        "--index",
        choices=["auto", "on", "off"],
        default="auto",
        help="retrieve-then-rank: auto uses the snapshot's index when "
        "present, on requires it, off forces the exact full scan",
    )
    parser.add_argument(
        "--retrieve-m",
        type=int,
        default=None,
        help="override the index's stored retrieval depth (top-M "
        "survivors re-ranked exactly)",
    )
    parser.add_argument(
        "--nprobe",
        type=int,
        default=None,
        help="override the index's stored IVF probe count",
    )
    return parser


def _index_kwargs(args: argparse.Namespace) -> dict:
    use_index = {"auto": None, "on": True, "off": False}[args.index]
    return {
        "use_index": use_index,
        "retrieve_m": args.retrieve_m,
        "nprobe": args.nprobe,
    }


def _load_snapshot(args: argparse.Namespace) -> ModelSnapshot:
    if args.snapshot is not None:
        return ModelSnapshot.load(args.snapshot)

    from ..city import real_world_dataset, simulation_dataset, tiny_dataset
    from ..data import SiteRecDataset

    if args.preset == "tiny":
        sim = tiny_dataset(seed=args.seed)
    elif args.preset == "real":
        sim = real_world_dataset(seed=args.seed, scale=args.scale)
    else:
        sim = simulation_dataset(seed=args.seed, scale=args.scale)
    dataset = SiteRecDataset.from_simulation(sim)
    split = dataset.split(seed=args.split_seed)
    return ModelSnapshot.from_checkpoint(args.checkpoint, dataset, split)


def build_convert_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve convert",
        description="Convert a .npz snapshot to the zero-copy .arena format.",
    )
    parser.add_argument("source", type=Path, help="source snapshot (.npz)")
    parser.add_argument(
        "dest",
        type=Path,
        nargs="?",
        default=None,
        help="destination .arena (default: source with .arena suffix)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-opening the arena to check the fingerprint",
    )
    return parser


def _convert_main(argv) -> int:
    args = build_convert_parser().parse_args(argv)
    path = convert_snapshot(args.source, args.dest, verify=not args.no_verify)
    print(f"wrote arena {path}")
    return 0


def build_index_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve build-index",
        description="Attach a retrieval index to a snapshot "
        "(retrieve-then-rank serving).",
    )
    parser.add_argument("source", type=Path, help="snapshot (.npz or .arena)")
    parser.add_argument(
        "dest",
        type=Path,
        nargs="?",
        default=None,
        help="output snapshot+index (default: rewrite source in place)",
    )
    parser.add_argument(
        "--kind",
        choices=["ivf", "flat"],
        default="ivf",
        help="ivf = partitioned (nprobe knob), flat = exhaustive baseline",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="IVF partition count (default: ~sqrt(num regions))",
    )
    parser.add_argument(
        "--retrieve-m",
        type=int,
        default=64,
        help="default retrieval depth stored with the index",
    )
    parser.add_argument(
        "--nprobe",
        type=int,
        default=None,
        help="default probe count stored with the index "
        "(default: partitions // 4)",
    )
    parser.add_argument("--seed", type=int, default=0, help="k-means seed")
    parser.add_argument(
        "--iters", type=int, default=15, help="k-means Lloyd iterations"
    )
    return parser


def _build_index_main(argv) -> int:
    args = build_index_parser().parse_args(argv)
    snapshot = ModelSnapshot.load(args.source)
    index = snapshot.build_index(
        kind=args.kind,
        partitions=args.partitions,
        retrieve_m=args.retrieve_m,
        nprobe=args.nprobe,
        seed=args.seed,
        iters=args.iters,
    )
    dest = args.source if args.dest is None else args.dest
    fmt = (
        "arena"
        if dest.suffix == ".arena"
        or (args.dest is None and is_arena_file(args.source))
        else "npz"
    )
    path = snapshot.save(dest, format=fmt)
    info = index.describe()
    print(
        f"wrote {info['kind']} index ({info['partitions']} partitions, "
        f"retrieve_m={info['retrieve_m']}, nprobe={info['nprobe']}, "
        f"{info['bytes'] / 1e6:.2f} MB) into {path}"
    )
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch before the flag parser: `convert` and
    # `build-index` have their own positional grammar, everything else
    # keeps the original flags.
    if argv and argv[0] == "convert":
        return _convert_main(argv[1:])
    if argv and argv[0] == "build-index":
        return _build_index_main(argv[1:])
    args = build_parser().parse_args(argv)
    procs = args.procs
    if procs < 1:
        build_parser().error("--procs must be >= 1")

    if procs > 1 and args.export_snapshot is None:
        # The worker pool loads the snapshot per process from a path; the
        # line protocol is single-process by nature.
        if args.http is None:
            build_parser().error("--procs > 1 requires --http")
        if args.snapshot is None:
            build_parser().error(
                "--procs > 1 requires --snapshot (export the checkpoint "
                "with --export-snapshot first)"
            )
        pool = WorkerPool(
            args.snapshot,
            host=args.host,
            port=args.http,
            procs=procs,
            manifest_path=args.manifest,
            service_kwargs={
                "default_k": args.default_k,
                "max_batch_size": args.max_batch_size,
                "cache_entries": args.cache_entries,
                "cache_ttl_s": args.cache_ttl_s,
                **_index_kwargs(args),
            },
        )
        with pool:
            print(
                f"serving {args.snapshot} with {procs} workers "
                f"on http://{args.host}:{pool.port}"
            )
            import signal
            import time

            # Treat SIGTERM like Ctrl-C so process managers get the same
            # orderly drain (stop event -> worker join) as interactive use.
            signal.signal(signal.SIGTERM, signal.default_int_handler)
            try:
                while True:  # workers carry the traffic; just sit here
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
        return 0

    snapshot = _load_snapshot(args)

    if args.export_snapshot is not None:
        path = snapshot.save(args.export_snapshot, format=args.snapshot_format)
        print(f"wrote snapshot {snapshot.snapshot_id} to {path}")
        return 0

    if args.index == "on" and snapshot.index is None:
        build_parser().error(
            "--index on requires an indexed snapshot (run "
            "`python -m repro.serve build-index` first)"
        )
    service = RecommendationService(
        snapshot,
        default_k=args.default_k,
        max_batch_size=args.max_batch_size,
        cache_entries=args.cache_entries,
        cache_ttl_s=args.cache_ttl_s,
        **_index_kwargs(args),
    )
    try:
        if args.once is not None:
            response, _ = handle_line(service, args.once)
            print(response)
            return 0 if not response.startswith("ERR") else 1
        if args.http is not None:
            server = serve_http(service, host=args.host, port=args.http)
            print(
                f"serving snapshot {snapshot.snapshot_id} "
                f"on http://{args.host}:{args.http}"
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
            finally:
                server.server_close()
            return 0
        print(
            f"serving snapshot {snapshot.snapshot_id} on stdin "
            "(PING / TYPES / QUERY / STATS / RELOAD / QUIT)",
            file=sys.stderr,
        )
        serve_lines(service, sys.stdin, sys.stdout)
        return 0
    finally:
        service.close()


if __name__ == "__main__":
    raise SystemExit(main())
