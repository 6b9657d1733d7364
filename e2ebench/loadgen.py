"""Seeded open-loop request schedule, its expected answers, the HTTP load
generator and the response checker for ``serve-metropolis``.

The schedule is a pure function of (seed, seconds, servable regions):
requests are due every ``1 / RATE`` seconds; two thirds are citywide
queries (``/recommend?type=T&k=10`` with 4 random exclusions) and one third
are shortlists (64 explicit candidates from a random window of the
servable list).  Expected answers come from a full scan of every servable
region (``expect.npz``, built by the prepare step), not from the index or
the micro-batcher under test.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

RATE = 100.0  # requests per second, fixed
CONNECTIONS = 2  # keep-alive connections, one client thread each
EXCLUSIONS = 4
SHORTLIST = 64
CITYWIDE, SHORTLIST_CLASS = "citywide", "shortlist"
# A pair scored inside a coalesced batch can differ from solo scoring in
# the last ulp; anything beyond this is a wrong answer.
SCORE_RTOL = 1e-9
SCORE_ATOL = 1e-12


@dataclass
class Request:
    index: int
    due: float  # seconds after the phase start
    cls: str
    store_type: int
    positions: np.ndarray  # excluded (citywide) or listed (shortlist) positions
    path: str = ""


@dataclass
class Record:
    index: int
    cls: str
    due: float  # absolute monotonic time
    sent: float = 0.0
    done: float = 0.0
    status: Optional[int] = None  # None = no response (refused / reset)
    body: bytes = b""


def make_schedule(
    seed: int, seconds: float, candidates: np.ndarray, num_types: int, k: int
) -> List[Request]:
    rng = np.random.default_rng([seed, 0x5E4E])
    count = max(int(round(seconds * RATE)), 3)
    # Exactly one third shortlists, in a seeded order.
    classes = np.array([CITYWIDE] * (count - count // 3) + [SHORTLIST_CLASS] * (count // 3))
    rng.shuffle(classes)
    n = len(candidates)
    out = []
    for i, cls in enumerate(classes):
        t = int(rng.integers(num_types))
        if cls == CITYWIDE:
            positions = np.sort(rng.choice(n, size=EXCLUSIONS, replace=False))
            query = "exclude=" + ",".join(str(int(r)) for r in candidates[positions])
        else:
            start = int(rng.integers(n - SHORTLIST + 1))
            positions = np.arange(start, start + SHORTLIST)
            query = "candidates=" + ",".join(str(int(r)) for r in candidates[positions])
        out.append(
            Request(i, i / RATE, str(cls), t, positions, f"/recommend?type={t}&k={k}&{query}")
        )
    return out


def expected_answer(
    sheet: np.ndarray, candidates: np.ndarray, request: Request, k: int
) -> Tuple[List[int], np.ndarray]:
    """(regions, scores) the service must return, from full-scan scores.

    Ties break by ascending candidate position, like the service's stable
    top-k.
    """
    row = sheet[request.store_type]
    if request.cls == CITYWIDE:
        keep = np.ones(len(candidates), dtype=bool)
        keep[request.positions] = False
        positions = np.flatnonzero(keep)
    else:
        positions = request.positions
    order = np.argsort(-row[positions], kind="stable")[:k]
    chosen = positions[order]
    return [int(r) for r in candidates[chosen]], row[chosen]


def answer_matches(body: bytes, expected: Tuple[List[int], np.ndarray]) -> bool:
    try:
        got = json.loads(body)
        regions = [int(item["region"]) for item in got]
        scores = np.array([float(item["score"]) for item in got])
    except (ValueError, KeyError, TypeError):
        return False
    want_regions, want_scores = expected
    return regions == want_regions and bool(
        np.allclose(scores, want_scores, rtol=SCORE_RTOL, atol=SCORE_ATOL)
    )


def check_records(
    records: Sequence[Record], expectations: Dict[int, Sequence[Tuple[List[int], np.ndarray]]]
) -> List[bool]:
    """Per record: True when it got a 200 whose body equals one of the
    request's expected answers (arena A's or B's).  A refused request, an
    error status and a wrong answer are all False -- never dropped."""
    return [
        r.status == 200 and any(answer_matches(r.body, e) for e in expectations[r.index])
        for r in records
    ]


def _client(host: str, port: int, records: List[Record], paths: Dict[int, str]) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for record in records:
            delay = record.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record.sent = time.monotonic()
            try:
                conn.request("GET", paths[record.index])
                response = conn.getresponse()
                record.body = response.read()
                record.status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()  # reconnect on the next request
                conn = http.client.HTTPConnection(host, port, timeout=30)
            record.done = time.monotonic()
    finally:
        conn.close()


def run_open_loop(
    host: str,
    port: int,
    schedule: Sequence[Request],
    start: float,
    actions: Sequence[Tuple[float, callable]] = (),
) -> List[Record]:
    """Send ``schedule`` on its timetable over ``CONNECTIONS`` keep-alive
    connections (request i on connection i mod CONNECTIONS); run each
    ``(offset, fn)`` in ``actions`` from this thread at its offset."""
    records = [Record(r.index, r.cls, start + r.due) for r in schedule]
    paths = {r.index: r.path for r in schedule}
    threads = [
        threading.Thread(
            target=_client,
            args=(host, port, records[c::CONNECTIONS], paths),
            name=f"loadgen-{c}",
            daemon=True,
        )
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for offset, action in sorted(actions, key=lambda a: a[0]):
        delay = start + offset - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        action()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    return records


def latencies_ms(records: Sequence[Record], ok: Sequence[bool]) -> List[Tuple[str, float]]:
    """(class, ms from the scheduled send time); a failed request counts as
    infinitely late, so it misses every latency limit."""
    return [
        (r.cls, (r.done - r.due) * 1e3 if good else float("inf"))
        for r, good in zip(records, ok)
    ]
