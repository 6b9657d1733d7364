"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: :func:`wrap`
replaces a public function or method of the program with a wrapper that
opens a span around the original call.  Nothing inside ``repro`` changes.
Each span keeps (name, start, end, parent); self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


class Tracer:
    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([name, time.monotonic(), None, parent])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span measured elsewhere (e.g. by a client thread)."""
        with self._lock:
            self.spans.append([name, start, end, parent])

    # -- instrumentation -------------------------------------------------
    def wrap(self, target: str, name: str) -> None:
        """Trace calls to ``target`` ("module:attr" or "module:Class.attr")."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind is not None else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(owner, attr, kind(traced) if kind is not None else traced)

    # -- reading ---------------------------------------------------------
    def closed(self) -> List[list]:
        return [s for s in self.spans if s[2] is not None]

    def within(self, ancestor: str) -> List[list]:
        """Closed spans that have a span named ``ancestor`` above them."""
        out = []
        for span in self.closed():
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    out.append(span)
                    break
                parent = self.spans[parent][3]
        return out

    def durations(self, name: str, spans: Optional[Sequence[list]] = None) -> List[float]:
        """Durations of the spans named ``name`` (from ``spans``, default all
        closed ones) that have no span of the same name above them, so a
        wrapped call into another call of the same name counts once."""
        pool = self.closed() if spans is None else spans
        out = []
        for span in pool:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span[2] - span[1])
        return out

    def summary(self) -> Dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.closed():
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        table: Dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            if span[2] is None:
                continue
            row = table.setdefault(span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += span[2] - span[1] - child_time[i]
        return table


def layer_self_times(summary: Dict[str, dict]) -> Dict[str, float]:
    """Self seconds per product layer (first dotted component of a name)."""
    out: Dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def format_summary(summary: Dict[str, dict]) -> str:
    lines = [f"{'span':36s} {'count':>7s} {'total_s':>10s} {'self_s':>10s}"]
    for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
        row = summary[name]
        lines.append(
            f"{name:36s} {row['count']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    return "\n".join(lines)
