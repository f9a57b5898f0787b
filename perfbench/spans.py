"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name (``<layer>.<call>``), start, end,
the span that caused it, the run it belongs to, and counts attached where the
work happens.  Spans stay in memory and are written as JSONL once the run
ends.  Self time is a span's duration minus the time its child spans cover;
children never overlap because every call runs on one thread.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def rss_mb() -> float:
    """Peak resident set size of this process so far (a running maximum)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.monotonic()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"run_id": self.run_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.monotonic() - self._origin, "end": None,
               "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.monotonic() - self._origin
            rec["attrs"]["peak_rss_mb"] = rss_mb()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """The root span and every span below it, in recording order."""
    keep = {root_id}
    out = []
    for s in spans:
        if s["id"] in keep or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out
