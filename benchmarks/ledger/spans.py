"""In-memory spans around the calls into each layer, written out at exit.

The program is measured from outside: spans are recorded by the benchmark
around its own calls (and, for the stages a job reports, laid out from the
job's ``stage_times``), kept in a list, and exported once as Chrome
trace-event JSON.  A layer's self time is its span minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Span recorder; with ``enabled=False`` every call is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, job: Optional[int] = None,
            **counts) -> Optional[int]:
        """Record a finished span (also used for job-reported stages)."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "job": job,
                "thread": threading.current_thread().name, "counts": counts,
            })
        return span_id

    @contextmanager
    def span(self, name: str, job: Optional[int] = None,
             **counts) -> Iterator[Optional[int]]:
        """Time the enclosed block; nested spans become its children."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self.add(name, time.perf_counter(), 0.0, parent, job,
                           **counts)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self seconds (duration minus children)."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + max(0.0, own)
        return out

    def write_chrome(self, path: str) -> None:
        """Chrome / Perfetto trace-event JSON (complete 'X' events)."""
        if not self.spans:
            return
        origin = min(s["start"] for s in self.spans)
        threads = sorted({s["thread"] for s in self.spans})
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 1,
                "tid": threads.index(s["thread"]),
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"],
                         "job": s["job"], **s["counts"]},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
