"""Benchmark-side spans for the traced run.

The traced run wraps each call it makes into a layer in a span recorded
here, from outside the program; the program's own ``env.tracer`` is
neither configured nor read.  Spans stay in memory and are written once,
when the run ends.  The traced run issues one operation at a time on one
thread, so a plain stack tracks the open span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from stats import p50


class Recorder:
    """Collects ``(id, name, parent, op, start, end)`` spans."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        #: identifier shared by every span of the operation in progress
        self.op: Optional[int] = None

    def span(self, name: str) -> "_Span":
        """A context manager recording one span under the open one."""
        return _Span(self, name)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, median duration and median self time (us)."""
        own = self.self_times()
        by_name = defaultdict(lambda: ([], []))
        for s in self.spans:
            total, self_time = by_name[s["name"]]
            total.append(s["end"] - s["start"])
            self_time.append(own[s["id"]])
        return {
            name: {
                "count": len(total),
                "p50_us": p50(total) * 1e6,
                "self_p50_us": p50(self_time) * 1e6,
            }
            for name, (total, self_time) in by_name.items()
        }

    def dump(self, path, **extra) -> None:
        """Write every span plus the per-name summary to ``path``."""
        with open(path, "w") as fh:
            json.dump({**extra, "summary": self.summary(), "spans": self.spans}, fh)


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        rec = self._recorder
        self._row = {
            "id": len(rec.spans),
            "name": self._name,
            "parent": rec._open[-1] if rec._open else None,
            "op": rec.op,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.spans.append(self._row)
        rec._open.append(self._row["id"])

    def __exit__(self, *exc) -> None:
        self._row["end"] = time.perf_counter()
        self._recorder._open.pop()
