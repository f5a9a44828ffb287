"""In-memory spans around calls into the package, and self time per layer.

A span's layer is its name up to the first dot (``mfdfa.fit`` belongs to
``mfdfa``).  Self time is a span's duration minus the time its direct
children cover; time the root covers but no layer span does is the
remainder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rendition": None,
            "part": None,
            "window": None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter() - self._origin
        try:
            yield span
        finally:
            span["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def durations(self, name: str, **match) -> list[float]:
        """Durations in seconds of the spans called ``name`` whose attrs match."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]


def self_times(spans: list[dict], root_id: int) -> tuple[dict[str, float], float, float]:
    """(self seconds per layer, remainder, root duration) under one root."""
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_id = {s["id"]: s for s in spans}

    def under_root(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span["id"] == root_id

    layers: dict[str, float] = {}
    for s in spans:
        if s["id"] != root_id and under_root(s):
            layer = s["name"].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s["end"] - s["start"] - child_time[s["id"]]
    root = by_id[root_id]
    root_s = root["end"] - root["start"]
    return layers, root_s - child_time[root_id], root_s
