"""In-memory spans around calls into the program's layers.

A span records one call into a layer's public function: its name, start
and end (``perf_counter`` seconds), the span that caused it, the request
it belongs to and how many operations (pairs, updates) it covered. Spans
are kept in a list and summarised when the run ends; nothing is written
while the timed phase runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    ops: int


class Tracer:
    """Collects spans; ``span`` nests through an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: int = 0, ops: int = 1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, request, ops)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: int = 0,
        ops: int = 1,
        parent: Optional[int] = None,
    ) -> int:
        """Record a span the caller timed itself; returns its index.

        Concurrent clients use this (they cannot share one parent
        stack), and so do loops that keep their untimed path free of
        context managers and attach spans once a request is done.
        """
        self.spans.append(Span(name, start, end, parent, request, ops))
        return len(self.spans) - 1

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, ops, total and self seconds.

        A span's self time is its duration minus the time its direct
        children cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(
                span.name, {"calls": 0, "ops": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span.end - span.start
            row["calls"] += 1
            row["ops"] += span.ops
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
        return table


#: For each traced layer, the layers directly beneath it on the same call
#: path. The report subtracts their per-op time from the layer's own, so
#: the difference is what the layer adds on top of the work it delegates.
#: Layers not listed are leaves.
LAYER_BELOW = {
    "net.frame": ["batch.query_many"],
    "net.query": ["query.point"],
    "service.query": ["executor.run"],
    "executor.run": ["batch.query_many"],
    "batch.query_many": ["batch.upper_bounds"],
    "query.point": ["kernels.upper_bound"],
    "dynamic.first_read": ["query.point"],
    "dynamic.insert_edge": ["graph.with_edges_added", "wal.append"],
    "dynamic.delete_edge": ["graph.with_edges_removed", "wal.append"],
}


def layer_rows(tracer: Tracer) -> List[Dict[str, object]]:
    """The per-layer table: calls, ops, total, self, per-op time and the
    difference from the layers below."""
    table = tracer.summary()
    per_op = {
        name: row["total_s"] / row["ops"] * 1e6 for name, row in table.items() if row["ops"]
    }
    rows = []
    for name in sorted(table):
        row = table[name]
        below = [b for b in LAYER_BELOW.get(name, []) if b in per_op]
        diff = per_op[name] - sum(per_op[b] for b in below) if below else None
        rows.append(
            {
                "layer": name,
                "calls": int(row["calls"]),
                "ops": int(row["ops"]),
                "total_ms": row["total_s"] * 1e3,
                "self_ms": row["self_s"] * 1e3,
                "ms_per_call": row["total_s"] / row["calls"] * 1e3,
                "us_per_op": per_op.get(name, 0.0),
                "below": "+".join(below) or "-",
                "diff_us_per_op": diff,
            }
        )
    return rows


def format_rows(rows: List[Dict[str, object]], overhead: Dict[str, float]) -> str:
    header = (
        f"{'layer':<24}{'calls':>8}{'ops':>9}{'total ms':>11}{'self ms':>11}"
        f"{'ms/call':>10}{'us/op':>11}  {'below':<44}{'diff us/op':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        diff = "-" if r["diff_us_per_op"] is None else f"{r['diff_us_per_op']:.2f}"
        lines.append(
            f"{r['layer']:<24}{r['calls']:>8}{r['ops']:>9}{r['total_ms']:>11.2f}"
            f"{r['self_ms']:>11.2f}{r['ms_per_call']:>10.3f}{r['us_per_op']:>11.2f}  "
            f"{r['below']:<44}{diff:>11}"
        )
    lines.append(
        f"{'tracing overhead':<24} untraced p50 {overhead['untraced_ms']:.4f} ms, "
        f"traced p50 {overhead['traced_ms']:.4f} ms, "
        f"difference {overhead['pct']:+.2f}%"
    )
    return "\n".join(lines)
