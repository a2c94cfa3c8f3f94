"""Per-layer probes for the traced run.

Each probe times calls into one layer's public function on the
workload's own graph and pairs, and records them as spans. A layer the
workload's timed loop already exercised (the net frame on ``ba-batch``,
the service on ``ws-point``, the dynamic oracle on ``ba-rw``) is taken
from the loop's spans instead of probed again. Every probed answer is
checked against the seed's reference.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Tuple

import numpy as np

from inputs import FRAME, K
from tracing import Tracer, layer_rows
from workloads import Server, same

PROBE_PAIRS = 1000
PROBE_FRAMES = 3
SEARCH_PAIRS = 300
SERVICE_QUERIES = 200
NET_QUERIES = 200
CODEC_REPEATS = 50
WAL_APPENDS = 30
PATCH_REPEATS = 5
DYNAMIC_UPDATES = 2

#: Per-layer metric -> (span name, scale from seconds per op, unit).
PER_OP = {
    "kernels.bound_us": ("kernels.upper_bound", 1e6, "us"),
    "search.bounded_us": ("search.bounded", 1e6, "us"),
    "query.point_us": ("query.point", 1e6, "us"),
    "batch.us_per_pair": ("batch.query_many", 1e6, "us"),
    "batch.bound_us_per_pair": ("batch.upper_bounds", 1e6, "us"),
    "executor.us_per_pair": ("executor.run", 1e6, "us"),
    "service.point_ms": ("service.query", 1e3, "ms"),
    "wire.codec_us_per_pair": ("wire.codec", 1e6, "us"),
    "net.point_ms": ("net.query", 1e3, "ms"),
    "dynamic.insert_ms": ("dynamic.insert_edge", 1e3, "ms"),
    "dynamic.delete_ms": ("dynamic.delete_edge", 1e3, "ms"),
    "dynamic.first_read_ms": ("dynamic.first_read", 1e3, "ms"),
    "wal.append_ms": ("wal.append", 1e3, "ms"),
    "landmarks.select_ms": ("landmarks.select", 1e3, "ms"),
    "build.labels_s": ("build.labels", 1.0, "s"),
}


class Probe:
    def __init__(self, ctx, tracer: Tracer) -> None:
        self.ctx = ctx
        self.tracer = tracer
        self.wrong = 0
        self.pairs = ctx.base_pairs
        self.reference = ctx.base_reference

    def check(self, answers, lo: int, hi: int) -> None:
        self.wrong += int(not same(answers, self.reference[lo:hi]))

    def frames(self):
        count = min(PROBE_FRAMES, len(self.pairs) // FRAME)
        return [(i * FRAME, (i + 1) * FRAME) for i in range(count)]

    def build(self, graph) -> int:
        from repro.core.construction import build_highway_cover_labelling
        from repro.landmarks import select_landmarks

        for _ in range(2):
            with self.tracer.span("landmarks.select"):
                landmarks = select_landmarks(graph, K)
            with self.tracer.span("build.labels"):
                labelling, _ = build_highway_cover_labelling(graph, landmarks)
        return labelling.size()

    def kernels_and_search(self, oracle, graph) -> float:
        from repro.search.bounded import bounded_bidirectional_distance

        span = self.tracer.span
        head = self.pairs[:PROBE_PAIRS]
        for s, t in head:
            with span("kernels.upper_bound"):
                oracle.upper_bound(int(s), int(t))
        answers, covered = oracle.query_many(head, return_coverage=True)
        self.check(answers, 0, len(head))
        mask = oracle.highway.landmark_mask(graph.num_vertices)
        searched = 0
        for i in np.flatnonzero(~np.asarray(covered, dtype=bool)):
            s, t = int(head[i, 0]), int(head[i, 1])
            bound = oracle.upper_bound(s, t)
            if mask[s] or mask[t] or not np.isfinite(bound) or bound <= 1:
                continue
            with span("search.bounded"):
                d = bounded_bidirectional_distance(graph, s, t, bound, excluded=mask)
            self.check([d], i, i + 1)
            searched += 1
            if searched == SEARCH_PAIRS:
                break
        return float(np.mean(covered))

    def point(self, oracle) -> None:
        for i, (s, t) in enumerate(self.pairs[:PROBE_PAIRS]):
            with self.tracer.span("query.point"):
                d = oracle.query(int(s), int(t))
            self.check([d], i, i + 1)

    def batch_and_executor(self, oracle) -> float:
        from repro.serving import QueryExecutor

        span = self.tracer.span
        engine = oracle.batch_engine()
        for lo, hi in self.frames():
            with span("batch.query_many", ops=hi - lo):
                answers = oracle.query_many(self.pairs[lo:hi])
            self.check(answers, lo, hi)
            with span("batch.upper_bounds", ops=hi - lo):
                engine.upper_bounds(self.pairs[lo:hi])
        executor = QueryExecutor.for_oracle(oracle)
        try:
            start = time.perf_counter()
            for lo, hi in self.frames():
                with span("executor.run", ops=hi - lo):
                    answers = executor.run(oracle.query_many, self.pairs[lo:hi])
                self.check(answers, lo, hi)
            elapsed = time.perf_counter() - start
            stats = executor.stats()
        finally:
            executor.close()
        busy = sum(t["busy_s"] for t in stats["per_thread"])
        return busy / (elapsed * max(len(stats["per_thread"]), 1))

    def service(self, oracle) -> float:
        from repro.serving import DistanceService

        service = DistanceService()
        try:
            service.register("g", oracle)
            for i, (s, t) in enumerate(self.pairs[:SERVICE_QUERIES]):
                with self.tracer.span("service.query"):
                    d = service.query("g", int(s), int(t))
                self.check([d], i, i + 1)
            return service.stats("g")["batch_occupancy"]
        finally:
            service.close()

    def net(self, server, oracle) -> Tuple[float, int]:
        """Frame round trip against in-process ``query_many`` on the same
        pairs, point queries, and the server's admission rejections."""
        from repro.serving.net import NetClient

        span = self.tracer.span
        remote, local = [], []
        with NetClient(server.host, server.port) as client:
            for lo, hi in self.frames():
                t0 = time.perf_counter()
                answers = client.query_many(self.pairs[lo:hi], batch_size=FRAME, window=1)
                t1 = time.perf_counter()
                oracle.query_many(self.pairs[lo:hi])
                t2 = time.perf_counter()
                self.tracer.add("net.frame", t0, t1, ops=hi - lo)
                remote.append(t1 - t0)
                local.append(t2 - t1)
                self.check(answers, lo, hi)
            for i, (s, t) in enumerate(self.pairs[:NET_QUERIES]):
                with span("net.query"):
                    d = client.query(int(s), int(t))
                self.check([d], i, i + 1)
            rejected = int(client.stats()["rejected"])
        overhead_ms = (statistics.median(remote) - statistics.median(local)) * 1e3
        return overhead_ms, rejected

    def wire(self) -> None:
        from repro.serving.net import wire

        frame = self.pairs[:FRAME]
        distances = self.reference[:FRAME]
        for _ in range(CODEC_REPEATS):
            with self.tracer.span("wire.codec", ops=len(frame)):
                wire.decode_pairs(wire.encode_pairs(frame))
                decoded = wire.decode_distances(wire.encode_distances(distances))
        self.wrong += int(not same(decoded, distances))

    def dynamic(self, graph) -> float:
        """Insert then delete seeded non-edges, reading once after each."""
        from repro.api import open_oracle

        span = self.tracer.span
        wal = self.ctx.work / "probe.wal"
        wal.unlink(missing_ok=True)
        oracle = open_oracle(
            str(self.ctx.graph_path), dynamic=True, wal=str(wal), wal_fsync="always",
            num_landmarks=K,
        )
        affected = []
        try:
            edges = [tuple(int(x) for x in p) for p in self.pairs if not graph.has_edge(*p)]
            for u, v in edges[:DYNAMIC_UPDATES]:
                for name, update in (("dynamic.insert_edge", oracle.insert_edge),
                                     ("dynamic.delete_edge", oracle.delete_edge)):
                    with span(name):
                        affected.append(len(update(u, v)))
                    with span("dynamic.first_read"):
                        d = oracle.query(int(self.pairs[0, 0]), int(self.pairs[0, 1]))
                    if name == "dynamic.delete_edge":  # back on the seed graph
                        self.check([d], 0, 1)
        finally:
            oracle.wal.close()
            wal.unlink(missing_ok=True)
        return float(np.mean(affected))

    def wal_and_graph(self, graph) -> None:
        from repro.core.wal import WriteAheadLog

        path = self.ctx.work / "append.wal"
        path.unlink(missing_ok=True)
        log = WriteAheadLog(path, fsync="always")
        try:
            for i in range(WAL_APPENDS):
                with self.tracer.span("wal.append"):
                    log.append("insert_edge", i, i + 1)
        finally:
            log.close()
            path.unlink(missing_ok=True)
        u, v = (int(x) for x in self.pairs[0])
        for _ in range(PATCH_REPEATS):
            with self.tracer.span("graph.with_edges_added"):
                patched = graph.with_edges_added([(u, v)])
            with self.tracer.span("graph.with_edges_removed"):
                patched.with_edges_removed([(u, v)])


def probe_layers(workload: str, ctx, handle, tracer: Tracer, plain: dict, traced: dict):
    """Run every probe the workload's loop did not cover; returns the
    per-layer metrics, the layer table rows, the tracing overhead and
    the number of wrong probe answers."""
    from repro.api import open_oracle
    from repro.api.factory import as_graph

    probe = Probe(ctx, tracer)
    graph = as_graph(str(ctx.graph_path))
    metrics: Dict[str, Tuple[float, str]] = {}
    metrics["build.label_entries"] = (probe.build(graph), "count")
    oracle = handle.oracle("g") if workload == "ws-point" else open_oracle(graph, num_landmarks=K)
    metrics["kernels.covered_frac"] = (probe.kernels_and_search(oracle, graph), "ratio")
    if workload != "ba-rw":  # ba-rw's loop timed query.point on the dynamic oracle
        probe.point(oracle)
    metrics["executor.busy_frac"] = (probe.batch_and_executor(oracle), "ratio")
    if workload == "ws-point":
        metrics["service.batch_occupancy"] = (handle.stats("g")["batch_occupancy"], "count")
    else:
        metrics["service.batch_occupancy"] = (probe.service(oracle), "count")
    probe.wire()
    server = handle if workload == "ba-batch" else Server(ctx.graph_path, ctx.work)
    try:
        overhead_ms, rejected = probe.net(server, oracle)
    finally:
        if server is not handle:
            server.stop()
    metrics["net.frame_overhead_ms"] = (overhead_ms, "ms")
    metrics["net.rejected"] = (rejected, "count")
    if workload == "ba-rw":
        metrics["dynamic.affected"] = (float(np.mean(traced["affected"])), "count")
    else:
        metrics["dynamic.affected"] = (probe.dynamic(graph), "count")
    probe.wal_and_graph(graph)

    table = tracer.summary()
    for name, (span, scale, unit) in PER_OP.items():
        metrics[name] = (table[span]["total_s"] / table[span]["ops"] * scale, unit)
    patch = [table[n] for n in ("graph.with_edges_added", "graph.with_edges_removed")]
    metrics["graph.patch_ms"] = (sum(r["total_s"] for r in patch) / sum(r["ops"] for r in patch) * 1e3, "ms")
    untraced = plain["p50_s"] * 1e3
    traced_ms = traced["p50_s"] * 1e3
    overhead = {"untraced_ms": untraced, "traced_ms": traced_ms, "pct": (traced_ms / untraced - 1) * 100}
    metrics["trace.overhead_pct"] = (overhead["pct"], "%")
    return metrics, layer_rows(tracer), overhead, probe.wrong
