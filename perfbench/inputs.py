"""Seeded inputs and their reference answers, made once per seed.

Each workload's inputs go to ``<work>/inputs/<workload>-<seed>/``:

* ``graph.rpdc`` — the graph as an RPDC disk CSR, the file the program
  opens (the benchmark hands it data, never a generator call);
* ``pairs.npy`` — the query stream: ``(N, 2)`` int64 pairs, or for
  ``ba-rw`` the reads of each round, ``(rounds, 49, 2)``;
* ``updates.npy`` — ``ba-rw`` only: the seeded non-edges it inserts;
* ``reference.npy`` — the expected answer for every pair;
* ``meta.json`` — sizes, and how many reference answers were checked
  against BFS truth and disagreed (written last, so its presence marks
  a complete directory).

The reference for ``ba-batch`` and ``ws-point`` is an in-process
``query_many`` over every pair, itself checked against BFS truth on a
seeded sample. For ``ba-rw`` every read is checked against BFS on the
graph as it stands after that round's update.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

K = 20
FRAME = 512
BFS_SAMPLE = 16
#: ba-rw: reads per round come from this many sources, each with this
#: many targets (7 x 7 = 49 reads), so BFS truth costs 7 BFS per round.
RW_SOURCES = 7
RW_TARGETS = 7
RW_ROUNDS = 64  # even: the stream ends on a delete, back at the seed graph

SPECS = {
    "ba-batch": {"kind": "ba", "n": 100_000, "attach": 4, "pairs": 8 * FRAME},
    "ws-point": {"kind": "ws", "n": 100_000, "degree": 8, "rewire": 0.05, "pairs": 4096},
    "ba-rw": {"kind": "ba", "n": 20_000, "attach": 4, "rounds": RW_ROUNDS},
}


def make_graph(spec: dict, seed: int):
    from repro.graphs.generators import barabasi_albert_graph, watts_strogatz_graph

    if spec["kind"] == "ba":
        return barabasi_albert_graph(spec["n"], spec["attach"], seed=seed)
    return watts_strogatz_graph(spec["n"], spec["degree"], spec["rewire"], seed=seed)


def random_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    pairs = rng.integers(0, n, size=(count, 2), dtype=np.int64)
    same = pairs[:, 0] == pairs[:, 1]
    pairs[same, 1] = (pairs[same, 1] + 1) % n
    return pairs


def _static_reference(graph, pairs: np.ndarray) -> tuple:
    from repro.api import open_oracle
    from repro.search.bfs import UNREACHED, bfs_distances

    oracle = open_oracle(graph, num_landmarks=K)
    reference = oracle.query_many(pairs)
    mismatches = 0
    for s, t, d in zip(pairs[:BFS_SAMPLE, 0], pairs[:BFS_SAMPLE, 1], reference[:BFS_SAMPLE]):
        truth = bfs_distances(graph, int(s))[int(t)]
        expected = float("inf") if truth == UNREACHED else float(truth)
        mismatches += int(expected != d)
    return np.asarray(reference, dtype=np.float64), mismatches


def _rw_inputs(graph, rng: np.random.Generator, rounds: int) -> tuple:
    """Seeded non-edges, 7 x 7 reads per round, and BFS truth for each
    read on the graph after that round's update.

    Round ``r`` inserts ``updates[r // 2]`` when ``r`` is even and
    deletes it again when ``r`` is odd, so after odd rounds the graph is
    the seed graph and after even rounds it has one extra edge.
    """
    from repro.search.bfs import UNREACHED, bfs_distances

    n = graph.num_vertices
    updates = []
    chosen = set()
    while len(updates) < rounds // 2:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        key = (min(u, v), max(u, v))
        if u != v and key not in chosen and not graph.has_edge(u, v):
            chosen.add(key)
            updates.append(key)
    updates = np.asarray(updates, dtype=np.int64)
    reads = np.empty((rounds, RW_SOURCES * RW_TARGETS, 2), dtype=np.int64)
    reference = np.empty((rounds, RW_SOURCES * RW_TARGETS), dtype=np.float64)
    for r in range(rounds):
        sources = rng.integers(0, n, size=RW_SOURCES)
        targets = rng.integers(0, n, size=(RW_SOURCES, RW_TARGETS))
        current = graph.with_edges_added([tuple(updates[r // 2])]) if r % 2 == 0 else graph
        for i, s in enumerate(sources):
            dist = bfs_distances(current, int(s))
            row = slice(i * RW_TARGETS, (i + 1) * RW_TARGETS)
            reads[r, row, 0] = s
            reads[r, row, 1] = targets[i]
            truth = dist[targets[i]].astype(np.float64)
            truth[dist[targets[i]] == UNREACHED] = np.inf
            reference[r, row] = truth
    return updates, reads, reference


def ensure_inputs(workload: str, seed: int, work: Path) -> Path:
    """Make (or reuse) the inputs of ``workload`` for ``seed``."""
    from repro.graphs.disk_csr import write_graph_disk_csr

    final = work / "inputs" / f"{workload}-{seed}"
    if (final / "meta.json").exists():
        return final
    spec = SPECS[workload]
    staging = work / "inputs" / f".{workload}-{seed}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    graph = make_graph(spec, seed)
    write_graph_disk_csr(graph, staging / "graph.rpdc")
    rng = np.random.default_rng([seed, 0x5EED])
    meta = {"workload": workload, "seed": seed, "n": graph.num_vertices, "m": graph.num_edges}
    if workload == "ba-rw":
        updates, reads, reference = _rw_inputs(graph, rng, spec["rounds"])
        np.save(staging / "updates.npy", updates)
        np.save(staging / "pairs.npy", reads)
        meta.update(bfs_checked=0, bfs_mismatches=0)  # the reference is BFS
    else:
        pairs = random_pairs(rng, graph.num_vertices, spec["pairs"])
        reference, mismatches = _static_reference(graph, pairs)
        np.save(staging / "pairs.npy", pairs)
        meta.update(bfs_checked=BFS_SAMPLE, bfs_mismatches=mismatches)
    np.save(staging / "reference.npy", reference)
    (staging / "meta.json").write_text(json.dumps(meta))
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)
    return final
