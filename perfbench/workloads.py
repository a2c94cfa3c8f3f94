"""The three workloads, each run in a fresh worker process.

``run.py`` runs one workload per ``perfbench/worker.py`` process, which
prints the result as one JSON line.

Every workload is a closed loop over a seeded stream that is cycled until
``seconds`` have passed, always finishing the request or round in hand:

* ``ba-batch`` — ``repro serve`` on a 100k-vertex Barabasi-Albert graph in
  a child process; two client connections, each with one 512-pair BATCH
  frame in flight (two frames in flight in all).
* ``ws-point`` — ``DistanceService.query`` in process on a 100k-vertex
  Watts-Strogatz graph; two client threads.
* ``ba-rw`` — a dynamic oracle with an fsynced WAL on a 20k-vertex BA
  graph; one thread; each round is one update and then 49 point reads.

Set-up (open the index, serve it, answer the first pair) is repeated and
its median reported. Before the timed phase the C kernel cache, the batch
engine, label state and the page cache are warmed and ``gc.collect()``
runs. Answers are checked against the seed's reference after the timed
phase; any mismatch fails the run.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from inputs import FRAME, K  # noqa: E402
from tracing import Tracer, format_rows  # noqa: E402

SETUP_REPEATS = {"ba-batch": 5, "ws-point": 3, "ba-rw": 9}
CLIENTS = 2
WARMUP_REQUESTS = 4
EPOCH_S = 1.0
LOAD_MODEL = {
    "ba-batch": "closed loop, 1 client process, 2 connections x 1 in-flight 512-pair BATCH frame",
    "ws-point": "closed loop, 2 client threads, blocking DistanceService.query",
    "ba-rw": "closed loop, 1 thread, rounds of 1 update (insert/delete alternating) + 49 reads",
}
#: ba-batch reports p90 per frame; the others p99 per request.
TAIL_PERCENTILE = {"ba-batch": 90.0, "ws-point": 99.0, "ba-rw": 99.0}


# -- process accounting -------------------------------------------------------


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def environment() -> Dict[str, object]:
    import hashlib
    import platform

    from repro.core.kernels import get_kernel

    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": get_kernel().name,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(latencies: List[float], q: float) -> float:
    """The ``q``-th percentile, as the median over consecutive windows of
    the smallest size that leaves ten samples beyond it.

    Requests are in completion order, so each window covers a stretch of
    the run; a burst of outside load moves the windows it overlaps and
    not the median of all of them. A run shorter than two windows falls
    back to the percentile of all samples.
    """
    size = int(np.ceil(10 / (1 - q / 100)))
    values = np.asarray(latencies, dtype=np.float64)
    windows = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    if len(windows) < 2:
        return percentile(values, q)
    return float(np.median([np.percentile(w, q) for w in windows]))


def same(a, b) -> bool:
    """Byte identity of two float64 answers (inf included)."""
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


# -- ba-batch: repro serve + NetClient.query_many -----------------------------


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, graph_path: Path, work: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(graph_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=env,
            cwd=str(ROOT),
        )
        self.pid = self.proc.pid
        self.host, self.port = self._address(timeout_s=120.0)

    def _address(self, timeout_s: float):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                self.stop()
                raise RuntimeError("repro serve did not report its address")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"repro serve failed to start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        return host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _setup_batch(ctx) -> tuple:
    from repro.serving.net import NetClient

    start = time.perf_counter()
    server = Server(ctx.graph_path, ctx.work)
    try:
        with NetClient(server.host, server.port) as client:
            first = client.query(int(ctx.base_pairs[0, 0]), int(ctx.base_pairs[0, 1]))
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    ctx.check_first(first)
    return elapsed, server


def _frame_loop(ctx, server, seconds: float, tracer: Optional[Tracer]) -> dict:
    """Two connections, each sending its own share of the frames."""
    from repro.serving.net import NetClient

    frames = [ctx.pairs[i : i + FRAME] for i in range(0, len(ctx.pairs), FRAME)]
    clients = [NetClient(server.host, server.port).connect() for _ in range(CLIENTS)]
    try:
        for client in clients:  # warm-up: batch engine, label state, connections
            for f in range(WARMUP_REQUESTS):
                client.query_many(frames[f % len(frames)], batch_size=FRAME, window=1)

        def request(i: int, f: int):
            return clients[i].query_many(frames[f], batch_size=FRAME, window=1)

        logs, samples = _timed(
            [list(range(i, len(frames), CLIENTS)) for i in range(CLIENTS)],
            request, FRAME, seconds, lambda: process_cpu_s(server.pid),
            tracer, "net.frame",
        )
    finally:
        for client in clients:
            client.close()
    wrong = sum(
        not same(answer, ctx.reference[f * FRAME : (f + 1) * FRAME])
        for log in logs
        for f, answer in zip(log.requests, log.answers)
    )
    return _outcome(logs, samples, wrong)


# -- ws-point: DistanceService.query ------------------------------------------


def _setup_point(ctx) -> tuple:
    from repro.api import open_oracle
    from repro.serving import DistanceService

    start = time.perf_counter()
    oracle = open_oracle(str(ctx.graph_path), num_landmarks=K)
    service = DistanceService()
    service.register("g", oracle)
    first = service.query("g", int(ctx.base_pairs[0, 0]), int(ctx.base_pairs[0, 1]))
    elapsed = time.perf_counter() - start
    ctx.check_first(first)
    return elapsed, service


def _point_loop(ctx, service, seconds: float, tracer: Optional[Tracer]) -> dict:
    pairs = ctx.pairs
    for j in range(WARMUP_REQUESTS * 16):
        service.query("g", int(pairs[j, 0]), int(pairs[j, 1]))

    def request(i: int, j: int):
        return service.query("g", int(pairs[j, 0]), int(pairs[j, 1]))

    logs, samples = _timed(
        [list(range(i, len(pairs), CLIENTS)) for i in range(CLIENTS)],
        request, 1, seconds, time.process_time, tracer, "service.query",
    )
    idx = np.concatenate([np.asarray(log.requests, dtype=np.int64) for log in logs])
    answers = np.concatenate([np.asarray(log.answers, dtype=np.float64) for log in logs])
    wrong = int(np.count_nonzero(answers.view(np.int64) != ctx.reference[idx].view(np.int64)))
    return _outcome(logs, samples, wrong)


# -- ba-rw: dynamic oracle with an fsynced WAL --------------------------------


def _setup_rw(ctx) -> tuple:
    from repro.api import open_oracle

    wal = ctx.work / "rw.wal"
    if wal.exists():
        wal.unlink()
    start = time.perf_counter()
    oracle = open_oracle(
        str(ctx.graph_path), dynamic=True, wal=str(wal), wal_fsync="always", num_landmarks=K
    )
    first = oracle.query(int(ctx.base_pairs[0, 0]), int(ctx.base_pairs[0, 1]))
    elapsed = time.perf_counter() - start
    ctx.check_first(first)
    return elapsed, oracle


def _rw_loop(ctx, oracle, seconds: float, tracer: Optional[Tracer]) -> dict:
    from repro.errors import ReproError

    updates, reads, reference = ctx.updates, ctx.pairs, ctx.reference
    rounds, per_round = reads.shape[0], reads.shape[1]
    # Warm the read path on the seed graph, where the stream starts.
    for s, t in ctx.base_pairs[: WARMUP_REQUESTS * 16]:
        oracle.query(int(s), int(t))
    log = _Log()
    inserts, deletes, affected = [], [], []
    wrong = 0

    def client(_: int, deadline: float) -> None:
        nonlocal wrong
        r = 0
        while time.perf_counter() < deadline:
            sr = r % rounds
            u, v = (int(x) for x in updates[sr // 2])
            insert = sr % 2 == 0
            t0 = time.perf_counter()
            changed = oracle.insert_edge(u, v) if insert else oracle.delete_edge(u, v)
            t1 = time.perf_counter()
            (inserts if insert else deletes).append(t1 - t0)
            affected.append(len(changed))
            first = len(log.latencies)
            for j in range(per_round):
                s, t = int(reads[sr, j, 0]), int(reads[sr, j, 1])
                t2 = time.perf_counter()
                try:
                    answer = oracle.query(s, t)
                except ReproError:
                    log.errors += 1
                    continue
                t3 = time.perf_counter()
                log.latencies.append((t2, t3))
                wrong += int(not same(answer, reference[sr, j]))
            end = time.perf_counter()
            # Throughput counts the round as one unit (1 update + its
            # reads), so an epoch's rate is not quantised to whole rounds.
            done = len(log.latencies) - first
            log.records.append((t0, end, 1 + done, done))
            if tracer is not None:
                parent = tracer.add("workload.round", t0, end, request=r)
                name = "dynamic.insert_edge" if insert else "dynamic.delete_edge"
                tracer.add(name, t0, t1, request=r, parent=parent)
                for k, (a, b) in enumerate(log.latencies[first:]):
                    read = "dynamic.first_read" if k == 0 else "query.point"
                    tracer.add(read, a, b, request=r, parent=parent)
            r += 1
        log.rounds = r

    samples = _sampled([client], seconds, time.process_time)
    outcome = _outcome([log], samples, wrong)
    # update_p50_ms: median over insert/delete pairs of their mean, so the
    # two operations weigh equally (a plain median of a 50/50 mix of two
    # clusters would sit in the gap between them).
    churn = [(a + b) / 2 for a, b in zip(inserts, deletes)] or inserts
    outcome.update(
        attempted=outcome["attempted"] + log.rounds,
        update_p50_ms=percentile(churn, 50) * 1e3,
        rounds=log.rounds,
        affected=affected,
    )
    return outcome


# -- timing and aggregation ---------------------------------------------------


class _Log:
    """One client's timed phase.

    ``records`` holds ``(start, end, ops, pairs)`` per unit of work, for
    throughput and CPU per op; ``latencies`` holds ``(start, end)`` per
    latency sample; ``requests`` and ``answers`` feed the check.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.latencies: List[tuple] = []
        self.requests: List[int] = []
        self.answers: List[object] = []
        self.errors = 0
        self.rounds = 0


def _sampled(clients: List[Callable], seconds: float, cpu_clock: Callable) -> List[tuple]:
    """Run each ``client(i, deadline)`` in its own thread until the
    deadline; meanwhile sample ``cpu_clock`` at every epoch boundary.

    Returns ``(wall, cpu)`` samples: the start, one per whole epoch and
    the end (once every client finished its request in hand).
    """
    gc.collect()
    barrier = threading.Barrier(len(clients) + 1)
    clock = {}

    def body(i: int) -> None:
        barrier.wait()
        clients[i](i, clock["deadline"])

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    start = time.perf_counter()
    clock["deadline"] = start + seconds
    samples = [(start, cpu_clock())]
    barrier.wait()
    for k in range(1, int(seconds / EPOCH_S) + 1):
        time.sleep(max(0.0, start + k * EPOCH_S - time.perf_counter()))
        samples.append((time.perf_counter(), cpu_clock()))
    for t in threads:
        t.join()
    samples.append((time.perf_counter(), cpu_clock()))
    return samples


def _timed(streams, request: Callable, ops: int, seconds: float, cpu_clock: Callable,
           tracer: Optional[Tracer], span: str):
    """Closed loop: client ``i`` cycles over ``streams[i]``, calling
    ``request(i, item)`` and waiting for each answer."""
    from repro.errors import ReproError

    logs = [_Log() for _ in streams]

    def client(i: int, deadline: float) -> None:
        log, stream = logs[i], streams[i]
        k = 0
        while time.perf_counter() < deadline:
            item = stream[k % len(stream)]
            k += 1
            t0 = time.perf_counter()
            try:
                answer = request(i, item)
            except ReproError:
                log.errors += 1
                continue
            t1 = time.perf_counter()
            log.records.append((t0, t1, ops, ops))
            log.latencies.append((t0, t1))
            log.requests.append(item)
            log.answers.append(answer)
            if tracer is not None:
                tracer.add(span, t0, t1, request=item, ops=ops)

    samples = _sampled([client] * len(streams), seconds, cpu_clock)
    return logs, samples


def _outcome(logs: List[_Log], samples: List[tuple], wrong: int) -> dict:
    """Aggregate the timed phase per epoch.

    ``p50_ms``, ``pairs_per_s`` and ``cpu_us_per_op`` are medians over the
    whole epochs of the run, so a burst of load from outside the program
    that covers less than half the epochs does not move them. A request
    counts toward an epoch by the share of its duration inside it.
    ``tail_ms`` is taken from every latency sample by :func:`tail`.
    """
    start, end, ops, pairs = np.asarray(
        [r for log in logs for r in log.records], dtype=np.float64
    ).reshape(-1, 4).T
    timed = np.asarray([x for log in logs for x in log.latencies], dtype=np.float64).reshape(-1, 2)
    timed = timed[np.argsort(timed[:, 1], kind="stable")]  # completion order
    done, lat = timed[:, 1], timed[:, 1] - timed[:, 0]
    epochs = []
    for (a, cpu_a), (b, cpu_b) in zip(samples, samples[1:]):
        if b - a < EPOCH_S / 2:  # the short tail after the deadline
            continue
        share = np.clip(np.minimum(end, b) - np.maximum(start, a), 0, None) / (end - start)
        ending = (done >= a) & (done < b)
        epoch_ops = float((share * ops).sum())
        if not ending.any() or epoch_ops == 0:
            continue
        epochs.append((
            float(np.median(lat[ending])),
            float((share * pairs).sum()) / (b - a),
            (cpu_b - cpu_a) / epoch_ops,
        ))
    if not epochs:
        raise RuntimeError("no whole epoch in the timed phase; raise --seconds")
    p50, rate, cpu = (float(np.median(column)) for column in zip(*epochs))
    errors = sum(log.errors for log in logs)
    return dict(
        lat=lat.tolist(), p50_s=p50, pairs_per_s=rate, cpu_s_per_op=cpu,
        epochs=len(epochs), attempted=len(lat) + errors, failed=wrong + errors,
    )


# -- running a workload -------------------------------------------------------


class Context:
    """One workload's inputs and reference, loaded from its inputs dir."""

    def __init__(self, workload: str, inputs: Path, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.graph_path = inputs / "graph.rpdc"
        self.pairs = np.load(inputs / "pairs.npy")
        self.reference = np.load(inputs / "reference.npy")
        self.meta = json.loads((inputs / "meta.json").read_text())
        self.first_checked = self.first_wrong = 0
        if workload == "ba-rw":
            self.updates = np.load(inputs / "updates.npy")
            # Odd rounds leave the seed graph, so their reads are valid
            # there: set-up, warm-up and the layer probes use them.
            self.base_pairs = self.pairs[1::2].reshape(-1, 2)
            self.base_reference = self.reference[1::2].reshape(-1)
        else:
            self.base_pairs = self.pairs
            self.base_reference = self.reference

    def check_first(self, answer: float) -> None:
        self.first_checked += 1
        self.first_wrong += int(not same(answer, self.base_reference[0]))


SETUP: Dict[str, Callable] = {"ba-batch": _setup_batch, "ws-point": _setup_point, "ba-rw": _setup_rw}
LOOP: Dict[str, Callable] = {"ba-batch": _frame_loop, "ws-point": _point_loop, "ba-rw": _rw_loop}


def _close(workload: str, handle) -> None:
    if workload == "ba-batch":
        handle.stop()
    elif workload == "ws-point":
        handle.close()
    else:
        handle.wal.close()


def _end_to_end(workload: str, run: dict, setups: List[float], rss: float, index: float) -> dict:
    return {
        "setup_s": (percentile(setups, 50), "s"),
        "rss_mib": (rss, "MiB"),
        "index_mib": (index, "MiB"),
        "p50_ms": (run["p50_s"] * 1e3, "ms"),
        "tail_ms": (tail(run["lat"], TAIL_PERCENTILE[workload]) * 1e3, "ms"),
        "pairs_per_s": (run["pairs_per_s"], "1/s"),
        "cpu_us_per_op": (run["cpu_s_per_op"] * 1e6, "us"),
    }


def run_workload(workload: str, inputs: Path, work: Path, seconds: float, trace: bool) -> dict:
    from repro.core.kernels import get_kernel

    ctx = Context(workload, inputs, work)
    get_kernel()  # untimed warm-up: compiles the C kernel into its cache
    with open(ctx.graph_path, "rb") as fh:  # page cache
        while fh.read(1 << 20):
            pass
    # One untimed set-up first: it pays the lazy imports and first-use
    # costs that a long-running process pays once.
    setups, handle = [], None
    for i in range(1 + (1 if trace else SETUP_REPEATS[workload])):
        if handle is not None:
            _close(workload, handle)
            handle = None
            gc.collect()
        elapsed, handle = SETUP[workload](ctx)
        if i:
            setups.append(elapsed)
    loop = LOOP[workload]
    layer_metrics, report = {}, ""
    try:
        index_mib = _index_mib(workload, ctx, handle)
        if trace:
            plain = loop(ctx, handle, seconds / 2, None)
            tracer = Tracer()
            run = loop(ctx, handle, seconds / 2, tracer)
            from layers import probe_layers

            layers, rows, overhead, wrong = probe_layers(workload, ctx, handle, tracer, plain, run)
            layer_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            report = format_rows(rows, overhead)
            run = dict(
                run,
                attempted=run["attempted"] + plain["attempted"],
                failed=run["failed"] + plain["failed"] + wrong,
            )
        else:
            run = loop(ctx, handle, seconds, None)
        pid = handle.pid if workload == "ba-batch" else os.getpid()
        rss = peak_rss_mib(pid)
    finally:
        _close(workload, handle)
    metrics = _end_to_end(workload, run, setups, rss, index_mib)
    failed = run["failed"] + ctx.first_wrong + ctx.meta["bfs_mismatches"]
    attempted = run["attempted"] + ctx.first_checked + ctx.meta["bfs_checked"]
    q = TAIL_PERCENTILE[workload]
    samples = len(run["lat"])
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": layer_metrics,
        "samples": samples,
        "beyond_tail": int(samples * (1 - q / 100)),
        "tail_percentile": q,
        "setup_samples": [round(s, 4) for s in setups],
        "rounds": run.get("rounds"),
        "update_p50_ms": run.get("update_p50_ms"),
        "epochs": run["epochs"],
        "load_model": LOAD_MODEL[workload],
        "environment": environment(),
        "report": report,
    }


def _index_mib(workload: str, ctx, handle) -> float:
    """``size_bytes()`` of the served index, in MiB.

    For ``ba-batch`` the index lives in the server; an identical one is
    built here (labels are a pure function of the graph and k).
    """
    from repro.api import open_oracle

    if workload == "ws-point":
        oracle = handle.oracle("g")
    elif workload == "ba-rw":
        oracle = handle
    else:
        oracle = open_oracle(str(ctx.graph_path), num_landmarks=K)
    return oracle.size_bytes() / 2**20


def main(argv: List[str]) -> int:
    workload, inputs, work, seconds, trace = argv
    result = run_workload(workload, Path(inputs), Path(work), float(seconds), trace == "1")
    print(json.dumps(result))
    return 0
