"""Benchmark entry point for the highway cover labelling reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload ba-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload ws-point --steady 5     # steadiness check

Workloads (see ``workloads.py`` for the load model of each):

* ``ba-batch`` — 100k-vertex Barabasi-Albert graph behind ``repro serve``,
  512-pair BATCH frames. Hubs let the Eq. 4 bound settle most pairs, so
  time goes to the batch engine's grouped multi-target pass.
* ``ws-point`` — 100k-vertex Watts-Strogatz graph behind
  ``DistanceService.query``. The bound covers almost no pair, so the
  Algorithm 2 search and the coalescer hand-off set the cost.
* ``ba-rw`` — 20k-vertex BA graph, dynamic oracle with an fsynced WAL,
  2% writes. Update repair and the view rebuild paid by the first read
  after each write set the cost.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
non-zero when any answer was wrong or the run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("ba-batch", "ws-point", "ba-rw")
RUN_TIMEOUT_S = 170.0


def _child_env() -> dict:
    # The C kernel caches its build under the temp dir: keep it (and
    # every other file the program writes) inside the checkout.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORK / "tmp"))


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Make the seed's inputs, run the workload in a fresh process and
    return the worker's result (``ok`` is False when the worker failed)."""
    from inputs import ensure_inputs

    started = time.perf_counter()
    inputs = ensure_inputs(workload, seed, WORK)
    budget = RUN_TIMEOUT_S - (time.perf_counter() - started)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), workload, str(inputs), str(WORK),
        str(seconds), "1" if trace else "0",
    ]
    # Its own process group, so a timed-out worker is killed together
    # with the ``repro serve`` it may have started.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=str(ROOT), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "workload": workload, "why": "timed out"}
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "workload": workload, "why": f"worker exited {proc.returncode}"}
    result = json.loads(lines[-1])
    result["ok"] = True
    result["seed"] = seed
    return result


def report(result: dict, trace: bool) -> None:
    """Print the human-readable part of one run (before the JSON line)."""
    if not result["ok"]:
        print(f"== {result['workload']}: FAILED ({result['why']})")
        return
    env = result["environment"]
    print(f"== {result['workload']} seed {result['seed']}: {result['load_model']}")
    print(
        "   " + " ".join(f"{k}={v}" for k, v in env.items())
    )
    print(
        f"   samples {result['samples']} (>= {result['beyond_tail']} beyond "
        f"p{result['tail_percentile']:g}), set-up runs {result['setup_samples']}"
        + (f", rounds {result['rounds']}" if result.get("rounds") else "")
    )
    if result.get("update_p50_ms") is not None:
        print(f"   {'update_p50_ms':<26}{result['update_p50_ms']:>14.4f} ms (not in BENCHMARK.json)")
    metrics = result["per_layer"] if trace else result["metrics"]
    for name, m in metrics.items():
        print(f"   {name:<26}{m['value']:>14.4f} {m['unit']}")
    print(
        f"   {'error_rate':<26}{result['error_rate']:>14.4f} ratio "
        f"({result['failed']} failed of {result['attempted']})"
    )
    if trace:
        print(result["report"])


def summary_line(results: list, trace: bool) -> dict:
    ok = all(r["ok"] for r in results)
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    key = "per_layer" if trace else "metrics"
    if len(results) == 1:
        metrics = results[0].get(key, {})
    else:
        metrics = {
            f"{r['workload']}/{name}": m for r in results for name, m in r.get(key, {}).items()
        }
    return {
        "correct": ok and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if ok else max(failed, 1),
        "metrics": metrics,
    }


def steady(workload: str, first_seed: int, runs: int, seconds: float) -> int:
    """Run ``workload`` on ``runs`` seeds and print, per end-to-end metric,
    the median, the quartiles and the spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    for seed in range(first_seed, first_seed + runs):
        result = run_once(workload, seed, seconds, trace=False)
        if not result["ok"] or result["failed"]:
            report(result, False)
            print(json.dumps(summary_line([result], False)))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(
            f"   seed {seed}: "
            + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True,
        )
    unsteady, rows = [], {}
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        if name == "setup_s":
            verdict = "exempt (median compared only)"
        elif spread <= bound / 3:
            verdict = "steady"
        else:
            verdict = "UNSTEADY" if spread > bound else "within bound, above bound/3"
            unsteady.append(name)
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{name:<16}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>8.2f}  {verdict}")
    print("unsteady: " + (", ".join(unsteady) if unsteady else "none"))
    print(json.dumps({"workload": workload, "runs": runs, "unsteady": unsteady, "metrics": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, default=0, metavar="N",
        help="run the workload on N consecutive seeds and report the spread",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(_child_env())
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.steady:
        if args.workload == "all":
            parser.error("--steady takes one workload")
        return steady(args.workload, args.seed, args.steady, args.seconds)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_once(name, args.seed, args.seconds, bool(args.trace))
        report(result, bool(args.trace))
        results.append(result)
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
