"""The benchmark: four workloads of the heckegaps CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # all four, one after another

Run from the root of a checkout; the package is imported from ``src/``.  For
each workload this times ``SETUPS`` fresh interpreters that only import the
package and build the inputs (set-up), then runs the workload in one more
fresh interpreter (``worker.py``), then checks the first round's outputs
against independent references (``checks.py``, outside any timed region).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics without
tracing, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3  # set-up is timed this many times; the median is reported
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, text=True)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; returns the result object."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = _worker(*common, "--setup-only", timeout=60)
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload}: set-up exited with {proc.returncode}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"result-{workload}-{seed}-t{trace}.json")
    proc = _worker(*common, "--seconds", str(seconds), "--trace", str(trace),
                   "--result", result_path, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    ops, first = res["ops"], res["first"]
    errors = checks.check_all(ops, first)
    wrong = {i for i, e in enumerate(errors) if e}
    rounds = len(res["times"])
    failed = sum(len(wrong | set(diff)) for diff in res["differed"])
    # a failure every run shares (a known fault on fixed inputs) keeps the
    # run correct; a wrong output of an operation that did not fail does not
    correct = all(not e or first[i]["rc"] != 0 for i, e in enumerate(errors)) and \
        not any(res["differed"])
    lat = [t for row in res["times"] for t in row]
    if trace:
        metrics = res["per_layer"]
    else:
        values = {
            "setup_s": median(setups),
            # one round's operations, each at its median over the rounds
            "wall_s": sum(median(col) for col in zip(*res["times"])),
            "op_p50_s": median(lat),
            "op_p90_s": quantiles(lat, n=10)[-1],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "ops_per_round": len(ops),
        "nproc": res["nproc"], "python": res["python"], "numpy": res["numpy"],
        "sympy": sympy.__version__, "measured_s": res["measured_s"],
        "errors": {ops[i]["id"]: errors[i] for i in sorted(wrong)},
        "result": {"correct": correct, "attempted": rounds * len(ops), "failed": failed,
                   "metrics": metrics},
    }


def _report(r: dict) -> None:
    res = r["result"]
    print(f"{r['workload']}: seed={r['seed']} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']} rounds={r['rounds']} "
          f"ops/round={r['ops_per_round']} measured={r['measured_s']:.1f}s "
          f"nproc={r['nproc']} python={r['python']} numpy={r['numpy']} sympy={r['sympy']}")
    for op_id, errs in r["errors"].items():
        print(f"  failed {op_id}: {'; '.join(errs)}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heckegaps benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="one workload; all four in turn when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "heckegaps", "cli.py")):
        print(f"error: no src/heckegaps under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        _report(r)
        results.append(r)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
