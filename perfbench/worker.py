"""Runs one workload in this interpreter and writes what it saw as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result FILE
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this in a fresh interpreter per workload, so peak memory
and the optimizer's integral memo belong to one workload.  The worker
imports the package from ``src/``, builds the round's inputs, then repeats
whole rounds while the next one is expected to end within ``--seconds``
(and at least enough rounds for 100 operations).  Only the operations
themselves are timed.  The output of each operation in the first round is
kept for ``checks.py``; later rounds must reproduce it byte for byte.
``--setup-only`` stops after the imports and the inputs, which is what
``run.py`` times as set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

MIN_OPS = 100  # enough operations in a run for a 90th percentile


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where there is none.

    A CLI call starts in a fresh process with a compact heap.  In one process
    the heap keeps what earlier operations freed, and whether a later
    operation's peak lands on top of that depends on the sizes that came
    before it, which moved the peak RSS of one workload by 10% from seed to
    seed.  Trimming between operations (untimed) gives each the fresh heap.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        trim = libc.malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def _run_op(cli, gaussian_split, op, out_path, cache_path):
    """Run one operation; return (seconds, exit code, output text, stderr)."""
    err = io.StringIO()
    if "lib" in op:
        primes = op["params"]["primes"]
        t0 = time.perf_counter()
        try:
            splits = [gaussian_split.canonical_split(p) for p in primes]
        except Exception as e:  # counted as a failed operation
            return time.perf_counter() - t0, -1, None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        return dt, 0, json.dumps([s and [s.p, s.a, s.b] for s in splits]), ""
    argv = [cache_path if a == "{cache}" else a for a in op["argv"]]
    argv += ["--format", "json", "--output", out_path]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback reaching the user is a failure too
            rc = -1
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
        dt = time.perf_counter() - t0
    text = None
    if rc == 0:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
    return dt, rc, text, err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import workloads
    from heckegaps import cli, gaussian_split, maynard_sieve

    nproc = len(os.sched_getaffinity(0))
    ops = workloads.build(args.workload, args.seed, nproc)
    if args.setup_only:
        return 0

    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)

    tmp = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    out_path = os.path.join(tmp, "out.json")
    cache_path = os.path.join(tmp, "traces.cache")
    first = []  # per op: exit code, output, stderr, cache file text
    times = []  # per round: seconds per op
    bad = []  # per round: op indices whose run differed from round 1
    counts = []  # per round: op index -> reported count (traced runs)
    min_rounds = math.ceil(MIN_OPS / len(ops))
    trim_heap = _heap_trimmer()
    start = time.perf_counter()
    try:
        while True:
            rnd = len(times)
            elapsed = time.perf_counter() - start
            # stop before a round that would run past --seconds
            if rnd >= min_rounds and elapsed * (rnd + 1) / rnd > args.seconds:
                break
            # every round starts cold, as a fresh sequence of CLI calls would
            maynard_sieve._sym_integral.cache_clear()
            with contextlib.suppress(FileNotFoundError):
                os.remove(cache_path)
            row, diff, cnt = [], [], {}
            for i, op in enumerate(ops):
                trim_heap()
                if rec is not None:
                    rec.round, rec.op = rnd, i
                dt, rc, text, err = _run_op(cli, gaussian_split, op, out_path, cache_path)
                row.append(dt)
                if rnd == 0:
                    cache_text = None
                    if op["params"].get("cache") and os.path.exists(cache_path):
                        with open(cache_path, encoding="ascii") as fh:
                            cache_text = fh.read()
                    first.append({"rc": rc, "output": text, "stderr": err,
                                  "cache": cache_text})
                elif (rc, text) != (first[i]["rc"], first[i]["output"]):
                    diff.append(i)
                if rec is not None and text is not None:
                    if "argv" in op:
                        rec.add("cli.output_bytes", len(text.encode()))
                    if op["kind"] in ("primes.window", "primes.count", "split.range"):
                        cnt[i] = json.loads(text)["count"]
            times.append(row)
            bad.append(diff)
            counts.append(cnt)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ops": ops,
        "first": first,
        "times": times,
        "differed": bad,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        result["per_layer"] = tracing.per_layer(rec, ops, len(times), counts)
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        rec.dump(spans)
        result["spans"] = os.path.relpath(spans, ROOT)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
