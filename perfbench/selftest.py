"""Shows that the benchmark's output checks reject corrupted outputs.

    python3 perfbench/selftest.py

Runs a few small operations through the program, confirms their outputs pass
``checks.py``, then corrupts one output of each kind (drops a prime, shifts
a trace by 2, flips the sign of an a, nudges an M_k) and confirms that the
matching check rejects it.  Also confirms that BENCHMARK.json names exactly
the metrics ``run.py`` prints.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _op(id_, kind, argv, **params):
    return {"id": id_, "kind": kind, "argv": [str(a) for a in argv], "params": params}


OPS = [
    _op("window", "primes.window", ["primes", "--lo", 10**9, "--hi", 10**9 + 20_000],
        lo=10**9, hi=10**9 + 20_000),
    _op("trace", "curve-trace", ["curve-trace", "--curve", "1,1,1,3,3", "--lo", 1000,
                                 "--hi", 1300], curve="x3+y3=1", lo=1000, hi=1300,
        backend="naive"),
    _op("split", "split.range", ["split", "--lo", 100_000, "--hi", 105_000],
        lo=100_000, hi=105_000),
    {"id": "batch", "kind": "lib.canonical_split", "lib": "canonical_split",
     "params": {"primes": [1_000_033, 1_000_000_009 + 12, 10**12 + 61]}},
    _op("m5", "sieve-opt", ["sieve-opt", "--k", 5, "--degree", 0], k=5, degree=0),
    _op("m105", "sieve-opt", ["sieve-opt", "--k", 105, "--degree", 11], k=105, degree=11),
]


def _drop_prime(out):
    out["primes"].pop(0)
    out["count"] -= 1


def _shift_trace(out):
    row = out["rows"][len(out["rows"]) // 2]
    row["trace"] += 2
    row["affine"] -= 2  # keeps trace = p + 1 - nd - affine, so only the math can tell
    row["normalized"] = row["trace"] / (2.0 * row["p"] ** 0.5)


def _flip_a(out):
    row = out["rows"][0]
    row["a"], row["ratio"] = -row["a"], -row["ratio"]


def _flip_batch_a(out):
    out[1][1] = -out[1][1]


def _nudge_up(out):
    out["Mk_lower"] *= 1 + 1e-9


def _nudge_down(out):
    out["Mk_lower"] -= 1e-6


CORRUPTIONS = [
    ("window", "drop a prime", _drop_prime),
    ("trace", "shift a trace by 2", _shift_trace),
    ("split", "flip the sign of an a", _flip_a),
    ("batch", "flip the sign of an a", _flip_batch_a),
    ("m5", "nudge M_5 at degree 0 by 1e-9", _nudge_up),
    ("m105", "nudge M_105 at degree 11 down by 1e-6", _nudge_down),
]


def main() -> int:
    from heckegaps import cli, gaussian_split

    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, names in (("end_to_end", [n for n, _ in run.END_TO_END]),
                       ("per_layer", [n for n, _, _ in tracing.PER_LAYER])):
        listed = [m["name"] for m in bench[key]]
        if listed != names:
            print(f"FAIL BENCHMARK.json {key} lists {listed}, run.py prints {names}")
            ok = False

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.json")
        first = []
        for op in OPS:
            _, rc, text, err = worker._run_op(cli, gaussian_split, op, out_path, None)
            first.append({"rc": rc, "output": text, "stderr": err, "cache": None})
    errors = checks.check_all(OPS, first)
    for op, errs in zip(OPS, errors):
        if errs:
            print(f"FAIL {op['id']}: the genuine output is rejected: {errs}")
            ok = False
    ids = [op["id"] for op in OPS]
    for op_id, what, corrupt in CORRUPTIONS:
        i = ids.index(op_id)
        bad = copy.deepcopy(first)
        out = json.loads(bad[i]["output"])
        corrupt(out)
        bad[i]["output"] = json.dumps(out)
        errs = checks.check_all(OPS, bad)[i]
        if errs:
            print(f"ok   {OPS[i]['kind']}: {what} -> rejected ({errs[0]})")
        else:
            print(f"FAIL {OPS[i]['kind']}: {what} -> accepted")
            ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
