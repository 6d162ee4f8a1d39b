"""Spans and counters around the package's public functions, for traced runs.

``install`` replaces each function named in ``SPANS`` at every module
attribute of the package that is bound to it, so a caller that imported the
name (``from .prime_engine import primes_in``) reaches the wrapper, and a
nested call gets a span of its own.  Nothing under ``src/`` changes.  Spans
are kept in memory and written out when the run ends; a span's self time is
its duration minus that of its direct children.

Only the traced run installs these wrappers; the end-to-end figures come
from runs without them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

# Per-layer metrics in the order they are printed: (name, unit, better).
PER_LAYER = (
    ("prime_engine.primes_in.calls", "count", "lower"),
    ("prime_engine.primes_in.self_s", "s", "lower"),
    ("prime_engine.primes_in.numbers_per_s", "1/s", "higher"),
    ("prime_engine.primes_in.useful_ratio", "ratio", "higher"),
    ("prime_engine.prime_count.self_s", "s", "lower"),
    ("prime_engine.prime_count.total_s", "s", "lower"),
    ("prime_engine.is_prime.calls", "count", "lower"),
    ("gaussian_split.split_range.self_s", "s", "lower"),
    ("gaussian_split.split_range.splits_per_s", "1/s", "higher"),
    ("gaussian_split.split_range.useful_ratio", "ratio", "higher"),
    ("gaussian_split.canonical_split.calls", "count", "lower"),
    ("gaussian_split.canonical_split.splits_per_s", "1/s", "higher"),
    ("diagonal_curve.count_affine_naive.self_s", "s", "lower"),
    ("diagonal_curve.count_affine_naive.traces_per_s", "1/s", "higher"),
    ("diagonal_curve.count_affine_charsum.self_s", "s", "lower"),
    ("diagonal_curve.count_affine_charsum.traces_per_s", "1/s", "higher"),
    ("diagonal_curve.trace.calls", "count", "lower"),
    ("diagonal_curve.trace.repeat_ratio", "ratio", "lower"),
    ("diagonal_curve.TraceStore.hit_ratio", "ratio", "higher"),
    ("diagonal_curve.save_trace_cache.bytes_per_s", "B/s", "higher"),
    ("diagonal_curve.load_trace_cache.bytes_per_s", "B/s", "higher"),
    ("equidist_stats.ks_distance.self_s", "s", "lower"),
    ("equidist_stats.erdos_turan_bound.self_s", "s", "lower"),
    ("equidist_stats.erdos_turan_bound.terms_per_s", "1/s", "higher"),
    ("equidist_stats.bv_table.self_s", "s", "lower"),
    ("equidist_stats.members.primes.self_s", "s", "lower"),
    ("equidist_stats.members.peps.self_s", "s", "lower"),
    ("equidist_stats.members.curve.self_s", "s", "lower"),
    ("tuples.narrow_tuple.self_s", "s", "lower"),
    ("tuples.is_admissible.calls", "count", "lower"),
    ("maynard_sieve.build_forms.self_s", "s", "lower"),
    ("maynard_sieve.optimize_Mk.self_s", "s", "lower"),
    ("maynard_sieve.optimize_Mk.iterations", "count", "lower"),
    ("gap_search.scan_tuple.self_s", "s", "lower"),
    ("gap_search.scan_tuple.positions_per_s", "1/s", "higher"),
    ("gap_search.record_gaps.self_s", "s", "lower"),
    ("gap_search.contains.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
)


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# span name -> counters to add from (args, kwargs, result)
_WORK = {
    "prime_engine.primes_in": lambda a, k, r: {
        "numbers": _arg(a, k, 1, "hi") - _arg(a, k, 0, "lo"), "materialised": int(r.size)},
    "gaussian_split.split_range": lambda a, k, r: {"splits": int(r[0].size)},
    "diagonal_curve.save_trace_cache": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "diagonal_curve.load_trace_cache": lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))},
    "equidist_stats.erdos_turan_bound": lambda a, k, r: {
        "terms": len(_arg(a, k, 0, "angles")) * _arg(a, k, 3, "T")},
    "gap_search.scan_tuple": lambda a, k, r: {"positions": _arg(a, k, 2, "x")},
    "maynard_sieve.optimize_Mk": lambda a, k, r: {"iterations": r.iterations},
}

# functions wrapped at every package attribute bound to them
SPANS = (
    "prime_engine.primes_in", "prime_engine.prime_count", "prime_engine.is_prime",
    "gaussian_split.split_range", "gaussian_split.canonical_split",
    "diagonal_curve.count_affine_naive", "diagonal_curve.count_affine_charsum",
    "diagonal_curve.trace", "diagonal_curve.in_P_CI",
    "diagonal_curve.save_trace_cache", "diagonal_curve.load_trace_cache",
    "equidist_stats.ks_distance", "equidist_stats.erdos_turan_bound",
    "equidist_stats.bv_table",
    "tuples.narrow_tuple", "tuples.is_admissible",
    "maynard_sieve.build_forms", "maynard_sieve.optimize_Mk",
    "gap_search.scan_tuple", "gap_search.record_gaps",
    "cli.main",
)

# set factories whose SetSpec closures get spans: factory -> members kind
_SET_FACTORIES = {"all_primes_set": "primes", "peps_set": "peps", "curve_set": "curve"}


class Recorder:
    """Spans and counters of one traced run, tagged with round and operation."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, round, op]
        self.counters = defaultdict(int)  # (round, op, key) -> value
        self.keys = defaultdict(set)  # (round, name) -> distinct argument keys
        self._stack = []
        self.round = 0
        self.op = None

    def wrap(self, name, fn, work=None, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), parent, name, time.perf_counter(), None,
                    self.round, self.op]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                for k, v in work(args, kwargs, result).items():
                    self.add(f"{name}.{k}", v)
            if key is not None:
                self.keys[(self.round, name)].add(key(args, kwargs))
            return result

        return wrapper

    def add(self, key, value):
        self.counters[(self.round, self.op, key)] += value

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, rnd, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "round": rnd,
                                     "op": op}) + "\n")


def _rebind(orig, new) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("heckegaps"):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap the package's public functions with spans that feed ``rec``."""
    for qual in SPANS:
        modname, attr = qual.split(".")
        mod = importlib.import_module(f"heckegaps.{modname}")
        key = None
        if qual == "diagonal_curve.trace":
            key = lambda a, k: (_arg(a, k, 0, "curve"), _arg(a, k, 1, "p"))  # noqa: E731
        _rebind(getattr(mod, attr), rec.wrap(qual, getattr(mod, attr), _WORK.get(qual), key))

    dc = importlib.import_module("heckegaps.diagonal_curve")
    store_get = rec.wrap("diagonal_curve.TraceStore.get", dc.TraceStore.get)

    def get(self, p):
        rec.add("diagonal_curve.TraceStore.hits" if p in self.records
                else "diagonal_curve.TraceStore.misses", 1)
        return store_get(self, p)

    dc.TraceStore.get = get

    es = importlib.import_module("heckegaps.equidist_stats")
    for factory, kind in _SET_FACTORIES.items():
        orig = getattr(es, factory)

        def traced(*args, _orig=orig, _kind=kind, **kwargs):
            spec = _orig(*args, **kwargs)
            return dataclasses.replace(
                spec,
                members=rec.wrap(f"equidist_stats.members.{_kind}", spec.members),
                contains=rec.wrap("gap_search.contains", spec.contains))

        _rebind(orig, functools.wraps(orig)(traced))


def per_layer(rec: Recorder, ops: list[dict], rounds: int, round_counts: list[dict]) -> dict:
    """The PER_LAYER metrics of a traced run.

    Counts are per round (every round does the same work); times are the
    median over rounds of a round's total self time; rates and ratios take
    all rounds together.  ``round_counts[r][i]`` is the count operation i
    reported in round r, for the useful-work ratios.
    """
    children = defaultdict(float)
    for sid, parent, name, t0, t1, rnd, op in rec.spans:
        if parent is not None:
            children[parent] += t1 - t0
    self_t = defaultdict(float)  # (round, name) -> self seconds
    total_t = defaultdict(float)
    calls = defaultdict(int)
    for sid, parent, name, t0, t1, rnd, op in rec.spans:
        self_t[(rnd, name)] += (t1 - t0) - children[sid]
        total_t[(rnd, name)] += t1 - t0
        calls[(rnd, name)] += 1

    def per_round(table, name):
        return [table[(r, name)] for r in range(rounds)]

    def count(key, kinds=None):
        return sum(v for (r, op, k), v in rec.counters.items()
                   if k == key and (kinds is None or ops[op]["kind"] in kinds))

    def rate(work, name):
        t = sum(per_round(self_t, name))
        return work / t if t > 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def reported(kinds):
        return sum(c.get(i, 0) for c in round_counts
                   for i, op in enumerate(ops) if op["kind"] in kinds)

    m = {}
    for name, unit, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = median(per_round(calls, base))
        elif stat == "self_s":
            m[name] = median(per_round(self_t, base))
        elif stat == "total_s":
            m[name] = median(per_round(total_t, base))
        elif stat == "iterations":
            m[name] = count(name) / rounds
    m["prime_engine.primes_in.numbers_per_s"] = rate(
        count("prime_engine.primes_in.numbers"), "prime_engine.primes_in")
    m["prime_engine.primes_in.useful_ratio"] = ratio(
        reported({"primes.window", "primes.count"}),
        count("prime_engine.primes_in.materialised", {"primes.window", "primes.count"}))
    m["gaussian_split.split_range.splits_per_s"] = rate(
        count("gaussian_split.split_range.splits"), "gaussian_split.split_range")
    m["gaussian_split.split_range.useful_ratio"] = ratio(
        reported({"split.range"}), count("gaussian_split.split_range.splits", {"split.range"}))
    m["gaussian_split.canonical_split.splits_per_s"] = rate(
        sum(per_round(calls, "gaussian_split.canonical_split")),
        "gaussian_split.canonical_split")
    for backend in ("naive", "charsum"):
        base = f"diagonal_curve.count_affine_{backend}"
        m[f"{base}.traces_per_s"] = rate(sum(per_round(calls, base)), base)
    m["diagonal_curve.trace.repeat_ratio"] = ratio(
        sum(per_round(calls, "diagonal_curve.trace")),
        sum(len(rec.keys[(r, "diagonal_curve.trace")]) for r in range(rounds)))
    hits = count("diagonal_curve.TraceStore.hits")
    m["diagonal_curve.TraceStore.hit_ratio"] = ratio(
        hits, hits + count("diagonal_curve.TraceStore.misses"))
    for fn in ("save_trace_cache", "load_trace_cache"):
        base = f"diagonal_curve.{fn}"
        m[f"{base}.bytes_per_s"] = rate(count(f"{base}.bytes"), base)
    m["equidist_stats.erdos_turan_bound.terms_per_s"] = rate(
        count("equidist_stats.erdos_turan_bound.terms"), "equidist_stats.erdos_turan_bound")
    m["gap_search.scan_tuple.positions_per_s"] = rate(
        count("gap_search.scan_tuple.positions"), "gap_search.scan_tuple")
    m["cli.output_bytes"] = count("cli.output_bytes") / rounds
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}
