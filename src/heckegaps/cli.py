"""Command-line front door: one subcommand per experiment.

All parameters are flags with documented defaults (no configuration file), so
published command lines reproduce exactly.  Integer flags are parsed exactly
and accept scientific notation with an integral value (`--x 1e6`, not `2.9`).
Every subcommand hands its result to one writer, `_write`: a JSON payload, a
CSV header with its rows, and optionally a text rendering.  `--format json`
writes the payload with sorted keys; `csv` writes the header, then one line
per row (floats by repr, None as an empty field); `text` writes the rendering,
or for a table the CSV lines without the header.  `--output` sends the same
bytes to a file.  Runs are deterministic given identical flags.  They are
sequential today: `--threads` must be >= 1 and never changes output.

Exit codes: 0 success, 1 computation error (diagnostic on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import measures as ms
from .diagonal_curve import CurveSpec, TraceStore, curve_new, curve_traces, eps_interval
from .equidist_stats import (
    SetSpec,
    all_primes_set,
    bv_table,
    curve_set,
    erdos_turan_bound,
    ks_distance,
    peps_set,
)
from .gap_search import record_gaps, scan_tuple
from .gaussian_split import canonical_split, peps_cut, split_range, theta_of
from .maynard_sieve import dhl_m, optimize_Mk
from .prime_engine import count_primes, primes_in
from .tuples import make_tuple, narrow_tuple

DEFAULT_THETAS = (1.0 / 18.0, 0.25, 0.5, 0.9)

# Longest integer a flag accepts, in digits.  Primality is exact only below
# 2^64 (20 digits), so a larger --p is refused with exit 1; curve coefficients
# may be longer, since only their residues mod p are used.
MAX_DIGITS = 30


def _num(s: str) -> int:
    """Integer flag: plain digits, or scientific notation with an integral value.

    Parsed exactly (never through float), so 18446744073709551557 stays itself.
    Non-finite, fractional and over-long values are usage errors.
    """
    try:
        d = Decimal(s)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from None
    if not d.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {s!r}")
    # checked before int(d), so `1e100000000` never builds a huge int
    if d.adjusted() >= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_DIGITS} digits: {s!r}")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    return int(d)


def _int_list(s: str) -> list[int]:
    return [_num(t) for t in s.split(",") if t != ""]


def _float_list(s: str) -> list[float]:
    return [float(t) for t in s.split(",")]


def _float_pair(s: str) -> tuple[float, float]:
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {s!r}")
    return float(parts[0]), float(parts[1])


def _curve_arg(s: str) -> CurveSpec:
    parts = s.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c,alpha,beta', got {s!r}")
    try:
        return curve_new(*(int(t) for t in parts))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--output", default=None, help="write here instead of stdout")
    sp.add_argument("--threads", type=int, default=1,
                    help="must be >= 1; runs are sequential today, so it never "
                    "changes output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="heckegaps",
        description="constrained prime sets: splits, curve traces, discrepancy "
        "tables, admissible tuples, the sieve optimizer and gap scans",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("primes", help="enumerate or count primes in a range")
    p.add_argument("--lo", type=_num, default=2)
    p.add_argument("--hi", type=_num, required=True)
    p.add_argument("--count-only", action="store_true")
    _add_common(p)

    p = sub.add_parser("split", help="canonical a^2+b^2 decomposition")
    p.add_argument("--p", type=_num, default=None)
    p.add_argument("--lo", type=_num, default=None)
    p.add_argument("--hi", type=_num, default=None)
    _add_common(p)

    p = sub.add_parser("curve-trace", help="traces of a diagonal curve")
    p.add_argument("--curve", type=_curve_arg, required=True, metavar="a,b,c,alpha,beta")
    p.add_argument("--p", type=_num, default=None)
    p.add_argument("--lo", type=_num, default=None)
    p.add_argument("--hi", type=_num, default=None)
    p.add_argument("--backend", choices=("naive", "charsum"), default=None,
                   help="point counter: naive (Theta(p), over cosets of d-th powers "
                   "in F_p*; the oracle) or charsum, the default: the O(log p) "
                   "Jacobi-sum closed form for M in {3, 4} (Ireland-Rosen ch. 9, "
                   "Weil 1952) and the naive count otherwise; primes already in "
                   "--cache are read back, not recounted")
    p.add_argument("--cache", default=None, help="trace cache file to read/extend")
    _add_common(p)

    p = sub.add_parser("equidist", help="KS or Erdos-Turan statistics")
    p.add_argument("--set", choices=("peps", "curve"), default="peps")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--curve", type=_curve_arg, default=None, metavar="a,b,c,alpha,beta")
    p.add_argument("--x", type=_num, required=True)
    p.add_argument("--measure", choices=("arcsine", "cm", "uniform"), default="arcsine")
    p.add_argument("--stat", choices=("ks", "et"), default="ks")
    p.add_argument("--interval", type=_float_pair, default=(0.0, 0.25), metavar="lo,hi")
    p.add_argument("--T", type=_num, default=50)
    _add_common(p)

    p = sub.add_parser("bv-check", help="Bombieri-Vinogradov style error table")
    p.add_argument("--set", choices=("primes", "peps"), default="peps")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--x", type=_num, required=True)
    p.add_argument("--Q", type=_num, default=30)
    p.add_argument("--y-grid", type=_int_list, default=None, metavar="y1,y2,...")
    p.add_argument("--delta", type=float, default=None, help="override the set density")
    _add_common(p)

    p = sub.add_parser("tuple", help="construct or check admissible tuples")
    p.add_argument("--k", type=_num, default=None)
    p.add_argument("--check", type=_int_list, default=None, metavar="h1,h2,...",
                   help="offsets; a negative first one needs '=': --check=-10,0")
    _add_common(p)

    p = sub.add_parser("sieve-opt", help="Maynard variational lower bound")
    p.add_argument("--k", type=_num, required=True)
    p.add_argument("--degree", type=_num, default=4)
    p.add_argument("--thetas", type=_float_list, default=None, metavar="t1,t2,...")
    _add_common(p)

    p = sub.add_parser("gap-scan", help="record gaps / tuple window scans")
    p.add_argument("--set", choices=("primes", "peps", "curve"), default="peps")
    p.add_argument("--eps", type=float, default=0.95)
    p.add_argument("--curve", type=_curve_arg, default=None, metavar="a,b,c,alpha,beta")
    p.add_argument("--trace-eps", type=float, default=1.0,
                   help="half-width of the normalized-trace window, times 2g")
    p.add_argument("--x", type=_num, required=True)
    p.add_argument("--tuple", type=_int_list, default=None, metavar="h1,h2,...",
                   help="offsets; a negative first one needs '=': --tuple=-10,0")
    p.add_argument("--records", type=_num, default=10)
    _add_common(p)

    return ap


def _cell(v) -> str:
    """One CSV field: repr for a float, empty for None, str for anything else."""
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _write(args, payload: dict, header: str, rows, text: str | None = None) -> None:
    """The one output path of every subcommand.

    json writes ``payload`` with sorted keys; csv writes ``header``, then one
    line of ``_cell`` fields per row; text writes ``text``, or for a table the
    csv lines without the header.  ``rows`` is read only for csv and text.
    """
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True) + "\n"
    elif args.format == "text" and text is not None:
        out = text
    else:
        out = "".join(",".join(map(_cell, r)) + "\n" for r in rows)
        if args.format == "csv":
            out = header + "\n" + out
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _need_curve(args) -> CurveSpec:
    """The --curve of a --set curve run, which has no default."""
    if args.curve is None:
        raise ValueError("--set curve needs --curve a,b,c,alpha,beta")
    return args.curve


def _make_set(args) -> SetSpec:
    if args.set == "primes":
        return all_primes_set()
    if args.set == "peps":
        return peps_set(args.eps)
    curve = _need_curve(args)
    return curve_set(curve, eps_interval(curve, args.trace_eps))


def _cmd_primes(args) -> None:
    if args.count_only:
        n = count_primes(args.lo, args.hi)
        _write(args, {"lo": args.lo, "hi": args.hi, "count": n}, "lo,hi,count",
               [(args.lo, args.hi, n)], f"count {n}\n")
        return
    ps = primes_in(args.lo, args.hi).tolist()
    _write(args, {"lo": args.lo, "hi": args.hi, "count": len(ps), "primes": ps}, "p",
           ((p,) for p in ps))


def _single_prime(args) -> bool:
    """True for --p alone, False for --lo and --hi together; else an error."""
    if args.lo is None and args.hi is None and args.p is not None:
        return True
    if args.p is None and args.lo is not None and args.hi is not None:
        return False
    raise ValueError("give either --p or both --lo and --hi")


def _cmd_split(args) -> None:
    keys = ("p", "a", "b", "ratio", "theta")
    if _single_prime(args):
        s = canonical_split(args.p)
        if s is None:
            row = (args.p, None, None, None, None)
            text = f"p={args.p} not representable (p % 4 != 1)\n"
        else:
            row = (s.p, s.a, s.b, s.ratio, s.theta)
            text = f"p={s.p} a={s.a} b={s.b} ratio={s.ratio!r} theta={s.theta!r}\n"
        payload = {k: v for k, v in zip(keys, row) if v is not None}
        payload["representable"] = s is not None
        _write(args, payload, ",".join(keys), [row], text)
        return
    p, a, b = split_range(args.lo, args.hi)
    cols = (p.tolist(), a.tolist(), b.tolist(), (a / np.sqrt(p)).tolist(),
            theta_of(a, b).tolist())
    _write(args, {"lo": args.lo, "hi": args.hi, "count": p.size,
                  "rows": [dict(zip(keys, r)) for r in zip(*cols)]},
           ",".join(keys), zip(*cols))


def _cmd_curve_trace(args) -> None:
    curve = args.curve
    store = TraceStore(curve, args.cache, args.backend)
    recs = ([store.get(args.p)] if _single_prime(args)
            else curve_traces(curve, args.lo, args.hi, store))
    rows = [(r.p, r.nd, r.affine_count, r.trace, r.normalized) for r in recs]
    if args.cache:
        store.save()
    keys = ("p", "nd", "affine", "trace", "normalized")
    _write(args, {"curve": [curve.a, curve.b, curve.c, curve.alpha, curve.beta],
                  "d": curve.d, "M": curve.M, "g": curve.g,
                  "rows": [dict(zip(keys, r)) for r in rows]},
           "p,nd,affine_count,trace,normalized", rows)


_MEASURES = {"arcsine": ms.arcsine, "cm": ms.cm_mixture, "uniform": ms.uniform01}


def _cmd_equidist(args) -> None:
    measure = _MEASURES[args.measure]()
    if args.set == "peps":
        cut = peps_cut(args.eps)  # checks eps before the sweep
        p, a, b = split_range(2, args.x + 1)
        keep = cut(p, a)
        p, a, b = p[keep], a[keep], b[keep]
        sample = a / np.sqrt(p) if args.stat == "ks" else theta_of(a, b)
    else:
        curve = _need_curve(args)
        if curve.g < 1:  # checked before the sweep, even if it finds no prime
            raise ValueError("trace needs genus >= 1")
        vals = np.fromiter((r.normalized for r in curve_traces(curve, 2, args.x + 1)), float)
        sample = vals[(vals >= -1.0) & (vals <= 1.0)]
        if args.stat == "et":
            sample %= 1.0
    kind = measure.kind
    if args.stat == "ks":
        n, d = sample.size, ks_distance(sample, measure)
        payload = {"n": n, "ks": d, "measure_kind": kind}
        header, row = "n,ks,measure_kind", (n, d, kind)
        text = f"n={n} ks={d!r} measure={kind}\n"
    else:
        (lo, hi), T = args.interval, args.T
        n, (lhs, rhs) = sample.size, erdos_turan_bound(sample, args.interval, measure, T)
        payload = {"n": n, "interval": [lo, hi], "T": T, "lhs": lhs, "rhs": rhs,
                   "measure_kind": kind}
        header, row = "n,interval_lo,interval_hi,T,lhs,rhs", (n, lo, hi, T, lhs, rhs)
        text = f"n={n} interval=[{lo!r},{hi!r}] T={T} lhs={lhs!r} rhs={rhs!r}\n"
    _write(args, payload, header, [row], text)


def _cmd_bv(args) -> None:
    t = bv_table(_make_set(args), args.x, args.Q, y_grid=args.y_grid, delta=args.delta)
    header = "q,worst_a,worst_y,observed,expected,abs_err"
    rows = [(r.q, r.worst_a, r.worst_y, r.observed, r.expected, r.abs_err) for r in t.rows]
    _write(args, {"label": t.label, "x": t.x, "Q": t.Q, "delta": t.delta,
                  "aggregate": t.aggregate,
                  "rows": [dict(zip(header.split(","), r)) for r in rows]},
           header, rows + [(f"# aggregate {t.aggregate!r}",)],
           f"set {t.label} x={t.x} Q={t.Q} delta={t.delta!r}\n"
           + "".join(f"q={q} worst_a={a} worst_y={y} obs={o} exp={e!r} err={err!r}\n"
                     for q, a, y, o, e, err in rows)
           + f"aggregate {t.aggregate!r}\n")


def _cmd_tuple(args) -> None:
    if (args.k is None) == (args.check is None):
        raise ValueError("give exactly one of --k or --check")
    tup = narrow_tuple(args.k) if args.k is not None else make_tuple(args.check)
    offs = list(tup.offsets)
    _write(args, {"k": tup.k, "offsets": offs, "diameter": tup.diameter,
                  "admissible": tup.admissible, "witness": tup.witness},
           "k,diameter,admissible,witness,offsets",
           [(tup.k, tup.diameter, tup.admissible, tup.witness, " ".join(map(str, offs)))],
           f"k={tup.k} diameter={tup.diameter} admissible={tup.admissible}"
           + ("" if tup.witness is None else f" witness={tup.witness}")
           + "\noffsets " + ",".join(map(str, offs)) + "\n")


def _cmd_sieve_opt(args) -> None:
    res = optimize_Mk(args.k, args.degree)
    thetas = args.thetas or list(DEFAULT_THETAS)
    m_tab = [{"theta": t, "m": dhl_m(res.Mk_lower, t)} for t in thetas]
    size = len(res.basis.elements)
    _write(args, {"k": res.k, "degree": res.degree, "basis_size": size,
                  "Mk_lower": res.Mk_lower, "iterations": res.iterations,
                  "m_at_theta": m_tab},
           "k,degree,basis_size,Mk_lower,iterations",
           [(res.k, res.degree, size, res.Mk_lower, res.iterations)],
           f"k={res.k} degree={args.degree} basis={size} "
           f"Mk_lower={res.Mk_lower!r} iterations={res.iterations}\n"
           + "".join(f"theta={r['theta']!r} m={r['m']}\n" for r in m_tab))


def _cmd_gap_scan(args) -> None:
    spec = _make_set(args)
    if args.tuple is None:
        recs = record_gaps(spec, args.x, n_records=args.records)
        _write(args, {"set": spec.label, "x": args.x,
                      "records": [{"gap": g, "p": p, "q": q} for g, p, q in recs]},
               "gap,p,q", recs,
               f"set {spec.label} x={args.x}\n"
               + "".join(f"gap={g} p={p} q={q}\n" for g, p, q in recs))
        return
    rep = scan_tuple(spec, args.tuple, args.x)
    wins = rep.best_windows
    _write(args, {
        "set": rep.set_label, "x": rep.x, "offsets": list(rep.offsets),
        "histogram": {str(k): v for k, v in rep.histogram.items()},
        "max_hits": rep.max_hits,
        "best_windows": [{"n": n, "hits": list(hs)} for n, hs in wins],
        "min_gap": rep.min_gap,
        "record_pairs": [{"gap": g, "p": p, "q": q} for g, p, q in rep.record_pairs],
    }, "n,hits,offsets", [(n, len(hs), " ".join(map(str, hs))) for n, hs in wins],
        f"set {rep.set_label} x={rep.x} offsets={','.join(map(str, rep.offsets))}\n"
        "histogram " + " ".join(f"{k}:{v}" for k, v in sorted(rep.histogram.items()))
        + f"\nmax_hits={rep.max_hits} min_gap={rep.min_gap}\n"
        + "".join(f"window n={n} hits={','.join(map(str, hs))}\n" for n, hs in wins))


_DISPATCH = {
    "primes": _cmd_primes,
    "split": _cmd_split,
    "curve-trace": _cmd_curve_trace,
    "equidist": _cmd_equidist,
    "bv-check": _cmd_bv,
    "tuple": _cmd_tuple,
    "sieve-opt": _cmd_sieve_opt,
    "gap-scan": _cmd_gap_scan,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        _DISPATCH[args.cmd](args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
