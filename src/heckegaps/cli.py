"""Command-line front door: one subcommand per experiment.

All parameters are flags with documented defaults (no configuration file), so
published command lines reproduce exactly.  Integer flags are parsed exactly
and accept scientific notation with an integral value (`--x 1e6`, not `2.9`).
Output is text, CSV, or JSON; JSON objects are emitted with sorted keys and
runs are deterministic given identical flags, regardless of the `--threads`
cap (the current implementation is sequential; the flag caps hypothetical
workers and never changes results).

Exit codes: 0 success, 1 computation error (diagnostic on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import measures as ms
from .diagonal_curve import (
    CurveSpec,
    TraceStore,
    curve_new,
    curve_primes,
    eps_interval,
)
from .equidist_stats import (
    SetSpec,
    all_primes_set,
    bv_rows_csv,
    bv_table,
    curve_set,
    curve_traces,
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
    sp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="cap on worker parallelism; results never depend on it",
    )


def build_parser() -> argparse.ArgumentParser:
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
                   help="point counter: naive (the Theta(p) table convolution, "
                   "the oracle) or charsum (Jacobi sums); by default the "
                   "O(log p) closed form for M in {3, 4} (Ireland-Rosen ch. 9, "
                   "Weil 1952) and the naive count otherwise; primes already "
                   "in --cache are read back, not recounted")
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
    p.add_argument("--check", type=_int_list, default=None, metavar="h1,h2,...")
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
    p.add_argument("--tuple", type=_int_list, default=None, metavar="h1,h2,...")
    p.add_argument("--records", type=_num, default=10)
    _add_common(p)

    return ap


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _make_set(args) -> SetSpec:
    if args.set == "primes":
        return all_primes_set()
    if args.set == "peps":
        return peps_set(args.eps)
    if args.curve is None:
        raise ValueError("--set curve needs --curve a,b,c,alpha,beta")
    return curve_set(args.curve, eps_interval(args.curve, args.trace_eps))


def _cmd_primes(args) -> None:
    if args.count_only:
        n = count_primes(args.lo, args.hi)
        payload = {"lo": args.lo, "hi": args.hi, "count": n}
        if args.format == "json":
            _emit(args, _json(payload))
        elif args.format == "csv":
            _emit(args, f"lo,hi,count\n{args.lo},{args.hi},{n}\n")
        else:
            _emit(args, f"count {n}\n")
        return
    ps = primes_in(args.lo, args.hi)
    if args.format == "json":
        _emit(args, _json({"lo": args.lo, "hi": args.hi, "count": int(ps.size),
                           "primes": [int(p) for p in ps]}))
    elif args.format == "csv":
        _emit(args, "p\n" + "".join(f"{int(p)}\n" for p in ps))
    else:
        _emit(args, "".join(f"{int(p)}\n" for p in ps))


def _single_prime(args) -> bool:
    """True for --p alone, False for --lo and --hi together; else an error."""
    if args.lo is None and args.hi is None and args.p is not None:
        return True
    if args.p is None and args.lo is not None and args.hi is not None:
        return False
    raise ValueError("give either --p or both --lo and --hi")


def _cmd_split(args) -> None:
    if _single_prime(args):
        s = canonical_split(args.p)
        if args.format == "json":
            if s is None:
                _emit(args, _json({"p": args.p, "representable": False}))
            else:
                _emit(args, _json({"p": s.p, "representable": True, "a": s.a,
                                   "b": s.b, "ratio": s.ratio, "theta": s.theta}))
        elif args.format == "csv":
            _emit(args, "p,a,b,ratio,theta\n" + (
                f"{args.p},,,,\n" if s is None
                else f"{s.p},{s.a},{s.b},{s.ratio!r},{s.theta!r}\n"))
        else:
            if s is None:
                _emit(args, f"p={args.p} not representable (p % 4 != 1)\n")
            else:
                _emit(args, f"p={s.p} a={s.a} b={s.b} ratio={s.ratio!r} theta={s.theta!r}\n")
        return
    p, a, b = split_range(args.lo, args.hi)
    ratio = a / np.sqrt(p)
    theta = theta_of(a, b)
    if args.format == "json":
        _emit(args, _json({"lo": args.lo, "hi": args.hi, "count": int(p.size),
                           "rows": [
                               {"p": int(p[i]), "a": int(a[i]), "b": int(b[i]),
                                "ratio": float(ratio[i]), "theta": float(theta[i])}
                               for i in range(p.size)]}))
    else:
        head = "p,a,b,ratio,theta\n" if args.format == "csv" else ""
        body = "".join(
            f"{int(p[i])},{int(a[i])},{int(b[i])},{float(ratio[i])!r},{float(theta[i])!r}\n"
            for i in range(p.size)
        )
        _emit(args, head + body)


def _cmd_curve_trace(args) -> None:
    curve = args.curve
    store = TraceStore(curve, args.cache, args.backend)
    if _single_prime(args):
        ps = [args.p]
    else:
        ps = curve_primes(curve, primes_in(args.lo, args.hi))
    rows = [store.get(q) for q in ps]
    if args.cache:
        store.save()
    if args.format == "json":
        _emit(args, _json({"curve": [curve.a, curve.b, curve.c, curve.alpha, curve.beta],
                           "d": curve.d, "M": curve.M, "g": curve.g,
                           "rows": [{"p": r.p, "nd": r.nd, "affine": r.affine_count,
                                     "trace": r.trace, "normalized": r.normalized}
                                    for r in rows]}))
    else:
        head = "p,nd,affine_count,trace,normalized\n" if args.format == "csv" else ""
        body = "".join(
            f"{r.p},{r.nd},{r.affine_count},{r.trace},{r.normalized!r}\n" for r in rows
        )
        _emit(args, head + body)


def _measure_from_flag(name: str) -> ms.Measure:
    if name == "arcsine":
        return ms.arcsine()
    if name == "cm":
        return ms.cm_mixture()
    return ms.uniform01()


def _cmd_equidist(args) -> None:
    measure = _measure_from_flag(args.measure)
    if args.set == "peps":
        cut = peps_cut(args.eps)  # checks eps before the sweep
        p, a, b = split_range(2, args.x + 1)
        keep = cut(p, a)
        ratios = (a / np.sqrt(p))[keep]
        angles = theta_of(a, b)[keep]
    else:
        if args.curve is None:
            raise ValueError("--set curve needs --curve")
        _, vals = curve_traces(args.curve, 2, args.x + 1)
        ratios = vals[(vals >= -1.0) & (vals <= 1.0)]
        angles = ratios % 1.0
    if args.stat == "ks":
        d = ks_distance(ratios, measure)
        payload = {"n": int(ratios.size), "ks": d, "measure_kind": measure.kind}
        if args.format == "json":
            _emit(args, _json(payload))
        elif args.format == "csv":
            _emit(args, "n,ks,measure_kind\n"
                  f"{payload['n']},{d!r},{measure.kind}\n")
        else:
            _emit(args, f"n={payload['n']} ks={d!r} measure={measure.kind}\n")
    else:
        lhs, rhs = erdos_turan_bound(angles, args.interval, measure, args.T)
        payload = {"n": int(angles.size), "interval": list(args.interval),
                   "T": args.T, "lhs": lhs, "rhs": rhs,
                   "measure_kind": measure.kind}
        if args.format == "json":
            _emit(args, _json(payload))
        elif args.format == "csv":
            _emit(args, "n,interval_lo,interval_hi,T,lhs,rhs\n"
                  f"{payload['n']},{args.interval[0]!r},{args.interval[1]!r},"
                  f"{args.T},{lhs!r},{rhs!r}\n")
        else:
            _emit(args, f"n={payload['n']} interval=[{args.interval[0]!r},"
                  f"{args.interval[1]!r}] T={args.T} lhs={lhs!r} rhs={rhs!r}\n")


def _cmd_bv(args) -> None:
    spec = _make_set(args)
    table = bv_table(spec, args.x, args.Q, y_grid=args.y_grid, delta=args.delta)
    if args.format == "json":
        _emit(args, _json({
            "label": table.label, "x": table.x, "Q": table.Q,
            "delta": table.delta, "aggregate": table.aggregate,
            "rows": [{"q": r.q, "worst_a": r.worst_a, "worst_y": r.worst_y,
                      "observed": r.observed, "expected": r.expected,
                      "abs_err": r.abs_err} for r in table.rows]}))
    elif args.format == "csv":
        _emit(args, bv_rows_csv(table))
    else:
        lines = [f"set {table.label} x={table.x} Q={table.Q} delta={table.delta!r}"]
        for r in table.rows:
            lines.append(f"q={r.q} worst_a={r.worst_a} worst_y={r.worst_y} "
                         f"obs={r.observed} exp={r.expected!r} err={r.abs_err!r}")
        lines.append(f"aggregate {table.aggregate!r}")
        _emit(args, "\n".join(lines) + "\n")


def _cmd_tuple(args) -> None:
    if (args.k is None) == (args.check is None):
        raise ValueError("give exactly one of --k or --check")
    tup = narrow_tuple(args.k) if args.k is not None else make_tuple(args.check)
    payload = {"k": tup.k, "offsets": list(tup.offsets), "diameter": tup.diameter,
               "admissible": tup.admissible, "witness": tup.witness}
    if args.format == "json":
        _emit(args, _json(payload))
    elif args.format == "csv":
        _emit(args, "k,diameter,admissible,witness,offsets\n"
              f"{tup.k},{tup.diameter},{tup.admissible},"
              f"{'' if tup.witness is None else tup.witness},"
              f"{' '.join(str(h) for h in tup.offsets)}\n")
    else:
        _emit(args, f"k={tup.k} diameter={tup.diameter} admissible={tup.admissible}"
              + (f" witness={tup.witness}" if tup.witness is not None else "")
              + "\noffsets " + ",".join(str(h) for h in tup.offsets) + "\n")


def _cmd_sieve_opt(args) -> None:
    res = optimize_Mk(args.k, args.degree)
    thetas = args.thetas or list(DEFAULT_THETAS)
    m_tab = [{"theta": t, "m": dhl_m(res.Mk_lower, t)} for t in thetas]
    payload = {"k": res.k, "degree": res.degree,
               "basis_size": len(res.basis.elements),
               "Mk_lower": res.Mk_lower, "iterations": res.iterations,
               "m_at_theta": m_tab}
    if args.format == "json":
        _emit(args, _json(payload))
    elif args.format == "csv":
        _emit(args, "k,degree,basis_size,Mk_lower,iterations\n"
              f"{res.k},{res.degree},{len(res.basis.elements)},"
              f"{res.Mk_lower!r},{res.iterations}\n")
    else:
        lines = [f"k={res.k} degree={args.degree} basis={len(res.basis.elements)} "
                 f"Mk_lower={res.Mk_lower!r} iterations={res.iterations}"]
        for row in m_tab:
            lines.append(f"theta={row['theta']!r} m={row['m']}")
        _emit(args, "\n".join(lines) + "\n")


def _cmd_gap_scan(args) -> None:
    spec = _make_set(args)
    if args.tuple is None:
        recs = record_gaps(spec, args.x, n_records=args.records)
        if args.format == "json":
            _emit(args, _json({"set": spec.label, "x": args.x,
                               "records": [{"gap": g, "p": p, "q": q}
                                           for g, p, q in recs]}))
        elif args.format == "csv":
            _emit(args, "gap,p,q\n" + "".join(f"{g},{p},{q}\n" for g, p, q in recs))
        else:
            _emit(args, f"set {spec.label} x={args.x}\n"
                  + "".join(f"gap={g} p={p} q={q}\n" for g, p, q in recs))
        return
    rep = scan_tuple(spec, args.tuple, args.x)
    if args.format == "json":
        _emit(args, _json({
            "set": rep.set_label, "x": rep.x, "offsets": list(rep.offsets),
            "histogram": {str(k): v for k, v in rep.histogram.items()},
            "max_hits": rep.max_hits,
            "best_windows": [{"n": n, "hits": list(hs)} for n, hs in rep.best_windows],
            "min_gap": rep.min_gap,
            "record_pairs": [{"gap": g, "p": p, "q": q} for g, p, q in rep.record_pairs],
        }))
    elif args.format == "csv":
        _emit(args, "n,hits,offsets\n" + "".join(
            f"{n},{len(hs)},{' '.join(str(h) for h in hs)}\n"
            for n, hs in rep.best_windows))
    else:
        lines = [f"set {rep.set_label} x={rep.x} offsets={','.join(str(h) for h in rep.offsets)}",
                 "histogram " + " ".join(f"{k}:{v}" for k, v in sorted(rep.histogram.items())),
                 f"max_hits={rep.max_hits} min_gap={rep.min_gap}"]
        for n, hs in rep.best_windows:
            lines.append(f"window n={n} hits={','.join(str(h) for h in hs)}")
        _emit(args, "\n".join(lines) + "\n")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
