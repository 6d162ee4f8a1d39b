"""How the variational lower bound grows with polynomial degree.

Prints M_k lower bounds for an increasing basis degree at fixed k, with the
cluster size m they imply at a few distribution levels.  Useful both for
picking a degree budget and for watching the diminishing returns set in.

    python3 scripts/sieve_scaling.py --k 105 --max-degree 8
"""

import argparse
import time

from heckegaps.maynard_sieve import dhl_m, optimize_Mk

LEVELS = (1.0 / 18.0, 0.25, 0.5, 0.9)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=105)
    ap.add_argument("--max-degree", type=int, default=8)
    ap.add_argument("--thetas", type=float, nargs="*", default=list(LEVELS))
    args = ap.parse_args()

    header = f"{'deg':>4} {'basis':>6} {'Mk_lower':>18} {'secs':>7}"
    header += "".join(f"  m@{t:.3f}" for t in args.thetas)
    print(f"k = {args.k}")
    print(header)
    for deg in range(args.max_degree + 1):
        t0 = time.perf_counter()
        res = optimize_Mk(args.k, deg)
        secs = time.perf_counter() - t0
        row = (f"{deg:>4} {len(res.basis.elements):>6} "
               f"{res.Mk_lower:>18.12f} {secs:>7.2f}")
        row += "".join(f"  {dhl_m(res.Mk_lower, t):>7}" for t in args.thetas)
        print(row)


if __name__ == "__main__":
    main()
