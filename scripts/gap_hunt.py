"""Smallest gaps inside P_eps as the angular window narrows.

Thinning the set stretches the average gap like 1/density, but record
small gaps survive long past naive expectation; this prints the head of
the record table for a grid of eps values.

    python3 scripts/gap_hunt.py --x 1e6 --eps-grid 1.0 0.8 0.6 0.4 --records 3
"""

import argparse

from heckegaps.equidist_stats import peps_set
from heckegaps.gap_search import record_gaps
from heckegaps.measures import density_P_eps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x", type=float, default=1e6)
    ap.add_argument("--eps-grid", type=float, nargs="+",
                    default=[1.0, 0.8, 0.6, 0.4, 0.2])
    ap.add_argument("--records", type=int, default=3)
    args = ap.parse_args()

    x = int(args.x)
    for eps in args.eps_grid:
        spec = peps_set(eps)
        recs = record_gaps(spec, x, n_records=args.records)
        head = ", ".join(f"({p},{q})@{g}" for g, p, q in recs)
        print(f"eps={eps:<5} density={density_P_eps(eps):.4f} "
              f"min gaps: {head}")


if __name__ == "__main__":
    main()
