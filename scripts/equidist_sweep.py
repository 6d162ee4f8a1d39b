"""Sweep the KS distance of a/sqrt(p) against the arcsine law as x grows.

The distance should shrink steadily with x; the table this prints is the
quickest sanity check that the angular data is healthy.

    python3 scripts/equidist_sweep.py --x-max 1e6 --points 6
"""

import argparse
import math

import numpy as np

from heckegaps.equidist_stats import ks_distance
from heckegaps.gaussian_split import split_range
from heckegaps.measures import arcsine


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x-max", type=float, default=1e6)
    ap.add_argument("--x-min", type=float, default=1e3)
    ap.add_argument("--points", type=int, default=6)
    args = ap.parse_args()

    xs = np.geomspace(args.x_min, args.x_max, args.points).astype(np.int64)
    p, a, _ = split_range(2, int(args.x_max) + 1)
    ratios_all = a / np.sqrt(p)
    m = arcsine()
    print(f"{'x':>12} {'n':>9} {'ks':>12} {'ks*sqrt(n)':>12}")
    for x in xs:
        ratios = ratios_all[p <= x]
        if ratios.size == 0:
            continue
        d = ks_distance(ratios, m)
        print(f"{int(x):>12} {ratios.size:>9} {d:>12.3e} "
              f"{d * math.sqrt(ratios.size):>12.4f}")


if __name__ == "__main__":
    main()
