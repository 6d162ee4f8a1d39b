"""Window scans and record gaps inside constrained prime sets.

``scan_tuple`` slides an admissible tuple over (x, 2x] and histograms how many
of the shifted offsets land in the set, using one boolean membership bitmap
and k shifted slices.  ``record_gaps`` lists the smallest gaps between
consecutive set members.  Nothing here asserts cluster guarantees; the
scanner reports what it finds and re-verifies every reported hit against the
membership predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .equidist_stats import SetSpec
from .tuples import AdmissibleTuple, make_tuple

# ``scan_tuple`` reports at most this many best windows and record pairs.
MAX_WINDOWS = 20
MAX_PAIRS = 50


@dataclass(frozen=True)
class ScanReport:
    set_label: str
    offsets: tuple[int, ...]
    x: int
    histogram: dict[int, int]
    max_hits: int
    best_windows: tuple[tuple[int, tuple[int, ...]], ...]
    min_gap: int | None
    record_pairs: tuple[tuple[int, int, int], ...]


def _as_tuple(H: Union[AdmissibleTuple, Sequence[int]]) -> AdmissibleTuple:
    if isinstance(H, AdmissibleTuple):
        return H
    return make_tuple(H)


def scan_tuple(
    set_spec: SetSpec,
    H: Union[AdmissibleTuple, Sequence[int]],
    x: int,
) -> ScanReport:
    """Hit counts of {n + h_i} against the set for n in (x, 2x].

    Membership is resolved against the precomputed sorted member list for
    (x, 2x + diameter]; the windows achieving the maximum count are returned
    (the first ``MAX_WINDOWS``) with each hit re-verified through
    ``set_spec.contains``.  Sensible output needs x comfortably larger than
    the diameter; tiny x are allowed for smoke tests.
    """
    tup = _as_tuple(H)
    if not tup.admissible:
        raise ValueError(f"tuple is inadmissible (witness prime {tup.witness})")
    if x < 2:
        raise ValueError("x must be >= 2")
    offs = tup.offsets
    diam = tup.diameter
    # tested values are n + h for n in (x, 2x]: they fill (x + h_min, 2x + h_max]
    lo = x + 1 + offs[0]
    members = np.asarray(set_spec.members(lo, 2 * x + offs[-1] + 1))
    bitmap = np.zeros(x + diam, dtype=bool)  # index = value - lo
    if members.size:
        bitmap[members - lo] = True
    hits = np.zeros(x, dtype=np.int64)
    for h in offs:
        sl = h - offs[0]
        hits += bitmap[sl : sl + x]
    histogram = {int(i): int(c) for i, c in enumerate(np.bincount(hits, minlength=len(offs) + 1))}
    mx = int(hits.max()) if x > 0 else 0
    ns = (x + 1) + np.nonzero(hits == mx)[0]
    best = []
    for n in ns[:MAX_WINDOWS]:
        n = int(n)
        hit_offs = tuple(h for h in offs if bitmap[n + h - lo])
        for h in hit_offs:
            if not set_spec.contains(n + h):
                raise RuntimeError(
                    f"stale membership: {n + h} failed re-verification"
                )
        best.append((n, hit_offs))
    if members.size >= 2:
        diffs = np.diff(members)
        mg = int(diffs.min())
        where = np.nonzero(diffs == mg)[0][:MAX_PAIRS]
        pairs = tuple(
            (mg, int(members[i]), int(members[i + 1])) for i in where
        )
    else:
        mg, pairs = None, ()
    return ScanReport(
        set_label=set_spec.label,
        offsets=offs,
        x=x,
        histogram=histogram,
        max_hits=mx,
        best_windows=tuple(best),
        min_gap=mg,
        record_pairs=pairs,
    )


def record_gaps(
    set_spec: SetSpec, x: int, n_records: int = 10
) -> list[tuple[int, int, int]]:
    """The smallest gaps (gap, p, q) between consecutive members up to x,
    ascending by gap then by p.  Empty when the set has fewer than 2 members."""
    if x < 100:
        raise ValueError("x must be >= 100")
    if n_records < 0:
        raise ValueError("n_records must be >= 0")
    members = np.asarray(set_spec.members(2, x + 1))
    diffs = np.diff(members)
    k = min(n_records, diffs.size)
    if k == 0:
        return []
    cut = np.partition(diffs, k - 1)[k - 1]  # the k-th smallest gap
    near = np.flatnonzero(diffs <= cut)  # every record candidate, ascending in p
    order = near[np.argsort(diffs[near], kind="stable")[:k]]
    return [(int(diffs[i]), int(members[i]), int(members[i + 1])) for i in order]
