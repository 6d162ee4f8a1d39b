"""Window scans and record gaps inside constrained prime sets.

Both scans are one ascending pass over the set's members, in blocks of
``BLOCK`` values, each block one ``members`` call.  ``scan_tuple`` slides an
admissible tuple over (x, 2x] and histograms how many of the shifted offsets
land in the set: every block adds its member bitmap into one hit counter per
window, a byte for up to 255 offsets.  ``record_gaps`` lists the smallest gaps
between consecutive set members; the pass carries the last member across
block edges.  Nothing here asserts cluster guarantees; the scanner reports
what it finds and re-verifies every reported hit against the membership
predicate.
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

# Values per block of the member pass: a scan holds its x bytes of hit
# counters plus at most two blocks (the block being read while the last one is
# still in use; each block its members and a bitmap of at most this many
# bytes).  Tuple scans at x near 10^6 and record gaps up to 2 * 10^6 stay one
# block.  Correctness must not (and does not) depend on this value; tests
# exercise blocks of a few dozen values.
BLOCK = 1 << 21

# The best windows are looked for in chunks of this many counters, so that no
# index array of every window at the maximum is built.
CHUNK = 1 << 16


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


def _member_blocks(set_spec: SetSpec, lo: int, hi: int):
    """(b_lo, b_hi, members) for ascending blocks of BLOCK values over [lo, hi).

    The sets hold primes only, so the blocks start at max(lo, 2).  A span of
    one block is one ``members(lo, hi)`` call.  Of a longer span the top block
    is asked first, before this returns, and given back: a span the set
    refuses (beyond its range or a counting limit) then fails before any other
    work, raised by ``members(lo, hi)`` of the whole span so that the message
    is the refusal of the whole span.
    """
    start = max(lo, 2)
    if hi - start <= BLOCK:
        return iter([(start, hi, np.asarray(set_spec.members(lo, hi)))])
    try:
        set_spec.members(start + (hi - start - 1) // BLOCK * BLOCK, hi)
    except ValueError:
        set_spec.members(lo, hi)
        raise

    def blocks():
        for b_lo in range(start, hi, BLOCK):
            b_hi = min(b_lo + BLOCK, hi)
            yield b_lo, b_hi, np.asarray(set_spec.members(b_lo, b_hi))

    return blocks()


class _SmallestGaps:
    """The n smallest gaps (gap, p) between consecutive members, ordered by
    gap, then p, fed the members in ascending blocks."""

    def __init__(self, n: int):
        self.n = n
        self.last = None  # the last member fed
        self.gaps = np.empty(0, dtype=np.int64)
        self.ps = np.empty(0, dtype=np.int64)

    def add(self, members: np.ndarray) -> None:
        if self.n == 0 or members.size == 0:
            return
        if self.last is not None:
            members = np.concatenate(([self.last], members))
        self.last = members[-1]
        diffs = np.diff(members)
        if self.gaps.size == self.n:
            # every p kept is below this block's, so a tie with the largest
            # gap kept loses
            near = np.flatnonzero(diffs < self.gaps[-1])
        elif diffs.size > self.n:
            near = np.flatnonzero(diffs <= np.partition(diffs, self.n - 1)[self.n - 1])
        else:
            near = np.arange(diffs.size)
        if near.size == 0:
            return
        gaps = np.concatenate((self.gaps, diffs[near]))
        ps = np.concatenate((self.ps, members[near]))
        keep = np.argsort(gaps, kind="stable")[: self.n]
        self.gaps, self.ps = gaps[keep], ps[keep]

    def records(self) -> list[tuple[int, int, int]]:
        return [(g, p, p + g) for g, p in zip(self.gaps.tolist(), self.ps.tolist())]


def _histogram(hits: np.ndarray, mx: int, k: int) -> dict[int, int]:
    """{j: windows with j hits} for j = 0..k, one pass over ``hits`` per level
    up to the maximum ``mx``, never widening all of ``hits``."""
    counts = [0] * (k + 1)
    for j in range(1, mx + 1):
        counts[j] = int(np.count_nonzero(hits == j))
    counts[0] = hits.size - sum(counts)
    return dict(enumerate(counts))


def _first_at(hits: np.ndarray, value: int, limit: int) -> list[int]:
    """The first ``limit`` indices i with hits[i] == value, ascending."""
    found: list[int] = []
    for i in range(0, hits.size, CHUNK):
        found += (i + np.flatnonzero(hits[i : i + CHUNK] == value)).tolist()
        if len(found) >= limit:
            break
    return found[:limit]


def scan_tuple(
    set_spec: SetSpec,
    H: Union[AdmissibleTuple, Sequence[int]],
    x: int,
) -> ScanReport:
    """Hit counts of {n + h_i} against the set for n in (x, 2x].

    The tested values n + h fill (x + h_min, 2x + h_max]; one pass over its
    members in blocks of ``BLOCK`` values counts the hits of every window, in
    x counters of the narrowest unsigned dtype that holds k, and keeps the
    smallest gaps between consecutive members of that span.  Memory is those
    x bytes (for k <= 255) plus at most two blocks, whatever the diameter; a
    span the set refuses is asked once more whole, to raise its refusal.  The
    windows achieving the maximum count are returned (the first
    ``MAX_WINDOWS``, ascending), their hits found through
    ``set_spec.contains`` and checked against the counted maximum;
    ``record_pairs`` are the first ``MAX_PAIRS`` pairs at the minimal gap,
    ascending in p.  Sensible output needs x comfortably larger than the
    diameter; tiny x are allowed for smoke tests.
    """
    tup = _as_tuple(H)
    if not tup.admissible:
        raise ValueError(f"tuple is inadmissible (witness prime {tup.witness})")
    if x < 2:
        raise ValueError("x must be >= 2")
    offs = tup.offsets
    k = len(offs)
    blocks = _member_blocks(set_spec, x + 1 + offs[0], 2 * x + offs[-1] + 1)
    hits = np.zeros(x, dtype=np.min_scalar_type(k))  # hits[n - x - 1]
    gaps = _SmallestGaps(MAX_PAIRS)
    for b_lo, b_hi, members in blocks:
        gaps.add(members)
        # the values [v0, v1) of this block that offset h tests
        spans = [(h, max(b_lo, x + 1 + h), min(b_hi, 2 * x + 1 + h)) for h in offs]
        spans = [(h, v0, v1) for h, v0, v1 in spans if v0 < v1]
        if not spans:
            continue
        base = spans[0][1]
        bitmap = np.zeros(spans[-1][2] - base, dtype=np.uint8)
        inside = members[(members >= base) & (members < base + bitmap.size)]
        bitmap[inside - base] = 1
        for h, v0, v1 in spans:
            hits[v0 - h - x - 1 : v1 - h - x - 1] += bitmap[v0 - base : v1 - base]
    mx = int(hits.max())
    ns = [x + 1 + i for i in _first_at(hits, mx, MAX_WINDOWS)]
    best = []
    for n in ns:
        # every hit re-verified through the membership predicate
        hit_offs = tuple(h for h in offs if set_spec.contains(n + h))
        if len(hit_offs) != mx:
            raise RuntimeError(f"stale membership: window {n} counted {mx} hits, "
                               f"contains finds {len(hit_offs)}")
        best.append((n, hit_offs))
    recs = gaps.records()
    mg = recs[0][0] if recs else None
    return ScanReport(
        set_label=set_spec.label,
        offsets=offs,
        x=x,
        histogram=_histogram(hits, mx, k),
        max_hits=mx,
        best_windows=tuple(best),
        min_gap=mg,
        record_pairs=tuple(r for r in recs if r[0] == mg),
    )


def record_gaps(
    set_spec: SetSpec, x: int, n_records: int = 10
) -> list[tuple[int, int, int]]:
    """The smallest gaps (gap, p, q) between consecutive members up to x,
    ascending by gap then by p.  Empty when the set has fewer than 2 members.
    One pass over the members in blocks of ``BLOCK`` values."""
    if x < 100:
        raise ValueError("x must be >= 100")
    if n_records < 0:
        raise ValueError("n_records must be >= 0")
    gaps = _SmallestGaps(n_records)
    for _, _, members in _member_blocks(set_spec, 2, x + 1):
        gaps.add(members)
    return gaps.records()
