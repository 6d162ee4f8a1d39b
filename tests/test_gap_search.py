import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckegaps import gap_search
from heckegaps.diagonal_curve import curve_new, eps_interval
from heckegaps.equidist_stats import all_primes_set, curve_set, peps_set
from heckegaps.gap_search import MAX_PAIRS, MAX_WINDOWS, ScanReport, record_gaps, scan_tuple
from heckegaps.prime_engine import primes_in
from heckegaps.tuples import narrow_tuple


def test_record_gaps_frozen_small():
    recs = record_gaps(peps_set(0.95), 100, n_records=5)
    assert recs[0] == (4, 13, 17)
    assert recs[1] == (4, 37, 41)
    assert recs[2] == (8, 5, 13)


def test_record_gaps_all_primes():
    recs = record_gaps(all_primes_set(), 100, n_records=3)
    # gaps between consecutive primes up to 100: the three twin pairs first
    assert recs[0] == (1, 2, 3)
    assert recs[1] == (2, 3, 5)
    assert recs[2] == (2, 5, 7)


def test_record_gaps_sorted_by_gap_then_position():
    recs = record_gaps(all_primes_set(), 10_000, n_records=25)
    keys = [(g, p) for g, p, _ in recs]
    assert keys == sorted(keys)
    for g, p, q in recs:
        assert q - p == g


def lexsort_records(members, n_records):
    """Every gap sorted by (gap, p), then the first n_records."""
    members = np.asarray(members)
    if members.size < 2:
        return []
    diffs = np.diff(members)
    order = np.lexsort((members[:-1], diffs))[:n_records]
    return [(int(diffs[i]), int(members[i]), int(members[i + 1])) for i in order]


@pytest.mark.parametrize("x", [100, 101, 150, 10**3, 12_345, 10**5, 2 * 10**6])
@pytest.mark.parametrize("spec", [all_primes_set(), peps_set(0.5), peps_set(0.1)],
                         ids=["primes", "peps0.5", "peps0.1"])
def test_record_gaps_match_full_sort(spec, x):
    # twin primes tie at the cut; P_0.1 below 1000 has fewer gaps than asked
    members = spec.members(2, x + 1)
    for n_records in (0, 1, 2, 5, 10, 50, 10**6):
        assert record_gaps(spec, x, n_records) == lexsort_records(members, n_records)


def test_record_gaps_input_checked():
    with pytest.raises(ValueError):
        record_gaps(all_primes_set(), 99)
    with pytest.raises(ValueError):
        record_gaps(all_primes_set(), 200, n_records=-1)


def test_scan_tuple_tiny_frozen():
    # windows n in (4, 8] for H = {0, 2}: n=5 hits both, n=7 hits one
    rep = scan_tuple(all_primes_set(), (0, 2), 4)
    assert rep.histogram == {0: 2, 1: 1, 2: 1}
    assert rep.max_hits == 2
    assert rep.best_windows == ((5, (0, 2)),)
    assert rep.min_gap == 2
    assert (2, 5, 7) in rep.record_pairs


def test_scan_tuple_rejects_inadmissible():
    with pytest.raises(ValueError):
        scan_tuple(all_primes_set(), (0, 2, 4), 100)
    with pytest.raises(ValueError):
        scan_tuple(all_primes_set(), (0, 2), 1)


def test_scan_tuple_negative_offsets_allowed():
    # offsets need not start at zero; {-2, 0} sees the same twin windows
    a = scan_tuple(all_primes_set(), (0, 2), 100)
    b = scan_tuple(all_primes_set(), (-2, 0), 100)
    assert a.histogram == b.histogram
    assert a.max_hits == b.max_hits


def brute_histogram(spec, H, x):
    counts = {}
    for n in range(x + 1, 2 * x + 1):
        hits = sum(1 for h in H if spec.contains(n + h))
        counts[hits] = counts.get(hits, 0) + 1
    return counts


@settings(max_examples=25)
@given(
    st.integers(min_value=4, max_value=120),
    st.sampled_from([(0, 2), (0, 4), (0, 2, 6), (0, 4, 6), (0, 6, 12)]),
)
def test_scan_tuple_histogram_matches_brute(x, H):
    rep = scan_tuple(all_primes_set(), H, x)
    want = brute_histogram(all_primes_set(), H, x)
    # the scan lists every hit level 0..k, the brute count only nonzero ones
    assert {h: c for h, c in rep.histogram.items() if c > 0} == want
    assert sum(rep.histogram.values()) == x


def test_scan_tuple_window_count_conserved():
    rep = scan_tuple(peps_set(0.9), (0, 4, 12), 500)
    assert sum(rep.histogram.values()) == 500
    for n, hs in rep.best_windows:
        assert len(hs) == rep.max_hits
        assert 500 < n <= 1000


def test_scan_twin_matches_prime_table():
    x = 2000
    rep = scan_tuple(all_primes_set(), (0, 2), x)
    ps = primes_in(x + 1, 2 * x + 3)
    twins = np.intersect1d(ps, ps - 2)  # n with n and n+2 prime
    twins = twins[twins <= 2 * x]
    assert rep.histogram.get(2, 0) == twins.size


C4 = curve_new(1, 1, 1, 4, 2)
ORACLE_SETS = {
    "primes": all_primes_set(),
    "peps0.5": peps_set(0.5),
    "curve1,1,1,4,2": curve_set(C4, eps_interval(C4, 1.0)),
}


def brute_members(spec, lo, hi):
    return [v for v in range(max(lo, 2), hi) if spec.contains(v)]


def brute_smallest_gaps(members, n):
    return sorted((q - p, p, q) for p, q in zip(members, members[1:]))[:n]


def brute_scan(spec, H, x):
    """The ScanReport of a pure-Python loop over ``contains``."""
    offs = tuple(H)
    member = set(brute_members(spec, x + 1 + offs[0], 2 * x + offs[-1] + 1))
    hit_offs = {n: tuple(h for h in offs if n + h in member) for n in range(x + 1, 2 * x + 1)}
    mx = max(len(hs) for hs in hit_offs.values())
    counts = [len(hs) for hs in hit_offs.values()]
    gaps = brute_smallest_gaps(sorted(member), len(member))
    mg = gaps[0][0] if gaps else None
    return ScanReport(
        set_label=spec.label,
        offsets=offs,
        x=x,
        histogram={j: counts.count(j) for j in range(len(offs) + 1)},
        max_hits=mx,
        best_windows=tuple((n, hs) for n, hs in hit_offs.items() if len(hs) == mx)[:MAX_WINDOWS],
        min_gap=mg,
        record_pairs=tuple(g for g in gaps if g[0] == mg)[:MAX_PAIRS],
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(ORACLE_SETS)),
    st.sampled_from([(0, 2), (-2, 0), (-6, -4, 0), (0, 4, 6, 10), (-10, 0, 2), (0, 1000)]),
    st.integers(min_value=2, max_value=150),
    st.integers(min_value=3, max_value=60),
)
@example("primes", (-2, 0), 2, 60)  # a best window whose hit is the value 2
@example("primes", (-10, 0, 2), 5, 4)  # values down to -4
def test_scan_tuple_matches_brute_across_blocks(name, H, x, block):
    spec = ORACLE_SETS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gap_search, "BLOCK", block)
        mp.setattr(gap_search, "CHUNK", 7)
        assert scan_tuple(spec, H, x) == brute_scan(spec, H, x)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(ORACLE_SETS)),
    st.integers(min_value=100, max_value=500),
    st.sampled_from([0, 1, 5, 50, 10**6]),
    st.integers(min_value=3, max_value=60),
)
def test_record_gaps_match_brute_across_blocks(name, x, n_records, block):
    spec = ORACLE_SETS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gap_search, "BLOCK", block)
        assert record_gaps(spec, x, n_records) == brute_smallest_gaps(
            brute_members(spec, 2, x + 1), n_records)


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_scan_wide_tuple_matches_brute(monkeypatch, name):
    # 300 offsets need 16-bit counters
    monkeypatch.setattr(gap_search, "BLOCK", 50)
    monkeypatch.setattr(gap_search, "CHUNK", 7)
    spec = ORACLE_SETS[name]
    H = narrow_tuple(300)
    rep = scan_tuple(spec, H, 40)
    assert rep == brute_scan(spec, H.offsets, 40)


def test_scan_tuple_memory_does_not_grow_with_the_diameter():
    # x bytes of counters plus at most two blocks: neither a bitmap nor the
    # members of the whole span (x + h_min, 2x + h_max] are ever held
    for diameter in (10**6, 10**7):
        tracemalloc.start()
        try:
            scan_tuple(all_primes_set(), (0, diameter), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (diameter, peak)
