import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckegaps.equidist_stats import all_primes_set, peps_set
from heckegaps.gap_search import record_gaps, scan_tuple
from heckegaps.prime_engine import primes_in


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
