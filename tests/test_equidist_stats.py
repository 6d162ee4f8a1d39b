import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckegaps.equidist_stats import (
    all_primes_set,
    bv_decay,
    bv_rows_csv,
    bv_table,
    default_y_grid,
    empirical_dist,
    erdos_turan_bound,
    ks_distance,
    peps_set,
)
from heckegaps.gaussian_split import canonical_split, in_P_eps
from heckegaps.measures import arcsine, cm_mixture, uniform01
from heckegaps.prime_engine import primes_in


def test_ks_three_point_frozen():
    # sorted {-1, 0, 1} against arcsine: sup gap is 1/3, attained at the ends
    d = ks_distance(empirical_dist(np.array([-1.0, 0.0, 1.0])), arcsine())
    assert d == pytest.approx(1 / 3)


def test_ks_detects_atom():
    # all samples at 0 vs cm mixture (atom 1/2 at 0): D = F(0^-) shifted by atom
    zeros = np.zeros(1000)
    d_cm = ks_distance(empirical_dist(zeros), cm_mixture())
    d_arc = ks_distance(empirical_dist(zeros), arcsine())
    assert d_cm == pytest.approx(0.25)
    assert d_arc == pytest.approx(0.5)


def test_ks_quantile_samples_small():
    # sampling arcsine exactly at mid-quantiles makes D ~ 1/(2n)
    n = 500
    u = (np.arange(n) + 0.5) / n
    samples = np.sin(math.pi * (u - 0.5))
    assert ks_distance(empirical_dist(samples), arcsine()) <= 1.0 / n


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
             min_size=1, max_size=200)
)
def test_ks_bounded(xs):
    d = ks_distance(empirical_dist(np.array(xs)), arcsine())
    assert 0.0 <= d <= 1.0


def test_erdos_turan_frozen_zero_sequence():
    n = 100
    lhs, rhs = erdos_turan_bound(np.zeros(n), (0.4, 0.6), uniform01(), 2)
    assert lhs == pytest.approx(0.2 * n)
    assert rhs == pytest.approx(5.5 * n)


def test_erdos_turan_input_checks():
    with pytest.raises(ValueError):
        erdos_turan_bound(np.zeros(5), (0.4, 0.6), uniform01(), 1)
    with pytest.raises(ValueError):
        erdos_turan_bound(np.zeros(5), (0.6, 0.4), uniform01(), 5)
    with pytest.raises(ValueError):
        erdos_turan_bound(np.zeros(5), (-0.1, 0.5), uniform01(), 5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False), min_size=1, max_size=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([2, 5, 10, 50]),
)
def test_erdos_turan_inequality_uniform(xs, u, v, T):
    lo, hi = min(u, v), max(u, v)
    lhs, rhs = erdos_turan_bound(np.array(xs), (lo, hi), uniform01(), T)
    assert lhs <= rhs + 1e-9


def test_all_primes_set():
    s = all_primes_set()
    assert s.density == 1.0
    assert s.d_E == 1
    assert s.contains(97)
    assert not s.contains(91)
    assert s.members(2, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # window lows below 2 are clamped, not an error
    assert s.members(-5, 10).tolist() == [2, 3, 5, 7]


def test_peps_set_matches_scalar_filter():
    s = peps_set(0.5)
    assert s.d_E == 4
    assert s.density == pytest.approx(1 / 6)
    for p in primes_in(2, 500):
        assert s.contains(int(p)) == in_P_eps(int(p), 0.5)
    members = s.members(2, 500).tolist()
    want = [int(p) for p in primes_in(2, 500) if in_P_eps(int(p), 0.5)]
    assert members == want


def test_peps_set_table_fast_path(split_table_1e7):
    table, _ = split_table_1e7
    fast = peps_set(0.5, table=table)
    slow = peps_set(0.5)
    assert fast.members(2, 3000).tolist() == slow.members(2, 3000).tolist()


def brute_bv_table(spec, x, Q, delta):
    """Reference implementation: direct nested loops, no vectorization."""
    members = [int(p) for p in spec.members(2, x + 1)]
    all_p = [int(p) for p in primes_in(2, x + 1)]
    rows = []
    total = 0.0
    for q in range(1, Q + 1):
        if math.gcd(q, spec.d_E) != 1:
            continue
        best = None
        for a in range(q):
            if math.gcd(a, q) != 1 and q > 1:
                continue
            obs = sum(1 for p in members if p % q == a)
            phi = sum(1 for t in range(1, q + 1) if math.gcd(t, q) == 1)
            exp = delta * len(all_p) / phi
            err = abs(obs - exp)
            if best is None or err > best[3]:
                best = (a, obs, exp, err)
        rows.append((q, best[0], best[1], best[2], best[3]))
        total += best[3]
    return rows, total


def test_bv_table_against_brute_force():
    spec = all_primes_set()
    x, Q = 300, 6
    table = bv_table(spec, x, Q, y_grid=[x])
    want_rows, want_total = brute_bv_table(spec, x, Q, delta=1.0)
    assert len(table.rows) == len(want_rows)
    for row, (q, a, obs, exp, err) in zip(table.rows, want_rows):
        assert row.q == q
        assert row.worst_a == a
        assert row.worst_y == x
        assert row.observed == obs
        assert row.expected == pytest.approx(exp)
        assert row.abs_err == pytest.approx(err)
    assert table.aggregate == pytest.approx(want_total)


def test_bv_table_peps_against_brute_force():
    spec = peps_set(0.5)
    x, Q = 400, 8
    table = bv_table(spec, x, Q, y_grid=[x])
    want_rows, want_total = brute_bv_table(spec, x, Q, delta=spec.density)
    got = [(r.q, r.worst_a, r.observed) for r in table.rows]
    want = [(q, a, obs) for q, a, obs, _, _ in want_rows]
    assert got == want
    assert table.aggregate == pytest.approx(want_total)
    # moduli sharing a factor with d_E = 4 are excluded
    assert all(r.q % 2 == 1 for r in table.rows)


def test_bv_table_input_checks():
    spec = all_primes_set()
    with pytest.raises(ValueError):
        bv_table(spec, 100, 200)
    with pytest.raises(ValueError):
        bv_table(spec, 100, 5, y_grid=[1])
    with pytest.raises(ValueError):
        bv_table(spec, 100, 5, y_grid=[101])
    with pytest.raises(ValueError, match="y_grid is empty"):
        bv_table(spec, 100, 5, y_grid=[])
    for delta in (float("nan"), float("inf"), -1.0, 0.0, 1.5):
        with pytest.raises(ValueError, match="delta must lie in"):
            bv_table(spec, 100, 5, delta=delta)


def test_default_y_grid_shape():
    g = default_y_grid(10**6)
    assert g[0] >= math.isqrt(10**6)
    assert g[-1] == 10**6
    assert all(g[i] < g[i + 1] for i in range(len(g) - 1))


def test_bv_rows_csv_format():
    table = bv_table(all_primes_set(), 200, 4, y_grid=[200])
    text = bv_rows_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "q,worst_a,worst_y,observed,expected,abs_err"
    assert lines[-1].startswith("# aggregate ")
    assert len(lines) == 2 + len(table.rows)


def test_bv_decay_shape():
    pairs = bv_decay(all_primes_set(), [1000, 10000], 6)
    assert [x for x, _ in pairs] == [1000, 10000]
    assert all(v >= 0.0 for _, v in pairs)
