import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckegaps.equidist_stats import (
    BVRow,
    all_primes_set,
    bv_decay,
    bv_table,
    curve_set,
    default_y_grid,
    erdos_turan_bound,
    ks_distance,
    peps_set,
)
from heckegaps.cli import main
from heckegaps.diagonal_curve import (
    TraceStore,
    count_affine_charsum,
    count_affine_naive,
    curve_new,
    in_P_CI,
    nd,
    trace,
)
from heckegaps.gaussian_split import (
    canonical_split,
    cornacchia,
    in_P_eps,
    split_range,
    theta_of,
)
from heckegaps.measures import arcsine, cm_mixture, mass, uniform01
from heckegaps.prime_engine import primes_in


def test_ks_three_point_frozen():
    # sorted {-1, 0, 1} against arcsine: sup gap is 1/3, attained at the ends
    d = ks_distance(np.array([-1.0, 0.0, 1.0]), arcsine())
    assert d == pytest.approx(1 / 3)


def test_ks_detects_atom():
    # all samples at 0 vs cm mixture (atom 1/2 at 0): D = F(0^-) shifted by atom
    zeros = np.zeros(1000)
    d_cm = ks_distance(zeros, cm_mixture())
    d_arc = ks_distance(zeros, arcsine())
    assert d_cm == pytest.approx(0.25)
    assert d_arc == pytest.approx(0.5)


def test_ks_quantile_samples_small():
    # sampling arcsine exactly at mid-quantiles makes D ~ 1/(2n)
    n = 500
    u = (np.arange(n) + 0.5) / n
    samples = np.sin(math.pi * (u - 0.5))
    assert ks_distance(samples, arcsine()) <= 1.0 / n


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
             min_size=1, max_size=200)
)
def test_ks_bounded(xs):
    d = ks_distance(np.array(xs), arcsine())
    assert 0.0 <= d <= 1.0


def test_ks_input_checks():
    with pytest.raises(ValueError, match="one-dimensional"):
        ks_distance(np.zeros((2, 3)), arcsine())
    for bad in ([0.5, 1.5], [-1.0 - 1e-12]):
        with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
            ks_distance(np.array(bad), arcsine())
    with pytest.raises(ValueError, match="at least one sample"):
        ks_distance(np.array([]), arcsine())


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


def exp_per_m_erdos_turan(angles, interval, m, T):
    """The bound with one np.exp of every angle per m: the reference for
    ``erdos_turan_bound``'s power recurrence."""
    a = np.asarray(angles, dtype=np.float64) % 1.0
    lo, hi = interval
    lhs = abs(int(((a >= lo) & (a <= hi)).sum()) - mass(m, interval) * a.size)
    rhs = a.size / T
    phases = 2.0j * np.pi * a
    for mm in range(1, T + 1):
        rhs += 2.0 * (1.0 / T + 1.0 / mm) * abs(np.exp(mm * phases).sum())
    return float(lhs), float(rhs)


@pytest.mark.parametrize("T", [2, 5, 50, 500])
def test_erdos_turan_powers_match_exp_per_m(T, capsys):
    p, a, b = split_range(2, 10**5)
    rng = np.random.default_rng(T)
    for angles in (theta_of(a, b), rng.random(5000), rng.random(500) * 1e-3):
        for interval in ((0.0, 0.25), (0.1, 0.35)):
            for m in (uniform01(), arcsine()):
                lhs, rhs = erdos_turan_bound(angles, interval, m, T)
                want_lhs, want_rhs = exp_per_m_erdos_turan(angles, interval, m, T)
                assert lhs == want_lhs
                assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=0)
    # the CLI's n and lhs keep their bytes
    main(["equidist", "--set", "peps", "--eps", "0.5", "--x", "1e5", "--stat", "et",
          "--interval", "0.1,0.35", "--T", str(T), "--format", "json"])
    got = json.loads(capsys.readouterr().out)
    keep = np.abs(a) <= 0.5 * np.sqrt(p)
    want_lhs, want_rhs = exp_per_m_erdos_turan(
        theta_of(a, b)[keep], (0.1, 0.35), arcsine(), T)
    assert (got["n"], got["lhs"]) == (int(keep.sum()), want_lhs)
    assert got["rhs"] == pytest.approx(want_rhs, rel=1e-12, abs=0)


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


@pytest.mark.parametrize("spec", [
    all_primes_set(),
    peps_set(0.5),
    peps_set(1.0),
    curve_set(curve_new(1, 1, 1, 3, 3), (-0.5, 0.5)),
], ids=lambda spec: spec.label)
def test_contains_agrees_with_members(spec):
    # one membership rule for every integer: composites and n < 2 are out
    lo, hi = -5, 1000
    members = set(spec.members(lo, hi).tolist())
    assert [n for n in range(lo, hi) if spec.contains(n)] == sorted(members)


C3, C10 = curve_new(1, 1, 1, 3, 3), curve_new(1, -1, -1, 5, 2)
PRIME_CALLS = {  # name -> (call on one prime, primes to try)
    "cornacchia": (lambda p: cornacchia(p, 1), (13, 29)),
    "canonical_split": (canonical_split, (13, 7)),
    "in_P_eps": (lambda p: in_P_eps(p, 0.5), (13, 29)),
    "nd": (lambda p: nd(C3, p), (7, 13)),
    "count_affine_charsum M=3": (lambda p: count_affine_charsum(C3, p), (7, 13)),
    "count_affine_charsum M=10": (lambda p: count_affine_charsum(C10, p), (11, 31)),
    "count_affine_naive": (lambda p: count_affine_naive(C3, p), (7, 13)),
    "trace": (lambda p: trace(C3, p), (7, 13)),
    "trace naive": (lambda p: trace(C3, p, "naive"), (7, 13)),
    "in_P_CI": (lambda p: in_P_CI(C3, p, (-0.5, 0.5)), (7, 13)),
    "TraceStore.get": (lambda p: TraceStore(C3).get(p), (7, 13)),
    "peps_set.contains": (lambda p: peps_set(0.5).contains(p), (13, 29)),
    "curve_set.contains": (lambda p: curve_set(C3, (-0.5, 0.5)).contains(p), (7, 13)),
}


@pytest.mark.parametrize("name", PRIME_CALLS)
def test_numpy_integer_primes_accepted(name):
    # members arrays are int64: their elements are primes like any other
    call, primes = PRIME_CALLS[name]
    for p in primes:
        assert call(np.int64(p)) == call(p)
    with pytest.raises(TypeError):
        call(13.0)


def test_members_feed_contains():
    spec = peps_set(0.5)
    assert all(spec.contains(p) for p in spec.members(2, 100))


def brute_bv_table(spec, x, Q, delta, ys):
    """Reference implementation: direct nested loops over q, a and y, no
    vectorization.  A cell replaces the best only when strictly worse, so ties
    go to the first (a, y) in ascending order."""
    members = [int(p) for p in spec.members(2, x + 1)]
    all_p = [int(p) for p in primes_in(2, x + 1)]
    rows = []
    total = 0.0
    for q in range(1, Q + 1):
        if math.gcd(q, spec.d_E) != 1:
            continue
        phi = sum(1 for t in range(1, q + 1) if math.gcd(t, q) == 1)
        best = None
        for a in range(q):
            if math.gcd(a, q) != 1 and q > 1:
                continue
            for y in ys:
                obs = sum(1 for p in members if p <= y and p % q == a)
                exp = delta * sum(1 for p in all_p if p <= y) / phi
                err = abs(obs - exp)
                if best is None or err > best.abs_err:
                    best = BVRow(q=q, worst_a=a, worst_y=y, observed=obs,
                                 expected=exp, abs_err=err)
        rows.append(best)
        total += best.abs_err
    return tuple(rows), total


def test_bv_table_against_brute_force():
    spec = all_primes_set()
    x, Q = 300, 6
    table = bv_table(spec, x, Q, y_grid=[x])
    want_rows, want_total = brute_bv_table(spec, x, Q, 1.0, [x])
    assert table.rows == want_rows
    assert table.aggregate == want_total


def test_bv_table_peps_against_brute_force():
    spec = peps_set(0.5)
    x, Q = 400, 8
    table = bv_table(spec, x, Q, y_grid=[x])
    want_rows, want_total = brute_bv_table(spec, x, Q, spec.density, [x])
    assert table.rows == want_rows
    assert table.aggregate == want_total
    # moduli sharing a factor with d_E = 4 are excluded
    assert all(r.q % 2 == 1 for r in table.rows)


@pytest.mark.parametrize("spec,x,Q,ys", [
    (all_primes_set(), 2000, 12, [2, 3, 50, 199, 1000, 1999, 2000]),
    (all_primes_set(), 1500, 10, default_y_grid(1500)),
    (peps_set(0.5), 2000, 12, [5, 13, 400, 1013, 2000]),
    (peps_set(0.5), 1800, 11, default_y_grid(1800)),
])
def test_bv_table_y_grid_against_brute_force(spec, x, Q, ys):
    table = bv_table(spec, x, Q, y_grid=ys)
    want_rows, want_total = brute_bv_table(spec, x, Q, spec.density, ys)
    assert table.rows == want_rows
    assert table.aggregate == want_total


def test_bv_table_ties_go_to_first_class_then_first_y():
    spec = all_primes_set()
    x, ys = 200, [int(y) for y in np.linspace(20, 200, 8)]
    assert ys == [20, 45, 71, 97, 122, 148, 174, 200]
    table = bv_table(spec, x, 5, y_grid=ys)
    want_rows, want_total = brute_bv_table(spec, x, 5, 1.0, ys)
    assert table.rows == want_rows
    assert table.aggregate == want_total
    # q = 5 has four cells at the maximum; the scan keeps the first of them
    pr = primes_in(2, x + 1)
    errs = {(a, y): abs(int(((pr <= y) & (pr % 5 == a)).sum()) - (pr <= y).sum() / 4)
            for a in (1, 2, 3, 4) for y in ys}
    top = max(errs.values())
    assert sorted(k for k, v in errs.items() if v == top) == [(1, 174), (2, 174), (4, 71), (4, 174)]
    row = table.rows[-1]
    assert (row.q, row.worst_a, row.worst_y, row.abs_err) == (5, 1, 174, top)


def test_bv_table_input_checks():
    spec = all_primes_set()
    for Q in (200, 0, -3):
        with pytest.raises(ValueError, match=r"need 1 <= Q <= x, got Q=-?\d+ and x=100"):
            bv_table(spec, 100, Q)
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


def test_bv_rows_csv_format(capsys):
    # the csv of a bv table is written by the CLI: header, one line per row, trailer
    table = bv_table(all_primes_set(), 200, 4, y_grid=[200])
    assert main(["bv-check", "--set", "primes", "--x", "200", "--Q", "4",
                 "--y-grid", "200", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,worst_a,worst_y,observed,expected,abs_err"
    assert lines[-1] == f"# aggregate {table.aggregate!r}"
    assert len(lines) == 2 + len(table.rows)


def test_bv_decay_shape():
    pairs = bv_decay(all_primes_set(), [1000, 10000], 6)
    assert [x for x, _ in pairs] == [1000, 10000]
    assert all(v >= 0.0 for _, v in pairs)
