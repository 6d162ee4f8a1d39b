import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckegaps import diagonal_curve
from heckegaps.cli import main
from heckegaps.prime_engine import primes_in


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_primes_text(capsys):
    code, out, err = run_cli(capsys, "primes", "--hi", "30")
    assert code == 0
    assert out.splitlines() == ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29"]


def test_primes_count_json(capsys):
    code, out, _ = run_cli(capsys, "primes", "--hi", "1e6", "--count-only",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"lo": 2, "hi": 1000000, "count": 78498}


def test_primes_count_matches_window(capsys):
    lo, hi = "1e6", "1001000"
    code, out, _ = run_cli(capsys, "primes", "--lo", lo, "--hi", hi,
                           "--count-only", "--format", "json")
    assert code == 0
    count = json.loads(out)["count"]
    code, out, _ = run_cli(capsys, "primes", "--lo", lo, "--hi", hi,
                           "--format", "json")
    assert code == 0
    assert count == len(json.loads(out)["primes"]) > 0


def test_primes_count_never_lists_primes(capsys, monkeypatch):
    from heckegaps import cli, prime_engine

    def refuse(*args, **kwargs):
        raise AssertionError("--count-only built the prime array")

    monkeypatch.setattr(cli, "primes_in", refuse)
    monkeypatch.setattr(prime_engine, "primes_in", refuse)
    code, out, _ = run_cli(capsys, "primes", "--lo", "1e6", "--hi", "2e6",
                           "--count-only")
    assert (code, out) == (0, "count 70435\n")


def test_primes_count_reversed_window_exit_1(capsys):
    code, out, err = run_cli(capsys, "primes", "--lo", "100", "--hi", "50",
                             "--count-only")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_split_single_json(capsys):
    code, out, _ = run_cli(capsys, "split", "--p", "13", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["representable"] is True
    assert (got["a"], got["b"]) == (-3, 2)


def test_split_prime_above_2_64_is_exact(capsys):
    p = 18446744073709551557  # the largest prime below 2^64, p = 1 mod 4
    code, out, _ = run_cli(capsys, "split", "--p", str(p), "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["p"] == p
    a, b = got["a"], got["b"]
    assert a * a + b * b == p
    assert a % 4 == 1 and b > 0


def test_split_not_representable(capsys):
    code, out, _ = run_cli(capsys, "split", "--p", "7")
    assert code == 0
    assert "not representable" in out
    code, out, _ = run_cli(capsys, "split", "--p", "7", "--format", "json")
    assert json.loads(out) == {"p": 7, "representable": False}


def test_split_range_csv(capsys):
    code, out, _ = run_cli(capsys, "split", "--lo", "2", "--hi", "30",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,a,b,ratio,theta"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "13", "17", "29"]


def _split_window_by_table(lo, hi):
    """`split --lo --hi --format csv` as the whole-table path computes it:
    every split below hi, then the rows with p >= lo.  A window outside
    2 <= lo < hi is refused, as `primes` and `curve-trace` refuse it."""
    from heckegaps.gaussian_split import split_range, theta_of

    if not 2 <= lo < hi:
        return 1, ""
    try:
        p, a, b = split_range(2, hi)
    except ValueError:
        return 1, ""
    sel = p >= lo
    p, a, b = p[sel], a[sel], b[sel]
    ratio, theta = a / np.sqrt(p), theta_of(a, b)
    return 0, "p,a,b,ratio,theta\n" + "".join(
        f"{int(p[i])},{int(a[i])},{int(b[i])},{float(ratio[i])!r},{float(theta[i])!r}\n"
        for i in range(p.size))


@pytest.mark.parametrize("lo,hi", [
    (2, 1000), (-5, 40), (0, 2), (0, 1), (100, 50), (50, 50), (13, 14), (14, 17),
    (999_000, 1_001_000), (2_000_000, 2_020_000), (3_000_000_000, 2_500_000_000),
])
def test_split_window_matches_whole_table(capsys, lo, hi):
    code, out, _ = run_cli(capsys, "split", "--lo", str(lo), "--hi", str(hi),
                           "--format", "csv")
    assert (code, out) == _split_window_by_table(lo, hi)


def test_split_single_theta_matches_window(capsys):
    _, single, _ = run_cli(capsys, "split", "--p", "673", "--format", "csv")
    _, window, _ = run_cli(capsys, "split", "--lo", "673", "--hi", "674",
                           "--format", "csv")
    assert single == window  # theta included, to the last bit


def test_split_flag_conflict(capsys):
    code, _, err = run_cli(capsys, "split")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("cmd", [("split",), ("curve-trace", "--curve", "1,1,1,3,3")])
@pytest.mark.parametrize("flags", [
    (), ("--lo", "2"), ("--hi", "100"), ("--p", "13", "--lo", "2"),
    ("--p", "13", "--hi", "100"), ("--p", "13", "--lo", "2", "--hi", "100"),
])
def test_point_and_window_flags_exclude_each_other(capsys, cmd, flags):
    # split and curve-trace share one rule: --p alone, or --lo with --hi
    code, out, err = run_cli(capsys, *cmd, *flags)
    assert (code, out) == (1, "")
    assert err == "error: give either --p or both --lo and --hi\n"


def test_curve_trace_single(capsys):
    code, out, _ = run_cli(capsys, "curve-trace", "--curve", "1,1,1,3,3",
                           "--p", "7", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["g"] == 1
    assert got["rows"][0] == {"p": 7, "nd": 3, "affine": 6, "trace": -1,
                              "normalized": got["rows"][0]["normalized"]}


def test_curve_trace_range_with_cache(tmp_path, capsys):
    cache = tmp_path / "c.csv"
    args = ("curve-trace", "--curve", "1,1,1,3,3", "--lo", "2", "--hi", "100",
            "--cache", str(cache), "--format", "csv")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert cache.exists()
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_curve_trace_refuses_forged_cache(tmp_path, capsys):
    # N_d = 0 on the d = 1 curve y^2 = x^5 + 1 is a value trace never writes
    cache = tmp_path / "c.csv"
    cache.write_text("# curve 1,-1,-1,5,2\n11,0,7,5\n")
    code, out, err = run_cli(capsys, "curve-trace", "--curve", "1,-1,-1,5,2",
                             "--lo", "2", "--hi", "100", "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err == "error: line 2: inconsistent record for p=11\n"


def test_curve_trace_charsum_backend(capsys):
    code, out, _ = run_cli(capsys, "curve-trace", "--curve", "1,1,1,3,3",
                           "--p", "13", "--backend", "charsum", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("13,3,6,5")


def test_equidist_ks_json(capsys):
    code, out, _ = run_cli(capsys, "equidist", "--set", "peps", "--eps", "1.0",
                           "--x", "10000", "--stat", "ks", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert set(got) == {"n", "ks", "measure_kind"}
    assert got["measure_kind"] == "arcsine"
    assert 0.0 <= got["ks"] <= 1.0
    assert got["n"] == 609


def _count_calls(monkeypatch, name):
    """Record the p of every call to the counter ``diagonal_curve.<name>``."""
    calls = []
    count = getattr(diagonal_curve, name)

    def counting(curve, p):
        calls.append(p)
        return count(curve, p)

    monkeypatch.setattr(diagonal_curve, name, counting)
    return calls


@pytest.mark.parametrize("argv", [
    ("equidist", "--set", "curve", "--x", "1999"),
    ("gap-scan", "--set", "curve", "--x", "1999"),
    ("curve-trace", "--lo", "2", "--hi", "2000"),
    ("curve-trace", "--lo", "2", "--hi", "2000", "--cache", "{cache}"),
], ids=["equidist", "gap-scan", "curve-trace", "curve-trace-cache"])
def test_curve_ranges_trace_each_prime_once(tmp_path, capsys, monkeypatch, argv):
    # every range entry point sieves its window once, in diagonal_curve, and
    # counts each prime once there: on a CM curve the closed form counts
    # every prime and the naive count none
    calls = _count_calls(monkeypatch, "_count_affine_charsum")
    naive = _count_calls(monkeypatch, "_count_affine_naive")
    windows = []
    sieve = diagonal_curve.primes_in

    def sieving(lo, hi):
        windows.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(diagonal_curve, "primes_in", sieving)
    cmd, *rest = (str(tmp_path / "c.csv") if a == "{cache}" else a for a in argv)
    code, out, _ = run_cli(capsys, cmd, "--curve", "1,1,1,3,3", *rest)
    assert code == 0 and out
    assert windows == [(2, 2000)]
    assert calls == [p for p in primes_in(2, 2000).tolist() if p % 3 == 1]
    assert naive == []


def test_curve_range_proves_no_prime_again(capsys, monkeypatch):
    # the sieve proves the window's primes: tracing them runs no Miller-Rabin
    from heckegaps import gaussian_split

    calls = []
    for mod, name in ((diagonal_curve, "is_prime"), (gaussian_split, "_miller_rabin")):
        def counting(n, check=getattr(mod, name)):
            calls.append(n)
            return check(n)

        monkeypatch.setattr(mod, name, counting)
    code, out, _ = run_cli(capsys, "curve-trace", "--curve", "1,1,1,3,3",
                           "--lo", "2", "--hi", "2000")
    assert code == 0 and out
    assert calls == []


@pytest.mark.parametrize("row,err", [
    ("9,3,5,2", "9 is not prime"),
    ("11,0,5,7", "p=11 is not 1 mod M=3"),
], ids=["composite", "not-1-mod-M"])
def test_cache_cannot_vouch_for_untraced_primes(tmp_path, capsys, row, err):
    # the rows add up, but the trace is not defined at their p
    cache = tmp_path / "c.csv"
    cache.write_text(f"# curve 1,1,1,3,3\n{row}\n")
    p = row.split(",")[0]
    for window in (("--p", p), ("--lo", "2", "--hi", "20")):
        code, out, got = run_cli(capsys, "curve-trace", "--curve", "1,1,1,3,3",
                                 *window, "--cache", str(cache))
        assert (code, out, got) == (1, "", f"error: line 2: {err}\n")
    assert cache.read_text() == f"# curve 1,1,1,3,3\n{row}\n"


def test_naive_backend_stays_the_oracle(tmp_path, capsys, monkeypatch):
    # `--backend naive` on a CM curve convolves for every prime it computes
    calls = _count_calls(monkeypatch, "_count_affine_naive")
    cache = str(tmp_path / "c.csv")

    def run(hi):
        code, _, _ = run_cli(capsys, "curve-trace", "--curve", "1,1,1,3,3", "--lo", "2",
                             "--hi", hi, "--backend", "naive", "--cache", cache)
        assert code == 0

    def cubic_primes(lo, hi):
        return [int(p) for p in primes_in(lo, hi) if p % 3 == 1]

    run("400")
    assert calls == cubic_primes(2, 400)
    calls.clear()
    run("1000")  # the cached primes are read back, the rest counted once
    assert calls == cubic_primes(400, 1000)


CRITERION_4_CURVES = ["1,1,1,3,3", "1,1,1,4,2", "1,-1,-1,5,2", "1,2,1,3,3"]


@pytest.mark.parametrize("curve", CRITERION_4_CURVES)
def test_curve_trace_backends_byte_identical(capsys, curve):
    argv = ["curve-trace", "--curve", curve, "--lo", "2", "--hi", "30000"]
    outs = []
    for extra in ([], ["--backend", "naive"], ["--backend", "charsum"]):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] and outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("argv,M", [
    (("equidist", "--set", "curve", "--curve", "1,-1,-1,5,2", "--x", "2e4"), 10),
    (("gap-scan", "--set", "curve", "--curve", "1,-1,-1,5,2", "--x", "2e4"), 10),
    (("curve-trace", "--curve", "1,-1,-1,5,2", "--lo", "2", "--hi", "2e4"), 10),
    (("curve-trace", "--curve", "1,-1,-1,5,2", "--lo", "2", "--hi", "2e4",
      "--backend", "charsum"), 10),
    (("curve-trace", "--curve", "1,1,1,3,3", "--lo", "2", "--hi", "2e4",
      "--backend", "naive"), 3),
])
def test_table_counts_refused_before_the_first(capsys, monkeypatch, argv, M):
    # NAIVE_LIMIT lowered to 10^4 stands in for 10^7: a range that crosses it
    # on a Theta(p) counter fails before counting the primes below it
    monkeypatch.setattr(diagonal_curve, "NAIVE_LIMIT", 10**4)
    naive = _count_calls(monkeypatch, "_count_affine_naive")
    charsum = _count_calls(monkeypatch, "_count_affine_charsum")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, naive, charsum) == (1, "", [], [])
    first = next(p for p in primes_in(10**4, 2 * 10**4).tolist() if p % M == 1)
    assert err == f"error: p={first} beyond the O(p) counting limit 10000\n"


def test_closed_forms_and_cached_traces_pass_the_limit(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "c.csv")
    argv = ("curve-trace", "--curve", "1,-1,-1,5,2", "--lo", "2", "--hi", "2e4",
            "--cache", cache)
    code, counted, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(diagonal_curve, "NAIVE_LIMIT", 10**4)
    naive = _count_calls(monkeypatch, "_count_affine_naive")
    code, cached, _ = run_cli(capsys, *argv)  # every trace is read back
    assert (code, cached, naive) == (0, counted, [])
    for curve in ("1,1,1,3,3", "1,1,1,4,2"):  # O(log p) at any p
        code, _, _ = run_cli(capsys, "equidist", "--set", "curve", "--curve", curve,
                             "--x", "2e4")
        assert (code, naive) == (0, [])


@pytest.mark.parametrize("curve", ["1,1,1,3,3", "1,1,1,4,2"])
def test_curve_trace_beyond_naive_limit(capsys, curve):
    argv = ("curve-trace", "--curve", curve, "--p", "10000141")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("10000141,")
    code, out, err = run_cli(capsys, *argv, "--backend", "naive")
    assert (code, out) == (1, "")
    assert "beyond the O(p) counting limit" in err


def test_equidist_et(capsys):
    code, out, _ = run_cli(capsys, "equidist", "--set", "peps", "--eps", "1.0",
                           "--x", "2000", "--stat", "et", "--measure", "uniform",
                           "--interval", "0.2,0.6", "--T", "5", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["lhs"] <= got["rhs"]


def test_bv_check_csv(capsys):
    code, out, _ = run_cli(capsys, "bv-check", "--set", "primes", "--x", "2000",
                           "--Q", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,worst_a,worst_y,observed,expected,abs_err"
    assert lines[-1].startswith("# aggregate ")
    _, js, _ = run_cli(capsys, "bv-check", "--set", "primes", "--x", "2000",
                       "--Q", "6", "--format", "json")
    assert len(lines) == 2 + len(json.loads(js)["rows"]) == 2 + 6  # every q <= 6


def test_tuple_narrow(capsys):
    code, out, _ = run_cli(capsys, "tuple", "--k", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["offsets"] == [0, 2, 6]


def test_tuple_check(capsys):
    code, out, _ = run_cli(capsys, "tuple", "--check", "0,2,4", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["admissible"] is False
    assert got["witness"] == 3


def test_tuple_flag_conflict(capsys):
    code, _, err = run_cli(capsys, "tuple", "--k", "3", "--check", "0,2")
    assert code == 1
    assert "error:" in err


def test_sieve_opt_json(capsys):
    code, out, _ = run_cli(capsys, "sieve-opt", "--k", "5", "--degree", "2",
                           "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["k"] == 5
    assert got["basis_size"] == 4
    assert got["Mk_lower"] == pytest.approx(1.9905525591659496)
    assert all(set(row) == {"theta", "m"} for row in got["m_at_theta"])


def test_gap_scan_records(capsys):
    code, out, _ = run_cli(capsys, "gap-scan", "--set", "peps", "--eps", "0.95",
                           "--x", "100", "--records", "2", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["records"][0] == {"gap": 4, "p": 13, "q": 17}


def test_gap_scan_tuple(capsys):
    code, out, _ = run_cli(capsys, "gap-scan", "--set", "primes", "--x", "50",
                           "--tuple", "0,2", "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert sum(got["histogram"].values()) == 50


def _cell(v):
    return repr(v) if isinstance(v, float) else "" if v is None else str(v)


def _flat(header):
    """The one csv row a json object implies: its values in header order."""
    return header, lambda j: [[j[k] for k in header.split(",")]]


def _table(header, key):
    """The csv rows a json table implies: each row's values in header order."""
    return header, lambda j: [[r[k] for k in header.split(",")] for r in j[key]]


SPLIT_HEAD = "p,a,b,ratio,theta"
TRACE = ("p,nd,affine_count,trace,normalized", lambda j: [
    [r["p"], r["nd"], r["affine"], r["trace"], r["normalized"]] for r in j["rows"]])
TUPLE = ("k,diameter,admissible,witness,offsets", lambda j: [
    [j["k"], j["diameter"], j["admissible"], j["witness"],
     " ".join(map(str, j["offsets"]))]])
BV_HEAD = "q,worst_a,worst_y,observed,expected,abs_err"
BV = (BV_HEAD, lambda j: _table(BV_HEAD, "rows")[1](j)
      + [["# aggregate " + repr(j["aggregate"])]])  # the aggregate as a one-field row

# (argv, (csv header, the csv rows its json payload implies), text is the csv body)
WRITER_CASES = [
    (("primes", "--lo", "100", "--hi", "300"),
     ("p", lambda j: [[p] for p in j["primes"]]), True),
    (("primes", "--hi", "1e4", "--count-only"), _flat("lo,hi,count"), False),
    (("split", "--p", "13"), _flat(SPLIT_HEAD), False),
    (("split", "--p", "7"), (SPLIT_HEAD, lambda j: [[j["p"], None, None, None, None]]),
     False),
    (("split", "--lo", "2", "--hi", "300"), _table(SPLIT_HEAD, "rows"), True),
    (("curve-trace", "--curve", "1,1,1,3,3", "--lo", "2", "--hi", "300"), TRACE, True),
    (("curve-trace", "--curve", "1,-1,-1,5,2", "--p", "11"), TRACE, True),
    (("equidist", "--x", "3000"), _flat("n,ks,measure_kind"), False),
    (("equidist", "--set", "curve", "--curve", "1,1,1,4,2", "--x", "3000", "--stat",
      "et"), ("n,interval_lo,interval_hi,T,lhs,rhs", lambda j: [
          [j["n"], *j["interval"], j["T"], j["lhs"], j["rhs"]]]), False),
    (("bv-check", "--x", "3000", "--Q", "9"), BV, False),
    (("tuple", "--k", "4"), TUPLE, False),
    (("tuple", "--check", "0,2,4"), TUPLE, False),
    (("sieve-opt", "--k", "5", "--degree", "2"),
     _flat("k,degree,basis_size,Mk_lower,iterations"), False),
    (("gap-scan", "--x", "2000", "--records", "3"), _table("gap,p,q", "records"), False),
    (("gap-scan", "--set", "primes", "--x", "500", "--tuple", "0,2,6"),
     ("n,hits,offsets", lambda j: [[w["n"], len(w["hits"]), " ".join(map(str, w["hits"]))]
                                   for w in j["best_windows"]]), False),
]


@pytest.mark.parametrize("argv,csv_of,text_is_body", WRITER_CASES)
def test_one_writer_for_every_format(tmp_path, capsys, argv, csv_of, text_is_body):
    outs = {}
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        target = tmp_path / fmt
        code, shown, _ = run_cli(capsys, *argv, "--format", fmt, "--output", str(target))
        assert (code, shown) == (0, "")
        assert target.read_bytes() == out.encode()  # --output writes what stdout shows
        outs[fmt] = out
    payload = json.loads(outs["json"])
    assert outs["json"] == json.dumps(payload, sort_keys=True) + "\n"
    header, rows_of = csv_of
    lines = outs["csv"].splitlines()
    assert lines[0] == header
    # field for field the same values, floats by repr
    expected = [[_cell(v) for v in r] for r in rows_of(payload)]
    assert [ln.split(",") for ln in lines[1:]] == expected
    assert (outs["text"] == outs["csv"].split("\n", 1)[1]) == text_is_body


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "tuple", "--k", "4", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    code, out2, _ = run_cli(capsys, "tuple", "--k", "4", "--format", "json")
    assert target.read_text() == out2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equidist", "--x", "abc"])
    assert exc.value.code == 2
    for bad in ("abc", "0.5,x", ""):
        with pytest.raises(SystemExit) as exc:
            main(["sieve-opt", "--k", "5", "--thetas", bad])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # not finite, not integral, or too many digits to be worth building
    for bad in ("inf", "-inf", "nan", "2.9", "1e-3", "1e1000", "1e100000000"):
        with pytest.raises(SystemExit) as exc:
            main(["primes", "--hi=" + bad])
        assert exc.value.code == 2
    # curve_new's reason reaches the user
    capsys.readouterr()
    for spec, reason in (("0,1,1,3,3", "coefficients a, b, c must be nonzero"),
                         ("1,1,1,17,3", "alpha capped at 16")):
        with pytest.raises(SystemExit) as exc:
            main(["curve-trace", "--curve", spec, "--p", "7"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --curve: {reason}" in err


@pytest.mark.parametrize("argv,message", [
    (("equidist", "--set", "peps", "--eps", "5", "--x", "1000"), "eps must lie in (0, 1]"),
    (("equidist", "--set", "peps", "--eps", "0", "--x", "1000"), "eps must lie in (0, 1]"),
    (("equidist", "--set", "peps", "--eps", "nan", "--x", "1000"), "eps must lie in (0, 1]"),
    (("gap-scan", "--records", "-1", "--x", "200"), "n_records"),
    (("sieve-opt", "--k", "1000", "--degree", "4"), "beyond the float reduction"),
    (("curve-trace", "--curve", "1,-1,-1,5,2", "--p", "10000121", "--backend", "charsum"),
     "beyond the O(p) counting limit"),
    (("bv-check", "--x", "100", "--y-grid", ","), "y_grid is empty"),
    (("bv-check", "--set", "peps", "--x", "100", "--Q", "3", "--delta", "nan"),
     "delta must lie in (0, 1]"),
    (("bv-check", "--set", "peps", "--x", "100", "--Q", "3", "--delta", "-1"),
     "delta must lie in (0, 1]"),
    (("sieve-opt", "--k", "1e29", "--degree", "14"), "beyond the float reduction"),
    # a strong pseudoprime to every Miller-Rabin base, above 2^64
    (("split", "--p", "318665857834031151167461"), "exact Miller-Rabin range"),
    (("curve-trace", "--curve", "1,1,1,4,2", "--p", "318665857834031151167461"),
     "exact Miller-Rabin range"),
    # offsets whose differences would not fit in int64
    (("tuple", "--check", "0,1e19"), "offsets must lie strictly between"),
    (("gap-scan", "--set", "primes", "--x", "1000", "--tuple", "0,1e19"),
     "offsets must lie strictly between"),
    (("tuple", "--check=-9e18,9e18"), "offsets must lie strictly between"),
    (("sieve-opt", "--k", "5", "--degree", "1e29"), "degree must be <= 30"),
    (("bv-check", "--set", "primes", "--x", "100", "--Q", "0"), "need 1 <= Q <= x"),
    (("bv-check", "--set", "primes", "--x", "100", "--Q", "-3"), "need 1 <= Q <= x"),
    (("sieve-opt", "--k", "5", "--thetas", "1.5"), "theta must lie in (0, 1)"),
    # one window rule for every subcommand that takes --lo and --hi
    (("split", "--lo", "100", "--hi", "50"), "invalid range"),
    (("curve-trace", "--curve", "1,1,1,3,3", "--lo", "100", "--hi", "50"), "invalid range"),
    (("primes", "--lo", "100", "--hi", "50"), "invalid range"),
])
def test_bad_parameters_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["equidist", "gap-scan"])
def test_missing_curve_same_message(capsys, cmd):
    code, out, err = run_cli(capsys, cmd, "--set", "curve", "--x", "3000")
    assert (code, out) == (1, "")
    assert err == "error: --set curve needs --curve a,b,c,alpha,beta\n"


@pytest.mark.parametrize("argv", [
    ("curve-trace", "--curve", "1,99999999999999999999999,1,3,3", "--p", "7"),
    ("curve-trace", "--curve", "1,99999999999999999999999,1,3,3", "--lo", "2", "--hi", "60"),
    ("curve-trace", "--curve", "99999999999999999999999,1,1,3,3", "--lo", "2", "--hi", "60"),
    ("equidist", "--set", "curve", "--curve", "1,99999999999999999999999,1,3,3",
     "--x", "100"),
])
def test_huge_curve_coefficients(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


def test_bad_threads_rejected(capsys):
    code, _, err = run_cli(capsys, "primes", "--hi", "10", "--threads", "0")
    assert code == 2
    assert "threads" in err


def test_computation_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "bv-check", "--set", "primes", "--x", "100",
                           "--Q", "1000")
    assert code == 1
    assert err.startswith("error:")


_ONE_PROCESS = [
    ["primes", "--hi", "100", "--format", "csv"],
    ["split", "--lo", "2", "--hi", "200"],
    ["curve-trace", "--curve", "1,-1,-1,5,2", "--lo", "2", "--hi", "500",
     "--backend", "charsum", "--format", "json"],
    ["equidist", "--set", "curve", "--curve", "1,1,1,3,3", "--x", "2000"],
    ["equidist", "--x", "abc"],  # usage error part way: exit 2
    ["bv-check", "--set", "primes", "--x", "2000", "--Q", "5", "--format", "csv"],
    ["tuple", "--k", "5", "--format", "json"],
    ["tuple", "--check", "0,2,4"],
    ["sieve-opt", "--k", "5", "--degree", "2", "--thetas", "0.25,0.9"],
    ["sieve-opt", "--k", "5", "--degree", "2"],
    ["gap-scan", "--set", "peps", "--x", "300", "--records", "3", "--format", "json"],
    ["curve-trace", "--curve", "1,1,1,4,2", "--p", "13"],
]


def _main_outputs(fresh_parser):
    from heckegaps.cli import build_parser

    results = []
    for argv in _ONE_PROCESS:
        if fresh_parser:
            build_parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
        results.append((code, out.getvalue()))
    return results


def test_parser_built_once_parses_like_a_fresh_one():
    once = _main_outputs(fresh_parser=False)
    fresh = _main_outputs(fresh_parser=True)
    assert once == fresh
    assert [code for code, _ in once] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    with_thetas, without = once[8][1], once[9][1]
    assert with_thetas != without  # --thetas does not stick to the next call


def test_repeat_runs_identical(capsys):
    args = ("equidist", "--set", "peps", "--eps", "0.8", "--x", "5000",
            "--stat", "ks", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# argv fuzz: each flag draws from a few sane values and the malformed tokens
_MALFORMED = ["", ",", "nan", "inf", "-1", "0", "0.5", "1e400", "abc"]
_VALUES = {
    "--lo": ["2", "100", "9000"],
    "--hi": ["3", "1000", "1e4"],
    "--p": ["2", "7", "13", "101", "9973"],
    "--x": ["2", "100", "5000", "1e4"],
    "--k": ["1", "2", "6", "30"],
    "--degree": ["1", "2", "4"],
    "--Q": ["1", "5", "30"],
    "--T": ["1", "10", "30"],
    "--records": ["1", "5"],
    "--eps": ["0.1", "0.5", "1"],
    "--trace-eps": ["0.5", "1", "4"],
    "--delta": ["0.25", "1"],
    "--curve": ["1,1,1,3,3", "1,1,1,4,2", "1,-1,-1,5,2", "1,2,1,3,3", "1,1,1,2,2", "1,1,1"],
    "--y-grid": ["10,50", "2,100"],
    "--check": ["0,2", "0,2,4", "0,2,6"],
    "--tuple": ["0,2", "0,2,6"],
    "--thetas": ["0.5", "0.25,0.9"],
    "--interval": ["0,0.25", "0.5,0.1"],
    "--measure": ["arcsine", "cm", "uniform"],
    "--stat": ["ks", "et"],
    "--backend": ["naive", "charsum"],
    "--format": ["text", "csv", "json"],
    "--threads": ["1", "2"],
}
# subcommand -> (flags always given, flags maybe given)
_FLAGS = {
    "primes": (["--hi"], ["--lo", "--count-only"]),
    "split": ([], ["--p", "--lo", "--hi"]),
    "curve-trace": (["--curve"], ["--p", "--lo", "--hi", "--backend"]),
    "equidist": (["--x"], ["--set", "--eps", "--curve", "--measure", "--stat",
                           "--interval", "--T"]),
    "bv-check": (["--x"], ["--set", "--eps", "--Q", "--y-grid", "--delta"]),
    "tuple": ([], ["--k", "--check"]),
    "sieve-opt": (["--k"], ["--degree", "--thetas"]),
    "gap-scan": (["--x"], ["--set", "--eps", "--curve", "--trace-eps", "--tuple",
                           "--records"]),
}
_SETS = {"equidist": ["peps", "curve"], "bv-check": ["primes", "peps"],
         "gap-scan": ["primes", "peps", "curve"]}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[cmd]
    extra = draw(st.lists(st.sampled_from(optional + ["--format", "--threads"]),
                          unique=True, max_size=4))
    argv = [cmd]
    for flag in required + extra:
        if flag == "--count-only":
            argv.append(flag)
            continue
        sane = _SETS[cmd] if flag == "--set" else _VALUES[flag]
        malformed = draw(st.integers(0, 3)) == 0
        argv += [flag, draw(st.sampled_from(_MALFORMED if malformed else sane))]
    return argv


@settings(max_examples=400, derandomize=True)
@given(_argv())
@example(["bv-check", "--x", "100", "--y-grid", ","])
def test_fuzz_argv_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
