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
    every split below hi, then the rows with p >= lo."""
    from heckegaps.gaussian_split import SplitTable, theta_of

    try:
        tab = SplitTable.build(hi)
    except ValueError:
        return 1, ""
    sel = tab.p >= lo
    p, a, b = tab.p[sel], tab.a[sel], tab.b[sel]
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


def test_equidist_curve_traces_each_prime_once(capsys, monkeypatch):
    # a CM curve: the closed form counts every prime, the naive count none
    calls = _count_calls(monkeypatch, "_count_affine_charsum")
    naive = _count_calls(monkeypatch, "_count_affine_naive")
    code, out, _ = run_cli(capsys, "equidist", "--set", "curve", "--curve",
                           "1,1,1,3,3", "--x", "2000", "--format", "json")
    assert code == 0
    n = json.loads(out)["n"]
    assert n > 0
    assert len(calls) == len(set(calls)) == n
    assert naive == []


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
    assert lines[-1].startswith("# aggregate")


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
])
def test_bad_parameters_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


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
