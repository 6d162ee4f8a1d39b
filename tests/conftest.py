import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

# criterion number -> AND of all test outcomes carrying that marker
_acceptance_results: dict[int, bool] = {}


@pytest.fixture(scope="session")
def split_table_1e7():
    """``split_range(2, 10^7 + 1)``: the (p, a, b) arrays of every split
    prime up to 10^7, built once and shared by the acceptance checks."""
    from heckegaps.gaussian_split import split_range

    return split_range(2, 10_000_001)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    n = marker.kwargs.get("criterion")
    if n is None and marker.args:
        n = marker.args[0]
    if n is None:
        return
    if report.when == "call":
        ok = report.outcome == "passed"
        _acceptance_results[n] = _acceptance_results.get(n, True) and ok
    elif report.when == "setup" and report.outcome == "failed":
        _acceptance_results[n] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[n] else "FAIL"
        terminalreporter.write_line(f"criterion {n}: {verdict}")
