import pytest

_RESULTS: dict[str, tuple[str, bool]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(label): acceptance criterion reported as a pass/fail line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        _RESULTS[item.nodeid] = (marker.args[0], rep.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_RESULTS):
        label, ok = _RESULTS[nodeid]
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {label}")


@pytest.fixture
def fresh_subgroups():
    """No subgroups_of enumeration stored on the T, O and I representatives,
    before the test and after it (the enumeration is stored on its parent)."""
    from isolat.catalog import ICOSA, OCTA, TETRA, canonical_rep

    def drop():
        for t in (TETRA, OCTA, ICOSA):
            canonical_rep(t).__dict__.pop("_subgroups", None)

    drop()
    yield
    drop()
