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
def fresh_lattices():
    """No shared lattice, nor what is stored on one (the SO(3) lift's lifted
    lattice and witness tuple, the cli's text), carried into the test or out
    of it; nor a kept spec, which holds its base lattice."""
    from isolat import poset
    from isolat.cli import parse_spec

    poset._lattice.cache_clear()
    parse_spec.cache_clear()
    yield
    poset._lattice.cache_clear()
    parse_spec.cache_clear()


@pytest.fixture
def fresh_specs():
    """No spec text parsed by cli.parse_spec carried into the test or out of it."""
    from isolat.cli import parse_spec

    parse_spec.cache_clear()
    yield
    parse_spec.cache_clear()
