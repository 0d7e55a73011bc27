"""Shared fixtures (a seeded generator, a tiny completion instance), the test
order and the `protocol` marker.

The problem builders live in `trisplit.checks`."""
import numpy as np
import pytest

from trisplit import generate_instance
from trisplit.checks import SMALL_BENCH


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_instance():
    """12x9 rank-3 completion instance: its spectral prox takes the Gram path
    on a non-square matrix, at a size every solver runs in milliseconds."""
    return generate_instance(**SMALL_BENCH)


def pytest_collection_modifyitems(config, items):
    # Criteria 7-8 share the full 5-seed benchmark protocol, which takes under
    # 3 minutes on a 2-core machine. Mark them `protocol` (so `-m "not
    # protocol"` runs everything else) and run them after every other test so
    # the quick ones report first; the order within each group is kept.
    for item in items:
        if "benchmark_reports" in item.fixturenames:
            item.add_marker(pytest.mark.protocol)
    items.sort(key=lambda item: item.get_closest_marker("protocol") is not None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # The acceptance module may be imported under a path-dependent name, so
    # locate the copy that actually ran instead of importing a fresh one.
    import sys

    results = {}
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance":
            found = getattr(mod, "ACCEPTANCE_RESULTS", None)
            if found:
                results = found
                break
    if not results:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="=")
    for num in sorted(results):
        ok, detail = results[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} — {detail}")
