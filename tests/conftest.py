"""Shared fixtures: small random composite problems and a tiny completion instance."""
import numpy as np
import pytest

from trisplit import (
    CompositeProblem,
    QuadraticTerm,
    ScaledL1Term,
    SeparableMCPTerm,
    generate_instance,
)


def random_psd(rng, d, lmax):
    """Symmetric PSD matrix with largest eigenvalue exactly lmax."""
    q = rng.standard_normal((d, d))
    a = q.T @ q
    eigs = np.linalg.eigvalsh(a)
    return a * (lmax / eigs[-1])


def make_quadratic_problem(rng, d=8, l1=None, l2=None, f3="l1", f3_weight=0.3):
    """Two random quadratics plus a separable nonsmooth term, as a test triple."""
    l1 = l1 if l1 is not None else float(rng.uniform(0.5, 10.0))
    l2 = l2 if l2 is not None else float(rng.uniform(0.5, 10.0))
    f1 = QuadraticTerm(matrix=random_psd(rng, d, l1), center=rng.standard_normal(d))
    f2 = QuadraticTerm(matrix=random_psd(rng, d, l2), center=rng.standard_normal(d))
    if f3 == "l1":
        t3 = ScaledL1Term(weight=f3_weight)
    elif f3 == "mcp":
        t3 = SeparableMCPTerm(weight=f3_weight, tau=2.0)
    else:
        raise ValueError(f3)
    return CompositeProblem(f1=f1, f2=f2, f3=t3, shape=(d,))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_instance():
    """12x9 rank-3 completion instance: big enough to exercise the SVD path."""
    return generate_instance(12, 9, 3, 40, seed=7)


def pytest_collection_modifyitems(config, items):
    # Criteria 7-8 share the full 5-seed benchmark protocol, which takes about
    # 15 minutes on a 2-core machine. Run them after every other test so the
    # quick ones report first; the order within each group is kept.
    items.sort(key=lambda item: "benchmark_reports" in item.fixturenames)


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
