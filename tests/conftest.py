import re

import pytest

from unicusp import curves

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion."""
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            status = "PASS" if outcome == "passed" else "FAIL"
            seen[num] = f"criterion {num:2d} {status}  {m.group(2).replace('_', ' ')}"
    if seen:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(seen):
            terminalreporter.write_line(seen[num])


@pytest.fixture
def cut_eliminants(monkeypatch):
    """Checks every resultant that the singular search forms with a known
    factor z**k, k > 0, against the same pair's resultant formed without
    it: `curves._eliminant` forms both the exact ones and the certificate's
    images modulo one prime, and each is checked in its own mode.  A pair
    with a member free of y forms no resultant and takes no cut, as that
    member stands in for its eliminant.  Collects those cuts k in the list
    it returns."""
    seen = []
    real = curves.form_resultant_int

    def checked(a, b, v, prime, cut=0):
        got = real(a, b, v, prime, cut)
        if cut:
            assert got == real(a, b, v, prime), (str(a), str(b), prime, cut)
            seen.append(cut)
        return got

    monkeypatch.setattr(curves, "form_resultant_int", checked)
    return seen
