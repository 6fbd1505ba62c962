"""Acceptance gate: every documented desk-check criterion, run exactly and
reported one line per criterion.

Each test prints the criterion's pass/fail line before asserting, so a full
``pytest -v -s tests/test_acceptance.py`` run shows the complete scoreboard
even when a criterion fails.  Nothing here is approximate: all comparisons
inside the criteria are exact equality in the appropriate coefficient field.
"""

import subprocess
import sys

import pytest

from hlvir import selftest

# The number of cases each criterion checks.  Speed may never come from a
# smaller sweep, so a sweep can change size only with an edit here.
_SWEEP_SIZES = {1: 3420, 2: 109, 3: 108, 4: 51, 5: 468, 6: 405, 7: 18724,
                8: 154, 9: 496, 10: 82, 11: 491}


@pytest.mark.parametrize("row", selftest.CRITERIA,
                         ids=lambda row: f"criterion_{row.number}")
def test_criterion(row):
    result = selftest.run_criterion(row)
    print(result.line())
    assert result.cases == _SWEEP_SIZES[row.number], result.line()
    assert result.passed, result.line()


def test_criterion_12_full_suite_exits_clean():
    """The packaged selftest command must run the whole desk suite and exit 0
    within its time budget."""
    proc = subprocess.run(
        [sys.executable, "-m", "hlvir", "selftest", "--suite", "desk"],
        capture_output=True, text=True, timeout=900)
    print(proc.stdout.rstrip())
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode == 0, f"selftest exited {proc.returncode}: {tail}"
