"""Full acceptance gate: every criterion at its stated tolerance.

The full suite runs once per session (the torus runs are shared inside it);
each test asserts one criterion and prints its pass/fail line (visible with
``pytest -s`` or on failure). Committed golden metrics pin the expected
values of the deterministic runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from incproc import acceptance

RUNTIME_LIMITS = {1: 1, 2: 5, 3: 30, 4: 30, 5: 10, 6: 2, 7: 10, 8: 5,
                  9: 120, 10: 120, 11: 120, 12: 180, 13: 5}

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_metrics.json"


@pytest.fixture(scope="module")
def full_report():
    return acceptance.verify_suite("full", echo=None)


def _result(report, number):
    return next(r for r in report.results if r.number == number)


@pytest.mark.parametrize("number", sorted(RUNTIME_LIMITS) + [14])
def test_criterion(full_report, number, capsys):
    res = _result(full_report, number)
    with capsys.disabled():
        print(res.line() if number > 1 else "\n" + res.line())
    assert res.passed, res.line()
    if number in RUNTIME_LIMITS:
        assert res.runtime_s < RUNTIME_LIMITS[number], (
            f"criterion {number} took {res.runtime_s:.1f}s")


def test_the_suite_times_each_criterion(full_report):
    # verify_suite keeps the one clock; a criterion called alone is not timed
    assert all(r.runtime_s > 0.0 for r in full_report.results)
    assert acceptance.criterion_1("full").runtime_s == 0.0


def test_every_criterion_reported(full_report):
    assert [r.number for r in full_report.results] == list(range(1, 15))
    assert full_report.all_passed


def test_metrics_match_committed_goldens(full_report):
    goldens = json.loads(GOLDEN_PATH.read_text())
    for res in full_report.results:
        expected = goldens.get(str(res.number), {})
        for key, spec in expected.items():
            got = res.metrics[key]
            if isinstance(spec["value"], str):
                assert got == spec["value"], (res.number, key, got)
                continue
            tol = spec["tol"]
            band = abs(spec["value"]) * tol if spec.get("rel") else tol
            assert abs(got - spec["value"]) <= band, (
                f"criterion {res.number} metric {key}: {got} vs "
                f"golden {spec['value']} (band {band})")


def test_torus_criteria_alone_match_the_suite(full_report):
    # criteria 11, 12 and 14 share their runs within a process; called one
    # by one in a fresh process, 14 first, they print the suite's metrics
    code = ("import json; from incproc import acceptance as a; print(json.dumps("
            "{r.number: r.metrics for r in (a.criterion_14('full'), "
            "a.criterion_11('full'), a.criterion_12('full'))}))")
    src = str(Path(acceptance.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    suite = {n: _result(full_report, n).metrics for n in (14, 11, 12)}
    assert json.loads(out) == json.loads(json.dumps(suite))


def test_quick_suite_is_fast_and_green(capsys):
    report = acceptance.verify_suite("quick", echo=None)
    with capsys.disabled():
        print(f"\nquick suite: {report.wall_s:.1f}s")
    assert report.all_passed
    assert report.wall_s < 120
