"""Acceptance suite: one test per entry of ``qnbench.acceptance.CHECKS``.

The registry holds criteria 1-11 and 12 (dataset determinism), the checks
``qnbench selfcheck`` also runs.  Each test times its entry against its
bound with ``acceptance.run_check`` and prints the entry's
``acceptance.report_line``.  Run ``pytest tests/test_acceptance.py -v -s``
to see the lines.
"""

import math

import pytest

from qnbench import acceptance, solvers
from qnbench.solvers import run_bfgs


def _registry_test(number, title, seconds, check):
    def test():
        ok, elapsed = acceptance.run_check(check, seconds)
        print(acceptance.report_line(number, title, ok, elapsed))
        assert ok, f"criterion {number} failed: {title}"
    return test


# One named test per registry entry, e.g. test_criterion_1_fixed_point_table.
for _number, _title, _seconds, _check in acceptance.CHECKS:
    globals()[f"test_criterion_{_number}_{_check.__name__}"] = _registry_test(
        _number, _title, _seconds, _check
    )


def test_run_check_fails_a_true_check_over_its_bound():
    assert acceptance.run_check(lambda: True, 0.0)[0] is False


def test_run_check_never_fails_an_unbounded_check_on_time():
    assert acceptance.run_check(lambda: True, math.inf)[0] is True


def test_run_check_lets_an_exception_through():
    with pytest.raises(ZeroDivisionError):
        acceptance.run_check(lambda: 1 / 0, math.inf)


@pytest.mark.parametrize("kept", [0, 19])
def test_criterion_2_fails_when_the_replay_misses_updates(monkeypatch, kept):
    # criterion 2 checks the secant condition and symmetry by replaying the
    # updates a run records; a run that records fewer than it made fails
    def truncated(*args, **kwargs):
        trace = run_bfgs(*args, **kwargs)
        trace.step_info["curvature"] = trace.step_info["curvature"][:kept]
        return trace

    monkeypatch.setattr(solvers, "run_bfgs", truncated)
    assert not acceptance.bfgs_ratio_exactness()

