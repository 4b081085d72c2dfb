"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-9, 11 and 12 (dataset determinism) live in
``qnbench.acceptance``, the registry ``qnbench selfcheck`` also runs; this
file makes a test of each entry, timed against its bound by
``acceptance.run_check``.  Criterion 10 is below, timed by the same
``run_check`` against its 120 s bound: it is slow.
Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from qnbench import acceptance, rng, solvers
from qnbench.glmsim import generate_dataset, low_snr_config, run_glm_method
from qnbench.solvers import SolverConfig, run_bfgs


def show(number, text, ok, elapsed):
    print(f"criterion {number:2d} [{elapsed:6.2f}s] {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {number} failed: {text}"


def _registry_test(number, title, seconds, check):
    def test():
        show(number, title, *acceptance.run_check(check, seconds))
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


def test_criterion_10_iteration_contrast():
    medians = {}

    def contrast():
        config = low_snr_config(1, 2)
        steps = [10.0 ** -k for k in range(1, 7)]
        start = np.array([1.0])
        bfgs_iters, gd_iters = [], []
        for s in range(11):
            loss = generate_dataset(config, 10_000, rng.derive_seed(900, s))
            trace = run_glm_method("bfgs", loss, start, SolverConfig(max_iters=200), 0.0)
            threshold = 1.5 * trace.min_error
            bfgs_iters.append(int(np.argmax(trace.errors <= threshold)))
            best = None
            for step in steps:
                gd = run_glm_method(
                    "gd-constant", loss, start,
                    SolverConfig(step_size=step, max_iters=10_000), 0.0,
                )
                hits = np.nonzero(gd.errors <= threshold)[0]
                k = int(hits[0]) if hits.size else 10_001
                best = k if best is None or k < best else best
            gd_iters.append(best)
        medians["bfgs"] = med_bfgs = float(np.median(bfgs_iters))
        medians["gd"] = med_gd = float(np.median(gd_iters))
        return med_bfgs <= 50 and med_gd >= 10 * med_bfgs

    ok, elapsed = acceptance.run_check(contrast, 120.0)
    show(10, f"median iterations to 1.5x the BFGS floor: bfgs {medians['bfgs']:.0f} "
             f"(<=50), tuned constant-step gd {medians['gd']:.0f} (>=10x)", ok, elapsed)
