"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer

run.import_program()

from qnbench.objectives import EmpiricalGlmLoss, PowNormObjective  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bindings():
    """Every value bound in a qnbench module or in a class with wrapped methods."""
    found = {}
    for module in tracer.package_modules():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
    for cls in (PowNormObjective, EmpiricalGlmLoss):
        for name, value in vars(cls).items():
            found[(cls.__qualname__, name)] = value
    return found


def tiny(name, trace):
    return run.measure(name, 11, 0.0, trace, run.WORKLOADS[name].tiny_args)


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def traced(request):
    before = bindings()
    return before, tiny(request.param, True)


def test_wrapped_functions_are_restored(traced):
    before, _result = traced
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_self_times_sum_to_traced_wall(traced):
    _before, result = traced
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # one traced pass at this size, so every metric comes from the same pass
    assert sum(pass_["traced"] for pass_ in result["passes"]) == 1
    self_total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.traced_wall_s"], rel=1e-2)
    roots = {result["spans"]["names"][span[0]] for span in result["spans"]["spans"] if span[3] < 0}
    assert roots == {"cli.main"}


def test_tracing_changes_no_digest(traced):
    _before, result = traced
    assert result["correct"] and result["failed"] == 0
    assert {pass_["traced"] for pass_ in result["passes"]} == {False, True}
    digests = [pass_["digests"] for pass_ in result["passes"]]
    assert digests[0] and all(one == digests[0] for one in digests)


def assert_declared(metrics, kind):
    assert all(METRIC_NAME.fullmatch(name) for name in metrics)
    assert [(name, metric["unit"]) for name, metric in metrics.items()] == [
        (metric["name"], metric["unit"]) for metric in DECLARED[kind]
    ]


def test_per_layer_metrics_match_the_declaration(traced):
    _before, result = traced
    assert_declared(result["metrics"], "per_layer")


def test_end_to_end_metrics_match_the_declaration():
    result = tiny("glm-radius", False)
    assert result["correct"]
    assert_declared(result["metrics"], "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert list(run.WORKLOADS) == [workload["name"] for workload in DECLARED["workloads"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "glm-radius", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_segment_estimates_time_each_segment_over_the_passes_that_have_it():
    full = [run.Pass(seed=1, traced=False, segments={(0, 0): a, (0, 1): b, (0, "end"): c})
            for a, b, c in ((1.0, 2.0, 0.5), (3.0, 2.0, 0.5))]
    short = run.Pass(seed=2, traced=False, segments={(0, 0): 2.0, (0, "end"): 1.5})
    assert run.segment_estimates(full, min) == [3.5, 3.5]
    assert run.segment_estimates([*full, short], min) == [3.5, 3.5, 1.5]
    assert run.segment_estimates(full, run.upper_quartile) == [5.0, 5.0]
    assert run.segment_estimates([*full, short], run.upper_quartile) == [5.5, 5.5, 3.5]
