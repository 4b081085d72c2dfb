#!/usr/bin/env python3
"""Benchmark of the qnbench command line: end-to-end or per-layer metrics.

Run from the root of a checkout.  One workload, as listed in BENCHMARK.json:

    python3 bench/run.py --workload glm-radius --seed 11 --seconds 34 --trace 0

All three workloads, each in a process of its own:

    python3 bench/run.py --seed 11

A pass calls ``qnbench.cli.main`` in-process once for each CLI call of the
workload, with ``--seed`` passed through and ``QNBENCH_OUT_DIR`` set to a
fresh directory under ``.bench_tmp/``.  Passes repeat until ``--seconds``
are used; untraced passes of a workload whose cost depends on its seed run
at ``seed + 1000 * i`` (see ``Workload.vary_seed``).  Every pass checks its
outputs and hashes its CSVs and manifests; a later pass at the same seed
must reproduce the first one's digests and exact counts.  One operation is
one CLI call together with its checks.

``--trace 0`` reports the end-to-end metrics of at least two untraced
passes, and the median import time of ``qnbench.cli`` in fresh
interpreters.  Each untraced pass is cut into segments at the entries of
its workload's markers, and its wall time is estimated segment by segment
(see ``segment_estimates``); the figures are those of the pass with the
most segments.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics from the traced ones: each function in
``SPAN_TARGETS`` is wrapped from outside (see ``tracer.py``).  Both modes
hook the ``run_*`` solvers to take exact step and stop counts from the
traces they return; the hook reads no clock.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results,
with machine block, digests and check details, go to ``.bench_results/``,
and a traced run also writes its spans there.
"""

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

from tracer import (
    Patches,
    SpanRecorder,
    entry_hook,
    layer_stats,
    percentile_us,
    result_hook,
    spans_document,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".bench_tmp"
RESULTS_DIR = ROOT / ".bench_results"
ENV_OUT_DIR = "QNBENCH_OUT_DIR"

MIN_UNTRACED_PASSES = 2
SETUP_IMPORTS = 5
SEED_STRIDE = 1000
FLOOR_SHARE = 1e-10  # ratio checks stop once the error falls below this share of its start
RATIO_TOLERANCE = 1e-6

# Every function timed by the traced run; the † functions of the per-step
# work also get per-call percentiles.
SPAN_TARGETS = (
    "objectives.random_pow_norm_objective",
    "objectives.PowNormObjective.value_and_gradient",
    "objectives.PowNormObjective.hessian_inverse",
    "objectives.EmpiricalGlmLoss.value_and_gradient",
    "objectives.EmpiricalGlmLoss.value",
    "objectives.EmpiricalGlmLoss.hessian",
    "solvers.run_gd_constant",
    "solvers.run_gd_polyak",
    "solvers.run_newton",
    "solvers.run_bfgs",
    "solvers.run_scalar_bfgs",
    "solvers.bfgs_update",
    "solvers.initial_inverse_hessian",
    "glmsim.generate_dataset",
    "glmsim.split_train_validation",
    "glmsim.early_stop_by_validation",
    "glmsim.run_glm_method",
    "glmsim.run_radius_sweep",
    "rng.normals",
    "rng.unit_vector",
    "rates.contraction_sequence",
    "cli.main",
)
PER_STEP = (
    "objectives.PowNormObjective.value_and_gradient",
    "objectives.PowNormObjective.hessian_inverse",
    "objectives.EmpiricalGlmLoss.value_and_gradient",
    "objectives.EmpiricalGlmLoss.value",
    "objectives.EmpiricalGlmLoss.hessian",
    "solvers.bfgs_update",
)
RUN_TARGETS = {
    "solvers.run_gd_constant": "gd-constant",
    "solvers.run_gd_polyak": "gd-polyak",
    "solvers.run_newton": "newton",
    "solvers.run_bfgs": "bfgs",
    "solvers.run_scalar_bfgs": "scalar-bfgs",
}
STOP_REASONS = ("grad-tol", "max-iters", "diverged", "secant-breakdown")
# validation losses are evaluated by early stopping and by the CSV writer in cli
VALIDATION_CALLERS = ("glmsim.early_stop_by_validation", "cli.main")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MiB"}


def per_layer_units():
    units = {}
    for target in SPAN_TARGETS:
        units[f"{target}.calls"] = "count"
        units[f"{target}.self_s"] = "s"
    for target in PER_STEP:
        units[f"{target}.p50_us"] = "us"
        units[f"{target}.p99_us"] = "us"
    for method in RUN_TARGETS.values():
        units[f"solvers.{method}.iters"] = "count"
        units[f"solvers.{method}.floor_iters"] = "count"
    units["solvers.floor_ratio"] = "ratio"
    for reason in (*STOP_REASONS, "other"):
        units[f"solvers.stop.{reason}"] = "count"
    units["glmsim.val_evals_per_iterate"] = "ratio"
    units["cli.csv_rows"] = "count"
    units["cli.csv_bytes"] = "bytes"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ------------------------------------------------------------ output checks

def read_manifest(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def worst_ratio_deviation(errors, expected):
    """Largest |e[k+1]/e[k] - expected[k]| / expected[k] while e[k+1] is above
    FLOOR_SHARE of e[0]; the checked step count comes second."""
    worst, checked = 0.0, 0
    for k in range(len(errors) - 1):
        if errors[k + 1] <= FLOOR_SHARE * errors[0]:
            break
        ratio = errors[k + 1] / errors[k]
        worst = max(worst, abs(ratio - expected[k]) / expected[k])
        checked += 1
    return worst, checked


def check_population(out_dir, out):
    """Unit-step BFGS and Newton follow their exact contraction factors."""
    from qnbench import rates

    q = int(read_manifest(out_dir / f"{out}.manifest")["q"])
    errors = defaultdict(list)
    with open(out_dir / out, newline="") as handle:
        for row in csv.DictReader(handle):
            errors[row["method"]].append(float(row["error_norm"]))
    missing = {"gd-constant", "gd-polyak", "newton", "bfgs", "bfgs-theory"} - set(errors)
    if missing:
        return False, f"no rows for {sorted(missing)}"
    if len(errors["bfgs-theory"]) != len(errors["bfgs"]):
        return False, "bfgs-theory rows do not match the bfgs rows"
    bfgs = errors["bfgs"]
    factors = rates.contraction_sequence(q, max(len(bfgs) - 1, 1)).factors
    bfgs_dev, bfgs_n = worst_ratio_deviation(bfgs, factors)
    newton = errors["newton"]
    newton_dev, newton_n = worst_ratio_deviation(newton, [(q - 2) / (q - 1)] * len(newton))
    ok = bfgs_dev <= RATIO_TOLERANCE and newton_dev <= RATIO_TOLERANCE and bfgs_n and newton_n
    detail = (
        f"worst relative ratio deviation: bfgs {bfgs_dev:.2e} over {bfgs_n} steps, "
        f"newton {newton_dev:.2e} over {newton_n} steps (limit {RATIO_TOLERANCE:g})"
    )
    return bool(ok), detail


EMPIRICAL_METHODS = ("gd-constant", "gd-polyak", "newton", "bfgs")


def check_empirical(out_dir, out):
    """Every (method, trial) pair is present with exactly one early-stop row."""
    trials = int(read_manifest(out_dir / f"{out}.manifest")["trials"])
    flags = Counter()
    with open(out_dir / out, newline="") as handle:
        for row in csv.DictReader(handle):
            flags[(row["method"], int(row["trial"]))] += int(row["early_stop_flag"])
    expected = {(method, trial) for method in EMPIRICAL_METHODS for trial in range(trials)}
    if set(flags) != expected:
        return False, f"(method, trial) pairs differ from {len(expected)} expected"
    bad = sorted(pair for pair, count in flags.items() if count != 1)
    if bad:
        return False, f"pairs without exactly one early_stop_flag=1 row: {bad}"
    return True, f"{len(expected)} (method, trial) pairs, one early-stop row each"


def check_radius(out_dir, out, target, tolerance):
    """The fitted log-log slope lies in the band of acceptance criterion 9."""
    slope = float(read_manifest(out_dir / f"{out}.manifest")["fitted_slope"])
    ok = abs(slope - target) <= tolerance
    return ok, f"fitted slope {slope:.3f}, band {target:g}±{tolerance:g}"


# ---------------------------------------------------------------- workloads

def upper_quartile(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


@dataclass(frozen=True)
class Call:
    argv: tuple
    out: str
    check: object


@dataclass(frozen=True)
class Workload:
    why: str
    calls: tuple
    tiny_args: tuple  # appended to every call to shrink it for the self-test
    # True: untraced pass i runs at seed + SEED_STRIDE * i, because one
    # instance's cost depends on its seed.  False: every pass repeats one
    # instance.
    vary_seed: bool
    # Functions whose entry splits an untraced pass into timed segments, one
    # per step or per solver run (see ``segment_estimates``).
    markers: tuple
    # How one segment's times over the passes become its estimate: chosen for
    # the way this workload's segments are slowed on a shared 2-vCPU host.
    segment_stat: object


WORKLOADS = {
    "flat-d1000": Workload(
        "dense O(d^2) steps at d=1000 (bfgs_update, closed-form inverse Hessian, "
        "pow-norm gradient); many steps are spent at the rounding floor",
        (Call(("population", "--preset", "d1000-q4"), "population.csv", check_population),),
        ("--d", "10", "--m", "100", "--step", "1e-4", "--iters", "300"),
        # at about 1 seed in 10 BFGS breaks down early at the floor, which
        # halves the cost of the instance
        vary_seed=True,
        markers=("objectives.PowNormObjective.value_and_gradient",),
        # Its dense steps run BLAS on two threads, and a step stalls for as
        # long as the host holds one of the two vCPUs; the stalls hit a few
        # random steps of each pass, and the fastest run of a step has none.
        segment_stat=min,
    ),
    "glm-empirical": Workload(
        "few long GLM runs at n=10,000: O(nd) value, gradient and Hessian per step, "
        "validation loss twice per iterate, a 26k-row CSV",
        (Call(("empirical",), "empirical.csv", check_empirical),),
        ("--n", "400", "--trials", "2", "--iters", "100"),
        # Which of the five trials of a method stop at the gradient tolerance
        # differs from seed to seed, and with it up to a quarter of the steps.
        # Instances mixed in one run would leave no segment repeated, and so
        # nothing to filter the host's speed with.
        vary_seed=False,
        markers=("glmsim.run_glm_method", "glmsim.early_stop_by_validation"),
        segment_stat=upper_quartile,  # as glm-radius
    ),
    "glm-radius": Workload(
        "1,000 short BFGS runs on fresh datasets, n=100..10,000: per-dataset set-up "
        "and small-matrix overhead cost as much as evaluation",
        (
            # At the default 40 trials the low-SNR slope leaves its band at
            # about 3% of seeds (sd 0.025 over 64 seeds); 160 trials halve
            # its spread.
            Call(
                ("radius", "--regime", "low-snr", "--init-radius", "2", "--trials", "160"),
                "radius-low.csv",
                partial(check_radius, target=-0.25, tolerance=0.08),
            ),
            Call(
                ("radius", "--regime", "high-snr", "--cov", "isotropic", "--init-radius", "1"),
                "radius-high.csv",
                partial(check_radius, target=-0.5, tolerance=0.1),
            ),
        ),
        ("--n-grid", "100,1000,10000", "--trials", "8"),
        vary_seed=False,
        markers=("glmsim.generate_dataset",),
        # Its small-matrix steps stay on one thread, whose speed drifts over
        # minutes: at times identical work runs at full speed or about 1.7
        # times slower, switching every few seconds, at times it runs slower
        # nearly all along.  A mean follows the share of slow time in the run,
        # and the fastest run follows rare fast moments; the upper quartile is
        # the time in the slow state, which changes least from run to run.
        segment_stat=upper_quartile,
    ),
}


# ------------------------------------------------------------------ passes

def run_summary(trace):
    """Exact counts of one solver run: steps, index of the minimum error, stop."""
    return len(trace.errors) - 1, trace.iters_to_min, trace.stop_reason


def sha256_of(path, out_dir):
    data = path.read_bytes()
    if path.suffix == ".manifest":
        # the artifact= line names the output directory, which differs per pass
        data = data.replace(str(out_dir).encode(), f"${ENV_OUT_DIR}".encode())
    return hashlib.sha256(data).hexdigest()


@dataclass
class Pass:
    seed: int
    traced: bool
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)  # (call label, ok, detail)
    digests: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)  # (method, (iters, iters_to_min, stop))
    csv_rows: int = 0
    csv_bytes: int = 0
    spans: list = field(default_factory=list)
    # (call index, position) -> seconds: the stretches of an untraced pass
    # between its CLI calls' starts, the entries of its workload's markers,
    # and its calls' ends; position "end" is the last stretch of a call
    segments: dict = field(default_factory=dict)


def call_label(call):
    return " ".join(call.argv)


def run_pass(workload, seed, extra_args, traced):
    """One pass over the workload's CLI calls, then their checks and digests."""
    import qnbench.cli

    result = Pass(seed=seed, traced=traced)
    out_dir = Path(tempfile.mkdtemp(dir=TMP_DIR))
    previous_out_dir = os.environ.get(ENV_OUT_DIR)
    os.environ[ENV_OUT_DIR] = str(out_dir)
    patches = Patches()
    codes = []
    marks = []
    try:
        for target, method in RUN_TARGETS.items():
            patches.replace(target, result_hook(result.runs, method, run_summary))
        if traced:
            recorder = SpanRecorder()
            result.spans = recorder.spans
            for target in SPAN_TARGETS:
                patches.replace(target, recorder.wrapper(target))
        else:
            for target in workload.markers:
                patches.replace(target, entry_hook(marks))
        for index, call in enumerate(workload.calls):
            argv = [*call.argv, "--seed", str(seed), "--out", call.out, *extra_args]
            marks.clear()
            start = perf_counter()
            try:
                code = qnbench.cli.main(argv)
            except SystemExit as exc:  # argparse rejects unknown flags this way
                code = exc.code
            except Exception as exc:  # a crashed call is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            end = perf_counter()
            result.wall_s += end - start
            codes.append(code)
            bounds = [start, *marks, end]
            for position in range(len(bounds) - 1):
                key = (index, "end" if position == len(bounds) - 2 else position)
                result.segments[key] = bounds[position + 1] - bounds[position]
    finally:
        patches.restore()
        if previous_out_dir is None:
            del os.environ[ENV_OUT_DIR]
        else:
            os.environ[ENV_OUT_DIR] = previous_out_dir
    try:
        for call, code in zip(workload.calls, codes):
            if code != 0:
                detail = f"exit code {code}" if isinstance(code, int) else code
                result.outcomes.append((call_label(call), False, detail))
                continue
            try:
                ok, detail = call.check(out_dir, call.out)
            except (OSError, KeyError, ValueError) as err:
                ok, detail = False, f"unreadable output: {err!r}"
            result.outcomes.append((call_label(call), ok, detail))
        for path in sorted(out_dir.iterdir()):
            if path.suffix in (".csv", ".manifest"):
                result.digests[path.name] = sha256_of(path, out_dir)
            if path.suffix == ".csv":
                result.csv_bytes += path.stat().st_size
                with open(path, newline="") as handle:
                    result.csv_rows += sum(1 for _ in handle) - 1
    finally:
        shutil.rmtree(out_dir)
    return result


def mark_mismatches(passes, workload):
    """Fail every call whose outputs differ from those of the first pass at the
    same seed, and every call of a pass whose exact counts differ from it."""
    first = {}
    for one in passes:
        reference = first.setdefault(one.seed, one)
        if reference is one:
            continue
        same_counts = exact_counts(one) == exact_counts(reference)
        for index, call in enumerate(workload.calls):
            names = (call.out, f"{call.out}.manifest")
            if same_counts and all(one.digests.get(n) == reference.digests.get(n) for n in names):
                continue
            label, _ok, detail = one.outcomes[index]
            one.outcomes[index] = (
                label, False, f"outputs or counts differ from the first pass at seed {one.seed}; {detail}"
            )


# ------------------------------------------------------------------- set-up

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import qnbench.cli; print(time.perf_counter() - start); print(qnbench.cli.__file__)"
)


def import_seconds():
    """Time to import qnbench.cli (numpy, scipy and mpmath included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported qnbench from {where}")
    return float(seconds)


# ------------------------------------------------------------------ machine

def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def machine_block():
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
    }


# ------------------------------------------------------------------ metrics

def total_steps(one):
    return sum(iters for _method, (iters, _k, _stop) in one.runs)


def exact_counts(one):
    """Step and stop counts of one pass, from the traces its solver runs returned."""
    counts = {}
    for method in RUN_TARGETS.values():
        counts[f"solvers.{method}.iters"] = 0
        counts[f"solvers.{method}.floor_iters"] = 0
    for reason in (*STOP_REASONS, "other"):
        counts[f"solvers.stop.{reason}"] = 0
    for method, (iters, iters_to_min, stop) in one.runs:
        counts[f"solvers.{method}.iters"] += iters
        counts[f"solvers.{method}.floor_iters"] += iters - iters_to_min
        counts[f"solvers.stop.{stop if stop in STOP_REASONS else 'other'}"] += 1
    steps = total_steps(one)
    floor = sum(counts[f"solvers.{method}.floor_iters"] for method in RUN_TARGETS.values())
    counts["solvers.floor_ratio"] = floor / steps if steps else 0.0
    counts["cli.csv_rows"] = one.csv_rows
    counts["cli.csv_bytes"] = one.csv_bytes
    return counts


def segment_estimates(passes, stat):
    """Wall time of each pass, with each of its segments timed by ``stat`` of
    that segment's times over all passes that have it.

    A segment with the same key is the same stretch of work in every pass:
    the same CLI call, the same number of marker calls into it.  Across the
    seeds of flat-d1000 it is the same dense step at the same dimension, so
    an instance whose BFGS run breaks down early is estimated from its own
    steps.  When every pass has the same segments, every pass gets the same
    estimate.
    """
    samples = defaultdict(list)
    for one in passes:
        for key, seconds in one.segments.items():
            samples[key].append(seconds)
    typical = {key: stat(values) for key, values in samples.items()}
    return [sum(typical[key] for key in one.segments) for one in passes]


def end_to_end_metrics(untraced, setup, stat):
    """Wall time and step rate of the pass with the most segments: an instance
    that ran all of its steps, when any pass did."""
    walls = segment_estimates(untraced, stat)
    full = max(range(len(untraced)), key=lambda index: len(untraced[index].segments))
    return {
        "wall_s": walls[full],
        "setup_s": statistics.median(setup),
        "iters_per_s": total_steps(untraced[full]) / walls[full],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced, traced):
    per_pass = []
    for one in traced:
        stats = layer_stats(one.spans)
        values = {}
        for target in SPAN_TARGETS:
            entry = stats.get(target, {"calls": 0, "self_s": 0.0, "durations": []})
            values[f"{target}.calls"] = entry["calls"]
            values[f"{target}.self_s"] = entry["self_s"]
            if target in PER_STEP:
                values[f"{target}.p50_us"] = percentile_us(entry["durations"], 50)
                values[f"{target}.p99_us"] = percentile_us(entry["durations"], 99)
        per_pass.append(values)
    metrics = {
        name: value if name.endswith(".calls") else statistics.median(p[name] for p in per_pass)
        for name, value in per_pass[0].items()
    }
    metrics.update(exact_counts(traced[0]))
    iterates = total_steps(traced[0]) + len(traced[0].runs)
    spans = traced[0].spans
    val_evals = sum(
        1 for name, _start, _end, parent in spans
        if name == "objectives.EmpiricalGlmLoss.value" and parent >= 0
        and spans[parent][0] in VALIDATION_CALLERS
    )
    metrics["glmsim.val_evals_per_iterate"] = val_evals / iterates if iterates else 0.0
    metrics["trace.untraced_wall_s"] = statistics.median(one.wall_s for one in untraced)
    metrics["trace.traced_wall_s"] = statistics.median(one.wall_s for one in traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


# --------------------------------------------------------------------- run

def measure(name, seed, seconds, trace, extra_args=()):
    """Run one workload and return its full results (see the module docstring)."""
    workload = WORKLOADS[name]
    TMP_DIR.mkdir(exist_ok=True)
    load_start = os.getloadavg()[0]
    setup_imports = 0 if trace else SETUP_IMPORTS
    setup = []
    # A traced run starts with an untimed untraced pass, so that the first
    # traced pass is not compared with a cold one.
    warmup = 1 if trace else 0
    minimum = warmup + 2 if trace else MIN_UNTRACED_PASSES
    vary = workload.vary_seed and not trace
    start = perf_counter()
    passes = []
    while True:
        # fresh imports are spread over the run, as contention comes in phases
        if len(setup) < setup_imports:
            setup.append(import_seconds())
        index = len(passes)
        pass_seed = seed + SEED_STRIDE * index if vary else seed
        passes.append(run_pass(workload, pass_seed, extra_args, traced=trace and index % 2 == 1))
        elapsed = perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setup += [import_seconds() for _ in range(setup_imports - len(setup))]
    mark_mismatches(passes, workload)
    untraced = [one for one in passes[warmup:] if not one.traced]
    traced = [one for one in passes if one.traced]
    attempted = sum(len(one.outcomes) for one in passes)
    failed = sum(not ok for one in passes for _label, ok, _detail in one.outcomes)
    if trace:
        metrics, units = per_layer_metrics(untraced, traced), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(untraced, setup, workload.segment_stat), END_TO_END_UNITS
    first_failure = {}
    for index, one in enumerate(passes):
        for label, ok, detail in one.outcomes:
            if not ok:
                first_failure.setdefault(label, f"pass {index} (seed {one.seed}): {detail}")
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "extra_args": list(extra_args),
        "machine": {**machine_block(), "loadavg_1m_start": load_start,
                    "loadavg_1m_end": os.getloadavg()[0]},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "fail_ratio_base": f"{failed} failed of {attempted} operations "
                           "(one CLI call with its output checks each)",
        "checks": {label: first_failure.get(label, detail) for label, _ok, detail in passes[0].outcomes},
        "digests": passes[0].digests,
        "passes": [
            {"seed": one.seed, "warmup": index < warmup, "traced": one.traced, "wall_s": one.wall_s,
             "digests": one.digests}
            for index, one in enumerate(passes)
        ],
        "setup_import_s": setup,
        "exact_counts": exact_counts(passes[0]),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "spans": spans_document(traced[0].spans) if traced else None,
    }


def report(result):
    """Print the results for a reader, write them out, and print the JSON line."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {len(result['passes'])}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<52} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<52} {result['fail_ratio']:>16.6g} ({result['fail_ratio_base']})")
    for label, detail in result["checks"].items():
        print(f"  check [{label}]: {detail}")
    for file_name, digest in result["digests"].items():
        print(f"  sha256 {digest}  {file_name}")
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans")
    if spans is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(spans))
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"  results: {stem.relative_to(ROOT)}.json")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args):
    """Each workload in a process of its own, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import qnbench from this checkout's src/, never from anywhere else."""
    if not (SRC / "qnbench" / "cli.py").is_file():
        raise ImportError(f"no qnbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qnbench.cli

    if not Path(qnbench.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qnbench was imported from {qnbench.cli.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        import_program()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
