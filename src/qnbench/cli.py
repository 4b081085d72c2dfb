"""Benchmark command line: reproduce the rate experiments as CSV (and SVG).

Subcommands:

* ``factors``     -- contraction factors r_k, their fixed point, and the
                     geometric envelope, per iteration.
* ``population``  -- all four methods on one random pow-norm instance,
                     with the theoretical BFGS error overlay.
* ``empirical``   -- the four methods on synthetic GLM data, with
                     validation-based early-stopping flags.
* ``radius``      -- minimum-error sweep over sample sizes with the fitted
                     log-log slope (the empirical statistical radius).
* ``svg``         -- render columns of a CSV as a standalone line chart.
* ``selfcheck``   -- run the acceptance checks of ``qnbench.acceptance``
                     and print pass/fail.

Every CSV is written together with a ``<out>.manifest`` key=value file
recording the resolved parameters, so a run can be reproduced exactly.
Values resolve as flags > config file (``--config``, key=value lines) >
built-in defaults.  Exit codes: 0 success, 1 failed selfcheck, 2 usage
error, 3 I/O error, 4 assumption violation after retries.
"""

import argparse
import csv
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, rng
from .glmsim import (
    generate_dataset,
    early_stop_by_validation,
    high_snr_config,
    low_snr_config,
    run_glm_method,
    run_radius_sweep,
    split_train_validation,
)
from .objectives import AssumptionViolationError, random_pow_norm_objective
from .rates import contraction_gap_table, contraction_sequence
from .solvers import METHODS, STOPS_INTERRUPTED, SolverConfig, run_method
from .svg import line_chart

ENV_OUT_DIR = "QNBENCH_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ASSUMPTION = 4

# Named instance presets for the population benchmark: (m, d, q, gd step).
POPULATION_PRESETS = {
    "d10-q4": dict(m=100, d=10, q=4, step=1e-4),
    "d10-q10": dict(m=100, d=10, q=10, step=1e-8),
    "d1000-q4": dict(m=2000, d=1000, q=4, step=1e-12),
    "d1000-q10": dict(m=2000, d=1000, q=10, step=1e-15),
}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _cast(kind, text):
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "str":
        return text
    if kind == "bool":
        word = str(text).strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"cannot read {text!r} as a boolean")
    if kind == "ints":
        return [int(part) for part in str(text).split(",") if part.strip()]
    if kind == "strs":
        return [part.strip() for part in str(text).split(",") if part.strip()]
    raise ValueError(f"unknown parameter kind {kind!r}")


def _parse_config_file(path: Path, names):
    """key=value lines of ``path``; every key must be one of ``names``."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in names:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(args, spec):
    """Merge flag values, config-file values, and defaults, in that order."""
    file_values = {}
    if getattr(args, "config", None):
        names = [name for name, _kind, _default in spec]
        file_values = _parse_config_file(Path(args.config), names)
    resolved = {}
    for name, kind, default in spec:
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None:
            resolved[name] = flag
        elif name in file_values:
            resolved[name] = _cast(kind, file_values[name])
        else:
            resolved[name] = default
    return resolved


def _out_path(name: str) -> Path:
    path = Path(name)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_manifest(out: Path, command: str, params: dict, extras: dict | None = None):
    lines = [f"command={command}", f"tool_version={__version__}"]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(_fmt(v) for v in value)
        else:
            value = _fmt(value)
        lines.append(f"{key}={value}")
    for key, value in (extras or {}).items():
        lines.append(f"{key}={_fmt(value)}")
    lines.append(f"artifact={out}")
    manifest = Path(str(out) + ".manifest")
    manifest.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- factors

FACTORS_SPEC = [("q", "int", 4), ("k-max", "int", 40), ("out", "str", "factors.csv")]


def cmd_factors(params) -> int:
    out = _out_path(params["out"])
    rows = contraction_gap_table(params["q"], params["k-max"])
    _write_csv(out, ["k", "factor", "fixed_point", "abs_gap", "envelope"], rows)
    _write_manifest(out, "factors", params)
    return EXIT_OK


# ------------------------------------------------------------- population

POPULATION_SPEC = [
    ("preset", "str", ""),
    ("q", "int", None),
    ("d", "int", None),
    ("m", "int", None),
    ("step", "float", None),
    ("iters", "int", 1000),
    ("seed", "int", 1),
    ("out", "str", "population.csv"),
]

POPULATION_DEFAULTS = POPULATION_PRESETS["d10-q4"]


def cmd_population(params) -> int:
    preset = dict(POPULATION_DEFAULTS)
    if params["preset"]:
        if params["preset"] not in POPULATION_PRESETS:
            raise ValueError(
                f"unknown preset {params['preset']!r}; choose from "
                f"{sorted(POPULATION_PRESETS)}"
            )
        preset = dict(POPULATION_PRESETS[params["preset"]])
    for key in ("q", "d", "m", "step"):
        if params[key] is None:
            params[key] = preset[key]
    q, d, m = params["q"], params["d"], params["m"]
    if m < d:
        raise ValueError("need m >= d so the design can be full rank")
    seed, iters = params["seed"], params["iters"]

    # entries scaled by 1/sqrt(m) keep the Gram matrix near the identity,
    # so the preset GD step sizes behave; conditioning is reported in the
    # manifest rather than controlled
    objective = random_pow_norm_objective(d, m, q, seed, entry_std=1.0 / np.sqrt(m))
    theta0 = rng.normals(rng.derive_seed(seed, 2), d)
    # the optimum value is exactly zero, run_method's default f_star
    config = SolverConfig(step_size=params["step"], max_iters=iters)
    runs = {method: run_method(method, objective, theta0, config) for method in METHODS}

    rows = []
    for method, trace in runs.items():
        for k in range(len(trace)):
            rows.append(
                (method, k, trace.errors[k], trace.losses[k], trace.grad_norms[k])
            )
    # exact theoretical BFGS overlay: same starting error, factors r_k
    bfgs_trace = runs["bfgs"]
    factors = contraction_sequence(q, max(len(bfgs_trace) - 1, 1)).factors
    err = bfgs_trace.errors[0]
    loss0 = bfgs_trace.losses[0]
    grad0 = bfgs_trace.grad_norms[0]
    shrink = 1.0
    for k in range(len(bfgs_trace)):
        rows.append(
            ("bfgs-theory", k, err * shrink, loss0 * shrink ** q,
             grad0 * shrink ** (q - 1))
        )
        if k < len(factors):
            shrink *= factors[k]

    out = _out_path(params["out"])
    _write_csv(out, ["method", "k", "error_norm", "loss", "grad_norm"], rows)
    _write_manifest(
        out,
        "population",
        params,
        extras={"condition_number": objective.condition_number},
    )
    return EXIT_OK


# -------------------------------------------------------------- empirical

EMPIRICAL_SPEC = [
    ("regime", "str", "low-snr"),
    ("n", "int", 10_000),
    ("d", "int", 4),
    ("p", "int", 2),
    ("trials", "int", 5),
    ("seed", "int", 1),
    ("gd-step", "float", 0.1),
    ("iters", "int", 2000),
    ("out", "str", "empirical.csv"),
]


def _glm_config(regime, d, p, seed, cov="decaying"):
    if cov == "decaying":
        cov_arg = None  # per-axis variances (0.25)^k
    elif cov == "isotropic":
        cov_arg = np.ones(d)
    else:
        raise ValueError(f"unknown covariance {cov!r}; use decaying or isotropic")
    if regime == "low-snr":
        return low_snr_config(d, p, cov=cov_arg)
    if regime == "high-snr":
        return high_snr_config(d, p, seed, cov=cov_arg)
    raise ValueError(f"unknown regime {regime!r}; use low-snr or high-snr")


def cmd_empirical(params) -> int:
    if params["n"] < 10:
        raise ValueError("need n >= 10")
    if params["trials"] < 1:
        raise ValueError("need at least one trial")
    config = _glm_config(params["regime"], params["d"], params["p"], params["seed"])
    solver = SolverConfig(step_size=params["gd-step"], max_iters=params["iters"])
    rows = []
    interrupted = []  # runs ending in divergence or secant breakdown
    for trial in range(params["trials"]):
        data_seed = rng.derive_seed(params["seed"], trial)
        full = generate_dataset(config, params["n"], data_seed)
        train, val = split_train_validation(full)
        theta0 = config.theta_star + rng.unit_vector(
            config.d, rng.derive_seed(data_seed, 2)
        )
        for method in METHODS:
            trace = run_glm_method(
                method, train, theta0, solver, config.theta_star, config.noise_var
            )
            if trace.stop_reason in STOPS_INTERRUPTED:
                interrupted.append(f"{method}/{trial}:{trace.stop_reason}")
            choice = early_stop_by_validation(trace, val)
            for k in range(len(trace)):
                rows.append(
                    (
                        method,
                        trial,
                        k,
                        trace.errors[k],
                        trace.losses[k],
                        choice.losses[k],
                        1 if k == choice.index else 0,
                    )
                )
    out = _out_path(params["out"])
    _write_csv(
        out,
        ["method", "trial", "k", "error_to_theta_star", "train_loss", "val_loss",
         "early_stop_flag"],
        rows,
    )
    _write_manifest(
        out, "empirical", params,
        extras={"interrupted_runs": ";".join(interrupted) or "none"},
    )
    return EXIT_OK


# ----------------------------------------------------------------- radius

RADIUS_SPEC = [
    ("regime", "str", "low-snr"),
    ("n-grid", "ints", [100, 316, 1000, 3162, 10000]),
    ("trials", "int", 40),
    ("d", "int", 4),
    ("p", "int", 2),
    ("cov", "str", "decaying"),
    ("method", "str", "bfgs"),
    ("max-iters", "int", 100),
    ("init-radius", "float", 1.0),
    ("seed", "int", 1),
    ("out", "str", "radius.csv"),
]


def cmd_radius(params) -> int:
    if len(params["n-grid"]) < 3:
        raise ValueError("need at least three sample sizes")
    config = _glm_config(
        params["regime"], params["d"], params["p"], params["seed"],
        cov=params["cov"],
    )
    result = run_radius_sweep(
        config,
        SolverConfig(max_iters=params["max-iters"]),
        params["n-grid"],
        params["trials"],
        params["seed"],
        init_radius=params["init-radius"],
        method=params["method"],
    )
    rows = list(result.summaries())
    rows.append(("slope", result.fitted_slope, result.slope_stderr, "", ""))
    out = _out_path(params["out"])
    _write_csv(
        out,
        ["n", "median_min_error", "q25", "q75", "median_iters_to_min"],
        rows,
    )
    _write_manifest(
        out,
        "radius",
        params,
        extras={
            "fitted_slope": result.fitted_slope,
            "slope_stderr": result.slope_stderr,
            "flagged_trials": sum(1 for row in result.rows if row.flagged),
        },
    )
    return EXIT_OK


# -------------------------------------------------------------------- svg

SVG_SPEC = [
    ("in", "str", None),
    ("x-col", "str", None),
    ("y-cols", "strs", None),
    ("log-x", "bool", False),
    ("log-y", "bool", False),
    ("title", "str", ""),
    ("group-col", "str", ""),
    ("out", "str", "chart.svg"),
]


def _read_numeric_csv(path, x_col, y_cols, group_col=""):
    """Parse columns into {series name: [(x, y, row_number)]}; the row
    number (header = row 1) feeds error messages.  A row with an empty or
    non-finite cell in a plotted column is skipped."""
    series = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("row 1: empty CSV") from None
        index = {name: i for i, name in enumerate(header)}
        for col in [x_col, *y_cols] + ([group_col] if group_col else []):
            if col not in index:
                raise ValueError(f"row 1: no column named {col!r}")
        for rownum, record in enumerate(reader, 2):
            if len(record) != len(header):
                raise ValueError(
                    f"row {rownum}: expected {len(header)} cells, got {len(record)}"
                )
            group = record[index[group_col]] if group_col else ""
            values = {}
            for col in [x_col, *y_cols]:
                cell = record[index[col]]
                if cell == "":
                    break
                try:
                    values[col] = float(cell)
                except ValueError:
                    raise ValueError(
                        f"row {rownum}: cell {cell!r} in column {col!r} is not numeric"
                    ) from None
                if not math.isfinite(values[col]):
                    break
            else:
                for col in y_cols:
                    name = f"{group}:{col}" if group else col
                    series.setdefault(name, []).append(
                        (values[x_col], values[col], rownum)
                    )
    return series


def cmd_svg(params) -> int:
    for required in ("in", "x-col", "y-cols"):
        if not params[required]:
            raise ValueError(f"--{required} is required")
    series = _read_numeric_csv(
        params["in"], params["x-col"], params["y-cols"], params["group-col"]
    )
    document = line_chart(
        series,
        x_label=params["x-col"],
        y_label=", ".join(params["y-cols"]),
        log_x=params["log-x"],
        log_y=params["log-y"],
        title=params["title"] or None,
        source_comment=f"{params['in']}.manifest",
    )
    out = _out_path(params["out"])
    out.write_text(document)
    _write_manifest(out, "svg", params)
    return EXIT_OK


# -------------------------------------------------------------- selfcheck

def cmd_selfcheck(_params) -> int:
    from . import acceptance  # only this command needs it; keeps import time flat

    failures = 0
    for _number, name, fn in acceptance.CHECKS:
        try:
            ok = bool(fn())
        except Exception as err:  # a crashed check is a failed check
            ok = False
            name = f"{name} ({type(err).__name__}: {err})"
        print(f"{'PASS' if ok else 'FAIL'} — {name}")
        failures += 0 if ok else 1
    print(f"selfcheck: {failures} failure(s)")
    return EXIT_OK if failures == 0 else 1


# ------------------------------------------------------------------- main

def _add_spec_flags(parser, spec):
    for name, kind, _default in spec:
        if kind == "bool":
            parser.add_argument(f"--{name}", action="store_const", const=True)
            continue
        convert = functools.partial(_cast, kind)
        convert.__name__ = kind  # argparse reports "invalid int value: 'x'"
        parser.add_argument(f"--{name}", type=convert)


COMMANDS = {
    "factors": (FACTORS_SPEC, cmd_factors),
    "population": (POPULATION_SPEC, cmd_population),
    "empirical": (EMPIRICAL_SPEC, cmd_empirical),
    "radius": (RADIUS_SPEC, cmd_radius),
    "svg": (SVG_SPEC, cmd_svg),
    "selfcheck": ([], cmd_selfcheck),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnbench",
        description="Convergence-rate benchmarks for GD, Newton, and BFGS "
        "on flat objectives and GLM estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (spec, _fn) in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="key=value file supplying defaults")
        _add_spec_flags(cmd, spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec, fn = COMMANDS[args.command]
    try:
        params = _resolve(args, spec)
        return fn(params)
    except AssumptionViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
