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
import errno
import functools
import itertools
import math
import operator
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, rng
from .glmsim import (
    RADIUS_N_GRID,
    early_stop_by_validation,
    high_snr_config,
    low_snr_config,
    run_radius_sweep,
    run_trials,
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


def _one_line(what, text):
    """Reject a value with a line break: the manifest is one key=value line
    per value, so a break would forge lines of its own.  A break is any
    boundary ``str.splitlines`` splits at, CR and LF among them."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{what} must not contain a line break: {text!r}")


def _resolve(args, spec):
    """Merge flag values, config-file values, and defaults, in that order.

    Text values, and ``QNBENCH_OUT_DIR``, must not contain a line break,
    ``--out`` must not name a directory, and its directory must exist.
    """
    _one_line(ENV_OUT_DIR, os.environ.get(ENV_OUT_DIR, ""))
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
        if kind in ("str", "strs") and resolved[name] is not None:
            values = [resolved[name]] if kind == "str" else resolved[name]
            for value in values:
                _one_line(f"--{name}", value)
    if "out" in resolved:  # fail before any computation
        out = _out_path(resolved["out"])
        if out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
        if not out.parent.is_dir():
            code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(out.parent))
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


# cells that csv.reader would split, or read as the end of a row, unless quoted
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(cell: str) -> str:
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column):
    """A column's cells as CSV text: float arrays by ``repr`` (a round
    trip), integer arrays by ``str``, anything else cell by cell through
    ``_fmt``, quoted where needed."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(repr, column.tolist())
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(_quoted, map(_fmt, column))


def _write_csv(path: Path, header, blocks):
    """Write ``header`` then each block, a list of equal-length columns
    (one per header name), as rows.

    Every block is checked before the file is opened, so a ragged block
    leaves no file behind.
    """
    for number, block in enumerate(blocks):
        lengths = [len(column) for column in block]
        if len(block) != len(header) or len(set(lengths)) > 1:
            raise ValueError(
                f"CSV block {number}: columns of lengths {lengths} "
                f"for {len(header)} header names"
            )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(map(_quoted, header)) + "\n")
        for block in blocks:
            rows = list(map(",".join, zip(*map(_cells, block))))
            rows.append("")  # ends the last row
            handle.write("\n".join(rows))


def _manifest(out: Path, command: str, params: dict, extras: dict | None = None) -> str:
    lines = [f"command={command}", f"tool_version={__version__}"]
    # chained, not merged: a merge would drop a params line on a key collision
    for key, value in itertools.chain(params.items(), (extras or {}).items()):
        text = ",".join(map(_fmt, value)) if isinstance(value, list) else _fmt(value)
        lines.append(f"{key}={text}")
    lines.append(f"artifact={out}")
    return "\n".join(lines) + "\n"


def _publish(out: Path, write_artifact, manifest: str):
    """Write the artifact, by ``write_artifact(path)``, and ``manifest``
    under ``.tmp`` names beside ``out`` and ``<out>.manifest``; once both
    are written, rename the manifest into place, then the artifact.  On
    any failure, remove whatever this call created: its temporary files,
    and the manifest if it was already renamed."""
    final = [Path(f"{out}.manifest"), out]
    temporary = [Path(f"{path}.tmp") for path in final]
    created = []
    try:
        for path in temporary:
            open(path, "x").close()  # never a name this call did not create
            created.append(path)
        temporary[0].write_text(manifest)
        write_artifact(temporary[1])
        for source, target in zip(temporary, final):
            os.replace(source, target)
            created.append(target)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise


def _write_outputs(params, command, header, blocks, extras=None) -> int:
    """The one writer of every table command, called after its last run:
    the CSV at ``--out`` (resolved by ``_out_path``) and its manifest."""
    out = _out_path(params["out"])
    _publish(
        out, lambda path: _write_csv(path, header, blocks),
        _manifest(out, command, params, extras),
    )
    return EXIT_OK


# ---------------------------------------------------------------- factors

FACTORS_SPEC = [("q", "int", 4), ("k-max", "int", 40), ("out", "str", "factors.csv")]


def cmd_factors(params) -> int:
    rows = contraction_gap_table(params["q"], params["k-max"])
    return _write_outputs(
        params, "factors", ["k", "factor", "fixed_point", "abs_gap", "envelope"],
        [list(zip(*rows))],
    )


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


def _written_columns(trace):
    return trace.errors, trace.losses, trace.grad_norms


def cmd_population(params) -> int:
    preset = POPULATION_PRESETS.get(params["preset"] or "d10-q4")
    if preset is None:
        raise ValueError(
            f"unknown preset {params['preset']!r}; choose from "
            f"{sorted(POPULATION_PRESETS)}"
        )
    for key in ("q", "d", "m", "step"):
        if params[key] is None:
            params[key] = preset[key]
    q, d, m = params["q"], params["d"], params["m"]
    if not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m for a non-empty design that can be full rank")
    seed, iters = params["seed"], params["iters"]

    # entries scaled by 1/sqrt(m) keep the Gram matrix near the identity,
    # so the preset GD step sizes behave; conditioning is reported in the
    # manifest rather than controlled
    objective = random_pow_norm_objective(d, m, q, seed, entry_std=1.0 / np.sqrt(m))
    theta0 = rng.normals(rng.derive_seed(seed, 2), d)
    # the optimum value is exactly zero, run_method's default f_star
    config = SolverConfig(step_size=params["step"], max_iters=iters)
    # keep only the written columns, so each run's iterates are freed as it returns
    columns = {
        method: _written_columns(run_method(method, objective, theta0, config))
        for method in METHODS
    }
    # exact theoretical BFGS overlay: the error shrinks by 1, r_0, r_0 r_1, ...
    # from the BFGS run's first record, the loss by their q-th powers and
    # the gradient norm by their (q-1)-th
    n = len(columns["bfgs"][0])
    factors = contraction_sequence(q, n - 1).factors[: n - 1]
    shrinks = list(itertools.accumulate(factors, operator.mul, initial=1.0))
    columns["bfgs-theory"] = tuple(
        [column[0] * s ** power for s in shrinks]
        for column, power in zip(columns["bfgs"], (1, q, q - 1))
    )
    blocks = [
        [[method] * len(errors), np.arange(len(errors)), errors, losses, grad_norms]
        for method, (errors, losses, grad_norms) in columns.items()
    ]
    return _write_outputs(
        params, "population", ["method", "k", "error_norm", "loss", "grad_norm"], blocks,
        extras={"condition_number": objective.condition_number},
    )


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
    config = _glm_config(params["regime"], params["d"], params["p"], params["seed"])
    solver = SolverConfig(step_size=params["gd-step"], max_iters=params["iters"])
    plan = [(params["n"], rng.derive_seed(params["seed"], t)) for t in range(params["trials"])]
    blocks = []  # one per run: arrays, formatted only once the last run is done
    interrupted = []  # runs ending in divergence or secant breakdown
    runs = run_trials(config, solver, plan, METHODS, 1.0)
    for number, (_n, _seed, method, trace, val) in enumerate(runs):
        trial = number // len(METHODS)
        if trace.stop_reason in STOPS_INTERRUPTED:
            interrupted.append(f"{method}/{trial}:{trace.stop_reason}")
        choice = early_stop_by_validation(trace, val)
        n = len(trace)
        flags = np.zeros(n, dtype=int)
        flags[choice.index] = 1
        blocks.append(
            [[method] * n, np.full(n, trial), np.arange(n), trace.errors,
             trace.losses, choice.losses, flags]
        )
    return _write_outputs(
        params, "empirical",
        ["method", "trial", "k", "error_to_theta_star", "train_loss", "val_loss",
         "early_stop_flag"],
        blocks,
        extras={"interrupted_runs": ";".join(interrupted) or "none"},
    )


# ----------------------------------------------------------------- radius

RADIUS_SPEC = [
    ("regime", "str", "low-snr"),
    ("n-grid", "ints", RADIUS_N_GRID),
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
    footer = ["slope", result.fitted_slope, result.slope_stderr, "", ""]
    return _write_outputs(
        params, "radius", list(result.table),
        [list(result.table.values()), [[cell] for cell in footer]],
        extras={
            "fitted_slope": result.fitted_slope,
            "slope_stderr": result.slope_stderr,
            "flagged_trials": result.flagged_trials,
        },
    )


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
    non-finite cell in a plotted column is skipped, and a last row whose
    first cell is ``slope`` (the radius CSV's footer) ends the data."""
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
        records = list(enumerate(reader, 2))
        if records and records[-1][1][:1] == ["slope"]:
            records.pop()
        for rownum, record in records:
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
    _publish(out, lambda path: path.write_text(document), _manifest(out, "svg", params))
    return EXIT_OK


# -------------------------------------------------------------- selfcheck

def cmd_selfcheck(_params) -> int:
    from . import acceptance  # only this command needs it; keeps import time flat

    failures = 0
    for number, title, seconds, fn in acceptance.CHECKS:
        try:
            ok, outcome = acceptance.run_check(fn, seconds)
        except Exception as err:  # a crashed check is a failed check
            ok, outcome = False, err
        print(acceptance.report_line(number, title, ok, outcome))
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
