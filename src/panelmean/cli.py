"""Command-line surface: fit CSV datasets, run simulation studies, export
baseline curves.

Exit codes: 0 success, 2 input/validation problem, 3 estimation did not
converge, 4 simulation study aborted.  All artifacts are plain CSV/JSON,
deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .data import parse_panel_csv
from .errors import (
    ConvergenceError,
    InferenceError,
    NumericError,
    ParseError,
    StudyError,
    ValidationError,
)
from .estimator import CauseFit, FitConfig, fit
from .inference import _DEFAULT_BOOT_REPS, bootstrap_se, sandwich_se
from .isotonic import StepFunction
from .simulate import SimConfig, StudyResult, run_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_STUDY = 4

# Simulation config keys, in echo order.  Each sets the SimConfig field of
# the same name, except gap_min and gap_max: the two ends of gap_range.  A
# key the config leaves out takes SimConfig's default (seed: --seed).
_SIM_KEYS = ("n", "beta1", "beta2", "baseline1", "baseline2", "rho", "max_visits",
             "gap_min", "gap_max", "bernoulli_p", "normal_sd", "replications", "seed")
_LIST_KEYS = ("n", "beta1", "beta2")  # n: one study per listed sample size
_TEXT_KEYS = ("baseline1", "baseline2")


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_fit_report(cfg: argparse.Namespace, data_shape: tuple[int, int, int],
                      fits: list[CauseFit]) -> None:
    n, k, d = data_shape
    report: dict = {
        "command": cfg.command,
        "input": str(cfg.input),
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "max_iter": cfg.max_iter,
        "n": n,
        "k": k,
        "d": d,
        "converged": [cf.converged for cf in fits],
        "iterations": [cf.iterations for cf in fits],
        "errors": [cf.error for cf in fits],
    }
    for cf in fits:
        report[f"beta_cause{cf.cause}"] = [float(b) for b in cf.beta]
        report[f"loglik_trace_cause{cf.cause}"] = [float(v) for v in cf.loglik_trace]
    path = cfg.out / "fit_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_baseline_csv(path: Path, header: tuple[str, str], knots, values) -> None:
    lines = [",".join(header)]
    lines += ["%.6g,%.6g" % pair for pair in zip(knots.tolist(), values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _unconverged(fits: list[CauseFit]) -> str:
    """'cause <j>: <reason>' for each fit that failed or did not converge."""
    return "; ".join(f"cause {cf.cause}: {cf.error or 'not converged'}"
                     for cf in fits if not cf.converged)


def cmd_fit(cfg: argparse.Namespace) -> int:
    try:
        data = parse_panel_csv(cfg.input)
    except (ParseError, ValidationError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    cfg.out.mkdir(parents=True, exist_ok=True)
    fit_cfg = FitConfig(epsilon=cfg.epsilon, max_iter=cfg.max_iter)
    fits = fit(data, fit_cfg)
    _write_fit_report(cfg, (data.n, data.k, data.d), fits)
    for cf in fits:
        if cf.error is None:
            _write_baseline_csv(
                cfg.out / f"baseline_cause{cf.cause}.csv",
                ("knot", "value"),
                cf.baseline.knots,
                cf.baseline.values,
            )

    reasons = _unconverged(fits)
    if reasons:
        return _fail(f"fit did not converge ({reasons}); partial report written",
                     EXIT_CONVERGENCE)

    lines = ["cause,covariate,coefficient,se,p_value"]
    if data.d > 0:
        try:
            if cfg.inference == "bootstrap":
                results = bootstrap_se(data, fit_cfg, B=cfg.boot_reps, seed=cfg.seed)
            else:
                results = [sandwich_se(data, cf) for cf in fits]
        except (InferenceError, NumericError, ConvergenceError) as exc:
            return _fail(f"inference failed: {exc}; partial report written",
                         EXIT_CONVERGENCE)
        for cf, res in zip(fits, results):
            for l in range(data.d):
                lines.append(
                    f"{cf.cause},z{l + 1},{_fmt(cf.beta[l])},"
                    f"{_fmt(res.se[l])},{_fmt(res.wald_p[l])}"
                )
    (cfg.out / "coefficients.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    return EXIT_OK


def _number(text: str) -> int | float:
    """int for integral text (exact, even for large seeds), else float."""
    try:
        return int(text)
    except ValueError:
        x = float(text)
        return int(x) if x.is_integer() else x


def _parse_sim_config(path: Path, default_seed: int) -> list[SimConfig]:
    """Flat key=value simulation config; returns one SimConfig per n."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        raw[key.strip().lower()] = value.strip()

    unknown = set(raw) - set(_SIM_KEYS)
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")

    kwargs: dict = {"seed": default_seed}
    for key, text in raw.items():
        if key in _TEXT_KEYS:
            kwargs[key] = text
            continue
        try:
            values = [_number(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = []  # reported with the other malformed values
        if not values or (len(values) > 1 and key not in _LIST_KEYS):
            raise ParseError(f"{path}: bad {key} value {text!r}")
        kwargs[key] = values if key in _LIST_KEYS else values[0]

    defaults = {f.name: f.default for f in fields(SimConfig)}
    if "gap_min" in kwargs or "gap_max" in kwargs:
        low, high = defaults["gap_range"]
        kwargs["gap_range"] = (kwargs.pop("gap_min", low), kwargs.pop("gap_max", high))
    for name, default in defaults.items():
        if default is MISSING and name not in kwargs:
            raise ParseError(f"{path}: missing required key {name!r}")
    return [SimConfig(**{**kwargs, "n": n}) for n in kwargs["n"]]


def _echo_value(value) -> str:
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    return ",".join(map(_echo_value, value))


def _echo_config(cfg: SimConfig, n_values: list[int]) -> str:
    """Every config key with the value the study used, readable as a config."""
    values = dict(vars(cfg), n=n_values, gap_min=cfg.gap_range[0], gap_max=cfg.gap_range[1])
    return "".join(f"{key} = {_echo_value(values[key])}\n" for key in _SIM_KEYS)


def cmd_simulate(cfg: argparse.Namespace) -> int:
    try:
        sim_configs = _parse_sim_config(cfg.config, cfg.seed)
    except (ParseError, ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    cfg.out.mkdir(parents=True, exist_ok=True)
    fit_cfg = FitConfig(epsilon=cfg.epsilon, max_iter=cfg.max_iter)
    header = ["n", *StudyResult.TABLE_COLUMNS, "replications", "failures", "rho_clamps"]
    rows = []
    for sim_cfg in sim_configs:
        try:
            result = run_study(sim_cfg, fit_cfg)
        except StudyError as exc:
            return _fail(str(exc), EXIT_STUDY)
        rows.append(
            [str(sim_cfg.n)]
            + [_fmt(v) for v in result.table_row()]
            + [str(result.replications_used), str(result.failures), str(result.rho_clamps)]
        )

    lines = [",".join(header)] + [",".join(row) for row in rows]
    (cfg.out / "study.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (cfg.out / "config_echo.txt").write_text(
        _echo_config(sim_configs[0], [c.n for c in sim_configs]), encoding="utf-8"
    )
    return EXIT_OK


def _load_fitted_baselines(fit_dir: Path) -> list[tuple[int, StepFunction]]:
    """The baseline_cause<j>.csv files of a fit, by cause.  A malformed
    file raises ParseError naming it (and the line, where there is one)."""
    out = []
    for path in fit_dir.glob("baseline_cause*.csv"):
        cause = path.stem.removeprefix("baseline_cause")
        if not cause.isdecimal():
            raise ParseError(f"{path}: expected a file name baseline_cause<j>.csv")
        knots, values = [], []
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines[1:], start=2):
            t_text, _, v_text = line.partition(",")
            try:
                t, v = float(t_text), float(v_text)
            except ValueError:
                t = v = math.nan  # reported as not a finite number
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ParseError(f"{path}: line {lineno}: expected 'knot,value', got {line!r}")
            if knots and t < knots[-1]:
                raise ParseError(f"{path}: line {lineno}: knot {t_text} is below the one before")
            if knots and t == knots[-1]:
                # two knots rounded to the same printed value; keep the
                # later one (right-continuous step)
                values[-1] = v
                continue
            knots.append(t)
            values.append(v)
        try:
            out.append((int(cause), StepFunction(np.array(knots), np.array(values))))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return sorted(out, key=lambda pair: pair[0])


def cmd_baseline(cfg: argparse.Namespace) -> int:
    baselines: list[tuple[int, StepFunction]]
    if cfg.fit_dir is not None:
        if not cfg.fit_dir.is_dir():
            return _fail(f"fit directory {cfg.fit_dir} does not exist", EXIT_INPUT)
        try:
            baselines = _load_fitted_baselines(cfg.fit_dir)
        except (ParseError, UnicodeDecodeError, OSError) as exc:
            return _fail(str(exc), EXIT_INPUT)
        if not baselines:
            return _fail(f"no baseline_cause*.csv files in {cfg.fit_dir}", EXIT_INPUT)
    elif cfg.input is not None:
        try:
            data = parse_panel_csv(cfg.input)
        except (ParseError, ValidationError, OSError) as exc:
            return _fail(str(exc), EXIT_INPUT)
        fits = fit(data, FitConfig(epsilon=cfg.epsilon, max_iter=cfg.max_iter))
        reasons = _unconverged(fits)
        if reasons:
            return _fail(f"fit did not converge ({reasons})", EXIT_CONVERGENCE)
        baselines = [(cf.cause, cf.baseline) for cf in fits]
    else:
        return _fail("baseline needs --fit-dir or --input", EXIT_INPUT)

    cfg.out.mkdir(parents=True, exist_ok=True)
    for cause, step in baselines:
        grid = np.sort(np.asarray(cfg.grid, dtype=float)) if cfg.grid else step.knots
        _write_baseline_csv(
            cfg.out / f"baseline_curve_cause{cause}.csv",
            ("time", "value"),
            grid,
            step(grid),
        )
    return EXIT_OK


def _option(kind, ok, what: str):
    """argparse type: kind(text) if `ok` accepts it; otherwise a usage
    error naming `what` (exit 2)."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelmean",
        description="Proportional mean model for panel count data with "
        "multiple modes of recurrence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--epsilon", default=FitConfig.epsilon,
                       type=_option(float, lambda x: 0 < x < math.inf, "a positive number"),
                       help="relative log-likelihood convergence tolerance")
        p.add_argument("--max-iter", default=FitConfig.max_iter,
                       type=_option(int, lambda n: n >= 1, "an integer >= 1"),
                       help="maximum alternating iterations")
        # the simulator's default seed serves every command
        p.add_argument("--seed", default=SimConfig.seed,
                       type=_option(int, lambda n: n >= 0, "a non-negative integer"),
                       help="seed for all randomness")

    p_fit = sub.add_parser("fit", help="fit a panel count CSV dataset")
    p_fit.add_argument("--input", type=Path, required=True, help="long-format CSV")
    p_fit.add_argument("--inference", choices=("bootstrap", "sandwich"),
                       default="bootstrap", help="standard error method")
    p_fit.add_argument("--boot-reps", default=_DEFAULT_BOOT_REPS,
                       type=_option(int, lambda n: n >= 2, "an integer >= 2"),
                       help="bootstrap replicates")
    add_common(p_fit)
    p_fit.set_defaults(run=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", type=Path, required=True,
                       help="flat key=value study configuration file")
    add_common(p_sim)
    p_sim.set_defaults(run=cmd_simulate)

    p_base = sub.add_parser("baseline", help="export baseline curves on a grid")
    p_base.add_argument("--fit-dir", type=Path, default=None,
                        help="directory holding a previous fit's baseline files")
    p_base.add_argument("--input", type=Path, default=None,
                        help="CSV to fit if no --fit-dir is given")
    p_base.add_argument("--grid", default=None,
                        type=_option(_floats, lambda g: all(map(math.isfinite, g)),
                                     "a comma-separated list of numbers"),
                        help="comma-separated evaluation times (default: knots)")
    add_common(p_base)
    p_base.set_defaults(run=cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FileExistsError, NotADirectoryError, IsADirectoryError) as exc:
        # something other than a directory stands where --out writes
        return _fail(f"cannot write to --out {args.out}: {exc.strerror}", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
