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
import sys
from dataclasses import dataclass
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
from .inference import bootstrap_se, sandwich_se
from .isotonic import StepFunction
from .simulate import SimConfig, StudyResult, run_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_STUDY = 4


@dataclass
class RunConfig:
    """Resolved command-line options for one invocation."""

    command: str
    input: Path | None = None
    out: Path = Path(".")
    epsilon: float = 1e-5
    max_iter: int = 200
    inference: str = "bootstrap"
    boot_reps: int = 300
    seed: int = 42
    config: Path | None = None
    fit_dir: Path | None = None
    grid: list[float] | None = None


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_fit_report(cfg: RunConfig, data_shape: tuple[int, int, int],
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
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(knots, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_fit(cfg: RunConfig) -> int:
    try:
        data = parse_panel_csv(cfg.input)
    except (ParseError, ValidationError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
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

    bad = [cf for cf in fits if cf.error is not None or not cf.converged]
    if bad:
        reasons = "; ".join(
            f"cause {cf.cause}: {cf.error or 'not converged'}" for cf in bad
        )
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


def _parse_sim_config(path: Path, default_seed: int) -> list[SimConfig]:
    """Flat key=value simulation config; returns one SimConfig per n."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        raw[key.strip().lower()] = value.strip()

    def floats(key: str, default: str | None = None) -> list[float]:
        text = raw.get(key, default)
        if text is None:
            raise ParseError(f"{path}: missing required key {key!r}")
        return [float(v) for v in text.split(",") if v.strip()]

    known = {
        "n", "beta1", "beta2", "baseline1", "baseline2", "rho", "max_visits",
        "gap_min", "gap_max", "bernoulli_p", "normal_sd", "replications", "seed",
    }
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"{path}: unknown config keys {sorted(unknown)}")

    n_values = [int(v) for v in floats("n")]
    beta1 = floats("beta1")
    beta2 = floats("beta2")
    configs = []
    for n in n_values:
        configs.append(
            SimConfig(
                n=n,
                beta1=np.array(beta1),
                beta2=np.array(beta2),
                baseline1=raw.get("baseline1", "t"),
                baseline2=raw.get("baseline2", "2t"),
                rho=float(raw.get("rho", "0.5")),
                max_visits=int(raw.get("max_visits", "5")),
                gap_range=(float(raw.get("gap_min", "1")), float(raw.get("gap_max", "5"))),
                bernoulli_p=float(raw.get("bernoulli_p", "0.5")),
                normal_sd=float(raw.get("normal_sd", "0.5")),
                replications=int(raw.get("replications", "500")),
                seed=int(raw.get("seed", str(default_seed))),
            )
        )
    return configs


def _echo_config(cfg: SimConfig, n_values: list[int]) -> str:
    lines = [
        f"n = {','.join(str(n) for n in n_values)}",
        f"beta1 = {','.join(_fmt(b) for b in cfg.beta1)}",
        f"beta2 = {','.join(_fmt(b) for b in cfg.beta2)}",
        f"baseline1 = {cfg.baseline1}",
        f"baseline2 = {cfg.baseline2}",
        f"rho = {_fmt(cfg.rho)}",
        f"max_visits = {cfg.max_visits}",
        f"gap_min = {_fmt(cfg.gap_range[0])}",
        f"gap_max = {_fmt(cfg.gap_range[1])}",
        f"bernoulli_p = {_fmt(cfg.bernoulli_p)}",
        f"normal_sd = {_fmt(cfg.normal_sd)}",
        f"replications = {cfg.replications}",
        f"seed = {cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig) -> int:
    try:
        sim_configs = _parse_sim_config(cfg.config, cfg.seed)
    except (ParseError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except OSError as exc:
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
    paths = sorted(
        fit_dir.glob("baseline_cause*.csv"),
        key=lambda p: int(p.stem.removeprefix("baseline_cause")),
    )
    out = []
    for path in paths:
        cause = int(path.stem.removeprefix("baseline_cause"))
        knots, values = [], []
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if lineno == 1:
                continue
            t_text, _, v_text = line.partition(",")
            t, v = float(t_text), float(v_text)
            if knots and t == knots[-1]:
                # two knots rounded to the same printed value; keep the
                # later one (right-continuous step)
                values[-1] = v
                continue
            knots.append(t)
            values.append(v)
        out.append((cause, StepFunction(np.array(knots), np.array(values))))
    return out


def cmd_baseline(cfg: RunConfig) -> int:
    baselines: list[tuple[int, StepFunction]]
    if cfg.fit_dir is not None:
        if not cfg.fit_dir.is_dir():
            return _fail(f"fit directory {cfg.fit_dir} does not exist", EXIT_INPUT)
        baselines = _load_fitted_baselines(cfg.fit_dir)
        if not baselines:
            return _fail(f"no baseline_cause*.csv files in {cfg.fit_dir}", EXIT_INPUT)
    elif cfg.input is not None:
        try:
            data = parse_panel_csv(cfg.input)
        except (ParseError, ValidationError, OSError) as exc:
            return _fail(str(exc), EXIT_INPUT)
        fits = fit(data, FitConfig(epsilon=cfg.epsilon, max_iter=cfg.max_iter))
        bad = [cf for cf in fits if cf.error is not None]
        if bad:
            return _fail(
                f"fit failed for cause(s) {[cf.cause for cf in bad]}", EXIT_CONVERGENCE
            )
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
        p.add_argument("--epsilon", default=1e-5,
                       type=_option(float, lambda x: 0 < x < math.inf, "a positive number"),
                       help="relative log-likelihood convergence tolerance")
        p.add_argument("--max-iter", default=200,
                       type=_option(int, lambda n: n >= 1, "an integer >= 1"),
                       help="maximum alternating iterations")
        p.add_argument("--seed", default=42,
                       type=_option(int, lambda n: n >= 0, "a non-negative integer"),
                       help="seed for all randomness")

    p_fit = sub.add_parser("fit", help="fit a panel count CSV dataset")
    p_fit.add_argument("--input", type=Path, required=True, help="long-format CSV")
    p_fit.add_argument("--inference", choices=("bootstrap", "sandwich"),
                       default="bootstrap", help="standard error method")
    p_fit.add_argument("--boot-reps", default=300,
                       type=_option(int, lambda n: n >= 2, "an integer >= 2"),
                       help="bootstrap replicates")
    add_common(p_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", type=Path, required=True,
                       help="flat key=value study configuration file")
    add_common(p_sim)

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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        out=args.out,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        inference=getattr(args, "inference", "bootstrap"),
        boot_reps=getattr(args, "boot_reps", 300),
        seed=args.seed,
        config=getattr(args, "config", None),
        fit_dir=getattr(args, "fit_dir", None),
        grid=getattr(args, "grid", None),
    )
    dispatch = {"fit": cmd_fit, "simulate": cmd_simulate, "baseline": cmd_baseline}
    return dispatch[cfg.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
