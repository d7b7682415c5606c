"""Output checks for the benchmark workloads.

Every tolerance on a coefficient is in standard-error units:

- TRUTH_Z: on any seed, each fitted coefficient lies within this many of
  its reported standard errors of the value the data were drawn from.
- ANCHOR_BETA_SE / ANCHOR_SE_REL: on the anchor input, each coefficient
  lies within this many reference standard errors of the reference fit,
  and each standard error within this share of its reference value.
  Stopping at a relative log-likelihood change of 1e-5 leaves the
  coefficients up to ~0.3 SE from the optimum (measured against 1e-9 on
  these inputs), so 1 SE accepts the same optimum reached by another
  iteration path; the standard errors moved by under 2%.

The study check bounds each |bias - reference bias| by STUDY_Z standard
deviations of the difference of two means (the used replicates and the
reference's), and each MSE to within a factor STUDY_MSE_FACTOR of its
reference.  `study.csv` reports the absolute bias |mean - truth|, so a
shift of the estimates in either direction shows as a larger bias.
References live in reference.json (see record_reference.py).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TRUTH_Z = 6.0
ANCHOR_BETA_SE = 1.0
ANCHOR_SE_REL = 0.10
LOGLIK_RTOL = 1e-9  # the estimator's own ascent tolerance
STUDY_Z = 4.5
STUDY_MSE_FACTOR = 4.0
STUDY_MAX_FAILURE_SHARE = 0.10

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def read_fit(out_dir: Path, k: int, d: int) -> dict:
    """Parse `fit_report.json` and `coefficients.csv` into arrays."""
    report = json.loads((out_dir / "fit_report.json").read_text(encoding="utf-8"))
    beta = np.full((k, d), np.nan)
    se = np.full((k, d), np.nan)
    lines = (out_dir / "coefficients.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        cause, cov, b, s, _ = line.split(",")
        beta[int(cause) - 1, int(cov[1:]) - 1] = float(b)
        se[int(cause) - 1, int(cov[1:]) - 1] = float(s)
    return {"report": report, "beta": beta, "se": se}


def check_fit(result: dict, truth: np.ndarray) -> list[str]:
    """Convergence, a non-decreasing log-likelihood trace, and every
    coefficient within TRUTH_Z standard errors of the truth."""
    problems = []
    report = result["report"]
    k, d = truth.shape
    if (report.get("k"), report.get("d")) != (k, d):
        problems.append(f"report has k={report.get('k')} d={report.get('d')}, expected {k} {d}")
    if report.get("converged") != [True] * k or any(report.get("errors", [None])):
        problems.append(f"not every cause converged: {report.get('converged')} {report.get('errors')}")
    for j in range(1, k + 1):
        trace = report.get(f"loglik_trace_cause{j}", [])
        if not trace:
            problems.append(f"cause {j}: empty log-likelihood trace")
        for a, b in zip(trace, trace[1:]):
            if b < a - LOGLIK_RTOL * max(1.0, abs(a)):
                problems.append(f"cause {j}: log-likelihood decreased from {a} to {b}")
                break
    beta, se = result["beta"], result["se"]
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(se)) and np.all(se > 0)):
        problems.append("coefficients or standard errors missing, non-finite or non-positive")
        return problems
    z = np.abs(beta - truth) / se
    if np.any(z > TRUTH_Z):
        problems.append(f"coefficient {np.max(z):.2f} SE from the truth (limit {TRUTH_Z})")
    return problems


def check_anchor(result: dict, ref: dict) -> list[str]:
    """Agreement with the reference fit of the anchor input."""
    ref_beta, ref_se = np.array(ref["beta"]), np.array(ref["se"])
    problems = []
    dz = np.abs(result["beta"] - ref_beta) / ref_se
    if not np.all(dz <= ANCHOR_BETA_SE):
        problems.append(f"anchor coefficient {np.nanmax(dz):.3f} SE from reference "
                        f"(limit {ANCHOR_BETA_SE})")
    ds = np.abs(result["se"] - ref_se) / ref_se
    if not np.all(ds <= ANCHOR_SE_REL):
        problems.append(f"anchor standard error off reference by {np.nanmax(ds):.3f} SE "
                        f"(limit {ANCHOR_SE_REL})")
    return problems


def shift_fit(result: dict, shift_se: float) -> dict:
    """The same output with every coefficient moved by shift_se of its SE."""
    return {**result, "beta": result["beta"] + shift_se * result["se"]}


def read_study(out_dir: Path) -> dict:
    """Parse the single-n `study.csv` written by `panelmean simulate`."""
    header, row = (out_dir / "study.csv").read_text(encoding="utf-8").splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    return {
        "bias": np.array([[float(rec[f"Bias{j}{l}"]) for l in (1, 2)] for j in (1, 2)]),
        "mse": np.array([[float(rec[f"MSE{j}{l}"]) for l in (1, 2)] for j in (1, 2)]),
        "used": int(rec["replications"]),
        "failures": int(rec["failures"]),
        "rho_clamps": int(rec["rho_clamps"]),
    }


def check_study(result: dict, ref: dict, replications: int) -> list[str]:
    """Failure share, bias and MSE of a study against the reference."""
    problems = []
    used, failures = result["used"], result["failures"]
    if used + failures != replications:
        problems.append(f"{used} used + {failures} failed != {replications} replications")
    if failures > STUDY_MAX_FAILURE_SHARE * replications:
        problems.append(f"{failures} of {replications} replicates failed")
    if used < 2:
        return problems + ["fewer than 2 usable replicates"]
    sd, ref_bias, ref_mse = np.array(ref["sd"]), np.array(ref["bias"]), np.array(ref["mse"])
    limit = STUDY_Z * sd * np.sqrt(1 / used + 1 / ref["replications"])
    off = np.abs(result["bias"] - ref_bias)
    if not np.all(off <= limit):
        problems.append(f"bias {result['bias'].ravel().tolist()} off reference "
                        f"{ref_bias.ravel().round(4).tolist()} by more than "
                        f"{limit.ravel().round(4).tolist()}")
    ratio = result["mse"] / ref_mse
    if not np.all((ratio >= 1 / STUDY_MSE_FACTOR) & (ratio <= STUDY_MSE_FACTOR)):
        problems.append(f"MSE / reference MSE {ratio.ravel().round(3).tolist()} outside "
                        f"[1/{STUDY_MSE_FACTOR:g}, {STUDY_MSE_FACTOR:g}]")
    return problems


def shift_study(result: dict, shift: float) -> dict:
    """The study as if every replicate's coefficients had moved by `shift`,
    taking each mean error (reported as |mean - truth|) to be positive: a
    negative shift moves the estimates toward the truth and past it."""
    bias, mse = result["bias"], result["mse"]
    return {**result, "bias": np.abs(bias + shift), "mse": mse + 2 * shift * bias + shift ** 2}
