"""Record reference.json for the benchmark's output checks.

    python3 perfbench/record_reference.py

Fits the anchor input (seed run.ANCHOR_SEED) of each `fit` workload
through the CLI and keeps its coefficients and standard errors, and runs
a REFERENCE_REPLICATIONS-replicate Table 1 study at n=200 for the bias,
MSE and standard deviation of each coefficient.  Run it at the commit
the references should describe and commit the file with the benchmark.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

import checks
import inputs
import run

REFERENCE_REPLICATIONS = 400
REFERENCE_STUDY_SEED = 20210705


def main() -> None:
    cli = run.import_program()
    import panelmean as pm

    workloads = run.make_workloads()
    reference = {"recorded_at": run.environment(run.ANCHOR_SEED)}
    for name in ("sandwich_continuous", "bootstrap_monthly"):
        workload = workloads[name]
        work = run.OUT / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if cli.main(workload.prepare(run.ANCHOR_SEED, work)) != 0:
            raise SystemExit(f"{name}: anchor fit failed")
        problems, result = workload.check(work / "out")
        if problems:
            raise SystemExit(f"{name}: anchor output fails its checks: {problems}")
        reference[name] = {"anchor": {"seed": run.ANCHOR_SEED,
                                      "beta": result["beta"].tolist(),
                                      "se": result["se"].tolist()}}
    shutil.rmtree(run.OUT / "reference")

    cfg = pm.SimConfig(**inputs.TABLE1, replications=REFERENCE_REPLICATIONS,
                       seed=REFERENCE_STUDY_SEED)
    study = pm.run_study(cfg)
    reference["simulate_n200"] = {
        "replications": REFERENCE_REPLICATIONS,
        "seed": REFERENCE_STUDY_SEED,
        "failures": study.failures,
        "bias": study.bias.tolist(),
        "mse": study.mse.tolist(),
        "sd": np.sqrt(study.mse - study.bias ** 2).tolist(),
    }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
