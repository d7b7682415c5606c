"""Benchmark of panelmean: time to solution of three CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sandwich_continuous --seed 1 --seconds 20 --trace 0

Each run imports `panelmean` from `src/` of the checkout and calls
`panelmean.cli.main` in this process, one invocation after another (a
closed loop with one caller, no extra threads; BLAS is held to one
thread).  It invokes the CLI on inputs made from --seed for --seconds
and checks every output.  Times are in reference seconds (see
calibrate.py): each invocation's wall time scaled by the time of a fixed
kernel run just before, just after and (untraced) every tenth of a second
inside it, which takes out most of the shared host's swings in speed;
the wall-clock medians are printed beside them.  solve_s is the median
invocation.  setup_s is the median time, over
IMPORT_REPEATS fresh interpreters run one after another, to import the
CLI, plus the median of SETUP_REPEATS set-ups (make the inputs, write
them, one warm-up invocation), one before the timed loop and one after
each of its chunks.  After the loop it fits a fixed anchor input against
reference.json and runs the benchmark's self-check.

--trace 0 prints the end-to-end metrics; --trace 1 spends the first half
of --seconds untraced and the second half traced, then prints the
per-layer metrics (see tracing.py).  The last line of stdout is the JSON
result; the full record (samples, environment, spans) goes to
.perfbench_out/.
"""

from __future__ import annotations

import os

# Before numpy is imported: the workloads run single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import functools
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import calibrate
import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
ANCHOR_SEED = 0
BOOT_REPS = 50


class FitWorkload:
    """`panelmean fit` on a CSV drawn by inputs.gen_panel."""

    def __init__(self, spec: inputs.PanelSpec, inference: str):
        self.spec = spec
        self.inference = inference
        self.truth = np.array(spec.beta)
        self.spans = {"data.parse_panel_csv", "estimator.fit", f"inference.{inference}_se"}

    def prepare(self, seed: int, work: Path) -> list[str]:
        csv_path = work / "input.csv"
        inputs.write_csv(inputs.gen_panel(self.spec, seed), csv_path)
        argv = ["fit", "--input", str(csv_path), "--out", str(work / "out"),
                "--inference", self.inference, "--seed", str(seed)]
        if self.inference == "bootstrap":
            argv += ["--boot-reps", str(BOOT_REPS)]
        return argv

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        result = checks.read_fit(out_dir, self.spec.k, self.spec.d)
        return checks.check_fit(result, self.truth), result

    def perturbed_accepted(self, result: dict, anchor: dict | None, ref: dict | None) -> list[str]:
        """Checks that accept a deliberately wrong coefficient: `result` is
        this seed's output, `anchor` the anchor input's output (which must
        itself pass against `ref`)."""
        missed = []
        for sign in (1, -1):
            shift = sign * (checks.TRUTH_Z + 1)
            if not checks.check_fit(checks.shift_fit(result, shift), self.truth):
                missed.append(f"truth check accepted beta moved by {shift:+g} SE")
            shift = sign * 2 * checks.ANCHOR_BETA_SE
            if anchor is not None and not checks.check_anchor(checks.shift_fit(anchor, shift), ref):
                missed.append(f"anchor check accepted the anchor's beta moved by {shift:+g} SE")
        return missed

    def probe_data(self, seed: int, work: Path):
        import panelmean as pm

        return pm.parse_panel_csv(work / "input.csv"), work / "input.csv"


class StudyWorkload:
    """`panelmean simulate` on the Table 1 configuration."""

    SHIFT = 0.1  # a wrong coefficient, in the units of Table 1's beta (~2 sd of one replicate)

    replications = inputs.STUDY_REPLICATIONS
    spans = {"simulate.run_study", "simulate.gen_dataset", "estimator.fit"}

    @functools.cached_property
    def ref(self) -> dict:
        return checks.load_reference()["simulate_n200"]

    def prepare(self, seed: int, work: Path) -> list[str]:
        inputs.write_study_config(seed, work / "study.cfg")
        return ["simulate", "--config", str(work / "study.cfg"), "--out", str(work / "out")]

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        result = checks.read_study(out_dir)
        return checks.check_study(result, self.ref, self.replications), result

    def perturbed_accepted(self, result: dict, anchor: dict | None, ref: dict | None) -> list[str]:
        missed = []
        for shift in (self.SHIFT, -self.SHIFT):
            if not checks.check_study(checks.shift_study(result, shift), self.ref, self.replications):
                missed.append(f"study check accepted coefficients moved by {shift:+g}")
        return missed

    def probe_data(self, seed: int, work: Path):
        """Replicate 0 of the study, drawn from the same (seed, 0) stream."""
        import panelmean as pm

        cfg = pm.SimConfig(**inputs.TABLE1, seed=seed)
        return pm.gen_dataset(cfg, np.random.default_rng([seed, 0])), None


def make_workloads() -> dict:
    return {
        "sandwich_continuous": FitWorkload(inputs.SANDWICH, "sandwich"),
        "bootstrap_monthly": FitWorkload(inputs.MONTHLY, "bootstrap"),
        "simulate_n200": StudyWorkload(),
    }


def import_program():
    """Import panelmean from this checkout's src/, never an installed copy."""
    if not (SRC / "panelmean" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no panelmean sources under {SRC}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import panelmean.cli

    if not Path(panelmean.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {panelmean.cli.__file__}, not the checkout's copy")
    return panelmean.cli


# The kernel runs in the child, after the import: the child may run on
# another core than this process, at another speed.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import panelmean.cli; wall = time.perf_counter() - t; import calibrate; "
                "print(wall, calibrate.reference(wall, calibrate.edge() + calibrate.edge()))")


def import_seconds() -> tuple[float, float]:
    """Median time to import the CLI, each time in a fresh interpreter:
    (wall seconds, reference seconds)."""
    wall, ref = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True)
        seconds, ref_seconds = map(float, done.stdout.split())
        wall.append(seconds)
        ref.append(ref_seconds)
    return statistics.median(wall), statistics.median(ref)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Invoker:
    """Runs one CLI command line repeatedly and checks each output."""

    def __init__(self, cli, workload, argv: list[str], out_dir: Path, label: str = "invocation"):
        self.cli = cli
        self.label = label
        self.workload = workload
        self.argv = argv
        self.out_dir = out_dir
        self.first_digest = None
        self.last_result = None
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # total wall time of the invocations so far
        self.problems: list[str] = []

    def call(self, tracer: tracing.Tracer | None = None):
        try:
            with tracer.span("cli.invocation") if tracer else nullcontext():
                return self.cli.main(self.argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            return "exception"

    def once(self, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """One checked invocation: (wall seconds, reference seconds)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()  # start every invocation from the same heap state
        # No kernel ticks inside a traced invocation: they would land in its spans.
        elapsed, ref_s, code = calibrate.measured(lambda: self.call(tracer), ticks=tracer is None)
        self.busy_s += elapsed
        self.check(code)
        return elapsed, ref_s

    def check(self, code) -> None:
        """Count the invocation that exited with `code` and check its output."""
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                found, self.last_result = self.workload.check(self.out_dir)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                found = [f"unreadable output: {exc!r}"]
            problems += found
            out_digest = digest(self.out_dir)
            self.first_digest = self.first_digest or out_digest
            if out_digest != self.first_digest:
                problems.append("outputs differ from the first invocation on the same input")
        if problems:
            self.failed += 1
            self.problems.append(f"{self.label} {self.attempted}: " + "; ".join(problems))

    def loop(self, until: float, tracer: tracing.Tracer | None = None) -> list[tuple[float, float]]:
        """Invoke at least once, then until all invocations so far add up to
        `until` wall seconds."""
        samples: list[tuple[float, float]] = []
        while not samples or self.busy_s < until:
            if tracer is not None:
                tracer.op += 1
            samples.append(self.once(tracer))
        return samples


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return f"unavailable ({ref} not found)"


def environment(seed: int) -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": digest(SRC / "panelmean"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def selfcheck(workload, seed: int, work: Path, input_digests: set, invoker: Invoker,
              anchor: dict | None, ref: dict | None) -> list[str]:
    """The generator is deterministic for a seed and varies with it; each
    output check rejects a deliberately perturbed coefficient."""
    problems = []
    if len(input_digests) != 1:
        problems.append("the same seed gave different inputs")
    other = work / "other_seed"
    other.mkdir()
    workload.prepare(seed + 1, other)
    if {digest(other)} == input_digests:
        problems.append("a different seed gave the same inputs")
    if invoker.last_result is None:
        problems.append("no accepted output to perturb")
    else:
        problems += workload.perturbed_accepted(invoker.last_result, anchor, ref)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    cli = import_program()
    cold_import_s = time.perf_counter() - t0
    workloads = make_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}")
    workload = workloads[args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)

    import_wall_s, import_s = import_seconds()
    setup_times, setup_wall, input_digests, rss_before_mib, invokers = [], [], set(), [], []

    def set_up(rep: int) -> list[str]:
        """Make and write the inputs in a fresh directory, then one warm-up
        invocation; returns the command line that ran."""
        where = work / f"setup{rep}"
        where.mkdir(parents=True)
        warm = Invoker(cli, workload, [], where / "out", f"set-up {rep + 1} warm-up")

        def make_and_warm():
            warm.argv = workload.prepare(args.seed, where)
            rss_before_mib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            return warm.call()

        wall, ref_s, code = calibrate.measured(make_and_warm)
        setup_wall.append(wall)
        setup_times.append(ref_s)
        warm.check(code)  # after the clock has stopped, as for timed invocations
        input_digests.add(digest(*(p for p in where.iterdir() if p.name != "out")))
        invokers.append(warm)
        return warm.argv

    # The machine's speed drifts over tens of seconds, so the timed loop runs
    # in SETUP_REPEATS - 1 chunks with a set-up after each: the median of
    # either then spans the whole run.  With --trace 1 the first half of the
    # chunks run untraced and the second half traced.
    cmd = set_up(0)
    before_invocations_mib = rss_before_mib[0]  # import and inputs, before any invocation
    invoker = Invoker(cli, workload, cmd, work / "setup0" / "out")
    invokers.append(invoker)
    chunks = SETUP_REPEATS - 1
    tracer = tracing.Tracer() if args.trace else None
    samples, untraced = [], []
    for rep in range(1, SETUP_REPEATS):
        traced = tracer is not None and rep > chunks // 2
        with tracing.patched(tracer) if traced else nullcontext():
            got = invoker.loop(args.seconds * rep / chunks, tracer if traced else None)
        (untraced if tracer is not None and not traced else samples).extend(got)
        set_up(rep)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_samples, samples = [w for w, _ in samples], [r for _, r in samples]
    untraced = [r for _, r in untraced]

    ref = checks.load_reference().get(args.workload, {}).get("anchor")
    anchor_result = None
    if ref is not None:
        (work / "anchor").mkdir()
        anchor = Invoker(cli, workload, workload.prepare(ANCHOR_SEED, work / "anchor"),
                         work / "anchor" / "out", "anchor")
        anchor.once()
        invokers.append(anchor)
        if not anchor.failed:
            found = checks.check_anchor(anchor.last_result, ref)
            anchor.failed += bool(found)
            anchor.problems += [f"anchor: {p}" for p in found]
            anchor_result = None if found else anchor.last_result
    problems = [p for inv in invokers for p in inv.problems]
    attempted = sum(inv.attempted for inv in invokers)
    failed = sum(inv.failed for inv in invokers)
    self_problems = selfcheck(workload, args.seed, work, input_digests, invoker, anchor_result, ref)

    if args.trace:
        unseen = workload.spans - {s.name for s in tracer.spans}
        if unseen and not problems:
            raise SystemExit(f"perfbench: the traced run saw no {sorted(unseen)} span; "
                             "the CLI no longer reaches these layers where tracing.py hooks them")
        roots = [s for s in tracer.spans if s.name == "cli.invocation"]
        per_op = [tracing.invocation_layers(tracer.spans, root, BOOT_REPS) for root in roots]
        values = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
        values.update(tracing.probe_layers(*workload.probe_data(args.seed, work / "setup0")))
        values["trace.overhead_s"] = statistics.median(samples) - statistics.median(untraced)
        wanted = bench["per_layer"]
    else:
        values = {
            "solve_s": statistics.median(samples),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = bench["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise SystemExit(f"perfbench: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "reference_kernel_s": calibrate.REF_KERNEL_S,
        "import_s": import_s, "import_wall_s": import_wall_s, "cold_import_wall_s": cold_import_s,
        "setup_times_s": setup_times, "setup_wall_times_s": setup_wall,
        "before_invocations_mib": before_invocations_mib,
        "samples_s": samples, "wall_samples_s": wall_samples, "untraced_samples_s": untraced,
        "tail": tail(samples), "peak_rss_mib": peak_rss_mib,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "problems": problems, "selfcheck_problems": self_problems, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.as_records()) + "\n",
                                               encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for problem in problems + self_problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} trace={args.trace} environment {json.dumps(env)}")
    for name, m in metrics.items():
        note = f"  moves {tracing.MOVES[name]}" if args.trace else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:  # the wall-clock times behind solve_s and setup_s, which are in reference seconds
        print(f"{'solve_wall_s':32s} {statistics.median(wall_samples):.6g} s")
        print(f"{'setup_wall_s':32s} {import_wall_s + statistics.median(setup_wall):.6g} s")
        # peak_rss_mib is the process's high-water mark; show what set-up alone reached
        masked = "  (peak_rss_mib is masked: no invocation exceeded it)" \
            if peak_rss_mib <= before_invocations_mib else ""
        print(f"{'rss_before_invocations_mib':32s} {before_invocations_mib:.6g} MiB{masked}")
    hi = tail(samples)
    print(f"{'samples':32s} {len(samples)} count  "
          + (f"p{hi[0]:.1f} = {hi[1]:.6g} s" if hi else "no percentile with 10 samples above it"))
    print(f"{'fail_ratio':32s} {failed / attempted:.6g} ratio  {failed} of {attempted} failed")
    correct = failed == 0 and not self_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
