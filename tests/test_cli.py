import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from panelmean import (NumericError, SimConfig, bootstrap_se, fit, gen_dataset,
                       parse_panel_csv, write_panel_csv)
from panelmean import estimator, inference
from panelmean.cli import (_SIM_KEYS, _build_parser, _echo_config, _load_fitted_baselines,
                           _parse_sim_config, main)
from conftest import table1_config
from test_inference import one_hot_subject

TRUTH1 = np.array([0.5, 1.0])


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    data = gen_dataset(table1_config(n=150), np.random.default_rng([150, 0]))
    write_panel_csv(data, path)
    return path


def read_coefficients(path):
    rows = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "cause,covariate,coefficient,se,p_value"
    for line in lines[1:]:
        cause, cov, coef, se, p = line.split(",")
        rows[(int(cause), cov)] = (float(coef), float(se), float(p))
    return rows


class TestCmdFit:
    def test_recovers_generator_within_bootstrap_ses(self, fixture_csv, tmp_path):
        out = tmp_path / "run"
        code = main([
            "fit", "--input", str(fixture_csv), "--out", str(out),
            "--boot-reps", "120", "--seed", "42",
        ])
        assert code == 0
        rows = read_coefficients(out / "coefficients.csv")
        assert len(rows) == 4  # k x d
        for l, truth in enumerate(TRUTH1):
            coef, se, p = rows[(1, f"z{l + 1}")]
            assert abs(coef - truth) <= 3 * se
        report = json.loads((out / "fit_report.json").read_text())
        assert report["converged"] == [True, True]
        assert (out / "baseline_cause1.csv").exists()
        assert (out / "baseline_cause2.csv").exists()

    def test_empty_file_exits_2_naming_header(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["fit", "--input", str(empty), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2

    def test_same_seed_byte_identical_artifacts(self, fixture_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "fit", "--input", str(fixture_csv), "--out", str(out),
                "--boot-reps", "40", "--seed", "11",
            ])
            assert code == 0
            outs.append(out)
        for fname in ("coefficients.csv", "baseline_cause1.csv",
                      "baseline_cause2.csv", "fit_report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_sandwich_inference_option(self, fixture_csv, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "fit", "--input", str(fixture_csv), "--out", str(out),
            "--inference", "sandwich",
        ])
        assert code == 0
        rows = read_coefficients(out / "coefficients.csv")
        assert all(se > 0 for _, se, _ in rows.values())

    def test_no_covariate_dataset_writes_header_only_coefficients(self, tmp_path):
        csv_path = tmp_path / "nocov.csv"
        csv_path.write_text("id,time,n1\na,1,0\na,3,2\nb,2,1\n")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 0
        lines = (out / "coefficients.csv").read_text().splitlines()
        assert lines == ["cause,covariate,coefficient,se,p_value"]
        assert (out / "baseline_cause1.csv").exists()

    @pytest.mark.parametrize("row,bad", [
        ("b,nan,1,0", "time value 'nan'"),
        ("b,2,1,inf", "covariate value 'inf'"),
        ("b,2,1,nan", "covariate value 'nan'"),
    ])
    def test_non_finite_input_exits_2_naming_value(self, tmp_path, capsys, row, bad):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"id,time,n1,z1\na,1,0,1\na,3,2,1\n{row}\nb,4,2,0\n")
        code = main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 4" in err and bad in err

    def test_field_beyond_the_csv_limit_exits_2_naming_line(self, tmp_path, capsys):
        csv_path = tmp_path / "long.csv"
        csv_path.write_text(f"id,time,n1,z1\na,1,0,1\n{'x' * 200_000},2,1,1\na,x,2,1\n")
        code = main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_bootstrap_starts_from_the_fits_it_reports(self, fixture_csv, tmp_path,
                                                       monkeypatch):
        # the full data is fitted once: bootstrap_se is handed the CLI's fits
        monkeypatch.setattr(inference, "fit", lambda data: pytest.fail("fitted again"))
        code = main(["fit", "--input", str(fixture_csv), "--out", str(tmp_path / "o"),
                     "--boot-reps", "5"])
        assert code == 0

    def test_non_utf8_input_exits_2_naming_line(self, tmp_path, capsys):
        csv_path = tmp_path / "latin1.csv"
        csv_path.write_bytes(b"id,time,n1,z1\na,1,0,1\n\xe9,2,1,1\n")
        code = main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3: not valid UTF-8" in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "x.csv", "--boot-reps", "1"],
        ["fit", "--input", "x.csv", "--seed", "-1"],
        ["baseline", "--fit-dir", "d", "--grid", "1,two"],
        ["baseline", "--fit-dir", "d", "--grid", ""],
    ], ids=["boot-reps", "seed", "grid", "empty-grid"])
    def test_bad_option_exits_2_naming_it(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv + ["--out", str(tmp_path / "o")])
        assert caught.value.code == 2
        assert f"argument {argv[-2]}: {argv[-1]!r} is not" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_divergent_cause_exits_3_with_partial_report(self, tmp_path, capsys):
        lines = ["id,time,n1,z1"]
        for i in range(6):
            z = i % 2
            n_final = 0 if z == 1 else 3
            lines.append(f"s{i},{1.0 + 0.01 * i},0,{z}")
            lines.append(f"s{i},{2.0 + 0.01 * i},{n_final},{z}")
        csv_path = tmp_path / "diverge.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(["fit", "--input", str(csv_path), "--out", str(out)])
        assert code == 3
        assert (out / "fit_report.json").exists()
        report = json.loads((out / "fit_report.json").read_text())
        assert report["errors"][0] is not None

    def test_report_names_how_each_cause_stopped(self, fit_dir, tmp_path):
        # one stop code per cause, as CauseFit.stop holds it; below, no
        # cause-1 events where z1 = 1, while cause 2 fits
        report = json.loads((fit_dir / "fit_report.json").read_text())
        assert report["stop"] == ["gradient", "gradient"]
        csv_path = tmp_path / "diverge.csv"
        csv_path.write_text("id,time,n1,n2,z1\n" + "".join(
            f"s{i},{1 + 0.01 * i},0,1,{i % 2}\ns{i},{2 + 0.01 * i},{3 * (1 - i % 2)},2,{i % 2}\n"
            for i in range(6)))
        assert main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "o")]) == 3
        report = json.loads((tmp_path / "o" / "fit_report.json").read_text())
        assert report["stop"] == ["diverged", "gradient"]

    @pytest.mark.parametrize("route", [["--inference", "bootstrap", "--boot-reps", "20"],
                                       ["--inference", "sandwich"]])
    def test_collinear_covariates_exit_3_on_both_routes(self, tmp_path, capsys, route):
        # z2 = 2 z1 and counts 1, 2 at times 1, 2 for every subject: the
        # gradient is 0 at beta = 0, but beta is not identified there
        rows = [f"s{i},{t},{t},{i},{2 * i}" for i in range(5) for t in (1, 2)]
        csv_path = tmp_path / "collinear.csv"
        csv_path.write_text("\n".join(["id,time,n1,z1,z2", *rows]) + "\n")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out), *route]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: fit did not converge (cause 1: {estimator._STOPS['singular'][1]}); "
            "partial report written"]
        assert json.loads((out / "fit_report.json").read_text())["converged"] == [False]
        assert not (out / "coefficients.csv").exists()

    def test_inference_failure_exits_3_with_partial_report(self, tmp_path, capsys):
        # the fit converges, but 2 of the 3 replicates of seed 2 diverge
        csv_path = tmp_path / "hot.csv"
        write_panel_csv(one_hot_subject(), csv_path)
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out),
                     "--boot-reps", "3", "--seed", "2"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: inference failed: only 1 of 3 bootstrap replicates converged; cannot "
            "estimate a covariance; partial report written"]
        assert json.loads((out / "fit_report.json").read_text())["converged"] == [True]
        assert not (out / "coefficients.csv").exists()


class TestCmdSimulate:
    def write_config(self, tmp_path, text):
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        return path

    def test_study_csv_shape(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "n = 40\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nbaseline1 = t\n"
            "baseline2 = 2t\nreplications = 6\nseed = 3\n",
        )
        out = tmp_path / "study"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:9] == [
            "n", "Bias11", "Bias12", "MSE11", "MSE12",
            "Bias21", "Bias22", "MSE21", "MSE22",
        ]
        values = lines[1].split(",")
        assert values[0] == "40"
        assert all(np.isfinite(float(v)) for v in values[1:9])
        assert (out / "config_echo.txt").exists()

    def test_multiple_sample_sizes_one_row_each(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "n = 30,60\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 4\nseed = 5\n",
        )
        out = tmp_path / "study"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "30" and lines[2].split(",")[0] == "60"

    def test_single_replication_matches_definition(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "n = 50\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 1\nseed = 21\n",
        )
        out = tmp_path / "study"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = (out / "study.csv").read_text().splitlines()[1].split(",")
        sim_cfg = table1_config(n=50, replications=1, seed=21)
        data = gen_dataset(sim_cfg, np.random.default_rng([21, 0]))
        fits = fit(data)
        expected = abs(fits[0].beta[0] - 0.5)
        assert float(row[1]) == pytest.approx(expected, rel=1e-4)

    def test_mse_non_increasing_in_sample_size(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "n = 30,60\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 40\nseed = 13\n",
        )
        out = tmp_path / "study"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        header = lines[0].split(",")
        small = dict(zip(header, lines[1].split(",")))
        large = dict(zip(header, lines[2].split(",")))
        for col in ("MSE11", "MSE12", "MSE21", "MSE22"):
            assert float(large[col]) <= float(small[col])

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "n = 40\nbeta1 = 1\nbeta2 = 1\nbogus = 7\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "n = 40\nbeta1 = 1,1\nbeta2 = 1,1\nseed = -3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_study_failure_exits_4(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "n = 2\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 20\nseed = 8\n",
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("line,message", [
        ("baseline1 = exp(t)", "unknown baseline 'exp(t)'"),
        ("rho = nan", "rho must be finite"),
        ("beta2 = -1,inf", "beta2 must be finite"),
        ("gap_max = inf", "gap_range must be finite"),
        ("normal_sd = nan", "normal_sd must be finite"),
        ("bernoulli_p = 1.5", "bernoulli_p must be in [0, 1]"),
        ("n = 20.7", "n must be an integer, got 20.7"),
        ("max_visits = 2.5", "max_visits must be an integer"),
        ("replications = 3.5", "replications must be an integer"),
        ("n =", "bad n value ''"),
        ("rho = 0.1,0.2", "bad rho value '0.1,0.2'"),
        ("rho = x", "bad rho value 'x'"),
    ])
    def test_unusable_config_value_exits_2(self, tmp_path, capsys, line, message):
        # `line` replaces the usable value of its key: a key may not repeat
        usable = {"n": "20", "beta1": "0.5,1", "beta2": "-1,0.5", "replications": "2"}
        usable.pop(line.partition("=")[0].strip(), None)
        text = "".join(f"{key} = {value}\n" for key, value in usable.items())
        cfg = self.write_config(tmp_path, f"{text}{line}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("n = 20\nbeta1 0.5,1\nbeta2 = -1,0.5\n",
         "line 2: expected 'key = value', got 'beta1 0.5,1'"),
        ("n = 20\nbeta2 = -1,0.5\n", "missing required key 'beta1'"),
    ], ids=["no-equals-sign", "missing-key"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exits_2_naming_second_line(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\n# a later edit\nN = 30\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "line 5: duplicate key 'n'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        # every key, each value with at most 6 significant digits
        "n = 25,35\nbeta1 = 0.25,-0.75\nbeta2 = 1.5,0.125\nbaseline1 = 0.5t\n"
        "baseline2 = 3*t\nrho = 0.2\nmax_visits = 4\ngap_min = 0.5\ngap_max = 2.5\n"
        "bernoulli_p = 0.3\nnormal_sd = 0.8\nreplications = 3\nseed = 17\n",
        # only the required keys
        "n = 30\nbeta1 = 0.5,1\nbeta2 = -1,0.5\n",
    ], ids=["every-key", "required-keys-only"])
    def test_echo_fed_back_reproduces_the_study(self, tmp_path, text):
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = self.write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(first),
                     "--seed", "9"]) == 0
        # the echo carries the seed: the second run leaves --seed at its default
        echo = first / "config_echo.txt"
        assert main(["simulate", "--config", str(echo), "--out", str(second)]) == 0
        for name in ("study.csv", "config_echo.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        keys = [line.split(" = ")[0] for line in echo.read_text().splitlines()]
        assert keys == list(_SIM_KEYS)

    def test_readme_config_example_lists_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Simulation config format", 1)[1]
        example = section.split("```\n", 2)[1]
        documented = _parse_sim_config(self.write_config(tmp_path, example), default_seed=42)
        required = "\n".join(example.splitlines()[:3])  # n, beta1, beta2
        defaults = _parse_sim_config(self.write_config(tmp_path, required), default_seed=42)
        assert [c.n for c in documented] == [50, 100, 200]
        assert _echo_config(documented[0], [50]) == _echo_config(defaults[0], [50])

    def test_config_with_utf8_byte_order_mark(self, tmp_path):
        # spreadsheet programs write one at the start of "UTF-8" text files
        text = "n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 2\n"
        [plain] = _parse_sim_config(self.write_config(tmp_path, text), default_seed=42)
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeff" + text, encoding="utf-8")
        [with_bom] = _parse_sim_config(cfg, default_seed=42)
        assert _echo_config(with_bom, [20]) == _echo_config(plain, [20])
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("line,gap_range", [
        ("gap_min = 0.5", (0.5, SimConfig.gap_range[1])),
        ("gap_max = 3.5", (SimConfig.gap_range[0], 3.5)),
    ])
    def test_one_gap_end_keeps_the_other_default(self, tmp_path, line, gap_range):
        cfg = self.write_config(tmp_path, f"n = 20\nbeta1 = 1,1\nbeta2 = 1,1\n{line}\n")
        [sim_cfg] = _parse_sim_config(cfg, default_seed=42)
        assert sim_cfg.gap_range == gap_range

    def test_large_seed_keeps_every_digit(self, tmp_path):
        seed = 2**64 + 1  # beyond a float's 53-bit mantissa
        cfg = self.write_config(tmp_path, f"n = 20\nbeta1 = 1,1\nbeta2 = 1,1\nseed = {seed}\n")
        [sim_cfg] = _parse_sim_config(cfg, default_seed=42)
        assert sim_cfg.seed == seed
        assert f"seed = {seed}\n" in _echo_config(sim_cfg, [20])

    def test_readme_quick_start_runs(self, tmp_path, monkeypatch):
        # every python block of the section, with B and replications cut
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
        code = "".join(block.split("```", 1)[0] for block in section.split("```python\n")[1:])
        for full, cut in (("B=300", "B=3"), ("replications=500", "replications=2")):
            assert full in code
            code = code.replace(full, cut)
        data = gen_dataset(table1_config(n=60), np.random.default_rng([60, 0]))
        write_panel_csv(data, tmp_path / "visits.csv")
        monkeypatch.chdir(tmp_path)
        exec(compile(code, "README.md", "exec"), {})

    def test_every_sim_config_field_has_a_key(self):
        named = {"gap_range" if key.startswith("gap_") else key for key in _SIM_KEYS}
        assert named == {f.name for f in fields(SimConfig)}


# Run in a fresh interpreter: the test helpers import scipy.optimize.
_FOOTPRINT = """
import json, sys
from panelmean.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] in
                        (["scipy", "optimize"], ["scipy", "special"], ["scipy", "sparse"]))))
"""


def test_cli_imports_no_scipy_optimize_special_or_sparse(tmp_path):
    write_panel_csv(gen_dataset(table1_config(n=40), np.random.default_rng([40, 0])),
                    tmp_path / "panel.csv")
    (tmp_path / "study.cfg").write_text("n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\n"
                                        "replications = 2\n")
    runs = [["fit", "--input", "panel.csv", "--out", "sandwich", "--inference", "sandwich"],
            ["fit", "--input", "panel.csv", "--out", "bootstrap", "--inference", "bootstrap",
             "--boot-reps", "3"],
            ["simulate", "--config", "study.cfg", "--out", "study"]]
    src = str(Path(inspect.getfile(main)).parents[1])
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(runs)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
    assert (tmp_path / "study" / "study.csv").is_file()


class TestOptions:
    def test_defaults_come_from_their_owners(self):
        args = _build_parser().parse_args(["fit", "--input", "x.csv"])
        assert args.boot_reps == inspect.signature(bootstrap_se).parameters["B"].default
        assert args.seed == SimConfig.seed

    @pytest.mark.parametrize("argv", [
        ["baseline", "--fit-dir", "d", "--seed", "1"],
        ["fit", "--input", "x.csv", "--max-iter", "5"],
    ], ids=["baseline-seed", "fit-max-iter"])
    def test_removed_option_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv + ["--out", str(tmp_path / "o")])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def source(tmp_path, command):
        """The input options of a small run of `command` (baseline: --input)."""
        (tmp_path / "tiny.csv").write_text("id,time,n1\na,1,0\na,3,2\nb,2,1\n")
        (tmp_path / "sim.cfg").write_text(
            "n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 2\n"
        )
        return {
            "fit": ["--input", str(tmp_path / "tiny.csv")],
            "simulate": ["--config", str(tmp_path / "sim.cfg")],
            "baseline": ["--input", str(tmp_path / "tiny.csv")],
        }[command]

    @pytest.mark.parametrize("command", ["fit", "simulate", "baseline"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main([command, *self.source(tmp_path, command), "--out", str(taken)]) == 2
        assert f"cannot write to --out {taken}" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"

    @pytest.mark.parametrize("command, code, message", [
        ("fit", 3, "fit failed"),
        ("baseline", 3, "fit failed"),
        ("simulate", 4, "study aborted: fit failed"),
    ], ids=["fit", "baseline", "simulate"])
    def test_internal_fit_error_exits_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                          command, code, message):
        # an internal check of the fit fails: no traceback and no artifact
        def broken(y, w, edges, within, scratch):
            raise NumericError("isotonic output must be non-decreasing")

        monkeypatch.setattr(estimator, "_pava_runs", broken)
        out = tmp_path / "o"
        assert main([command, *self.source(tmp_path, command), "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == \
            [f"error: {message}: isotonic output must be non-decreasing"]
        assert not any(out.glob("*"))


@pytest.fixture(scope="module")
def fit_dir(fixture_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitrun")
    code = main([
        "fit", "--input", str(fixture_csv), "--out", str(out),
        "--inference", "sandwich",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def seed0_csv(tmp_path_factory):
    # continuous times, several of which %.6g would print past their value
    path = tmp_path_factory.mktemp("seed0") / "panel.csv"
    cfg = SimConfig(n=200, beta1=[.5, -.5], beta2=[1, .5], seed=0)
    write_panel_csv(gen_dataset(cfg, np.random.default_rng([0, 0])), path)
    return path


@pytest.fixture(scope="module")
def seed0_fit(seed0_csv, tmp_path_factory):
    """(fit directory, in-memory fits) of the seed-0 dataset."""
    out = tmp_path_factory.mktemp("seed0fit")
    assert main(["fit", "--input", str(seed0_csv), "--out", str(out),
                 "--inference", "sandwich"]) == 0
    return out, fit(parse_panel_csv(seed0_csv))


class TestBaselineArtifact:
    def test_rows_are_first_knot_each_jump_and_last_knot(self, seed0_fit):
        out, fits = seed0_fit
        for cf in fits:
            knots, values = cf.baseline.knots, cf.baseline.values
            jumps = np.flatnonzero(np.diff(values) != 0) + 1
            keep = np.unique(np.concatenate([[0], jumps, [knots.size - 1]]))
            rows = (out / f"baseline_cause{cf.cause}.csv").read_text().splitlines()
            assert rows[0] == "knot,value"
            assert len(rows) - 1 == keep.size < knots.size / 5
            got = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
            assert got[:, 0].tobytes() == knots[keep].tobytes()  # knots exact
            assert got[:, 1] == pytest.approx(values[keep], rel=5e-6, abs=0)

    @pytest.mark.parametrize("rows,written", [
        ("a,1,2\nb,1,1\n", ["1,1.5"]),
        ("a,1,1\na,2,2\nb,2,0\n", ["1,1", "2,1"]),
    ], ids=["one-time", "two-times-one-value"])
    def test_first_and_last_knot_always_written(self, tmp_path, rows, written):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("id,time,n1\n" + rows)
        out = tmp_path / "o"
        assert main(["fit", "--input", str(csv_path), "--out", str(out)]) == 0
        assert (out / "baseline_cause1.csv").read_text().splitlines() == ["knot,value", *written]

    def test_both_routes_write_the_same_default_curves(self, seed0_csv, seed0_fit, tmp_path):
        from_fit, from_input = tmp_path / "from_fit", tmp_path / "from_input"
        assert main(["baseline", "--fit-dir", str(seed0_fit[0]), "--out", str(from_fit)]) == 0
        assert main(["baseline", "--input", str(seed0_csv), "--out", str(from_input)]) == 0
        for cause in (1, 2):
            name = f"baseline_curve_cause{cause}.csv"
            assert (from_fit / name).read_bytes() == (from_input / name).read_bytes()


class TestCmdBaseline:
    def test_default_grid_reproduces_fitted_values(self, fit_dir, tmp_path):
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(fit_dir), "--out", str(out)]) == 0
        fitted = (fit_dir / "baseline_cause1.csv").read_text().splitlines()[1:]
        curve = (out / "baseline_curve_cause1.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in curve] == [
            line.split(",")[1] for line in fitted
        ]

    def test_grid_point_before_first_knot_is_zero(self, fit_dir, tmp_path):
        out = tmp_path / "curves"
        code = main([
            "baseline", "--fit-dir", str(fit_dir), "--out", str(out),
            "--grid", "0.01,2,50",
        ])
        assert code == 0
        rows = (out / "baseline_curve_cause1.csv").read_text().splitlines()[1:]
        assert float(rows[0].split(",")[1]) == 0.0

    def test_values_non_decreasing(self, fit_dir, tmp_path):
        out = tmp_path / "curves"
        grid = ",".join(str(v) for v in np.linspace(0, 30, 40))
        code = main([
            "baseline", "--fit-dir", str(fit_dir), "--out", str(out), "--grid", grid,
        ])
        assert code == 0
        for cause in (1, 2):
            rows = (out / f"baseline_curve_cause{cause}.csv").read_text().splitlines()[1:]
            vals = [float(r.split(",")[1]) for r in rows]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_reload_collapses_rounded_duplicate_knots(self, tmp_path):
        # a hand-written file may round two times to one knot; the
        # reader keeps the later value
        src = tmp_path / "fitted"
        src.mkdir()
        (src / "baseline_cause1.csv").write_text(
            "knot,value\n1.23456,0.5\n1.23456,0.7\n2,1\n"
        )
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(src), "--out", str(out)]) == 0
        rows = (out / "baseline_curve_cause1.csv").read_text().splitlines()[1:]
        assert rows == ["1.23456,0.7", "2,1"]

    def test_large_fit_output_reloads(self, tmp_path):
        # a dense continuous-time grid, written as its steps
        data = gen_dataset(table1_config(n=500), np.random.default_rng([500, 1]))
        csv_path = tmp_path / "big.csv"
        write_panel_csv(data, csv_path)
        out = tmp_path / "bigfit"
        assert main([
            "fit", "--input", str(csv_path), "--out", str(out),
            "--inference", "sandwich",
        ]) == 0
        curves = tmp_path / "bigcurves"
        assert main(["baseline", "--fit-dir", str(out), "--out", str(curves)]) == 0
        # equal to the fit at every observation time and between every two,
        # to the 6 digits values keep
        loaded = _load_fitted_baselines(out)
        fits = fit(data)
        assert [cause for cause, _ in loaded] == [cf.cause for cf in fits]
        for (_, step), cf in zip(loaded, fits):
            times = cf.baseline.knots
            for t in (times, (times[1:] + times[:-1]) / 2):
                assert step(t) == pytest.approx(cf.baseline(t), rel=5e-6, abs=0)

    def test_missing_fit_dir_exits_2(self, tmp_path):
        assert main([
            "baseline", "--fit-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
        ]) == 2

    def test_fit_dir_without_baselines_exits_2(self, tmp_path, capsys):
        src = tmp_path / "fitted"
        src.mkdir()
        (src / "fit_report.json").write_text("{}\n")
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(src), "--out", str(out)]) == 2
        assert f"no baseline_cause*.csv files in {src}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_input_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,n1\na,1,0\na,x,2\n")
        out = tmp_path / "curves"
        assert main(["baseline", "--input", str(bad), "--out", str(out)]) == 2
        assert "line 3: bad time value 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_source_exits_2(self, tmp_path):
        assert main(["baseline", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("name,text,where", [
        ("baseline_cause1.csv", "knot,value\n", "need at least one knot"),
        ("baseline_cause1.csv", "knot,value\n1,0.5\n2,abc\n", "line 3: expected 'knot,value'"),
        ("baseline_cause1.csv", "knot,value\n1,nan\n", "line 2: expected 'knot,value'"),
        ("baseline_cause1.csv", "knot,value\n3,0.5\n2,0.7\n", "line 3: knot 2 is below"),
        ("baseline_cause1.csv", "knot,value\n1,0.5\n2,0.3\n", "values must be non-decreasing"),
        ("baseline_causeX.csv", "knot,value\n1,0.5\n", "expected a file name"),
        ("baseline_cause0.csv", "knot,value\n1,0.5\n", "expected a file name"),
        ("baseline_cause01.csv", "knot,value\n1,0.5\n", "expected a file name"),
        ("baseline_cause\u0661.csv", "knot,value\n1,0.5\n", "expected a file name"),
    ], ids=["header-only", "non-numeric", "nan", "decreasing-knots",
            "decreasing-values", "bad-name", "cause-zero", "leading-zero", "non-ascii-digit"])
    def test_malformed_fitted_baseline_exits_2_naming_file(self, tmp_path, capsys,
                                                           name, text, where):
        src = tmp_path / "fitted"
        src.mkdir()
        (src / name).write_text(text)
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(src), "--out", str(out)]) == 2
        assert f"{src / name}: {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_two_files_for_one_cause_exit_2(self, tmp_path, capsys):
        # baseline_cause01.csv would also read as cause 1, and whichever
        # file the directory listing gave last would win
        src = tmp_path / "fitted"
        src.mkdir()
        (src / "baseline_cause1.csv").write_text("knot,value\n1,0.5\n2,1\n")
        (src / "baseline_cause01.csv").write_text("knot,value\n1,7\n2,9\n")
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(src), "--out", str(out)]) == 2
        assert f"{src / 'baseline_cause01.csv'}: expected a file name" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_from_input_directly(self, fixture_csv, tmp_path):
        out = tmp_path / "direct"
        assert main(["baseline", "--input", str(fixture_csv), "--out", str(out)]) == 0
        assert (out / "baseline_curve_cause1.csv").exists()

    def test_unconverged_fit_from_input_exits_3_without_curves(self, fixture_csv, tmp_path,
                                                               capsys, monkeypatch):
        # as `fit` does: one Newton step cannot meet the stopping rule
        monkeypatch.setattr(estimator, "_MAX_STEPS", 1)
        out = tmp_path / "direct"
        assert main(["baseline", "--input", str(fixture_csv), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cause 1: not converged" in err and "cause 2: not converged" in err
        assert not list(out.glob("baseline_curve_cause*.csv"))
