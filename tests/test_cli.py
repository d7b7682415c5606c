import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from panelmean import FitConfig, SimConfig, bootstrap_se, fit, gen_dataset, write_panel_csv
from panelmean.cli import _SIM_KEYS, _build_parser, _echo_config, _parse_sim_config, main
from conftest import table1_config

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

    def test_non_utf8_input_exits_2_naming_line(self, tmp_path, capsys):
        csv_path = tmp_path / "latin1.csv"
        csv_path.write_bytes(b"id,time,n1,z1\na,1,0,1\n\xe9,2,1,1\n")
        code = main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3: not valid UTF-8" in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "x.csv", "--boot-reps", "1"],
        ["fit", "--input", "x.csv", "--epsilon", "0"],
        ["fit", "--input", "x.csv", "--max-iter", "0"],
        ["fit", "--input", "x.csv", "--seed", "-1"],
        ["baseline", "--fit-dir", "d", "--grid", "1,two"],
    ], ids=["boot-reps", "epsilon", "max-iter", "seed", "grid"])
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
        cfg = self.write_config(
            tmp_path, f"n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 2\n{line}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
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
        fast = ["--epsilon", "0.01"]  # the default 500 replications, at half the cost
        cfg = self.write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(first),
                     "--seed", "9", *fast]) == 0
        # the echo carries the seed: the second run leaves --seed at its default
        echo = first / "config_echo.txt"
        assert main(["simulate", "--config", str(echo), "--out", str(second), *fast]) == 0
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

    def test_every_sim_config_field_has_a_key(self):
        named = {"gap_range" if key.startswith("gap_") else key for key in _SIM_KEYS}
        assert named == {f.name for f in fields(SimConfig)}


class TestOptions:
    def test_defaults_come_from_their_owners(self):
        args = _build_parser().parse_args(["fit", "--input", "x.csv"])
        assert args.epsilon == FitConfig().epsilon
        assert args.max_iter == FitConfig().max_iter
        assert args.boot_reps == inspect.signature(bootstrap_se).parameters["B"].default
        assert args.seed == SimConfig.seed

    @pytest.mark.parametrize("command", ["fit", "simulate", "baseline"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "tiny.csv").write_text("id,time,n1\na,1,0\na,3,2\nb,2,1\n")
        (tmp_path / "sim.cfg").write_text(
            "n = 20\nbeta1 = 0.5,1\nbeta2 = -1,0.5\nreplications = 2\n"
        )
        source = {
            "fit": ["--input", str(tmp_path / "tiny.csv")],
            "simulate": ["--config", str(tmp_path / "sim.cfg")],
            "baseline": ["--input", str(tmp_path / "tiny.csv")],
        }[command]
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main([command, *source, "--out", str(taken)]) == 2
        assert f"cannot write to --out {taken}" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"


@pytest.fixture(scope="module")
def fit_dir(fixture_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitrun")
    code = main([
        "fit", "--input", str(fixture_csv), "--out", str(out),
        "--inference", "sandwich",
    ])
    assert code == 0
    return out


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
        # 6-significant-digit printing can merge close knots; the reader
        # keeps the later value
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
        # dense continuous-time grids exercise the rounding-collision path
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

    def test_missing_fit_dir_exits_2(self, tmp_path):
        assert main([
            "baseline", "--fit-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
        ]) == 2

    def test_no_source_exits_2(self, tmp_path):
        assert main(["baseline", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("name,text,where", [
        ("baseline_cause1.csv", "knot,value\n", "need at least one knot"),
        ("baseline_cause1.csv", "knot,value\n1,0.5\n2,abc\n", "line 3: expected 'knot,value'"),
        ("baseline_cause1.csv", "knot,value\n1,nan\n", "line 2: expected 'knot,value'"),
        ("baseline_cause1.csv", "knot,value\n3,0.5\n2,0.7\n", "line 3: knot 2 is below"),
        ("baseline_cause1.csv", "knot,value\n1,0.5\n2,0.3\n", "values must be non-decreasing"),
        ("baseline_causeX.csv", "knot,value\n1,0.5\n", "expected a file name"),
    ], ids=["header-only", "non-numeric", "nan", "decreasing-knots",
            "decreasing-values", "bad-name"])
    def test_malformed_fitted_baseline_exits_2_naming_file(self, tmp_path, capsys,
                                                           name, text, where):
        src = tmp_path / "fitted"
        src.mkdir()
        (src / name).write_text(text)
        out = tmp_path / "curves"
        assert main(["baseline", "--fit-dir", str(src), "--out", str(out)]) == 2
        assert f"{src / name}: {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_from_input_directly(self, fixture_csv, tmp_path):
        out = tmp_path / "direct"
        assert main(["baseline", "--input", str(fixture_csv), "--out", str(out)]) == 0
        assert (out / "baseline_curve_cause1.csv").exists()

    def test_unconverged_fit_from_input_exits_3_without_curves(self, fixture_csv, tmp_path,
                                                               capsys):
        # as `fit` does: one sweep cannot meet the stopping rule
        out = tmp_path / "direct"
        assert main(["baseline", "--input", str(fixture_csv), "--out", str(out),
                     "--max-iter", "1"]) == 3
        err = capsys.readouterr().err
        assert "cause 1: not converged" in err and "cause 2: not converged" in err
        assert not list(out.glob("baseline_curve_cause*.csv"))
