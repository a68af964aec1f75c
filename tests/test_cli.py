"""Tests for the command-line experiments."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mollilab

from mollilab.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION,
                          ExperimentConfig, apply_overrides, fit_excess_decay, fmt,
                          lemma_violations, load_config_file, main,
                          run_curvature, run_cover, run_deviation, run_lemmas,
                          run_norms, write_csv)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate_common()

    @pytest.mark.parametrize("field,value", [("m", 4), ("m", 80),
                                             ("alpha", 0.0), ("alpha", 1.0),
                                             ("p", 1.0), ("order", -1),
                                             ("seed", -1)])
    def test_bad_values_rejected(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate_common()

    def test_scale_sweep_needs_five_scales(self):
        cfg = ExperimentConfig(t_min=0.05, t_max=0.2, t_count=4)
        with pytest.raises(ValueError, match="at least 5"):
            cfg.scales(1.0)

    def test_scale_sweep_bounded_by_half_radius(self):
        cfg = ExperimentConfig(t_min=0.05, t_max=0.9)
        with pytest.raises(ValueError, match="r/2"):
            cfg.scales(1.0)

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("geometry = sphere2  # comment\nm = 41\nt-count = 6\n")
        cfg = apply_overrides(ExperimentConfig(), load_config_file(path))
        assert cfg.geometry == "sphere2"
        assert cfg.m == 41
        assert cfg.t_count == 6

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("geometry sphere2\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(ExperimentConfig(), {"gamma": "1"})


class TestCurvatureCommand:
    def test_flat_columns_zero(self):
        header, rows = run_curvature(ExperimentConfig(geometry="flat2", m=21))
        cols = {name: header.index(name) for name in ("sec_min", "sec_max", "scalar")}
        for row in rows:
            for name in cols:
                assert abs(float(row[cols[name]])) < 1e-12

    def test_sphere_sectional_near_reference(self):
        header, rows = run_curvature(ExperimentConfig(geometry="sphere2", m=81))
        i_lo, i_hi = header.index("sec_min"), header.index("sec_max")
        xs = [header.index(f"x{k}") for k in range(2)]
        for row in rows:
            x = np.array([float(row[i]) for i in xs])
            if np.abs(x).max() <= 0.5:  # near the chart centre
                assert float(row[i_lo]) == pytest.approx(1.0, abs=1e-2)
                assert float(row[i_hi]) == pytest.approx(1.0, abs=1e-2)

    def test_mollified_columns_present_when_t_set(self):
        header, _ = run_curvature(ExperimentConfig(geometry="flat2", m=41, t=0.2))
        assert "sec_min_t" in header and "scalar_t" in header


class TestDeviationCommand:
    def test_flat_deviation_at_floor_fit_skipped(self):
        cfg = ExperimentConfig(geometry="flat2-single", m=41,
                               t_min=0.1, t_max=0.4, t_count=5)
        records, summary = run_deviation(cfg)
        assert all(r.riem_excess <= 1e-12 for r in records)
        assert all(r.sec_excess <= 1e-12 for r in records)
        assert summary["fit"].startswith("excess at noise floor")
        assert summary["slope"] is None

    def test_fit_excess_decay_recovers_slope(self):
        ts = np.geomspace(0.01, 0.3, 8)
        ex = 0.7 * ts**1.3
        summary = fit_excess_decay(ts, ex)
        assert summary["fit"] == "ok"
        assert summary["slope"] == pytest.approx(1.3, abs=1e-10)

    def test_fit_skips_below_floor(self):
        summary = fit_excess_decay([0.1, 0.2, 0.4], [0.0, 1e-12, 1e-10])
        assert summary["slope"] is None


class TestNormsCommand:
    def test_flat_report_zero_q(self):
        text = run_norms(ExperimentConfig(geometry="flat2-single", m=21))
        assert "[chart a]" in text
        q_line = [ln for ln in text.splitlines() if ln.startswith("Q=")][0]
        assert abs(float(q_line.split("=")[1])) < 1e-12

    def test_n0_and_harmonic_defect_once_per_chart(self, monkeypatch):
        import mollilab.norms as norms
        calls = {"check_N0": 0, "harmonic_defect": 0}

        def counted(name):
            original = getattr(norms, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(norms, name, counted(name))
        text = run_norms(ExperimentConfig(geometry="sphere2", m=21))
        assert text.count("[chart ") == 2
        assert calls == {"check_N0": 2, "harmonic_defect": 2}

    def test_hyperbolic_report_positive_q(self):
        text = run_norms(ExperimentConfig(geometry="hyperbolic2", m=21))
        q_line = [ln for ln in text.splitlines() if ln.startswith("Q=")][0]
        assert float(q_line.split("=")[1]) > 0.5


class TestLemmasCommand:
    def test_constant_function_rows_have_zero_mollify_lhs(self):
        rows = run_lemmas(ExperimentConfig(m=21))
        const_rows = [r for r in rows if r[0] == "holder_mollify" and r[1] == 0]
        assert const_rows
        for _, _, _, lhs, _, _ in const_rows:
            assert lhs < 1e-12

    def test_no_violations_at_default_settings(self):
        rows = run_lemmas(ExperimentConfig(m=41))
        assert lemma_violations(rows) == []

    def test_sup_rows_never_exceed_one(self):
        rows = run_lemmas(ExperimentConfig(m=21))
        sups = [r for r in rows if r[0] == "sup_nonincrease"]
        assert sups
        for _, _, _, _, _, ratio in sups:
            assert ratio <= 1.0


class TestCoverCommand:
    def test_flat_single_chart(self):
        report, sum_dev = run_cover(ExperimentConfig(geometry="flat2-single", m=21))
        assert report.covered
        assert report.N == 1
        assert sum_dev < 1e-12

    def test_sphere_partition_and_overlap(self):
        report, sum_dev = run_cover(ExperimentConfig(geometry="sphere2", m=41))
        assert report.N == 2
        assert sum_dev < 1e-12

    def test_atlas_file(self, tmp_path):
        path = tmp_path / "atlas.txt"
        path.write_text(
            "dim = 2\n[chart]\nid = a\nr = 1.0\ngenerator = flat\n")
        report, _ = run_cover(ExperimentConfig(geometry="flat2", m=21,
                                               atlas_file=str(path)))
        assert report.covered

    @pytest.mark.parametrize("dim_line", ["", "dim = 4\n", "dim = two\n"])
    def test_atlas_file_without_valid_dim_is_config_error(self, tmp_path, capsys,
                                                          dim_line):
        path = tmp_path / "atlas.txt"
        path.write_text(dim_line + "[chart]\nid = a\nr = 1.0\ngenerator = flat\n")
        code = main(["cover-check", "--geometry", "flat3", "--m", "21",
                     "--atlas-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "dim" in err


class TestMainExitCodes:
    def test_ok(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "flat2", "--m", "21",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_config_error_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "nosuch", "--m", "21",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_config_file_error(self, tmp_path):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text("m = seven\n")
        code = main(["curvature", "--config", str(cfgf)])
        assert code == EXIT_CONFIG

    def test_sweep_too_short_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["deviation", "--geometry", "flat2-single", "--m", "41",
                     "--t-min", "0.1", "--t-max", "0.4", "--t-count", "4",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_negative_order_is_config_error(self, capsys):
        code = main(["norms", "--geometry", "sphere2", "--m", "21", "--order", "-1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "order" in err

    def test_numerical_error(self, tmp_path, capsys):
        # scale below the resolution limit: a numerical failure, not config
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "flat2", "--m", "21",
                     "--t", "0.05", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,chart,t", [
        (["--geometry", "flat3-single", "--m", "9", "--t", "0.45"], "a", "0.45"),
        (["--geometry", "sphere2", "--m", "7", "--t", "0.9"], "north", "0.9")])
    def test_mollified_mask_eroded_to_nothing(self, tmp_path, capsys, argv, chart, t):
        # riemann erodes the mollified mask away: an empty table is a failure
        out = tmp_path / "c.csv"
        code = main(["curvature", *argv, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"chart {chart!r}" in err and "riemann" in err and f"t={t}" in err

    def test_violation_exit_reserved_for_lemmas(self):
        # the shipped kernels satisfy the inequalities, so exit 3 does not
        # occur at defaults; the code path is covered via lemma_violations
        bad = lemma_violations([("sup_nonincrease", 0, 0.1, 1.1, 1.0, 1.1)])
        assert bad and EXIT_VIOLATION == 3

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curvature", "--geometry", "sphere2", "--m", "21",
                "--seed", "1"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_overrides_flags(self, tmp_path):
        cfgf = tmp_path / "exp.cfg"
        cfgf.write_text("geometry = flat2\n")
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "nosuch", "--m", "21",
                     "--config", str(cfgf), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["curvature", "--geometry", "flat2", "--m", "21", "--out", str(out)])
        header, rows = _read_csv(out)
        assert header[0] == "chart"
        assert rows
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


    @pytest.mark.parametrize("argv", [["curvature", "--m", "seven"],
                                      ["deviation", "--interval-slack", "1.0"], []])
    def test_usage_error_is_config_error(self, argv, capsys):
        # argparse would exit 2, which labcli reserves for numerical failure
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "usage: labcli" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["deviation", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: labcli" in capsys.readouterr().out

    def test_write_csv_matches_per_cell_format(self, capsys):
        rows = [["a", "0/1", 0.1, -0.0, float("inf"), float("-inf"), float("nan"), 3,
                 np.float64(1.0 / 3.0), np.float64(-2e-300), True, "", 1e22],
                ["b", "2/3", np.float64(7.0), 0.5, 1.0, 2.0, 3.0, -4, 5.0, 6.0, False, "ok", 0.0],
                [np.int64(4), 12345678901234.5, "", "", "", ""]]
        write_csv(None, ["h"] * 13, rows)
        want = "\n".join([",".join(["h"] * 13)] + [",".join(fmt(v) for v in row)
                                                   for row in rows]) + "\n"
        assert capsys.readouterr().out == want
        assert "-0,inf,-inf,nan,3,0.333333333333,-2e-300,True,,1e+22" in want


def test_cli_import_skips_integrate_and_optimize():
    # a fresh interpreter, importing the same package as this test session
    src = str(Path(mollilab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, mollilab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
