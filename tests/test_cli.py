"""Tests for the command-line experiments."""
import io
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import math

import numpy as np
import pytest
from scipy import ndimage

import mollilab
import mollilab.atlas as atlas
import mollilab.curvature as curvature
import mollilab.lattice as lattice
from mollilab import cli
from mollilab.atlas import assemble_mollified
from mollilab.curvature import riemann, sec_extreme_fields, sec_spectrum
from mollilab.kernels import scale_kernel
from mollilab.modelzoo import get_geometry
from mollilab.norms import check_N0
from deviation_parts import whole_chart_sweep
from lemma_parts import pairwise_lemmas

from mollilab.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION,
                          Block, ExperimentConfig, apply_overrides, fit_excess_decay, fmt,
                          lemma_violations, load_config_file, main,
                          run_curvature, run_cover, run_deviation, run_lemmas,
                          run_norms, write_csv)


ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

# the settings each subcommand reads, and a valid value of each setting some subcommand does not
_READS = {"curvature": "geometry R amp m t alpha seed out",
          "deviation": "geometry R amp m t_min t_max t_count alpha seed out",
          "norms": "geometry R amp m alpha p order seed out",
          "lemmas": "m alpha p seed out",
          "cover-check": "geometry R amp m alpha seed out atlas_file"}
_SETTING_VALUES = {"geometry": "flat2", "R": "1.0", "amp": "0.3", "t": "0.2", "t_min": "0.1",
                   "t_max": "0.2", "t_count": "5", "p": "2.0", "order": "1",
                   "atlas_file": str(EXAMPLES / "two.atlas")}


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
                                             ("p", 1.0), ("p", math.inf), ("p", math.nan),
                                             ("order", -1),
                                             ("seed", -1)])
    def test_bad_values_rejected(self, field, value):
        cfg = ExperimentConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate_common()

    def test_scale_sweep_needs_five_scales(self):
        cfg = ExperimentConfig(t_min=0.05, t_max=0.2, t_count=4)
        with pytest.raises(ValueError, match="at least 5"):
            cfg.scales(1.0)

    def test_scale_sweep_bounded_by_half_radius(self, tmp_path, capsys):
        # the sweep ends at t_max itself, so t_max = r/2 is out of range too
        for t_max in (0.9, 0.5):
            cfg = ExperimentConfig(t_min=0.05, t_max=t_max)
            with pytest.raises(ValueError, match="r/2"):
                cfg.scales(1.0)
        out = tmp_path / "dev.csv"
        code = main(["deviation", "--geometry", "hyperbolic3", "--m", "21",
                     "--t-min", "0.1", "--t-max", "0.25", "--t-count", "5",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "r/2" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("geometry = sphere2  # comment\nm = 41\nt-count = 6\n")
        cfg = apply_overrides(ExperimentConfig(), load_config_file(path), "deviation")
        assert cfg.geometry == "sphere2"
        assert cfg.m == 41
        assert cfg.t_count == 6

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        for body, match in (("geometry sphere2\n", "key=value"),
                            ("m = 21\ngeometry = flat2\nm = 41\n", ":3: key 'm' repeats line 1"),
                            ("t-count = 6\nt_count = 7\n", ":2: key 't_count' repeats line 1")):
            path.write_text(body)
            with pytest.raises(ValueError, match=match):
                load_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(ExperimentConfig(), {"gamma": "1"}, "curvature")


def _column(header, block, name):
    """Column `name` of a curvature block; the chart and node lead the header."""
    return block.columns[header.index(name) - 2]


def _curvature_rows(argv):
    """(header, rows) of the curvature table of a `labcli curvature` argv,
    one list of cells per row, every row held."""
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    geo = get_geometry(cfg.geometry)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    header = ["chart", "node", *(f"x{k}" for k in range(geo.n)), "sec_min", "sec_max", "scalar"]
    mollified = {}
    if cfg.t is not None:
        header += ["sec_min_t", "sec_max_t", "scalar_t"]
        mollified = assemble_mollified(geo.atlas, samples, scale_kernel(geo.n, cfg.t, lat.h))
    X = lat.coords()
    rows = []
    for cid, g in sorted(samples.items()):
        Rs = [riemann(gm) for gm in [g] + ([mollified[cid]] if mollified else [])]
        valid = np.logical_and.reduce([R.mask for R in Rs])
        fields = [f for R in Rs for f in sec_extreme_fields(R)]
        for node in np.argwhere(valid).tolist():
            idx = tuple(node)
            rows.append([cid, "/".join(map(str, node)), *X[idx].tolist(),
                         *(float(f[idx]) for f in fields)])
    return header, rows


def _per_cell_curvature_csv(argv):
    """The curvature table written from row lists, every cell by `fmt`:
    the reference for `Block` and `write_csv`."""
    header, rows = _curvature_rows(argv)
    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _patch_bindings(monkeypatch, name, replacement, skip=()):
    """Replace `name` in every mollilab module that binds it, but those in `skip`."""
    for modname, module in list(sys.modules.items()):
        if (modname.startswith("mollilab.") and modname not in skip
                and hasattr(module, name)):
            monkeypatch.setattr(module, name, replacement)


def _refuse_inverses_outside_curvature(monkeypatch):
    """Only the Riemann builder inverts a metric, on its crop: every other
    `inverse_planes` binding raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Riemann builder inverts its crop, not g's whole grid")
    _patch_bindings(monkeypatch, "inverse_planes", refuse, skip=("mollilab.curvature",))


class TestCurvatureCommand:
    def test_flat_columns_zero(self):
        header, blocks = run_curvature(ExperimentConfig(geometry="flat2", m=21))
        for block in blocks:
            for name in ("sec_min", "sec_max", "scalar"):
                for value in _column(header, block, name):
                    assert abs(float(value)) < 1e-12

    def test_sphere_sectional_near_reference(self):
        header, blocks = run_curvature(ExperimentConfig(geometry="sphere2", m=81))
        for block in blocks:
            xs = np.column_stack([_column(header, block, f"x{k}") for k in range(2)])
            for x, lo, hi in zip(xs, _column(header, block, "sec_min"),
                                 _column(header, block, "sec_max")):
                if np.abs(x).max() <= 0.5:  # near the chart centre
                    assert float(lo) == pytest.approx(1.0, abs=1e-2)
                    assert float(hi) == pytest.approx(1.0, abs=1e-2)

    def test_mollified_columns_present_when_t_set(self):
        header, _ = run_curvature(ExperimentConfig(geometry="flat2", m=41, t=0.2))
        assert "sec_min_t" in header and "scalar_t" in header

    @pytest.mark.parametrize("argv", [
        ["curvature", "--geometry", "sphere3", "--m", "17", "--t", "0.3"],
        ["curvature", "--geometry", "sphere2", "--m", "21", "--t", "0.3"],
        ["curvature", "--geometry", "hyperbolic2", "--m", "21"],
        ["curvature", "--geometry", "flat3-single", "--m", "9"]])
    def test_table_matches_per_cell_rows(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == _per_cell_curvature_csv(argv)

    def test_peak_memory_below_per_cell_rows(self, tmp_path):
        # the blocks hold no row lists: the op peaks at most 0.9 x the reference's
        argv = ["curvature", "--geometry", "sphere3", "--m", "17", "--t", "0.3"]
        out = tmp_path / "c.csv"
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: main([*argv, "--out", str(out)]),
                        lambda: _per_cell_curvature_csv(argv)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.exists()
        assert peaks[0] <= 0.9 * peaks[1]

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_failure_at_second_chart_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                    to_file):
        # every chart is computed before the table is written into the
        # stream, which is open from before the first stage
        calls = []
        real = cli.riemann

        def failing(g):
            calls.append(g)
            if len(calls) == 3:  # the second chart's raw metric
                raise ValueError("injected failure")
            return real(g)

        monkeypatch.setattr(cli, "riemann", failing)
        out = tmp_path / "c.csv"
        argv = ["curvature", "--geometry", "sphere2", "--m", "21", "--t", "0.3"]
        code = main([*argv, "--out", str(out)] if to_file else argv)
        assert code == EXIT_NUMERICAL
        assert len(calls) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "injected failure" in captured.err

    def test_each_metric_diagonalised_once(self, tmp_path, monkeypatch):
        # two sampled charts and two glued g^[t]: each is checked where it
        # is made, and the Riemann builder reads it without a second check;
        # the closed-form certificate decides every node, so no eigenvalue
        # is computed
        stages, eigs = [], []
        check_definite, eigenvalues = lattice.check_definite, lattice.packed_eigenvalues

        def checked(g, stage):
            stages.append(stage.split(":")[0])
            return check_definite(g, stage)

        def counted(comps, n, stage):
            eigs.append(comps)
            return eigenvalues(comps, n, stage)

        for module in (lattice, atlas):
            monkeypatch.setattr(module, "check_definite", checked)
        monkeypatch.setattr(lattice, "packed_eigenvalues", counted)
        code = main(["curvature", "--geometry", "sphere3", "--m", "25", "--t", "0.3",
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_OK
        assert stages == ["sample_metric"] * 2 + ["assemble_mollified"] * 2
        assert eigs == []

    def test_each_metric_inverted_once(self, tmp_path, monkeypatch):
        # the Riemann builder inverts each of the four metrics, on its crop;
        # the scalar curvature comes from the solve that gives the extremes,
        # which inverts none
        calls = []
        inverse_planes = curvature.inverse_planes

        def counted(comps, n, shift=0):
            calls.append(comps)
            return inverse_planes(comps, n, shift)

        monkeypatch.setattr(curvature, "inverse_planes", counted)
        _refuse_inverses_outside_curvature(monkeypatch)
        code = main(["curvature", "--geometry", "sphere3", "--m", "25", "--t", "0.3",
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_OK
        assert len(calls) == 4


def _refiltered_deviation_records(cfg):
    """Reference: the deviation sweep refiltering every envelope from the raw
    fields at each scale with ndimage's edge-replicating max/min filters."""
    def ball_filter(values, steps, mode):
        filt = ndimage.maximum_filter if mode == "max" else ndimage.minimum_filter
        return filt(values, size=2 * steps + 1, mode="nearest")

    geo = cli._geometry(cfg)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    cid = geo.atlas.charts[0].id
    g = samples[cid]
    Q = check_N0(g)
    base_R = riemann(g)
    ev0, _ = sec_spectrum(base_R)
    ev_inf = np.where(base_R.mask[..., None], ev0, np.inf)
    ev_sup = np.where(base_R.mask[..., None], ev0, -np.inf)
    lo0, hi0 = ev_inf[..., 0], ev_sup[..., -1]
    probe = lat.ball_mask(geo.r / 4.0, norm="max")
    records = []
    for t in cfg.scales(geo.r):
        Rt = riemann(assemble_mollified(geo.atlas, samples, scale_kernel(geo.n, t, lat.h))[cid])
        region = probe & Rt.mask & base_R.mask
        evt, _ = sec_spectrum(Rt)
        # each eigenvalue against the ball interval of the raw one at the Riemann radius
        steps = math.ceil(math.exp(Q) * t / lat.h) + 1
        ev_lo = np.stack([ball_filter(ev_inf[..., i], steps, "min")
                          for i in range(ev0.shape[-1])], axis=-1)
        ev_hi = np.stack([ball_filter(ev_sup[..., i], steps, "max")
                          for i in range(ev0.shape[-1])], axis=-1)
        r_exc = float(cli._interval_distance(evt, ev_lo, ev_hi)[region].max())
        steps_sec = math.ceil(t / lat.h) + 1
        lot, hit = evt[..., 0], evt[..., -1]
        lo_ball = ball_filter(lo0, steps_sec, "min")
        hi_ball = ball_filter(hi0, steps_sec, "max")
        c = cli.INTERVAL_SLACK * t
        cand = np.stack([lo_ball * (1 - c), lo_ball * (1 + c),
                         hi_ball * (1 - c), hi_ball * (1 + c)])
        ilo, ihi = cand.min(axis=0), cand.max(axis=0)
        d = np.maximum(cli._interval_distance(lot, ilo, ihi),
                       cli._interval_distance(hit, ilo, ihi))
        records.append(cli.DeviationRecord(t=t, riem_excess=r_exc,
                                           sec_excess=float(d[region].max())))
    return records


class TestDeviationCommand:
    @pytest.mark.parametrize("m,t_min", [(17, 0.35), (21, 0.3)])
    def test_grown_envelopes_equal_refiltered(self, m, t_min, monkeypatch):
        intervals = []  # (lo, hi) of the reference interval over the whole grid

        def recorded(x, lo, hi):
            intervals.append((lo.copy(), hi.copy()))
            return distance(x, lo, hi)

        distance = cli._interval_distance
        monkeypatch.setattr(cli, "_interval_distance", recorded)
        cfg = ExperimentConfig(geometry="sphere3", m=m, t_min=t_min, t_max=0.6, t_count=5)
        records, _ = run_deviation(cfg)
        grown = intervals[:]
        intervals.clear()
        assert records == _refiltered_deviation_records(cfg)
        # per scale: the spectrum interval, then the sectional one for lo and hi
        assert len(grown) == len(intervals) == 15
        for (lo, hi), (ref_lo, ref_hi) in zip(grown, intervals):
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        # nonzero excesses: the clamp at 0 does not hide the spectrum envelopes;
        # at m=21 a ball one step short moves riem_excess
        assert all(r.riem_excess > 0.005 for r in records[:3])

    # (settings, the window's trim): dev2 at both signs of its amplitude, the
    # README's config example (two charts), a cropped 3-d chart, the
    # two-chart flat atlas, and sphere3, where the envelope's ball e^Q t
    # covers the whole chart
    WINDOWED = [
        (dict(geometry="pflat2", amp=0.3, alpha=0.6, m=161, t_min=0.015625, t_max=0.125,
              t_count=8), 46),
        (dict(geometry="pflat2", amp=-0.3, alpha=0.6, m=161, t_min=0.015625, t_max=0.125,
              t_count=8), 46),
        (dict(geometry="sphere2", m=81, t_min=0.06, t_max=0.25, t_count=8), 4),
        (dict(geometry="pflat3", m=25, t_min=0.1, t_max=0.3, t_count=5), 2),
        (dict(geometry="flat2", m=81, t_min=0.1, t_max=0.2, t_count=5), 19),
        (dict(geometry="sphere3", m=25, t_min=0.3, t_max=0.9, t_count=5), 0),
    ]

    @pytest.mark.parametrize("settings,trim", WINDOWED,
                             ids=["dev2", "dev2-neg", "sphere2", "pflat3", "flat2", "sphere3"])
    def test_window_sweep_equals_the_whole_chart(self, settings, trim):
        # the records, and at every scale the arrays they are maxima of, on
        # the probe region: a record clamped to 0 (all of dev2's) would hide
        # a moved eigenvalue or envelope
        cfg = ExperimentConfig(**settings)
        count = 0
        for win, whole in zip(cli.deviation_sweep(cfg), whole_chart_sweep(cfg), strict=True):
            assert win.record == whole.record
            assert win.lattice.trim == trim
            crop = (slice(trim, cfg.m - trim),) * win.lattice.n
            assert np.array_equal(win.lattice.coords(), whole.lattice.coords()[crop])
            outside = whole.region.copy()
            outside[crop] = False
            assert not outside.any()
            region = win.region
            assert region.any() and np.array_equal(region, whole.region[crop])
            for a, b in ((win.evt, whole.evt), (win.scalar, whole.scalar),
                         (win.spec_env, whole.spec_env), (win.sec_env, whole.sec_env)):
                assert np.array_equal(a[region], b[crop][region])
            count += 1
        assert count == cfg.t_count

    def test_each_metric_inverted_once(self, tmp_path, monkeypatch):
        # the Riemann builder inverts the raw metric and each scale's
        # mollified one, on its crop; the spectrum solve inverts none
        calls = []
        inverse_planes = curvature.inverse_planes

        def counted(comps, n, shift=0):
            calls.append(comps)
            return inverse_planes(comps, n, shift)

        monkeypatch.setattr(curvature, "inverse_planes", counted)
        _refuse_inverses_outside_curvature(monkeypatch)
        code = main(["deviation", "--geometry", "pflat2", "--amp", "0.3", "--alpha", "0.6",
                     "--m", "161", "--t-min", "0.015625", "--t-max", "0.125",
                     "--t-count", "8", "--seed", "1", "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_OK
        assert len(calls) == 1 + 8

    def test_seed_does_not_change_output(self, tmp_path):
        # no section is sampled: every seed writes the same bytes, on a
        # sweep where riem_excess is positive at every scale
        outs = []
        for seed in (0, 1, 7):
            out = tmp_path / f"d{seed}.csv"
            assert main(["deviation", "--geometry", "sphere2", "--m", "41",
                         "--t-min", "0.15", "--t-max", "0.6", "--t-count", "5",
                         "--seed", str(seed), "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        header, *rows = outs[0].decode().splitlines()
        k = header.split(",").index("riem_excess")
        assert all(float(row.split(",")[k]) > 0.0 for row in rows)

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

    def test_eigenvalues_taken_once_per_chart_by_check_N0(self, tmp_path, monkeypatch):
        # the metric check in sample_metric certifies every node in closed
        # form; N0_Q reads the eigenvalues of the whole grid, which check_N0
        # takes once per chart by Jacobi: LAPACK never runs
        whole, certified, lapack = [], [], []
        eigenvalues, certify_definite = lattice.packed_eigenvalues, lattice.certify_definite
        eigvalsh = np.linalg.eigvalsh

        def counted(comps, n, stage):
            whole.append((sys._getframe(1).f_code.co_name, comps.shape))
            return eigenvalues(comps, n, stage)

        def certify(comps):
            # the caller of the metric check that runs the certificate
            certified.append(sys._getframe(2).f_code.co_name)
            return certify_definite(comps)

        def solver(a):
            lapack.append(a.shape)
            return eigvalsh(a)

        _patch_bindings(monkeypatch, "packed_eigenvalues", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", solver)
        _patch_bindings(monkeypatch, "certify_definite", certify)
        code = main(["norms", "--geometry", "sphere3", "--m", "33",
                     "--out", str(tmp_path / "n.txt")])
        assert code == EXIT_OK
        assert len(get_geometry("sphere3").atlas.charts) == 2
        assert certified == ["sample_metric"] * 2
        assert lapack == []
        assert whole == [("check_N0", (33, 33, 33, 6))] * 2

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

    @pytest.mark.parametrize("p", ["1.001", "1.005"])
    def test_p_near_one_finds_no_violation(self, p, tmp_path, capsys):
        # the kernel's L^q norm, q = p/(p - 1), is finite and within its bound
        out = tmp_path / "l.csv"
        assert main(["lemmas", "--m", "35", "--p", p, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        header, rows = _read_csv(out)
        lq = [row for row in rows if row[0] == "kernel_lq"]
        assert len(lq) == 5
        assert all(math.isfinite(float(row[3])) and float(row[5]) <= 1.0 for row in lq)

    @pytest.mark.parametrize("m", [19, 35, 81])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p", [1.001, 8.0])
    def test_stacked_rows_equal_the_pair_loop_bit_for_bit(self, m, seed, p):
        """The stacked suite gives the per-pair loop's rows, float bytes and
        all.  alpha = 1 is refused by the config, so 0.99 stands for the
        Lipschitz end."""
        for alpha in (0.3, 0.6, 0.99):
            got = run_lemmas(ExperimentConfig(m=m, seed=seed, p=p, alpha=alpha))
            want = pairwise_lemmas(m, alpha, p, seed)
            assert [row[:2] for row in got] == [row[:2] for row in want]
            assert (np.array([row[2:] for row in got]).tobytes()
                    == np.array([row[2:] for row in want]).tobytes()), (m, seed, p, alpha)

    def test_sampled_kernel_breaks_the_lq_bound_for_p_near_one(self, tmp_path, capsys):
        """At m = 19 the largest scale t = r/8 is 1.125 h, a 3-tap kernel whose
        peak density exceeds the continuous bound 2^{n/q} t^{-n/p} for p near
        1: one kernel_lq row fails and the run exits 3 with its table
        written.  p = 1.1 and the default p = 8 hold the bound at that m."""
        out = tmp_path / "l.csv"
        assert main(["lemmas", "--m", "19", "--p", "1.01", "--out", str(out)]) == EXIT_VIOLATION
        assert capsys.readouterr().err == (
            "violation: kernel_lq index=-1 t=0.125 lhs=70.8330791517 rhs=62.2670074372 "
            "ratio=1.13756999199\n")
        header, rows = _read_csv(out)
        assert len(rows) == 5 * (1 + 3 * cli.LEMMA_PAIRS)
        for p in (["--p", "1.1"], []):
            assert main(["lemmas", "--m", "19", *p, "--out", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""

    def test_m_the_sweep_cannot_run_is_config_error(self, tmp_path, capsys):
        # at m <= 17 the largest scale, r/8, is not above h
        out = tmp_path / "l.csv"
        assert main(["lemmas", "--m", "17", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "m=17" in err and "m >= 19" in err
        assert not out.exists()
        assert main(["lemmas", "--m", "19", "--out", str(out)]) == EXIT_OK
        assert out.exists()


class TestCoverCommand:
    def test_flat_single_chart(self):
        report = run_cover(ExperimentConfig(geometry="flat2-single", m=21))
        assert report.covered
        assert report.N == 1
        assert report.partition_sum_dev < 1e-12

    def test_sphere_partition_and_overlap(self):
        report = run_cover(ExperimentConfig(geometry="sphere2", m=41))
        assert report.N == 2
        assert report.partition_sum_dev < 1e-12

    def test_atlas_file(self, tmp_path):
        path = tmp_path / "atlas.txt"
        path.write_text(
            "dim = 2\n[chart]\nid = a\nr = 1.0\ngenerator = flat\n")
        for atlas_file in (path, EXAMPLES / "two.atlas"):
            report = run_cover(ExperimentConfig(geometry="flat2", m=21,
                                                atlas_file=str(atlas_file)))
            assert report.covered

    @pytest.mark.parametrize("setting,value", [("geometry", "sphere2"), ("R", "3"),
                                               ("amp", "0.2")])
    def test_atlas_file_beside_a_geometry_setting_is_config_error(self, tmp_path, capsys,
                                                                  setting, value):
        # an atlas file is the whole geometry: a shipped model's setting given
        # with it, as a flag or as a config key, is refused, not dropped
        out = tmp_path / "report.txt"
        two = str(EXAMPLES / "two.atlas")
        flag = "--" + setting
        want = (f"config error: atlas_file and {setting} cannot be given together: "
                f"an atlas file is the whole geometry\n")
        argv = ["cover-check", "--m", "21", "--out", str(out)]
        assert main([*argv, flag, value, "--atlas-file", two]) == EXIT_CONFIG
        assert capsys.readouterr().err == want
        cfgf = tmp_path / "exp.cfg"
        for body, extra in ((f"{setting} = {value}\n", ["--atlas-file", two]),
                            (f"atlas-file = {two}\n", [flag, value]),
                            (f"{setting} = {value}\natlas_file = {two}\n", [])):
            cfgf.write_text(body)
            assert main([*argv, *extra, "--config", str(cfgf)]) == EXIT_CONFIG
            assert capsys.readouterr().err == want
        assert not out.exists()
        # the flag and the atlas file each run alone
        assert main([*argv, "--atlas-file", two]) == EXIT_OK
        assert main([*argv, flag, value]) == EXIT_OK

    @pytest.mark.parametrize("dim_line", ["", "dim = 4\n", "dim = two\n"])
    def test_atlas_file_without_valid_dim_is_config_error(self, tmp_path, capsys,
                                                          dim_line):
        path = tmp_path / "atlas.txt"
        path.write_text(dim_line + "[chart]\nid = a\nr = 1.0\ngenerator = flat\n")
        code = main(["cover-check", "--m", "21", "--atlas-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "dim" in err


    @pytest.mark.parametrize("charts,transition,chart", [
        ("a 0", "", "'a'"), ("a -1", "", "'a'"), ("a nan", "", "'a'"), ("a inf", "", "'a'"),
        ("a 1.0|b 0.5", "", "'b'"), ("a 1.0|a 1.0", "", "'a'"),
        ("a 1.0", "a zz", "'zz'")])
    def test_bad_atlas_chart_is_config_error(self, tmp_path, capsys, charts, transition,
                                             chart):
        path = tmp_path / "atlas.txt"
        text = "dim = 2\n" + "".join(f"[chart]\nid = {cid}\nr = {r}\ngenerator = flat\n"
                                     for cid, r in (c.split() for c in charts.split("|")))
        if transition:
            text += f"[transition]\npair = {transition}\nmap = affine theta=0.5\n"
        path.write_text(text)
        code = main(["cover-check", "--m", "21", "--atlas-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and chart in err

    @pytest.mark.parametrize("dim,generator,map_,culprit", [
        (2, "sphere_conformal R=0.0", "inversion R=1.0",
         "chart 'a': sphere_conformal R must be positive and finite, got 0.0"),
        (2, "sphere_conformal R=1.0", "inversion R=-1.0",
         "transition a b: inversion R must be positive and finite, got -1.0"),
        (3, "poincare_ball", "", "chart 'a': poincare_ball needs the chart cube inside the "
                                 "unit ball"),
        (2, "sphere_conformal R=1e200", "inversion R=1.0",
         "chart 'a': sphere_conformal conformal factor cannot be evaluated"),
        (2, "sphere_conformal R=1e-200", "inversion R=1.0",
         "chart 'a': sphere_conformal conformal factor cannot be evaluated"),
        (2, "pflat amp=50", "", "chart 'a': pflat perturbation amplitude exceeds the "
                                "positive-definiteness cap"),
        (2, "pflat alpha=1.5", "", "chart 'a': pflat alpha must lie in (0, 1), got 1.5"),
        (2, "pflat amp=inf", "", "chart 'a': pflat perturbation amplitude amp must be finite, "
                                 "got inf")],
        ids=["sphere_R", "inversion_R", "poincare_cube", "sphere_R_huge", "sphere_R_tiny",
             "pflat_amp_cap", "pflat_alpha", "pflat_amp_inf"])
    def test_bad_parameter_value_is_config_error(self, tmp_path, capsys, dim, generator, map_,
                                                 culprit):
        # the builder checks the values the text checks let through
        path = tmp_path / "atlas.txt"
        text = f"dim = {dim}\n" + "".join(
            f"[chart]\nid = {cid}\nr = 1.0\ngenerator = {generator}\n" for cid in "ab")
        if map_:
            text += f"[transition]\npair = a b\nmap = {map_}\n"
        path.write_text(text)
        code = main(["cover-check", "--m", "21", "--atlas-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and culprit in err

    @pytest.mark.parametrize("body,culprit", [
        ("[Chart]\nid = c\nr = 1.0\ngenerator = flat\n", "line 10"),
        ("theta 0.5\n", "line 10"),
        ("dim = 2\n", "line 10"),
        ("[transition]\npair = a b\nmap = affine thta=0.5 shift=10\n", "'thta=0.5'"),
        ("[transition]\npair = a b\nmap = affine theta\n", "'theta'"),
        ("[chart]\nid = c\nr = 1.0\ngenerator = flat extra\n", "'extra'"),
        ("[chart]\nid = c\nr = 1.0\ngenerator = sphere_conformal R=x\n", "'R=x'"),
        ("[chart]\nid = c\nr = 1.0\n", "line 10: [chart] section lacks key 'generator'"),
        ("[transition]\nmap = affine theta=0.5\n",
         "line 10: [transition] section lacks key 'pair'"),
        ("[chart]\nid = c\nr = 1.0\nr = 0.5\ngenerator = flat\n",
         "line 13: key 'r' repeats line 12"),
        ("[transition]\npair = a b\nmap = affine theta=0.5\nmap = affine theta=0.1\n",
         "line 13: key 'map' repeats line 12"),
        ("[transition]\npair = a\nmap = affine theta=0.5\n",
         "line 11: [transition] pair must name two chart ids, got 'a'"),
        ("[chart]\nid = c\nr = one\ngenerator = flat\n",
         "line 12: [chart] r must be a number, got 'one'"),
        ("[transition]\npair = a a\nmap = affine theta=0.5\n",
         "line 11: transition pair a a joins a chart to itself")])
    def test_malformed_atlas_file_is_config_error(self, tmp_path, capsys, body, culprit):
        path = tmp_path / "atlas.txt"
        charts = "".join(f"[chart]\nid = {cid}\nr = 1.0\ngenerator = flat\n" for cid in "ab")
        path.write_text("dim = 2\n" + charts + body)
        code = main(["cover-check", "--m", "21", "--atlas-file", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and culprit in err


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

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_bytes(b"\xff\n")
        out = tmp_path / "c.csv"
        code = main(["curvature", "--config", str(cfgf), "--m", "21", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad config file {cfgf}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing/c.csv", "."], ids=["missing_dir", "directory"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, where):
        out = tmp_path / where
        code = main(["curvature", "--geometry", "flat2", "--m", "21", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["missing/c.csv", "."], ids=["missing_dir", "directory"])
    @pytest.mark.parametrize("argv", [
        ["curvature", "--geometry", "sphere3", "--m", "41", "--t", "0.3"],
        ["deviation", "--geometry", "pflat2", "--m", "161", "--t-min", "0.015625",
         "--t-max", "0.125", "--t-count", "8"]], ids=["curvature", "deviation"])
    def test_unwritable_out_fails_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                    where, argv):
        def reached(g):
            pytest.fail("the Riemann builder ran before --out was refused")

        monkeypatch.setattr(cli, "riemann", reached)
        out = tmp_path / where
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failed_run_leaves_existing_out_untouched(self, tmp_path, capsys, monkeypatch):
        def failing(g):
            raise ValueError("injected failure")

        monkeypatch.setattr(cli, "riemann", failing)
        out = tmp_path / "c.csv"
        out.write_text("earlier table\n")
        code = main(["curvature", "--geometry", "sphere2", "--m", "21", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "injected failure" in capsys.readouterr().err
        assert out.read_text() == "earlier table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]

    @pytest.mark.parametrize("via_link", [False, True], ids=["file", "symlink"])
    def test_out_replaces_an_existing_file(self, tmp_path, capsys, via_link):
        # through a symlink, the file it names is replaced and the link kept
        (tmp_path / "tables").mkdir()
        target = tmp_path / "tables" / "c.csv"
        target.write_text("earlier table\n")
        out = target
        if via_link:
            out = tmp_path / "latest.csv"
            out.symlink_to(target)
        argv = ["curvature", "--geometry", "flat2", "--m", "21"]
        assert main(argv) == EXIT_OK
        table = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert target.read_text() == table
        assert out.is_symlink() == via_link
        assert sorted(p.name for p in target.parent.iterdir()) == ["c.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_that_is_a_pipe_is_written_through(self, tmp_path, capsys):
        # a pipe (like a device) is written as it stands, not replaced by a file
        argv = ["cover-check", "--geometry", "sphere2", "--m", "21"]
        assert main(argv) == EXIT_OK
        report = capsys.readouterr().out
        fifo = tmp_path / "report"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*argv, "--out", str(fifo)]) == EXIT_OK
            assert os.read(reader, 1 << 16).decode() == report
        finally:
            os.close(reader)
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]

    def test_failed_write_names_the_out_path(self, tmp_path, capsys, monkeypatch):
        real_fdopen = os.fdopen

        def full_stream(*args, **kwargs):
            stream = real_fdopen(*args, **kwargs)

            def full(text):
                raise OSError(28, "No space left on device")

            stream.write = full
            return stream

        monkeypatch.setattr(cli.os, "fdopen", full_stream)
        out = tmp_path / "c.csv"
        assert main(["cover-check", "--geometry", "sphere2", "--m", "21",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: cannot write {out}: No space left on device\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_device_that_is_full_is_config_error(self, capsys):
        assert main(["curvature", "--geometry", "flat2", "--m", "21",
                     "--out", "/dev/full"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: cannot write /dev/full: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_stdout_that_is_full_is_config_error(self, buffered):
        # no traceback, and nothing left for Python's flush of stdout at exit
        src = str(Path(mollilab.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "mollilab.cli", "cover-check",
                                   "--geometry", "sphere2", "--m", "21"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == "config error: cannot write stdout: No space left on device\n"

    def test_stdout_stream_that_is_full_is_config_error(self, capsys, monkeypatch):
        # a stdout with no file descriptor, as when labcli runs inside another program
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["cover-check", "--geometry", "flat2", "--m", "9"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: cannot write stdout: No space left on device\n")

    def test_closed_stdout_is_refused_before_any_stage(self, capsys, monkeypatch):
        # Python sets sys.stdout to None when the process starts with stdout closed
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(cli, "run_cover", lambda cfg: pytest.fail("a stage ran"))
        assert main(["cover-check", "--geometry", "flat2", "--m", "9"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: cannot write stdout: Bad file descriptor\n")

    def test_out_of_memory_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a lattice too large for memory fails in whichever stage allocates
        # first; a stage that raises MemoryError stands in for it here
        def exhausted(g):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "riemann", exhausted)
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "sphere2", "--m", "21", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("numerical failure: Unable to allocate 7.28 TiB "
                                           "for an array\n")
        assert not out.exists()

    def test_sweep_too_short_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["deviation", "--geometry", "flat2-single", "--m", "41",
                     "--t-min", "0.1", "--t-max", "0.4", "--t-count", "4",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_negative_order_is_config_error(self, capsys):
        # an order the lattice cannot difference (m < 2 order + 1) is a config error too
        for m, order, named in (("21", "-1", "order"), ("5", "3", "m=5")):
            code = main(["norms", "--geometry", "sphere2", "--m", m, "--order", order])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "config error" in err and "order" in err and named in err

    @pytest.mark.parametrize("argv,named", [
        (["curvature", "--geometry", "pflat2", "--amp", "nan"], "amp must be finite, got nan"),
        (["curvature", "--geometry", "pflat3", "--amp=-inf"], "amp must be finite, got -inf"),
        (["curvature", "--geometry", "sphere2", "--R", "1e150"], "chart 'north'"),
        (["curvature", "--geometry", "sphere3", "--R", "1e-200"], "chart 'north'")],
        ids=["amp_nan", "amp_minus_inf", "R_huge", "R_tiny"])
    def test_bad_setting_value_is_config_error(self, tmp_path, capsys, argv, named):
        # values that pass the type conversion but no stage can use
        out = tmp_path / "o.csv"
        assert main([*argv, "--m", "21", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not out.exists()

    def test_numerical_error(self, tmp_path, capsys):
        # scale below the resolution limit: a numerical failure, not config
        out = tmp_path / "c.csv"
        code = main(["curvature", "--geometry", "flat2", "--m", "21",
                     "--t", "0.05", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,chart,t", [
        (["curvature", "--geometry", "flat3-single", "--m", "9", "--t", "0.45"], "a", "0.45"),
        (["curvature", "--geometry", "sphere2", "--m", "7", "--t", "0.9"], "north", "0.9"),
        (["deviation", "--geometry", "hyperbolic2", "--m", "7", "--t-min", "0.17",
          "--t-max", "0.2", "--t-count", "5"], "ball", "0.17")])
    def test_mollified_mask_eroded_to_nothing(self, tmp_path, capsys, argv, chart, t):
        # riemann erodes the mollified mask away: an empty table is a failure
        out = tmp_path / "c.csv"
        code = main([*argv, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"chart {chart!r}" in err and "riemann" in err and f"t={t}" in err

    @pytest.mark.parametrize("command,name", [
        (command, name) for command, reads in _READS.items()
        for name in _SETTING_VALUES if name not in reads.split()])
    def test_unread_setting_is_config_error(self, tmp_path, capsys, command, name):
        # a setting the subcommand never reads is refused, as a flag and as a config key
        out = tmp_path / "o.csv"
        argv = [command, "--m", "21", "--out", str(out)]
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, _SETTING_VALUES[name]])
        assert exc.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        cfgf = tmp_path / "exp.cfg"
        cfgf.write_text(f"{name} = {_SETTING_VALUES[name]}\n")
        assert main([*argv, "--config", str(cfgf)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config key {name!r}" in err and command in err
        assert not out.exists()

    def test_violation_exit_reserved_for_lemmas(self):
        # the shipped kernels satisfy the inequalities at the default p, so
        # exit 3 does not occur at defaults; a real violating run is
        # TestLemmasCommand's m = 19, p = 1.01 test
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
                                      ["deviation", "--interval-slack", "1.0"], [],
                                      # a flag has one spelling: a prefix is unknown
                                      ["curvature", "--geo", "flat2", "--m", "21"],
                                      ["deviation", "--t-m", "0.1", "--m", "21"],
                                      ["cover-check", "--atl", str(EXAMPLES / "two.atlas"),
                                       "--m", "21"]])
    def test_usage_error_is_config_error(self, tmp_path, argv, capsys):
        # argparse would exit 2, which labcli reserves for numerical failure
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "usage: labcli" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["deviation", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: labcli" in capsys.readouterr().out

    def test_write_csv_matches_per_cell_format(self):
        rows = [["a", "0/1", 0.1, -0.0, float("inf"), float("-inf"), float("nan"), 3,
                 np.float64(1.0 / 3.0), np.float64(-2e-300), True, "", 1e22],
                ["b", "2/3", np.float64(7.0), 0.5, 1.0, 2.0, 3.0, -4, 5.0, 6.0, False, "ok", 0.0],
                [np.int64(4), 12345678901234.5, "", "", "", ""]]
        # labelled and noded rows, from arrays: int, bool and float columns
        nodes = np.array([[0, 1], [12, 3]])
        arrays = [np.array([-0.0, 1e22]), np.array([7, -8]), np.array([True, False]),
                  np.array([np.nan, 1.0 / 3.0])]
        rows += [["c%", "/".join(map(str, node)), *cells]
                 for node, cells in zip(nodes.tolist(), zip(*arrays))]
        blocks = [Block(columns=list(zip(*rows[:2]))), Block(columns=list(zip(*rows[2:3]))),
                  Block(columns=[[], []]),
                  Block(columns=arrays, label="c%", nodes=nodes)]
        out = io.StringIO()
        write_csv(out, ["h"] * 13, blocks)
        want = "\n".join([",".join(["h"] * 13)] + [",".join(fmt(v) for v in row)
                                                   for row in rows]) + "\n"
        assert out.getvalue() == want
        assert "-0,inf,-inf,nan,3,0.333333333333,-2e-300,True,,1e+22" in want
        assert "c%,12/3,1e+22,-8,False,0.333333333333" in want

    def test_write_csv_writes_no_table_as_one_string(self):
        class Recording(io.StringIO):
            longest = 0

            def write(self, text):
                self.longest = max(self.longest, len(text))
                return super().write(text)

        header, blocks = run_curvature(ExperimentConfig(geometry="sphere2", m=21, t=0.3))
        out = Recording()
        write_csv(out, header, blocks)
        rows = out.getvalue().splitlines(keepends=True)
        assert len(rows) > 2 * len(blocks)
        assert out.longest <= max(map(len, rows))


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


_SHELL_OPS = {"|", "||", "&&", ";", ">", "2>"}


def _command_lines(text):
    """The argv of every labcli command line in `text`, each as its words
    joined by single spaces: a shell line or a Markdown code span starting
    with `labcli` (backslash continuations joined, cut at its first pipe,
    redirection or `||`), and each quoted argv of a `for args in ...; do`
    list that feeds `labcli $args`.  A command line holds at least one
    option; a bare `labcli curvature` in prose names a subcommand."""
    text = text.replace("\\\n", " ")
    found = [m.group(1) for m in re.finditer(r"`labcli ([^`]+)`", text)]
    found += re.findall(r"^\s*(?:run:\s*)?labcli (.*)$", text, flags=re.M)
    for loop in re.findall(r"for args in (.*?); do", text, flags=re.S):
        found += shlex.split(loop)
    argvs = []
    for line in found:
        words = shlex.split(line)
        cut = next((k for k, w in enumerate(words) if w in _SHELL_OPS), len(words))
        if any(w.startswith("--") for w in words[:cut]):
            argvs.append(" ".join(words[:cut]))
    return argvs


def _literal(argv):
    """No shell variable and no placeholder such as FILE."""
    return not any("$" in w or (w.isalpha() and w.isupper()) for w in argv.split())


def test_every_literal_command_line_is_on_the_argv_list():
    listed = {" ".join(shlex.split(line)) for line in
              (ROOT / "tests" / "cli_argv.txt").read_text().splitlines()
              if line.strip() and not line.startswith("#")}
    for source in (ROOT / "README.md", ROOT / ".github" / "workflows" / "tier1.yml"):
        lines = _command_lines(source.read_text())
        assert len(lines) >= 8, source
        missing = [a for a in lines if _literal(a) and a not in listed]
        assert missing == [], source
