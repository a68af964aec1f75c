"""Tests for Hoelder/Sobolev norms and the chart-norm conditions."""
import itertools

import numpy as np
import pytest

from mollilab import norms
from mollilab.cli import ExperimentConfig, run_norms
from mollilab.lattice import (ScalarField, differentiate, make_lattice, sample_metric,
                              sample_scalar)
from mollilab.modelzoo import get_geometry
from mollilab.norms import (check_N0, det_bounds_ok, harmonic_defect,
                            holder_chart_report, holder_seminorm, sobolev_condition,
                            sobolev_norm)


def _conformal_metric(lam):
    def gen(X):
        return lam(X)[..., None, None] * np.eye(X.shape[-1])
    return gen


def _pair_loop_seminorm(values, mask, lat, alpha):
    """Reference: every pair of valid nodes, one node against all later ones."""
    nodes = np.argwhere(mask)
    vals = values.reshape(lat.shape + (-1,))[mask]
    # the same float (h d) ** alpha per integer max-norm distance d
    denom = np.array([1.0] + [(lat.h * d) ** alpha for d in range(1, lat.m)])
    best = 0.0
    for i in range(len(nodes) - 1):
        diff = np.abs(vals[i + 1:] - vals[i]).max(axis=-1)
        dist = np.abs(nodes[i + 1:] - nodes[i]).max(axis=-1)
        best = max(best, float((diff / denom[dist]).max()))
    return best


def _offset_scan_seminorm(values, mask, lat, alpha):
    """Reference: every lexicographically positive node offset, as array slices."""
    vals = values.reshape(lat.shape + (-1,))
    best = 0.0
    for d in itertools.product(range(-(lat.m - 1), lat.m), repeat=lat.n):
        if not any(d) or next(dk for dk in d if dk) < 0:
            continue
        base = tuple(slice(max(0, -dk), lat.m - max(0, dk)) for dk in d)
        shifted = tuple(slice(max(0, dk), lat.m + min(0, dk)) for dk in d)
        both = mask[base] & mask[shifted]
        if both.any():
            diff = np.abs(vals[shifted] - vals[base])[both].max()
            best = max(best, float(diff) / (lat.h * max(map(abs, d))) ** alpha)
    return best


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        lat = make_lattice(2, 1.0, 21)
        f = sample_scalar(lambda X: np.full(X.shape[:-1], 3.0), lat)
        assert holder_seminorm(f.values, f.mask, lat.h, 0.5) == 0.0

    def test_linear_alpha_one(self):
        lat = make_lattice(2, 1.0, 21)
        f = sample_scalar(lambda X: X[..., 0], lat)
        # max-norm distances: |x1 - y1| / max|x - y| has supremum 1
        assert holder_seminorm(f.values, f.mask, lat.h, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_cusp(self):
        lat = make_lattice(2, 1.0, 41)
        f = sample_scalar(lambda X: np.sqrt(np.abs(X[..., 0])), lat)
        semi = holder_seminorm(f.values, f.mask, lat.h, 0.5)
        assert 0.95 <= semi <= 1.05

    def test_rejects_bad_alpha(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0], lat)
        with pytest.raises(ValueError):
            holder_seminorm(f.values, f.mask, lat.h, 0.0)
        with pytest.raises(ValueError):
            holder_seminorm(f.values, f.mask, lat.h, 1.5)

    @pytest.mark.parametrize("n,m", [(2, 5), (2, 11), (2, 17), (3, 5), (3, 9)])
    def test_equals_pair_loop(self, n, m):
        """Bit-equal to the O(N^2) loop over all valid node pairs."""
        rng = np.random.default_rng(1000 * n + m)
        lat = make_lattice(n, float(rng.uniform(0.3, 2.0)), m)
        for trial in range(12):
            comps = [(), (2,), (n, n)][trial % 3]
            values = rng.normal(size=lat.shape + comps) * 10.0 ** rng.integers(-3, 4)
            if trial % 4 == 1:
                values = np.round(values)  # ties between pairs
            mask = rng.random(lat.shape) < rng.uniform(0.05, 1.0)
            if trial == 0:
                mask[...] = False
            elif trial == 1:
                mask[...] = False
                mask[tuple(rng.integers(0, m, size=n))] = True
            alpha = 1.0 if trial % 5 == 0 else float(rng.uniform(0.01, 1.0))
            got = holder_seminorm(values, mask, lat.h, alpha)
            assert got == _pair_loop_seminorm(values, mask, lat, alpha)


    def test_early_exit_stays_exact(self, monkeypatch):
        """The scan stops once spread / (h d)^alpha cannot beat the best value."""
        calls = []
        grow = norms._grow_box
        monkeypatch.setattr(norms, "_grow_box", lambda *args: calls.append(1) or grow(*args))
        lat = make_lattice(3, 1.0, 21)
        # a smooth bump of width ~0.3: no pair beyond a few steps can win
        f = sample_scalar(lambda X: np.exp(-(X**2).sum(axis=-1) / 0.1), lat)
        mask = lat.ball_mask(0.9)
        got = holder_seminorm(f.values, mask, lat.h, 0.6)
        assert 0 < len(calls) <= 4 < lat.m - 1
        assert got == _pair_loop_seminorm(f.values, mask, lat, 0.6)
        calls.clear()
        assert holder_seminorm(np.full(lat.shape, 2.5), mask, lat.h, 0.6) == 0.0
        assert holder_seminorm(f.values, np.zeros(lat.shape, bool), lat.h, 0.6) == 0.0
        assert calls == []


class TestSobolevNorm:
    def test_constant(self):
        lat = make_lattice(2, 1.0, 21)
        f = sample_scalar(lambda X: np.full(X.shape[:-1], 2.0), lat)
        lp_norms = sobolev_norm(f, 1, 2.0)
        # quadrature volume: (m - 2) interior nodes per axis, weight h^2
        vol = ((lat.m - 2) * lat.h) ** 2
        assert lp_norms[0] == pytest.approx(2.0 * np.sqrt(vol), rel=1e-12)
        assert lp_norms[1] == pytest.approx(0.0, abs=1e-12)

    def test_sin_oracle(self):
        lat = make_lattice(2, np.pi, 161)
        f = sample_scalar(lambda X: np.sin(X[..., 0]), lat)
        (lp0,) = sobolev_norm(f, 0, 2.0)
        # integral of sin^2 over [-pi,pi]^2 is 2 pi^2
        assert lp0 == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-2)

    def test_rejects_bad_exponent(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0], lat)
        with pytest.raises(ValueError):
            sobolev_norm(f, 1, 0.5)


class TestEigenvalueCondition:
    def test_identity_is_zero(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_conformal_metric(lambda X: np.ones(X.shape[:-1])), lat)
        assert check_N0(g) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_oracle(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([np.e**2, np.e**-2]),
                                   X.shape[:-1] + (2, 2))

        g = sample_metric(gen, lat)
        assert check_N0(g) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_invariance(self):
        lat = make_lattice(2, 1.0, 11)
        th = 0.7
        O = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        D = np.diag([2.0, 0.5])

        def gen(X):
            return np.broadcast_to(O @ D @ O.T, X.shape[:-1] + (2, 2))

        def gen_d(X):
            return np.broadcast_to(D, X.shape[:-1] + (2, 2))

        q1 = check_N0(sample_metric(gen, lat))
        q2 = check_N0(sample_metric(gen_d, lat))
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_det_bounds_follow_from_Q(self):
        lat = make_lattice(3, 1.0, 11)
        g = sample_metric(_conformal_metric(
            lambda X: 1.0 + 0.5 * np.sin(X[..., 0])), lat)
        Q = check_N0(g)
        assert det_bounds_ok(g, Q)
        assert not det_bounds_ok(g, Q / 10.0)


class TestHarmonicDefect:
    def test_flat_is_zero(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(_conformal_metric(lambda X: np.ones(X.shape[:-1])), lat)
        assert harmonic_defect(g) == pytest.approx(0.0, abs=1e-13)

    def test_2d_conformal_at_round_off(self):
        # in 2-d sqrt(det g) g^{-1} is the identity for any conformal
        # metric, so the defect is rounding noise, not stencil error
        lat = make_lattice(2, 1.0, 41)
        g = sample_metric(_conformal_metric(
            lambda X: np.exp(0.5 * X[..., 0])), lat)
        assert harmonic_defect(g) < 1e-11

    def test_3d_poincare_positive(self):
        lat = make_lattice(3, 0.5, 21)
        g = sample_metric(_conformal_metric(
            lambda X: 4.0 / (1.0 - (X**2).sum(-1)) ** 2), lat)
        assert harmonic_defect(g) > 0.1


class TestChartReports:
    def test_holder_report_flat(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(_conformal_metric(lambda X: np.ones(X.shape[:-1])), lat)
        rep = holder_chart_report(g, 1, 0.5)
        assert rep.Q == pytest.approx(0.0, abs=1e-12)
        assert rep.harmonic_sup == pytest.approx(0.0, abs=1e-13)

    def test_sobolev_report_q_at_least_n0(self):
        # run_norms reports the Sobolev condition's Q lifted to the N0 bound
        cfg = ExperimentConfig(geometry="sphere2", m=21, p=4.0)
        blocks = run_norms(cfg).split("[chart ")[1:]
        samples = get_geometry("sphere2").sample_all(cfg.m)
        assert [b.split("]", 1)[0] for b in blocks] == sorted(samples)
        for block, (cid, g) in zip(blocks, sorted(samples.items())):
            vals = dict(line.split("=", 1) for line in block.splitlines()[1:] if "=" in line)
            _, q = sobolev_condition(g, cfg.order, cfg.p)
            assert vals["sobolev_Q"] == f"{max(q, check_N0(g)):.12g}"
            assert float(vals["sobolev_Q"]) >= float(vals["N0_Q"])

    def test_holder_report_exact_on_large_chart(self):
        # 67^2 nodes give over 10^7 valid pairs at order 0
        lat = make_lattice(2, 1.0, 67)
        g = sample_metric(lambda X: np.stack([
            np.stack([2.0 + np.sin(3 * X[..., 0]) * X[..., 1], 0.3 * np.cos(X.sum(-1))], -1),
            np.stack([0.3 * np.cos(X.sum(-1)), 1.5 + np.abs(X[..., 0]) ** 0.7], -1)], -2), lat)
        alpha = 0.6
        rep = holder_chart_report(g, 1, alpha)
        for k in range(2):
            ref = 0.0
            for c in range(g.comps.shape[-1]):
                jet = differentiate(ScalarField(lattice=lat, values=g.comps[..., c],
                                                mask=g.mask), k)
                ref = max(ref, _offset_scan_seminorm(jet.blocks[k], jet.mask, lat, alpha))
            assert rep.seminorms[k] == ref

    def test_report_serializes(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_conformal_metric(lambda X: np.ones(X.shape[:-1])), lat)
        text = holder_chart_report(g, 1, 0.5).to_text()
        assert "Q=" in text and "order0=" in text
