"""Tests for Hoelder/Sobolev norms and the chart-norm conditions."""
import itertools

import numpy as np
import pytest

from mollilab import norms
from mollilab.cli import ExperimentConfig, run_norms
from mollilab.lattice import (MetricField, ScalarField, central_diff, differentiate,
                              erode_mask, inverse_planes, make_lattice, pack_symmetric,
                              packed_det, sample_metric, sample_scalar)
from mollilab.modelzoo import get_geometry
from mollilab.norms import (chart_norm_report, check_N0, harmonic_defect,
                            holder_seminorm, sobolev_norm)
from packing import packed


def _conformal_metric(lam):
    return packed(lambda X: lam(X)[..., None, None] * np.eye(X.shape[-1]))


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


def _per_field_sobolev_norm(f, m, p):
    """Reference: the per-field Sobolev norms, each field differentiated on its own."""
    lat = f.lattice
    jet = differentiate(f, m)
    cell = lat.h ** lat.n
    norms = []
    for k in range(m + 1):
        flat = np.abs(jet.blocks[k].reshape(lat.shape + (-1,))).max(axis=-1)
        norms.append(float((np.sum(flat[jet.mask] ** p) * cell) ** (1.0 / p)))
    return tuple(norms)


def _component_fields(g):
    for c in range(g.comps.shape[-1]):
        yield ScalarField(lattice=g.lattice, values=g.comps[..., c], mask=g.mask)


def _per_component_sobolev_condition(g, m, p):
    """Reference: per-order L^p norms (max over components) and the Sobolev Q
    without the N0 bound, one jet per component and call."""
    lat = g.lattice
    per_order = [0.0] * (m + 1)
    for comp in _component_fields(g):
        lp_norms = _per_field_sobolev_norm(comp, m, p)
        for k in range(m + 1):
            per_order[k] = max(per_order[k], lp_norms[k])
    Q = max(lat.r ** (k - lat.n / p) * per_order[k] for k in range(m + 1))
    return tuple(per_order), Q


def _per_order_holder_seminorms(g, m, alpha):
    """Reference: per-order Hoelder seminorms, a fresh order-k jet per component."""
    semis = []
    for k in range(m + 1):
        best = 0.0
        for comp in _component_fields(g):
            jet = differentiate(comp, k)
            best = max(best, holder_seminorm(jet.blocks[k], jet.mask, g.lattice.h, alpha))
        semis.append(best)
    return semis


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
            if comps == (n, n):  # n fields (rows) of n components each
                assert got.shape == (n,)
                for i in range(n):
                    assert got[i] == _pair_loop_seminorm(values[..., i, :], mask, lat, alpha)
                got = float(got.max())
            assert got == _pair_loop_seminorm(values, mask, lat, alpha)

    @pytest.mark.parametrize("n,m,k", [(2, 9, 5), (2, 19, 20), (3, 7, 4)])
    def test_stack_equals_each_field(self, n, m, k):
        """Each field of a stack on one shared mask equals its own call and
        the pair loop, bit for bit: on an empty mask, a one-node mask and
        random masks, with ties, and with constant fields beside rough ones."""
        rng = np.random.default_rng(100 * n + m)
        lat = make_lattice(n, float(rng.uniform(0.3, 2.0)), m)
        for trial in range(8):
            stack = rng.normal(size=lat.shape + (k,)) * 10.0 ** rng.integers(-3, 4)
            if trial % 4 == 1:
                stack = np.round(stack)  # ties between pairs
            stack[..., 0] = 2.5  # a constant field stops before the first box step
            stack[..., 1] = np.round(stack[..., 1], 1)
            mask = rng.random(lat.shape) < rng.uniform(0.05, 1.0)
            if trial == 0:
                mask[...] = False
            elif trial == 1:
                mask[...] = False
                mask[tuple(rng.integers(0, m, size=n))] = True
            alpha = 1.0 if trial % 3 == 0 else float(rng.uniform(0.01, 1.0))
            got = holder_seminorm(stack[..., None], mask, lat.h, alpha)
            assert got.shape == (k,)
            for i in range(k):
                single = holder_seminorm(stack[..., i], mask, lat.h, alpha)
                assert isinstance(single, float)
                assert got[i] == single == _pair_loop_seminorm(stack[..., i], mask, lat, alpha)

    def test_stack_grows_until_its_last_field_stops(self, monkeypatch):
        """A stack takes as many box steps as its slowest field alone; a
        constant field takes none, and a field that stops early beside a
        slower one keeps its own value."""
        calls = []
        grow = norms.grow_box
        monkeypatch.setattr(norms, "grow_box", lambda *args: calls.append(1) or grow(*args))
        lat = make_lattice(2, 1.0, 35)
        X = lat.coords()
        # a ramp's largest quotient is at the largest distance, a bump's nearby
        ramp = X[..., 0] + 0.5 * X[..., 1]
        bump = np.exp(-(X**2).sum(axis=-1) / 0.1)
        stack = np.stack([np.full(lat.shape, -1.5), ramp, bump], axis=-1)
        mask = lat.ball_mask(0.95)
        steps = []
        for i in range(3):
            calls.clear()
            holder_seminorm(stack[..., i], mask, lat.h, 0.6)
            steps.append(len(calls))
        assert steps[0] == 0 < steps[2] < steps[1]
        calls.clear()
        got = holder_seminorm(stack[..., None], mask, lat.h, 0.6)
        assert len(calls) == max(steps)
        assert got[0] == 0.0
        for i in range(3):
            assert got[i] == _pair_loop_seminorm(stack[..., i], mask, lat, 0.6)

    def test_one_field_per_chart_norm_call_keeps_its_box_steps(self, monkeypatch):
        """chart_norm_report passes one field (a jet block) per call; the
        sphere3 m=33 report takes 72 box steps, as the per-field stop gives
        a single field the steps of the scan before stacks."""
        calls = []
        grow = norms.grow_box
        monkeypatch.setattr(norms, "grow_box", lambda *args: calls.append(1) or grow(*args))
        run_norms(ExperimentConfig(geometry="sphere3", m=33))
        assert len(calls) == 72


    def test_early_exit_stays_exact(self, monkeypatch):
        """The scan stops once spread / (h d)^alpha cannot beat the best value."""
        calls = []
        grow = norms.grow_box
        monkeypatch.setattr(norms, "grow_box", lambda *args: calls.append(1) or grow(*args))
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
        lp_norms = sobolev_norm(differentiate(f, 1), lat.h, 2.0)
        # quadrature volume: (m - 2) interior nodes per axis, weight h^2
        vol = ((lat.m - 2) * lat.h) ** 2
        assert lp_norms[0] == pytest.approx(2.0 * np.sqrt(vol), rel=1e-12)
        assert lp_norms[1] == pytest.approx(0.0, abs=1e-12)

    def test_sin_oracle(self):
        lat = make_lattice(2, np.pi, 161)
        f = sample_scalar(lambda X: np.sin(X[..., 0]), lat)
        (lp0,) = sobolev_norm(differentiate(f, 0), lat.h, 2.0)
        # integral of sin^2 over [-pi,pi]^2 is 2 pi^2
        assert lp0 == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-2)

    def test_rejects_bad_exponent(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0], lat)
        with pytest.raises(ValueError):
            sobolev_norm(differentiate(f, 1), lat.h, 0.5)


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

        g = sample_metric(packed(gen), lat)
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

        q1 = check_N0(sample_metric(packed(gen), lat))
        q2 = check_N0(sample_metric(packed(gen_d), lat))
        assert q1 == pytest.approx(q2, rel=1e-12)


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

    @pytest.mark.parametrize("name", ["sphere3", "hyperbolic3", "pflat3", "pflat2"])
    def test_flux_planes_equal_the_node_major_flux(self, name):
        # the reference is the defect as it was written before the flux
        # moved to contiguous planes: w[..., None, None] * inv, node-major
        geo = get_geometry(name)
        for g in geo.sample_all(25 if geo.n == 3 else 41).values():
            lat = g.lattice
            w = np.sqrt(packed_det(g.comps, lat.n))
            inv = np.moveaxis(inverse_planes(g.comps, lat.n), (0, 1), (-2, -1))
            flux = w[..., None, None] * inv
            mask = erode_mask(g.mask, 1)
            want = 0.0
            for k in range(lat.n):
                div = np.zeros(lat.shape)
                for i in range(lat.n):
                    div += central_diff(flux[..., i, k], i, lat.h)
                want = max(want, float(np.abs(div[mask] / w[mask]).max(initial=0.0)))
            assert harmonic_defect(g) == want > 0.0


class TestChartReports:
    def test_holder_report_flat(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(_conformal_metric(lambda X: np.ones(X.shape[:-1])), lat)
        rep = chart_norm_report(g, 1, 0.5, 8.0)
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
            _, q = _per_component_sobolev_condition(g, cfg.order, cfg.p)
            assert vals["sobolev_Q"] == f"{max(q, check_N0(g)):.12g}"
            assert float(vals["sobolev_Q"]) >= float(vals["N0_Q"])

    def test_holder_report_exact_on_large_chart(self):
        # 67^2 nodes give over 10^7 valid pairs at order 0
        lat = make_lattice(2, 1.0, 67)
        g = sample_metric(packed(lambda X: np.stack([
            np.stack([2.0 + np.sin(3 * X[..., 0]) * X[..., 1], 0.3 * np.cos(X.sum(-1))], -1),
            np.stack([0.3 * np.cos(X.sum(-1)), 1.5 + np.abs(X[..., 0]) ** 0.7], -1)], -2)), lat)
        alpha = 0.6
        rep = chart_norm_report(g, 1, alpha, 8.0)
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
        text = chart_norm_report(g, 1, 0.5, 8.0).to_text()
        assert "Q=" in text and "order0=" in text

    @pytest.mark.parametrize("n,m", [(2, 21), (3, 13)])
    def test_one_jet_equals_per_order_reports(self, n, m):
        """One order-2 jet per component gives every seminorm, L^p norm and Q
        bit for bit; the partial mask makes the Hoelder and Sobolev masks differ."""
        rng = np.random.default_rng(7 * n + m)
        lat = make_lattice(n, 0.8, m)
        X = lat.coords()
        A = rng.normal(size=(n, n, n)) * 0.3
        mats = np.eye(n) + np.einsum("...k,kij->...ij", np.sin(2.0 * X), A + A.transpose(1, 0, 2))
        mats = mats @ np.swapaxes(mats, -1, -2)  # SPD
        mask = lat.ball_mask(0.75)
        g = MetricField(lattice=lat, comps=pack_symmetric(mats), mask=mask)
        alpha, p = 0.4, 3.0
        rep = chart_norm_report(g, 2, alpha, p)
        semis = _per_order_holder_seminorms(g, 2, alpha)
        lp, sob_q = _per_component_sobolev_condition(g, 2, p)
        n0 = check_N0(g)
        assert rep.seminorms == tuple(semis) and all(s > 0 for s in semis)
        assert rep.sobolev_norms == lp
        assert rep.Q == max(max(lat.r ** (k + alpha) * semis[k] for k in range(3)), n0)
        assert rep.sobolev_Q == max(sob_q, n0)
        assert rep.N0_Q == n0 > 0
