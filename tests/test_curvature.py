"""Tests for Christoffel symbols, Riemann curvature, and sectional data."""
import numpy as np
import pytest

from mollilab.curvature import (VectorSection, ab_decomposition, christoffel,
                                evaluate_riem, invert_metric, ricci, riemann,
                                scalar_curvature, sec_extreme_fields,
                                sec_extremes, section_norm_fields, sectional,
                                sectional_field)
from mollilab.lattice import (MetricField, convergence_order, make_lattice,
                              sample_metric)


def _conformal(lam):
    def gen(X):
        return lam(X)[..., None, None] * np.eye(X.shape[-1])
    return gen


def _flat(n):
    return _conformal(lambda X: np.ones(X.shape[:-1]))


def _sphere_lam(R=1.0):
    return lambda X: 4.0 * R**4 / (R**2 + (X**2).sum(axis=-1)) ** 2


def _poincare_lam():
    return lambda X: 4.0 / (1.0 - (X**2).sum(axis=-1)) ** 2


class TestInvertMetric:
    def test_identity(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_flat(2), lat)
        ginv = invert_metric(g)
        assert np.allclose(ginv.matrices(), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            mats = np.zeros(X.shape[:-1] + (2, 2))
            mats[..., 0, 0] = 2.0 + X[..., 0]
            mats[..., 1, 1] = 3.0
            return mats

        g = sample_metric(gen, lat)
        ginv = invert_metric(g)
        prod = np.einsum("...ij,...jk->...ik", g.matrices(), ginv.matrices())
        assert np.abs(prod[g.mask] - np.eye(2)).max() < 1e-12

    def test_rejects_ill_conditioned(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([1.0, 1e-14]), X.shape[:-1] + (2, 2))

        g = sample_metric(gen, lat)
        with pytest.raises(ValueError, match="condition"):
            invert_metric(g)


class TestChristoffel:
    def test_flat_is_zero(self):
        lat = make_lattice(2, 1.0, 21)
        gam = christoffel(sample_metric(_flat(2), lat))
        assert np.abs(gam.gamma[gam.mask]).max() < 1e-13

    def test_conformal_closed_form(self):
        # g = e^{2u} delta with u = 0.3 x_0: Gamma^0_{00} = du/dx_0
        lat = make_lattice(2, 1.0, 41)
        g = sample_metric(_conformal(lambda X: np.exp(0.6 * X[..., 0])), lat)
        gam = christoffel(g)
        assert np.allclose(gam.gamma[gam.mask][:, 0, 0, 0], 0.3, atol=1e-3)
        # and Gamma^1_{01} = du/dx_0 as well
        assert np.allclose(gam.gamma[gam.mask][:, 1, 0, 1], 0.3, atol=1e-3)

    def test_lower_symmetry_exact(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(_conformal(_poincare_lam()), make_lattice(2, 0.5, 21))
        gam = christoffel(g)
        assert np.array_equal(gam.gamma, np.swapaxes(gam.gamma, -2, -1))


class TestRiemann:
    def test_flat_vanishes(self):
        lat = make_lattice(3, 1.0, 11)
        R = riemann(sample_metric(_flat(3), lat))
        assert np.abs(R.riem[R.mask]).max() < 1e-12

    def test_last_pair_antisymmetry_exact(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        assert np.array_equal(R.riem, -np.swapaxes(R.riem, -2, -1))

    def test_constant_coefficient_metric_flat(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([2.0, 3.0]), X.shape[:-1] + (2, 2))

        R = riemann(sample_metric(gen, lat))
        assert np.abs(R.riem[R.mask]).max() < 1e-13

    def test_decomposition_sums_to_riemann(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        A, B = ab_decomposition(g)
        total = A.riem + B.riem
        scale = np.abs(R.riem[R.mask]).max()
        assert np.abs((total - R.riem)[R.mask]).max() < 1e-12 * scale

    def test_decomposition_constant_metric_both_zero(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([2.0, 3.0]), X.shape[:-1] + (2, 2))

        A, B = ab_decomposition(sample_metric(gen, lat))
        assert np.abs(A.riem[A.mask]).max() < 1e-13
        assert np.abs(B.riem[B.mask]).max() < 1e-13


class TestEvaluateRiem:
    def test_multilinearity(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        node = lat.origin_index
        s = VectorSection(v=np.array([1.0, 0.3]), w1=np.array([0.2, 1.0]),
                          w2=np.array([1.0, -1.0]), xi=np.array([0.5, 0.5]))
        val, _ = evaluate_riem(R, g, s, node)
        s2 = VectorSection(v=2.0 * s.v, w1=s.w1, w2=s.w2, xi=s.xi)
        val2, _ = evaluate_riem(R, g, s2, node)
        assert val2 == pytest.approx(2.0 * val, rel=1e-12)

    def test_rejects_invalid_node(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_flat(2), lat)
        R = riemann(g)
        with pytest.raises(ValueError, match="outside"):
            evaluate_riem(R, g, VectorSection(*np.eye(2)[[0, 1, 0, 1]]), (0, 0))

    def test_section_norm_fields_match_pointwise_product(self):
        lat = make_lattice(3, 0.5, 9)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        rng = np.random.Generator(np.random.Philox(key=3))
        sections = [VectorSection(*rng.standard_normal((4, 3))) for _ in range(3)]
        fields = section_norm_fields(g, sections)
        nodes = [lat.origin_index, (3, 5, 4), (2, 2, 6)]
        for s, nf in zip(sections, fields):
            assert nf.shape == lat.shape
            for node in nodes:
                _, prod = evaluate_riem(R, g, s, node)
                assert nf[node] == pytest.approx(prod, rel=1e-13)


class TestSectional:
    def test_scale_invariance(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        node = lat.origin_index
        v, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        s1 = sectional(g, R, node, v, w)
        s2 = sectional(g, R, node, 3.0 * v, -0.5 * w)
        assert s2 == pytest.approx(s1, rel=1e-12)

    def test_basis_invariance(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        node = lat.origin_index
        v, w = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        s1 = sectional(g, R, node, v, w)
        # same plane, different spanning basis
        s2 = sectional(g, R, node, v + w, v - 2.0 * w)
        assert abs(s2 - s1) < 1e-9 * max(1.0, abs(s1))

    def test_rejects_degenerate_plane(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_flat(2), lat)
        R = riemann(g)
        v = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="degenerate"):
            sectional(g, R, lat.origin_index, v, 2.0 * v)

    def test_field_nan_on_degenerate(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_flat(2), lat)
        R = riemann(g)
        v = np.array([1.0, 0.0])
        sec = sectional_field(g, R, v, 2.0 * v)
        assert np.isnan(sec[R.mask]).all()

    @pytest.mark.parametrize("lam,expect", [(_sphere_lam(), 1.0),
                                            (_poincare_lam(), -1.0)])
    def test_constant_curvature_convergence(self, lam, expect):
        errs, hs = [], []
        for m in (21, 41, 81):
            lat = make_lattice(2, 0.4, m)
            g = sample_metric(_conformal(lam), lat)
            R = riemann(g)
            region = lat.ball_mask(0.2)
            lo, hi = sec_extremes(g, R, region)
            errs.append(max(abs(lo - expect), abs(hi - expect)))
            hs.append(lat.h)
        assert convergence_order(hs, errs) >= 1.8

    def test_extremes_ordered(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        lo, hi = sec_extremes(g, R, lat.ball_mask(0.2))
        assert lo <= hi

    def test_extreme_fields_bracket_plane_values(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        lo, hi = sec_extreme_fields(g, R)
        sec = sectional_field(g, R, np.eye(3)[0], np.eye(3)[1])
        good = R.mask & np.isfinite(sec)
        assert np.all(lo[good] <= sec[good] + 1e-12)
        assert np.all(sec[good] <= hi[good] + 1e-12)


class TestRicciScalar:
    @pytest.mark.parametrize("n,lam,sec", [(2, _sphere_lam(), 1.0),
                                           (3, _sphere_lam(), 1.0),
                                           (2, _poincare_lam(), -1.0)])
    def test_einstein_constant(self, n, lam, sec):
        # space form: Ric = (n-1) sec g, scalar = n(n-1) sec
        lat = make_lattice(n, 0.3, 41)
        g = sample_metric(_conformal(lam), lat)
        R = riemann(g)
        ric = ricci(R)
        expect = (n - 1) * sec * g.matrices()
        region = lat.ball_mask(0.15) & R.mask
        scale = np.abs(expect[region]).max()
        assert np.abs((ric - expect)[region]).max() < 5e-3 * scale
        sc = scalar_curvature(g, R)
        assert np.abs(sc[region] - n * (n - 1) * sec).max() < 5e-3 * abs(
            n * (n - 1) * sec)

    def test_nearby_metrics_nearby_curvature(self):
        # polynomial dependence on the metric jet: a small metric change
        # moves the Riemann tensor by a comparably small amount
        lat = make_lattice(2, 0.4, 41)
        g1 = sample_metric(_conformal(_sphere_lam()), lat)
        eps = 1e-6

        def gen2(X):
            lam = _sphere_lam()(X) * (1.0 + eps * np.sin(X[..., 0]))
            return lam[..., None, None] * np.eye(2)

        g2 = sample_metric(gen2, lat)
        R1, R2 = riemann(g1), riemann(g2)
        mask = R1.mask & R2.mask
        diff = np.abs((R1.riem - R2.riem)[mask]).max()
        assert diff < 1e-2  # bounded multiple of the h^-2-amplified eps
