"""Tests for Christoffel symbols, Riemann curvature, and sectional data."""
import numpy as np
import pytest

from mollilab.curvature import (RiemannField, VectorSection, ab_decomposition,
                                christoffel, invert_metric, riem_contract_field,
                                riemann, scalar_curvature, sec_extreme_fields,
                                sec_extremes, section_norm_fields, sectional_field)
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


def _smooth_metric(seed, n=3):
    """A seeded anisotropic metric: a constant SPD matrix plus six plane
    waves with symmetric coefficients of spectral norm 1/6 each."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    base = rng.standard_normal((n, n))
    base = base @ base.T / n + 1.5 * np.eye(n)
    waves = 2.5 * rng.standard_normal((6, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    coefs = rng.standard_normal((6, n, n))
    coefs = coefs + np.swapaxes(coefs, -1, -2)
    coefs /= 6.0 * np.abs(np.linalg.eigvalsh(coefs)).max(axis=-1)[:, None, None]

    def gen(X):
        return base + np.einsum("...k,kij->...ij", np.sin(X @ waves.T + phases), coefs)
    return gen


def _full_tensor(riem, n):
    """R_abcd with all its index symmetries, from the operator R_IJ."""
    a, b = np.triu_indices(n, 1)
    full = np.zeros(riem.shape[:-2] + (n,) * 4)
    for I, (p, q) in enumerate(zip(a, b)):
        for J, (r, s) in enumerate(zip(a, b)):
            x = riem[..., I, J]
            full[..., p, q, r, s] = full[..., q, p, s, r] = x
            full[..., q, p, r, s] = full[..., p, q, s, r] = -x
    return full


def _plane_family(n=3, count=32, seed=0):
    """The 3 coordinate planes and 32 seeded random planes that bounded the
    sectional extremes before they were computed exactly."""
    planes = [(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(i + 1, n)]
    raw = np.random.Generator(np.random.Philox(key=seed)).standard_normal((count, 2, n))
    return planes + [(raw[k, 0], raw[k, 1]) for k in range(count)]


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

    def test_names_first_bad_node(self):
        lat = make_lattice(2, 1.0, 11)
        comps = np.broadcast_to([1.0, 0.0, 1.0], lat.shape + (3,)).copy()
        mask = lat.full_mask()
        comps[1, 1] = [1.0, 2.0, 1.0]        # indefinite, but off the mask
        mask[1, 1] = False
        comps[3, 4] = comps[5, 0] = [1.0, 2.0, 1.0]
        with pytest.raises(ValueError, match=r"not positive-definite at node \(3, 4\)"):
            invert_metric(MetricField(lattice=lat, comps=comps, mask=mask))
        comps[3, 4] = comps[5, 0] = [1.0, 0.0, 1.0]
        comps[6, 2] = [1.0, 0.0, 1e-13]
        with pytest.raises(ValueError, match=r"condition number 1e\+13 exceeds 1e12 "
                                             r"at node \(6, 2\)"):
            invert_metric(MetricField(lattice=lat, comps=comps, mask=mask))


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

    def test_pair_symmetry_exact(self):
        lat = make_lattice(3, 0.5, 13)
        g = sample_metric(_smooth_metric(0), lat)
        R = riemann(g)
        assert R.riem.shape == lat.shape + (3, 3)
        for part in (R, *ab_decomposition(g)):
            assert np.array_equal(part.riem, np.swapaxes(part.riem, -2, -1))

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


class TestContractions:
    def test_multilinearity(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        s = VectorSection(v=np.array([1.0, 0.3]), w1=np.array([0.2, 1.0]),
                          w2=np.array([1.0, -1.0]), xi=np.array([0.5, 0.5]))
        s2 = VectorSection(v=2.0 * s.v, w1=s.w1, w2=s.w2, xi=s.xi)
        val, val2 = riem_contract_field(R, g, [s, s2])
        assert np.allclose(val2[R.mask], 2.0 * val[R.mask], rtol=1e-12, atol=0.0)

    def test_matches_full_tensor_contraction(self):
        lat = make_lattice(3, 0.5, 11)
        g = sample_metric(_smooth_metric(1), lat)
        R = riemann(g)
        rng = np.random.Generator(np.random.Philox(key=5))
        sections = [VectorSection(*rng.standard_normal((4, 3))) for _ in range(3)]
        full = _full_tensor(R.riem, 3)
        ginv = np.linalg.inv(g.matrices())
        for s, got in zip(sections, riem_contract_field(R, g, sections)):
            # R^r_{smn} xi_r v^s w1^m w2^n with the first index raised by g^-1
            want = np.einsum("...rsmn,...r,s,m,n->...", full, ginv @ s.xi,
                             s.v, s.w1, s.w2)
            scale = np.abs(want[R.mask]).max()
            assert np.abs((got - want)[R.mask]).max() < 1e-12 * scale

    def test_section_norm_fields_match_pointwise_product(self):
        lat = make_lattice(3, 0.5, 9)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        rng = np.random.Generator(np.random.Philox(key=3))
        sections = [VectorSection(*rng.standard_normal((4, 3))) for _ in range(3)]
        fields = section_norm_fields(g, sections)
        nodes = [lat.origin_index, (3, 5, 4), (2, 2, 6)]
        for s, nf in zip(sections, fields):
            assert nf.shape == lat.shape
            for node in nodes:
                gm = g.matrices()[node]
                gi = np.linalg.inv(gm)
                prod = (np.sqrt(s.v @ gm @ s.v) * np.sqrt(s.w1 @ gm @ s.w1)
                        * np.sqrt(s.w2 @ gm @ s.w2) * np.sqrt(s.xi @ gi @ s.xi))
                assert nf[node] == pytest.approx(prod, rel=1e-13)


class TestSectional:
    def test_scale_invariance(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_conformal(_poincare_lam()), lat)
        R = riemann(g)
        v, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        s1 = sectional_field(g, R, v, w)
        s2 = sectional_field(g, R, 3.0 * v, -0.5 * w)
        assert np.allclose(s2[R.mask], s1[R.mask], rtol=1e-12, atol=0.0)

    def test_basis_invariance(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        v, w = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        s1 = sectional_field(g, R, v, w)
        # same plane, different spanning basis
        s2 = sectional_field(g, R, v + w, v - 2.0 * w)
        assert np.all(np.abs(s2 - s1)[R.mask] < 1e-9 * np.maximum(1.0, np.abs(s1[R.mask])))

    def test_rejects_degenerate_plane(self):
        lat = make_lattice(2, 1.0, 11)
        g = sample_metric(_flat(2), lat)
        R = riemann(g)
        v = np.array([1.0, 1.0])
        assert np.isnan(sectional_field(g, R, v, 2.0 * v)).all()

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

    @pytest.mark.parametrize("seed", range(4))
    def test_extremes_exact_over_all_planes(self, seed):
        lat = make_lattice(3, 0.5, 15)
        g = sample_metric(_smooth_metric(seed), lat)
        R = riemann(g)
        lo, hi = sec_extreme_fields(g, R)
        # bounds: no plane of the former sampled family leaves [lo, hi]
        for v, w in _plane_family():
            sec = sectional_field(g, R, v, w)
            assert np.all(lo[R.mask] <= sec[R.mask] + 1e-12)
            assert np.all(sec[R.mask] <= hi[R.mask] + 1e-12)
        # attained: a 200 x 200 grid of plane normals over a hemisphere
        # comes within 1e-3 of both extremes
        th, ph = np.meshgrid(np.linspace(0.0, np.pi, 200), np.linspace(0.0, np.pi, 200))
        th, ph = th.ravel(), ph.ravel()
        v = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], axis=-1)
        w = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)],
                     axis=-1)
        om = np.stack([v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0],
                       v[:, 0] * w[:, 2] - v[:, 2] * w[:, 0],
                       v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1]], axis=-1)
        mats = g.matrices()
        nodes = np.argwhere(R.mask)
        rng = np.random.Generator(np.random.Philox(key=seed))
        spread = 0.0
        for node in map(tuple, nodes[rng.choice(len(nodes), 12, replace=False)]):
            gm = mats[node]
            gram = (np.einsum("pi,ij,pj->p", v, gm, v) * np.einsum("pi,ij,pj->p", w, gm, w)
                    - np.einsum("pi,ij,pj->p", v, gm, w) ** 2)
            sec = np.einsum("pI,IJ,pJ->p", om, R.riem[node], om) / gram
            scale = max(1.0, abs(lo[node]), abs(hi[node]))
            assert lo[node] - 1e-12 <= sec.min() <= lo[node] + 1e-3 * scale
            assert hi[node] - 1e-3 * scale <= sec.max() <= hi[node] + 1e-12
            spread = max(spread, hi[node] - lo[node])
        assert spread > 0.1  # the metrics are far from isotropic

    def test_extremes_equal_in_2d(self):
        lat = make_lattice(2, 0.5, 21)
        g = sample_metric(_smooth_metric(2, n=2), lat)
        R = riemann(g)
        assert R.riem.shape == lat.shape + (1, 1)
        lo, hi = sec_extreme_fields(g, R)
        assert np.array_equal(lo[R.mask], hi[R.mask])
        sec = sectional_field(g, R, np.array([1.0, 0.4]), np.array([-0.3, 2.0]))
        assert np.allclose(sec[R.mask], lo[R.mask], rtol=1e-12, atol=1e-14)

    def test_extremes_reject_dimension_above_3(self):
        lat = make_lattice(4, 1.0, 5)
        g = sample_metric(_flat(4), lat)
        R = RiemannField(lattice=lat, riem=np.zeros(lat.shape + (6, 6)), mask=g.mask)
        with pytest.raises(ValueError, match="dimension 2 or 3"):
            sec_extreme_fields(g, R)


class TestRicciScalar:
    @pytest.mark.parametrize("n,lam,sec", [(2, _sphere_lam(), 1.0),
                                           (3, _sphere_lam(), 1.0),
                                           (2, _poincare_lam(), -1.0)])
    def test_einstein_constant(self, n, lam, sec):
        # space form: every plane has curvature sec, scalar = n(n-1) sec
        lat = make_lattice(n, 0.3, 41)
        g = sample_metric(_conformal(lam), lat)
        R = riemann(g)
        region = lat.ball_mask(0.15) & R.mask
        lo, hi = sec_extreme_fields(g, R)
        for field in (lo, hi):
            assert np.abs(field[region] - sec).max() < 5e-3 * abs(sec)
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
