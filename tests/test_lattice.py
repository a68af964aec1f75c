"""Tests for lattices, sampled fields, and finite differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mollilab.lattice import (MetricField, ScalarField, central_diff,
                              convergence_order, differentiate, erode_mask,
                              make_lattice, sample_metric, sample_scalar)


class TestLattice:
    def test_spacing(self):
        lat = make_lattice(2, 1.0, 5)
        assert lat.h == pytest.approx(0.5, abs=1e-15)

    def test_origin_is_node(self):
        lat = make_lattice(3, 2.0, 7)
        assert np.allclose(lat.coords()[lat.origin_index], 0.0)

    def test_axis_nodes_span(self):
        lat = make_lattice(2, 1.5, 9)
        nodes = lat.axis_nodes()
        assert nodes[0] == -1.5 and nodes[-1] == 1.5
        assert len(nodes) == 9

    @pytest.mark.parametrize("n,r,m", [(1, 1.0, 5), (2, -1.0, 5),
                                       (2, 1.0, 4), (2, 1.0, 3)])
    def test_rejects_bad_parameters(self, n, r, m):
        with pytest.raises(ValueError):
            make_lattice(n, r, m)

    def test_ball_mask_norms(self):
        lat = make_lattice(2, 1.0, 5)
        euclid = lat.ball_mask(0.5)
        cheb = lat.ball_mask(0.5, norm="max")
        # corner node (0.5, 0.5): inside the max-ball, outside the 2-ball
        assert cheb.sum() > euclid.sum()
        assert euclid[lat.origin_index]


class TestFields:
    def test_sample_scalar(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0] + 2 * X[..., 1], lat)
        assert f.values[lat.origin_index] == 0.0
        assert f.mask.all()

    def test_sample_rejects_nonfinite(self):
        lat = make_lattice(2, 1.0, 5)
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(divide="ignore"):
            sample_scalar(lambda X: 1.0 / X[..., 0], lat)

    def test_sample_metric_rejects_indefinite(self):
        lat = make_lattice(2, 1.0, 5)

        def gen(X):
            return np.broadcast_to(np.diag([1.0, -1.0]), X.shape[:-1] + (2, 2))

        with pytest.raises(ValueError, match="positive-definite"):
            sample_metric(gen, lat)

    def test_metric_packing_roundtrip(self):
        lat = make_lattice(2, 1.0, 5)

        def gen(X):
            mats = np.zeros(X.shape[:-1] + (2, 2))
            mats[..., 0, 0] = 2.0 + X[..., 0]
            mats[..., 1, 1] = 3.0
            mats[..., 0, 1] = mats[..., 1, 0] = 0.1 * X[..., 1]
            return mats

        g = sample_metric(gen, lat)
        assert np.allclose(g.matrices(), gen(lat.coords()))

    def test_metric_algebra_padded_off_partial_mask(self):
        lat = make_lattice(2, 1.0, 9)
        mask = lat.ball_mask(0.6)
        X = lat.coords()
        comps = np.stack([2.0 + X[..., 0], 0.3 * X[..., 1], 3.0 - X[..., 1]], axis=-1)
        comps[~mask] = np.nan  # garbage off the mask must never leak
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        mats, eigs, inv = g.matrices(), g.eigenvalues(), g.inverse()
        assert np.array_equal(mats[~mask], np.broadcast_to(np.eye(2), mats[~mask].shape))
        assert np.array_equal(eigs[~mask], np.ones_like(eigs[~mask]))
        assert np.array_equal(inv[~mask], np.broadcast_to(np.eye(2), inv[~mask].shape))
        assert np.array_equal(mats[mask][:, 0, 1], comps[mask][:, 1])
        assert np.array_equal(mats[mask][:, 1, 0], comps[mask][:, 1])
        assert np.abs((inv @ mats)[mask] - np.eye(2)).max() < 1e-14
        assert np.all(eigs[mask] > 0.0)


class TestErodeMask:
    def test_full_mask_shrinks_by_steps(self):
        lat = make_lattice(2, 1.0, 9)
        eroded = erode_mask(lat.full_mask(), 2)
        assert eroded.sum() == 5 * 5
        assert eroded[2:7, 2:7].all()

    def test_monotone_in_steps(self):
        lat = make_lattice(2, 1.0, 11)
        mask = lat.ball_mask(0.8)
        prev = mask
        for steps in range(1, 4):
            cur = erode_mask(mask, steps)
            assert np.all(cur <= prev)
            prev = cur


class TestDifferentiate:
    def test_linear_exact(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: 3.0 * X[..., 0] - X[..., 1], lat)
        jet = differentiate(f, 1)
        d = jet.blocks[1][jet.mask]
        assert np.allclose(d[:, 0], 3.0, atol=1e-12)
        assert np.allclose(d[:, 1], -1.0, atol=1e-12)

    def test_quadratic_second_derivative_exact(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0] ** 2 + X[..., 0] * X[..., 1], lat)
        jet = differentiate(f, 2)
        d2 = jet.blocks[2][jet.mask]
        assert np.allclose(d2[:, 0, 0], 2.0, atol=1e-12)
        assert np.allclose(d2[:, 0, 1], 1.0, atol=1e-12)
        assert np.allclose(d2[:, 1, 1], 0.0, atol=1e-12)

    def test_mixed_partials_symmetric(self):
        lat = make_lattice(2, 1.0, 21)
        f = sample_scalar(lambda X: np.sin(X[..., 0]) * np.cos(2 * X[..., 1]), lat)
        jet = differentiate(f, 2)
        d2 = jet.blocks[2]
        assert np.allclose(d2[..., 0, 1], d2[..., 1, 0], atol=1e-11)

    def test_sin_convergence_order(self):
        errs, hs = [], []
        for m in (21, 41, 81):
            lat = make_lattice(2, 1.0, m)
            f = sample_scalar(lambda X: np.sin(X[..., 0]), lat)
            jet = differentiate(f, 1)
            err = np.abs(jet.blocks[1][..., 0] - np.cos(lat.coords()[..., 0]))
            errs.append(err[jet.mask].max())
            hs.append(lat.h)
        order = convergence_order(hs, errs)
        assert 1.8 <= order <= 2.2

    def test_linearity(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: np.sin(X[..., 0] + X[..., 1]), lat)
        g = sample_scalar(lambda X: np.cos(X[..., 0] - X[..., 1]), lat)
        fg = ScalarField(lattice=lat, values=2.0 * f.values + 3.0 * g.values,
                         mask=lat.full_mask())
        jf, jg, jfg = (differentiate(x, 2) for x in (f, g, fg))
        for k in range(3):
            combo = 2.0 * jf.blocks[k] + 3.0 * jg.blocks[k]
            assert np.allclose(jfg.blocks[k][jfg.mask], combo[jfg.mask],
                               atol=1e-10)

    def test_mask_shrinks_with_order(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0], lat)
        prev = f.mask
        for order in range(1, 4):
            jet = differentiate(f, order)
            assert np.all(jet.mask <= prev)
            prev = jet.mask

    def test_order_too_high_for_lattice(self):
        lat = make_lattice(2, 1.0, 5)
        f = sample_scalar(lambda X: X[..., 0], lat)
        with pytest.raises(ValueError, match="too high"):
            differentiate(f, 3)

    @settings(max_examples=20, deadline=None)
    @given(ax=st.integers(min_value=0, max_value=1),
           c=st.floats(min_value=-2.0, max_value=2.0))
    def test_central_diff_kills_constants(self, ax, c):
        lat = make_lattice(2, 1.0, 9)
        vals = np.full(lat.shape, c)
        d = central_diff(vals, ax, lat.h)
        assert np.allclose(d, 0.0, atol=1e-12)


class TestConvergenceOrder:
    def test_exact_power_law(self):
        hs = [0.1, 0.05, 0.025]
        errs = [h**2 for h in hs]
        assert convergence_order(hs, errs) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            convergence_order([0.1, 0.05], [1e-3, 0.0])
