"""Tests for lattices, sampled fields, and finite differences."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mollilab.lattice import (MetricField, ScalarField, central_diff, check_definite,
                              differentiate, erode_mask, grow_box, make_lattice, pack_map,
                              pack_symmetric, sample_metric, sample_scalar, unpack_symmetric)
from mollilab.norms import check_N0


class TestLattice:
    def test_spacing(self):
        lat = make_lattice(2, 1.0, 5)
        assert lat.h == pytest.approx(0.5, abs=1e-15)

    def test_origin_is_node(self):
        lat = make_lattice(3, 2.0, 7)
        assert np.allclose(lat.coords()[3, 3, 3], 0.0)

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
        assert euclid[2, 2]


class TestFields:
    def test_sample_scalar(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0] + 2 * X[..., 1], lat)
        assert f.values[5, 5] == 0.0
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


    def test_from_matrices_rejects_nonfinite_lower_triangle(self):
        # only the upper triangle is stored, so the lower one is checked first
        lat = make_lattice(2, 1.0, 5)
        mats = np.broadcast_to(np.eye(2), lat.shape + (2, 2)).copy()
        for bad in (np.nan, np.inf):
            mats[3, 1, 1, 0] = bad
            with pytest.raises(ValueError, match=r"^non-finite metric value at node \(3, 1\)$"):
                MetricField.from_matrices(lat, mats, lat.full_mask())
        mask = lat.full_mask()
        mask[3, 1] = False
        g = MetricField.from_matrices(lat, mats, mask)
        assert np.array_equal(g.matrices()[3, 1], np.eye(2))

    def test_from_matrices_symmetry_ignores_nodes_off_the_mask(self):
        # a NaN off the mask must not switch off the symmetry test on it
        lat = make_lattice(2, 1.0, 5)
        mats = np.broadcast_to(np.eye(2), lat.shape + (2, 2)).copy()
        mask = lat.full_mask()
        mats[0, 0] = np.nan
        mask[0, 0] = False
        mats[2, 3, 0, 1] = 0.5
        with pytest.raises(ValueError, match=r"not symmetric at node \(2, 3\)$"):
            MetricField.from_matrices(lat, mats, mask)

    def test_sample_metric_names_the_asymmetric_node(self):
        lat = make_lattice(2, 1.0, 5)

        def gen(X):
            G = np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2)).copy()
            G[1, 4, 0, 1] = 0.25  # g_01 differs from g_10 at one node
            return G

        with pytest.raises(ValueError,
                           match=r"^metric matrices are not symmetric at node \(1, 4\)$"):
            sample_metric(gen, lat)


class TestCheckDefinite:
    """One check, where a metric is made: positive definite with condition
    number at most COND_LIMIT, naming the stage and the first bad node."""

    def test_names_first_bad_node(self):
        lat = make_lattice(2, 1.0, 11)
        comps = np.broadcast_to([1.0, 0.0, 1.0], lat.shape + (3,)).copy()
        mask = lat.full_mask()
        comps[1, 1] = [1.0, 2.0, 1.0]        # indefinite, but off the mask
        mask[1, 1] = False
        comps[3, 4] = comps[5, 0] = [1.0, 2.0, 1.0]
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        for stage, check in (("stage", lambda g: check_definite(g, "stage")),
                             ("check_N0", check_N0)):
            with pytest.raises(ValueError, match=rf"^{stage}: metric not positive-definite "
                                                 r"at node \(3, 4\)$"):
                check(g)

        def gen(X):
            mats = np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2)).copy()
            mats[2, 7] = [[1.0, 2.0], [2.0, 1.0]]
            return mats

        with pytest.raises(ValueError, match=r"^sample_metric: metric not positive-definite "
                                             r"at node \(2, 7\)$"):
            sample_metric(gen, lat)

    def test_rejects_ill_conditioned(self):
        lat = make_lattice(2, 1.0, 11)
        comps = np.broadcast_to([1.0, 0.0, 1.0], lat.shape + (3,)).copy()
        mask = lat.full_mask()
        comps[1, 1] = [1.0, 0.0, 1e-14]      # ill-conditioned, but off the mask
        mask[1, 1] = False
        comps[6, 2] = [1.0, 0.0, 1e-13]
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        for stage, check in (("stage", lambda g: check_definite(g, "stage")),
                             ("check_N0", check_N0)):
            with pytest.raises(ValueError, match=rf"^{stage}: metric condition number 1e\+13 "
                                                 r"exceeds 1e12 at node \(6, 2\)$"):
                check(g)

        def gen(X):
            return np.broadcast_to(np.diag([1.0, 1e-14]), X.shape[:-1] + (2, 2))

        with pytest.raises(ValueError, match=r"^sample_metric: metric condition number "
                                             r"1e\+14 exceeds 1e12 at node \(0, 0\)$"):
            sample_metric(gen, lat)
        comps[6, 2] = [1.0, 0.0, 1.01e-12]   # just inside the limit
        check_definite(MetricField(lattice=lat, comps=comps, mask=mask), "stage")


def _spd_field(lat, cond, seed):
    """Seeded random SPD matrices with condition number `cond` at every node,
    each scaled by a random power of ten in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    n = lat.n
    q, _ = np.linalg.qr(rng.standard_normal(lat.shape + (n, n)))
    lam = np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-3, 3, lat.shape + (1,))
    mats = np.einsum("...ij,...j,...kj->...ik", q, lam, q)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


EPS = np.finfo(float).eps


class TestClosedFormAlgebra:
    """The n <= 3 inverse and the 2-d eigenvalues are closed forms; they must
    agree with LAPACK to a tolerance proportional to the condition number."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e10])
    def test_inverse_matches_lapack(self, n, cond):
        lat = make_lattice(n, 1.0, 41 if n == 2 else 13)
        mats = _spd_field(lat, cond, seed=int(np.log10(cond)) + 10 * n)
        g = MetricField.from_matrices(lat, mats, lat.full_mask())
        inv, ref = g.inverse(), np.linalg.inv(mats)
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
        scale = np.abs(ref).max(axis=(-2, -1))[..., None, None]
        assert (np.abs(inv - ref) / scale).max() <= 16 * EPS * cond
        if cond <= 1e8:
            # a residual grows up to eps cond^2 for any computed inverse;
            # LAPACK's own reaches about 650 eps cond at cond = 1e10
            assert np.abs(inv @ mats - np.eye(n)).max() <= 1e-12 * cond

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e10])
    def test_eigenvalues_2d_match_eigvalsh(self, cond):
        lat = make_lattice(2, 1.0, 41)
        mats = _spd_field(lat, cond, seed=int(np.log10(cond)))
        eigs = MetricField.from_matrices(lat, mats, lat.full_mask()).eigenvalues()
        ref = np.linalg.eigvalsh(mats)
        assert np.all(eigs[..., 0] <= eigs[..., 1])
        # absolute error eps * lambda_max: eps * cond relative to lambda_min
        assert (np.abs(eigs - ref) / ref[..., 1:]).max() <= 16 * EPS
        assert (np.abs(eigs[..., 0] / ref[..., 0] - 1.0)).max() <= 16 * EPS * cond
        # on diagonal matrices det/top keeps the small root to a few eps,
        # where the trace minus the large root would lose eps * cond
        diag = np.zeros_like(mats)
        diag[..., 0, 0], diag[..., 1, 1] = ref[..., 0], ref[..., 1]
        eigs = MetricField.from_matrices(lat, diag, lat.full_mask()).eigenvalues()
        assert (np.abs(eigs / ref - 1.0)).max() <= 4 * EPS

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("garbage", [np.nan, 0.0])
    def test_padding_before_arithmetic(self, n, garbage):
        lat = make_lattice(n, 1.0, 9)
        mask = lat.ball_mask(0.6)
        mats = _spd_field(lat, 10.0, seed=n)
        comps = MetricField.from_matrices(lat, mats, mask).comps.copy()
        comps[~mask] = garbage  # a zero determinant off the mask must not warn
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = g.inverse()
            eigs = g.eigenvalues()
        eye = np.broadcast_to(np.eye(n), inv[~mask].shape)
        assert np.array_equal(inv[~mask], eye)
        assert np.array_equal(eigs[~mask], np.ones_like(eigs[~mask]))
        assert np.abs((inv @ g.matrices())[mask] - np.eye(n)).max() < 1e-13
        assert np.allclose(eigs[mask], np.linalg.eigvalsh(mats[mask]), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n,comps,what", [
        (2, [1.0, 1.0, 1.0], "singular metric"),
        (3, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0], "singular metric"),
        (3, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "g_00 = 0")])
    def test_singular_node_named(self, n, comps, what):
        lat = make_lattice(n, 1.0, 5)
        g = MetricField.from_matrices(lat, np.broadcast_to(np.eye(n), lat.shape + (n, n)),
                                      lat.full_mask())
        packed = g.comps.copy()
        node = (3,) + (1,) * (n - 1)
        packed[node] = comps
        with pytest.raises(np.linalg.LinAlgError, match=rf"{what} at node \({node[0]}, 1"):
            MetricField(lattice=lat, comps=packed, mask=g.mask).inverse()


def _partial_metric(n, m=11):
    """A random SPD field on the 0.7-ball with NaN garbage off it."""
    lat = make_lattice(n, 1.0, m)
    mask = lat.ball_mask(0.7)
    comps = pack_symmetric(_spd_field(lat, 10.0, seed=n))
    comps[~mask] = np.nan
    return MetricField(lattice=lat, comps=comps, mask=mask), comps


class TestPackedStorage:
    """A metric is stored once: packed components in `np.triu_indices`
    order, with the packed identity off the mask."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_off_mask_after_construction(self, n):
        g, comps = _partial_metric(n)
        assert np.array_equal(g.comps[g.mask], comps[g.mask])
        eye = np.broadcast_to(pack_symmetric(np.eye(n)), g.comps[~g.mask].shape)
        assert np.array_equal(g.comps[~g.mask], eye)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pack_round_trip_bit_exact(self, n):
        lat = make_lattice(n, 1.0, 5)
        mats = _spd_field(lat, 1e3, seed=n)
        i, j = np.triu_indices(n)
        assert np.array_equal(pack_map(n)[i, j], np.arange(i.size))
        assert np.array_equal(pack_map(n), pack_map(n).T)
        comps = pack_symmetric(mats)
        assert np.array_equal(comps, mats[..., i, j])
        assert np.array_equal(unpack_symmetric(comps, n), mats)
        g = MetricField.from_matrices(lat, mats, lat.full_mask())
        assert np.array_equal(g.comps, comps)
        assert np.array_equal(g.matrices(), mats)

    @pytest.mark.parametrize("n", [2, 3])
    def test_differentiate_is_per_component(self, n):
        g, _ = _partial_metric(n)
        jet = differentiate(g, 2)
        refs = [differentiate(ScalarField(lattice=g.lattice, values=g.comps[..., c],
                                          mask=g.mask), 2)
                for c in range(g.comps.shape[-1])]
        for k in range(3):
            assert jet.blocks[k].shape == g.comps.shape + (n,) * k
            assert np.array_equal(jet.blocks[k],
                                  np.stack([r.blocks[k] for r in refs], axis=n))
        assert np.array_equal(jet.mask, refs[0].mask)


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


class TestGrowBox:
    @pytest.mark.parametrize("n,m,comps", [(2, 9, ()), (2, 8, (3,)), (3, 7, ()), (3, 6, (2,))])
    def test_steps_equal_edge_replicating_max_filter(self, n, m, comps):
        """s box steps give the max over the clipped (2s+1)^n box, which is
        ndimage's max filter with mode="nearest" over the lattice axes."""
        rng = np.random.default_rng(10 * n + m)
        a = rng.normal(size=(m,) * n + comps)
        a[rng.random(a.shape) < 0.1] = -np.inf
        a[rng.random(a.shape) < 0.05] = np.inf
        grown, buf = a.copy(), np.empty_like(a)
        for s in range(1, m):
            grow_box(grown, buf, n)
            size = (2 * s + 1,) * n + (1,) * len(comps)
            ref = ndimage.maximum_filter(a, size=size, mode="nearest")
            assert np.array_equal(grown, ref)


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
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
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

