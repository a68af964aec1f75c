"""Tests for the bump kernel and the discrete mollification operator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mollilab.kernels import (bump_profile, convolve, kernel_lq_bound, kernel_lq_norm,
                              scale_kernel)
from mollilab.lattice import (MetricField, ScalarField, central_diff, erode_mask,
                              make_lattice, pack_symmetric, sample_metric,
                              sample_scalar)


class TestBumpProfile:
    def test_maximum_at_origin(self):
        s = np.linspace(-0.999, 0.999, 1001)
        vals = bump_profile(s)
        assert vals.max() == vals[500] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_zero_outside_support(self):
        assert bump_profile(np.array([-1.0, 1.0, 1.5, -3.0])).tolist() == [0, 0, 0, 0]

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(min_value=-0.999, max_value=0.999))
    def test_even(self, s):
        assert bump_profile(s) == bump_profile(-s)


class TestScaleKernel:
    def test_tap_count_at_four_spacings(self):
        lat = make_lattice(2, 1.0, 21)
        k = scale_kernel(2, 4.0 * lat.h, lat.h)
        assert len(k.taps1d) == 9
        assert k.radius == 4

    def test_under_resolved_scale_rejected(self):
        lat = make_lattice(2, 1.0, 21)
        with pytest.raises(ValueError, match="under-resolved"):
            scale_kernel(2, lat.h, lat.h)
        with pytest.raises(ValueError):
            scale_kernel(2, 0.5 * lat.h, lat.h)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_kernel(2, 0.0, 0.1)

    def test_taps_positive_and_near_unit_mass(self):
        k = scale_kernel(2, 0.3, 0.05)
        assert np.all(k.taps1d >= 0)
        assert np.all(k.taps1d[1:-1] > 0)
        assert k.taps1d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_taps_nd_shape(self):
        k = scale_kernel(3, 0.3, 0.1)
        taps = k.taps_nd()
        assert taps.shape == (2 * k.radius + 1,) * 3
        assert taps.sum() == pytest.approx(1.0, abs=1e-12)


class TestConvolve:
    def test_constant_fixed_point(self):
        lat = make_lattice(2, 1.0, 41)
        f = sample_scalar(lambda X: np.full(X.shape[:-1], 2.5), lat)
        k = scale_kernel(2, 4.0 * lat.h, lat.h)
        pf = convolve(k, f)
        assert np.abs(pf.values[pf.mask] - 2.5).max() < 1e-12

    def test_mask_erodes_by_radius(self):
        lat = make_lattice(2, 1.0, 41)
        f = sample_scalar(lambda X: X[..., 0], lat)
        k = scale_kernel(2, 4.0 * lat.h, lat.h)
        pf = convolve(k, f)
        assert pf.mask.sum() == (41 - 2 * k.radius) ** 2

    def test_scale_too_large_for_domain(self):
        lat = make_lattice(2, 1.0, 11)
        f = sample_scalar(lambda X: X[..., 0], lat)
        k = scale_kernel(2, 1.2, lat.h)
        # radius covers almost the whole grid; erosion leaves nothing
        with pytest.raises(ValueError, match="empty output mask"):
            convolve(k, f)

    def test_spacing_mismatch_rejected(self):
        lat = make_lattice(2, 1.0, 41)
        f = sample_scalar(lambda X: X[..., 0], lat)
        k = scale_kernel(2, 0.2, 0.9 * lat.h)
        with pytest.raises(ValueError, match="spacing"):
            convolve(k, f)

    def test_sup_never_increases_exactly(self):
        lat = make_lattice(2, 1.0, 81)
        fns = [lambda X: np.ones(X.shape[:-1]),
               lambda X: np.sin(3 * X[..., 0]) * np.cos(2 * X[..., 1]),
               lambda X: np.abs(X[..., 0]) ** 0.6,
               lambda X: np.sign(X[..., 0] - 0.3)]
        for fn in fns:
            f = sample_scalar(fn, lat)
            for t in (3 * lat.h, 0.15, 0.3):
                pf = convolve(scale_kernel(2, t, lat.h), f)
                assert pf.sup_norm() <= f.sup_norm()

    def test_sin_lipschitz_deviation(self):
        lat = make_lattice(2, 1.0, 81)
        f = sample_scalar(lambda X: np.sin(X[..., 0]), lat)
        t = 0.1
        pf = convolve(scale_kernel(2, t, lat.h), f)
        dev = np.abs(pf.values - f.values)[pf.mask].max()
        assert dev <= t  # Lipschitz constant 1

    def test_linearity(self):
        lat = make_lattice(2, 1.0, 41)
        f = sample_scalar(lambda X: np.sin(X[..., 0]), lat)
        g = sample_scalar(lambda X: X[..., 1] ** 2, lat)
        k = scale_kernel(2, 0.2, lat.h)
        combo = ScalarField(lattice=lat, values=2 * f.values - g.values,
                            mask=lat.full_mask())
        lhs = convolve(k, combo).values
        rhs = 2 * convolve(k, f).values - convolve(k, g).values
        mask = convolve(k, f).mask
        assert np.abs(lhs - rhs)[mask].max() < 1e-12

    def test_metric_positive_definite_preserved(self):
        lat = make_lattice(2, 1.0, 41)

        def gen(X):
            mats = np.zeros(X.shape[:-1] + (2, 2))
            mats[..., 0, 0] = 1.0 + 0.5 * np.sin(3 * X[..., 0])
            mats[..., 1, 1] = 2.0 + 0.5 * np.cos(2 * X[..., 1])
            mats[..., 0, 1] = mats[..., 1, 0] = 0.3 * X[..., 0] * X[..., 1]
            return mats

        g = sample_metric(gen, lat)
        pg = convolve(scale_kernel(2, 0.2, lat.h), g)
        assert isinstance(pg, MetricField)
        eigs = pg.eigenvalues()
        assert eigs[pg.mask][:, 0].min() > 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_metric_convolve_is_per_component(n):
    lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
    mask = lat.ball_mask(0.8)
    X = lat.coords()
    mats = np.zeros(lat.shape + (n, n))
    for a in range(n):
        mats[..., a, a] = 2.0 + np.sin(3.0 * X[..., a])
    mats[..., 0, 1] = mats[..., 1, 0] = 0.3 * X[..., 0] * X[..., -1]
    g = MetricField.from_matrices(lat, mats, mask)
    k = scale_kernel(n, 0.25, lat.h)
    pg = convolve(k, g)
    ref = np.stack([convolve(k, ScalarField(lattice=lat, values=g.comps[..., c],
                                            mask=mask)).values
                    for c in range(g.comps.shape[-1])], axis=-1)
    assert np.array_equal(pg.comps[pg.mask], ref[pg.mask])
    # the output is stored with the packed identity off its mask
    eye = np.broadcast_to(pack_symmetric(np.eye(n)), pg.comps[~pg.mask].shape)
    assert np.array_equal(pg.comps[~pg.mask], eye)


def _commutation_defect(k, f: ScalarField, axis: int) -> float:
    """sup |d(P_t f) - P_t(d f)| over the common mask, same stencil both sides."""
    lat = f.lattice
    pf = convolve(k, f)
    d_of_pf = central_diff(pf.values, axis, lat.h)
    inner = erode_mask(f.mask, 1)
    df_vals = central_diff(np.where(f.mask, f.values, 0.0), axis, lat.h)
    pf_of_d = convolve(k, ScalarField(lattice=lat, values=np.where(inner, df_vals, 0.0),
                                      mask=inner))
    common = erode_mask(pf.mask, 1) & pf_of_d.mask
    return float(np.abs(d_of_pf - pf_of_d.values)[common].max())


class TestCommutation:
    @pytest.mark.parametrize("m", [41, 81, 161])
    def test_defect_at_round_off(self, m):
        # discrete convolution commutes exactly with the central stencil,
        # so the defect is pure floating-point noise at every resolution
        lat = make_lattice(2, 1.0, m)
        f = sample_scalar(lambda X: np.sin(2 * X[..., 0] + X[..., 1]), lat)
        k = scale_kernel(2, 0.25, lat.h)
        assert _commutation_defect(k, f, axis=0) < 1e-11


class TestLqNorm:
    @pytest.mark.parametrize("n,q", [(2, 2.0), (2, 4.0), (3, 2.0)])
    def test_bound_holds(self, n, q):
        h = 0.02
        k = scale_kernel(n, 0.2, h)
        assert kernel_lq_norm(k, q) <= kernel_lq_bound(k, q) * 1.0001

    def test_scaling_under_halved_t(self):
        n, q = 2, 2.0
        p = q / (q - 1.0)
        h = 0.005
        big = kernel_lq_norm(scale_kernel(n, 0.4, h), q)
        small = kernel_lq_norm(scale_kernel(n, 0.2, h), q)
        assert small / big == pytest.approx(2.0 ** (n / p), rel=0.05)

    def test_rejects_bad_exponent(self):
        k = scale_kernel(2, 0.2, 0.02)
        with pytest.raises(ValueError):
            kernel_lq_norm(k, 1.0)
