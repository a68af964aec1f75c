"""Tests for the bump kernel and the discrete mollification operator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mollilab.kernels import (bump_profile, convolve, kernel_lq_bound, kernel_lq_norm,
                              scale_kernel)
from mollilab.lattice import (MetricField, ScalarField, central_diff, erode_mask,
                              make_lattice, pack_symmetric, packed_eigenvalues, sample_metric,
                              sample_scalar)
from packing import packed


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

        g = sample_metric(packed(gen), lat)
        pg = convolve(scale_kernel(2, 0.2, lat.h), g)
        assert isinstance(pg, MetricField)
        eigs = packed_eigenvalues(pg.comps, 2, "test")
        assert eigs[pg.mask][:, 0].min() > 0.0


    @pytest.mark.parametrize("n", [2, 3])
    def test_reads_only_the_mask(self, n):
        # P_t reads the stored array as it is: a pair equal on the mask and
        # far apart off it, and one metric's components on a sub-mask and on
        # the full mask, give the same bits on the output mask
        lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
        mask = lat.ball_mask(0.8)
        k = scale_kernel(n, 1.5 * lat.h, lat.h)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(lat.shape)
        other = np.where(mask, vals, rng.uniform(-1e6, 1e6, lat.shape))
        pa, pb = (convolve(k, ScalarField(lattice=lat, values=v, mask=mask))
                  for v in (vals, other))
        assert pa.mask.any() and np.array_equal(pa.mask, pb.mask)
        assert np.array_equal(pa.values[pa.mask], pb.values[pa.mask])

        X = lat.coords()
        mats = ((2.0 + np.sin(X.sum(axis=-1)))[..., None, None] * np.eye(n)
                + 0.1 * X[..., :, None] * X[..., None, :])
        comps = pack_symmetric(mats)
        sub, full = (convolve(k, MetricField(lattice=lat, comps=comps, mask=m))
                     for m in (mask, lat.full_mask()))
        assert sub.mask.any() and np.all(sub.mask <= full.mask)
        assert np.array_equal(sub.comps[sub.mask], full.comps[sub.mask])


@pytest.mark.parametrize("n", [2, 3])
def test_metric_convolve_is_per_component(n):
    lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
    mask = lat.ball_mask(0.8)
    X = lat.coords()
    mats = np.zeros(lat.shape + (n, n))
    for a in range(n):
        mats[..., a, a] = 2.0 + np.sin(3.0 * X[..., a])
    mats[..., 0, 1] = mats[..., 1, 0] = 0.3 * X[..., 0] * X[..., -1]
    g = MetricField(lattice=lat, comps=pack_symmetric(mats), mask=mask)
    k = scale_kernel(n, 0.25, lat.h)
    pg = convolve(k, g)
    ref = np.stack([convolve(k, ScalarField(lattice=lat, values=g.comps[..., c],
                                            mask=mask)).values
                    for c in range(g.comps.shape[-1])], axis=-1)
    assert np.array_equal(pg.comps[pg.mask], ref[pg.mask])
    # the output is stored with the packed identity off its mask
    eye = np.broadcast_to(pack_symmetric(np.eye(n)), pg.comps[~pg.mask].shape)
    assert np.array_equal(pg.comps[~pg.mask], eye)


@pytest.mark.parametrize("n", [2, 3])
def test_stack_convolve_is_per_field(n):
    """A stack of scalar fields mollifies as each field alone, every node
    bit for bit, on the one eroded mask."""
    lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
    mask = lat.ball_mask(0.8)
    values = np.random.default_rng(n).normal(size=lat.shape + (5,))
    k = scale_kernel(n, 0.25, lat.h)
    stack = convolve(k, ScalarField(lattice=lat, values=values, mask=mask))
    singles = [convolve(k, ScalarField(lattice=lat, values=values[..., i], mask=mask))
               for i in range(5)]
    assert all(np.array_equal(stack.mask, f.mask) for f in singles)
    ref = np.stack([f.values for f in singles], axis=-1)
    assert stack.values.shape == ref.shape and stack.values.tobytes() == ref.tobytes()


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

    @pytest.mark.parametrize("p", [1.001, 1.005, 2.0, 8.0])
    def test_finite_and_bounded_for_p_near_one(self, p):
        # q = p/(p - 1) is 1001 at p = 1.001; the lemmas sweep's kernels
        # at m = 35 overflowed the unscaled sum of densities^q
        q = p / (p - 1.0)
        h = 2.0 / 34
        for n in (2, 3):
            for t in np.geomspace(4.0 * h, 1.0 / 8.0, 5):
                k = scale_kernel(n, float(t), h)
                norm = kernel_lq_norm(k, q)
                assert np.isfinite(norm)
                assert norm <= kernel_lq_bound(k, q)
                dens = k.taps_nd() / h**n
                with np.errstate(over="ignore"):
                    unscaled = (np.sum(dens**q) * h**n) ** (1.0 / q)
                if np.isfinite(unscaled):
                    assert norm == pytest.approx(unscaled, rel=1e-12, abs=0.0)

    def test_rejects_bad_exponent(self):
        k = scale_kernel(2, 0.2, 0.02)
        with pytest.raises(ValueError):
            kernel_lq_norm(k, 1.0)
