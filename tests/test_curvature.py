"""Tests for Riemann curvature and sectional data."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import ndimage

from mollilab import cli
from mollilab.atlas import assemble_mollified
import mollilab.curvature as curvature
import mollilab.lattice as lattice
from mollilab.curvature import (RiemannField, _slab_index, riemann, sec_extreme_fields,
                                sec_spectrum)
from mollilab.kernels import scale_kernel
from mollilab.lattice import (Lattice, MetricField, _jet_blocks, erode_mask, inverse_planes,
                              make_lattice, pack_map, pack_symmetric, sample_metric,
                              unpack_symmetric)
from mollilab.modelzoo import get_geometry
from mollilab.norms import check_N0
from packing import packed
from riemann_parts import (lambda2, lapack_spectrum, lower_inverse, pair_axes, s_tensor,
                           slab_parts)


def _conformal(lam):
    return packed(lambda X: lam(X)[..., None, None] * np.eye(X.shape[-1]))


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
    return packed(gen)


def _lambda2_of_matrices(mats):
    """Lambda^2 of full matrices, (Lambda^2 g)_IJ = g_ac g_bd - g_ad g_bc:
    the reference for `lambda2`, which reads packed components."""
    a, b, c, d = pair_axes(mats.shape[-1])
    return mats[..., a, c] * mats[..., b, d] - mats[..., a, d] * mats[..., b, c]


def _matrices(g):
    """g's full symmetric matrices, grid + (n, n), the identity off the mask."""
    return unpack_symmetric(g.comps, g.lattice.n)


def _inverse(comps, n):
    """g^-1 as one C-contiguous node-major array (..., n, n), from
    `inverse_planes`."""
    return np.ascontiguousarray(np.moveaxis(inverse_planes(comps, n), (0, 1), (-2, -1)))


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector components (u ^ v)_I = u_a v_b - u_b v_a, trailing axis I."""
    a, b = np.triu_indices(u.shape[-1], 1)
    return u[..., a] * v[..., b] - u[..., b] * v[..., a]


DEGENERATE_GRAM = 1e-12


def sectional_field(g, R, v, w):
    """Reference: the sectional curvature of the constant plane (v, w) at
    every node, K = om^T R om / om^T (Lambda^2 g) om with om = v ^ w; NaN
    where |v ^ w|_g^2 < DEGENERATE_GRAM."""
    om = _wedge(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    gram = np.einsum("...IJ,I,J->...", _lambda2_of_matrices(_matrices(g)), om, om)
    num = np.einsum("...IJ,I,J->...", R.riem, om, om)
    with np.errstate(divide="ignore", invalid="ignore"):
        sec = num / gram
    sec[gram < DEGENERATE_GRAM] = np.nan
    return sec


def _parts(g):
    """The Hessian part A and the remainder B of g, built as one slab of
    the whole grid, with their valid mask."""
    A, B = slab_parts(g, inverse_planes(g.comps, g.lattice.n), 0, g.lattice.m)
    return A, B, erode_mask(g.mask, 2)


def _builder_trim(g) -> int:
    """The nodes a side that `riemann` crops from g's grid, read from the
    size of the component array it hands to the slab builder."""
    sizes = []
    build = curvature._slab_planes

    def spy(comps, *args):
        sizes.append(comps.shape[0])
        return build(comps, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curvature, "_slab_planes", spy)
        riemann(g)
    assert len(set(sizes)) == 1
    return (g.mask.shape[0] - sizes[0]) // 2


def _sec_range(R, region):
    """(min, max) of the exact sectional extremes over region & R.mask."""
    region = region & R.mask
    lo, hi, _ = sec_extreme_fields(R)
    return lo[region].min(), hi[region].max()


def _plane_family(n=3, count=32, seed=0):
    """The 3 coordinate planes and 32 seeded random planes that bounded the
    sectional extremes before they were computed exactly."""
    planes = [(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(i + 1, n)]
    raw = np.random.Generator(np.random.Philox(key=seed)).standard_normal((count, 2, n))
    return planes + [(raw[k, 0], raw[k, 1]) for k in range(count)]


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
        for part in (R.riem, *_parts(g)[:2]):
            assert np.array_equal(part, np.swapaxes(part, -2, -1))

    def test_constant_coefficient_metric_flat(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([2.0, 3.0]), X.shape[:-1] + (2, 2))

        R = riemann(sample_metric(packed(gen), lat))
        assert np.abs(R.riem[R.mask]).max() < 1e-13

    def test_decomposition_constant_metric_both_zero(self):
        lat = make_lattice(2, 1.0, 11)

        def gen(X):
            return np.broadcast_to(np.diag([2.0, 3.0]), X.shape[:-1] + (2, 2))

        A, B, mask = _parts(sample_metric(packed(gen), lat))
        assert np.abs(A[mask]).max() < 1e-13
        assert np.abs(B[mask]).max() < 1e-13


def _hessian_part(d2, n: int) -> np.ndarray:
    """A_IJ = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac) from d2(i, j, x, y) =
    d_y d_x g_ij, each mixed partial read as the builder reads it, with
    x < y.  A is then symmetric in (I, J) bit for bit: A_JI adds its first
    two terms in the other order."""
    a, b, c, d = pair_axes(n)

    def term(i, j, x, y):
        return d2(i, j, np.minimum(x, y), np.maximum(x, y))
    return 0.5 * (term(a, d, b, c) + term(b, c, a, d) - term(a, c, b, d) - term(b, d, a, c))


def _full_matrix_hessian_part(g: MetricField) -> np.ndarray:
    """The Hessian part A from the jet of the full n x n matrices,
    d2g[..., i, j, P[x, y]] = d_y d_x g_ij for x <= y."""
    lat = g.lattice
    mats = np.where(g.mask[..., None, None], _matrices(g), 0.0)
    d2g = _jet_blocks(mats, lat.n, lat.h, 2)[2]
    P = pack_map(lat.n)
    return _hessian_part(lambda i, j, x, y: d2g[..., i, j, P[x, y]], lat.n)


@pytest.mark.parametrize("mollified", [False, True])
def test_packed_jet_gives_full_matrix_hessian_part(mollified):
    # the builder differentiates the packed components; the entries it reads
    # are the same central differences as those of the full matrices
    geo = get_geometry("sphere3")
    lat = geo.chart_lattice(17)
    samples = geo.sample_all(17)
    if mollified:
        samples = assemble_mollified(geo.atlas, samples, scale_kernel(3, 0.3, lat.h))
    g = samples["north"]
    A, _, mask = _parts(g)
    assert mask.any()
    assert np.array_equal(A[mask], _full_matrix_hessian_part(g)[mask])


def _whole_grid_jet(g: MetricField):
    """The crop the builder takes (the centred cube that holds g's mask
    with a 2-node pad), the whole 2-jet of its stored components
    at g's spacing, S_mkl node-major and g^-1 on it."""
    n, m = g.lattice.n, g.lattice.m
    nodes = np.argwhere(g.mask)
    trim = max(min(nodes.min(), m - 1 - nodes.max()) - 2, 0)
    del nodes  # not part of the reference's peak
    crop = (slice(trim, m - trim),) * n
    _, dg, d2g = _jet_blocks(g.comps[crop], n, g.lattice.h, 2)
    S = s_tensor(dg[..., pack_map(n), :])
    return crop, d2g, S, _inverse(g.comps, n)[crop]


def _pasted(g: MetricField, crop, parts):
    """parts pasted into zero arrays on g's grid, with their valid mask."""
    full = []
    for x in parts:
        full.append(np.zeros(g.mask.shape + x.shape[-2:]))
        full[-1][crop] = x
    mask = np.zeros_like(g.mask)
    mask[crop] = erode_mask(g.mask[crop], 2)
    return (*full, mask)


def _whole_grid_parts(g: MetricField):
    """The builder before streaming, kept as the reference: A and B from
    the whole-grid jet, node-major, each sum in the builder's order, with
    their valid mask.  Gamma^q_bc = 1/2 sum_p g^qp S_p,bc is summed over
    p = 0, 1, ..., and B_IJ for I < J is mirrored into B_JI."""
    n = g.lattice.n
    crop, d2g, S, ginv = _whole_grid_jet(g)
    P = pack_map(n)
    A = _hessian_part(lambda i, j, x, y: d2g[..., P[i, j], P[x, y]], n)
    gamma = ginv[..., :, 0, None, None] * S[..., None, 0, :, :]
    for p in range(1, n):
        gamma += ginv[..., :, p, None, None] * S[..., None, p, :, :]
    gamma *= 0.5
    a, b, c, d = pair_axes(n)
    B = gamma[..., 0, b, c] * S[..., 0, a, d] - gamma[..., 0, b, d] * S[..., 0, a, c]
    for q in range(1, n):
        B += gamma[..., q, b, c] * S[..., q, a, d] - gamma[..., q, b, d] * S[..., q, a, c]
    B *= 0.5
    I, J = np.triu_indices(A.shape[-1], 1)
    B[..., J, I] = B[..., I, J]
    return _pasted(g, crop, (A, B))


def _averaged_riemann(g: MetricField) -> np.ndarray:
    """R as the builder took it before each independent entry was computed
    once, kept as a round-off reference: Gamma from numpy's stacked
    matmul (BLAS) and the two triangles of A and B averaged."""
    n = g.lattice.n
    crop, d2g, S, ginv = _whole_grid_jet(g)
    P = pack_map(n)
    a, b, c, d = pair_axes(n)
    A = 0.5 * (d2g[..., P[a, d], P[b, c]] + d2g[..., P[b, c], P[a, d]]
               - d2g[..., P[a, c], P[b, d]] - d2g[..., P[b, d], P[a, c]])
    gamma = 0.5 * np.matmul(ginv, S.reshape(S.shape[:-2] + (-1,))).reshape(S.shape)
    B = 0.5 * sum(gamma[..., q, b, c] * S[..., q, a, d]
                  - gamma[..., q, b, d] * S[..., q, a, c] for q in range(n))
    R = 0.5 * (A + np.swapaxes(A, -2, -1)) + 0.5 * (B + np.swapaxes(B, -2, -1))
    return _pasted(g, crop, [R])[0]


SHIPPED = ["flat2", "flat3", "flat2-single", "flat3-single", "sphere2", "sphere3",
           "hyperbolic2", "hyperbolic3", "pflat2", "pflat3"]


def _raw_and_mollified(name):
    """m and the raw and mollified (t = 0.4 r) charts of a shipped model at
    m = 21 in 2-d, 13 in 3-d; the one-chart models' mollified masks are
    cropped."""
    geo = get_geometry(name)
    m = 21 if geo.n == 2 else 13
    lat = geo.chart_lattice(m)
    samples = geo.sample_all(m)
    mollified = assemble_mollified(geo.atlas, samples,
                                   scale_kernel(geo.n, 0.4 * geo.r, lat.h))
    assert any(not g.mask.all() for g in mollified.values())
    return m, [*samples.values(), *mollified.values()]


class TestStreamedBuilder:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_bit_equal_to_whole_grid_jet(self, name, monkeypatch):
        # raw and mollified charts, with the default slab and with slabs of
        # m^(n-1) and 3 m^(n-1) nodes: one and three planes of a whole
        # chart, so the last slab is short and the first and last slabs
        # meet the ends of the crop, where their halo has one plane
        m, charts = _raw_and_mollified(name)
        default = curvature.SLAB_NODES
        for g in charts:
            A_ref, B_ref, mask_ref = _whole_grid_parts(g)
            for slab in (default, m ** (g.lattice.n - 1), 3 * m ** (g.lattice.n - 1)):
                monkeypatch.setattr(curvature, "SLAB_NODES", slab)
                R = riemann(g)
                assert np.array_equal(R.riem, A_ref + B_ref)
                assert np.array_equal(R.mask, mask_ref)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_within_round_off_of_the_averaged_builder(self, name):
        # computing each independent entry once moves R only by round-off
        # from the builder that took both triangles and averaged them
        for g in _raw_and_mollified(name)[1]:
            R = riemann(g).riem
            bound = 4 * np.finfo(float).eps * np.abs(R).max()
            assert np.abs(R - _averaged_riemann(g)).max() <= bound

    @pytest.mark.parametrize("n,entries,planes,mixed", [(3, 6, 21, 12), (4, 21, 72, 48)])
    def test_slab_index_takes_each_entry_once(self, n, entries, planes, mixed):
        # A and B for I <= J only; each second derivative A reads is one
        # row of d2, a mixed one only as d_y d_x g with x < y; S and Gamma
        # for k <= l
        S, A, B, D2 = _slab_index(n)
        N = n * (n - 1) // 2
        upper = [(I, J) for I in range(N) for J in range(I, N)]
        assert len(upper) == entries
        assert [t[:2] for t in A] == [t[:2] for t in B] == upper
        rows = [(x, y, k) for x, y, k0, k1 in D2 for k in range(k0, k1)]
        assert len(set(rows)) == len(rows) == planes
        assert all(x <= y for x, y, _ in rows)
        assert sum(x < y for x, y, _ in rows) == mixed
        assert {r for t in A for r in t[2:]} == set(range(planes))
        assert len({t[:2] for t in S}) == len(S) == n * n * (n + 1) // 2

    @pytest.mark.parametrize("masked", [False, True], ids=["whole", "cropped"])
    def test_bit_equal_to_whole_grid_jet_in_4d(self, masked, monkeypatch):
        # a conformal sphere chart in dimension 4, whole and masked to the
        # max-norm 0.3 ball, which the builder crops by one node a side
        m = 13
        lat = make_lattice(4, 0.5, m)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        if masked:
            g = MetricField(lattice=lat, comps=g.comps, mask=lat.ball_mask(0.3, norm="max"))
            assert _builder_trim(g) == 1
        A_ref, B_ref, mask_ref = _whole_grid_parts(g)
        for slab in (curvature.SLAB_NODES, m ** 3, 3 * m ** 3):
            monkeypatch.setattr(curvature, "SLAB_NODES", slab)
            R = riemann(g)
            assert np.array_equal(R.riem, A_ref + B_ref)
            assert np.array_equal(R.mask, mask_ref)

    def test_slab_memory_above_output_and_inverse(self):
        # besides R and g^-1 (3 x 3 per node each) the builder holds one
        # slab, here one 41 x 41 plane; node-major slabs peaked 3.43e6 bytes
        # above the two, and a layout that copied the whole crop would
        # double that
        g = get_geometry("sphere3").sample_all(41)["north"]
        tracemalloc.start()
        R = riemann(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - 2 * R.riem.nbytes <= 1.25 * 3.43e6

    def test_peak_memory_at_most_half_of_whole_grid_jet(self):
        g = get_geometry("sphere3").sample_all(41)["north"]
        peaks = []
        for build in (_whole_grid_parts, riemann):
            tracemalloc.start()
            build(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 0.5 * peaks[0]

    def test_metric_checks_name_the_node_in_the_chart_grid(self):
        # the mask is the max-norm 0.4 ball, so the builder crops 4 nodes
        # from every side; a singular node of a hand-built field, which no
        # checked stage would let through, is still named in g's own grid,
        # and on a window of a chart (the same 21^3 nodes, 2 cut from each
        # end of a 25-node axis) in the chart's grid
        mask = make_lattice(3, 1.0, 21).ball_mask(0.4, norm="max")
        for trim in (0, 2):
            lat = Lattice(n=3, r=1.0 + 0.1 * trim, m=21 + 2 * trim, trim=trim)
            comps = np.broadcast_to(pack_symmetric(np.eye(3)), lat.shape + (6,)).copy()
            # the crop depends on the mask alone
            assert _builder_trim(MetricField(lattice=lat, comps=comps, mask=mask)) == 4
            where = ", ".join(str(i + trim) for i in (12, 10, 9))
            for diag, what in (([0.0, 1.0, 1.0], "metric has g_00 = 0"),
                               ([1.0, 0.0, 1.0], "singular metric")):
                comps[12, 10, 9] = pack_symmetric(np.diag(diag))
                g = MetricField(lattice=lat, comps=comps, mask=mask)
                with pytest.raises(np.linalg.LinAlgError,
                                   match=rf"^{what} at node \({where}\)$"):
                    riemann(g)

    # (geometry, m, t / r, the builder's trim on each mollified chart)
    CROPPED = [("hyperbolic2", 41, 0.1, [6]), ("hyperbolic3", 13, 0.3, [1]),
               ("pflat2", 41, 0.2, [6]), ("pflat3", 13, 0.3, [1]),
               ("flat2", 41, 0.2, [1, 2]), ("sphere2", 41, 0.2, [0, 0])]

    @pytest.mark.parametrize("name,m,t,trims", CROPPED)
    def test_cropped_bit_equal_to_whole_grid_on_the_mask(self, name, m, t, trims):
        # the crop is a set of slices of g at g's own spacing, so R on the
        # mask does not depend on how far the mask was eroded
        geo = get_geometry(name)
        lat = geo.chart_lattice(m)
        mollified = assemble_mollified(geo.atlas, geo.sample_all(m),
                                       scale_kernel(geo.n, t * geo.r, lat.h))
        assert [_builder_trim(g) for g in mollified.values()] == trims
        for g in mollified.values():
            R = riemann(g)
            whole = riemann(MetricField(lattice=lat, comps=g.comps, mask=lat.full_mask()))
            assert R.mask.any()
            assert np.array_equal(R.riem[R.mask], whole.riem[R.mask])

    def test_builds_no_metric_field_or_lattice(self, monkeypatch):
        geo = get_geometry("pflat2")
        lat = geo.chart_lattice(41)
        g, = assemble_mollified(geo.atlas, geo.sample_all(41),
                                scale_kernel(2, 0.2 * geo.r, lat.h)).values()
        assert _builder_trim(g) > 0

        def refuse(self):
            raise AssertionError(f"riemann built a {type(self).__name__}")

        monkeypatch.setattr(lattice.MetricField, "__post_init__", refuse)
        monkeypatch.setattr(lattice.Lattice, "__post_init__", refuse)
        R = riemann(g)
        assert R.metric is g

    @pytest.mark.parametrize("name,m,t", [("pflat2", 41, 0.2), ("pflat3", 13, 0.3)])
    def test_inverts_only_its_crop(self, name, m, t, monkeypatch):
        # g^-1 is taken on the cropped components alone; R is bit for bit
        # the R built from the crop of g's whole-grid inverse
        geo = get_geometry(name)
        lat = geo.chart_lattice(m)
        g = next(iter(assemble_mollified(geo.atlas, geo.sample_all(m),
                                         scale_kernel(geo.n, t * geo.r, lat.h)).values()))
        trim = _builder_trim(g)
        assert trim > 0
        crop = (slice(trim, m - trim),) * geo.n
        seen = []

        def spy(comps, n, shift=0):
            seen.append((comps.shape, shift))
            return lattice.inverse_planes(comps, n, shift)

        monkeypatch.setattr(curvature, "inverse_planes", spy)
        R = riemann(g)
        assert seen == [(g.comps[crop].shape, trim)]
        whole = lattice.inverse_planes(g.comps, g.lattice.n)
        monkeypatch.setattr(curvature, "inverse_planes",
                            lambda comps, n, shift=0: whole[(slice(None),) * 2 + crop])
        assert np.array_equal(R.riem, riemann(g).riem)

    def test_refuses_an_empty_mask(self):
        lat = make_lattice(2, 1.0, 11)
        g = MetricField(lattice=lat, comps=sample_metric(_flat(2), lat).comps,
                        mask=np.zeros(lat.shape, dtype=bool))
        with pytest.raises(ValueError, match=r"^riemann: metric mask is empty$"):
            riemann(g)


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

    @pytest.mark.parametrize("lam,expect", [
        (_sphere_lam(), 1.0), (_poincare_lam(), -1.0),
        (_sphere_lam(2.0), get_geometry("sphere2", R=2.0).reference_sec)])
    def test_constant_curvature_convergence(self, lam, expect):
        errs, hs = [], []
        for m in (21, 41, 81):
            lat = make_lattice(2, 0.4, m)
            g = sample_metric(_conformal(lam), lat)
            R = riemann(g)
            region = lat.ball_mask(0.2)
            lo, hi = _sec_range(R, region)
            errs.append(max(abs(lo - expect), abs(hi - expect)))
            hs.append(lat.h)
        assert np.polyfit(np.log(hs), np.log(errs), 1)[0] >= 1.8

    def test_extremes_ordered(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        lo, hi = _sec_range(R, lat.ball_mask(0.2))
        assert lo <= hi

    def test_extreme_fields_bracket_plane_values(self):
        lat = make_lattice(3, 0.4, 21)
        g = sample_metric(_conformal(_sphere_lam()), lat)
        R = riemann(g)
        lo, hi, _ = sec_extreme_fields(R)
        sec = sectional_field(g, R, np.eye(3)[0], np.eye(3)[1])
        good = R.mask & np.isfinite(sec)
        assert np.all(lo[good] <= sec[good] + 1e-12)
        assert np.all(sec[good] <= hi[good] + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_extremes_exact_over_all_planes(self, seed):
        lat = make_lattice(3, 0.5, 15)
        g = sample_metric(_smooth_metric(seed), lat)
        R = riemann(g)
        lo, hi, _ = sec_extreme_fields(R)
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
        mats = _matrices(g)
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
        lo, hi, _ = sec_extreme_fields(R)
        assert np.array_equal(lo[R.mask], hi[R.mask])
        sec = sectional_field(g, R, np.array([1.0, 0.4]), np.array([-0.3, 2.0]))
        assert np.allclose(sec[R.mask], lo[R.mask], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(2))
    def test_extreme_fields_match_generalised_eigenvalues(self, seed):
        lat = make_lattice(3, 0.5, 11)
        g = sample_metric(_smooth_metric(seed), lat)
        R = riemann(g)
        lo, hi, _ = sec_extreme_fields(R)
        ev = np.sort(np.linalg.eigvals(np.linalg.solve(_lambda2_of_matrices(_matrices(g)),
                                                       R.riem)).real)
        scale = np.abs(ev).max(axis=-1)
        assert np.all(np.abs(lo - ev[..., 0])[R.mask] <= 1e-13 * scale[R.mask])
        assert np.all(np.abs(hi - ev[..., -1])[R.mask] <= 1e-13 * scale[R.mask])

    def test_extremes_reject_dimension_above_3(self):
        lat = make_lattice(4, 1.0, 5)
        g = sample_metric(_flat(4), lat)
        R = RiemannField(metric=g, riem=np.zeros(lat.shape + (6, 6)), mask=g.mask)
        with pytest.raises(ValueError, match="dimension 2 or 3"):
            sec_extreme_fields(R)


def _whole_grid_spectrum(R: RiemannField):
    """The same solve on every node of R's grid, the reference for the solve
    on R.mask: the bits of a node must not depend on the batch it is in."""
    return sec_spectrum(RiemannField(metric=R.metric, riem=R.riem, mask=np.ones_like(R.mask)))


def _whole_grid_scalar(g: MetricField, R: RiemannField):
    """The scalar curvature before it moved onto R.mask, kept as the
    reference: 2 sum_IJ (Lambda^2 g^-1)_IJ R_IJ at every node."""
    ginv = _inverse(g.comps, g.lattice.n)
    return 2.0 * np.einsum("...IJ,...IJ->...", _lambda2_of_matrices(ginv), R.riem)


def _on_mask_cases(name):
    """Raw and mollified charts of a geometry, and a field whose mask the
    Riemann builder crops, so R is zero off the crop."""
    geo = get_geometry(name)
    m = 25 if geo.n == 2 else 17
    lat = geo.chart_lattice(m)
    samples = geo.sample_all(m)
    mollified = assemble_mollified(geo.atlas, samples,
                                   scale_kernel(geo.n, 0.15 * geo.r, lat.h))
    first = samples[min(samples)]
    cropped = MetricField(lattice=lat, comps=first.comps,
                          mask=lat.ball_mask(0.5 * geo.r, norm="max"))
    assert _builder_trim(cropped) > 0
    return (*samples.values(), *mollified.values(), cropped)


class TestExtremesOnMask:
    @pytest.mark.parametrize("name", ["sphere2", "sphere3"])
    def test_bit_equal_to_whole_grid_solve_and_nan_off_mask(self, name):
        for g in _on_mask_cases(name):
            R = riemann(g)
            assert R.mask.any() and not R.mask.all()
            ev = sec_spectrum(R)[0]
            assert ev[R.mask].tobytes() == _whole_grid_spectrum(R)[0][R.mask].tobytes()
            assert np.isnan(ev[~R.mask]).all()

    @pytest.mark.parametrize("name", ["sphere2", "sphere3", "pflat3", "hyperbolic3"])
    def test_scalar_bit_equal_to_whole_grid_and_nan_off_mask(self, name):
        # the pencil's trace and the whole-grid contraction with Lambda^2 g^-1
        # round differently; they agree to 1e-14 relative (measured <= 6.5e-16)
        for g in _on_mask_cases(name):
            R = riemann(g)
            assert R.mask.any() and not R.mask.all()
            sc = sec_extreme_fields(R)[2]
            ref = _whole_grid_scalar(g, R)[R.mask]
            assert np.all(np.abs(sc[R.mask] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
            assert np.isnan(sc[~R.mask]).all()


class TestScalarFromPencil:
    @pytest.mark.parametrize("seed", range(2))
    def test_twice_the_sum_over_an_orthonormal_frame(self, seed):
        # independent of the pencil's trace and of Lambda^2 g^-1: at 12
        # nodes, s = 2 sum_{i<j} K(e_i, e_j) over a g-orthonormal frame e,
        # made by Gram-Schmidt in g from seeded random vectors
        lat = make_lattice(3, 0.5, 15)
        g = sample_metric(_smooth_metric(seed), lat)
        R = riemann(g)
        sc = sec_extreme_fields(R)[2]
        mats = _matrices(g)
        nodes = np.argwhere(R.mask)
        rng = np.random.Generator(np.random.Philox(key=20 + seed))
        for node in map(tuple, nodes[rng.choice(len(nodes), 12, replace=False)]):
            gm = mats[node]
            frame = []
            for u in rng.standard_normal((3, 3)):
                for e in frame:
                    u = u - (u @ gm @ e) * e
                frame.append(u / np.sqrt(u @ gm @ u))
            total = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    v, w = frame[i], frame[j]
                    om = _wedge(v, w)
                    gram = (v @ gm @ v) * (w @ gm @ w) - (v @ gm @ w) ** 2
                    total += om @ R.riem[node] @ om / gram
            scale = max(1.0, np.abs(R.riem[node]).max())
            assert abs(sc[node] - 2.0 * total) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "pflat2"])
    def test_twice_the_sectional_curvature_in_2d(self, name):
        for g in _on_mask_cases(name):
            R = riemann(g)
            lo, hi, sc = sec_extreme_fields(R)
            assert np.array_equal(sc[R.mask], 2.0 * lo[R.mask])
            assert np.isnan(sc[~R.mask]).all()

    def test_scalar_is_twice_the_pencil_trace(self):
        # twice the trace (C_00 + C_11) + C_22 of the congruence, taken on
        # the mask bit for bit as on the whole grid
        P = pack_map(3)
        I, J = np.triu_indices(3)
        for g in _on_mask_cases("sphere3"):
            R = riemann(g)
            C = curvature._congruence(np.moveaxis(R.riem[..., I, J], -1, 0),
                                      np.moveaxis(g.comps, -1, 0))
            want = 2.0 * (C[P[0, 0]] + C[P[1, 1]] + C[P[2, 2]])
            assert sec_spectrum(R)[1][R.mask].tobytes() == want[R.mask].tobytes()


class TestSpectrum:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lambda2_of_packed_components_is_that_of_the_matrices(self, n):
        # the pencil's Lambda^2 g indexes the packed components through
        # pack_map: the same products as on the full matrices, bit for bit
        mats = np.random.default_rng(n).standard_normal((7, 5, n, n))
        comps = pack_symmetric(mats + np.swapaxes(mats, -1, -2))
        want = _lambda2_of_matrices(unpack_symmetric(comps, n))
        assert lambda2(comps, n).shape == want.shape
        assert lambda2(comps, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["sphere2", "pflat2", "sphere3", "pflat3"])
    def test_sorted_and_nan_off_mask(self, name):
        for g in _on_mask_cases(name):
            R = riemann(g)
            ev, _ = sec_spectrum(R)
            assert ev.shape == R.riem.shape[:-1]
            assert np.all(np.diff(ev[R.mask], axis=-1) >= 0.0)
            assert not np.isnan(ev[R.mask]).any()
            assert np.isnan(ev[~R.mask]).all()

    @pytest.mark.parametrize("name", ["sphere2", "pflat2", "sphere3", "pflat3"])
    def test_extremes_are_its_first_and_last_columns(self, name):
        for g in _on_mask_cases(name):
            R = riemann(g)
            ev, scalar = sec_spectrum(R)
            lo, hi, sc = sec_extreme_fields(R)
            assert np.array_equal(lo, ev[..., 0], equal_nan=True)
            assert np.array_equal(hi, ev[..., -1], equal_nan=True)
            assert np.array_equal(sc, scalar, equal_nan=True)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_generalised_symmetric_eigenproblem(self, seed):
        # LAPACK's symmetric-definite solver on the full pencil (R, Lambda^2 g)
        lat = make_lattice(3, 0.5, 15)
        g = sample_metric(_smooth_metric(seed), lat)
        R = riemann(g)
        ev, _ = sec_spectrum(R)
        mats = _matrices(g)
        nodes = np.argwhere(R.mask)
        rng = np.random.Generator(np.random.Philox(key=30 + seed))
        for node in map(tuple, nodes[rng.choice(len(nodes), 20, replace=False)]):
            want = scipy.linalg.eigh(R.riem[node], _lambda2_of_matrices(mats[node]),
                                     eigvals_only=True)
            assert np.all(np.abs(ev[node] - want) <= 1e-10 * np.abs(want).max())
            assert want[-1] - want[0] > 0.1  # the metrics are far from isotropic

    @pytest.mark.parametrize("name", ["sphere3", "hyperbolic3"])
    def test_every_eigenvalue_converges_on_space_forms(self, name):
        # every plane of a space form has curvature reference_sec = +-1/R^2,
        # so each eigenvalue, the middle one too, converges to it
        geo = get_geometry(name)
        errs, hs = [], []
        for m in (17, 25, 33):
            lat = make_lattice(3, geo.curvature_radius, m)
            R = riemann(sample_metric(geo.atlas.charts[0].metric, lat))
            region = lat.ball_mask(geo.curvature_radius / 2.0) & R.mask
            errs.append(np.abs(sec_spectrum(R)[0][region] - geo.reference_sec).max(axis=0))
            hs.append(lat.h)
        assert np.all(errs[-1] < 0.01)
        orders = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert np.all(orders >= 1.8)

    def test_riem_excess_is_the_slack_free_sectional_distance_in_2d(self):
        # in 2-d the spectrum is the one sectional curvature k, so riem_excess
        # is the distance of k^[t] from the ball interval of k at the Riemann
        # radius e^Q t, with no slack
        cfg = cli.ExperimentConfig(geometry="sphere2", m=41, t_min=0.15, t_max=0.6,
                                   t_count=5)
        records, _ = cli.run_deviation(cfg)
        geo = get_geometry("sphere2")
        lat = geo.chart_lattice(cfg.m)
        samples = geo.sample_all(cfg.m)
        cid = geo.atlas.charts[0].id  # the chart the sweep reads
        g = samples[cid]
        base_R = riemann(g)
        k0 = sec_extreme_fields(base_R)[0]
        Q = check_N0(g)
        probe = lat.ball_mask(geo.r / 4.0, norm="max")
        for rec, t in zip(records, cfg.scales(geo.r)):
            size = 2 * (math.ceil(math.exp(Q) * t / lat.h) + 1) + 1
            k_lo = ndimage.minimum_filter(np.where(base_R.mask, k0, np.inf), size=size,
                                          mode="nearest")
            k_hi = ndimage.maximum_filter(np.where(base_R.mask, k0, -np.inf), size=size,
                                          mode="nearest")
            Rt = riemann(assemble_mollified(geo.atlas, samples,
                                            scale_kernel(2, t, lat.h))[cid])
            kt = sec_extreme_fields(Rt)[0]
            region = probe & Rt.mask & base_R.mask
            dist = np.maximum(np.maximum(k_lo - kt, kt - k_hi), 0.0)[region].max()
            assert rec.riem_excess == dist
        assert all(rec.riem_excess > 0.05 for rec in records)


EPS = np.finfo(float).eps


class TestJacobiPencil:
    @pytest.mark.parametrize("name", ["sphere3", "hyperbolic3", "pflat3", "flat3"])
    def test_within_round_off_of_lapack(self, name):
        # LAPACK's eigvalsh of the node-major congruence is the reference:
        # each eigenvalue within 16 eps max_i |lam_i| of it at its node
        # (measured <= 7.9), raw and mollified, at two sizes
        geo = get_geometry(name)
        for m in (17, 25):
            lat = geo.chart_lattice(m)
            samples = geo.sample_all(m)
            mollified = assemble_mollified(geo.atlas, samples,
                                           scale_kernel(3, 0.15 * geo.r, lat.h))
            for g in (*samples.values(), *mollified.values()):
                R = riemann(g)
                want = lapack_spectrum(R)
                bound = 16 * EPS * np.abs(want).max(axis=-1, keepdims=True)
                assert np.all(np.abs(sec_spectrum(R)[0][R.mask] - want) <= bound)

    @staticmethod
    def _random_metric(seed):
        """A 3-d m = 9 chart whose metric is A A^T / 3 + I per node, for
        seeded Gaussian A: condition numbers up to about 8."""
        lat = make_lattice(3, 1.0, 9)
        A = np.random.default_rng(seed).standard_normal(lat.shape + (3, 3))
        comps = pack_symmetric(A @ np.swapaxes(A, -1, -2) / 3.0 + np.eye(3))
        return MetricField(lattice=lat, comps=comps, mask=lat.full_mask())

    def test_zero_curvature_gives_exact_zeros_without_a_sweep(self, monkeypatch):
        # R = 0 meets the stopping rule before any rotation, so no sweep
        # may run and every eigenvalue and the scalar are +0.0
        g = self._random_metric(0)
        R = RiemannField(metric=g, riem=np.zeros(g.mask.shape + (3, 3)), mask=g.mask)
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", 0)
        ev, scalar = sec_spectrum(R)
        assert ev.tobytes() == np.zeros_like(ev).tobytes()
        assert scalar.tobytes() == np.zeros_like(scalar).tobytes()

    @pytest.mark.parametrize("K", [1.0, -2.5, 1e-3, 7e4])
    def test_space_form_gives_a_triple_eigenvalue(self, K):
        # R = K Lambda^2 g: every plane has curvature K, the pencil's
        # eigenvalue of multiplicity 3 (measured within 4 eps |K|)
        for seed in range(3):
            g = self._random_metric(seed)
            R = RiemannField(metric=g, riem=K * lambda2(g.comps, 3), mask=g.mask)
            ev, scalar = sec_spectrum(R)
            assert np.all(np.abs(ev - K) <= 16 * EPS * abs(K))
            assert np.all(np.abs(scalar - 6.0 * K) <= 32 * EPS * abs(K))

    def test_sweep_cap_names_the_node(self, monkeypatch):
        # every sphere3 node takes 4 sweeps; with a cap of 1 the first node
        # left unconverged is named in R's grid, which is g's grid
        geo = get_geometry("sphere3")
        R = riemann(geo.sample_all(17)["north"])
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", 1)
        with pytest.raises(ValueError, match=r"after 1 sweeps at node \(") as info:
            sec_spectrum(R)
        node = tuple(int(i) for i in info.value.args[0].rsplit("(", 1)[1].rstrip(")").split(","))
        assert R.mask[node]

    def test_sweep_cap_names_the_chart_node_on_a_window(self, monkeypatch):
        # on a window the refused node is the one the whole chart's R names
        # when its mask is cut to the window's nodes
        geo = get_geometry("sphere3")
        g = geo.sample_all(17)["north"]
        trim = 3
        win = Lattice(n=3, r=g.lattice.r, m=17, trim=trim)
        crop = (slice(trim, 17 - trim),) * 3
        R = riemann(MetricField(lattice=win, comps=g.comps[crop], mask=g.mask[crop]))
        whole = riemann(g)
        cut = np.zeros_like(whole.mask)
        cut[crop] = R.mask
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", 1)
        texts = []
        for field in (R, RiemannField(metric=g, riem=whole.riem, mask=cut)):
            with pytest.raises(ValueError, match=r"^sec_spectrum: Jacobi method not converged "
                                                 r"after 1 sweeps at node \(") as info:
                sec_spectrum(field)
            texts.append(info.value.args[0])
        assert texts[0] == texts[1]
        node = tuple(int(i) for i in texts[0].rsplit("(", 1)[1].rstrip(")").split(","))
        assert min(node) >= trim + 2


class TestLowerInverse:
    def test_inverts_3x3_factors(self):
        rng = np.random.default_rng(5)
        L = np.tril(rng.standard_normal((40, 3, 3)))
        L[:, range(3), range(3)] = 1.0 + np.abs(L[:, range(3), range(3)])
        assert np.abs(lower_inverse(L) @ L - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_refuses_other_factors(self, size):
        # a 6 x 6 factor (the pencil of a 4-d metric) once gave eigenvalues 0
        L = np.broadcast_to(np.eye(size), (5, size, size))
        with pytest.raises(ValueError, match=rf"trailing shape \({size}, {size}\)"):
            lower_inverse(L)


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
        lo, hi, sc = sec_extreme_fields(R)
        for field in (lo, hi):
            assert np.abs(field[region] - sec).max() < 5e-3 * abs(sec)
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

        g2 = sample_metric(packed(gen2), lat)
        R1, R2 = riemann(g1), riemann(g2)
        mask = R1.mask & R2.mask
        diff = np.abs((R1.riem - R2.riem)[mask]).max()
        assert diff < 1e-2  # bounded multiple of the h^-2-amplified eps
