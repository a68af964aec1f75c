"""Tests for lattices, sampled fields, and finite differences."""
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from mollilab import lattice, norms
from mollilab.lattice import (COND_LIMIT, MetricField, ScalarField, _jet_blocks,
                              central_diff, central_diff2, certify_definite, check_definite,
                              check_eigenvalues, differentiate, erode_mask, fold, grow_box,
                              inverse_planes, Lattice, ldl_pivots, make_lattice, pack_map,
                              pack_symmetric, packed_det, packed_eigenvalues, sample_metric,
                              sample_scalar, unpack_symmetric)
from mollilab.modelzoo import get_geometry
from mollilab.norms import check_N0
from packing import packed


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
        with pytest.raises(ValueError, match=r"^non-finite scalar value at node \(2, 0\)$"), \
                np.errstate(divide="ignore"):
            sample_scalar(lambda X: 1.0 / X[..., 0], lat)

    def test_scalar_field_names_a_nonfinite_node_on_or_off_the_mask(self):
        # stored values are finite on every node, so stencils read them as they are
        lat = make_lattice(2, 1.0, 5)
        mask = lat.full_mask()
        mask[1, 2] = False
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(lat.shape)
            values[1, 2] = values[3, 0] = bad
            with pytest.raises(ValueError, match=r"^non-finite scalar value at node \(1, 2\)$"):
                ScalarField(lattice=lat, values=values, mask=mask)

    def test_scalar_stack_carries_a_trailing_field_axis(self):
        """k fields side by side on one mask: `sup_norm` gives each field's
        own sup; a second trailing axis, a wrong grid or a non-finite entry
        is refused, the last named with its field index after the node."""
        lat = make_lattice(2, 1.0, 7)
        rng = np.random.default_rng(3)
        values = rng.normal(size=lat.shape + (4,))
        mask = lat.ball_mask(0.8)
        sups = ScalarField(lattice=lat, values=values, mask=mask).sup_norm()
        assert sups.shape == (4,)
        for i in range(4):
            single = ScalarField(lattice=lat, values=values[..., i], mask=mask).sup_norm()
            assert isinstance(single, float) and sups[i] == single
        for shape in (lat.shape + (4, 2), (7, 5, 4)):
            with pytest.raises(ValueError, match="does not match lattice shape"):
                ScalarField(lattice=lat, values=np.zeros(shape), mask=mask)
        values[2, 3, 1] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite scalar value at node \(2, 3, 1\)$"):
            ScalarField(lattice=lat, values=values, mask=mask)

    def test_metric_field_names_the_first_nonfinite_node_on_the_mask(self):
        lat = make_lattice(2, 1.0, 5)
        comps = np.broadcast_to([1.0, 0.0, 1.0], lat.shape + (3,)).copy()
        mask = lat.full_mask()
        comps[0, 3, 1] = np.nan  # off the mask, where the identity replaces it
        mask[0, 3] = False
        comps[2, 4, 2] = np.inf
        comps[4, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite metric component at masked-valid "
                                             r"node \(2, 4\)$"):
            MetricField(lattice=lat, comps=comps, mask=mask)
        # sampled on the full mask, the generator's NaN at (0, 3) comes first,
        # named by the same constructor in the same text
        with pytest.raises(ValueError, match=r"^non-finite metric component at masked-valid "
                                             r"node \(0, 3\)$"):
            sample_metric(lambda X: comps, lat)

    def test_sample_metric_rejects_indefinite(self):
        lat = make_lattice(2, 1.0, 5)

        def gen(X):
            return np.broadcast_to(np.diag([1.0, -1.0]), X.shape[:-1] + (2, 2))

        with pytest.raises(ValueError, match="positive-definite"):
            sample_metric(packed(gen), lat)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sample_metric_refuses_a_full_matrix_generator(self, n):
        # a generator returns packed components; full matrices are refused
        lat = make_lattice(n, 1.0, 5)

        def full(X):
            return np.broadcast_to(np.eye(n), X.shape[:-1] + (n, n))

        with pytest.raises(ValueError, match=r"^metric generator returned wrong shape$"):
            sample_metric(full, lat)
        eye = np.broadcast_to(pack_symmetric(np.eye(n)), lat.shape + (n * (n + 1) // 2,))
        assert np.array_equal(sample_metric(packed(full), lat).comps, eye)

    def test_metric_packing_roundtrip(self):
        lat = make_lattice(2, 1.0, 5)

        def gen(X):
            mats = np.zeros(X.shape[:-1] + (2, 2))
            mats[..., 0, 0] = 2.0 + X[..., 0]
            mats[..., 1, 1] = 3.0
            mats[..., 0, 1] = mats[..., 1, 0] = 0.1 * X[..., 1]
            return mats

        g = sample_metric(packed(gen), lat)
        assert np.allclose(unpack_symmetric(g.comps, 2), gen(lat.coords()))

    def test_metric_algebra_padded_off_partial_mask(self):
        lat = make_lattice(2, 1.0, 9)
        mask = lat.ball_mask(0.6)
        X = lat.coords()
        comps = np.stack([2.0 + X[..., 0], 0.3 * X[..., 1], 3.0 - X[..., 1]], axis=-1)
        comps[~mask] = np.nan  # garbage off the mask must never leak
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        mats, eigs = unpack_symmetric(g.comps, 2), packed_eigenvalues(g.comps, 2, "test")
        inv = _node_major(inverse_planes(g.comps, 2))
        assert np.array_equal(mats[~mask], np.broadcast_to(np.eye(2), mats[~mask].shape))
        assert np.array_equal(eigs[~mask], np.ones_like(eigs[~mask]))
        assert np.array_equal(inv[~mask], np.broadcast_to(np.eye(2), inv[~mask].shape))
        assert np.array_equal(mats[mask][:, 0, 1], comps[mask][:, 1])
        assert np.array_equal(mats[mask][:, 1, 0], comps[mask][:, 1])
        assert np.abs((inv @ mats)[mask] - np.eye(2)).max() < 1e-14
        assert np.all(eigs[mask] > 0.0)


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
            sample_metric(packed(gen), lat)

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
            sample_metric(packed(gen), lat)
        comps[6, 2] = [1.0, 0.0, 1.01e-12]   # just inside the limit
        check_definite(MetricField(lattice=lat, comps=comps, mask=mask), "stage")

    def test_refuses_a_node_whose_determinant_overflows(self):
        # a*c - b*b is inf - inf at entries of 1e200, so the smaller closed-form
        # root is NaN, which is neither positive nor well conditioned
        g = _field_with(2, 5, {(2, 3): np.full((2, 2), 1e200)})
        for stage, check in (("stage", lambda g: check_definite(g, "stage")),
                             ("check_N0", check_N0)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match=rf"^{stage}: metric not positive-definite "
                                                    r"at node \(2, 3\)$"):
                check(g)


def _field_with(n, m, nodes):
    """The identity metric on an m^n lattice, full mask, with the matrices
    `nodes` (node -> n x n matrix) put in; one node, (0,) * n, is taken off
    the mask after holding an indefinite matrix."""
    lat = make_lattice(n, 1.0, m)
    mats = np.broadcast_to(np.eye(n), lat.shape + (n, n)).copy()
    mask = lat.full_mask()
    off = (0,) * n
    mats[off] = -np.eye(n)
    mask[off] = False
    for node, mat in nodes.items():
        mats[node] = mat
    return MetricField(lattice=lat, comps=pack_symmetric(mats), mask=mask)


class TestCheckDefiniteTexts:
    """The refusal texts name the stage, the first bad node in C order and
    the condition number to three digits, in every dimension."""

    STAGES = (("stage", lambda g: check_definite(g, "stage")), ("check_N0", check_N0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_not_positive_definite(self, n):
        flip = np.diag([1.0] * (n - 1) + [-1e-3])
        near = np.ones((n, n)) + 1e-30 * np.eye(n)   # rank 1 to working precision
        node, later = (1, 2) + (3,) * (n - 2), (3, 0) + (1,) * (n - 2)
        for bad in (flip, near, np.zeros((n, n))):
            g = _field_with(n, 5, {node: bad, later: flip})
            for stage, check in self.STAGES:
                with pytest.raises(ValueError, match=rf"^{stage}: metric not positive-definite "
                                                     rf"at node \({', '.join(map(str, node))}\)$"):
                    check(g)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ill_conditioned(self, n):
        ill = np.diag([2.0] + [1.0] * (n - 2) + [1.5e-13])
        node, later = (2, 4) + (1,) * (n - 2), (4, 4) + (4,) * (n - 2)
        g = _field_with(n, 5, {node: ill, later: np.diag([1.0] * (n - 1) + [1e-14])})
        where = ", ".join(map(str, node))
        for stage, check in self.STAGES:
            with pytest.raises(ValueError, match=rf"^{stage}: metric condition number 1\.33e\+13 "
                                                 rf"exceeds 1e12 at node \({where}\)$"):
                check(g)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_accepts_inside_the_limit(self, n):
        # 1.01e-12 is left undecided by the certificate in every dimension,
        # so the eigenvalues decide it
        inside = np.diag([1.0] * (n - 1) + [1.01e-12])
        g = _field_with(n, 5, {(1,) * n: inside})
        if n <= 3:
            assert not certify_definite(g.comps).all()
        check_definite(g, "stage")
        assert check_N0(g) == pytest.approx(0.5 * np.log(1.0 / 1.01e-12))


class TestWindow:
    """A window cuts `trim` nodes from each end of every axis and keeps its
    chart's nodes bit for bit; a refusal on it names the node in the chart's
    grid, its window index plus `trim`."""

    @pytest.mark.parametrize("n,m,trim", [(2, 161, 46), (2, 81, 19), (3, 25, 2), (3, 9, 2)])
    def test_keeps_the_chart_nodes(self, n, m, trim):
        chart, win = make_lattice(n, 1.0, m), Lattice(n=n, r=1.0, m=m, trim=trim)
        crop = (slice(trim, m - trim),) * n
        assert (win.h, win.r, win.m) == (chart.h, chart.r, chart.m)
        assert win.shape == (m - 2 * trim,) * n == win.full_mask().shape
        assert np.array_equal(win.coords(), chart.coords()[crop])
        for norm in ("euclid", "max"):
            assert np.array_equal(win.ball_mask(0.4, norm), chart.ball_mask(0.4, norm)[crop])

    @pytest.mark.parametrize("trim", [-1, 9, 10])
    def test_refuses_a_negative_trim_or_fewer_than_5_nodes(self, trim):
        with pytest.raises(ValueError, match=rf"^a window needs 0 <= trim and at least 5 nodes "
                                             rf"per axis, got trim={trim} of m=21$"):
            Lattice(n=2, r=1.0, m=21, trim=trim)
        assert Lattice(n=2, r=1.0, m=21, trim=8).shape == (5, 5)

    def test_field_refusals_name_the_chart_node(self):
        win = Lattice(n=2, r=1.0, m=21, trim=3)
        comps = np.broadcast_to([1.0, 0.0, 1.0], win.shape + (3,)).copy()
        comps[4, 7, 1] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite metric component at masked-valid "
                                             r"node \(7, 10\)$"):
            MetricField(lattice=win, comps=comps, mask=win.full_mask())
        # a stack's field index follows the node as it is
        values = np.zeros(win.shape + (4,))
        values[2, 5, 3] = np.inf
        with pytest.raises(ValueError, match=r"^non-finite scalar value at node \(5, 8, 3\)$"):
            ScalarField(lattice=win, values=values, mask=win.full_mask())
        with pytest.raises(ValueError, match=r"^non-finite scalar value at node \(5, 8\)$"):
            ScalarField(lattice=win, values=values[..., 3], mask=win.full_mask())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_metric_check_names_the_chart_node(self, n):
        trim = 2
        win = Lattice(n=n, r=1.0, m=9, trim=trim)
        node = (1, 2) + (3,) * (n - 2)
        where = ", ".join(str(i + trim) for i in node)
        for bad, text in ((np.diag([1.0] * (n - 1) + [-1e-3]), "metric not positive-definite"),
                          (np.diag([2.0] + [1.0] * (n - 2) + [1.5e-13]),
                           r"metric condition number 1\.33e\+13 exceeds 1e12")):
            mats = np.broadcast_to(np.eye(n), win.shape + (n, n)).copy()
            mats[node] = bad
            g = MetricField(lattice=win, comps=pack_symmetric(mats), mask=win.full_mask())
            with pytest.raises(ValueError, match=rf"^stage: {text} at node \({where}\)$"):
                check_definite(g, "stage")

    def test_unconverged_metric_names_the_chart_node(self, monkeypatch):
        # no sweep is allowed, so the first node with an off-diagonal entry,
        # the window's first, is refused
        win = Lattice(n=3, r=1.0, m=9, trim=2)
        chart = make_lattice(3, 1.0, 5)
        comps = pack_symmetric(_spd_field(chart, 1e11, seed=4))
        g = MetricField(lattice=win, comps=comps, mask=win.full_mask())
        assert not certify_definite(g.comps).all()
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", 0)
        with pytest.raises(ValueError, match=r"^stage: Jacobi method not converged after 0 "
                                             r"sweeps at node \(2, 2, 2\)$"):
            check_definite(g, "stage")

    def test_differentiate_reads_the_window_node_count(self):
        win = Lattice(n=2, r=1.0, m=41, trim=17)
        f = ScalarField(lattice=win, values=np.zeros(win.shape), mask=win.full_mask())
        assert differentiate(f, 3).mask.shape == (7, 7)
        with pytest.raises(ValueError, match=r"^order 4 too high for lattice with m=7$"):
            differentiate(f, 4)


def _adversarial(n, count, seed):
    """At least `count` symmetric n x n matrices, in eight equal groups, built
    to trip a definiteness certificate: condition number 1 ... 1e30 at
    scales 1e-90 ... 1e90; condition number near the limits 1e10 ... 1e12;
    near rank 1 (v v^T + a symmetric perturbation of either sign, relative
    size 1e-20 ... 1e-1); eigenvalues drawn from +-0, +-1e-300, 1e-200,
    1e-150 and 1; indefinite with det > 0 (two negative eigenvalues);
    entries of any sign and magnitude 1e-300 ... 1e300; diagonal entries
    1e-320 ... 1e300; and near-singular Gram matrices of n - 1 vectors."""
    rng = np.random.default_rng(seed)
    k = -(-count // 8)

    def from_eigs(lam):
        q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
        mats = np.einsum("kij,kj,klj->kil", q, lam, q)
        return 0.5 * (mats + np.swapaxes(mats, -1, -2))

    def spread(lo, hi, shape):
        return 10.0 ** rng.uniform(lo, hi, shape)

    ones = np.ones(k)
    v = rng.standard_normal((k, n)) * spread(-50, 50, (k, 1))
    E = rng.standard_normal((k, n, n))
    pool = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-200, 1e-150, 1.0])
    tiny = pool[rng.integers(0, pool.size, (k, n))]
    sign = np.where(np.arange(n) < 2, -1.0, 1.0)
    R = rng.standard_normal((k, n, n)) * spread(-300, 300, (k, n, n))
    V = rng.standard_normal((k, n, n - 1))
    groups = [
        from_eigs(rng.permuted(np.geomspace(ones, spread(0, 30, k), n, axis=-1)
                               * spread(-90, 90, (k, 1)), axis=-1)),
        from_eigs(np.geomspace(ones, spread(9.5, 12.5, k), n, axis=-1) * spread(-3, 3, (k, 1))),
        v[:, :, None] * v[:, None, :] + (E + np.swapaxes(E, -1, -2))
        * ((v**2).sum(axis=-1) * spread(-20, -1, k))[:, None, None],
        from_eigs(np.where(rng.random((k, n)) < 0.3, spread(-5, 5, (k, n)), tiny)),
        from_eigs(rng.permuted(sign * spread(-12, 3, (k, n)), axis=-1)),
        np.triu(R) + np.swapaxes(np.triu(R, 1), -1, -2),
        spread(-320, 300, (k, n))[:, :, None] * np.eye(n),
        (V @ np.swapaxes(V, -1, -2) + spread(-30, -5, (k, 1, 1)) * np.eye(n))
        * spread(-100, 100, (k, 1, 1)),
    ]
    return np.concatenate(groups)


def _as_field(mats):
    """The matrices as a metric on the smallest m^n lattice (m odd) that
    holds them, in C order, padded with the identity; full mask."""
    n = mats.shape[-1]
    m = int(np.ceil(len(mats) ** (1.0 / n))) | 1
    while m**n < len(mats):
        m += 2
    pad = np.broadcast_to(np.eye(n), (m**n - len(mats), n, n))
    lat = make_lattice(n, 1.0, m)
    comps = pack_symmetric(np.concatenate([mats, pad])).reshape(lat.shape + (-1,))
    return MetricField(lattice=lat, comps=comps, mask=lat.full_mask())


def _refused(g):
    """Nodes the eigenvalue check refuses (see `_refuses`)."""
    with np.errstate(all="ignore"):
        return _refuses(packed_eigenvalues(g.comps, g.lattice.n, "test"))


def _refuses(eigs):
    """Nodes whose ascending eigenvalues the eigenvalue check refuses: an
    eigenvalue <= 0, or a condition number above COND_LIMIT.  A nan smallest
    eigenvalue, which the 2-d closed form gives where a*c overflows, counts
    as refused, as it does in `check_eigenvalues`."""
    low, top = eigs[..., 0], eigs[..., -1]
    with np.errstate(all="ignore"):
        cond = np.divide(top, low, out=np.full(low.shape, np.inf), where=low > 0.0)
    return (low <= 0.0) | (cond > COND_LIMIT)


class TestDefiniteCertificate:
    """`certify_definite` passes only nodes that the eigenvalue check passes."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_certifies_no_node_the_eigenvalue_check_refuses(self, n):
        mats = _adversarial(n, 100_000, seed=n)
        assert len(mats) >= 100_000
        g = _as_field(mats)
        certified, refused = certify_definite(g.comps), _refused(g)
        assert not (certified & refused).any()
        # not vacuous: both kinds occur in bulk
        assert certified.sum() > 5_000 and refused.sum() > 50_000

    @pytest.mark.parametrize("n", [2, 3])
    def test_certifies_well_conditioned_metrics_at_any_sane_scale(self, n):
        lat = make_lattice(n, 1.0, 21 if n == 3 else 101)
        for cond in (1.0, 1e3, 1e6):
            g = MetricField(lattice=lat, comps=pack_symmetric(_spd_field(lat, cond, seed=n)),
                            mask=lat.full_mask())
            assert certify_definite(g.comps).all()
            for scale in (1e-90, 1e90):
                assert certify_definite(scale * g.comps).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_pivots_multiply_to_the_determinant(self, n):
        lat = make_lattice(n, 1.0, 9)
        mats = _spd_field(lat, 1e4, seed=5 + n)
        pivots = ldl_pivots(pack_symmetric(mats))
        assert len(pivots) == n
        assert np.allclose(np.prod(pivots, axis=0), np.linalg.det(mats), rtol=1e-9, atol=0.0)

    def test_uncertified_nodes_go_to_the_eigenvalues(self, monkeypatch):
        calls = []
        eigenvalues = lattice.packed_eigenvalues

        def counted(comps, n, stage, shift=0):
            calls.append(n)
            return eigenvalues(comps, n, stage, shift)

        monkeypatch.setattr(lattice, "packed_eigenvalues", counted)
        for n in (2, 3):
            lat = make_lattice(n, 1.0, 9)
            g = MetricField(lattice=lat, comps=pack_symmetric(_spd_field(lat, 1e3, seed=n)),
                            mask=lat.full_mask())
            check_definite(g, "stage")
        assert calls == []
        for n in (2, 3, 4):
            check_definite(_field_with(n, 5, {(2,) * n: np.diag([1.0] * (n - 1) + [1e-11])}),
                           "stage")
        check_definite(_field_with(4, 5, {}), "stage")
        assert calls == [2, 3, 4, 4]


def _spd_field(lat, cond, seed):
    """Seeded random SPD matrices with condition number `cond` at every node,
    each scaled by a random power of ten in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    n = lat.n
    q, _ = np.linalg.qr(rng.standard_normal(lat.shape + (n, n)))
    lam = np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-3, 3, lat.shape + (1,))
    mats = np.einsum("...ij,...j,...kj->...ik", q, lam, q)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def _n0_whole_grid(g):
    """The N0 bound as ROADMAP states it, the exact reference for `check_N0`:
    the eigenvalue verdict on every node, then 0.5 max |log lam| over the
    eigenvalues of every valid node, from the solver `lattice` holds (so a
    patched solver reaches both)."""
    eigs = lattice.packed_eigenvalues(g.comps, g.lattice.n, "check_N0")
    check_eigenvalues(eigs, "check_N0")
    return 0.5 * float(np.abs(np.log(eigs[g.mask])).max())


def _outcome(n0, g):
    """n0(g), or the text of the ValueError it raises."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return n0(g)
        except ValueError as exc:
            return str(exc)


_PLATEAUS = np.array([0.5, 1.0, 2.0])


def _n0_pool(kind, n, count, rng, refusable):
    """`count` symmetric n x n matrices of one kind (see `_n0_field`)."""
    eye = np.eye(n)
    if kind == "plateau":
        return rng.choice(_PLATEAUS, (count, 1, 1)) * eye
    if kind == "dominant":
        # c I + v v^T with |v|^2 = 2 - c: the eigenvalues c and 2 sit on
        # plateau values up to round-off, and the rows of v v^T mostly
        # outweigh their diagonals
        c = _PLATEAUS[rng.integers(0, 2, count)]
        v = rng.standard_normal((count, n))
        v *= np.sqrt((_PLATEAUS[-1] - c) / (v**2).sum(axis=-1))[:, None]
        return c[:, None, None] * eye + v[:, :, None] * v[:, None, :]
    if kind == "spd":
        q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
        mats = np.einsum("kij,kj,klj->kil", q, 10.0 ** rng.uniform(-2, 2, (count, n)), q)
        return 0.5 * (mats + np.swapaxes(mats, -1, -2))
    mats = _adversarial(n, count, seed=int(rng.integers(2**32)))
    if not refusable:
        with np.errstate(all="ignore"):
            eigs = packed_eigenvalues(pack_symmetric(mats), n, "test")
            mats = mats[(eigs[:, 0] > 0.0) & (eigs[:, -1] / eigs[:, 0] <= COND_LIMIT)]
    return mats if len(mats) else eye[None]


def _n0_field(n, seed, kinds, density, scale, refusable):
    """A metric on a 9^2, 7^3 or 5^4 lattice whose nodes are drawn from the
    `kinds`: exact plateaus (multiples of the identity), off-diagonal
    dominant matrices tied to the plateaus up to round-off, random SPD
    matrices, and `_adversarial` ones (only those the eigenvalue verdict
    passes, unless `refusable`); all scaled by 10**scale when that stays
    finite, and valid on a random mask of the given density."""
    rng = np.random.default_rng(seed)
    lat = make_lattice(n, 1.0, {2: 9, 3: 7, 4: 5}[n])
    count = lat.m**n
    pools = [_n0_pool(kind, n, count, rng, refusable) for kind in sorted(kinds)]
    pick = rng.integers(0, len(pools), count)
    mats = np.stack([pools[k][rng.integers(len(pools[k]))] for k in pick])
    with np.errstate(over="ignore"):
        scaled = mats * 10.0**scale
    if np.isfinite(scaled).all():
        mats = scaled
    mask = rng.random(lat.shape) < density
    mats = mats.reshape(lat.shape + (n, n))
    mats[~mask] = -np.eye(n)  # refused if any stage read it
    return MetricField(lattice=lat, comps=pack_symmetric(mats), mask=mask)


def _n0_bracket(ref, mask):
    """The least and the largest N0 bound over the valid nodes when each of
    the eigenvalues `ref` (all accepted) may be off by the error bound of
    `packed_eigenvalues`, 16 eps max|lam| of its node, plus the subnormal
    spacing that LAPACK's rescaling rounds to; widened by 4 eps for the
    rounding of the logarithm."""
    err = 16 * EPS * ref[mask].max(axis=-1, keepdims=True) + np.finfo(float).smallest_subnormal
    lo, hi = ref[mask] - err, ref[mask] + err
    ends = np.abs(np.log(np.stack([lo, hi])))
    near = np.where((lo <= 1.0) & (hi >= 1.0), 0.0, ends.min(axis=0))
    return 0.5 * near.max() * (1 - 4 * EPS), 0.5 * ends.max() * (1 + 4 * EPS)


class TestN0Bound:
    """`check_N0` gives bit for bit the value, or the refusal, of the whole
    grid's eigenvalues, also where the extremes tie across nodes, sit at
    scales 1e+-150, or sit within a solver's round-off of each other; in
    3-d, Jacobi's verdict and bound agree with LAPACK's eigenvalues."""

    @given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
           kinds=st.sets(st.sampled_from(["plateau", "dominant", "spd", "adversarial"]),
                         min_size=1),
           density=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
           scale=st.sampled_from([0, 0, -150, -40, 40, 150]), refusable=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_whole_grid(self, n, seed, kinds, density, scale, refusable):
        g = _n0_field(n, seed, kinds, density, scale, refusable)
        assert _outcome(check_N0, g) == _outcome(_n0_whole_grid, g)
        if n == 3:
            with np.errstate(all="ignore"):
                refused = _refuses(packed_eigenvalues(g.comps, 3, "test"))
                ref = np.linalg.eigvalsh(unpack_symmetric(g.comps, 3))
            assert np.array_equal(refused, _refuses(ref))
            if g.mask.any() and not refused.any():
                low, high = _n0_bracket(ref, g.mask)
                assert low <= check_N0(g) <= high

    def test_jacobi_round_off_decides_a_near_tie(self):
        # a I - s (J - I) has lam_min = a - 2 s exactly, on its Gershgorin
        # bound; LAPACK returns it about 0.7 eps |g| = 2e-14 below, and
        # Jacobi within 2 eps max|lam| of LAPACK (measured 1.02).  A
        # diagonal node sits halfway between LAPACK's value and the exact
        # one, and the node diag(1, 1, 200) holds lam_max: whichever of the
        # two low nodes the solver puts lower gives N0_Q
        s = 31.25
        tight = (2.0 * s + 1e-6) * np.eye(3) - s * (np.ones((3, 3)) - np.eye(3))
        exact = tight[0, 0] - 2.0 * s  # Sterbenz: no rounding
        ref = np.linalg.eigvalsh(tight)
        eigs = packed_eigenvalues(pack_symmetric(tight), 3, "test")
        assert np.abs(eigs - ref).max() <= 2 * EPS * ref[-1]
        between = 0.5 * (ref[0] + exact)
        g = _field_with(3, 5, {(1, 2, 3): tight, (3, 3, 3): np.diag([between, 1.0, 1.0]),
                               (4, 0, 1): np.diag([1.0, 1.0, 200.0])})
        assert check_N0(g) == _n0_whole_grid(g) == -0.5 * np.log(min(eigs[0], between))

    def test_value_is_the_solvers_past_a_near_tie(self, monkeypatch):
        # a solver that puts the eigenvalues of the node with g_00 = 0.125 a
        # relative 1e-11 low, far past its round-off: that node, not its
        # neighbour 5e-12 below it, holds the extreme, and the value is the
        # whole grid's under the same solver
        solve = lattice.packed_eigenvalues

        def off(comps, n, stage):
            return solve(comps, n, stage) * np.where(comps[..., :1] == 0.125, 1.0 - 1e-11, 1.0)

        for module in (lattice, norms):
            monkeypatch.setattr(module, "packed_eigenvalues", off)
        near = 0.125 * (1.0 - 5e-12)
        g = _field_with(3, 5, {(1, 2, 3): np.diag([0.125, 1.0, 1.0]),
                               (3, 3, 3): np.diag([near, 1.0, 1.0]),
                               (4, 0, 1): np.diag([1.0, 1.0, 2.0])})
        low = 0.125 * (1.0 - 1e-11)
        assert check_N0(g) == _n0_whole_grid(g) == -0.5 * np.log(low) != -0.5 * np.log(near)


EPS = np.finfo(float).eps


# Node 74340 of `_adversarial(3, 100_000, seed=3)`, from its group of entries
# of any sign and magnitude 1e-300 ... 1e300.  Its exact eigenvalues, from
# 600-digit arithmetic, are +-3.7961067356937717e263 and -1.0747442669796866e-185;
# LAPACK's `eigvalsh` gave +-3.928e263 and 0, 1.6e14 eps max|lam| away.
_WIDE = np.array([[-1.0747442669796866e-185, 4.2521160242471815e+51, -1.0934970920338069e-110],
                  [4.2521160242471815e+51, 2.8893922268611536e-188, 3.7961067356937717e+263],
                  [-1.0934970920338069e-110, 3.7961067356937717e+263, 1.6904901307465163e+24]])
_WIDE_EIGS = np.array([-3.7961067356937717e263, -1.0747442669796866e-185, 3.7961067356937717e263])


class TestJacobiEigenvalues:
    """The 3-d branch of `packed_eigenvalues`, cyclic Jacobi on the packed
    component planes, against LAPACK's `eigvalsh`: the same verdict at every
    node, and each eigenvalue within 16 eps max|lam| of LAPACK's."""

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e10])
    def test_matches_lapack_on_spd_fields(self, cond):
        lat = make_lattice(3, 1.0, 13)
        mats = _spd_field(lat, cond, seed=int(np.log10(cond)) + 30)
        eigs, ref = packed_eigenvalues(pack_symmetric(mats), 3, "test"), np.linalg.eigvalsh(mats)
        assert np.all(np.abs(eigs - ref) <= 16 * EPS * np.abs(ref).max(axis=-1, keepdims=True))
        assert np.array_equal(_refuses(eigs), _refuses(ref))

    def test_matches_lapack_on_adversarial_matrices(self):
        # every group but the sixth within 16 eps max|lam| (measured 7.6);
        # in the sixth, LAPACK errs by up to 5.3e14 eps on 34 of 12,500
        # nodes, where Jacobi is within 1.33 eps of the exact eigenvalues
        mats = _adversarial(3, 100_000, seed=3)
        with np.errstate(all="ignore"):
            eigs = packed_eigenvalues(pack_symmetric(mats), 3, "test")
            ref = np.linalg.eigvalsh(mats)
        assert np.array_equal(_refuses(eigs), _refuses(ref))
        assert np.array_equal(mats[74340], _WIDE)
        for k, group in enumerate(np.split(np.arange(len(mats)), 8)):
            if k != 5:
                scale = np.abs(ref[group]).max(axis=-1, keepdims=True)
                assert np.all(np.abs(eigs[group] - ref[group]) <= 16 * EPS * scale), k

    def test_exact_where_lapack_is_not(self):
        eigs = packed_eigenvalues(pack_symmetric(_WIDE), 3, "test")
        assert np.all(np.abs(eigs - _WIDE_EIGS) <= 2 * EPS * _WIDE_EIGS[-1])  # measured 1.33

    @pytest.mark.parametrize("f", [0.99, 1.01])
    def test_verdict_at_the_condition_limit(self, f):
        # rotations of diag(1, 3e5, 1e12 f): the certificate leaves every
        # one undecided, so the eigenvalues decide, within 1 % of the limit
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((2000, 3, 3)))
        mats = np.einsum("kij,j,klj->kil", q, [1.0, 3e5, 1e12 * f], q)
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        g = _as_field(mats)
        nodes = np.arange(g.mask.size) < len(mats)
        assert not certify_definite(g.comps).reshape(-1)[nodes].any()
        refused = _refuses(packed_eigenvalues(g.comps, 3, "test")).reshape(-1)
        assert np.array_equal(refused[nodes], _refuses(np.linalg.eigvalsh(mats)))
        if f < 1.0:
            assert not refused.any()
            check_definite(g, "stage")
            assert check_N0(g) == pytest.approx(0.5 * math.log(1e12 * f), rel=1e-9)
        else:
            assert refused[nodes].all()
            for stage, check in TestCheckDefiniteTexts.STAGES:
                with pytest.raises(ValueError, match=rf"^{stage}: metric condition number"):
                    check(g)

    @pytest.mark.parametrize("chart, sweeps", [("pflat3", 0), ("spd", 1)])
    def test_check_N0_refuses_an_unconverged_node(self, chart, sweeps, monkeypatch):
        # every pflat3 node meets the stopping rule after one sweep (its
        # bump is along the unit diagonal), random SPD metrics after a few
        if chart == "spd":
            lat = make_lattice(3, 1.0, 9)
            g = MetricField(lattice=lat, comps=pack_symmetric(_spd_field(lat, 1e3, seed=4)),
                            mask=lat.full_mask())
        else:
            g = get_geometry(chart).sample_all(17)["a"]
        monkeypatch.setattr(lattice, "JACOBI_SWEEPS", sweeps)
        text = rf"^check_N0: Jacobi method not converged after {sweeps} sweeps at node \("
        with pytest.raises(ValueError, match=text) as info:
            check_N0(g)
        node = tuple(int(i) for i in info.value.args[0].rsplit("(", 1)[1].rstrip(")").split(","))
        assert g.mask[node]


class TestClosedFormAlgebra:
    """The n <= 3 inverse and the 2-d eigenvalues are closed forms; they must
    agree with LAPACK to a tolerance proportional to the condition number."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e10])
    def test_inverse_matches_lapack(self, n, cond):
        lat = make_lattice(n, 1.0, 41 if n == 2 else 13)
        mats = _spd_field(lat, cond, seed=int(np.log10(cond)) + 10 * n)
        inv, ref = _node_major(inverse_planes(pack_symmetric(mats), n)), np.linalg.inv(mats)
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
        eigs = packed_eigenvalues(pack_symmetric(mats), 2, "test")
        ref = np.linalg.eigvalsh(mats)
        assert np.all(eigs[..., 0] <= eigs[..., 1])
        # absolute error eps * lambda_max: eps * cond relative to lambda_min
        assert (np.abs(eigs - ref) / ref[..., 1:]).max() <= 16 * EPS
        assert (np.abs(eigs[..., 0] / ref[..., 0] - 1.0)).max() <= 16 * EPS * cond
        # on diagonal matrices det/top keeps the small root to a few eps,
        # where the trace minus the large root would lose eps * cond
        diag = np.zeros_like(mats)
        diag[..., 0, 0], diag[..., 1, 1] = ref[..., 0], ref[..., 1]
        eigs = packed_eigenvalues(pack_symmetric(diag), 2, "test")
        assert (np.abs(eigs / ref - 1.0)).max() <= 4 * EPS

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("garbage", [np.nan, 0.0])
    def test_padding_before_arithmetic(self, n, garbage):
        lat = make_lattice(n, 1.0, 9)
        mask = lat.ball_mask(0.6)
        mats = _spd_field(lat, 10.0, seed=n)
        comps = pack_symmetric(mats)
        comps[~mask] = garbage  # a zero determinant off the mask must not warn
        g = MetricField(lattice=lat, comps=comps, mask=mask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = _node_major(inverse_planes(g.comps, n))
            eigs = packed_eigenvalues(g.comps, n, "test")
        eye = np.broadcast_to(np.eye(n), inv[~mask].shape)
        assert np.array_equal(inv[~mask], eye)
        assert np.array_equal(eigs[~mask], np.ones_like(eigs[~mask]))
        assert np.abs((inv @ unpack_symmetric(g.comps, n))[mask] - np.eye(n)).max() < 1e-13
        assert np.allclose(eigs[mask], np.linalg.eigvalsh(mats[mask]), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n,comps,what", [
        (2, [1.0, 1.0, 1.0], "singular metric"),
        (3, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0], "singular metric"),
        (3, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "g_00 = 0")])
    def test_singular_node_named(self, n, comps, what):
        lat = make_lattice(n, 1.0, 5)
        block = np.broadcast_to(pack_symmetric(np.eye(n)), lat.shape + (len(comps),)).copy()
        node = (3,) + (1,) * (n - 1)
        block[node] = comps
        with pytest.raises(np.linalg.LinAlgError, match=rf"{what} at node \({node[0]}, 1"):
            inverse_planes(MetricField(lattice=lat, comps=block, mask=lat.full_mask()).comps, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_determinant_matches_lapack(self, n):
        lat = make_lattice(n, 1.0, 9 if n < 4 else 5)
        mats = _spd_field(lat, 10.0, seed=20 + n)
        det, ref = packed_det(pack_symmetric(mats), n), np.linalg.det(mats)
        assert det.shape == lat.shape
        assert np.abs(det / ref - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverse_of_a_crop_is_the_crop_of_the_inverse(self, n):
        lat = make_lattice(n, 1.0, 9)
        comps = pack_symmetric(_spd_field(lat, 1e4, seed=n))
        crop = (slice(2, 7),) * n
        assert np.array_equal(inverse_planes(comps[crop], n, shift=2),
                              inverse_planes(comps, n)[(slice(None),) * 2 + crop])

    @pytest.mark.parametrize("n,comps,what", [
        (2, [1.0, 1.0, 1.0], "singular metric"),
        (3, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0], "singular metric"),
        (3, [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "metric has g_00 = 0")])
    def test_crop_names_the_node_in_the_whole_grid(self, n, comps, what):
        lat = make_lattice(n, 1.0, 9)
        packed = np.broadcast_to(pack_symmetric(np.eye(n)), lat.shape + (len(comps),)).copy()
        packed[(5, 3) + (4,) * (n - 2)] = packed[(6, 2) + (2,) * (n - 2)] = comps
        g = MetricField(lattice=lat, comps=packed, mask=lat.full_mask())
        node = rf"\(5, 3{', 4' * (n - 2)}\)"
        for block, shift in ((g.comps, 0), (g.comps[(slice(2, 7),) * n], 2)):
            with pytest.raises(np.linalg.LinAlgError, match=rf"^{what} at node {node}$"):
                inverse_planes(block, n, shift=shift)


def _node_major(planes):
    """A plane-major (n, n) + grid array as (grid..., n, n), a view."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _node_major_inverse(comps, n):
    """The inverse as it was written before it moved to planes: cofactors and
    the division straight into the node-major slots out[..., i, j]."""
    p = np.moveaxis(comps, -1, 0)
    out = np.empty(p.shape[1:] + (n, n))
    if n == 2:
        a, b, c = p
        out[..., 0, 0] = c
        out[..., 1, 1] = a
        np.negative(b, out=out[..., 0, 1])
        out[..., 1, 0] = out[..., 0, 1]
    else:
        a, b, c, d, e, f = p
        cofactors = {(0, 0): (d, f, e, e), (0, 1): (c, e, b, f),
                     (0, 2): (b, e, c, d), (1, 1): (a, f, c, c),
                     (1, 2): (b, c, a, e), (2, 2): (a, d, b, b)}
        for (i, j), (w, x, y, z) in cofactors.items():
            cof = out[..., i, j]
            np.multiply(w, x, out=cof)
            cof -= y * z
            out[..., j, i] = cof
    out /= packed_det(comps, n)[..., None, None]
    return out


class TestPlaneMajorInverse:
    """The inverse is computed one contiguous (i, j) plane at a time, bit
    for bit the node-major formulas."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10])
    def test_bytes_equal_node_major_formulas(self, n, cond):
        lat = make_lattice(n, 1.0, 41 if n == 2 else 13)
        comps = pack_symmetric(_spd_field(lat, cond, seed=7 * n))
        planes = inverse_planes(comps, n)
        assert planes.shape == (n, n) + lat.shape and planes.flags.c_contiguous
        inv = np.ascontiguousarray(_node_major(planes))
        assert inv.tobytes() == _node_major_inverse(comps, n).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_cropped_block_bytes_equal(self, n):
        lat = make_lattice(n, 1.0, 21 if n == 2 else 11)
        comps = pack_symmetric(_spd_field(lat, 1e3, seed=3 + n))
        crop = (slice(3, lat.m - 2),) * n
        block = comps[crop]  # a strided view, as `riemann` hands over
        planes = inverse_planes(block, n, shift=3)
        assert planes.shape == (n, n) + block.shape[:-1] and planes.flags.c_contiguous
        inv = np.ascontiguousarray(_node_major(planes))
        assert inv.tobytes() == _node_major_inverse(block, n).tobytes()


class TestFold:
    """`fold` is numpy's reduce over the last axis, bit for bit."""

    # finite values with both zeros, subnormals and values near overflow
    VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                                        1e308, -1e308]))

    @staticmethod
    def _rows(length):
        return st.integers(1, 4).flatmap(lambda lead: arrays(
            np.float64, (lead, 3, length), elements=TestFold.VALUES))

    @staticmethod
    def _same(ufunc, a):
        with np.errstate(over="ignore", invalid="ignore"):  # +-1e308 sums overflow
            return fold(ufunc, a).tobytes() == ufunc.reduce(a, axis=-1).tobytes()

    @given(data=st.data(), length=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_add(self, data, length):
        assert self._same(np.add, data.draw(self._rows(length)))

    @given(data=st.data(), length=st.integers(1, 9),
           ufunc=st.sampled_from([np.maximum, np.minimum, np.logical_and]))
    @settings(max_examples=120, deadline=None)
    def test_maximum_minimum_logical_and(self, data, length, ufunc):
        a = data.draw(self._rows(length))
        assert self._same(ufunc, a)
        assert self._same(ufunc, np.isfinite(a) & (a != 0.0))  # bool input

    @pytest.mark.parametrize("length", range(1, 10))
    def test_every_sign_pattern_of_zeros(self, length):
        # which zero a max or min returns depends on the order it is taken in
        rows = np.array(list(itertools.product([0.0, -0.0], repeat=length)))
        for ufunc in (np.maximum, np.minimum) + ((np.add,) if length < 8 else ()):
            assert self._same(ufunc, rows)

    @pytest.mark.parametrize("length", range(1, 8))
    def test_negative_zero_rows_sum_to_positive_zero(self, length):
        a = np.full((5, length), -0.0)
        out = fold(np.add, a)
        assert not np.signbit(out).any()
        assert out.tobytes() == np.add.reduce(a, axis=-1).tobytes()

    @pytest.mark.parametrize("length", [8, 9, 12, 17])
    def test_longer_rows_are_reduced_by_numpy(self, length):
        # from 8 entries numpy sums pairwise, which rounds unlike a chain
        a = np.random.default_rng(length).standard_normal((200, length))
        for ufunc in (np.add, np.maximum, np.minimum):
            assert self._same(ufunc, a)
        assert fold(np.add, a[0]) == np.add.reduce(a[0])


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
        g = sample_metric(packed(lambda X: mats), lat)
        assert np.array_equal(g.comps, comps)
        assert np.array_equal(unpack_symmetric(g.comps, n), mats)

    @pytest.mark.parametrize("n", [2, 3])
    def test_differentiate_is_per_component(self, n):
        g, _ = _partial_metric(n)
        jet = differentiate(g, 2)
        refs = [differentiate(ScalarField(lattice=g.lattice, values=g.comps[..., c],
                                          mask=g.mask), 2)
                for c in range(g.comps.shape[-1])]
        for k in range(3):
            assert jet.blocks[k].shape == g.comps.shape + ((math.comb(n + k - 1, k),) if k else ())
            assert np.array_equal(jet.blocks[k],
                                  np.stack([r.blocks[k] for r in refs], axis=n))
        assert np.array_equal(jet.mask, refs[0].mask)


def _iterated_box_erosion(mask, steps):
    """Reference: `steps` iterations of the 3^n binary erosion, zero past the edge."""
    if steps <= 0:
        return mask.copy()
    return ndimage.binary_erosion(mask, structure=np.ones((3,) * mask.ndim, dtype=bool),
                                  iterations=steps, border_value=0)


def _erosion_masks(shape, seed):
    """Random (two densities), ball, empty and full masks of one shape."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*(np.linspace(-1.0, 1.0, k) for k in shape), indexing="ij")
    return {"random": rng.random(shape) < 0.8, "dense": rng.random(shape) < 0.97,
            "ball": sum(x**2 for x in axes) <= 0.7,
            "empty": np.zeros(shape, dtype=bool), "full": np.ones(shape, dtype=bool)}


class TestErodeMask:
    @pytest.mark.parametrize("shape", [(9, 9), (7, 12), (1, 6), (7, 7, 7), (5, 8, 6),
                                       (5, 5, 5, 5), (4, 6, 5, 3)])
    def test_equals_iterated_box_erosion(self, shape):
        for kind, mask in _erosion_masks(shape, seed=sum(shape)).items():
            before = mask.copy()
            for steps in sorted({0, 1, 2, 3, min(shape), max(shape) // 2,
                                 max(shape), max(shape) + 3}):
                got = erode_mask(mask, steps)
                assert got.dtype == bool and got.shape == mask.shape, (kind, steps)
                assert np.array_equal(got, _iterated_box_erosion(mask, steps)), (kind, steps)
                assert not np.shares_memory(got, mask)
            assert np.array_equal(mask, before)

    @pytest.mark.parametrize("shape,steps", [((35, 35), (3, 4)), ((33, 33, 33), (0, 1)),
                                             ((25, 25, 25), (2,)),
                                             ((161, 161), (2, 3, 4, 5, 6, 8, 10))])
    def test_workload_shapes(self, shape, steps):
        """The shapes and steps the CLI workloads erode, then the steps that
        empty the mask: (m - 1) / 2 keeps only the centre of a full mask,
        (m + 1) / 2 and m keep nothing."""
        m = shape[0]
        for kind, mask in _erosion_masks(shape, seed=m).items():
            for k in steps + ((m - 1) // 2, (m + 1) // 2, m):
                got = erode_mask(mask, k)
                assert np.array_equal(got, _iterated_box_erosion(mask, k)), (kind, k)
        full = np.ones(shape, dtype=bool)
        assert erode_mask(full, (m - 1) // 2).sum() == 1
        assert not erode_mask(full, (m + 1) // 2).any()

    def test_reads_any_layout(self):
        mask = _erosion_masks((9, 12, 7), seed=5)["random"]
        for view in (mask.T, mask[:, ::2], mask[::-1], np.asfortranarray(mask)):
            for steps in (1, 2):
                assert np.array_equal(erode_mask(view, steps),
                                      _iterated_box_erosion(np.ascontiguousarray(view), steps))

    def test_steps_past_a_short_axis_empty_the_mask(self):
        mask = np.ones((7, 9, 5), dtype=bool)
        assert erode_mask(mask, 2).sum() == 3 * 5 * 1
        assert not erode_mask(mask, 3).any()

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

    @pytest.mark.parametrize("shape,n", [((33, 33, 33), 3), ((33, 33, 33, 3), 3),
                                         ((35, 35), 2), ((161, 161, 2), 2)])
    def test_workload_shapes_keep_infinities_and_negative_zero(self, shape, n):
        """The shapes the CLI workloads grow.  Values are <= -0.0, so a box
        without +inf has -0.0 as its max wherever it holds one: the sign bit
        must come through as ndimage's max filter keeps it."""
        rng = np.random.default_rng(sum(shape))
        a = -np.abs(rng.normal(size=shape))
        u = rng.random(shape)
        a[u < 0.2] = -0.0
        a[(0.2 <= u) & (u < 0.3)] = -np.inf
        a[(0.3 <= u) & (u < 0.32)] = np.inf
        m = shape[0]
        grown, buf = a.copy(), np.empty_like(a)
        for s in range(1, m):
            grow_box(grown, buf, n)
            if s in (1, 2, 3, m // 2, m - 1):
                size = (2 * s + 1,) * n + (1,) * (len(shape) - n)
                ref = ndimage.maximum_filter(a, size=size, mode="nearest")
                assert np.array_equal(grown, ref), s
                assert np.array_equal(np.signbit(grown), np.signbit(ref)), s

    @pytest.mark.parametrize("layout", ["transposed", "strided", "buf_shape", "buf_layout",
                                        "buf_dtype"])
    def test_refuses_arrays_it_cannot_grow_in_place(self, layout):
        """A flat view of a non-C-contiguous array would be a copy, and the
        box would grow the copy; a buf of another shape, layout or dtype is
        refused too.  a is left as it was."""
        base = np.random.default_rng(1).normal(size=(9, 9, 2))
        a, buf = base.copy(), np.empty_like(base)
        if layout == "transposed":
            a = a.transpose(1, 0, 2)
        elif layout == "strided":
            a, buf = a[:, ::2], np.empty((9, 5, 2))
        elif layout == "buf_shape":
            buf = np.empty((9, 9, 3))
        elif layout == "buf_layout":
            buf = np.empty_like(base, order="F")
        else:
            buf = np.empty_like(base, dtype=np.float32)
        before = a.copy()
        with pytest.raises(ValueError):
            grow_box(a, buf, 2)
        assert np.array_equal(a, before)


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
        P = pack_map(2)
        assert np.allclose(d2[:, P[0, 0]], 2.0, atol=1e-12)
        assert np.allclose(d2[:, P[0, 1]], 1.0, atol=1e-12)
        assert np.allclose(d2[:, P[1, 1]], 0.0, atol=1e-12)

    def test_mixed_partial_matches_analytic(self):
        # d_1 d_0 of sin x0 cos 2 x1 is -2 cos x0 sin 2 x1 times
        # (sin h / h)(sin 2h / 2h), 1 - 5 h^2 / 6 + O(h^4)
        lat = make_lattice(2, 1.0, 21)
        f = sample_scalar(lambda X: np.sin(X[..., 0]) * np.cos(2 * X[..., 1]), lat)
        jet = differentiate(f, 2)
        X = lat.coords()
        exact = -2.0 * np.cos(X[..., 0]) * np.sin(2 * X[..., 1])
        mixed = jet.blocks[2][..., pack_map(2)[0, 1]]
        assert np.abs(mixed - exact)[jet.mask].max() <= 2.0 * lat.h**2

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_reads_only_the_mask(self, n):
        # the jet reads the stored array as it is: a pair equal on the mask
        # and far apart off it, and one metric's components on a sub-mask
        # and on the full mask, give the same bits on the jet's mask
        lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
        mask = lat.ball_mask(0.8)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(lat.shape)
        other = np.where(mask, vals, rng.uniform(-1e6, 1e6, lat.shape))
        ja, jb = (differentiate(ScalarField(lattice=lat, values=v, mask=mask), 2)
                  for v in (vals, other))
        assert ja.mask.any() and np.array_equal(ja.mask, jb.mask)
        for a, b in zip(ja.blocks, jb.blocks):
            assert np.array_equal(a[ja.mask], b[ja.mask])
        comps = pack_symmetric(_spd_field(lat, 10.0, seed=n))
        sub, full = (differentiate(MetricField(lattice=lat, comps=comps, mask=m), 2)
                     for m in (mask, lat.full_mask()))
        assert np.array_equal(sub.mask, ja.mask) and np.all(sub.mask <= full.mask)
        for a, b in zip(sub.blocks, full.blocks):
            assert np.array_equal(a[sub.mask], b[sub.mask])

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


class TestStencils:
    """Both stencils write the slice formula on the interior, bit for bit,
    and exactly 0 on the two end entries."""

    @pytest.mark.parametrize("shape", [(9, 7, 3), (7, 6, 5, 2)])
    def test_interior_formula_and_zero_ends(self, shape):
        v = np.random.default_rng(len(shape)).standard_normal(shape)
        h = 0.3
        for axis in range(len(shape) - 1):  # the trailing axis is a component axis
            lead = (slice(None),) * axis
            inner, nxt, prv = (lead + (s,) for s in (slice(1, -1), slice(2, None), slice(None, -2)))
            want1 = (v[nxt] - v[prv]) / (2.0 * h)
            want2 = ((v[nxt] - 2.0 * v[inner]) + v[prv]) / h**2
            for diff, want in ((central_diff, want1), (central_diff2, want2)):
                out = np.full(shape, np.nan)
                assert diff(v, axis, h, out=out) is out
                assert np.array_equal(out[inner], want)
                assert np.array_equal(diff(v, axis - v.ndim, h), out)
                for end in (lead + (0,), lead + (-1,)):
                    assert np.all(out[end] == 0.0) and not np.signbit(out[end]).any()


def _nested(values, xs, h):
    """d_{x_k} ... d_{x_1} of values by nested central differences, the
    pure second derivative d_x d_x by the compact stencil."""
    if len(xs) >= 2 and xs[0] == xs[1]:
        out, rest = central_diff2(values, xs[0], h), xs[2:]
    else:
        out, rest = values, xs
    for x in rest:
        out = central_diff(out, x, h)
    return out


class TestJetPlan:
    """Block k holds each sorted multi-index x_1 <= ... <= x_k once, as d_{x_k}
    of block k-1's entry (x_1 ... x_{k-1})."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_entries_are_the_sorted_multi_indices(self, n):
        m = 7
        values = np.random.default_rng(n).standard_normal((m,) * n)
        blocks = _jet_blocks(values, n, 0.25, 3)
        assert blocks[0] is values
        for k in range(1, 4):
            plan = list(itertools.combinations_with_replacement(range(n), k))
            assert blocks[k].shape == values.shape + (math.comb(n + k - 1, k),)
            for e, xs in enumerate(plan):
                assert np.array_equal(blocks[k][..., e], _nested(values, xs, 0.25)), xs
            if k == 2:  # block 2 is in pack_map order
                assert [pack_map(n)[xs] for xs in plan] == list(range(len(plan)))

    def test_order3_converges_at_order_2(self):
        # sin x0 cos 2 x1 e^{x2}: the a-th derivative of each factor is
        # sin(x0 + a pi/2), 2^a cos(2 x1 + a pi/2) and e^{x2}; the error is
        # read on one region, the coarsest jet's mask
        plan = list(itertools.combinations_with_replacement(range(3), 3))
        errs, hs = [], []
        for m in (13, 25, 49):
            lat = make_lattice(3, 0.6, m)
            X = lat.coords()
            f = sample_scalar(lambda X: np.sin(X[..., 0]) * np.cos(2 * X[..., 1])
                              * np.exp(X[..., 2]), lat)
            jet = differentiate(f, 3)
            region = jet.mask & lat.ball_mask(0.3, norm="max")
            err = 0.0
            for e, xs in enumerate(plan):
                a = [xs.count(x) for x in range(3)]
                exact = (np.sin(X[..., 0] + a[0] * np.pi / 2)
                         * 2.0 ** a[1] * np.cos(2 * X[..., 1] + a[1] * np.pi / 2)
                         * np.exp(X[..., 2]))
                err = max(err, np.abs(jet.blocks[3][..., e] - exact)[region].max())
            errs.append(err)
            hs.append(lat.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2
