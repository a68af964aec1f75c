"""Tests for charts, partitions of unity, pullbacks, and global assembly."""
import warnings

import numpy as np
import pytest

from mollilab.atlas import (Atlas, BumpProfile, Chart, Transition, check_cover,
                            interpolate_metric, make_bump_weights,
                            pullback_metric)
from mollilab.atlas import assemble_mollified
from mollilab.kernels import convolve, scale_kernel
from mollilab.lattice import MetricField, make_lattice, pack_symmetric, sample_metric
from mollilab.modelzoo import flat, get_geometry, sphere


class TestBumpProfile:
    def test_plateau_and_support(self):
        b = BumpProfile(plateau=0.5, support=1.0)
        assert b(np.array([0.0, 0.3, 0.5])).tolist() == [1.0, 1.0, 1.0]
        assert b(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        mid = b(np.array([0.75]))[0]
        assert 0.0 < mid < 1.0

    def test_monotone(self):
        b = BumpProfile(plateau=0.4, support=1.0)
        d = np.linspace(0.0, 1.2, 200)
        vals = b(d)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            BumpProfile(plateau=1.0, support=0.5)


class TestPartitionOfUnity:
    def test_single_chart_weight_is_one(self):
        geo = flat(2, n_charts=1)
        lat = geo.chart_lattice(21)
        rho, denom = geo.atlas.weights("a", lat.coords())
        covered = lat.ball_mask(geo.r / 2.0)
        assert np.abs(rho["a"][covered] - 1.0).max() < 1e-15

    def test_symmetric_overlap_is_half(self):
        geo = sphere(2)
        lat = geo.chart_lattice(41)
        rho, _ = geo.atlas.weights("north", lat.coords())
        # the equator |x| = R maps to itself under the inversion, so both
        # charts contribute the same bump value there
        X = lat.coords()
        dist = np.sqrt((X**2).sum(axis=-1))
        equator = np.abs(dist - 1.0) < 1e-9
        assert equator.any()
        assert np.abs(rho["north"][equator] - 0.5).max() < 1e-12

    def test_weights_sum_to_one(self):
        geo = sphere(2)
        lat = geo.chart_lattice(81)
        for cid in ("north", "south"):
            rho, denom = geo.atlas.weights(cid, lat.coords())
            covered = lat.ball_mask(geo.r / 2.0) & (denom >= 1.0 - 1e-9)
            total = sum(rho.values())
            assert np.abs(total[covered] - 1.0).max() < 1e-12

    def test_weights_require_bump(self):
        atl = Atlas(charts=(Chart(id="a", r=1.0, metric=None),), transitions={})
        with pytest.raises(ValueError, match="make_bump_weights"):
            atl.bump_value("a", "a", np.zeros((1, 2)))

    def test_plateau_never_narrowed_below_default(self):
        atl = Atlas(charts=(Chart(id="a", r=1.0, metric=None),), transitions={})
        out = make_bump_weights(atl, Q=0.0, plateau=0.01)
        assert out.bump.plateau == pytest.approx(0.5, abs=1e-14)


class TestPullback:
    def test_identity_transition(self):
        lat = make_lattice(2, 1.0, 41)
        g = sample_metric(lambda X: (1.0 + 0.2 * np.sin(X[..., 0]))[..., None, None]
                          * np.eye(2), lat)
        tr = Transition(frm="a", to="a", map=lambda X: X,
                        jacobian=lambda X: np.broadcast_to(
                            np.eye(2), X.shape[:-1] + (2, 2)))
        out = pullback_metric(tr, g, lat)
        assert np.abs((out.matrices() - g.matrices())[out.mask]).max() < 1e-12

    def test_linear_transition_congruence(self):
        lat = make_lattice(2, 1.0, 41)
        A = np.array([[1.0, 0.3], [0.0, 0.8]])
        g = sample_metric(lambda X: np.broadcast_to(
            np.diag([2.0, 3.0]), X.shape[:-1] + (2, 2)), lat)
        tr = Transition(frm="b", to="a",
                        map=lambda X: np.einsum("ij,...j->...i", A, X),
                        jacobian=lambda X: np.broadcast_to(
                            A, X.shape[:-1] + (2, 2)))
        out = pullback_metric(tr, g, lat)
        expect = A.T @ np.diag([2.0, 3.0]) @ A
        assert np.abs(out.matrices()[out.mask] - expect).max() < 1e-10

    def test_sphere_transition_reproduces_generator(self):
        geo = sphere(2)
        lat = geo.chart_lattice(161)
        g = sample_metric(geo.atlas.chart("south").metric, lat)
        tr = geo.atlas.transition("north", "south")
        out = pullback_metric(tr, g, lat)
        target = sample_metric(geo.atlas.chart("north").metric, lat)
        region = out.mask & lat.ball_mask(geo.r / 2.0)
        # exclude the neighbourhood of the chart centre, where the image
        # under inversion leaves the sampled box
        region &= ~lat.ball_mask(geo.r / 3.0)
        diff = np.abs((out.matrices() - target.matrices())[region]).max()
        assert diff < 1e-6


class TestInterpolation:
    def test_node_exact(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(lambda X: (2.0 + np.sin(3 * X[..., 0]))[..., None, None]
                          * np.eye(2), lat)
        pts = lat.coords()[5:10, 5:10]
        mats, ok = interpolate_metric(g, pts)
        assert ok.all()
        assert np.abs(mats - g.matrices()[5:10, 5:10]).max() < 1e-13

    def test_out_of_range_flagged(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(lambda X: np.broadcast_to(
            np.eye(2), X.shape[:-1] + (2, 2)), lat)
        mats, ok = interpolate_metric(g, np.array([[5.0, 0.0], [0.0, 0.0]]))
        assert not ok[0] and ok[1]
        assert np.isnan(mats[0]).all()

    def test_box_under_four_nodes_out_of_range(self):
        # the cubic stencil needs 4 nodes per axis: a valid box 3 nodes wide
        # flags every point instead of dividing by coincident nodes
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(lambda X: (2.0 + X[..., 0])[..., None, None] * np.eye(2), lat)
        mask = np.zeros(lat.shape, dtype=bool)
        mask[9:12, 4:16] = True
        narrow = MetricField(lattice=lat, comps=g.comps, mask=mask)
        pts = lat.coords()[9:12, 6:12] + 0.25 * lat.h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats, ok = interpolate_metric(narrow, pts)
        assert not ok.any()
        assert np.isnan(mats).all()


class TestAssembly:
    def test_flat_two_charts_stays_euclidean(self):
        geo = flat(2)
        m = 81
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        kernel = scale_kernel(2, 0.1, lat.h)
        out = assemble_mollified(geo.atlas, samples, kernel)
        for cid, gt in out.items():
            dev = np.abs(gt.matrices()[gt.mask] - np.eye(2)).max()
            assert dev < 1e-11

    def test_single_chart_equals_plain_mollification(self):
        geo = flat(2, n_charts=1)
        m = 81
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        kernel = scale_kernel(2, 0.1, lat.h)
        out = assemble_mollified(geo.atlas, samples, kernel)["a"]
        plain = convolve(kernel, samples["a"])
        common = out.mask & plain.mask
        assert np.abs((out.matrices() - plain.matrices())[common]).max() < 1e-12

    def test_sphere_assembly_converges_to_raw(self):
        geo = sphere(2)
        m = 161
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        devs, ts = [], [0.2, 0.1, 0.05]
        raw = samples["north"].matrices()
        for t in ts:
            kernel = scale_kernel(2, t, lat.h)
            gt = assemble_mollified(geo.atlas, samples, kernel)["north"]
            region = gt.mask & lat.ball_mask(geo.r / 4.0)
            devs.append(np.abs((gt.matrices() - raw)[region]).max())
        assert devs[2] < devs[0]
        slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
        assert slope >= 1.0  # smooth data mollifies at least first order in t

    def test_scale_out_of_range_rejected(self):
        geo = flat(2, n_charts=1)
        samples = geo.sample_all(41)
        lat = geo.chart_lattice(41)
        kernel = scale_kernel(2, 0.6, lat.h)
        with pytest.raises(ValueError, match="r/2"):
            assemble_mollified(geo.atlas, samples, kernel)


def _identity_off_mask(g: MetricField) -> bool:
    off = g.comps[~g.mask]
    eye = np.broadcast_to(pack_symmetric(np.eye(g.lattice.n)), off.shape)
    return off.size > 0 and np.array_equal(off, eye)


class TestPackedStorage:
    """pullback_metric and assemble_mollified write the packed identity off
    their output masks, like every other MetricField constructor."""

    def test_pullback_identity_off_mask(self):
        geo = sphere(2)
        lat = geo.chart_lattice(41)
        g = sample_metric(geo.atlas.chart("south").metric, lat)
        out = pullback_metric(geo.atlas.transition("north", "south"), g, lat)
        assert _identity_off_mask(out)

    def test_assembly_identity_off_mask(self):
        geo = get_geometry("pflat2")
        samples = geo.sample_all(21)
        kernel = scale_kernel(2, 0.3, geo.chart_lattice(21).h)
        for gt in assemble_mollified(geo.atlas, samples, kernel).values():
            assert _identity_off_mask(gt)


class TestCheckCover:
    def test_single_chart_covers_itself(self):
        geo = flat(2, n_charts=1)
        rep = check_cover(geo.atlas, geo.chart_lattice(41))
        assert rep.covered
        assert rep.N == 1

    def test_disjoint_charts_do_not_cover(self):
        delta = lambda X: np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2))
        shift = np.array([10.0, 0.0])
        charts = (Chart(id="a", r=1.0, metric=delta),
                  Chart(id="b", r=1.0, metric=delta))
        transitions = {
            ("b", "a"): Transition(frm="b", to="a", map=lambda Y: Y + shift,
                                   jacobian=lambda Y: np.broadcast_to(
                                       np.eye(2), Y.shape[:-1] + (2, 2))),
            ("a", "b"): Transition(frm="a", to="b", map=lambda X: X - shift,
                                   jacobian=lambda X: np.broadcast_to(
                                       np.eye(2), X.shape[:-1] + (2, 2))),
        }
        atl = Atlas(charts=charts, transitions=transitions)
        atl = make_bump_weights(atl, Q=1.0)
        rep = check_cover(atl, make_lattice(2, 1.0, 41))
        assert not rep.covered
        assert rep.N == 1

    def test_sphere_overlap_count(self):
        geo = sphere(2)
        rep = check_cover(geo.atlas, geo.chart_lattice(41))
        assert rep.N == 2

    def test_overlap_count_invariant_under_resolution(self):
        geo = sphere(2)
        n41 = check_cover(geo.atlas, geo.chart_lattice(41)).N
        n81 = check_cover(geo.atlas, geo.chart_lattice(81)).N
        assert n41 == n81


class TestChartDistance:
    def test_distance_comparison_under_transition(self):
        # metric-equivalence: coordinate distances in overlapping charts
        # differ by at most e^{+-Q} after the transition
        geo = get_geometry("sphere2")
        atl = geo.atlas
        Q = atl.Q
        rng = np.random.Generator(np.random.Philox(key=3))
        X = rng.uniform(0.8, 1.4, size=(200, 2)) * rng.choice(
            [-1.0, 1.0], size=(200, 2))
        tr = atl.transition("north", "south")
        Y = np.asarray(tr.map(X))
        J = np.asarray(tr.jacobian(X))
        # compare infinitesimal lengths: |J du| vs |du| within e^{2Q}
        du = rng.standard_normal((200, 2))
        ratio = np.linalg.norm(np.einsum("...ij,...j->...i", J, du), axis=-1)
        ratio /= np.linalg.norm(du, axis=-1)
        assert np.all(ratio <= np.exp(2 * Q) + 1e-3)
        assert np.all(ratio >= np.exp(-2 * Q) - 1e-3)
