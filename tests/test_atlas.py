"""Tests for charts, partitions of unity, pullbacks, and global assembly."""
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from mollilab.atlas import (Atlas, BumpProfile, Chart, Transition, _lagrange_cubic, _valid_box,
                            check_cover, interpolate_metric, pullback_metric)
from mollilab.atlas import assemble_mollified
import mollilab.atlas as atlas_module
from mollilab.kernels import convolve, scale_kernel
from mollilab.lattice import (Lattice, MetricField, erode_mask, make_lattice, pack_symmetric,
                              sample_metric, unpack_symmetric)
from mollilab.modelzoo import get_geometry, parse_atlas_file
from atlas_parts import full_matrix_pullback
from packing import packed

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


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
        geo = get_geometry("flat2-single")
        lat = geo.chart_lattice(21)
        rho, denom = geo.atlas.weights("a", lat.coords())
        covered = lat.ball_mask(geo.r / 2.0)
        assert np.abs(rho["a"][covered] - 1.0).max() < 1e-15

    def test_symmetric_overlap_is_half(self):
        geo = get_geometry("sphere2")
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
        geo = get_geometry("sphere2")
        lat = geo.chart_lattice(81)
        for cid in ("north", "south"):
            rho, denom = geo.atlas.weights(cid, lat.coords())
            covered = lat.ball_mask(geo.r / 2.0) & (denom >= 1.0 - 1e-9)
            total = sum(rho.values())
            assert np.abs(total[covered] - 1.0).max() < 1e-12

    def test_plateau_at_support_rejected_at_construction(self):
        r = 1.0
        with pytest.raises(ValueError, match="3r/4"):
            Atlas(charts=(Chart(id="a", r=r, metric=None),), transitions={},
                  plateau=0.8 * r)


class TestPullback:
    def test_identity_transition(self):
        lat = make_lattice(2, 1.0, 41)
        g = sample_metric(packed(lambda X: (1.0 + 0.2 * np.sin(X[..., 0]))[..., None, None]
                                 * np.eye(2)), lat)
        tr = Transition(map=lambda X: X,
                        jacobian=lambda X: np.broadcast_to(
                            np.eye(2), X.shape[:-1] + (2, 2)))
        out = pullback_metric(tr, g, lat)
        diff = unpack_symmetric(out.comps, 2) - unpack_symmetric(g.comps, 2)
        assert np.abs(diff[out.mask]).max() < 1e-12

    @pytest.mark.parametrize("A,G,m", [
        (np.array([[1.0, 0.3], [0.0, 0.8]]), np.diag([2.0, 3.0]), 41),
        # non-symmetric A and non-diagonal g: J[c, a] read as J[a, c] moves
        # the result in 3-d too
        (np.array([[0.9, 0.3, -0.1], [0.05, 0.8, 0.25], [-0.2, 0.1, 0.7]]),
         np.array([[2.0, 0.3, -0.2], [0.3, 3.0, 0.5], [-0.2, 0.5, 1.5]]), 21)],
        ids=["n2", "n3"])
    def test_linear_transition_congruence(self, A, G, m):
        n = A.shape[0]
        lat = make_lattice(n, 1.0, m)
        g = sample_metric(packed(lambda X: np.broadcast_to(G, X.shape[:-1] + (n, n))), lat)
        tr = Transition(map=lambda X: np.einsum("ij,...j->...i", A, X),
                        jacobian=lambda X: np.broadcast_to(
                            A, X.shape[:-1] + (n, n)))
        out = pullback_metric(tr, g, lat)
        assert out.mask.any()
        expect = A.T @ G @ A
        assert np.abs(unpack_symmetric(out.comps, n)[out.mask] - expect).max() < 1e-10

    @pytest.mark.parametrize("name,m", [("sphere2", 41), ("sphere2", 81), ("sphere3", 17),
                                        ("sphere3", 25), ("flat2", 41), ("flat2", 81),
                                        ("flat3", 17), ("flat3", 25)])
    @pytest.mark.parametrize("mollified", [False, True], ids=["raw", "mollified"])
    def test_matches_full_matrix_pullback(self, name, m, mollified):
        # each packed entry computed once from planes against J^T G J on full
        # matrices with its triangles averaged: the same mask, and round-off
        # apart (within 4 eps max|g|)
        geo = get_geometry(name)
        lat = geo.chart_lattice(m)
        samples = geo.sample_all(m)
        for (_, to), tr in geo.atlas.transitions.items():
            g = samples[to]
            if mollified:
                g = convolve(scale_kernel(geo.n, 0.2 * geo.r, lat.h), g)
            out = pullback_metric(tr, g, lat)
            ref = full_matrix_pullback(tr, g, lat)
            assert out.mask.any()
            assert np.array_equal(out.mask, ref.mask)
            bound = 4.0 * np.finfo(float).eps * np.abs(g.comps[g.mask]).max()
            assert np.abs(out.comps - ref.comps).max() <= bound

    def test_sphere_transition_reproduces_generator(self):
        geo = get_geometry("sphere2")
        lat = geo.chart_lattice(161)
        north, south = geo.atlas.charts
        g = sample_metric(south.metric, lat)
        tr = geo.atlas.transition("north", "south")
        out = pullback_metric(tr, g, lat)
        target = sample_metric(north.metric, lat)
        region = out.mask & lat.ball_mask(geo.r / 2.0)
        # exclude the neighbourhood of the chart centre, where the image
        # under inversion leaves the sampled box
        region &= ~lat.ball_mask(geo.r / 3.0)
        diff = np.abs((unpack_symmetric(out.comps, 2)
                       - unpack_symmetric(target.comps, 2))[region]).max()
        assert diff < 1e-6


class TestInterpolation:
    def test_node_exact(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(packed(lambda X: (2.0 + np.sin(3 * X[..., 0]))[..., None, None]
                                 * np.eye(2)), lat)
        pts = lat.coords()[5:10, 5:10]
        comps, ok = interpolate_metric(g, pts)
        assert ok.all()
        assert np.abs(comps - g.comps[5:10, 5:10]).max() < 1e-13

    def test_out_of_range_flagged(self):
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(packed(lambda X: np.broadcast_to(
            np.eye(2), X.shape[:-1] + (2, 2))), lat)
        comps, ok = interpolate_metric(g, np.array([[5.0, 0.0], [0.0, 0.0]]))
        assert comps.shape == (2, 3)
        assert not ok[0] and ok[1]
        assert np.isnan(comps[0]).all()
        assert np.array_equal(comps[1], [1.0, 0.0, 1.0])

    def test_box_under_four_nodes_out_of_range(self):
        # the cubic stencil needs 4 nodes per axis: a valid box 3 nodes wide
        # flags every point instead of dividing by coincident nodes
        lat = make_lattice(2, 1.0, 21)
        g = sample_metric(packed(lambda X: (2.0 + X[..., 0])[..., None, None] * np.eye(2)), lat)
        mask = np.zeros(lat.shape, dtype=bool)
        mask[9:12, 4:16] = True
        narrow = MetricField(lattice=lat, comps=g.comps, mask=mask)
        pts = lat.coords()[9:12, 6:12] + 0.25 * lat.h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comps, ok = interpolate_metric(narrow, pts)
        assert comps.shape == pts.shape[:-1] + (3,)
        assert not ok.any()
        assert np.isnan(comps).all()


def _tuple_index_cubic(axes, values, pts):
    """`_lagrange_cubic` before its stencil was gathered by flat index, kept
    as the reference: each of the 4^n stencil nodes is read with a tuple of
    n index arrays."""
    n = len(axes)
    npts = pts.shape[0]
    base = []
    weights = []
    for k in range(n):
        ax = axes[k]
        cell = np.searchsorted(ax, pts[:, k], side="right") - 1
        cell = np.clip(cell, 1, ax.size - 3)
        w = np.empty((npts, 4))
        for a in range(4):
            num = np.ones(npts)
            xa = ax[cell - 1 + a]
            for b in range(4):
                if b != a:
                    xb = ax[cell - 1 + b]
                    num *= (pts[:, k] - xb) / (xa - xb)
            w[:, a] = num
        base.append(cell - 1)
        weights.append(w)
    out = np.zeros((npts,) + values.shape[n:])
    for offs in itertools.product(range(4), repeat=n):
        idx = tuple(base[k] + offs[k] for k in range(n))
        w = weights[0][:, offs[0]]
        for k in range(1, n):
            w = w * weights[k][:, offs[k]]
        out += w.reshape((npts,) + (1,) * (values.ndim - n)) * values[idx]
    return out


class TestLagrangeCubic:
    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_gather_equals_tuple_gather(self, n):
        # the box interpolate_metric passes: comps[sl] of a centred sub-box,
        # which is not contiguous; points on nodes, on the box faces and
        # at random inside
        lat = make_lattice(n, 1.0, 21 if n == 2 else 13)
        g = sample_metric(packed(lambda X: (2.0 + np.sin(3.0 * X[..., :1, None])) * np.eye(n)
                                 + 0.3 * X[..., :, None] * X[..., None, :]), lat)
        sl = _valid_box(lat.ball_mask(0.7, norm="max"))
        axes = [lat.axis_nodes()[s] for s in sl]
        box = g.comps[sl]
        assert not box.flags.c_contiguous
        rng = np.random.Generator(np.random.Philox(key=n))
        lo = np.array([ax[0] for ax in axes])
        hi = np.array([ax[-1] for ax in axes])
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        faces = rng.uniform(lo, hi, (4 * n, n))
        for k in range(n):
            faces[4 * k:4 * k + 2, k] = lo[k]
            faces[4 * k + 2:4 * k + 4, k] = hi[k]
        for pts in (nodes, faces, rng.uniform(lo, hi, (200, n))):
            assert np.array_equal(_lagrange_cubic(axes, box, pts),
                                  _tuple_index_cubic(axes, box, pts).T)


class TestAssembly:
    def test_flat_two_charts_stays_euclidean(self):
        geo = get_geometry("flat2")
        m = 81
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        kernel = scale_kernel(2, 0.1, lat.h)
        out = assemble_mollified(geo.atlas, samples, kernel)
        for cid, gt in out.items():
            dev = np.abs(unpack_symmetric(gt.comps, 2)[gt.mask] - np.eye(2)).max()
            assert dev < 1e-11

    def test_single_chart_equals_plain_mollification(self):
        geo = get_geometry("flat2-single")
        m = 81
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        kernel = scale_kernel(2, 0.1, lat.h)
        out = assemble_mollified(geo.atlas, samples, kernel)["a"]
        plain = convolve(kernel, samples["a"])
        common = out.mask & plain.mask
        diff = unpack_symmetric(out.comps, 2) - unpack_symmetric(plain.comps, 2)
        assert np.abs(diff[common]).max() < 1e-12

    def test_sphere_assembly_converges_to_raw(self):
        geo = get_geometry("sphere2")
        m = 161
        samples = geo.sample_all(m)
        lat = geo.chart_lattice(m)
        devs, ts = [], [0.2, 0.1, 0.05]
        raw = unpack_symmetric(samples["north"].comps, 2)
        for t in ts:
            kernel = scale_kernel(2, t, lat.h)
            gt = assemble_mollified(geo.atlas, samples, kernel)["north"]
            region = gt.mask & lat.ball_mask(geo.r / 4.0)
            devs.append(np.abs((unpack_symmetric(gt.comps, 2) - raw)[region]).max())
        assert devs[2] < devs[0]
        slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
        assert slope >= 1.0  # smooth data mollifies at least first order in t

    @pytest.mark.parametrize("name,m,t,trim", [("sphere2", 81, 0.2, 12), ("flat2", 41, 0.1, 6),
                                               ("sphere3", 21, 0.3, 2)])
    def test_one_chart_on_a_window(self, name, m, t, trim, monkeypatch):
        # the whole atlas convolves each chart once; one chart glued on a
        # window convolves its window and the charts active on it, whole,
        # and keeps the whole gluing's bits wherever its mask holds.  Its
        # own term is invalid within the kernel's radius of the window's
        # edge, where it glues only the nodes that term has no weight on
        geo = get_geometry(name)
        samples = geo.sample_all(m)
        kernel = scale_kernel(geo.n, t, geo.chart_lattice(m).h)
        calls = []

        def counted(k, f):
            calls.append(f.lattice)
            return convolve(k, f)

        monkeypatch.setattr(atlas_module, "convolve", counted)
        whole = assemble_mollified(geo.atlas, samples, kernel)
        assert len(calls) == len(samples) == len(whole)
        cid = geo.atlas.charts[0].id
        g = samples[cid]
        win = Lattice(n=geo.n, r=g.lattice.r, m=m, trim=trim)
        crop = (slice(trim, m - trim),) * geo.n
        calls.clear()
        windowed = {**samples, cid: MetricField(lattice=win, comps=g.comps[crop],
                                                mask=g.mask[crop])}
        gt, = assemble_mollified(geo.atlas, windowed, kernel, charts=(cid,)).values()
        assert calls[0] == win and all(lat.trim == 0 for lat in calls[1:])
        assert len(calls) == len(samples)  # the other chart is active on the window
        ref = whole[cid]
        assert gt.lattice == win and gt.mask.any()
        inner = erode_mask(win.full_mask(), kernel.radius)
        assert not (gt.mask & ~ref.mask[crop]).any()
        assert np.array_equal(gt.mask & inner, ref.mask[crop] & inner)
        assert np.array_equal(gt.comps[gt.mask], ref.comps[crop][gt.mask])

    def test_scale_out_of_range_rejected(self):
        geo = get_geometry("flat2-single")
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
        geo = get_geometry("sphere2")
        lat = geo.chart_lattice(41)
        _, south = geo.atlas.charts
        g = sample_metric(south.metric, lat)
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
        geo = get_geometry("flat2-single")
        rep = check_cover(geo.atlas, geo.chart_lattice(41))
        assert rep.covered
        assert rep.N == 1

    def test_disjoint_charts_do_not_cover(self):
        delta = lambda X: np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2))
        shift = np.array([10.0, 0.0])
        charts = (Chart(id="a", r=1.0, metric=delta),
                  Chart(id="b", r=1.0, metric=delta))
        transitions = {
            ("b", "a"): Transition(map=lambda Y: Y + shift,
                                   jacobian=lambda Y: np.broadcast_to(
                                       np.eye(2), Y.shape[:-1] + (2, 2))),
            ("a", "b"): Transition(map=lambda X: X - shift,
                                   jacobian=lambda X: np.broadcast_to(
                                       np.eye(2), X.shape[:-1] + (2, 2))),
        }
        atl = Atlas(charts=charts, transitions=transitions, plateau=0.5 * np.exp(-2.0))
        rep = check_cover(atl, make_lattice(2, 1.0, 41))
        assert not rep.covered
        assert rep.N == 1

    @pytest.mark.parametrize("source,m", [
        *((name, 41) for name in ("flat2", "flat3", "flat2-single", "flat3-single",
                                  "sphere2", "sphere3", "hyperbolic2", "hyperbolic3",
                                  "pflat2", "pflat3")),
        ("two.atlas", 21), ("sphere2.atlas", 41)])
    def test_shipped_atlases_cover(self, source, m):
        # the partition denominator is >= 1 on every chart's r/2 ball, also
        # where the eigenvalue bound Q is far from 0
        geo = (parse_atlas_file(EXAMPLES / source) if source.endswith(".atlas")
               else get_geometry(source))
        assert check_cover(geo.atlas, geo.chart_lattice(m)).covered

    def test_sphere_overlap_count(self):
        geo = get_geometry("sphere2")
        rep = check_cover(geo.atlas, geo.chart_lattice(41))
        assert rep.N == 2

    def test_each_transition_map_evaluated_once(self, monkeypatch):
        # the overlap count and the partition read the same chart distances
        geo = get_geometry("sphere2")
        calls = {key: 0 for key in geo.atlas.transitions}

        def counted(key, tr):
            def map_(X):
                calls[key] += 1
                return tr.map(X)
            return Transition(map=map_, jacobian=tr.jacobian)

        for key, tr in list(geo.atlas.transitions.items()):
            monkeypatch.setitem(geo.atlas.transitions, key, counted(key, tr))
        rep = check_cover(geo.atlas, geo.chart_lattice(41))
        assert (rep.covered, rep.N) == (True, 2)
        assert calls == {("north", "south"): 1, ("south", "north"): 1}

    def test_overlap_count_invariant_under_resolution(self):
        geo = get_geometry("sphere2")
        n41 = check_cover(geo.atlas, geo.chart_lattice(41)).N
        n81 = check_cover(geo.atlas, geo.chart_lattice(81)).N
        assert n41 == n81

    @pytest.mark.parametrize("source,m", [("sphere2", 41), ("sphere3", 21),
                                          ("flat3", 21), ("two.atlas", 21)])
    def test_partition_sum_dev_matches_reference(self, source, m):
        geo = (parse_atlas_file(EXAMPLES / source) if source.endswith(".atlas")
               else get_geometry(source))
        atlas, lat = geo.atlas, geo.chart_lattice(m)
        # reference: the partition-sum loop the cover command ran on its own
        X = lat.coords()
        sum_dev = 0.0
        for c in atlas.charts:
            rho, denom = atlas.weights(c.id, X)
            covered = lat.ball_mask(atlas.r / 2.0) & (denom >= 1.0 - 1e-9)
            total = sum(rho.values())
            if covered.any():
                sum_dev = max(sum_dev, float(np.abs(total - 1.0)[covered].max()))
        assert check_cover(atlas, lat).partition_sum_dev == sum_dev


class TestChartDistance:
    def test_distance_comparison_under_transition(self):
        # metric-equivalence: coordinate distances in overlapping charts
        # differ by at most e^{+-Q} after the transition
        geo = get_geometry("sphere2")
        atl = geo.atlas
        Q = geo.Q
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
