"""Tests for the shipped example geometries and their validation helpers."""
import numpy as np
import pytest

from mollilab.lattice import make_lattice, sample_metric
from mollilab.modelzoo import (flat, get_geometry, hyperbolic, parse_atlas_text,
                               perturb, sphere, transition_compatible,
                               validate_reference)


class TestRegistry:
    @pytest.mark.parametrize("name", ["flat2", "flat3", "flat2-single",
                                      "flat3-single", "sphere2", "sphere3",
                                      "hyperbolic2", "hyperbolic3",
                                      "pflat2", "pflat3"])
    def test_all_geometries_build(self, name):
        geo = get_geometry(name)
        assert geo.atlas.bump is not None
        assert geo.r > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown geometry"):
            get_geometry("torus")

    @pytest.mark.parametrize("builder", [flat, sphere, hyperbolic])
    def test_only_low_dimensions_ship(self, builder):
        with pytest.raises(ValueError):
            builder(4)


class TestReferenceConstants:
    @pytest.mark.parametrize("name,expect", [("sphere2", 1.0),
                                             ("hyperbolic2", -1.0),
                                             ("flat2-single", 0.0)])
    def test_validated_constant(self, name, expect):
        geo = get_geometry(name)
        if expect == 0.0:
            # Richardson extrapolation of an exactly-zero quantity
            got = validate_reference(geo)
            assert abs(got) < 1e-10
        else:
            got = validate_reference(geo)
            assert got == pytest.approx(expect, abs=1e-3)

    def test_sphere_radius_scaling(self):
        geo = sphere(2, R=2.0)
        assert geo.reference_sec == pytest.approx(0.25)
        got = validate_reference(geo)
        assert got == pytest.approx(0.25, abs=1e-3)

    def test_perturbed_has_no_reference(self):
        geo = get_geometry("pflat2", amp=0.3)
        assert geo.reference_sec is None
        with pytest.raises(ValueError, match="reference"):
            validate_reference(geo)


class TestTransitions:
    @pytest.mark.parametrize("name", ["flat2", "sphere2", "sphere3"])
    def test_generators_compatible(self, name):
        assert transition_compatible(get_geometry(name))

    def test_incompatible_detected(self):
        geo = sphere(2)
        # corrupt one generator: compatibility must fail
        bad = geo.atlas.chart("north")
        object.__setattr__(bad, "metric",
                           lambda X: 2.0 * np.eye(2) * np.ones(X.shape[:-1])[..., None, None])
        assert not transition_compatible(geo)


class TestPerturbation:
    def test_zero_amplitude_is_identity(self):
        base = flat(2, n_charts=1)
        geo = perturb(base, 0.0, 0.6)
        lat = geo.chart_lattice(21)
        g0 = sample_metric(base.atlas.charts[0].metric, lat)
        g1 = sample_metric(geo.atlas.charts[0].metric, lat)
        assert np.array_equal(g0.comps, g1.comps)
        assert geo.reference_sec == 0.0

    def test_even_symmetry_about_anchor(self):
        geo = perturb(flat(2, n_charts=1), 0.3, 0.6)
        lat = geo.chart_lattice(21)
        g = sample_metric(geo.atlas.charts[0].metric, lat)
        flipped = g.comps[::-1, ::-1]
        assert np.allclose(g.comps, flipped, atol=1e-14)

    def test_matches_base_outside_bump_support(self):
        base = flat(2, n_charts=1)
        geo = perturb(base, 0.3, 0.6)
        lat = geo.chart_lattice(41)
        g0 = sample_metric(base.atlas.charts[0].metric, lat)
        g1 = sample_metric(geo.atlas.charts[0].metric, lat)
        d = np.sqrt((lat.coords() ** 2).sum(-1))
        outside = d >= geo.perturbation.bump.support + 1e-12
        assert outside.any()
        assert np.array_equal(g0.comps[outside], g1.comps[outside])

    def test_second_derivative_grows_under_refinement(self):
        # the |x|^{1+alpha} cusp is C^1 but not C^2: the discrete Hessian
        # blows up like h^{alpha-1} at the anchor
        from mollilab.lattice import differentiate
        sups = []
        for m in (41, 81, 161):
            geo = perturb(flat(2, n_charts=1), 0.3, 0.6)
            lat = geo.chart_lattice(m)
            g = sample_metric(geo.atlas.charts[0].metric, lat)
            jet = differentiate(g, 2)
            d2 = np.abs(jet.blocks[2].reshape(lat.shape + (-1,))).max(axis=-1)
            sups.append(d2[jet.mask].max())
        assert sups[2] > sups[1] > sups[0]

    def test_amplitude_cap_enforced(self):
        with pytest.raises(ValueError, match="amplitude"):
            perturb(flat(2, n_charts=1), 50.0, 0.6)

    def test_multi_chart_rejected(self):
        with pytest.raises(ValueError, match="single-chart"):
            perturb(flat(2, n_charts=2), 0.1, 0.6)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            perturb(flat(2, n_charts=1), 0.1, 1.5)


class TestAtlasText:
    def test_parse_sphere_description(self):
        text = """
        dim = 2
        [chart]
        id = north
        r = 2.0
        generator = sphere_conformal R=1.0
        [chart]
        id = south
        r = 2.0
        generator = sphere_conformal R=1.0
        [transition]
        pair = north south
        map = inversion R=1.0
        """
        atl, n = parse_atlas_text(text)
        assert n == 2
        assert len(atl.charts) == 2
        assert atl.transition("north", "south") is not None
        X = np.array([[1.0, 0.0]])
        G = atl.chart("north").metric(X)
        assert G[0, 0, 0] == pytest.approx(1.0)  # 4/(1+1)^2

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="no charts"):
            parse_atlas_text("dim = 2\n# nothing here\n")


class TestGeometryQ:
    @pytest.mark.parametrize("name", ["sphere2", "sphere3",
                                      "hyperbolic2", "hyperbolic3"])
    def test_declared_Q_bounds_eigenvalues(self, name):
        from mollilab.norms import check_N0
        geo = get_geometry(name)
        g = geo.sample_all(41)[geo.atlas.charts[0].id]
        assert check_N0(g) <= geo.atlas.Q + 1e-12

    def test_flat_Q_zero(self):
        assert flat(2).atlas.Q == 0.0
