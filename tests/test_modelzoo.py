"""Tests for the shipped example geometries and atlas descriptions."""
import math
from pathlib import Path

import numpy as np
import pytest

from mollilab import modelzoo
from mollilab.atlas import BumpProfile
from mollilab.lattice import make_lattice, pack_symmetric, sample_metric, unpack_symmetric
from mollilab.modelzoo import build_geometry, get_geometry, parse_atlas_file, parse_atlas_text
from mollilab.norms import check_N0
from packing import packed

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
ATLAS_FILES = sorted(EXAMPLES.glob("*.atlas"))


def _transition_compatible(geometry, n_points: int = 200, seed: int = 7,
                           tol: float = 1e-10) -> bool:
    """Pullback of chart i's generator under tau matches chart j's generator."""
    atl = geometry.atlas
    charts = {c.id: c for c in atl.charts}
    rng = np.random.Generator(np.random.Philox(key=seed))
    for (frm, to), tr in atl.transitions.items():
        X = rng.uniform(-atl.r, atl.r, size=(n_points, geometry.n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Y = np.asarray(tr.map(X), dtype=float)
            J = np.asarray(tr.jacobian(X), dtype=float)
        good = np.isfinite(Y).all(axis=-1) & np.isfinite(J).all(axis=(-2, -1))
        G = unpack_symmetric(charts[to].metric(Y[good]), geometry.n)
        pulled = np.einsum("...ki,...kl,...lj->...ij", J[good], G, J[good])
        target = unpack_symmetric(charts[frm].metric(X[good]), geometry.n)
        if np.abs(pulled - target).max() > tol * np.abs(target).max():
            return False
    return True


def _full_matrix_formula(name, n, r, params):
    """The chart metric of generator `name` as full n x n matrices, each
    generator's formula before it returned packed components: the reference
    for its packed output."""
    if name == "pflat":
        a, alpha = params.get("amp", 0.1), params.get("alpha", 0.6)
        bump = BumpProfile(plateau=0.35 * r, support=0.7 * r)
        u = np.ones(n) / math.sqrt(n)

        def formula(X):
            d = np.sqrt((X**2).sum(-1))
            amp = a * bump(d) * d ** (1.0 + alpha)
            return np.eye(n) + amp[..., None, None] * np.outer(u, u)
        return formula
    R = params.get("R", 1.0)
    lam = {"flat": lambda X: np.ones(X.shape[:-1]),
           "sphere_conformal": lambda X: 4.0 * R**4 / (R**2 + (X**2).sum(-1)) ** 2,
           "poincare_ball": lambda X: 4.0 / (1.0 - (X**2).sum(-1)) ** 2}[name]
    return lambda X: lam(X)[..., None, None] * np.eye(n)


# (generator, chart radius, parameters): every entry of the generator table,
# and pflat with a negative amplitude too
_GENERATOR_CASES = [("flat", 1.0, {}), ("sphere_conformal", 2.0, {}),
                    ("sphere_conformal", 3.0, {"R": 1.5}), ("poincare_ball", 0.5, {}),
                    ("pflat", 1.0, {}), ("pflat", 1.0, {"amp": 0.3, "alpha": 0.4}),
                    ("pflat", 1.0, {"amp": -0.3})]


class TestPackedGenerators:
    """Every generator returns packed components in pack_map order."""

    def test_cases_cover_the_generator_table(self):
        assert {case[0] for case in _GENERATOR_CASES} == set(modelzoo._GENERATORS)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", _GENERATOR_CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(_GENERATOR_CASES)])
    def test_packed_output_is_the_packed_full_matrix_formula(self, n, case):
        name, r, params = case
        gen, _ = modelzoo._GENERATORS[name][1](n, r, params)
        lat = make_lattice(n, r, 9)
        rng = np.random.default_rng(n)
        for X in (lat.coords(), rng.uniform(-r, r, (40, n))):
            got = gen(X)
            assert got.shape == X.shape[:-1] + (n * (n + 1) // 2,)
            want = pack_symmetric(_full_matrix_formula(name, n, r, params)(X))
            assert got.tobytes() == want.tobytes()
        if name == "pflat":
            assert np.abs(got - pack_symmetric(np.eye(n))).max() > 0.0  # not vacuous


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

    @pytest.mark.parametrize("generator", ["flat", "sphere_conformal", "poincare_ball"],
                             ids=["flat", "sphere", "hyperbolic"])
    def test_only_low_dimensions_ship(self, generator):
        with pytest.raises(ValueError, match="dim must be 2 or 3, got 4"):
            build_geometry(4, 0.25, [("a", generator, {})], plateau=0.125, reference_sec=None,
                           curvature_radius=0.25)

    def test_factor_zero_at_the_corner_rejected(self, monkeypatch):
        def vanishing(n, r, params):
            return modelzoo._conformal(
                n, r, lambda X: np.maximum(1.0 - (X**2).sum(axis=-1) / (n * r * r), 0.0))

        monkeypatch.setitem(modelzoo._GENERATORS, "vanishing", ((), vanishing))
        with pytest.raises(ValueError, match=r"^chart 'a': vanishing conformal factor must be "
                                             r"finite and positive at the origin and the corner, "
                                             r"got 1 and 0$"):
            build_geometry(2, 1.0, [("a", "vanishing", {})], plateau=0.5, reference_sec=None,
                           curvature_radius=1.0)


class TestReferenceConstants:
    # the sampled curvature's convergence to reference_sec is checked by
    # acceptance criterion 2 and TestSectional::test_constant_curvature_convergence
    def test_sphere_radius_scaling(self):
        assert get_geometry("sphere2", R=2.0).reference_sec == pytest.approx(0.25)

    def test_perturbed_has_no_reference(self):
        assert get_geometry("pflat2", amp=0.3).reference_sec is None


class TestTransitions:
    @pytest.mark.parametrize("name", ["flat2", "sphere2", "sphere3"])
    def test_generators_compatible(self, name):
        assert _transition_compatible(get_geometry(name))

    def test_incompatible_detected(self):
        geo = get_geometry("sphere2")
        # corrupt one generator: compatibility must fail
        bad = geo.atlas.charts[0]
        object.__setattr__(bad, "metric", packed(
            lambda X: 2.0 * np.eye(2) * np.ones(X.shape[:-1])[..., None, None]))
        assert not _transition_compatible(geo)


class TestPerturbation:
    def test_zero_amplitude_is_identity(self):
        base = get_geometry("flat2-single")
        geo = get_geometry("pflat2", amp=0.0, alpha=0.6)
        lat = geo.chart_lattice(21)
        g0 = sample_metric(base.atlas.charts[0].metric, lat)
        g1 = sample_metric(geo.atlas.charts[0].metric, lat)
        assert np.array_equal(g0.comps, g1.comps)
        assert geo.reference_sec == 0.0

    def test_even_symmetry_about_anchor(self):
        geo = get_geometry("pflat2", amp=0.3, alpha=0.6)
        lat = geo.chart_lattice(21)
        g = sample_metric(geo.atlas.charts[0].metric, lat)
        flipped = g.comps[::-1, ::-1]
        assert np.allclose(g.comps, flipped, atol=1e-14)

    def test_matches_base_outside_bump_support(self):
        base = get_geometry("flat2-single")
        geo = get_geometry("pflat2", amp=0.3, alpha=0.6)
        lat = geo.chart_lattice(41)
        g0 = sample_metric(base.atlas.charts[0].metric, lat)
        g1 = sample_metric(geo.atlas.charts[0].metric, lat)
        d = np.sqrt((lat.coords() ** 2).sum(-1))
        outside = d >= 0.7 * geo.r + 1e-12  # the cusp's bump support
        assert outside.any()
        assert np.array_equal(g0.comps[outside], g1.comps[outside])

    def test_second_derivative_grows_under_refinement(self):
        # the |x|^{1+alpha} cusp is C^1 but not C^2: the discrete Hessian
        # blows up like h^{alpha-1} at the anchor
        from mollilab.lattice import differentiate
        sups = []
        for m in (41, 81, 161):
            geo = get_geometry("pflat2", amp=0.3, alpha=0.6)
            lat = geo.chart_lattice(m)
            g = sample_metric(geo.atlas.charts[0].metric, lat)
            jet = differentiate(g, 2)
            d2 = np.abs(jet.blocks[2].reshape(lat.shape + (-1,))).max(axis=-1)
            sups.append(d2[jet.mask].max())
        assert sups[2] > sups[1] > sups[0]

    def test_amplitude_cap_enforced(self):
        with pytest.raises(ValueError, match="amplitude"):
            get_geometry("pflat2", amp=50.0, alpha=0.6)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            get_geometry("pflat2", amp=0.1, alpha=1.5)

    def test_partition_of_unity_carried_over(self):
        base, geo = get_geometry("flat2-single"), get_geometry("pflat2")
        assert geo.atlas.bump == base.atlas.bump
        # the declared Q grows with the perturbation, the plateau does not
        assert geo.Q > base.Q

    def test_atlas_file_is_the_shipped_pflat(self):
        # the generator table is shared: a pflat chart in an atlas file builds
        # the shipped model's samples and Q, with the atlas files' plateau r/2
        geo = parse_atlas_text("dim = 2\n[chart]\nid = a\nr = 1.0\n"
                               "generator = pflat amp=0.3 alpha=0.6\n")
        shipped = get_geometry("pflat2", amp=0.3, alpha=0.6)
        assert geo.Q == shipped.Q
        assert geo.atlas.bump.plateau == 0.5
        got, want = geo.sample_all(21), shipped.sample_all(21)
        assert got.keys() == want.keys() == {"a"}
        assert np.array_equal(got["a"].comps, want["a"].comps)
        assert np.array_equal(got["a"].mask, want["a"].mask)


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
        geo = parse_atlas_text(text)
        atl = geo.atlas
        assert geo.n == 2
        assert [c.id for c in atl.charts] == ["north", "south"]
        assert atl.transition("north", "south") is not None
        X = np.array([[1.0, 0.0]])
        G = unpack_symmetric(atl.charts[0].metric(X), 2)
        assert G[0, 0, 0] == pytest.approx(1.0)  # 4/(1+1)^2

    def test_description_is_a_model_geometry(self):
        geo = parse_atlas_text("dim = 3\n[chart]\nid = a\nr = 0.5\ngenerator = poincare_ball\n")
        assert (geo.n, geo.r, geo.curvature_radius) == (3, 0.5, 0.5)
        assert geo.reference_sec is None
        # Q from the corner factor 4 / (1 - 3/4)^2 = 64, larger than 4 at the origin
        assert geo.Q == 0.5 * math.log(64.0)
        assert geo.atlas.bump.plateau == 0.25  # r/2 for every atlas file

    def test_sphere_file_is_the_shipped_sphere(self):
        # one path: the committed file and the shipped model build the same
        # Q and the same samples (only the plateau differs, r/2 against 0.55r)
        geo, shipped = parse_atlas_file(EXAMPLES / "sphere2.atlas"), get_geometry("sphere2")
        assert geo.Q == shipped.Q
        got, want = geo.sample_all(41), shipped.sample_all(41)
        assert got.keys() == want.keys() == {"north", "south"}
        for cid in want:
            assert np.array_equal(got[cid].comps, want[cid].comps)
            assert np.array_equal(got[cid].mask, want[cid].mask)

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="no charts"):
            parse_atlas_text("dim = 2\n# nothing here\n")


class TestGeometryQ:
    @pytest.mark.parametrize("name", ["sphere2", "sphere3",
                                      "hyperbolic2", "hyperbolic3"])
    def test_declared_Q_bounds_eigenvalues(self, name):
        geo = get_geometry(name)
        g = geo.sample_all(41)[geo.atlas.charts[0].id]
        assert check_N0(g) <= geo.Q + 1e-12

    def test_flat_Q_zero(self):
        assert get_geometry("flat2").Q == 0.0

    @staticmethod
    def _assert_Q_equals_samples(geo):
        # odd m puts nodes on the origin and the cube corners, where the
        # radial factors take their extremes, so the samples reach Q
        for cid, g in geo.sample_all(21).items():
            assert math.isclose(check_N0(g), geo.Q, rel_tol=1e-12), cid

    @pytest.mark.parametrize("name,R", [
        *((name, 1.0) for name in ("flat2", "flat3", "hyperbolic2", "hyperbolic3")),
        *((name, R) for name in ("sphere2", "sphere3") for R in (0.5, 1.0, 3.0, 5.0))])
    def test_declared_Q_equals_samples(self, name, R):
        self._assert_Q_equals_samples(get_geometry(name, R=R))

    @pytest.mark.parametrize("path", ATLAS_FILES, ids=lambda p: p.name)
    def test_atlas_file_Q_equals_samples(self, path):
        self._assert_Q_equals_samples(parse_atlas_file(path))

    @pytest.mark.parametrize("amp", [0.3, -0.3])
    @pytest.mark.parametrize("alpha", [0.2, 0.6, 0.9])
    def test_perturbed_Q_bounds_samples(self, amp, alpha):
        # the declared Q bounds the samples at every resolution, and stays
        # within 1 % of the finest one, so a loose Q cannot pass
        geo = get_geometry("pflat2", amp=amp, alpha=alpha)
        for m in (21, 41, 81, 161):
            need = check_N0(geo.sample_all(m)["a"])
            assert need <= geo.Q
        assert geo.Q <= 1.01 * need
