"""Analytic example geometries with known curvature and transitions.

Conformal charts only: flat space, the round sphere via two inversion-
related stereographic charts, and the Poincare ball.  Reference curvature
constants are validated numerically at registration time, never trusted
from memory.  Rough perturbations produce metrics of limited smoothness
for the scaling experiments.  Plain-text atlas descriptions are built from
the same conformal factors and transition maps as the shipped models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import Atlas, BumpProfile, Chart, Transition, make_bump_weights
from .curvature import riemann, sec_extremes
from .lattice import Lattice, make_lattice, sample_metric


def _conformal(lam):
    def gen(X):
        n = X.shape[-1]
        return lam(X)[..., None, None] * np.eye(n)
    return gen


def _unit_factor(X):
    return np.ones(X.shape[:-1])


def _sphere_factor(R: float):
    """Conformal factor 4R^4 / (R^2 + |x|^2)^2 of a stereographic sphere chart."""
    def lam(X):
        return 4.0 * R**4 / (R**2 + (X**2).sum(axis=-1)) ** 2
    return lam


def _poincare_factor(X):
    """Conformal factor 4 / (1 - |x|^2)^2 of the Poincare ball."""
    return 4.0 / (1.0 - (X**2).sum(axis=-1)) ** 2


def _inversion(R: float) -> tuple:
    """Inversion x -> R^2 x / |x|^2 in the sphere of radius R, and its Jacobian."""
    def mp(X):
        s = (X**2).sum(axis=-1)
        return R**2 * X / s[..., None]

    def jac(X):
        s = (X**2).sum(axis=-1)
        eye = np.eye(X.shape[-1])
        return R**2 * (eye * s[..., None, None]
                       - 2.0 * X[..., :, None] * X[..., None, :]) / (s**2)[..., None, None]

    return mp, jac


def _rigid_motion(n: int, theta: float, shift: float) -> tuple:
    """y -> A y + c, A the rotation by theta in the (x0, x1) plane and
    c = shift e_0: (map, Jacobian, inverse map, its Jacobian)."""
    A = np.eye(n)
    A[0, 0] = A[1, 1] = math.cos(theta)
    A[0, 1] = -math.sin(theta)
    A[1, 0] = math.sin(theta)
    c = np.zeros(n)
    c[0] = shift

    def fwd(Y):
        return np.einsum("ij,...j->...i", A, Y) + c

    def fwd_jac(Y):
        return np.broadcast_to(A, Y.shape[:-1] + (n, n)).copy()

    def bwd(X):
        return np.einsum("ji,...j->...i", A, X - c)

    def bwd_jac(X):
        return np.broadcast_to(A.T, X.shape[:-1] + (n, n)).copy()

    return fwd, fwd_jac, bwd, bwd_jac


def _transition_pair(a: str, b: str, fwd, fwd_jac, bwd, bwd_jac) -> dict:
    """Transitions b -> a by (fwd, fwd_jac) and a -> b by (bwd, bwd_jac)."""
    return {(b, a): Transition(frm=b, to=a, map=fwd, jacobian=fwd_jac),
            (a, b): Transition(frm=a, to=b, map=bwd, jacobian=bwd_jac)}


@dataclass(frozen=True)
class ModelGeometry:
    name: str
    n: int
    atlas: Atlas
    reference_sec: float | None   # exact constant for constant-curvature models
    curvature_radius: float       # lattice radius used for curvature oracles
    perturbation: "RoughPerturbation | None" = None

    @property
    def r(self) -> float:
        return self.atlas.r

    def chart_lattice(self, m: int) -> Lattice:
        return make_lattice(self.n, self.r, m)

    def sample_all(self, m: int) -> dict:
        lat = self.chart_lattice(m)
        return {c.id: sample_metric(c.metric, lat) for c in self.atlas.charts}


@dataclass(frozen=True)
class RoughPerturbation:
    base: str
    amplitude: float
    alpha: float
    anchor: tuple
    bump: BumpProfile


def _eig_bound_Q(lam_lo: float, lam_hi: float) -> float:
    return 0.5 * max(abs(math.log(lam_lo)), abs(math.log(lam_hi)))


def flat(n: int, n_charts: int = 2) -> ModelGeometry:
    """Euclidean space; optionally two charts glued by a rigid motion."""
    if n not in (2, 3):
        raise ValueError("only dimensions 2 and 3 ship")
    r = 1.0
    delta = _conformal(_unit_factor)
    charts = [Chart(id="a", r=r, metric=delta)]
    transitions = {}
    if n_charts == 2:
        charts.append(Chart(id="b", r=r, metric=delta))
        transitions = _transition_pair("a", "b", *_rigid_motion(n, math.pi / 6.0, r / 4.0))
    elif n_charts != 1:
        raise ValueError("flat ships with 1 or 2 charts")
    atl = Atlas(charts=tuple(charts), transitions=transitions)
    atl = make_bump_weights(atl, Q=0.0, plateau=0.625 * r)
    return ModelGeometry(name=f"flat{n}", n=n, atlas=atl, reference_sec=0.0,
                         curvature_radius=r)


def sphere(n: int, R: float = 1.0) -> ModelGeometry:
    """Round sphere of radius R via two stereographic conformal charts."""
    if n not in (2, 3):
        raise ValueError("only dimensions 2 and 3 ship")
    if R <= 0:
        raise ValueError("R must be positive")
    r = 2.0 * R  # two r/2-balls just cover the sphere
    lam = _sphere_factor(R)
    gen = _conformal(lam)
    charts = (Chart(id="north", r=r, metric=gen), Chart(id="south", r=r, metric=gen))
    # the inversion is an involution: the same map in both directions
    transitions = _transition_pair("north", "south", *(2 * _inversion(R)))
    Q = _eig_bound_Q(lam(np.full(n, r)), 4.0 * R**2)  # lam is smallest at a cube corner
    atl = Atlas(charts=charts, transitions=transitions)
    atl = make_bump_weights(atl, Q=Q, plateau=0.55 * r)
    return ModelGeometry(name=f"sphere{n}", n=n, atlas=atl,
                         reference_sec=1.0 / R**2, curvature_radius=R)


def hyperbolic(n: int) -> ModelGeometry:
    """Hyperbolic space in the Poincare-ball conformal chart."""
    if n not in (2, 3):
        raise ValueError("only dimensions 2 and 3 ship")
    r = 0.5  # cube corners stay inside the unit ball for n <= 3
    charts = (Chart(id="ball", r=r, metric=_conformal(_poincare_factor)),)
    Q = _eig_bound_Q(_poincare_factor(np.zeros(n)), _poincare_factor(np.full(n, r)))
    atl = Atlas(charts=charts, transitions={})
    atl = make_bump_weights(atl, Q=Q, plateau=0.625 * r)
    return ModelGeometry(name=f"hyperbolic{n}", n=n, atlas=atl,
                         reference_sec=-1.0, curvature_radius=0.4)


def perturb(geometry: ModelGeometry, a: float, alpha: float,
            x0: tuple | None = None) -> ModelGeometry:
    """Add a C^{1,alpha}-but-not-C^2 component bump a w(x)|x-x0|^{1+alpha} u u^T.

    Only single-chart geometries can be perturbed (the perturbation is
    expressed in one chart's coordinates).
    """
    if len(geometry.atlas.charts) != 1:
        raise ValueError("perturb requires a single-chart geometry")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    base_chart = geometry.atlas.charts[0]
    n = geometry.n
    r = base_chart.r
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    shape_bump = BumpProfile(plateau=0.35 * r, support=0.7 * r)
    u = np.ones(n) / math.sqrt(n)
    E = np.outer(u, u)
    base_gen = base_chart.metric

    def gen(X):
        d = np.sqrt(((X - x0) ** 2).sum(axis=-1))
        amp = a * shape_bump(d) * d ** (1.0 + alpha)
        return base_gen(X) + amp[..., None, None] * E

    # amplitude cap: perturbation stays below half the base's smallest eigenvalue
    probe = make_lattice(n, r, 41)
    base_eigs = np.linalg.eigvalsh(base_gen(probe.coords()))
    d = np.sqrt(((probe.coords() - x0) ** 2).sum(axis=-1))
    peak = abs(a) * float((shape_bump(d) * d ** (1.0 + alpha)).max())
    if peak > 0.5 * float(base_eigs[..., 0].min()):
        raise ValueError("perturbation amplitude exceeds the positive-definiteness cap")

    chart = Chart(id=base_chart.id, r=r, metric=gen)
    atl = Atlas(charts=(chart,), transitions={})
    atl = make_bump_weights(atl, Q=geometry.atlas.Q or 0.0,
                            plateau=geometry.atlas.bump.plateau)
    info = RoughPerturbation(base=geometry.name, amplitude=a, alpha=alpha,
                             anchor=tuple(x0), bump=shape_bump)
    ref = geometry.reference_sec if a == 0.0 else None
    return ModelGeometry(name=f"perturbed-{geometry.name}", n=n, atlas=atl,
                         reference_sec=ref, curvature_radius=geometry.curvature_radius,
                         perturbation=info)


# ---------------------------------------------------------------------------
# validation

def transition_compatible(geometry: ModelGeometry, n_points: int = 200,
                          seed: int = 7, tol: float = 1e-10) -> bool:
    """Pullback of chart i's generator under tau matches chart j's generator."""
    atl = geometry.atlas
    rng = np.random.Generator(np.random.Philox(key=seed))
    for (frm, to), tr in atl.transitions.items():
        gen_to = atl.chart(to).metric
        gen_frm = atl.chart(frm).metric
        X = rng.uniform(-atl.r, atl.r, size=(n_points, geometry.n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            Y = np.asarray(tr.map(X), dtype=float)
            J = np.asarray(tr.jacobian(X), dtype=float)
        good = np.isfinite(Y).all(axis=-1) & np.isfinite(J).all(axis=(-2, -1))
        G = gen_to(Y[good])
        pulled = np.einsum("...ki,...kl,...lj->...ij", J[good], G, J[good])
        target = gen_frm(X[good])
        scale = np.abs(target).max()
        if np.abs(pulled - target).max() > tol * scale:
            return False
    return True


def validate_reference(geometry: ModelGeometry, ms=(41, 81)) -> float:
    """Richardson-extrapolated sectional-curvature constant of the model.

    Uses the second-order stencils at two resolutions; the result is the
    validated constant the acceptance checks compare against.
    """
    if geometry.reference_sec is None:
        raise ValueError("geometry has no constant-curvature reference")
    vals = []
    for m in ms:
        lat = make_lattice(geometry.n, geometry.curvature_radius, m)
        g = sample_metric(geometry.atlas.charts[0].metric, lat)
        R = riemann(g)
        region = lat.ball_mask(geometry.curvature_radius / 2.0)
        lo, hi = sec_extremes(g, R, region)
        vals.append(0.5 * (lo + hi))
    c1, c2 = vals[-2], vals[-1]
    return (4.0 * c2 - c1) / 3.0


# ---------------------------------------------------------------------------
# registry and atlas description files

def get_geometry(name: str, R: float = 1.0, amp: float = 0.1,
                 alpha: float = 0.6) -> ModelGeometry:
    table = {
        "flat2": lambda: flat(2), "flat3": lambda: flat(3),
        "flat2-single": lambda: flat(2, n_charts=1),
        "flat3-single": lambda: flat(3, n_charts=1),
        "sphere2": lambda: sphere(2, R), "sphere3": lambda: sphere(3, R),
        "hyperbolic2": lambda: hyperbolic(2), "hyperbolic3": lambda: hyperbolic(3),
        "pflat2": lambda: perturb(flat(2, n_charts=1), amp, alpha),
        "pflat3": lambda: perturb(flat(3, n_charts=1), amp, alpha),
    }
    if name not in table:
        raise ValueError(f"unknown geometry {name!r}; known: {sorted(table)}")
    return table[name]()


_GENERATORS = {
    "flat": lambda params: _conformal(_unit_factor),
    "sphere_conformal": lambda params: _conformal(_sphere_factor(params.get("R", 1.0))),
    "poincare_ball": lambda params: _conformal(_poincare_factor),
}

# each entry returns (map, Jacobian, inverse map, its Jacobian)
_MAPS = {
    "inversion": lambda n, params: 2 * _inversion(params.get("R", 1.0)),
    "affine": lambda n, params: _rigid_motion(n, params.get("theta", 0.0),
                                              params.get("shift", 0.0)),
}


def _parse_params(tokens) -> dict:
    out = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        out[key] = float(val)
    return out


def _lookup(table: dict, spec: str, kind: str):
    name, *rest = spec.split()
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}")
    return table[name], _parse_params(rest)


def parse_atlas_text(text: str) -> tuple[Atlas, int]:
    """Build an Atlas from the plain-text chart/transition description.

    A `dim = N` line before the first section states the dimension
    (2 or 3); `[chart]` sections give `id`, `r` and `generator`,
    `[transition]` sections give `pair = a b` and `map`, where the map
    sends b-coordinates to a-coordinates.  Returns the atlas and N.
    """
    header: dict = {}
    sections = []
    fields = header
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("[chart]", "[transition]"):
            fields = {}
            sections.append((line[1:-1], fields))
            continue
        key, _, val = line.partition("=")
        fields[key.strip()] = val.strip()
    if not any(kind == "chart" for kind, _ in sections):
        raise ValueError("atlas description contains no charts")
    if "dim" not in header:
        raise ValueError("missing 'dim = N' line")
    if header["dim"] not in ("2", "3"):
        raise ValueError(f"dim must be 2 or 3, got {header['dim']!r}")
    n = int(header["dim"])
    charts = []
    transitions = {}
    for kind, fields in sections:
        if kind == "chart":
            make, params = _lookup(_GENERATORS, fields["generator"], "generator")
            charts.append(Chart(id=fields["id"], r=float(fields["r"]), metric=make(params)))
        else:
            a, b = fields["pair"].split()
            make, params = _lookup(_MAPS, fields["map"], "transition map")
            transitions.update(_transition_pair(a, b, *make(n, params)))
    return Atlas(charts=tuple(charts), transitions=transitions), n


def parse_atlas_file(path) -> tuple[Atlas, int]:
    with open(path) as fh:
        return parse_atlas_text(fh.read())
