"""Analytic example geometries with known curvature and transitions.

Conformal charts only: flat space, the round sphere via two inversion-
related stereographic charts, and the Poincare ball.  Each constant-
curvature model carries its closed-form sectional curvature as
`reference_sec`; the tests check that the sampled curvature converges to
it.  Rough perturbations produce metrics of limited smoothness for the
scaling experiments.  Plain-text atlas descriptions use the same conformal
factors and transition maps and give the same `ModelGeometry`, with Q = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import Atlas, BumpProfile, Chart, Transition
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
    return {(b, a): Transition(map=fwd, jacobian=fwd_jac),
            (a, b): Transition(map=bwd, jacobian=bwd_jac)}


@dataclass(frozen=True)
class ModelGeometry:
    n: int
    atlas: Atlas
    reference_sec: float | None   # exact constant for constant-curvature models
    curvature_radius: float       # lattice radius used for curvature oracles

    @property
    def r(self) -> float:
        return self.atlas.r

    def chart_lattice(self, m: int) -> Lattice:
        return make_lattice(self.n, self.r, m)

    def sample_all(self, m: int) -> dict:
        lat = self.chart_lattice(m)
        return {c.id: sample_metric(c.metric, lat) for c in self.atlas.charts}


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
    atl = Atlas(charts=tuple(charts), transitions=transitions, Q=0.0, plateau=0.625 * r)
    return ModelGeometry(n=n, atlas=atl, reference_sec=0.0, curvature_radius=r)


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
    atl = Atlas(charts=charts, transitions=transitions, Q=Q, plateau=0.55 * r)
    return ModelGeometry(n=n, atlas=atl, reference_sec=1.0 / R**2, curvature_radius=R)


def hyperbolic(n: int) -> ModelGeometry:
    """Hyperbolic space in the Poincare-ball conformal chart."""
    if n not in (2, 3):
        raise ValueError("only dimensions 2 and 3 ship")
    r = 0.5  # cube corners stay inside the unit ball for n <= 3
    charts = (Chart(id="ball", r=r, metric=_conformal(_poincare_factor)),)
    Q = _eig_bound_Q(_poincare_factor(np.zeros(n)), _poincare_factor(np.full(n, r)))
    atl = Atlas(charts=charts, transitions={}, Q=Q, plateau=0.625 * r)
    return ModelGeometry(n=n, atlas=atl, reference_sec=-1.0, curvature_radius=0.4)


def perturb(geometry: ModelGeometry, a: float, alpha: float) -> ModelGeometry:
    """Add a C^{1,alpha}-but-not-C^2 component bump a w(x)|x|^{1+alpha} u u^T,
    centred at the chart origin, with u the unit diagonal direction.

    Only single-chart geometries can be perturbed (the perturbation is
    expressed in one chart's coordinates).  The declared Q bounds the
    perturbed generator by Weyl's inequality: the base eigenvalues lie in
    [e^{-2Q_b}, e^{2Q_b}], u u^T has eigenvalues 0 and 1, and
    P >= sup_d w(d) d^{1+alpha}.
    """
    if len(geometry.atlas.charts) != 1:
        raise ValueError("perturb requires a single-chart geometry")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    base_chart = geometry.atlas.charts[0]
    n = geometry.n
    r = base_chart.r
    shape_bump = BumpProfile(plateau=0.35 * r, support=0.7 * r)
    u = np.ones(n) / math.sqrt(n)
    E = np.outer(u, u)
    base_gen = base_chart.metric

    def gen(X):
        d = np.sqrt((X**2).sum(axis=-1))
        amp = a * shape_bump(d) * d ** (1.0 + alpha)
        return base_gen(X) + amp[..., None, None] * E

    # w is non-increasing and d^{1+alpha} increasing, so on each cell of a
    # radial grid w(d_k) d_{k+1}^{1+alpha} bounds the profile from above
    d = np.linspace(0.0, shape_bump.support, 20001)
    P = float((shape_bump(d[:-1]) * d[1:] ** (1.0 + alpha)).max())
    Qb = geometry.atlas.Q
    # amplitude cap: the perturbation stays below half the base's eigenvalue bound
    if abs(a) * P > 0.5 * math.exp(-2.0 * Qb):
        raise ValueError("perturbation amplitude exceeds the positive-definiteness cap")
    Q = max(Qb, 0.5 * math.log(math.exp(2.0 * Qb) + max(a, 0.0) * P),
            -0.5 * math.log(math.exp(-2.0 * Qb) - max(-a, 0.0) * P))

    chart = Chart(id=base_chart.id, r=r, metric=gen)
    atl = Atlas(charts=(chart,), transitions={}, Q=Q, plateau=geometry.atlas.bump.plateau)
    ref = geometry.reference_sec if a == 0.0 else None
    return ModelGeometry(n=n, atlas=atl,
                         reference_sec=ref, curvature_radius=geometry.curvature_radius)


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


# each entry: (parameter names, builder from the parsed parameters)
_GENERATORS = {
    "flat": ((), lambda p: _conformal(_unit_factor)),
    "sphere_conformal": (("R",), lambda p: _conformal(_sphere_factor(p.get("R", 1.0)))),
    "poincare_ball": ((), lambda p: _conformal(_poincare_factor)),
}

# each builder returns (map, Jacobian, inverse map, its Jacobian)
_MAPS = {
    "inversion": (("R",), lambda n, p: 2 * _inversion(p.get("R", 1.0))),
    "affine": (("theta", "shift"),
               lambda n, p: _rigid_motion(n, p.get("theta", 0.0), p.get("shift", 0.0))),
}

# the keys each part of a description defines: the header, then each section
_KEYS = {"": ("dim",), "chart": ("id", "r", "generator"), "transition": ("pair", "map")}


def _lookup(table: dict, spec: str, kind: str):
    """The builder `spec` names and its `name=value` parameters."""
    name, *tokens = spec.split()
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}")
    names, make = table[name]
    params = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        try:
            params[key] = float(val)
        except ValueError:
            key = None  # not name=value
        if key not in names:
            raise ValueError(f"{kind} {name!r} takes name=value parameters "
                             f"{list(names)}, got {tok!r}")
    return make, params


def parse_atlas_text(text: str) -> ModelGeometry:
    """Build a geometry from the plain-text chart/transition description.

    A `dim = N` line before the first section states the dimension
    (2 or 3); `[chart]` sections give `id`, `r` and `generator`,
    `[transition]` sections give `pair = a b` and `map`, where the map
    sends b-coordinates to a-coordinates.  Each section gives each of its
    keys exactly once.  Chart ids are unique, all charts share one finite
    r > 0, and pairs name declared charts; any other line or parameter is
    an error.  The atlas has Q = 0, so its plateau is r/2.
    """
    header: dict = {}
    sections = []  # (kind, line of the section header, fields)
    kind, fields, seen = "", header, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("[chart]", "[transition]"):
            kind, fields, seen = line[1:-1], {}, {}
            sections.append((kind, lineno, fields))
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or key not in _KEYS[kind]:
            raise ValueError(f"line {lineno}: expected [chart], [transition] or "
                             f"key = value with a key in {list(_KEYS[kind])}, got {line!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        fields[key] = val.strip()
    for kind, lineno, fields in sections:
        for key in _KEYS[kind]:
            if key not in fields:
                raise ValueError(f"line {lineno}: [{kind}] section lacks key {key!r}")
    if not any(kind == "chart" for kind, _, _ in sections):
        raise ValueError("atlas description contains no charts")
    if "dim" not in header:
        raise ValueError("missing 'dim = N' line")
    if header["dim"] not in ("2", "3"):
        raise ValueError(f"dim must be 2 or 3, got {header['dim']!r}")
    n = int(header["dim"])
    charts = {}
    for fields in (f for kind, _, f in sections if kind == "chart"):
        cid, r = fields["id"], float(fields["r"])
        r0 = next(iter(charts.values())).r if charts else r
        if cid in charts:
            raise ValueError(f"duplicate chart id {cid!r}")
        if not 0.0 < r < math.inf:
            raise ValueError(f"chart {cid!r}: radius r must be positive and finite, got {r}")
        if r != r0:
            raise ValueError(f"chart {cid!r}: radius r={r} differs from the first chart's r={r0}")
        make, params = _lookup(_GENERATORS, fields["generator"], "generator")
        charts[cid] = Chart(id=cid, r=r, metric=make(params))
    transitions = {}
    for fields in (f for kind, _, f in sections if kind == "transition"):
        a, b = fields["pair"].split()
        for cid in (a, b):
            if cid not in charts:
                raise ValueError(f"transition pair {a} {b} names undeclared chart {cid!r}")
        make, params = _lookup(_MAPS, fields["map"], "transition map")
        transitions.update(_transition_pair(a, b, *make(n, params)))
    atl = Atlas(charts=tuple(charts.values()), transitions=transitions, Q=0.0)
    return ModelGeometry(n=n, atlas=atl, reference_sec=None, curvature_radius=atl.r)


def parse_atlas_file(path) -> ModelGeometry:
    with open(path) as fh:
        return parse_atlas_text(fh.read())
