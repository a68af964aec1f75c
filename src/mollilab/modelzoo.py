"""Analytic example geometries with known curvature and transitions.

Flat space, the round sphere via two inversion-related stereographic
charts, the Poincare ball, and flat space with a rough bump.  Each
constant-curvature model carries its closed-form sectional curvature as
`reference_sec`; the tests check that the sampled curvature converges to
it.  The rough bump (`pflat`) gives metrics of limited smoothness for the
scaling experiments.  The shipped models and plain-text atlas files are
descriptions of one kind, charts naming a generator and transitions naming
a map, and `build_geometry` makes every `ModelGeometry` from one.  A
generator maps node coordinates X (..., n) to the packed components
(..., n(n+1)/2) of its chart metric, in `lattice.pack_map` order, which
`sample_metric` stores as they are.  Each generator declares the
eigenvalue bound Q of its chart metric, and a geometry's Q is the largest
of its charts'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import Atlas, BumpProfile, Chart, Transition
from .lattice import Lattice, fold, make_lattice, pack_symmetric, sample_metric


def _conformal(n: int, r: float, lam) -> tuple:
    """The generator of the chart metric lam(x) I of a conformal factor on
    the cube [-r, r]^n, and its Q: half the larger |log lam| at the origin
    and at a cube corner, exact, as every factor is radial and monotone in
    |x| on the cube."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            ends = lam(np.zeros(n)), lam(np.full(n, r))
    except ArithmeticError as exc:
        raise ValueError(f"conformal factor cannot be evaluated at the origin "
                         f"and the corner: {exc}") from None
    if not all(0.0 < v < math.inf for v in ends):
        raise ValueError(f"conformal factor must be finite and positive at the origin "
                         f"and the corner, got {ends[0]:.6g} and {ends[1]:.6g}")

    eye = pack_symmetric(np.eye(n))

    def gen(X):
        return lam(X)[..., None] * eye
    return gen, 0.5 * max(abs(math.log(v)) for v in ends)


def _unit_factor(X):
    return np.ones(X.shape[:-1])


def _sphere_factor(R: float):
    """Conformal factor 4R^4 / (R^2 + |x|^2)^2 of a stereographic sphere chart."""
    return lambda X: 4.0 * R**4 / (R**2 + fold(np.add, X**2)) ** 2


def _poincare_factor(n: int, r: float):
    """Conformal factor 4 / (1 - |x|^2)^2 of the Poincare ball, on a chart
    cube [-r, r]^n that must lie inside the open unit ball."""
    if r * math.sqrt(n) >= 1.0:
        raise ValueError(f"needs the chart cube inside the unit ball, r*sqrt(n) < 1, "
                         f"got r={r} in dimension {n}")
    return lambda X: 4.0 / (1.0 - fold(np.add, X**2)) ** 2


def _radius_R(params: dict) -> float:
    """The sphere radius parameter R of a generator or map, 1 by default."""
    R = params.get("R", 1.0)
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    return R


def _pflat(n: int, r: float, params: dict) -> tuple:
    """Flat space plus a C^{1,alpha}-but-not-C^2 bump a w(x)|x|^{1+alpha} u u^T,
    centred at the chart origin, with u the unit diagonal direction.

    Q bounds the chart metric by Weyl's inequality: u u^T has eigenvalues
    0 and 1, and P >= sup_d w(d) d^{1+alpha}.
    """
    a, alpha = params.get("amp", 0.1), params.get("alpha", 0.6)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not math.isfinite(a):
        raise ValueError(f"perturbation amplitude amp must be finite, got {a}")
    shape_bump = BumpProfile(plateau=0.35 * r, support=0.7 * r)
    u = np.ones(n) / math.sqrt(n)
    eye, E = pack_symmetric(np.eye(n)), pack_symmetric(np.outer(u, u))

    def gen(X):
        d = np.sqrt(fold(np.add, X**2))
        amp = a * shape_bump(d) * d ** (1.0 + alpha)
        return eye + amp[..., None] * E

    # w is non-increasing and d^{1+alpha} increasing, so on each cell of a
    # radial grid w(d_k) d_{k+1}^{1+alpha} bounds the profile from above
    d = np.linspace(0.0, shape_bump.support, 20001)
    P = float((shape_bump(d[:-1]) * d[1:] ** (1.0 + alpha)).max())
    # amplitude cap: the perturbation stays below half the flat eigenvalue 1
    if abs(a) * P > 0.5:
        raise ValueError("perturbation amplitude exceeds the positive-definiteness cap")
    return gen, max(0.0, 0.5 * math.log(1.0 + max(a, 0.0) * P),
                    -0.5 * math.log(1.0 - max(-a, 0.0) * P))


def _inversion(R: float) -> tuple:
    """Inversion x -> R^2 x / |x|^2 in the sphere of radius R, and its Jacobian."""
    def mp(X):
        s = fold(np.add, X**2)
        return R**2 * X / s[..., None]

    def jac(X):
        s = fold(np.add, X**2)
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


@dataclass(frozen=True)
class ModelGeometry:
    n: int
    atlas: Atlas
    Q: float                      # e^{-2Q} <= eigenvalues of every chart metric <= e^{2Q}
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


# each entry: (parameter names, (chart metric generator, its Q) from (n, r, parameters))
_GENERATORS = {
    "flat": ((), lambda n, r, p: _conformal(n, r, _unit_factor)),
    "sphere_conformal": (("R",), lambda n, r, p: _conformal(n, r, _sphere_factor(_radius_R(p)))),
    "poincare_ball": ((), lambda n, r, p: _conformal(n, r, _poincare_factor(n, r))),
    "pflat": (("amp", "alpha"), _pflat),
}

# each entry: (parameter names, (map, Jacobian, inverse map, its Jacobian) from (n, parameters))
_MAPS = {
    "inversion": (("R",), lambda n, p: 2 * _inversion(_radius_R(p))),
    "affine": (("theta", "shift"),
               lambda n, p: _rigid_motion(n, p.get("theta", 0.0), p.get("shift", 0.0))),
}


def build_geometry(n: int, r: float, charts, transitions=(), *, plateau: float,
                   reference_sec: float | None, curvature_radius: float) -> ModelGeometry:
    """The geometry of charts (id, `_GENERATORS` name, parameters) of radius r
    and transitions (a, b, `_MAPS` name, parameters), each map sending
    b-coordinates to a-coordinates.  Q is the largest Q its charts'
    generators declare.
    """
    if n not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {n}")
    built, pairs, Q = [], {}, 0.0
    try:  # a bad parameter value names its chart or transition
        for cid, gen, params in charts:
            where = f"chart {cid!r}: {gen}"
            metric, chart_Q = _GENERATORS[gen][1](n, r, params)
            Q = max(Q, chart_Q)
            built.append(Chart(id=cid, r=r, metric=metric))
        for a, b, mp, params in transitions:
            where = f"transition {a} {b}: {mp}"
            fwd, fwd_jac, bwd, bwd_jac = _MAPS[mp][1](n, params)
            pairs[b, a] = Transition(map=fwd, jacobian=fwd_jac)
            pairs[a, b] = Transition(map=bwd, jacobian=bwd_jac)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    atl = Atlas(charts=tuple(built), transitions=pairs, plateau=plateau)
    return ModelGeometry(n=n, atlas=atl, Q=Q, reference_sec=reference_sec,
                         curvature_radius=curvature_radius)


# ---------------------------------------------------------------------------
# registry and atlas description files

def get_geometry(name: str, R: float = 1.0, amp: float = 0.1,
                 alpha: float = 0.6) -> ModelGeometry:
    """A shipped model in dimension 2 or 3 from its description: flat space in
    two charts glued by a rigid motion or in one, the sphere of radius R and
    the Poincare ball, and pflat, one flat chart with a bump of amplitude amp
    and cusp exponent alpha."""
    flat = dict(r=1.0, plateau=0.625, reference_sec=0.0, curvature_radius=1.0)
    cap = ("sphere_conformal", {"R": R})
    rs = 2.0 * R  # two r/2-balls just cover the sphere
    models = {
        "flat{}": dict(flat, charts=[("a", "flat", {}), ("b", "flat", {})], transitions=[
            ("a", "b", "affine", {"theta": math.pi / 6.0, "shift": 0.25})]),
        "flat{}-single": dict(flat, charts=[("a", "flat", {})]),
        # 1/R^2 only for R > 0, taken as 1/R/R: R**2 underflows to 0 at R = 1e-200,
        # where the builder, not a ZeroDivisionError, refuses the radius
        "sphere{}": dict(r=rs, charts=[("north", *cap), ("south", *cap)],
                         transitions=[("north", "south", "inversion", {"R": R})],
                         plateau=0.55 * rs, reference_sec=1.0 / R / R if R > 0.0 else None,
                         curvature_radius=R),
        "hyperbolic{}": dict(r=0.5, charts=[("ball", "poincare_ball", {})], plateau=0.3125,
                             reference_sec=-1.0, curvature_radius=0.4),
        "pflat{}": dict(flat, charts=[("a", "pflat", {"amp": amp, "alpha": alpha})],
                        reference_sec=0.0 if amp == 0.0 else None),
    }
    table = {key.format(n): (key, n) for key in models for n in (2, 3)}
    if name not in table:
        raise ValueError(f"unknown geometry {name!r}; known: {sorted(table)}")
    key, n = table[name]
    return build_geometry(n, **models[key])


# the keys each part of a description defines: the header, then each section
_KEYS = {"": ("dim",), "chart": ("id", "r", "generator"), "transition": ("pair", "map")}


def _lookup(table: dict, spec: str, kind: str):
    """The name of the `table` entry `spec` names and its `name=value` parameters."""
    name, *tokens = spec.split()
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}")
    names = table[name][0]
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
    return name, params


def parse_atlas_text(text: str) -> ModelGeometry:
    """Build a geometry from the plain-text chart/transition description.

    A `dim = N` line before the first section states the dimension
    (2 or 3); `[chart]` sections give `id`, `r` and `generator`,
    `[transition]` sections give `pair = a b` and `map`, where the map
    sends b-coordinates to a-coordinates.  Each section gives each of its
    keys exactly once.  Chart ids are unique, all charts share one finite
    r > 0, and each pair names two distinct declared charts; any other
    line or parameter is an error.  `build_geometry` then checks the
    dimension, and each generator its parameter values; the bump plateau
    is r/2.
    """
    header: dict = {}
    sections = []  # (kind, line of the section header, fields, line of each key)
    kind, fields, seen = "", header, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("[chart]", "[transition]"):
            kind, fields, seen = line[1:-1], {}, {}
            sections.append((kind, lineno, fields, seen))
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
    for kind, lineno, fields, _ in sections:
        for key in _KEYS[kind]:
            if key not in fields:
                raise ValueError(f"line {lineno}: [{kind}] section lacks key {key!r}")
    if not any(kind == "chart" for kind, *_ in sections):
        raise ValueError("atlas description contains no charts")
    if "dim" not in header:
        raise ValueError("missing 'dim = N' line")
    if not header["dim"].isdigit():
        raise ValueError(f"dim must be a whole number, got {header['dim']!r}")
    charts, r0 = {}, None  # chart id -> (generator, parameters); the first chart's r
    for kind, _, fields, lines in sections:
        if kind != "chart":
            continue
        cid = fields["id"]
        try:
            r = float(fields["r"])
        except ValueError:
            raise ValueError(f"line {lines['r']}: [chart] r must be a number, "
                             f"got {fields['r']!r}") from None
        r0 = r if r0 is None else r0
        if cid in charts:
            raise ValueError(f"duplicate chart id {cid!r}")
        if not 0.0 < r < math.inf:
            raise ValueError(f"chart {cid!r}: radius r must be positive and finite, got {r}")
        if r != r0:
            raise ValueError(f"chart {cid!r}: radius r={r} differs from the first chart's r={r0}")
        charts[cid] = _lookup(_GENERATORS, fields["generator"], "generator")
    transitions = []
    for kind, _, fields, lines in sections:
        if kind != "transition":
            continue
        pair = fields["pair"].split()
        if len(pair) != 2:
            raise ValueError(f"line {lines['pair']}: [transition] pair must name two "
                             f"chart ids, got {fields['pair']!r}")
        a, b = pair
        if a == b:
            raise ValueError(f"line {lines['pair']}: transition pair {a} {b} "
                             f"joins a chart to itself")
        for cid in (a, b):
            if cid not in charts:
                raise ValueError(f"transition pair {a} {b} names undeclared chart {cid!r}")
        transitions.append((a, b, *_lookup(_MAPS, fields["map"], "transition map")))
    return build_geometry(int(header["dim"]), r0, [(cid, *spec) for cid, spec in charts.items()],
                          transitions, plateau=0.5 * r0, reference_sec=None, curvature_radius=r0)


def parse_atlas_file(path) -> ModelGeometry:
    with open(path) as fh:
        return parse_atlas_text(fh.read())
