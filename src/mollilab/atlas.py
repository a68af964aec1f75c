"""Charts with analytic transitions, bump-based partitions of unity, and
assembly of the globally mollified metric from per-chart mollifications.

Transitions are closed-form only (the shipped ones are built in
`modelzoo`); off-node metric values under pullback come from local cubic
Lagrange interpolation of the sampled field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import ScaledKernel, convolve
from .lattice import Lattice, MetricField, first_node, unpack_symmetric

COVER_TOL = 1e-9
WEIGHT_EPS = 1e-14


@dataclass(frozen=True)
class Chart:
    """One chart of radius r with a closed-form metric generator."""

    id: str
    r: float
    metric: object  # callable X (..., n) -> (..., n, n)


@dataclass(frozen=True)
class Transition:
    """tau = psi_to^{-1} o psi_frm: maps frm-chart coordinates to to-chart ones."""

    frm: str
    to: str
    map: object       # callable (..., n) -> (..., n)
    jacobian: object  # callable (..., n) -> (..., n, n)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^3 monotone 0->1 polynomial ramp.

    A polynomial wall keeps the higher derivatives of the partition weights
    moderate, which an exponential wall does not; that matters because the
    assembled metric is interpolated when charts are compared.
    """
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


@dataclass(frozen=True)
class BumpProfile:
    """Radial bump: 1 on |x| <= plateau, 0 on |x| >= support, smooth between."""

    plateau: float
    support: float

    def __post_init__(self):
        if not 0.0 < self.plateau < self.support:
            raise ValueError("need 0 < plateau < support")

    def __call__(self, dist: np.ndarray) -> np.ndarray:
        u = (self.support - np.asarray(dist, dtype=float)) / (self.support - self.plateau)
        return _smoothstep(u)


@dataclass
class Atlas:
    """A finite chart family with analytic transitions and bump weights."""

    charts: tuple
    transitions: dict          # (frm_id, to_id) -> Transition
    bump: BumpProfile | None = None
    Q: float | None = None     # eigenvalue-condition bound of the generators

    @property
    def r(self) -> float:
        return self.charts[0].r

    def chart(self, cid: str) -> Chart:
        for c in self.charts:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def transition(self, frm: str, to: str) -> Transition | None:
        if frm == to:
            return None
        return self.transitions.get((frm, to))

    # -- bump weights -----------------------------------------------------

    def chart_distance(self, i: str, j: str, X: np.ndarray) -> np.ndarray:
        """Euclidean distance to chart i's centre, measured in chart i's
        coordinates, for points X given in chart j's coordinates.

        Points outside chart i's image get +inf.
        """
        if i == j:
            Y = X
        else:
            tr = self.transition(j, i)
            if tr is None:
                return np.full(X.shape[:-1], np.inf)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                Y = np.asarray(tr.map(X), dtype=float)
        d = np.sqrt((Y**2).sum(axis=-1))
        d = np.where(np.isfinite(d), d, np.inf)
        return np.where(d < self.r, d, np.inf)

    def bump_value(self, i: str, j: str, X: np.ndarray) -> np.ndarray:
        """b_i at points X of chart j (zero outside chart i's image)."""
        if self.bump is None:
            raise ValueError("call make_bump_weights first")
        d = self.chart_distance(i, j, X)
        out = np.zeros(X.shape[:-1])
        fin = np.isfinite(d)
        out[fin] = self.bump(d[fin])
        return out

    def weights(self, j: str, X: np.ndarray) -> tuple[dict, np.ndarray]:
        """rho_i(x) for all charts i at points X of chart j, plus the denominator."""
        bs = {c.id: self.bump_value(c.id, j, X) for c in self.charts}
        denom = sum(bs.values())
        safe = np.where(denom > 0.0, denom, 1.0)
        rho = {cid: np.where(denom > 0.0, b / safe, 0.0) for cid, b in bs.items()}
        return rho, denom


def make_bump_weights(atlas: Atlas, Q: float, plateau: float | None = None) -> Atlas:
    """Populate the partition of unity rho_i = b_i / sum_j b_j.

    The bump is 1 at least on B(0, r e^{-2Q}/2) and supported in
    B(0, 3r/4).  The plateau may be widened (never narrowed below the
    default) so the shipped model atlases satisfy the denominator >= 1
    condition on the covered region.
    """
    r = atlas.r
    base_plateau = 0.5 * r * np.exp(-2.0 * Q)
    plateau = base_plateau if plateau is None else max(plateau, base_plateau)
    if plateau >= 0.75 * r:
        raise ValueError("bump plateau must stay below the 3r/4 support")
    return Atlas(charts=atlas.charts, transitions=atlas.transitions,
                 bump=BumpProfile(plateau=plateau, support=0.75 * r), Q=Q)


# ---------------------------------------------------------------------------
# interpolation and pullback

def _valid_box(mask: np.ndarray):
    """Slices of the maximal all-valid axis-aligned box inside the mask."""
    if not mask.any():
        raise ValueError("empty mask")
    idx = np.argwhere(mask)
    lo = idx.min(axis=0)
    hi = idx.max(axis=0)
    for _ in range(mask.shape[0]):
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        if mask[sl].all():
            return sl, lo, hi
        lo = lo + 1
        hi = hi - 1
        if np.any(hi < lo):
            break
    raise ValueError("mask contains no valid box")


def _lagrange_cubic(axes, values, pts):
    """Local tensor-product cubic Lagrange interpolation on a uniform grid.

    Node-exact with per-cell support, so rough data far away cannot bleed
    into smooth regions the way a global spline fit can.
    """
    import itertools

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


def interpolate_metric(g: MetricField, points: np.ndarray):
    """Metric matrices at off-node points; NaN rows where out of range."""
    lat = g.lattice
    sl, lo, hi = _valid_box(g.mask)
    axes = [lat.axis_nodes()[s] for s in sl]
    n = lat.n
    nc = g.comps.shape[-1]
    flat_pts = points.reshape(-1, n)
    inside = np.ones(flat_pts.shape[0], dtype=bool)
    for k in range(n):
        inside &= (flat_pts[:, k] >= axes[k][0]) & (flat_pts[:, k] <= axes[k][-1])
    vals = np.full((flat_pts.shape[0], nc), np.nan)
    if inside.any():
        vals[inside] = _lagrange_cubic(axes, g.comps[sl], flat_pts[inside])
    mats = unpack_symmetric(vals, n)
    ok = np.isfinite(vals).all(axis=-1) & inside
    return (mats.reshape(points.shape[:-1] + (n, n)),
            ok.reshape(points.shape[:-1]))


def pullback_metric(tr: Transition, g: MetricField, target: Lattice) -> MetricField:
    """(D tau)^T g(tau(x)) (D tau) sampled on the target lattice."""
    X = target.coords()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Y = np.asarray(tr.map(X), dtype=float)
        J = np.asarray(tr.jacobian(X), dtype=float)
    finite = np.isfinite(Y).all(axis=-1) & np.isfinite(J).all(axis=(-2, -1))
    Y = np.where(finite[..., None], Y, 0.0)
    G, ok = interpolate_metric(g, Y)
    mask = ok & finite
    G = np.where(mask[..., None, None], G, np.eye(target.n))
    out = np.swapaxes(J, -1, -2) @ G @ J
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    out = np.where(mask[..., None, None], out, np.eye(target.n))
    return MetricField.from_matrices(target, out, mask)


# ---------------------------------------------------------------------------
# global assembly of the mollified metric

def assemble_mollified(atlas: Atlas, samples: dict, kernel: ScaledKernel) -> dict:
    """Per-chart representation of g^[t] = sum_i rho_i (tau_i pullback of P_t g_i).

    `samples` maps chart id to the raw sampled MetricField on that chart's
    lattice.  The output is defined where the partition denominator is at
    least 1 and every contributing term has valid data.
    """
    if atlas.bump is None:
        raise ValueError("atlas has no partition of unity; call make_bump_weights")
    t = kernel.t
    r = atlas.r
    if not 0.0 < t < r / 2.0:
        raise ValueError(f"scale t must lie in (0, r/2), got {t}")
    mollified = {cid: convolve(kernel, g) for cid, g in samples.items()}
    out = {}
    for cj in atlas.charts:
        lat = samples[cj.id].lattice
        X = lat.coords()
        rho, denom = atlas.weights(cj.id, X)
        mask = denom >= 1.0 - COVER_TOL
        total = np.zeros(lat.shape + (lat.n, lat.n))
        for ci in atlas.charts:
            w = rho[ci.id]
            active = w > WEIGHT_EPS
            if not active.any():
                continue
            if ci.id == cj.id:
                term = mollified[ci.id]
            else:
                term = pullback_metric(atlas.transition(cj.id, ci.id),
                                       mollified[ci.id], lat)
            mask &= (~active) | term.mask
            total += w[..., None, None] * np.where(
                term.mask[..., None, None], term.matrices(), 0.0)
        covered = lat.ball_mask(r / 2.0)
        if not (mask & covered).any():
            raise ValueError("scale too large: assembled metric covers nothing")
        total = np.where(mask[..., None, None], total, np.eye(lat.n))
        field = MetricField.from_matrices(lat, total, mask, symmetry_tol=1e-9)
        eigs = field.eigenvalues()
        bad = mask & (eigs[..., 0] <= 0.0)
        if bad.any():
            raise ValueError(f"assembled metric not positive-definite at node "
                             f"{first_node(bad)} of chart {cj.id!r}")
        out[cj.id] = field
    return out


# ---------------------------------------------------------------------------
# cover checking

@dataclass(frozen=True)
class CoverReport:
    covered: bool
    N: int


def check_cover(atlas: Atlas, lattice: Lattice, shrink: float | None = None,
                region_radius: float | None = None) -> CoverReport:
    """Check the per-chart declared region against the shrunken chart balls
    and compute the realized overlap count N.

    By default the declared region is the r/2 ball of each chart and the
    shrunken balls have radius r e^{-Q} / 2 (Q = 0 when unset).
    """
    r = atlas.r
    Q = atlas.Q or 0.0
    if shrink is None:
        shrink = 0.5 * r * np.exp(-Q)
    if region_radius is None:
        region_radius = r / 2.0
    covered = True
    overlap = 0
    for cj in atlas.charts:
        X = lattice.coords()
        region = lattice.ball_mask(region_radius)
        hit = np.zeros(lattice.shape, dtype=bool)
        count = np.zeros(lattice.shape, dtype=int)
        for ci in atlas.charts:
            d = atlas.chart_distance(ci.id, cj.id, X)
            hit |= d <= shrink + 1e-12
            count += (d < r).astype(int)
        covered &= bool(hit[region].all())
        overlap = max(overlap, int(count[region].max()))
    return CoverReport(covered=covered, N=overlap)
