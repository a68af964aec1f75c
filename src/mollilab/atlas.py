"""Charts with analytic transitions, bump-based partitions of unity, and
assembly of the globally mollified metric from per-chart mollifications.

An `Atlas` makes its partition of unity when it is constructed.
Transitions are closed-form only (the shipped ones are built in
`modelzoo`); off-node metric values under pullback come from local cubic
Lagrange interpolation of the sampled field.  Interpolation and pullback
work on packed components: each packed entry of J^T g J is computed once
from whole component planes, so the pulled-back metric is symmetric by
construction and no full matrix is formed.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .kernels import ScaledKernel, convolve
from .lattice import Lattice, MetricField, check_definite, fold, pack_map

COVER_TOL = 1e-9
WEIGHT_EPS = 1e-14


@dataclass(frozen=True)
class Chart:
    """One chart of radius r with a closed-form metric generator."""

    id: str
    r: float
    metric: object  # callable X (..., n) -> packed components (..., n(n+1)/2)


@dataclass(frozen=True)
class Transition:
    """tau = psi_to^{-1} o psi_frm, the atlas entry keyed (frm, to), and its Jacobian."""

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


@dataclass(frozen=True)
class Atlas:
    """A finite chart family with analytic transitions and its partition of
    unity rho_i = b_i / sum_j b_j.  The bump is 1 on B(0, plateau) and
    supported in B(0, 3r/4); the shipped models choose the plateau so that
    the denominator is at least 1 on each chart's r/2 ball, atlas files take r/2.
    """

    charts: tuple
    transitions: dict          # (frm_id, to_id) -> Transition
    plateau: InitVar[float]
    bump: BumpProfile = field(init=False)

    def __post_init__(self, plateau):
        r = self.r
        if plateau >= 0.75 * r:
            raise ValueError("bump plateau must stay below the 3r/4 support")
        object.__setattr__(self, "bump", BumpProfile(plateau=plateau, support=0.75 * r))

    @property
    def r(self) -> float:
        return self.charts[0].r

    def transition(self, frm: str, to: str) -> Transition | None:
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
        d = np.sqrt(fold(np.add, Y**2))
        d = np.where(np.isfinite(d), d, np.inf)
        return np.where(d < self.r, d, np.inf)

    def weights(self, j: str, X: np.ndarray) -> tuple[dict, np.ndarray]:
        """rho_i(x) for all charts i at points X of chart j, plus the denominator."""
        return self.partition({c.id: self.chart_distance(c.id, j, X) for c in self.charts})

    def partition(self, dists: dict) -> tuple[dict, np.ndarray]:
        """`weights` from the distances chart_distance(i, j, X) of every chart i,
        keyed by chart id."""
        bs = {}
        for cid, d in dists.items():
            b = bs[cid] = np.zeros(d.shape)
            fin = np.isfinite(d)
            b[fin] = self.bump(d[fin])
        denom = sum(bs.values())
        safe = np.where(denom > 0.0, denom, 1.0)
        rho = {cid: np.where(denom > 0.0, b / safe, 0.0) for cid, b in bs.items()}
        return rho, denom


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
            return sl
        lo = lo + 1
        hi = hi - 1
        if np.any(hi < lo):
            break
    raise ValueError("mask contains no valid box")


def _lagrange_cubic(axes, values, pts):
    """Local tensor-product cubic Lagrange interpolation on a uniform grid
    of components, values grid + (K,); returns one plane per component,
    (K, len(pts)).

    Node-exact with per-cell support, so rough data far away cannot bleed
    into smooth regions the way a global spline fit can.
    """
    n = len(axes)
    npts = pts.shape[0]
    base = []
    weights = []
    for k in range(n):
        ax = axes[k]
        cell = np.searchsorted(ax, pts[:, k], side="right") - 1
        cell = np.clip(cell, 1, ax.size - 3)
        w = np.empty((4, npts))
        for a in range(4):
            num = np.ones(npts)
            xa = ax[cell - 1 + a]
            for b in range(4):
                if b != a:
                    xb = ax[cell - 1 + b]
                    num *= (pts[:, k] - xb) / (xa - xb)
            w[a] = num
        base.append(cell - 1)
        weights.append(w)
    # one contiguous plane per component; each stencil node is one gather
    # per plane by C-order flat index into the grid
    planes = np.ascontiguousarray(np.moveaxis(values, -1, 0)).reshape(values.shape[-1], -1)
    strides = [int(np.prod(values.shape[k + 1:n])) for k in range(n)]
    flat = sum(base[k] * strides[k] for k in range(n))
    out = np.zeros((planes.shape[0], npts))
    node, w = np.empty(npts), np.empty(npts)
    # the product of the leading axes' weights, taken in axis order, is
    # shared by the 4 last-axis nodes after it; nodes in itertools.product order
    for lead in itertools.product(range(4), repeat=n - 1):
        lead_w = weights[0][lead[0]]
        for k in range(1, n - 1):
            lead_w = lead_w * weights[k][lead[k]]
        at = flat + sum(o * st for o, st in zip(lead, strides))
        for o in range(4):
            np.multiply(lead_w, weights[n - 1][o], out=w)
            idx = at + o * strides[n - 1]
            for plane, acc in zip(planes, out):
                np.take(plane, idx, out=node)
                node *= w
                acc += node
    return out


def interpolate_metric(g: MetricField, points: np.ndarray):
    """Packed metric components at off-node points, points.shape[:-1] +
    (n(n+1)/2,), and the mask of points in range; NaN rows where out of range."""
    lat = g.lattice
    sl = _valid_box(g.mask)
    axes = [lat.axis_nodes()[s] for s in sl]
    n = lat.n
    nc = g.comps.shape[-1]
    flat_pts = points.reshape(-1, n)
    # the cubic stencil needs 4 nodes per axis; a narrower box is out of range
    inside = np.full(flat_pts.shape[0], min(ax.size for ax in axes) >= 4)
    for k in range(n):
        inside &= (flat_pts[:, k] >= axes[k][0]) & (flat_pts[:, k] <= axes[k][-1])
    # one contiguous plane per component, which the pullback reads plane by
    # plane, returned as a node-major view
    vals = np.full((nc, flat_pts.shape[0]), np.nan)
    if inside.any():
        vals[:, inside] = _lagrange_cubic(axes, g.comps[sl], flat_pts[inside])
    vals = np.moveaxis(vals, 0, -1)
    ok = fold(np.logical_and, np.isfinite(vals)) & inside
    return vals.reshape(points.shape[:-1] + (nc,)), ok.reshape(points.shape[:-1])


def pullback_metric(tr: Transition, g: MetricField, target: Lattice) -> MetricField:
    """(D tau)^T g(tau(x)) (D tau) sampled on the target lattice.

    Each packed entry (a <= b) is computed once from whole planes, first
    (gJ)_cb = sum_d g_cd J_db and then sum_c J_ca (gJ)_cb, so the result is
    symmetric by construction.
    """
    n = target.n
    X = target.coords()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Y = np.asarray(tr.map(X), dtype=float)
        J = np.asarray(tr.jacobian(X), dtype=float)
    finite = (fold(np.logical_and, np.isfinite(Y))
              & fold(np.logical_and, np.isfinite(J).reshape(J.shape[:-2] + (-1,))))
    Y = np.where(finite[..., None], Y, 0.0)
    # the Jacobian as contiguous planes J[d, b], zero where it is not finite
    # so that the plane products below raise no floating-point warning
    J = np.where(finite, np.moveaxis(J, (-2, -1), (0, 1)), 0.0)
    G, ok = interpolate_metric(g, Y)
    P = pack_map(n)
    gJ = {}
    for c, b in itertools.product(range(n), repeat=2):
        gJ[c, b] = G[..., P[c, 0]] * J[0, b]
        for d in range(1, n):
            gJ[c, b] += G[..., P[c, d]] * J[d, b]
    comps = np.empty(G.shape)
    for a, b in zip(*np.triu_indices(n)):
        acc = J[0, a] * gJ[0, b]
        for c in range(1, n):
            acc += J[c, a] * gJ[c, b]
        comps[..., P[a, b]] = acc
    return MetricField(lattice=target, comps=comps, mask=ok & finite)


# ---------------------------------------------------------------------------
# global assembly of the mollified metric

def assemble_mollified(atlas: Atlas, samples: dict, kernel: ScaledKernel,
                       charts: tuple | None = None) -> dict:
    """Per-chart representation of g^[t] = sum_i rho_i (tau_i pullback of P_t g_i).

    `samples` maps chart id to the raw sampled MetricField on that chart's
    lattice.  The output is defined where the partition denominator is at
    least 1 and every contributing term has valid data.

    `charts` names the charts to glue, every chart by default, and each is
    glued on its samples' lattice, which may be a centred window of the
    chart (`Lattice.trim`).  The glued values there have the whole chart's
    bits on the output mask, which is the whole chart's save within the
    kernel's radius of the window's edge: there the chart's own mollified
    term is invalid, so a node is glued only where that term has no
    weight.  A chart is mollified once, when a glued chart first reads it.
    A chart read only through the pullback must be sampled whole, since the
    pullback reads it at mapped points anywhere in the chart.
    """
    t = kernel.t
    r = atlas.r
    if not 0.0 < t < r / 2.0:
        raise ValueError(f"scale t must lie in (0, r/2), got {t}")
    mollified = {}
    out = {}
    for cj in atlas.charts:
        if charts is not None and cj.id not in charts:
            continue
        lat = samples[cj.id].lattice
        X = lat.coords()
        rho, denom = atlas.weights(cj.id, X)
        mask = denom >= 1.0 - COVER_TOL
        total = np.zeros(samples[cj.id].comps.shape)
        for ci in atlas.charts:
            w = rho[ci.id]
            active = w > WEIGHT_EPS
            if not active.any():
                continue
            if ci.id not in mollified:
                mollified[ci.id] = convolve(kernel, samples[ci.id])
            if ci.id == cj.id:
                term = mollified[ci.id]
            else:
                term = pullback_metric(atlas.transition(cj.id, ci.id),
                                       mollified[ci.id], lat)
            mask &= (~active) | term.mask
            total += w[..., None] * np.where(term.mask[..., None], term.comps, 0.0)
        covered = lat.ball_mask(r / 2.0)
        if not (mask & covered).any():
            raise ValueError("scale too large: assembled metric covers nothing")
        gt = MetricField(lattice=lat, comps=total, mask=mask)
        check_definite(gt, f"assemble_mollified: chart {cj.id!r}")
        out[cj.id] = gt
    return out


# ---------------------------------------------------------------------------
# cover checking

@dataclass(frozen=True)
class CoverReport:
    covered: bool
    N: int
    partition_sum_dev: float


def check_cover(atlas: Atlas, lattice: Lattice) -> CoverReport:
    """Cover report over the declared region, the r/2 ball of each chart.

    A chart is covered when its partition denominator is at least
    1 - COVER_TOL on every node of the region, the condition under which
    `assemble_mollified` glues there.  N is the largest number of charts
    that contain a region node, and the partition-sum deviation is the
    largest |sum_i rho_i - 1| over the glued nodes of the region.
    """
    r = atlas.r
    X = lattice.coords()
    region = lattice.ball_mask(r / 2.0)
    covered = True
    overlap = 0
    sum_dev = 0.0
    for cj in atlas.charts:
        dists = {ci.id: atlas.chart_distance(ci.id, cj.id, X) for ci in atlas.charts}
        count = sum(np.isfinite(d).astype(int) for d in dists.values())
        overlap = max(overlap, int(count[region].max()))
        rho, denom = atlas.partition(dists)
        glued = region & (denom >= 1.0 - COVER_TOL)
        covered &= np.array_equal(glued, region)
        if glued.any():
            sum_dev = max(sum_dev, float(np.abs(sum(rho.values()) - 1.0)[glued].max()))
    return CoverReport(covered=covered, N=overlap, partition_sum_dev=sum_dev)
