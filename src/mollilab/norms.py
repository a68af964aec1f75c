"""Hoelder and Sobolev norms on sampled fields and chart-norm conditions.

Distances in the Hoelder seminorm use the max-norm on R^n.  The seminorm
is exact over all pairs of valid nodes, with no sampled fallback: a
running-max (grey dilation) filter gives it in O(m^{n+1}) operations, bit
for bit equal to a scan of all O(m^{2n}) node offsets (see
`holder_seminorm`).  A chart-norm report differentiates each packed metric
component once, and its Hoelder and Sobolev norms read that one jet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import (JetField, MetricField, ScalarField, central_diff, check_definite,
                      differentiate, erode_mask, fold, grow_box, inverse_planes, pack_map,
                      packed_det, packed_eigenvalues)


def holder_seminorm(values: np.ndarray, mask: np.ndarray, h: float,
                    alpha: float) -> float | np.ndarray:
    """sup |f(x)-f(y)| / |x-y|^alpha over all pairs of valid nodes, max-norm
    distances, one value per field of a stack.

    `values` has the lattice shape of `mask` (spacing h), then any field
    axes, then one component axis, whose entries are reduced by max: a
    jet block (grid + (C,)) is one field, a metric jet block
    (grid + (n(n+1)/2, C)) one field per packed component, and a stack of
    k scalar fields is passed as grid + (k, 1).  The result has the shape
    of the field axes, a float when there are none.

    Each value is exact.  With f set to -inf off the mask, `lo` after d box
    steps holds the max of f over the (2d+1)^n box, so max_x(lo - f) over
    valid x is the largest difference between valid nodes at distance <= d;
    dilation alone covers both orders of each pair.  This equals the
    exhaustive pair scan bit for bit: fl(a - b) is monotone in a, so
    max_y fl(f(y) - f(x)) = fl(max_y f(y) - f(x)), and a pair at distance
    d' < d divided by (h d)^alpha never beats its own (h d')^alpha term.
    By the same monotonicity no pair at distance >= d beats
    spread / (h d)^alpha, with spread = max - min over the field's valid
    values, so the scan stops once no field's bound exceeds that field's
    best value so far.  A field whose bound did not exceed its best at
    some step cannot move at a later one, so growing the whole stack until
    the last field stops gives each field the value of its own scan.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    fields = values.shape[mask.ndim:-1]
    k = math.prod(fields)
    vals = values.reshape(mask.shape + (-1,))  # fields and components on one axis
    valid = mask[..., None]
    lo = np.where(valid, vals, -np.inf)
    hi = np.where(valid, vals, np.inf)
    buf = np.empty_like(lo)
    # each field's max - min over its valid values, -inf on an empty mask
    spread = (_per_field(np.maximum, lo, k) - _per_field(np.minimum, hi, k)).tolist()

    # a few fields: their bookkeeping costs less in Python floats than in numpy calls
    best = [0.0] * len(spread)
    for d in range(1, max(mask.shape)):
        scale = (h * d) ** alpha
        if not any(s / scale > b for s, b in zip(spread, best)):
            break
        grow_box(lo, buf, mask.ndim)
        # buf is free between box steps: the difference reuses it
        top = _per_field(np.maximum, np.subtract(lo, hi, out=buf), k).tolist()
        best = [max(b, x / scale) for b, x in zip(best, top)]
    return np.array(best).reshape(fields) if fields else best[0]


def _per_field(ufunc, a: np.ndarray, k: int) -> np.ndarray:
    """`ufunc.reduce` (maximum or minimum) of a, shape grid + (k C,) with
    the k fields' C components side by side, over every axis but the
    field axis: k values.  numpy reduces onto a kept axis that is the
    innermost one a node at a time, so a stack first folds its leading grid
    axis, over rows of whole planes; one field reduces in one call.  max
    and min are exact, so the order gives the same bits."""
    a = a.reshape(a.shape[:-1] + (k, -1))
    if k > 1:
        a = ufunc.reduce(a, axis=0)
    return ufunc.reduce(a, axis=tuple(range(a.ndim - 2)) + (-1,))


def sobolev_norm(jet: JetField, h: float, p: float) -> tuple:
    """Quadrature L^p norms of each block of a jet on its mask (lattice spacing h).

    The pointwise norm of a derivative block is the max over components,
    matching the max-norm convention; quadrature weights are h^n with
    plain mask truncation.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    mask = jet.mask
    cell = h ** mask.ndim
    norms = []
    for block in jet.blocks:
        flat = fold(np.maximum, np.abs(block.reshape(mask.shape + (-1,))))
        norms.append(float((np.sum(flat[mask] ** p) * cell) ** (1.0 / p)))
    return tuple(norms)


# Slack of `check_N0`'s Gershgorin brackets, in units of n eps (rho + tiny),
# and the relative margin by which a candidate's bracket may miss an extreme.
_SOLVER_SLACK = 16
_N0_MARGIN = 1e-10


def _gershgorin(comps: np.ndarray, n: int) -> tuple:
    """Per-node Gershgorin bounds of packed symmetric n x n components, plane
    by plane: (max_i g_ii, max_i (g_ii + r_i), min_i (g_ii - r_i),
    min_i g_ii), with r_i = sum_{j != i} |g_ij|."""
    p = np.moveaxis(comps, -1, 0)
    pos = pack_map(n)
    mag = {k: np.abs(p[k]) for k in pos[np.triu_indices(n, 1)]}
    shape = comps.shape[:-1]
    dmax, top = np.full(shape, -np.inf), np.full(shape, -np.inf)
    bottom, dmin = np.full(shape, np.inf), np.full(shape, np.inf)
    for i in range(n):
        d = p[pos[i, i]]
        r = reduce(np.add, [mag[pos[i, j]] for j in range(n) if j != i])
        np.maximum(dmax, d, out=dmax)
        np.maximum(top, d + r, out=top)
        np.minimum(bottom, d - r, out=bottom)
        np.minimum(dmin, d, out=dmin)
    return dmax, top, bottom, dmin


def _extreme_candidates(g: MetricField) -> np.ndarray:
    """Valid nodes whose computed smallest or largest eigenvalue can reach
    the extremes over the mask, a boolean grid (see `check_N0`)."""
    n = g.lattice.n
    fp = np.finfo(float)
    with np.errstate(over="ignore"):
        dmax, top, bottom, dmin = _gershgorin(g.comps, n)
        slack = top + fp.tiny
        slack *= _SOLVER_SLACK * n * fp.eps
        dmax -= slack
        top += slack
        bottom -= slack
        dmin += slack
        big = np.max(dmax, where=g.mask, initial=-np.inf)
        small = np.min(dmin, where=g.mask, initial=np.inf)
        reach = (top >= big * (1.0 - _N0_MARGIN)) | (bottom <= small * (1.0 + _N0_MARGIN))
    return g.mask & reach


def check_N0(g: MetricField) -> float:
    """Minimal Q with e^{-2Q} <= eigenvalues of g <= e^{2Q} at every valid
    node: 0.5 max |log lam| over the computed eigenvalues of the valid nodes.

    The metric check (`check_definite`) refuses first.  In 2-d the
    closed-form roots of every valid node cost less than choosing among
    them.  For n >= 3 LAPACK runs only on the valid nodes that
    `_extreme_candidates` keeps, and the value is bit for bit the one all
    valid nodes give: `packed_eigenvalues` computes each node's eigenvalues
    from its own components alone, and the largest |log lam| over positive
    numbers sits at the smallest or the largest of them, so only the nodes
    holding the smallest computed lam_min or the largest computed lam_max
    can give it.  The candidates hold both:

    - Gershgorin: every eigenvalue lies in a disc [g_ii - r_i, g_ii + r_i],
      and the Rayleigh quotients of the unit vectors are the g_ii, so
      lam_max lies in [max g_ii, rho], rho = max (g_ii + r_i), and lam_min
      in [min (g_ii - r_i), min g_ii].
    - LAPACK's symmetric eigensolver is backward stable: its eigenvalues
      are exact for g + E with |E|_2 <= p(n) eps |g|_2, p a modest
      polynomial (Golub and Van Loan, Matrix Computations, ch. 8), so by
      Weyl's inequality each moves by at most p(n) eps rho.  Computing a
      bound rounds it by at most n eps rho, or by a subnormal spacing,
      eps tiny, below the normal range.  The slack
      delta = 16 n eps (rho + tiny) covers both while p(n) <= 15 n (LAPACK
      errs by under 2 eps |g|_2 on 3 x 3 metrics built to sit on their
      Gershgorin bounds), so the computed lam_max lies in
      [max g_ii - delta, rho + delta] and the computed lam_min in
      [min (g_ii - r_i) - delta, min g_ii + delta].
    - So the largest computed lam_max over the mask is at least
      big = max (max g_ii - delta), and only a node with rho + delta >= big
      can hold it; the smallest computed lam_min is at most
      small = min (min g_ii + delta), and only a node with
      min (g_ii - r_i) - delta <= small can hold it.

    Both tests also pass a node that misses by a relative 1e-10
    (`_N0_MARGIN`), so a node within a few ulps of an extreme, where log
    need not be monotone, stays a candidate, and so does a node whose
    solver errs by up to that much beyond delta.  On a sphere3 m=33 chart
    9 of 35,937 nodes are candidates; on pflat3, the identity plus a
    rank-one term, every node holds lam_min = 1 and is one.
    """
    check_definite(g, "check_N0")
    n = g.lattice.n
    pick = g.mask if n == 2 else _extreme_candidates(g)
    eigs = packed_eigenvalues(g.comps[pick], n)
    return 0.5 * float(np.abs(np.log(eigs)).max())


def harmonic_defect(g: MetricField) -> float:
    """sup over valid nodes and coordinates k of |Delta_g x_k|, with
    Delta_g f = |g|^{-1/2} d_i(|g|^{1/2} g^{ij} d_j f); 0 on an empty mask."""
    lat = g.lattice
    det = packed_det(g.comps, lat.n)
    w = np.sqrt(det)
    flux = inverse_planes(g.comps, lat.n, det=det)  # F^{ik} = sqrt|g| g^{ik}, one plane per (i, k)
    flux *= w
    mask = erode_mask(g.mask, 1)
    sup = 0.0
    for k in range(lat.n):
        div = np.zeros(lat.shape)
        for i in range(lat.n):
            div += central_diff(flux[i, k], i, lat.h)
        sup = max(sup, float(np.abs(div[mask] / w[mask]).max(initial=0.0)))
    return sup


@dataclass(frozen=True)
class NormReport:
    """Chart-norm summary for one sampled metric."""

    kind: str              # "holder(m,alpha)"
    r: float
    seminorms: tuple       # per-order Hoelder seminorm
    Q: float               # minimal Q for the Hoelder condition and the N0 bound
    N0_Q: float
    harmonic_sup: float
    sobolev_norms: tuple   # per-order L^p norm
    sobolev_Q: float       # minimal Q for the Sobolev condition and the N0 bound

    def to_text(self) -> str:
        lines = [f"kind={self.kind}", f"r={self.r:.12g}", f"Q={self.Q:.12g}",
                 f"N0_Q={self.N0_Q:.12g}", f"harmonic_defect_sup={self.harmonic_sup:.12g}"]
        lines += [f"order{k}={s:.12g}" for k, s in enumerate(self.seminorms)]
        lines.append(f"sobolev_Q={self.sobolev_Q:.12g}")
        lines += [f"sobolev_order{k}={s:.12g}" for k, s in enumerate(self.sobolev_norms)]
        return "\n".join(lines) + "\n"


def chart_norm_report(g: MetricField, m: int, alpha: float, p: float) -> NormReport:
    """Minimal Q for r^{k+alpha} ||grad^k g||_alpha <= Q (Hoelder) and for
    r^{k-n/p} ||grad^k g||_{L^p} <= Q (Sobolev), k = 0..m, each lifted to the N0
    bound, plus the harmonic defect.  Each packed component is differentiated
    once, to order m; Hoelder order k reads block k on the mask eroded by k."""
    lat = g.lattice
    masks = [erode_mask(g.mask, k) for k in range(m + 1)]
    semis = [0.0] * (m + 1)
    lp = [0.0] * (m + 1)
    for c in range(g.comps.shape[-1]):
        jet = differentiate(ScalarField(lattice=lat, values=g.comps[..., c], mask=g.mask), m)
        for k in range(m + 1):
            semis[k] = max(semis[k], holder_seminorm(jet.blocks[k], masks[k], lat.h, alpha))
        lp = [max(a, b) for a, b in zip(lp, sobolev_norm(jet, lat.h, p))]
    n0 = check_N0(g)
    Q = max(lat.r ** (k + alpha) * semis[k] for k in range(m + 1))
    sobolev_Q = max(lat.r ** (k - lat.n / p) * lp[k] for k in range(m + 1))
    return NormReport(kind=f"holder({m},{alpha:g})", r=lat.r, seminorms=tuple(semis),
                      Q=max(Q, n0), N0_Q=n0, harmonic_sup=harmonic_defect(g),
                      sobolev_norms=tuple(lp), sobolev_Q=max(sobolev_Q, n0))
