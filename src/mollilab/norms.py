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

import numpy as np

from .lattice import (JetField, MetricField, ScalarField, central_diff, check_eigenvalues,
                      differentiate, erode_mask, fold, grow_box, inverse_planes, packed_det,
                      packed_eigenvalues)


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


def check_N0(g: MetricField) -> float:
    """Minimal Q with e^{-2Q} <= eigenvalues of g <= e^{2Q} at every valid
    node: 0.5 max |log lam| over the computed eigenvalues of the valid nodes.

    The eigenvalues of the whole grid (`packed_eigenvalues`: the closed-form
    roots in 2-d, cyclic Jacobi in 3-d, LAPACK for n >= 4) first get the
    metric verdict (`check_eigenvalues`), which refuses naming the first bad
    node, and then give the bound on the mask.
    """
    eigs = packed_eigenvalues(g.comps, g.lattice.n, "check_N0")
    check_eigenvalues(eigs, "check_N0")
    return 0.5 * float(np.abs(np.log(eigs[g.mask])).max())


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
