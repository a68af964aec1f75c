"""Hoelder and Sobolev norms on sampled fields and chart-norm conditions.

Distances in the Hoelder seminorm use the max-norm on R^n.  The seminorm
is exact over all pairs of valid nodes, with no sampled fallback: a
running-max (grey dilation) filter gives it in O(m^{n+1}) operations, bit
for bit equal to a scan of all O(m^{2n}) node offsets (see
`holder_seminorm`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (Lattice, MetricField, ScalarField, central_diff, differentiate,
                      erode_mask)


def _grow_box(a: np.ndarray, buf: np.ndarray, n: int) -> None:
    """In place: a[x] <- max of a over the 3^n box around x (clipped at the edges).

    Separable, one lattice axis at a time: buf[i] = max(a[i], a[i+1]), then
    a[i] = max(buf[i-1], buf[i]), with buf[0] and buf[-1] at the two ends.
    """
    for ax in range(n):
        lead = (slice(None),) * ax
        head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
        pair = buf[head]
        np.maximum(a[head], a[tail], out=pair)
        np.maximum(pair[head], pair[tail], out=a[lead + (slice(1, -1),)])
        a[lead + (0,)] = pair[lead + (0,)]
        a[lead + (-1,)] = pair[lead + (-1,)]


def holder_seminorm(f, alpha: float, values: np.ndarray | None = None,
                    mask: np.ndarray | None = None,
                    lattice: Lattice | None = None) -> float:
    """sup |f(x)-f(y)| / |x-y|^alpha over all pairs of valid nodes, max-norm distances.

    Accepts a ScalarField or raw (values, mask, lattice) with arbitrary
    trailing component axes; component blocks are reduced by max.

    The value is exact.  With f set to -inf off the mask, `lo` after d box
    steps holds the max of f over the (2d+1)^n box, so max_x(lo - f) over
    valid x is the largest difference between valid nodes at distance <= d;
    dilation alone covers both orders of each pair.  This equals the
    exhaustive pair scan bit for bit: fl(a - b) is monotone in a, so
    max_y fl(f(y) - f(x)) = fl(max_y f(y) - f(x)), and a pair at distance
    d' < d divided by (h d)^alpha never beats its own (h d')^alpha term.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if isinstance(f, ScalarField):
        values, mask, lattice = f.values, f.mask, f.lattice
    elif f is not None:
        raise TypeError("pass a ScalarField or values/mask/lattice")
    n, m, h = lattice.n, lattice.m, lattice.h
    vals = values.reshape(lattice.shape + (-1,))
    valid = mask[..., None]
    lo = np.where(valid, vals, -np.inf)
    hi = np.where(valid, vals, np.inf)
    buf = np.empty_like(lo)

    best = 0.0
    for d in range(1, m):
        _grow_box(lo, buf, n)
        best = max(best, float((lo - hi).max()) / (h * d) ** alpha)
    return best


def _block_sup(block: np.ndarray, mask: np.ndarray) -> float:
    flat = block.reshape(mask.shape + (-1,))
    return float(np.abs(flat[mask]).max())


def holder_norm(f: ScalarField, m: int, alpha: float) -> float:
    """||f||_{C^m} + sum_k ||grad^k f||_alpha with the C^m part summed over orders."""
    jet = differentiate(f, m)
    total = 0.0
    for k in range(m + 1):
        total += _block_sup(jet.blocks[k], jet.mask)
        if alpha > 0.0:
            total += holder_seminorm(None, alpha, values=jet.blocks[k],
                                     mask=jet.mask, lattice=f.lattice)
    return total


@dataclass(frozen=True)
class SobolevReport:
    m: int
    p: float
    lp_norms: tuple  # one per derivative order 0..m
    scaled: float    # max_k r^{k - n/p} ||grad^k f||_{L^p}


def sobolev_norm(f: ScalarField, m: int, p: float) -> SobolevReport:
    """Quadrature L^p norms of the derivative blocks and the chart-scaled max.

    The pointwise norm of a derivative block is the max over components,
    matching the max-norm convention; quadrature weights are h^n with
    plain mask truncation.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    lat = f.lattice
    jet = differentiate(f, m)
    cell = lat.h ** lat.n
    norms = []
    for k in range(m + 1):
        flat = np.abs(jet.blocks[k].reshape(lat.shape + (-1,))).max(axis=-1)
        norms.append(float((np.sum(flat[jet.mask] ** p) * cell) ** (1.0 / p)))
    scaled = max(lat.r ** (k - lat.n / p) * norms[k] for k in range(m + 1))
    return SobolevReport(m=m, p=p, lp_norms=tuple(norms), scaled=scaled)


def check_N0(g: MetricField) -> float:
    """Minimal Q with e^{-2Q} <= eigenvalues of g <= e^{2Q} at every valid node."""
    eigs = g.eigenvalues()[g.mask]
    if eigs.min() <= 0.0:
        raise ValueError("metric not positive-definite on a valid node")
    logs = np.log(eigs)
    return 0.5 * float(np.abs(logs).max())


def det_bounds_ok(g: MetricField, Q: float, rtol: float = 1e-12) -> bool:
    """det(g) in [e^{-2Qn}, e^{2Qn}] node-wise (checked in log space)."""
    n = g.lattice.n
    logdet = np.log(g.eigenvalues()[g.mask]).sum(axis=-1)
    return bool(np.all(logdet <= 2 * Q * n + rtol) and np.all(logdet >= -2 * Q * n - rtol))


@dataclass(frozen=True)
class HarmonicDefect:
    per_coordinate: np.ndarray  # (n,) + grid, |Delta_g x_k| per node
    mask: np.ndarray
    sup: float


def harmonic_defect(g: MetricField) -> HarmonicDefect:
    """|Delta_g x_k| for each coordinate, Delta_g f = |g|^{-1/2} d_i(|g|^{1/2} g^{ij} d_j f)."""
    lat = g.lattice
    n = lat.n
    w = np.sqrt(np.linalg.det(g.matrices()))
    flux = w[..., None, None] * g.inverse()  # F^{ik} = sqrt|g| g^{ik}
    mask = erode_mask(g.mask, 1)
    per = np.empty((n,) + lat.shape)
    for k in range(n):
        div = np.zeros(lat.shape)
        for i in range(n):
            div += central_diff(flux[..., i, k], i, lat.h)
        per[k] = np.abs(div / w)
    sup = float(per[:, mask].max()) if mask.any() else 0.0
    return HarmonicDefect(per_coordinate=per, mask=mask, sup=sup)


@dataclass(frozen=True)
class NormReport:
    """Chart-norm summary for one sampled metric."""

    kind: str            # "holder(m,alpha)" or "sobolev(m,p)"
    r: float
    seminorms: tuple     # per-order seminorm (holder) or L^p norm (sobolev)
    Q: float             # minimal Q for the respective condition
    N0_Q: float
    harmonic_sup: float

    def to_text(self) -> str:
        lines = [f"kind={self.kind}", f"r={self.r:.12g}", f"Q={self.Q:.12g}",
                 f"N0_Q={self.N0_Q:.12g}", f"harmonic_defect_sup={self.harmonic_sup:.12g}"]
        for k, s in enumerate(self.seminorms):
            lines.append(f"order{k}={s:.12g}")
        return "\n".join(lines) + "\n"


def _metric_jet_component_fields(g: MetricField):
    """The packed metric components as scalar fields sharing g's lattice."""
    for c in range(g.comps.shape[-1]):
        yield ScalarField(lattice=g.lattice, values=np.where(g.mask, g.comps[..., c], 0.0),
                          mask=g.mask)


def _chart_report(g: MetricField, kind: str, seminorms: tuple, Q: float) -> NormReport:
    """A norm condition's report, completed by the N0 bound and harmonicity."""
    n0 = check_N0(g)
    return NormReport(kind=kind, r=g.lattice.r, seminorms=seminorms, Q=max(Q, n0),
                      N0_Q=n0, harmonic_sup=harmonic_defect(g).sup)


def holder_chart_report(g: MetricField, m: int, alpha: float) -> NormReport:
    """Minimal Q for condition r^{k+alpha} ||grad^k g||_alpha <= Q, plus N0 and harmonicity."""
    lat = g.lattice
    semis = []
    for k in range(m + 1):
        best = 0.0
        for comp in _metric_jet_component_fields(g):
            jet = differentiate(comp, k)
            best = max(best, holder_seminorm(None, alpha, values=jet.blocks[k],
                                             mask=jet.mask, lattice=lat))
        semis.append(best)
    Q = max(lat.r ** (k + alpha) * semis[k] for k in range(m + 1))
    return _chart_report(g, f"holder({m},{alpha:g})", tuple(semis), Q)


def sobolev_condition(g: MetricField, m: int, p: float) -> tuple[tuple, float]:
    """Per-order L^p norms of the metric jet (max over components) and the
    minimal Q for r^{k-n/p} ||grad^k g||_{L^p} <= Q, without the N0 bound."""
    lat = g.lattice
    per_order = [0.0] * (m + 1)
    for comp in _metric_jet_component_fields(g):
        rep = sobolev_norm(comp, m, p)
        for k in range(m + 1):
            per_order[k] = max(per_order[k], rep.lp_norms[k])
    Q = max(lat.r ** (k - lat.n / p) * per_order[k] for k in range(m + 1))
    return tuple(per_order), Q


def sobolev_chart_report(g: MetricField, m: int, p: float) -> NormReport:
    """Minimal Q for condition r^{k-n/p} ||grad^k g||_{L^p} <= Q, plus N0 and harmonicity."""
    per_order, Q = sobolev_condition(g, m, p)
    return _chart_report(g, f"sobolev({m},{p:g})", per_order, Q)
