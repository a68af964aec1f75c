"""Hoelder and Sobolev norms on sampled fields and chart-norm conditions.

Distances in the Hoelder seminorm use the max-norm on R^n.  The pair scan
is exhaustive (via offset enumeration) up to `pair_budget` node pairs and
falls back to a deterministic stratified offset family above, which
under-estimates the seminorm.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (Lattice, MetricField, ScalarField, central_diff, differentiate,
                      erode_mask)

DEFAULT_PAIR_BUDGET = 10**7


def _offset_slices(shape, d):
    """Slice pair (shifted, base) so arr[s1] - arr[s0] realizes offset d."""
    s0, s1 = [], []
    for size, dk in zip(shape, d):
        if dk >= 0:
            s0.append(slice(0, size - dk))
            s1.append(slice(dk, size))
        else:
            s0.append(slice(-dk, size))
            s1.append(slice(0, size + dk))
    return tuple(s0), tuple(s1)


def _lex_positive(d) -> bool:
    for dk in d:
        if dk > 0:
            return True
        if dk < 0:
            return False
    return False


def _all_offsets(m: int, n: int):
    rng = range(-(m - 1), m)
    for d in itertools.product(rng, repeat=n):
        if _lex_positive(d):
            yield d


def _stratified_offsets(m: int, n: int):
    """Deterministic sample: a local shell plus geometric axis/diagonal ladders."""
    seen = set()
    for d in itertools.product(range(-2, 3), repeat=n):
        if _lex_positive(d):
            seen.add(d)
    step = 4
    while step <= m - 1:
        for ax in range(n):
            d = [0] * n
            d[ax] = step
            seen.add(tuple(d))
        for signs in itertools.product((1, -1), repeat=n):
            d = tuple(step * s for s in signs)
            if _lex_positive(d):
                seen.add(d)
        step *= 2
    return sorted(seen)


def holder_seminorm(f, alpha: float, pair_budget: int | None = DEFAULT_PAIR_BUDGET,
                    values: np.ndarray | None = None,
                    mask: np.ndarray | None = None,
                    lattice: Lattice | None = None) -> float:
    """sup |f(x)-f(y)| / |x-y|^alpha over node pairs, max-norm distances.

    Accepts a ScalarField or raw (values, mask, lattice) with arbitrary
    trailing component axes; component blocks are reduced by max.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if isinstance(f, ScalarField):
        values, mask, lattice = f.values, f.mask, f.lattice
    elif f is not None:
        raise TypeError("pass a ScalarField or values/mask/lattice")
    n, m, h = lattice.n, lattice.m, lattice.h
    vals = values.reshape(lattice.shape + (-1,))
    vals = np.where(mask[..., None], vals, 0.0)

    n_valid = int(mask.sum())
    n_pairs = n_valid * (n_valid - 1) // 2
    if pair_budget is None or n_pairs <= pair_budget:
        offsets = _all_offsets(m, n)
    else:
        offsets = _stratified_offsets(m, n)

    best = 0.0
    for d in offsets:
        s0, s1 = _offset_slices(lattice.shape, d)
        both = mask[s0] & mask[s1]
        if not both.any():
            continue
        diff = np.abs(vals[s1] - vals[s0])[both].max()
        dist = h * max(abs(dk) for dk in d)
        best = max(best, float(diff) / dist**alpha)
    return best


def _block_sup(block: np.ndarray, mask: np.ndarray) -> float:
    flat = block.reshape(mask.shape + (-1,))
    return float(np.abs(flat[mask]).max())


def holder_norm(f: ScalarField, m: int, alpha: float,
                pair_budget: int | None = DEFAULT_PAIR_BUDGET) -> float:
    """||f||_{C^m} + sum_k ||grad^k f||_alpha with the C^m part summed over orders."""
    jet = differentiate(f, m)
    total = 0.0
    for k in range(m + 1):
        total += _block_sup(jet.blocks[k], jet.mask)
        if alpha > 0.0:
            total += holder_seminorm(None, alpha, pair_budget,
                                     values=jet.blocks[k], mask=jet.mask,
                                     lattice=f.lattice)
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


def holder_chart_report(g: MetricField, m: int, alpha: float,
                        pair_budget: int | None = DEFAULT_PAIR_BUDGET) -> NormReport:
    """Minimal Q for condition r^{k+alpha} ||grad^k g||_alpha <= Q, plus N0 and harmonicity."""
    lat = g.lattice
    semis = []
    for k in range(m + 1):
        best = 0.0
        for comp in _metric_jet_component_fields(g):
            jet = differentiate(comp, k)
            best = max(best, holder_seminorm(None, alpha, pair_budget,
                                             values=jet.blocks[k], mask=jet.mask,
                                             lattice=lat))
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
