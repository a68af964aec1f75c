"""Curvature of sampled metrics: the Riemann tensor and its split into the
Hessian part and the remainder, sectional, scalar and contracted curvature.

The Riemann tensor is stored all-lower-index, as the symmetric operator on
bivectors.  Over the N = n(n-1)/2 index pairs I = (a, b), a < b, and
J = (c, d), c < d, taken in `np.triu_indices(n, 1)` order,

    R[..., I, J] = R_abcd = A_IJ + B_IJ,
    A_IJ = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac),
    B_IJ = 1/4 g^pq (S_p,bc S_q,ad - S_p,bd S_q,ac),

with S_m,kl = g_mk,l + g_ml,k - g_kl,m (twice the Christoffel symbol of the
first kind).  Every derivative is a central difference of g itself; g^-1 is
never differentiated.  The sign convention makes the sectional curvature of
the plane spanned by v and w

    K(v, w) = R(v, w, v, w) / |v ^ w|^2 = om^T R om / om^T G om,  om = v ^ w,

where G = Lambda^2 g, G_IJ = g_ac g_bd - g_ad g_bc; a space form of
curvature K has R = K G.  In dimensions 2 and 3 every bivector is some
v ^ w, so the extreme sectional curvatures at a node are the extreme
eigenvalues of the pencil (R, G).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, MetricField, differentiate, first_node, pack_map

COND_LIMIT = 1e12
DEGENERATE_GRAM = 1e-12


def invert_metric(g: MetricField) -> np.ndarray:
    """g^-1 as matrices, grid + (n, n) (the identity off the mask), after
    checking every valid node for positive definiteness and a condition
    number of at most COND_LIMIT (nodes off the mask have eigenvalues 1)."""
    eigs = g.eigenvalues()
    not_pd = eigs[..., 0] <= 0.0
    if not_pd.any():
        raise ValueError(f"metric not positive-definite at node {first_node(not_pd)}")
    cond = eigs[..., -1] / eigs[..., 0]
    ill = cond > COND_LIMIT
    if ill.any():
        node = first_node(ill)
        raise ValueError(f"metric condition number {cond[node]:.3g} exceeds 1e12 "
                         f"at node {node}")
    return g.inverse()


def _crop_to_mask(g: MetricField, pad: int = 2):
    """Restrict a field to the centred cube bounding its mask, plus a
    stencil pad.  Heavily eroded masks (large smoothing scales) then cost
    proportionally less; returns (field, None) when nothing can be cut."""
    mask = g.mask
    if not mask.any():
        raise ValueError("field mask is empty")
    m = mask.shape[0]
    trim = m
    for ax in range(mask.ndim):
        hit = np.where(mask.any(axis=tuple(a for a in range(mask.ndim) if a != ax)))[0]
        trim = min(trim, hit[0], m - 1 - hit[-1])
    trim = max(trim - pad, 0)
    trim = min(trim, (m - 5) // 2)
    if trim <= 0:
        return g, None
    sl = tuple(slice(trim, m - trim) for _ in range(mask.ndim))
    lat = g.lattice
    m2 = m - 2 * trim
    lat2 = Lattice(n=lat.n, r=lat.r * (m2 - 1) / (m - 1), m=m2)
    g2 = MetricField(lattice=lat2, comps=g.comps[sl], mask=mask[sl])
    return g2, sl


def _paste_full(g: MetricField, riem: np.ndarray, mask: np.ndarray, sl) -> RiemannField:
    """A curvature operator computed on the crop `sl` of g's grid, embedded back in it."""
    if sl is not None:
        full = np.zeros(g.mask.shape + riem.shape[-2:])
        full[sl] = riem
        fmask = np.zeros_like(g.mask)
        fmask[sl] = mask
        riem, mask = full, fmask
    return RiemannField(lattice=g.lattice, riem=riem, mask=mask)


def _s_tensor(dg: np.ndarray) -> np.ndarray:
    """S_{m k l} = g_{mk,l} + g_{ml,k} - g_{kl,m} from dg[...,i,j,a] = d_a g_ij."""
    return (dg                         # g_{mk,l}
            + np.swapaxes(dg, -2, -1)  # g_{ml,k}
            - np.moveaxis(dg, -1, -3))  # g_{kl,m}


def _contract_first(mat: np.ndarray, tens: np.ndarray) -> np.ndarray:
    """mat^{i m} tens_{m ...}: batched matmul over the first tensor index."""
    head = mat.shape[:-2]
    rest = tens.shape[len(head) + 1:]
    flat = tens.reshape(head + (tens.shape[len(head)], -1))
    return np.matmul(mat, flat).reshape(head + (mat.shape[-2],) + rest)


@dataclass(frozen=True)
class RiemannField:
    """The Riemann tensor as the symmetric operator on bivectors.

    `riem` has shape grid + (N, N), N = n(n-1)/2, with riem[..., I, J] =
    R_abcd for the index pairs I = (a, b), a < b, and J = (c, d), c < d,
    in `np.triu_indices(n, 1)` order: one component per node in 2-d, six
    independent of nine stored in 3-d.  The sign makes the sectional
    curvature K(v, w) = R(v, w, v, w) / |v ^ w|^2.  Symmetry in (I, J) is
    exact.
    """

    lattice: Lattice
    riem: np.ndarray
    mask: np.ndarray


def _pair_axes(n: int):
    """Index arrays (a, b, c, d) over (I, J), shapes (N, 1) and (1, N)."""
    a, b = np.triu_indices(n, 1)
    return a[:, None], b[:, None], a[None, :], b[None, :]


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector components (u ^ v)_I = u_a v_b - u_b v_a, trailing axis I."""
    a, b = np.triu_indices(u.shape[-1], 1)
    return u[..., a] * v[..., b] - u[..., b] * v[..., a]


def _lambda2(mats: np.ndarray) -> np.ndarray:
    """Lambda^2 of matrices, (Lambda^2 g)_IJ = g_ac g_bd - g_ad g_bc."""
    a, b, c, d = _pair_axes(mats.shape[-1])
    return mats[..., a, c] * mats[..., b, d] - mats[..., a, d] * mats[..., b, c]


def _symmetrized(x: np.ndarray) -> np.ndarray:
    """(x + x^T) / 2 over the trailing (I, J) axes, symmetric bit for bit."""
    return 0.5 * (x + np.swapaxes(x, -2, -1))


def _riemann_parts(g: MetricField):
    """(A, B, mask, sl): the Hessian part and the remainder of the curvature
    operator on the crop `sl` of g to its mask, and their valid mask."""
    gc, sl = _crop_to_mask(g)
    ginv = invert_metric(gc)
    jet = differentiate(gc, 2)
    _, dg, d2g = jet.blocks  # d2g[..., P[i, j], x, y] = d_y d_x g_ij
    P = pack_map(gc.lattice.n)
    a, b, c, d = _pair_axes(gc.lattice.n)
    A = 0.5 * (d2g[..., P[a, d], b, c] + d2g[..., P[b, c], a, d]
               - d2g[..., P[a, c], b, d] - d2g[..., P[b, d], a, c])
    # 1/4 g^pq S_p,bc S_q,ad = 1/2 Gamma^q_bc S_q,ad, Gamma^q_bc = g^qp S_p,bc / 2
    S = _s_tensor(dg[..., P, :])
    gamma = 0.5 * _contract_first(ginv, S)
    B = 0.5 * sum(gamma[..., q, b, c] * S[..., q, a, d]
                  - gamma[..., q, b, d] * S[..., q, a, c] for q in range(gc.lattice.n))
    # nested central differences in the other order differ in round-off
    return _symmetrized(A), _symmetrized(B), jet.mask, sl


def riemann(g: MetricField) -> RiemannField:
    """The curvature operator R_IJ = R_abcd = A_IJ + B_IJ of g."""
    A, B, mask, sl = _riemann_parts(g)
    A += B
    return _paste_full(g, A, mask, sl)


def ab_decomposition(g: MetricField) -> tuple[RiemannField, RiemannField]:
    """Split the curvature operator into the part A linear in Hess g and the
    remainder B, quadratic in grad g with coefficients g^-1; A + B = R."""
    A, B, mask, sl = _riemann_parts(g)
    return _paste_full(g, A, mask, sl), _paste_full(g, B, mask, sl)


def scalar_curvature(g: MetricField, R: RiemannField) -> np.ndarray:
    """s = g^ac g^bd R_abcd = 2 sum_IJ (Lambda^2 g^-1)_IJ R_IJ."""
    return 2.0 * np.einsum("...IJ,...IJ->...", _lambda2(g.inverse()), R.riem)


@dataclass(frozen=True)
class VectorSection:
    """Three constant vector fields and one constant covector probe."""

    v: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    xi: np.ndarray


def _fold(coef: np.ndarray) -> np.ndarray:
    """Sum a coefficient array over the pairs (i, j), (j, i) of its last two
    axes, which multiply the same entry of a symmetric matrix; the result's
    last axis runs over i <= j in `np.triu_indices` order."""
    i, j = np.triu_indices(coef.shape[-1])
    folded = coef[..., i, j] + coef[..., j, i]
    folded[..., i == j] *= 0.5
    return folded


def _combine(coef: np.ndarray, terms) -> np.ndarray:
    """sum_k coef[k] * terms[k], skipping the zero coefficients."""
    out = np.zeros(terms[0].shape)
    for ck, term in zip(coef.tolist(), terms):
        if ck != 0.0:
            out += ck * term
    return out


def _stack_sections(sections, n: int):
    """(v, w1, w2, xi), each stacked over the sections, shape (S, n)."""
    return [np.array([getattr(s, name) for s in sections], dtype=float).reshape(-1, n)
            for name in ("v", "w1", "w2", "xi")]


def riem_contract_field(R: RiemannField, g: MetricField, sections) -> list[np.ndarray]:
    """R^r_{smn} xi_r v^s w1^m w2^n = (g^-1 xi ^ v)^T R (w1 ^ w2) as a scalar
    field, one per section.

    The contraction is bilinear in (g^-1, R) with constant coefficients,
    sum g^ir R_IJ xi_r (e_i ^ v)_I (w1 ^ w2)_J, so each field is a
    combination of the distinct products g^ir R_IJ (i <= r, I <= J),
    formed once for all sections.
    """
    n = g.lattice.n
    v, w1, w2, xi = _stack_sections(sections, n)
    ei_v = _wedge(np.eye(n), v[:, None, :])  # (S, i, I)
    coef = np.einsum("sr,siI,sJ->sIJir", xi, ei_v, _wedge(w1, w2))
    coef = _fold(np.moveaxis(_fold(coef), -1, 1))  # (S, ir, IJ)
    ginv = g.inverse()
    big_i, big_j = np.triu_indices(R.riem.shape[-1])
    products = [ginv[..., i, r] * R.riem[..., I, J]
                for i, r in zip(*np.triu_indices(n)) for I, J in zip(big_i, big_j)]
    return [_combine(c.ravel(), products) for c in coef]


def section_norm_fields(g: MetricField, sections) -> list[np.ndarray]:
    """Per-node product |v|_g |w1|_g |w2|_g |xi|_{g^-1} for each section.

    Nodes off the mask see the identity metric.  Each squared norm is
    sum_{i<=j} c_ij(u) g_ij over the packed components, with the inverse
    formed once for all sections.
    """
    comps = list(np.moveaxis(g.comps, -1, 0))
    ginv = g.inverse()
    inv_comps = [ginv[..., i, j] for i, j in zip(*np.triu_indices(g.lattice.n))]
    coefs = [_fold(u[:, :, None] * u[:, None, :])  # c_ij(u), shape (S, ij)
             for u in _stack_sections(sections, g.lattice.n)]
    return [np.sqrt(_combine(cv, comps)) * np.sqrt(_combine(c1, comps))
            * np.sqrt(_combine(c2, comps)) * np.sqrt(_combine(cx, inv_comps))
            for cv, c1, c2, cx in zip(*coefs)]


def sectional_field(g: MetricField, R: RiemannField,
                    v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sectional curvature of the constant plane (v, w) at every node.

    Nodes where |v ^ w|_g^2 < DEGENERATE_GRAM get NaN.
    """
    om = _wedge(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
    gram = np.einsum("...IJ,I,J->...", _lambda2(g.matrices()), om, om)
    num = np.einsum("...IJ,I,J->...", R.riem, om, om)
    with np.errstate(divide="ignore", invalid="ignore"):
        sec = num / gram
    sec[gram < DEGENERATE_GRAM] = np.nan
    return sec


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular 3 x 3 matrices by forward substitution."""
    inv = np.zeros_like(L)
    for k in range(3):
        np.reciprocal(L[..., k, k], out=inv[..., k, k])
    inv[..., 1, 0] = -L[..., 1, 0] * inv[..., 0, 0] * inv[..., 1, 1]
    inv[..., 2, 1] = -L[..., 2, 1] * inv[..., 1, 1] * inv[..., 2, 2]
    inv[..., 2, 0] = -(L[..., 2, 0] * inv[..., 0, 0]
                       + L[..., 2, 1] * inv[..., 1, 0]) * inv[..., 2, 2]
    return inv


def sec_extreme_fields(g: MetricField, R: RiemannField):
    """Per-node (min, max) of the sectional curvature over all 2-planes.

    The extremes are the extreme eigenvalues of G^-1 R, found as those of
    L^-1 R L^-T with G = L L^T; exact in dimensions 2 and 3, where every
    bivector spans a plane.
    """
    n = g.lattice.n
    if n > 3:
        raise ValueError(f"exact sectional extremes need dimension 2 or 3, got {n}")
    G = _lambda2(g.matrices())
    if n == 2:
        k = R.riem[..., 0, 0] / G[..., 0, 0]
        return k, k.copy()
    Linv = _lower_inverse(np.linalg.cholesky(G))
    ev = np.linalg.eigvalsh(Linv @ R.riem @ np.swapaxes(Linv, -2, -1))
    return ev[..., 0], ev[..., -1]


def sec_extremes(g: MetricField, R: RiemannField,
                 region: np.ndarray) -> tuple[float, float]:
    """(minSec, maxSec) over all 2-planes at the valid nodes of region."""
    region = region & R.mask
    if not region.any():
        raise ValueError("empty region")
    lo, hi = sec_extreme_fields(g, R)
    return float(lo[region].min()), float(hi[region].max())
