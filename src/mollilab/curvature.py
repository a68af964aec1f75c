"""Curvature tensors of sampled metrics: Christoffel symbols, Riemann,
the second-derivative/lower-order decomposition, sectional and Ricci data.

The derivative of the Christoffel symbols is evaluated in Leibniz-expanded
form (central differences of g, g^{-1} and nested central differences of g),
so the decomposition into the bilinear second-derivative part and the
polynomial remainder reproduces the full tensor to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, MetricField, central_diff, differentiate, unpack_symmetric

COND_LIMIT = 1e12


def invert_metric(g: MetricField) -> MetricField:
    eigs = g.eigenvalues()
    if np.any(eigs[g.mask][:, 0] <= 0.0):
        raise ValueError("metric not positive-definite on a valid node")
    cond = eigs[..., -1] / eigs[..., 0]
    if np.any(cond[g.mask] > COND_LIMIT):
        raise ValueError("metric condition number exceeds 1e12")
    return MetricField.from_matrices(g.lattice, g.inverse(), g.mask.copy())


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
    """A tensor field computed on the crop `sl` of g's grid, embedded back in it."""
    if sl is not None:
        full = np.zeros(g.mask.shape + riem.shape[-4:])
        full[sl] = riem
        fmask = np.zeros_like(g.mask)
        fmask[sl] = mask
        riem, mask = full, fmask
    return RiemannField(lattice=g.lattice, riem=riem, mask=mask)


@dataclass(frozen=True)
class ChristoffelField:
    lattice: Lattice
    gamma: np.ndarray  # grid + (n, n, n): Gamma^i_{kl}, symmetric in (k, l)
    mask: np.ndarray


def _s_tensor(dg: np.ndarray) -> np.ndarray:
    """S_{m k l} = g_{mk,l} + g_{ml,k} - g_{kl,m} from dg[...,i,j,a] = d_a g_ij."""
    return (dg                         # g_{mk,l}
            + np.swapaxes(dg, -2, -1)  # g_{ml,k}
            - np.moveaxis(dg, -1, -3))  # g_{kl,m}


def _gamma(ginv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, Gamma) with Gamma^i_{kl} = g^{im} S_{mkl} / 2.

    Symmetry in the lower pair is exact because S is built symmetric in (k, l).
    """
    S = _s_tensor(dg)
    return S, 0.5 * _contract_first(ginv, S)


def christoffel(g: MetricField) -> ChristoffelField:
    ginv = invert_metric(g).matrices()
    jet = differentiate(g, 1)
    _, gamma = _gamma(ginv, jet.blocks[1])
    return ChristoffelField(lattice=g.lattice, gamma=gamma, mask=jet.mask)


@dataclass(frozen=True)
class RiemannField:
    lattice: Lattice
    riem: np.ndarray  # grid + (n, n, n, n): R^rho_{sigma mu nu}
    mask: np.ndarray


def _contract_first(mat: np.ndarray, tens: np.ndarray) -> np.ndarray:
    """mat^{i m} tens_{m ...}: batched matmul over the first tensor index."""
    head = mat.shape[:-2]
    rest = tens.shape[len(head) + 1:]
    flat = tens.reshape(head + (tens.shape[len(head)], -1))
    return np.matmul(mat, flat).reshape(head + (mat.shape[-2],) + rest)


def _perm4(arr: np.ndarray, order: tuple) -> np.ndarray:
    """View of arr with its trailing four tensor axes reordered."""
    g = arr.ndim - 4
    return arr.transpose(*range(g), *(g + o for o in order))


def _ds_from_hessian(d2g: np.ndarray) -> np.ndarray:
    """S_{mkl,a} from the metric Hessian d2g[...,i,j,a,b] = d_b d_a g_ij."""
    # g_{mk,l a} + g_{ml,k a} - g_{kl,m a}
    return d2g + _perm4(d2g, (0, 2, 1, 3)) - _perm4(d2g, (2, 0, 1, 3))


def _antisym_mn(arr: np.ndarray) -> np.ndarray:
    """arr[...,r,s,m,n] minus the same array with (m, n) swapped."""
    return arr - np.swapaxes(arr, -2, -1)


def _dgamma_parts(ginv, dginv, S, d2g) -> tuple[np.ndarray, np.ndarray]:
    """The two Leibniz halves of d_a Gamma^i_{kl}, each grid + (i,k,l,a):
    (d_a g^{im}) S_{mkl} / 2 and g^{im} (d_a S_{mkl}) / 2."""
    head = ginv.shape[:-2]
    n = ginv.shape[-1]
    dg2 = np.moveaxis(dginv, -1, -3)                       # (a, i, m)
    s_flat = S.reshape(head + (n, n * n))[..., None, :, :]  # (1, m, kl)
    t1 = np.matmul(dg2, s_flat).reshape(head + (n, n, n, n))
    term1 = 0.5 * np.moveaxis(t1, -4, -1)                  # (i, k, l, a)
    term2 = 0.5 * _contract_first(ginv, _ds_from_hessian(d2g))
    return term1, term2


def _dgamma_to_riem(dgamma: np.ndarray) -> np.ndarray:
    """d_a Gamma^r_{kl} reordered to R^r_{s m n} positions, antisymmetrized in (m, n)."""
    return _antisym_mn(_perm4(dgamma, (0, 2, 3, 1)))


def _gamma_square(gamma: np.ndarray) -> np.ndarray:
    """Gamma^r_{m l} Gamma^l_{n s} antisymmetrized in (m, n), as (r,s,m,n)."""
    head = gamma.shape[:-3]
    n = gamma.shape[-1]
    T = np.matmul(gamma.reshape(head + (n * n, n)),
                  gamma.reshape(head + (n, n * n)))
    T = _perm4(T.reshape(head + (n, n, n, n)), (0, 3, 1, 2))  # (r,m,n,s)->(r,s,m,n)
    return _antisym_mn(T)


def _riemann_fields(g: MetricField, split: bool) -> list[RiemannField]:
    """The Riemann tensor of g, whole or split as [A, B]: crop g to its
    mask, build Gamma and the Leibniz halves of d Gamma, paste back."""
    gc, sl = _crop_to_mask(g)
    lat = gc.lattice
    ginv = invert_metric(gc).matrices()
    jet = differentiate(gc, 2)
    _, dg, d2g = jet.blocks
    dginv = np.stack([central_diff(ginv, ax, lat.h) for ax in range(lat.n)], axis=-1)
    S, gamma = _gamma(ginv, dg)
    term1, term2 = _dgamma_parts(ginv, dginv, S, d2g)
    # The derivative part is added in place to the Gamma^2 buffer.  That
    # pins the memory layout of the result, and with it the summation order
    # of later einsum contractions (so the CLI output stays byte-stable),
    # and it saves an n^4 temporary.
    riem = _gamma_square(gamma)
    if split:
        riem += _dgamma_to_riem(term1)
        parts = [_dgamma_to_riem(term2), riem]
    else:
        term1 += term2
        riem += _dgamma_to_riem(term1)
        parts = [riem]
    return [_paste_full(g, part, jet.mask, sl) for part in parts]


def riemann(g: MetricField) -> RiemannField:
    """R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}."""
    return _riemann_fields(g, split=False)[0]


def ab_decomposition(g: MetricField) -> tuple[RiemannField, RiemannField]:
    """Split the Riemann tensor into the part A bilinear in (g^{-1}, Hess g)
    and the polynomial remainder B in (grad g, g^{-1}, grad g^{-1})."""
    A, B = _riemann_fields(g, split=True)
    return A, B


def ricci(R: RiemannField) -> np.ndarray:
    """Ric_{sigma nu} = R^mu_{sigma mu nu}, shape grid + (n, n)."""
    return np.einsum("...msmn->...sn", R.riem)


def scalar_curvature(g: MetricField, R: RiemannField) -> np.ndarray:
    ginv = invert_metric(g).matrices()
    return np.einsum("...sn,...sn->...", ginv, ricci(R))


@dataclass(frozen=True)
class VectorSection:
    """Three constant vector fields and one constant covector probe."""

    v: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    xi: np.ndarray


def riem_contract_field(R: RiemannField, s: VectorSection) -> np.ndarray:
    """R^rho_{sigma mu nu} xi_rho v^sigma w1^mu w2^nu as a scalar field."""
    return np.einsum("...rsmn,r,s,m,n->...", R.riem, s.xi, s.v, s.w1, s.w2)


def section_norm_fields(g: MetricField, sections) -> list[np.ndarray]:
    """Per-node product |v|_g |w1|_g |w2|_g |xi|_{g^-1} for each section.

    Nodes off the mask see the identity metric.  The matrices and their
    inverse are formed once for all sections.
    """
    mats = g.matrices()
    ginv = g.inverse()

    def norm(a, u):
        return np.sqrt(np.einsum("...ij,i,j->...", a, u, u))

    return [norm(mats, s.v) * norm(mats, s.w1) * norm(mats, s.w2) * norm(ginv, s.xi)
            for s in sections]


def evaluate_riem(R: RiemannField, g: MetricField, s: VectorSection,
                  node: tuple) -> tuple[float, float]:
    """Contraction of R with the section at one node, plus the g-norm product there."""
    if not R.mask[node]:
        raise ValueError(f"node {node} outside the valid mask")
    val = float(np.einsum("rsmn,r,s,m,n->", R.riem[node], s.xi, s.v, s.w1, s.w2))
    gm = unpack_symmetric(g.comps[node], g.lattice.n)
    ginv = np.linalg.inv(gm)
    prod = float(np.sqrt(s.v @ gm @ s.v) * np.sqrt(s.w1 @ gm @ s.w1)
                 * np.sqrt(s.w2 @ gm @ s.w2) * np.sqrt(s.xi @ ginv @ s.xi))
    return val, prod


DEGENERATE_GRAM = 1e-12


def sectional(g: MetricField, R: RiemannField, node: tuple,
              v: np.ndarray, w: np.ndarray) -> float:
    """<R(v,w)w, v> / (|v|^2 |w|^2 - <v,w>^2) at one node."""
    if not R.mask[node]:
        raise ValueError(f"node {node} outside the valid mask")
    gm = unpack_symmetric(g.comps[node], g.lattice.n)
    gram = (v @ gm @ v) * (w @ gm @ w) - (v @ gm @ w) ** 2
    if gram < DEGENERATE_GRAM:
        raise ValueError("degenerate plane")
    rv = np.einsum("rsmn,s,m,n->r", R.riem[node], w, v, w)
    num = float(rv @ gm @ v)
    return num / float(gram)


def sectional_field(g: MetricField, R: RiemannField,
                    v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sectional curvature of the constant plane (v, w) at every node.

    Nodes with a degenerate Gram determinant get NaN.
    """
    mats = g.matrices()
    gv = np.einsum("...ij,j->...i", mats, v)
    gw = np.einsum("...ij,j->...i", mats, w)
    gram = (np.einsum("...i,i->...", gv, v) * np.einsum("...i,i->...", gw, w)
            - np.einsum("...i,i->...", gv, w) ** 2)
    rv = np.einsum("...rsmn,s,m,n->...r", R.riem, w, v, w)
    num = np.einsum("...r,...r->...", rv, gv)
    with np.errstate(divide="ignore", invalid="ignore"):
        sec = num / gram
    sec[gram < DEGENERATE_GRAM] = np.nan
    return sec


def _plane_family(n: int, count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    planes = [(np.eye(n)[i], np.eye(n)[j]) for i in range(n) for j in range(i + 1, n)]
    if n > 2 and count > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        raw = rng.standard_normal((count, 2, n))
        for k in range(count):
            planes.append((raw[k, 0], raw[k, 1]))
    return planes


def sec_extreme_fields(g: MetricField, R: RiemannField,
                       seed: int = 0, random_planes: int = 32):
    """Per-node (min, max) of sectional curvature over the plane family."""
    lo = np.full(g.lattice.shape, np.inf)
    hi = np.full(g.lattice.shape, -np.inf)
    for v, w in _plane_family(g.lattice.n, random_planes, seed):
        sec = sectional_field(g, R, v, w)
        good = np.isfinite(sec)
        lo[good] = np.minimum(lo[good], sec[good])
        hi[good] = np.maximum(hi[good], sec[good])
    return lo, hi


def sec_extremes(g: MetricField, R: RiemannField, region: np.ndarray,
                 seed: int = 0, random_planes: int = 32) -> tuple[float, float]:
    """(minSec, maxSec) over region nodes and the deterministic plane family."""
    region = region & R.mask
    if not region.any():
        raise ValueError("empty region")
    lo, hi = sec_extreme_fields(g, R, seed=seed, random_planes=random_planes)
    return float(lo[region].min()), float(hi[region].max())
