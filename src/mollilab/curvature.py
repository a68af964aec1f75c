"""Curvature of sampled metrics: the Riemann tensor, built as the Hessian
part plus the remainder, and the spectrum of the curvature operator, which
gives the sectional and scalar curvature.

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
v ^ w, so the eigenvalues of the pencil (R, G) at a node are the sectional
curvatures of the planes of a g-orthonormal eigenframe, its extreme
eigenvalues are the extreme sectional curvatures, and the scalar curvature
is twice its trace, 2 tr(G^-1 R).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (Lattice, MetricField, central_diff, central_diff2, erode_mask, pack_map,
                      unpack_symmetric)

# Grid nodes per slab of the streamed Riemann builder, which takes
# max(1, SLAB_NODES // m^(n-1)) whole axis-0 planes at a time.  Smaller
# slabs pay more per-slab overhead (2-d, m = 161); at 4096 the larger slab
# temporaries tripled the page faults of a 3-d m = 25 curvature run.
SLAB_NODES = 2048


def _crop_to_mask(g: MetricField) -> tuple[MetricField, int]:
    """Restrict a field to the centred cube bounding its mask, plus a
    2-node pad for the Riemann stencils.  Heavily eroded masks (large
    smoothing scales) then cost proportionally less.  Returns (field, trim):
    the crop starts at node (trim,) * n of g's grid, and trim = 0 returns g
    itself."""
    mask = g.mask
    if not mask.any():
        raise ValueError("field mask is empty")
    m = mask.shape[0]
    trim = m
    for ax in range(mask.ndim):
        hit = np.where(mask.any(axis=tuple(a for a in range(mask.ndim) if a != ax)))[0]
        trim = min(trim, hit[0], m - 1 - hit[-1])
    trim = max(trim - 2, 0)
    trim = min(trim, (m - 5) // 2)
    if trim <= 0:
        return g, 0
    sl = (slice(trim, m - trim),) * mask.ndim
    lat = g.lattice
    m2 = m - 2 * trim
    lat2 = Lattice(n=lat.n, r=lat.r * (m2 - 1) / (m - 1), m=m2)
    return MetricField(lattice=lat2, comps=g.comps[sl], mask=mask[sl]), int(trim)


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
    exact.  `metric` is the metric R was built from, which every consumer
    of R reads with it.
    """

    metric: MetricField
    riem: np.ndarray
    mask: np.ndarray


def _pair_axes(n: int):
    """Index arrays (a, b, c, d) over (I, J), shapes (N, 1) and (1, N)."""
    a, b = np.triu_indices(n, 1)
    return a[:, None], b[:, None], a[None, :], b[None, :]


def _lambda2(mats: np.ndarray) -> np.ndarray:
    """Lambda^2 of matrices, (Lambda^2 g)_IJ = g_ac g_bd - g_ad g_bc."""
    a, b, c, d = _pair_axes(mats.shape[-1])
    return mats[..., a, c] * mats[..., b, d] - mats[..., a, d] * mats[..., b, c]


def _symmetrized(x: np.ndarray) -> np.ndarray:
    """(x + x^T) / 2 over the trailing (I, J) axes, symmetric bit for bit."""
    return 0.5 * (x + np.swapaxes(x, -2, -1))


@lru_cache(maxsize=None)
def _slab_index(n: int):
    """What the slab builder indexes with in dimension n: the packing map P,
    the pair axes (a, b, c, d), the indices (..., k, x, y) into
    d2g[..., k, x, y] = d_y d_x g_k of the four terms of
    A_IJ = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac), and the entries of
    d2g those terms read, as {(x, y): sorted components k}."""
    P = pack_map(n)
    a, b, c, d = _pair_axes(n)
    terms = ((P[a, d], b, c), (P[b, c], a, d), (P[a, c], b, d), (P[b, d], a, c))
    groups: dict = {}
    for term in terms:
        for k, x, y in zip(*(t.ravel().tolist() for t in np.broadcast_arrays(*term))):
            groups.setdefault((x, y), set()).add(k)
    return (P, (a, b, c, d), tuple((...,) + t for t in terms),
            {xy: sorted(ks) for xy, ks in groups.items()})


def _cdiff(v: np.ndarray, ax: int, h: float) -> np.ndarray:
    """`central_diff` along grid axis ax of a slab that carries one halo
    plane on each side of axis 0, dropping the halo.  Along axis 0 the halo
    stands in for np.roll's wrap; the other axes are whole and still roll."""
    if ax == 0:
        return (v[2:] - v[:-2]) / (2.0 * h)
    return central_diff(v[1:-1], ax, h)


def _cdiff2(v: np.ndarray, ax: int, h: float) -> np.ndarray:
    """`central_diff2` along grid axis ax of a slab with one halo plane, likewise."""
    if ax == 0:
        return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    return central_diff2(v[1:-1], ax, h)


def _slab_parts(gc: MetricField, ginv: np.ndarray, i0: int, i1: int):
    """(A, B), symmetrized, on the planes i0 <= i < i1 along axis 0 of gc.

    The slab reads its planes and a 2-plane halo with wrapped indices, so
    every difference is the one the np.roll jet of the whole grid takes,
    off-mask garbage included.  It forms dg, and of d2g only the entries
    A reads: pure ones by the compact stencil, mixed ones d_y d_x g_k
    nested in that order.
    """
    lat = gc.lattice
    n, h = lat.n, lat.h
    P, (a, b, c, d), terms, groups = _slab_index(n)
    planes = np.arange(i0 - 2, i1 + 2) % lat.m
    vals = np.where(gc.mask[planes][..., None], gc.comps[planes], 0.0)
    d1 = np.stack([_cdiff(vals, ax, h) for ax in range(n)], axis=-1)  # planes i0-1 .. i1
    d2 = np.empty((i1 - i0,) + vals.shape[1:] + (n, n))
    for (x, y), ks in groups.items():
        d2[..., ks, x, y] = (_cdiff2(vals[1:-1, ..., ks], x, h) if x == y
                             else _cdiff(d1[..., ks, x], y, h))
    t1, t2, t3, t4 = terms
    A = 0.5 * (d2[t1] + d2[t2] - d2[t3] - d2[t4])
    # 1/4 g^pq S_p,bc S_q,ad = 1/2 Gamma^q_bc S_q,ad, Gamma^q_bc = g^qp S_p,bc / 2
    S = _s_tensor(d1[1:-1][..., P, :])
    gamma = 0.5 * _contract_first(ginv[i0:i1], S)
    B = 0.5 * sum(gamma[..., q, b, c] * S[..., q, a, d]
                  - gamma[..., q, b, d] * S[..., q, a, c] for q in range(n))
    # nested central differences in the other order differ in round-off
    return _symmetrized(A), _symmetrized(B)


def riemann(g: MetricField) -> RiemannField:
    """The curvature operator R_IJ = R_abcd = A_IJ + B_IJ of g.

    The crop of g to its mask is streamed in slabs of about SLAB_NODES
    nodes, whole planes along axis 0, into one preallocated full-grid
    output (zero outside the crop); the peak is the input, g^-1, the output
    and one slab's temporaries.

    g must be a checked metric (`lattice.check_definite`), as
    `sample_metric` and `assemble_mollified` make; it is not checked again
    here, and a singular node only raises LinAlgError from
    `MetricField.inverse`.
    """
    gc, trim = _crop_to_mask(g)
    n, m = gc.lattice.n, gc.lattice.m
    crop = (slice(trim, trim + m),) * n
    ginv = g.inverse()[crop]
    pairs = n * (n - 1) // 2
    riem = np.zeros(g.mask.shape + (pairs, pairs))
    mask = np.zeros_like(g.mask)
    mask[crop] = erode_mask(gc.mask, 2)
    step = max(1, SLAB_NODES // m ** (n - 1))
    for i0 in range(0, m, step):
        i1 = min(i0 + step, m)
        np.add(*_slab_parts(gc, ginv, i0, i1), out=riem[crop][i0:i1])
    return RiemannField(metric=g, riem=riem, mask=mask)


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


def sec_spectrum(R: RiemannField):
    """Per-node eigenvalues of the pencil (R, G), G = Lambda^2 g, and the
    scalar curvature, from one solve.

    The eigenvalues are those of G^-1 R, found as those of L^-1 R L^-T with
    G = L L^T, in ascending order along a trailing axis of length
    N = n(n-1)/2.  In dimensions 2 and 3, where every bivector spans a
    plane, they are the sectional curvatures of the planes of a
    g-orthonormal eigenframe, all of R that does not depend on the frame,
    and the first and last are the extremes over all planes.  The scalar
    curvature g^ac g^bd R_abcd is 2 tr(G^-1 R), the trace of that same
    matrix; in 2-d, where G^-1 R is the one number k, it is 2k.  Both fields
    are solved on R.mask only, and are NaN off it, where R is not a
    curvature.
    """
    n = R.metric.lattice.n
    if n > 3:
        raise ValueError(f"exact sectional extremes need dimension 2 or 3, got {n}")
    G = _lambda2(unpack_symmetric(R.metric.comps[R.mask], n))
    riem = R.riem[R.mask]
    ev = np.full(R.riem.shape[:-1], np.nan)
    scalar = np.full(R.mask.shape, np.nan)
    if n == 2:
        k = riem[:, 0, 0] / G[:, 0, 0]
        ev[R.mask, 0] = k
        scalar[R.mask] = 2.0 * k
        return ev, scalar
    Linv = _lower_inverse(np.linalg.cholesky(G))
    pencil = Linv @ riem @ np.swapaxes(Linv, -2, -1)
    ev[R.mask] = np.linalg.eigvalsh(pencil)
    scalar[R.mask] = 2.0 * np.trace(pencil, axis1=-2, axis2=-1)
    return ev, scalar


def sec_extreme_fields(R: RiemannField):
    """Per-node (min, max) of the sectional curvature over all 2-planes, and
    the scalar curvature: the first and last eigenvalue of `sec_spectrum`,
    and its scalar curvature."""
    ev, scalar = sec_spectrum(R)
    return ev[..., 0], ev[..., -1], scalar
