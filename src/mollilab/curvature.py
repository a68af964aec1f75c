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

from .lattice import (MetricField, central_diff, central_diff2, erode_mask, fold,
                      inverse_planes, pack_map)

# Grid nodes per slab of the streamed Riemann builder, which takes
# max(1, SLAB_NODES // m^(n-1)) whole axis-0 planes at a time and holds them
# as contiguous component planes.  Its peak is the input, g^-1, the output
# and one slab: 2.1 MB above the output and g^-1 on a 3-d m = 41 chart, one
# plane per slab.  Smaller slabs pay more per-slab overhead (2-d, m = 161);
# 4096 and 8192 ran the builder 5-10 % faster on 2-d m = 161 and 3-d m = 25
# charts, but made that slab 1.5 and 3 times as large.
SLAB_NODES = 2048


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


def _lambda2(comps: np.ndarray, n: int) -> np.ndarray:
    """Lambda^2 of packed symmetric n x n components (trailing axis),
    (Lambda^2 g)_IJ = g_ac g_bd - g_ad g_bc, each entry read through
    `pack_map`."""
    a, b, c, d = _pair_axes(n)
    P = pack_map(n)
    return comps[..., P[a, c]] * comps[..., P[b, d]] - comps[..., P[a, d]] * comps[..., P[b, c]]


@lru_cache(maxsize=None)
def _slab_index(n: int):
    """What the slab builder indexes with in dimension n, as plain tuples.

    S: (m, k, l, P[m, k], P[m, l], P[k, l]) for k <= l, the entries of
    S_mkl = d_l g_mk + d_k g_ml - d_m g_kl.  A: (I, J) and the four
    (x, y, k) of d2[x, y, k] = d_y d_x g_k in the terms of
    A_IJ = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac).  B: (I, J, a, b, c, d)
    for every I = (a, b) and J = (c, d).  D2: the entries of d2 that A
    reads, as (x, y, k0, k1) for runs of components k0 <= k < k1.
    """
    P = pack_map(n).tolist()
    pairs = list(zip(*(x.tolist() for x in np.triu_indices(n, 1))))
    S = tuple((m, k, l, P[m][k], P[m][l], P[k][l])
              for m in range(n) for k in range(n) for l in range(k, n))
    A, B = [], []
    for I, (a, b) in enumerate(pairs):
        for J, (c, d) in enumerate(pairs):
            A.append((I, J, (b, c, P[a][d]), (a, d, P[b][c]), (b, d, P[a][c]), (a, c, P[b][d])))
            B.append((I, J, a, b, c, d))
    D2 = []
    for x, y, k in sorted({t for entry in A for t in entry[2:]}):
        if D2 and D2[-1][:2] == (x, y) and D2[-1][3] == k:
            D2[-1] = (x, y, D2[-1][2], k + 1)
        else:
            D2.append((x, y, k, k + 1))
    return S, tuple(A), tuple(B), tuple(D2)


def _planes(n: int, sl: slice) -> tuple:
    """Index of sl along grid axis 0 of an array whose last n axes are the grid."""
    return (Ellipsis, sl) + (slice(None),) * (n - 1)


def _diff(v: np.ndarray, ax: int, n: int, h: float, out: np.ndarray) -> None:
    """`central_diff` along grid axis ax into out, for planes v that carry
    one halo plane on each side of axis 0, which out drops; along axis 0
    the halo stands in for the wrap."""
    if ax:
        central_diff(v[_planes(n, slice(1, -1))], ax - n, h, out=out)
        return
    np.subtract(v[_planes(n, slice(2, None))], v[_planes(n, slice(None, -2))], out=out)
    out /= 2.0 * h


def _diff2(v: np.ndarray, ax: int, n: int, h: float, out: np.ndarray) -> None:
    """`central_diff2` along grid axis ax into out, likewise."""
    mid = v[_planes(n, slice(1, -1))]
    if ax:
        central_diff2(mid, ax - n, h, out=out)
        return
    np.multiply(mid, 2.0, out=out)
    np.subtract(v[_planes(n, slice(2, None))], out, out=out)
    out += v[_planes(n, slice(None, -2))]
    out /= h**2


def _symmetrize(x: np.ndarray) -> None:
    """x[I, J] = x[J, I] = (x[I, J] + x[J, I]) / 2 over the leading (I, J)
    axes, in place, symmetric bit for bit."""
    for I in range(x.shape[0]):
        for J in range(I, x.shape[0]):
            np.add(x[I, J], x[J, I], out=x[I, J])
            x[I, J] *= 0.5
            if J > I:
                x[J, I] = x[I, J]


def _slab_planes(comps: np.ndarray, ginv: np.ndarray, h: float, i0: int, i1: int):
    """(A, B), symmetrized, on the planes i0 <= i < i1 along axis 0 of a
    metric's packed components `comps` (grid + (n(n+1)/2,)), read as stored
    at node spacing h, with its inverse `ginv` as `inverse_planes` gives it,
    (n, n) + grid, in component layout: arrays (N, N) + slab, one
    contiguous plane stack per (I, J).

    The slab reads its planes and a 2-plane halo with wrapped indices, so
    every difference is the one the periodic jet of the whole grid takes.
    It holds one plane stack per packed component, per first derivative and
    per second derivative d_y d_x g (the mixed ones nested in that order),
    and every sum is taken in the order of the formulas above, so the output
    is bit-equal to that of the node-major jet.  Gamma is the stacked matmul
    of the slab's g^-1 with S (`_contract_first`), both copied node-major
    and C-contiguous: numpy hands that product to BLAS, whose sums explicit
    ones would not reproduce bit for bit.
    """
    n, m = comps.ndim - 1, comps.shape[0]
    S_index, A_index, B_index, D2_index = _slab_index(n)
    # the planes i0 - 2 .. i1 + 1, wrapped only at the ends of the grid
    planes = (slice(i0 - 2, i1 + 2) if 2 <= i0 and i1 + 2 <= m
              else np.arange(i0 - 2, i1 + 2) % m)
    K, pairs = n * (n + 1) // 2, n * (n - 1) // 2
    vals = np.empty((K, i1 - i0 + 4) + comps.shape[1:-1])
    grid = tuple(range(n))
    np.copyto(vals, comps[planes].transpose((n,) + grid))
    slab = (i1 - i0,) + vals.shape[2:]
    d1 = np.empty((n, K, slab[0] + 2) + slab[1:])     # planes i0-1 .. i1
    for ax in range(n):
        _diff(vals, ax, n, h, d1[ax])
    d2 = np.empty((n, n, K) + slab)                    # d2[x, y] = d_y d_x g
    for x, y, k0, k1 in D2_index:
        if x == y:
            _diff2(vals[k0:k1, 1:-1], x, n, h, d2[x, x, k0:k1])
        else:
            _diff(d1[x, k0:k1], y, n, h, d2[x, y, k0:k1])
    del vals
    A = np.empty((pairs, pairs) + slab)
    for I, J, t1, t2, t3, t4 in A_index:
        np.add(d2[t1], d2[t2], out=A[I, J])
        A[I, J] -= d2[t3]
        A[I, J] -= d2[t4]
    A *= 0.5
    del d2
    dg = d1[:, :, 1:-1]
    S = np.empty((n, n, n) + slab)
    for i, k, l, ik, il, kl in S_index:
        np.add(dg[l, ik], dg[k, il], out=S[i, k, l])
        S[i, k, l] -= dg[i, kl]
        if l > k:
            S[i, l, k] = S[i, k, l]
    del d1, dg
    # 1/4 g^pq S_p,bc S_q,ad = 1/2 Gamma^q_bc S_q,ad, Gamma^q_bc = g^qp S_p,bc / 2
    node_major = np.ascontiguousarray(S.transpose(tuple(range(3, n + 3)) + (0, 1, 2)))
    slab_inv = np.ascontiguousarray(ginv[:, :, i0:i1].transpose(tuple(range(2, n + 2)) + (0, 1)))
    gamma = np.ascontiguousarray(_contract_first(slab_inv, node_major)
                                 .transpose((n, n + 1, n + 2) + grid))
    gamma *= 0.5
    del node_major, slab_inv
    B = np.empty((pairs, pairs) + slab)
    term, prod = np.empty(slab), np.empty(slab)
    for I, J, a, b, c, d in B_index:
        acc = B[I, J]
        np.multiply(gamma[0, b, c], S[0, a, d], out=acc)
        np.multiply(gamma[0, b, d], S[0, a, c], out=prod)
        acc -= prod
        acc += 0.0  # Python's sum starts at 0, which turns a -0.0 first term into +0.0
        for q in range(1, n):
            np.multiply(gamma[q, b, c], S[q, a, d], out=term)
            np.multiply(gamma[q, b, d], S[q, a, c], out=prod)
            term -= prod
            acc += term
    B *= 0.5
    # nested central differences in the other order differ in round-off
    _symmetrize(A)
    _symmetrize(B)
    return A, B


def riemann(g: MetricField) -> RiemannField:
    """The curvature operator R_IJ = R_abcd = A_IJ + B_IJ of g.

    The builder reads g through the slices of one centred cube: the
    smallest that holds the mask with a 2-node pad for the stencils, so
    heavily eroded masks (large smoothing scales) cost proportionally less.
    That crop is streamed in slabs of about SLAB_NODES nodes, whole planes
    along axis 0, at g's own spacing, into one preallocated full-grid
    output (zero outside the crop); the peak is the input, g^-1, the output
    and one slab's component planes.  g^-1 is taken on the crop alone.

    g must be a checked metric (`lattice.check_definite`), as
    `sample_metric` and `assemble_mollified` make; it is not checked again
    here, and a singular node only raises LinAlgError from
    `lattice.inverse_planes`, which names the node in g's grid.
    """
    if not g.mask.any():
        raise ValueError("riemann: metric mask is empty")
    n, m = g.lattice.n, g.lattice.m
    trim = m
    for ax in range(n):
        hit = np.flatnonzero(g.mask.any(axis=tuple(a for a in range(n) if a != ax)))
        trim = min(trim, hit[0], m - 1 - hit[-1])
    trim = max(trim - 2, 0)
    crop = (slice(trim, m - trim),) * n
    comps = g.comps[crop]
    ginv = inverse_planes(comps, n, shift=trim)
    pairs = n * (n - 1) // 2
    riem = np.zeros(g.mask.shape + (pairs, pairs))
    out = riem[crop].transpose((n, n + 1) + tuple(range(n)))
    mc = m - 2 * trim
    step = max(1, SLAB_NODES // mc ** (n - 1))
    for i0 in range(0, mc, step):
        i1 = min(i0 + step, mc)
        np.add(*_slab_planes(comps, ginv, g.lattice.h, i0, i1), out=out[:, :, i0:i1])
    return RiemannField(metric=g, riem=riem, mask=erode_mask(g.mask, 2))


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular 3 x 3 matrices by forward substitution; any
    other trailing shape raises ValueError."""
    if L.shape[-2:] != (3, 3):
        raise ValueError(f"_lower_inverse needs 3 x 3 factors, got trailing shape {L.shape[-2:]}")
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
    G = _lambda2(R.metric.comps[R.mask], n)
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
    scalar[R.mask] = 2.0 * fold(np.add, np.diagonal(pencil, axis1=-2, axis2=-1))
    return ev, scalar


def sec_extreme_fields(R: RiemannField):
    """Per-node (min, max) of the sectional curvature over all 2-planes, and
    the scalar curvature: the first and last eigenvalue of `sec_spectrum`,
    and its scalar curvature."""
    ev, scalar = sec_spectrum(R)
    return ev[..., 0], ev[..., -1], scalar
