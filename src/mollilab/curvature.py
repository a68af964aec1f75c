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
never differentiated.  Each independent entry is computed once: A_IJ and
B_IJ for I <= J, mirrored into R_JI, and each mixed partial as d_y d_x g
with x < y, so R is symmetric by construction.  The sign convention makes
the sectional curvature of the plane spanned by v and w

    K(v, w) = R(v, w, v, w) / |v ^ w|^2 = om^T R om / om^T G om,  om = v ^ w,

where G = Lambda^2 g, G_IJ = g_ac g_bd - g_ad g_bc; a space form of
curvature K has R = K G.  In dimensions 2 and 3 every bivector is some
v ^ w, so the eigenvalues of the pencil (R, G) at a node are the sectional
curvatures of the planes of a g-orthonormal eigenframe, its extreme
eigenvalues are the extreme sectional curvatures, and the scalar curvature
is twice its trace, 2 tr(G^-1 R).

`sec_spectrum` solves the pencil without full matrices or LAPACK.  In 3-d it
gathers the Riemann mask's nodes one component plane each, forms the
congruence C = L^-1 R L^-T, G = L L^T, in closed form and diagonalises it
with the lab's one symmetric 3 x 3 eigenvalue kernel,
`lattice.jacobi_eigenvalues`, the cyclic Jacobi method that also gives a
3-d metric's eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (MetricField, central_diff, central_diff2, erode_mask, inverse_planes,
                      jacobi_eigenvalues, ldl_planes, pack_map, packed_det)

# Grid nodes per slab of the streamed Riemann builder, which takes
# max(1, SLAB_NODES // m^(n-1)) whole axis-0 planes at a time and holds them
# as contiguous component planes.  Its peak is the input, g^-1, the output
# and one slab: 1.04 MB above the output and g^-1 on a 3-d m = 41 chart, one
# plane per slab (tracemalloc).  Smaller slabs pay more per-slab overhead
# (2-d, m = 161); 4096 and 8192 ran the builder 5-10 % faster on 2-d
# m = 161 and 3-d m = 25 charts, but made that slab 1.5 and 3 times as large.
SLAB_NODES = 2048


@dataclass(frozen=True)
class RiemannField:
    """The Riemann tensor as the symmetric operator on bivectors.

    `riem` has shape grid + (N, N), N = n(n-1)/2, with riem[..., I, J] =
    R_abcd for the index pairs I = (a, b), a < b, and J = (c, d), c < d,
    in `np.triu_indices(n, 1)` order: one component per node in 2-d, six
    independent of nine stored in 3-d.  The sign makes the sectional
    curvature K(v, w) = R(v, w, v, w) / |v ^ w|^2.  R is symmetric in
    (I, J) bit for bit: R_JI is a copy of R_IJ.  `metric` is the metric R
    was built from, which every consumer of R reads with it.
    """

    metric: MetricField
    riem: np.ndarray
    mask: np.ndarray


@lru_cache(maxsize=None)
def _slab_index(n: int):
    """What the slab builder indexes with in dimension n, as plain tuples;
    each independent entry is listed once.

    S: (m, kl, l, mk, k, ml) for k <= l, the packed entry S[m, kl] of
    S_mkl = d_l g_mk + d_k g_ml - d_m g_kl, kl = P[k, l] and so on.  A: (I, J)
    for I <= J and the rows of d2 that hold the four terms of
    A_IJ = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac), each mixed partial
    taken as d_y d_x g with x < y.  B: (I, J, bc, ad, bd, ac) for I <= J, the
    packed pairs of 1/2 (Gamma^q_bc S_q,ad - Gamma^q_bd S_q,ac).  D2: the
    rows of d2, the d_y d_x g_k with x <= y that A reads, as (x, y, k0, k1)
    for runs of components k0 <= k < k1.
    """
    P = pack_map(n).tolist()
    pairs = list(zip(*(x.tolist() for x in np.triu_indices(n, 1))))
    S = tuple((m, P[k][l], l, P[m][k], k, P[m][l])
              for m in range(n) for k in range(n) for l in range(k, n))
    terms, B = [], []
    for I, (a, b) in enumerate(pairs):
        for J, (c, d) in enumerate(pairs[I:], I):
            terms.append((I, J, [(min(x, y), max(x, y), k) for x, y, k in
                                 ((b, c, P[a][d]), (a, d, P[b][c]),
                                  (b, d, P[a][c]), (a, c, P[b][d]))]))
            B.append((I, J, P[b][c], P[a][d], P[b][d], P[a][c]))
    rows = sorted({t for _, _, ts in terms for t in ts})
    row = {t: r for r, t in enumerate(rows)}
    A = tuple((I, J, *(row[t] for t in ts)) for I, J, ts in terms)
    D2 = []
    for x, y, k in rows:
        if D2 and D2[-1][:2] == (x, y) and D2[-1][3] == k:
            D2[-1] = (x, y, D2[-1][2], k + 1)
        else:
            D2.append((x, y, k, k + 1))
    return S, A, tuple(B), tuple(D2)


def _slab_planes(comps: np.ndarray, ginv: np.ndarray, h: float, i0: int, i1: int):
    """(A, B) on the planes i0 <= i < i1 along axis 0 of a metric's packed
    components `comps` (grid + (n(n+1)/2,)), read as stored at node spacing
    h, with its inverse `ginv` as `inverse_planes` gives it, (n, n) + grid,
    in component layout: arrays (N, N) + slab, one contiguous plane stack
    per (I, J).

    The slab reads its planes and one halo plane on each side inside the
    crop, so every difference is the one `lattice.central_diff` and
    `central_diff2` take on the whole crop, 0 at its two ends.  Only d_0 g
    and d_0^2 g read across the slab's edges: every mixed partial is
    d_y d_x g with y > x >= 0, taken within the slab's own planes.  It
    holds one plane stack per packed component, per first derivative,
    per second derivative d_y d_x g with x <= y that A reads, per S_mkl and
    per Gamma^q_kl with k <= l.  Each independent entry is computed once:
    A[I, J] and B[I, J] for I <= J, copied into [J, I], so both are
    symmetric by construction.  Every sum is an explicit chain of whole-plane calls in
    the order of the formulas above; Gamma^q_bc = 1/2 g^qp S_p,bc is summed
    over p = 0, 1, ... straight from the planes of `ginv`.
    """
    n, mc = comps.ndim - 1, comps.shape[0]
    S_index, A_index, B_index, D2_index = _slab_index(n)
    lo, hi = max(i0 - 1, 0), min(i1 + 1, mc)
    own = slice(i0 - lo, i1 - lo)                      # the slab's planes among lo .. hi - 1
    K, pairs = n * (n + 1) // 2, n * (n - 1) // 2
    vals = np.empty((K, hi - lo) + comps.shape[1:-1])  # axis x + 1 is grid axis x
    np.copyto(vals, comps[lo:hi].transpose((n,) + tuple(range(n))))
    mid = vals[:, own]
    slab = mid.shape[1:]
    dg = np.empty((n, K) + slab)
    np.copyto(dg[0], central_diff(vals, 1, h)[:, own])
    for x in range(1, n):
        central_diff(mid, x + 1, h, out=dg[x])
    d2 = np.empty((sum(k1 - k0 for _, _, k0, k1 in D2_index),) + slab)
    r = 0
    for x, y, k0, k1 in D2_index:
        rows, r = d2[r:r + k1 - k0], r + k1 - k0
        if x < y:
            central_diff(dg[x, k0:k1], y + 1, h, out=rows)
        elif x:
            central_diff2(mid[k0:k1], x + 1, h, out=rows)
        else:
            np.copyto(rows, central_diff2(vals[k0:k1], 1, h)[:, own])
    del vals, mid
    A = np.empty((pairs, pairs) + slab)
    for I, J, t1, t2, t3, t4 in A_index:
        acc = A[I, J]
        np.add(d2[t1], d2[t2], out=acc)
        acc -= d2[t3]
        acc -= d2[t4]
        acc *= 0.5
        if J > I:
            A[J, I] = acc
    del d2
    S = np.empty((n, K) + slab)                        # S[m, P[k, l]] = S_mkl
    for i, kl, l, ik, k, il in S_index:
        np.add(dg[l, ik], dg[k, il], out=S[i, kl])
        S[i, kl] -= dg[i, kl]
    del dg
    # 1/4 g^pq S_p,bc S_q,ad = 1/2 Gamma^q_bc S_q,ad
    inv = ginv[:, :, i0:i1]
    gamma = np.empty((n, K) + slab)                    # gamma[q, P[b, c]] = Gamma^q_bc
    prod = np.empty(slab)
    for q in range(n):
        for bc in range(K):
            acc = gamma[q, bc]
            np.multiply(inv[q, 0], S[0, bc], out=acc)
            for p in range(1, n):
                np.multiply(inv[q, p], S[p, bc], out=prod)
                acc += prod
    gamma *= 0.5
    B = np.empty((pairs, pairs) + slab)
    term = np.empty(slab)
    for I, J, bc, ad, bd, ac in B_index:
        acc = B[I, J]
        np.multiply(gamma[0, bc], S[0, ad], out=acc)
        np.multiply(gamma[0, bd], S[0, ac], out=prod)
        acc -= prod
        for q in range(1, n):
            np.multiply(gamma[q, bc], S[q, ad], out=term)
            np.multiply(gamma[q, bd], S[q, ac], out=prod)
            term -= prod
            acc += term
        acc *= 0.5
        if J > I:
            B[J, I] = acc
    return A, B


def riemann(g: MetricField) -> RiemannField:
    """The curvature operator R_IJ = R_abcd = A_IJ + B_IJ of g.

    The builder reads g through the slices of one centred cube: the
    smallest that holds the mask with a 2-node pad, so heavily eroded
    masks (large smoothing scales) cost proportionally less.
    That crop is streamed in slabs of about SLAB_NODES nodes, whole planes
    along axis 0, at g's own spacing, into one preallocated full-grid
    output (zero outside the crop); the peak is the input, g^-1, the output
    and one slab's component planes.  g^-1 is taken on the crop alone.
    Each slab computes every independent entry once, as explicit sums of
    whole planes: no BLAS call and no averaging of the two triangles.

    g must be a checked metric (`lattice.check_definite`), as
    `sample_metric` and `assemble_mollified` make; it is not checked again
    here, and a singular node only raises LinAlgError from
    `lattice.inverse_planes`, which names the node in g's grid (its
    chart's, when g is on a window).
    """
    if not g.mask.any():
        raise ValueError("riemann: metric mask is empty")
    n, m = g.lattice.n, g.mask.shape[0]
    trim = m
    for ax in range(n):
        hit = np.flatnonzero(g.mask.any(axis=tuple(a for a in range(n) if a != ax)))
        trim = min(trim, hit[0], m - 1 - hit[-1])
    trim = max(trim - 2, 0)
    crop = (slice(trim, m - trim),) * n
    comps = g.comps[crop]
    ginv = inverse_planes(comps, n, shift=trim + g.lattice.trim)
    pairs = n * (n - 1) // 2
    riem = np.zeros(g.mask.shape + (pairs, pairs))
    out = riem[crop].transpose((n, n + 1) + tuple(range(n)))
    mc = m - 2 * trim
    step = max(1, SLAB_NODES // mc ** (n - 1))
    for i0 in range(0, mc, step):
        i1 = min(i0 + step, mc)
        np.add(*_slab_planes(comps, ginv, g.lattice.h, i0, i1), out=out[:, :, i0:i1])
    return RiemannField(metric=g, riem=riem, mask=erode_mask(g.mask, 2))


def _congruence(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The congruence C = L^-1 R L^-T of the 3-d pencil (R, G), G = Lambda^2 g
    = L L^T, whose eigenvalues are the pencil's.  r holds R's six
    independent entries R_IJ, I <= J, and g the metric's packed components,
    each in `pack_map` order along axis 0, one plane per entry (any trailing
    shape); C comes back in r's layout.

    G_IJ = g_ac g_bd - g_ad g_bc is read through `pack_map` and factored as
    G = L1 D L1^T by the closed-form LDL^T of `lattice.ldl_planes`, so
    L = L1 D^1/2.  With W = L1^-1, W R W^T is taken by forward substitution:
    the rows of T = W R, then each entry (T W^T)_IJ, I <= J, once, so C is
    symmetric by construction; C_IJ = (W R W^T)_IJ / sqrt(d_I) / sqrt(d_J)
    over the pivots d.
    """
    P = pack_map(3)
    pairs = list(zip(*np.triu_indices(3, 1)))
    G = np.empty_like(g)
    for I, (a, b) in enumerate(pairs):
        for J, (c, d) in enumerate(pairs[I:], I):
            np.multiply(g[P[a, c]], g[P[b, d]], out=G[P[I, J]])
            G[P[I, J]] -= g[P[a, d]] * g[P[b, c]]
    (l10, l20, l21), pivots = ldl_planes(G)
    T = [[r[P[0, k]] for k in range(3)]]
    T.append([r[P[1, k]] - l10 * T[0][k] for k in range(3)])
    T.append([r[P[2, k]] - l20 * T[0][k] - l21 * T[1][k] for k in range(3)])
    root = [np.sqrt(d) for d in pivots]
    C = np.empty_like(r)
    for I, (t0, t1, t2) in enumerate(T):
        w1 = t1 - l10 * t0
        for J, w in enumerate((t0, w1, t2 - l20 * t0 - l21 * w1)[I:], I):
            np.divide(w, root[I], out=C[P[I, J]])
            C[P[I, J]] /= root[J]
    return C


def sec_spectrum(R: RiemannField):
    """Per-node eigenvalues of the pencil (R, G), G = Lambda^2 g, and the
    scalar curvature, from one solve.

    The eigenvalues are those of G^-1 R, in ascending order along a
    trailing axis of length N = n(n-1)/2.  In dimensions 2 and 3, where
    every bivector spans a plane, they are the sectional curvatures of the
    planes of a g-orthonormal eigenframe, all of R that does not depend on
    the frame, and the first and last are the extremes over all planes.
    The scalar curvature g^ac g^bd R_abcd is 2 tr(G^-1 R).  In 2-d, where
    G^-1 R is the one number k = R_00 / det g, it is 2k.

    In 3-d the solve runs plane by plane on the nodes of R.mask, with no
    full matrices and no LAPACK: R's six independent entries and g's packed
    components are gathered one plane each, the congruence C = L^-1 R L^-T,
    G = L L^T, is formed in closed form (`_congruence`), the scalar
    curvature is twice its trace (C_00 + C_11) + C_22, and C is
    diagonalised and its diagonal sorted by `lattice.jacobi_eigenvalues`,
    whose bits at a node depend on that node's entries alone; a node still
    unconverged after `lattice.JACOBI_SWEEPS` sweeps raises ValueError
    naming it in its chart's grid.  Both fields are NaN off R.mask, where R
    is not a curvature.
    """
    n = R.metric.lattice.n
    if n > 3:
        raise ValueError(f"exact sectional extremes need dimension 2 or 3, got {n}")
    comps = R.metric.comps
    ev = np.full(R.riem.shape[:-1], np.nan)
    scalar = np.full(R.mask.shape, np.nan)
    if n == 2:
        k = R.riem[..., 0, 0][R.mask] / packed_det(comps[R.mask], 2)
        ev[R.mask, 0] = k
        scalar[R.mask] = 2.0 * k
        return ev, scalar
    C = _congruence(np.stack([R.riem[..., I, J][R.mask] for I, J in zip(*np.triu_indices(3))]),
                    np.stack([comps[..., k][R.mask] for k in range(6)]))
    P = pack_map(3)
    trace = C[P[0, 0]] + C[P[1, 1]]
    trace += C[P[2, 2]]
    scalar[R.mask] = 2.0 * trace
    ev[R.mask] = jacobi_eigenvalues(C, "sec_spectrum", R.mask, R.metric.lattice.trim)
    return ev, scalar


def sec_extreme_fields(R: RiemannField):
    """Per-node (min, max) of the sectional curvature over all 2-planes, and
    the scalar curvature: the first and last eigenvalue of `sec_spectrum`,
    and its scalar curvature."""
    ev, scalar = sec_spectrum(R)
    return ev[..., 0], ev[..., -1], scalar
