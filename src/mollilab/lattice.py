"""Uniform Cartesian sampling grids, tensor fields, and finite differences.

All fields live on the cube [-r, r]^n sampled with an odd number of nodes
per axis so the origin is always a node.  Validity masks shrink instead of
falling back to one-sided stencils: a stencil's output mask is its input
mask eroded by the stencil radius, so it reads stored values as they are.
A metric is stored once, as its packed components in `pack_map` order with
the identity written off the mask at construction; every stage reads and
writes that array, and pointwise algebra never pads by hand.  A chart's
generator returns those packed components too (`sample_metric`), so no
stage forms full matrices to store them; `unpack_symmetric` gives them
only where full matrices are the arithmetic, the LAPACK branches of
`packed_eigenvalues`, `packed_det` and `inverse_planes` (n >= 4).
Interpolation and pullback (`atlas`) work on packed components.  For n <= 3
the determinant (`packed_det`) and the inverse are closed form, and the
metric check certifies nodes from their LDL^T pivots, all read straight
from the packed components.  `packed_eigenvalues` is the one symmetric
eigenvalue kernel, for the whole grid and for any batch of nodes, with the
same bits per node: the closed-form roots in 2-d, and in 3-d the cyclic
Jacobi method on the six component planes (`jacobi_eigenvalues`), which
also solves the 3-d curvature pencil (`curvature.sec_spectrum`).

A lattice may be a centred window of its chart's grid (`Lattice.trim`),
for a stage that reads only the nodes near the chart's centre: the window
keeps the chart's spacing and node coordinates bit for bit, each stage
reads the node count from its field's shape, and every refusal names a
node in the chart's grid, its index in the window plus the trim.

Per-node kernels work on whole planes, never along a short trailing axis:
numpy reduces over an axis of a few entries an order of magnitude slower
than a chain of elementwise ufuncs over the same planes, with the same
bits.  So short per-node reductions (norms, traces, finiteness checks) are
left-to-right plane chains (`fold`), and the inverse is computed one
contiguous (i, j) plane at a time (`inverse_planes`), its one layout.
The box filters (`grow_box`, `erode_mask`) go further and run each lattice
axis as a few ufunc calls on flat 1-d views of the whole C-contiguous
array, shifted by that axis's element stride: a slice along any axis but
the first runs numpy's inner loop over lines of m - 1 entries, a flat
view over the whole array at once.  A shift by the stride reaches the
neighbour along the axis except at a line's end, where it crosses into the
next line; only entries on the axis's end planes read such a crossing, and
they are rewritten after the passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

# Largest eigenvalue ratio `check_definite` accepts at a node.
COND_LIMIT = 1e12

# Sweeps of the cyclic Jacobi method (`jacobi_eigenvalues`) before a node is
# refused.  Every node of the shipped 3-d models, raw and mollified, meets
# the stopping rule within one sweep for its metric and within 4 for its
# curvature pencil: the off-diagonal converges quadratically, also at
# repeated eigenvalues.
JACOBI_SWEEPS = 10


# Trailing lengths below which numpy's `reduce` of a ufunc over the last axis
# is a left-to-right chain (see `fold`).
_CHAIN_BELOW = {np.add: 8, np.maximum: 9, np.minimum: 9, np.logical_and: np.inf}


def fold(ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(a, axis=-1)`, bit for bit, as a left-to-right chain of
    elementwise calls over the planes a[..., k], for `add`, `maximum`,
    `minimum` and `logical_and` over float or bool arrays.

    numpy takes a slow path to reduce over a short trailing axis; the chain
    reads whole planes.  It starts from the ufunc's identity when it has
    one, so a row of -0.0 sums to +0.0 as reduce's does.  The chain only
    holds below the lengths in `_CHAIN_BELOW`: `add` folds fewer than 8
    entries (numpy sums 8 or more pairwise), `maximum` and `minimum` fewer
    than 9 (from 9 on numpy's vectorised loop can return the other signed
    zero of a row holding both).  Longer rows, 1-d input and empty rows go
    to `ufunc.reduce`.
    """
    a = np.asarray(a)
    if a.ndim < 2 or not 0 < a.shape[-1] < _CHAIN_BELOW[ufunc]:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy() if ufunc.identity is None else ufunc(ufunc.identity, a[..., 0])
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def erode_mask(mask: np.ndarray, steps: int) -> np.ndarray:
    """Shrink a validity mask by `steps` nodes in every direction (Chebyshev):
    a node stays valid when the whole (2 steps + 1)^n box around it is, nodes
    past the edge counting as invalid.  That box is the Minkowski sum of its
    axis segments, so this is exactly `steps` iterations of the 3^n binary
    erosion.

    One lattice axis at a time, as `logical_and` passes over flat views of a
    C-contiguous copy of the mask and one scratch array of its shape: a
    forward window of j nodes and its copy shifted by d <= j nodes (d times
    the axis's element stride) make a window of j + d.  Windows double
    (shifts 1, 2, 4, ... <= steps) up to the first power of two j > steps,
    then two overlapping windows, shifted by 2 steps + 1 - j, give the width
    2 steps + 1, written centred.  A window that reaches past the end of a
    line crosses into the next one, so its entry is junk; the junk entries
    are the nodes within `steps` of an end of the axis, which are invalid
    anyway (their box crosses the edge), and they are set False once, for
    every axis, after the last pass.  With 2 steps + 1 longer than an axis,
    no node is valid."""
    if steps <= 0:
        return np.array(mask, dtype=bool)
    out = np.array(mask, dtype=bool, order="C")
    if 2 * steps >= min(out.shape):
        return np.zeros_like(out)
    doublings, j = [], 1
    while j <= steps:
        doublings.append(j)
        j *= 2
    overlap = 2 * steps + 1 - j
    bufs = (out, np.empty_like(out))
    flats = (out.ravel(), bufs[1].ravel())  # views: both arrays are C-contiguous
    size, cur = out.size, 0
    for s in out.strides:  # a bool is one byte, so these are element strides
        for d in doublings:  # windows of d nodes -> 2d; `count` of them fit
            count = size - (2 * d - 1) * s
            src, cur = flats[cur], 1 - cur
            np.logical_and(src[:count], src[d * s:d * s + count], out=flats[cur][:count])
        count, start = size - 2 * steps * s, steps * s
        src, cur = flats[cur], 1 - cur
        np.logical_and(src[:count], src[overlap * s:overlap * s + count],
                       out=flats[cur][start:start + count])
    inner = (slice(steps, -steps),) * out.ndim
    eroded = bufs[1 - cur]
    eroded.fill(False)
    eroded[inner] = bufs[cur][inner]
    return eroded


def grow_box(a: np.ndarray, buf: np.ndarray, n: int) -> None:
    """In place: a[x] <- max of a over the 3^n box around x (clipped at the edges),
    the box over a's first n axes; trailing axes are fields taken side by side.

    Separable, one lattice axis at a time, as two `np.maximum` passes over
    flat views of the whole of a and buf, shifted by the axis's element
    stride s: buf[p] = max(a[p], a[p+s]), then a[p] = max(buf[p-s], buf[p]).
    A shift by s reaches the next node along the axis except from the
    axis's last plane, where it crosses into the next line: buf is junk
    there, and so is a on both end planes, which read it.  Those two planes
    are then rewritten from the pair buffer, a[0] = buf[0] and
    a[m-1] = buf[m-2], the box clipped at the edge.  Every other entry is
    max(max(a[i-1], a[i]), max(a[i], a[i+1])), operands in that order; max
    is exact, so the result is the clipped box max bit for bit, signed
    zeros included.

    a and buf must be C-contiguous arrays of one shape and dtype: a flat
    view of any other layout would be a copy, and the passes would grow the
    copy instead of a.  Either raises ValueError before a is written.
    """
    if buf.shape != a.shape or buf.dtype != a.dtype:
        raise ValueError(f"grow_box needs buf of a's shape and dtype {a.shape} {a.dtype}, "
                         f"got {buf.shape} {buf.dtype}")
    flat, pair = np.reshape(a, -1, copy=False), np.reshape(buf, -1, copy=False)
    size = flat.size
    for ax in range(n):
        s = math.prod(a.shape[ax + 1:])
        np.maximum(flat[:size - s], flat[s:], out=pair[:size - s])
        np.maximum(pair[:size - 2 * s], pair[s:size - s], out=flat[s:size - s])
        lead = (slice(None),) * ax
        a[lead + (0,)] = buf[lead + (0,)]
        a[lead + (-1,)] = buf[lead + (-2,)]


def first_node(bad: np.ndarray, shift: int = 0) -> tuple[int, ...]:
    """Index of the first True entry of a boolean grid, in C order, each
    entry plus `shift`: a window's `Lattice.trim`, so that a node of a
    window's arrays is named in its chart's grid."""
    return tuple(int(i) + shift for i in np.argwhere(bad)[0])


def pack_map(n: int) -> np.ndarray:
    """Packed position of entry (i, j) of a symmetric n x n matrix, an (n, n) integer
    array.  The packed order is `np.triu_indices(n)` order."""
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    return pos


def pack_symmetric(mats: np.ndarray) -> np.ndarray:
    """Packed components (trailing axis) of symmetric matrices, read from the upper
    triangle into one preallocated array (a fancy-indexed gather peaks higher)."""
    comps = np.empty(mats.shape[:-2] + (mats.shape[-1] * (mats.shape[-1] + 1) // 2,))
    for (i, j), k in np.ndenumerate(pack_map(mats.shape[-1])):
        if i <= j:
            comps[..., k] = mats[..., i, j]
    return comps


def unpack_symmetric(comps: np.ndarray, n: int) -> np.ndarray:
    """Full symmetric n x n matrices from packed components (trailing axis)."""
    return comps[..., pack_map(n)]


@dataclass(frozen=True)
class Lattice:
    """Uniform grid on the cube [-r, r]^n with m nodes per axis (m odd), or
    the centred window of it that cuts `trim` nodes from each end of every
    axis.

    A window keeps its chart's r, m and h, and its nodes are the chart's
    own, `axis_nodes` being a slice of the chart's: so coordinates,
    `ball_mask` and a kernel's taps have the chart's bits at every node of
    the window.  (A lattice Lattice(n, W h, 2 W + 1) rebuilt on the window
    would not: its nodes and spacing differ from the chart's in the last
    bits.)  `shape`, `coords` and `full_mask` are the window's; a stage
    reads the node count from its field's shape, and a refusal names a node
    as its index in the window plus `trim`, its index in the chart's grid.
    """

    n: int
    r: float
    m: int
    trim: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")
        if self.m < 5:
            raise ValueError(f"need at least 5 nodes per axis, got {self.m}")
        if self.m % 2 == 0:
            raise ValueError(f"points per axis must be odd, got {self.m}")
        if self.trim < 0 or self.m - 2 * self.trim < 5:
            raise ValueError(f"a window needs 0 <= trim and at least 5 nodes per axis, "
                             f"got trim={self.trim} of m={self.m}")

    @property
    def h(self) -> float:
        return 2.0 * self.r / (self.m - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m - 2 * self.trim,) * self.n

    def axis_nodes(self) -> np.ndarray:
        return np.linspace(-self.r, self.r, self.m)[self.trim:self.m - self.trim]

    def coords(self) -> np.ndarray:
        """Node coordinates, shape grid + (n,)."""
        axes = np.meshgrid(*([self.axis_nodes()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def full_mask(self) -> np.ndarray:
        return np.ones(self.shape, dtype=bool)

    def ball_mask(self, radius: float, norm: str = "euclid") -> np.ndarray:
        x = self.coords()
        if norm == "euclid":
            d = np.sqrt(fold(np.add, x**2))
        elif norm == "max":
            d = fold(np.maximum, np.abs(x))
        else:
            raise ValueError(f"unknown norm {norm!r}")
        return d <= radius + 1e-12


def make_lattice(n: int, r: float, m: int) -> Lattice:
    return Lattice(n=n, r=r, m=m)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """A scalar per node, or a stack of k scalar fields side by side on one
    mask: `values` has the lattice shape, or that shape plus one trailing
    field axis, the way a metric carries its component axis."""

    lattice: Lattice
    values: np.ndarray  # grid or grid + (k,)
    mask: np.ndarray

    def __post_init__(self):
        n = self.lattice.n
        if self.values.shape[:n] != self.lattice.shape or self.values.ndim > n + 1:
            raise ValueError("value array does not match lattice shape")
        if self.mask.shape != self.lattice.shape:
            raise ValueError("mask array does not match lattice shape")
        object.__setattr__(self, "values", _freeze(self.values.astype(float)))
        object.__setattr__(self, "mask", _freeze(self.mask.astype(bool)))
        bad = ~np.isfinite(self.values)
        if bad.any():
            node = first_node(bad)  # a stack's field index follows the node, as it is
            node = tuple(i + self.lattice.trim for i in node[:n]) + node[n:]
            raise ValueError(f"non-finite scalar value at node {node}")

    def sup_norm(self) -> float | np.ndarray:
        """max |f| over the mask, one value per field of a stack (a float
        for a single field)."""
        sup = np.abs(self.values[self.mask]).max(axis=0)
        return sup if sup.ndim else float(sup)


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix per node, stored packed (n(n+1)/2 entries in `pack_map`
    order).  Construction writes the identity on the nodes off the mask, so
    pointwise inversion and diagonalisation are defined everywhere."""

    lattice: Lattice
    comps: np.ndarray  # grid + (n(n+1)/2,)
    mask: np.ndarray

    def __post_init__(self):
        n = self.lattice.n
        nc = n * (n + 1) // 2
        if self.comps.shape != self.lattice.shape + (nc,):
            raise ValueError("component array does not match lattice shape")
        mask = _freeze(self.mask.astype(bool))
        eye = pack_symmetric(np.eye(n))
        object.__setattr__(self, "comps", _freeze(np.where(mask[..., None], self.comps, eye)))
        object.__setattr__(self, "mask", mask)
        if not np.isfinite(self.comps).all():  # one whole-array pass; the node only on failure
            bad = ~np.isfinite(self.comps).all(axis=-1)
            raise ValueError(f"non-finite metric component at masked-valid node "
                             f"{first_node(bad, self.lattice.trim)}")


def jacobi_eigenvalues(C: np.ndarray, stage: str, mask: np.ndarray | None = None,
                       shift: int = 0) -> np.ndarray:
    """Ascending eigenvalues of symmetric 3 x 3 matrices held as planes, shape
    C.shape[1:] + (3,).  C holds the six packed entries along axis 0, in
    `pack_map` order, one plane each, and is diagonalised, as flat planes
    and in place where it is C-contiguous, by the cyclic Jacobi method over
    the pairs (0, 1), (0, 2), (1, 2), vectorised over nodes; a compare-swap
    network sorts the diagonal.

    A node rotates while |C_01| + |C_02| + |C_12| > eps (|C_00| + |C_11| +
    |C_22|).  The rotation of pair (p, q) takes t = tan(phi) =
    sgn(x) / (|x| + sqrt(x^2 + 1)), x = (C_qq - C_pp) / (2 C_pq), the
    smaller root, and sets C_pq to exactly 0.  A node that meets the rule
    divides by 0 instead of 2 C_pq, so that, like a pair whose C_pq = 0, it
    gets x = +-inf and t = 0 (or x = 0/0 where also C_qq = C_pp, whose NaN
    t is taken as 0), which leaves every entry's value as it is: each
    node's values depend on its own entries alone, and after the sort's
    `+ 0.0` its bits do too, so any batch of nodes gets the same bits.

    The planes hold the nodes of a grid: all of it, or with `mask` the
    True nodes of `mask` in C order, as `a[mask]` gathers them.  A node
    that still fails the rule after JACOBI_SWEEPS sweeps raises ValueError
    naming `stage` and the node in that grid, each index plus `shift` (a
    window's `Lattice.trim`).
    """
    P = pack_map(3)
    eps = np.finfo(float).eps
    shape = C.shape[1:]
    C = C.reshape(6, -1)  # an entry of 0-d planes would be a scalar, not a view
    # the sweeps allocate nothing: t and cos take the rule's two sums
    x, t, cos, sin, prod, twice, keep = (np.empty(C.shape[1:]) for _ in range(7))
    active = np.empty(C.shape[1:], dtype=bool)
    for sweep in range(JACOBI_SWEEPS + 1):
        for total, (i, j, k) in ((t, (P[0, 1], P[0, 2], P[1, 2])), (cos, P.diagonal())):
            np.abs(C[i], out=total)
            total += np.abs(C[j], out=x)
            total += np.abs(C[k], out=x)
        np.greater(t, np.multiply(cos, eps, out=x), out=active)
        if not active.any():
            break
        if sweep == JACOBI_SWEEPS:
            where = np.ones(shape, dtype=bool) if mask is None else mask
            bad = np.zeros(where.shape, dtype=bool)
            bad[where] = active
            raise ValueError(f"{stage}: Jacobi method not converged after {JACOBI_SWEEPS} "
                             f"sweeps at node {first_node(bad, shift)}")
        np.multiply(active, 2.0, out=twice)
        np.subtract(1.0, active, out=keep)
        for p, q in ((0, 1), (0, 2), (1, 2)):
            pp, qq, pq = C[P[p, p]], C[P[q, q]], C[P[p, q]]
            rp, rq = C[P[3 - p - q, p]], C[P[3 - p - q, q]]
            np.subtract(qq, pp, out=x)
            np.multiply(pq, twice, out=t)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x /= t
                np.multiply(x, x, out=t)
            t += 1.0
            np.sqrt(t, out=t)
            t += np.abs(x, out=cos)
            np.reciprocal(t, out=t)
            np.fmax(t, 0.0, out=t)                       # 0/0 gave nan
            np.copysign(t, x, out=t)
            np.multiply(t, t, out=cos)
            cos += 1.0
            np.sqrt(cos, out=cos)
            np.reciprocal(cos, out=cos)
            np.multiply(t, cos, out=sin)
            np.multiply(t, pq, out=prod)
            pp -= prod
            qq += prod
            pq *= keep
            np.multiply(sin, rq, out=prod)
            np.multiply(sin, rp, out=x)
            rp *= cos
            rp -= prod
            rq *= cos
            rq += x
    # + 0.0 writes a zero as +0.0, whichever sign a rotation left it
    a, b, c = (C[k] for k in P.diagonal())
    for d in (a, b, c):
        d += 0.0
    eigs = np.empty(C.shape[1:] + (3,))
    lo, hi = np.minimum(a, b, out=x), np.maximum(a, b, out=t)
    np.maximum(hi, c, out=eigs[..., 2])
    np.minimum(hi, c, out=hi)
    np.minimum(lo, hi, out=eigs[..., 0])
    np.maximum(lo, hi, out=eigs[..., 1])
    return eigs.reshape(shape + (3,))


def packed_eigenvalues(comps: np.ndarray, n: int, stage: str, shift: int = 0) -> np.ndarray:
    """Ascending eigenvalues of packed symmetric n x n components (trailing
    axis), shape comps.shape[:-1] + (n,); each node's are computed from its
    own components alone, so any batch of nodes gets the same bits.

    In 2-d the larger root is (a+c)/2 + hypot((a-c)/2, b) and the smaller
    one det/top, which keeps its relative accuracy when it is tiny.  In 3-d
    `jacobi_eigenvalues` runs on a copy of the six component planes, naming
    `stage` and the node, each index plus `shift`, if it refuses one;
    LAPACK (`eigvalsh`) for n >= 4.

    Jacobi's stopping rule puts each eigenvalue within a small multiple of
    eps max|lam| of the exact one, the bound that the metric verdict
    (`check_eigenvalues`) and `certify_definite`'s slack rely on.  The
    off-diagonal part E left at the stop has |E|_2 <= sqrt(2) (|C_01| +
    |C_02| + |C_12|) <= 3 sqrt(2) eps max|lam|, so by Weyl's inequality the
    diagonal is that close to the eigenvalues of the rotated matrix, and
    each rotation is backward stable, moving them by a few eps max|lam|
    more (J. Demmel and K. Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).
    Measured against LAPACK: within 8 eps max|lam| on SPD matrices up to
    cond 1e10 and on adversarial ones, save where the entries span
    1e-300 ... 1e300 and LAPACK itself errs.
    """
    if n == 3:
        return jacobi_eigenvalues(np.moveaxis(comps, -1, 0).copy(), stage, shift=shift)
    if n > 3:
        return np.linalg.eigvalsh(unpack_symmetric(comps, n))
    a, b, c = np.moveaxis(comps, -1, 0)
    eigs = np.empty(a.shape + (2,))
    low, top = eigs[..., 0], eigs[..., 1]
    np.hypot(0.5 * (a - c), b, out=top)
    top += 0.5 * (a + c)
    # det/top needs top > 0; otherwise both roots are <= 0 and the
    # trace gives the smaller one without cancellation
    np.subtract(a + c, top, out=low)
    np.divide(packed_det(comps, 2), top, out=low, where=top > 0.0)
    # fl(a*a)/a can exceed a by an ulp: conformal metrics (a = c, b = 0)
    np.minimum(low, top, out=low)
    return eigs


def _schur_g00(p) -> tuple:
    """One LDL^T elimination step on g_00 of packed 3-d components
    p = (a, b, c, d, e, f): the multipliers (b/a, c/a) and the Schur
    complement (s11, s12, s22), s_ij = g_ij - g_i0 g_0j / g_00.  The one
    elimination path of `packed_det` and `ldl_planes`."""
    a, b, c, d, e, f = p
    ba, ca = b / a, c / a
    return ba, ca, d - b * ba, e - b * ca, f - c * ca


def ldl_planes(p) -> tuple:
    """LDL^T without pivoting of packed 3-d symmetric components held as six
    planes p = (a, b, c, d, e, f), in `pack_map` order: the multipliers
    (l10, l20, l21) = (b/a, c/a, s12/s11) of the unit lower factor and the
    pivots (a, s11, s22 - s12 l21), with the Schur complement from
    `_schur_g00`.  A zero pivot gives inf or nan, with numpy's warnings."""
    l10, l20, s11, s12, s22 = _schur_g00(p)
    l21 = s12 / s11
    return (l10, l20, l21), (p[0], s11, s22 - s12 * l21)


def ldl_pivots(comps: np.ndarray) -> tuple:
    """The pivots of LDL^T without pivoting of packed 2-d or 3-d symmetric
    components (trailing axis): (a, c - b^2/a) in 2-d, and those of
    `ldl_planes` in 3-d.  A zero pivot gives inf or nan, with numpy's
    warnings."""
    p = np.moveaxis(comps, -1, 0)
    if len(p) == 3:
        a, b, c = p
        return a, c - b * (b / a)
    return ldl_planes(p)[1]


def packed_det(comps: np.ndarray, n: int) -> np.ndarray:
    """Determinants of packed symmetric n x n components (trailing axis): a c - b^2
    in 2-d; in 3-d g_00 times the determinant of the Schur complement after one
    elimination step on g_00 (`_schur_g00`), (a d - b^2) s22 - a s12^2, whose
    relative error stays near eps * cond where the cofactor expansion loses up
    to eps * cond^2 (the step needs g_00 != 0, as positive-definite metrics
    have); LAPACK for n >= 4."""
    if n > 3:
        return np.linalg.det(unpack_symmetric(comps, n))
    p = np.moveaxis(comps, -1, 0)
    if n == 2:
        return p[0] * p[2] - p[1] * p[1]
    *_, s12, s22 = _schur_g00(p)
    return (p[0] * p[3] - p[1] * p[1]) * s22 - p[0] * s12 * s12


def inverse_planes(comps: np.ndarray, n: int, shift: int = 0, det=None) -> np.ndarray:
    """Inverse matrices of packed symmetric n x n components (trailing axis),
    plane-major: an array (n, n) + comps.shape[:-1] whose (i, j) entry is
    one contiguous plane.  For n <= 3 the adjugate, from the n(n+1)/2
    cofactors, over `packed_det` (or over `det`, that array when the caller
    already has it); LAPACK for n >= 4 (then a view of its node-major
    result).  A zero g_00 (3-d) or determinant raises LinAlgError naming
    the first such node, each index plus `shift` (the offset of a cropped
    block in its grid)."""
    if n > 3:
        return np.moveaxis(np.linalg.inv(unpack_symmetric(comps, n)), (-2, -1), (0, 1))
    p = np.moveaxis(comps, -1, 0)
    out = np.empty((n, n) + p.shape[1:])
    if n == 2:
        a, b, c = p
        out[0, 0] = c
        out[1, 1] = a
        np.negative(b, out=out[0, 1])
        out[1, 0] = out[0, 1]
    else:
        a, b, c, d, e, f = p
        cofactors = {(0, 0): (d, f, e, e), (0, 1): (c, e, b, f),
                     (0, 2): (b, e, c, d), (1, 1): (a, f, c, c),
                     (1, 2): (b, c, a, e), (2, 2): (a, d, b, b)}
        for (i, j), (w, x, y, z) in cofactors.items():
            cof = out[i, j]
            np.multiply(w, x, out=cof)
            cof -= y * z
            out[j, i] = cof
        _raise_at(a == 0.0, "metric has g_00 = 0", shift)
    det = packed_det(comps, n) if det is None else det
    _raise_at(det == 0.0, "singular metric", shift)
    out /= det
    return out


def _raise_at(bad: np.ndarray, what: str, shift: int = 0) -> None:
    if bad.any():
        node = first_node(bad, int(shift))
        raise np.linalg.LinAlgError(f"{what} at node {node}")


Field = ScalarField | MetricField


def sample_scalar(fn, lattice: Lattice) -> ScalarField:
    values = np.asarray(fn(lattice.coords()), dtype=float)
    if values.shape != lattice.shape:
        raise ValueError("scalar generator returned wrong shape")
    return ScalarField(lattice=lattice, values=values, mask=lattice.full_mask())


def certify_definite(comps: np.ndarray) -> np.ndarray:
    """Nodes of packed 2-d or 3-d symmetric components (trailing axis) proven
    positive definite with condition number at most COND_LIMIT / 1e2, a
    boolean grid: every LDL^T pivot (`ldl_pivots`) is > 0, tr(g)^n is a
    finite normal number, and tr(g)^n <= (COND_LIMIT / 1e2) * prod(pivots),
    the product taken left to right.

    Sound: a node this passes, the eigenvalue check passes.  In exact
    arithmetic prod(pivots) = det g >= lam_min lam_max^(n-1) and
    tr g >= lam_max, so tr^n <= K det gives cond <= K.  In floating point,
    Cholesky and LDL^T are backward stable (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3): positive computed pivots are the
    exact pivots of g + E with |E|_2 <= (n+1) eps tr g.  So g + E is
    positive definite with lam_min >= tr / (K (1 + n eps)), g has
    lam_min >= tr (1/K - (n+1) eps) and cond <= ~1e10, and the factor 1e2
    left over absorbs the eigenvalue solver's own round-off, a few
    eps lam_max (`packed_eigenvalues`).  A computed pivot after positive
    ones is at most its diagonal entry, hence at most
    tr: with tr^n finite only the last product can overflow, which leaves
    the inequality true, and with tr^n normal a passing node has every
    pivot >= tr / K, far above the underflow that could move it by a
    relative eps.  tr(g) tr(g^-1) is no such bound: it reads the sum of the
    2 x 2 minors, which cancels on near-rank-1 matrices.
    """
    with np.errstate(all="ignore"):
        pivots = ldl_pivots(comps)
        n = len(pivots)
        power = fold(np.add, comps[..., pack_map(n).diagonal()]) ** n
        bound = COND_LIMIT / 1e2 * pivots[0]
        ok = pivots[0] > 0.0
        for piv in pivots[1:]:
            bound *= piv
            ok &= piv > 0.0
    return ok & (power >= np.finfo(float).tiny) & (power < np.inf) & (power <= bound)


def check_eigenvalues(eigs: np.ndarray, stage: str, shift: int = 0) -> None:
    """Refuse, naming `stage` and the first bad node (each index plus `shift`),
    unless each node's ascending eigenvalues `eigs` (grid + (n,)) have
    lam_min > 0 and cond <= COND_LIMIT."""
    bad = ~(eigs[..., 0] > 0.0)
    if bad.any():
        raise ValueError(f"{stage}: metric not positive-definite at node "
                         f"{first_node(bad, shift)}")
    cond = eigs[..., -1] / eigs[..., 0]
    ill = ~(cond <= COND_LIMIT)
    if ill.any():
        node = first_node(ill)
        raise ValueError(f"{stage}: metric condition number {cond[node]:.3g} exceeds "
                         f"1e12 at node {first_node(ill, shift)}")


def check_definite(g: MetricField, stage: str) -> None:
    """Check that every node is positive definite with condition number at
    most COND_LIMIT (nodes off the mask hold the identity).  For n <= 3
    `certify_definite` decides the nodes in closed form; only when it leaves
    some node undecided, and for n >= 4, the eigenvalues decide
    (`check_eigenvalues`).  A refused node is named in the chart's grid."""
    lat = g.lattice
    if lat.n > 3 or not certify_definite(g.comps).all():
        check_eigenvalues(packed_eigenvalues(g.comps, lat.n, stage, lat.trim), stage, lat.trim)


def sample_metric(fn, lattice: Lattice) -> MetricField:
    """The checked metric whose packed components (grid + (n(n+1)/2,), in
    `pack_map` order) the generator `fn` returns at the node coordinates."""
    comps = np.asarray(fn(lattice.coords()), dtype=float)
    n = lattice.n
    if comps.shape != lattice.shape + (n * (n + 1) // 2,):
        raise ValueError("metric generator returned wrong shape")
    g = MetricField(lattice=lattice, comps=comps, mask=lattice.full_mask())
    check_definite(g, "sample_metric")
    return g


# ---------------------------------------------------------------------------
# finite differences

def central_diff(values: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """Second-order central first derivative along `axis` (into `out` when
    given): (next - prev) / 2h on the interior, both end entries 0."""
    axis %= values.ndim
    lead = (slice(None),) * axis
    out = np.empty(values.shape) if out is None else out
    np.subtract(values[lead + (slice(2, None),)], values[lead + (slice(None, -2),)],
                out=out[lead + (slice(1, -1),)])
    out[lead + (0,)] = out[lead + (-1,)] = 0.0
    out /= 2.0 * h
    return out


def central_diff2(values: np.ndarray, axis: int, h: float, out=None) -> np.ndarray:
    """Three-point second derivative along `axis` (into `out` when given),
    summed (next - 2 v) + prev, over h^2, on the interior; both end entries 0."""
    axis %= values.ndim
    lead = (slice(None),) * axis
    out = np.empty(values.shape) if out is None else out
    at = out[lead + (slice(1, -1),)]
    np.multiply(values[lead + (slice(1, -1),)], 2.0, out=at)
    np.subtract(values[lead + (slice(2, None),)], at, out=at)
    at += values[lead + (slice(None, -2),)]
    out[lead + (0,)] = out[lead + (-1,)] = 0.0
    out /= h**2
    return out


def _jet_blocks(values: np.ndarray, n: int, h: float, order: int) -> list[np.ndarray]:
    """Derivative blocks of `values` along its first n axes, each with one
    trailing derivative axis appended.

    Block k has shape values.shape + (C(n+k-1, k),), one entry per sorted
    multi-index x_1 <= ... <= x_k in `itertools.combinations_with_replacement`
    order, taken once, as d_{x_k} of block k-1's entry (x_1 ... x_{k-1});
    the pure second derivatives come from the compact 3-point stencil.
    Block 0 is values itself, and block 2 is in `pack_map` order, each mixed
    partial nested as the Riemann slab builder nests it.
    """
    blocks = [values]
    for k in range(1, order + 1):
        prev = {xs: j for j, xs in enumerate(combinations_with_replacement(range(n), k - 1))}
        plan = list(combinations_with_replacement(range(n), k))
        dk = np.empty(values.shape + (len(plan),))
        for j, xs in enumerate(plan):
            if k == 2 and xs[0] == xs[1]:
                central_diff2(values, xs[0], h, out=dk[..., j])
            else:
                src = values if k == 1 else blocks[-1][..., prev[xs[:-1]]]
                central_diff(src, xs[-1], h, out=dk[..., j])
        blocks.append(dk)
    return blocks


@dataclass(frozen=True)
class JetField:
    """All partial derivatives of a field up to a given order.

    For a scalar base, block k has shape grid + (C(n+k-1, k),), one entry
    per sorted multi-index in `itertools.combinations_with_replacement`
    order (see `_jet_blocks`).  For a metric base, block k has shape
    grid + (n(n+1)/2, C(n+k-1, k)): the packed component axis, in
    `pack_map` order, comes before the derivative axis.
    """

    blocks: tuple = field(repr=False)
    mask: np.ndarray = field(repr=False)


def differentiate(f: Field, order: int) -> JetField:
    lat = f.lattice
    m = f.mask.shape[0]  # a window's nodes per axis
    if order < 0:
        raise ValueError("order must be non-negative")
    if m < 2 * order + 1:
        raise ValueError(f"order {order} too high for lattice with m={m}")
    # the stencils act on grid axes only, so a metric's component axis rides along
    values = f.values if isinstance(f, ScalarField) else f.comps
    raw = _jet_blocks(values, lat.n, lat.h, order)
    mask = erode_mask(f.mask, order)
    blocks = tuple(_freeze(b) for b in raw)
    return JetField(blocks=blocks, mask=_freeze(mask))

