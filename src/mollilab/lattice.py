"""Uniform Cartesian sampling grids, tensor fields, and finite differences.

All fields live on the cube [-r, r]^n sampled with an odd number of nodes
per axis so the origin is always a node.  Validity masks shrink instead of
falling back to one-sided stencils; every operation's output mask is a
subset of its input mask.  A metric is stored once, as its packed
components in `pack_map` order with the identity written off the mask at
construction; every stage reads and writes that array, and pointwise
algebra never pads by hand.  For n <= 3 the inverse is the adjugate over
the determinant and the 2-d eigenvalues are the closed-form roots, read
straight from the packed components; batched LAPACK is kept for the 3-d
eigenvalues and for n >= 4.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage


def _box_structure(n: int) -> np.ndarray:
    return np.ones((3,) * n, dtype=bool)


def erode_mask(mask: np.ndarray, steps: int) -> np.ndarray:
    """Shrink a validity mask by `steps` nodes in every direction (Chebyshev)."""
    if steps <= 0:
        return mask.copy()
    return ndimage.binary_erosion(
        mask, structure=_box_structure(mask.ndim), iterations=steps, border_value=0
    )


def first_node(bad: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of a boolean grid, in C order."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


def pack_map(n: int) -> np.ndarray:
    """Packed position of entry (i, j) of a symmetric n x n matrix, an (n, n) integer
    array.  The packed order is `np.triu_indices(n)` order; `curvature._fold` relies on it."""
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
    """Uniform grid on the cube [-r, r]^n with m nodes per axis (m odd)."""

    n: int
    r: float
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got {self.r}")
        if self.m < 5:
            raise ValueError(f"need at least 5 nodes per axis, got {self.m}")
        if self.m % 2 == 0:
            raise ValueError(f"points per axis must be odd, got {self.m}")

    @property
    def h(self) -> float:
        return 2.0 * self.r / (self.m - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    @property
    def origin_index(self) -> tuple[int, ...]:
        return ((self.m - 1) // 2,) * self.n

    def axis_nodes(self) -> np.ndarray:
        return np.linspace(-self.r, self.r, self.m)

    def coords(self) -> np.ndarray:
        """Node coordinates, shape grid + (n,)."""
        axes = np.meshgrid(*([self.axis_nodes()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def full_mask(self) -> np.ndarray:
        return np.ones(self.shape, dtype=bool)

    def ball_mask(self, radius: float, norm: str = "euclid") -> np.ndarray:
        x = self.coords()
        if norm == "euclid":
            d = np.sqrt((x**2).sum(axis=-1))
        elif norm == "max":
            d = np.abs(x).max(axis=-1)
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
    lattice: Lattice
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.lattice.shape:
            raise ValueError("value array does not match lattice shape")
        if self.mask.shape != self.lattice.shape:
            raise ValueError("mask array does not match lattice shape")
        object.__setattr__(self, "values", _freeze(self.values.astype(float)))
        object.__setattr__(self, "mask", _freeze(self.mask.astype(bool)))
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValueError("non-finite value on a masked-valid node")

    def sup_norm(self) -> float:
        return float(np.abs(self.values[self.mask]).max())


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
        if not np.isfinite(self.comps).all():
            raise ValueError("non-finite metric component on a masked-valid node")

    @classmethod
    def from_matrices(cls, lattice: Lattice, mats: np.ndarray, mask: np.ndarray) -> "MetricField":
        asym = np.abs(mats - np.swapaxes(mats, -1, -2))
        scale = np.abs(mats).max() or 1.0
        if mask.any() and asym[mask].max() > 1e-12 * scale:
            raise ValueError("metric matrices are not symmetric")
        return cls(lattice=lattice, comps=pack_symmetric(mats), mask=mask)

    def matrices(self) -> np.ndarray:
        """Full symmetric matrices, shape grid + (n, n), a fresh array; the
        identity off the mask, so mask the result to read only valid data."""
        return unpack_symmetric(self.comps, self.lattice.n)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues at every node (ones off the mask), grid + (n,).

        In 2-d the larger root is (a+c)/2 + hypot((a-c)/2, b) and the smaller
        one det/top, which keeps its relative accuracy when it is tiny.
        """
        if self.lattice.n != 2:
            return np.linalg.eigvalsh(self.matrices())
        a, b, c = np.moveaxis(self.comps, -1, 0)
        eigs = np.empty(a.shape + (2,))
        low, top = eigs[..., 0], eigs[..., 1]
        np.hypot(0.5 * (a - c), b, out=top)
        top += 0.5 * (a + c)
        # det/top needs top > 0; otherwise both roots are <= 0 and the
        # trace gives the smaller one without cancellation
        np.subtract(a + c, top, out=low)
        np.divide(a * c - b * b, top, out=low, where=top > 0.0)
        # fl(a*a)/a can exceed a by an ulp: conformal metrics (a = c, b = 0)
        np.minimum(low, top, out=low)
        return eigs

    def inverse(self) -> np.ndarray:
        """Inverse matrices at every node (identity off the mask), grid + (n, n).

        For n <= 3 the adjugate over the determinant, from the n(n+1)/2
        cofactors of the symmetric matrix.  In 3-d the determinant is taken
        after one elimination step on g_00, as g_00 times the determinant
        of the 2 x 2 Schur complement: its relative error stays near
        eps * cond, where the cofactor expansion loses up to eps * cond^2.
        That step needs g_00 != 0, which holds for positive-definite
        metrics; a zero g_00 or determinant on the mask raises LinAlgError.
        Recomputed on every call; nothing is cached on the field.
        """
        n = self.lattice.n
        if n > 3:
            return np.linalg.inv(self.matrices())
        p = np.moveaxis(self.comps, -1, 0)
        out = np.empty(p.shape[1:] + (n, n))
        if n == 2:
            a, b, c = p
            out[..., 0, 0] = c
            out[..., 1, 1] = a
            np.negative(b, out=out[..., 0, 1])
            out[..., 1, 0] = out[..., 0, 1]
            det = a * c - b * b
        else:
            a, b, c, d, e, f = p
            cofactors = {(0, 0): (d, f, e, e), (0, 1): (c, e, b, f),
                         (0, 2): (b, e, c, d), (1, 1): (a, f, c, c),
                         (1, 2): (b, c, a, e), (2, 2): (a, d, b, b)}
            for (i, j), (w, x, y, z) in cofactors.items():
                cof = out[..., i, j]
                np.multiply(w, x, out=cof)
                cof -= y * z
                out[..., j, i] = cof
            _raise_at(a == 0.0, "metric has g_00 = 0")
            t = e - b * (c / a)
            det = out[..., 2, 2] * (f - c * (c / a)) - a * t * t
        _raise_at(det == 0.0, "singular metric")
        out /= det[..., None, None]
        return out


def _raise_at(bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise np.linalg.LinAlgError(f"{what} at node {first_node(bad)}")


Field = ScalarField | MetricField


def sample_scalar(fn, lattice: Lattice) -> ScalarField:
    values = np.asarray(fn(lattice.coords()), dtype=float)
    if values.shape != lattice.shape:
        raise ValueError("scalar generator returned wrong shape")
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"non-finite scalar value at node {first_node(bad)}")
    return ScalarField(lattice=lattice, values=values, mask=lattice.full_mask())


def sample_metric(fn, lattice: Lattice) -> MetricField:
    mats = np.asarray(fn(lattice.coords()), dtype=float)
    n = lattice.n
    if mats.shape != lattice.shape + (n, n):
        raise ValueError("metric generator returned wrong shape")
    bad = ~np.isfinite(mats).all(axis=(-2, -1))
    if bad.any():
        raise ValueError(f"non-finite metric value at node {first_node(bad)}")
    eigs = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    not_pd = eigs[..., 0] <= 0.0
    if not_pd.any():
        raise ValueError(f"metric not positive-definite at node {first_node(not_pd)}")
    return MetricField.from_matrices(lattice, mats, lattice.full_mask())


# ---------------------------------------------------------------------------
# finite differences

def central_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central first derivative; edge entries are garbage."""
    return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)


def central_diff2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Three-point second derivative along one axis; edge entries are garbage."""
    return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h**2


def _jet_blocks(values: np.ndarray, n: int, h: float, order: int) -> list[np.ndarray]:
    """Derivative blocks with trailing derivative axes appended.

    Block k has shape values.shape + (n,)*k.  Mixed partials are nested
    central differences, so index-permutation symmetry is exact.
    """
    blocks = [values.copy()]
    if order >= 1:
        d1 = np.stack([central_diff(values, ax, h) for ax in range(n)], axis=-1)
        blocks.append(d1)
    for k in range(2, order + 1):
        prev = blocks[k - 1]
        dk = np.stack([central_diff(prev, ax, h) for ax in range(n)], axis=-1)
        if k == 2:
            # pure second derivatives via the compact 3-point stencil
            for ax in range(n):
                dk[..., ax, ax] = central_diff2(values, ax, h)
        blocks.append(dk)
    return blocks


@dataclass(frozen=True)
class JetField:
    """All partial derivatives of a field up to a given order.

    For a scalar base, block k has shape grid + (n,)*k.  For a metric
    base, block k has shape grid + (n(n+1)/2,) + (n,)*k: the packed
    component axis, in `pack_map` order, comes before the derivative axes,
    which are appended in differentiation order.
    """

    blocks: tuple = field(repr=False)
    mask: np.ndarray = field(repr=False)


def differentiate(f: Field, order: int) -> JetField:
    lat = f.lattice
    if order < 0:
        raise ValueError("order must be non-negative")
    if lat.m < 2 * order + 1:
        raise ValueError(f"order {order} too high for lattice with m={lat.m}")
    # roll acts on grid axes only, so a metric's component axis stays in front
    values = (np.where(f.mask, f.values, 0.0) if isinstance(f, ScalarField)
              else np.where(f.mask[..., None], f.comps, 0.0))
    raw = _jet_blocks(values, lat.n, lat.h, order)
    mask = erode_mask(f.mask, order)
    blocks = tuple(_freeze(b) for b in raw)
    return JetField(blocks=blocks, mask=_freeze(mask))

