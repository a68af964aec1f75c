"""Uniform Cartesian sampling grids, tensor fields, and finite differences.

All fields live on the cube [-r, r]^n sampled with an odd number of nodes
per axis so the origin is always a node.  Validity masks shrink instead of
falling back to one-sided stencils; every operation's output mask is a
subset of its input mask.  Pointwise metric algebra (full matrices,
eigenvalues, inverse) goes through `MetricField.matrices`, which pads the
nodes off the mask with the identity, so callers never pad by hand.
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


def pack_indices(n: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs used for packed symmetric storage."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def unpack_symmetric(comps: np.ndarray, n: int) -> np.ndarray:
    """Full symmetric n x n matrices from packed components (trailing axis)."""
    mats = np.empty(comps.shape[:-1] + (n, n))
    for k, (i, j) in enumerate(pack_indices(n)):
        mats[..., i, j] = comps[..., k]
        mats[..., j, i] = comps[..., k]
    return mats


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
    """Symmetric matrix per node, stored packed (n(n+1)/2 entries)."""

    lattice: Lattice
    comps: np.ndarray  # grid + (n(n+1)/2,)
    mask: np.ndarray

    def __post_init__(self):
        n = self.lattice.n
        nc = n * (n + 1) // 2
        if self.comps.shape != self.lattice.shape + (nc,):
            raise ValueError("component array does not match lattice shape")
        object.__setattr__(self, "comps", _freeze(self.comps.astype(float)))
        object.__setattr__(self, "mask", _freeze(self.mask.astype(bool)))
        if not np.all(np.isfinite(self.comps[self.mask])):
            raise ValueError("non-finite metric component on a masked-valid node")

    @classmethod
    def from_matrices(cls, lattice: Lattice, mats: np.ndarray, mask: np.ndarray,
                      symmetry_tol: float = 1e-12) -> "MetricField":
        n = lattice.n
        asym = np.abs(mats - np.swapaxes(mats, -1, -2))
        scale = np.abs(mats).max() or 1.0
        if mask.any() and asym[mask].max() > symmetry_tol * scale:
            raise ValueError("metric matrices are not symmetric")
        comps = np.stack([mats[..., i, j] for i, j in pack_indices(n)], axis=-1)
        return cls(lattice=lattice, comps=comps, mask=mask)

    def matrices(self) -> np.ndarray:
        """Full symmetric matrices, shape grid + (n, n), a fresh array.

        Nodes off the mask hold the identity, so pointwise inversion and
        diagonalisation are defined everywhere; mask the result to read
        only valid data.
        """
        n = self.lattice.n
        mats = unpack_symmetric(self.comps, n)
        mats[~self.mask] = np.eye(n)
        return mats

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues at every node (ones off the mask), grid + (n,)."""
        return np.linalg.eigvalsh(self.matrices())

    def inverse(self) -> np.ndarray:
        """Inverse matrices at every node (identity off the mask), grid + (n, n).

        Recomputed on every call; nothing is cached on the field.
        """
        return np.linalg.inv(self.matrices())


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
    base, block k has shape grid + (n, n) + (n,)*k with the matrix axes
    first; derivative axes are appended in differentiation order.
    """

    base: Field
    order: int
    blocks: tuple = field(repr=False, default=())
    mask: np.ndarray = field(repr=False, default=None)


def differentiate(f: Field, order: int) -> JetField:
    lat = f.lattice
    if order < 0:
        raise ValueError("order must be non-negative")
    if lat.m < 2 * order + 1:
        raise ValueError(f"order {order} too high for lattice with m={lat.m}")
    if isinstance(f, ScalarField):
        values = np.where(f.mask, f.values, 0.0)
        raw = _jet_blocks(values, lat.n, lat.h, order)
    else:
        # move matrix axes in front of derivative axes by differentiating
        # the matrix-valued array directly; roll acts on grid axes only
        mats = np.where(f.mask[..., None, None], f.matrices(), 0.0)
        raw = _jet_blocks(mats, lat.n, lat.h, order)
    mask = erode_mask(f.mask, order)
    blocks = tuple(_freeze(b) for b in raw)
    return JetField(base=f, order=order, blocks=blocks, mask=_freeze(mask))


def convergence_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)
