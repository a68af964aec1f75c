"""Node-major views of the Riemann builder's pieces and of the pencil,
read only by the tests.

`slab_parts` returns the Hessian part A and the remainder B of one slab
from the builder's own `_slab_planes`; `s_tensor` forms S_mkl node-major,
the reference for the sums the builder takes plane by plane.
`lapack_spectrum` solves the pencil (R, Lambda^2 g) on full matrices by
LAPACK, the reference for `sec_spectrum`'s plane-major Jacobi solve.
"""
import numpy as np

from mollilab.curvature import RiemannField, _slab_planes
from mollilab.lattice import MetricField, pack_map


def s_tensor(dg: np.ndarray) -> np.ndarray:
    """S_{m k l} = g_{mk,l} + g_{ml,k} - g_{kl,m} from dg[...,i,j,a] = d_a g_ij,
    node-major; the slab builder forms the same sums plane by plane."""
    return (dg                         # g_{mk,l}
            + np.swapaxes(dg, -2, -1)  # g_{ml,k}
            - np.moveaxis(dg, -1, -3))  # g_{kl,m}


def slab_parts(g: MetricField, ginv: np.ndarray, i0: int, i1: int):
    """(A, B), each symmetric by construction, on the planes i0 <= i < i1
    along axis 0 of g, node-major: slab + (N, N)."""
    planes = _slab_planes(g.comps, ginv, g.lattice.h, i0, i1)
    return tuple(np.moveaxis(x, (0, 1), (-2, -1)) for x in planes)


def pair_axes(n: int):
    """Index arrays (a, b, c, d) over (I, J), shapes (N, 1) and (1, N)."""
    a, b = np.triu_indices(n, 1)
    return a[:, None], b[:, None], a[None, :], b[None, :]


def lambda2(comps: np.ndarray, n: int) -> np.ndarray:
    """Lambda^2 of packed symmetric n x n components (trailing axis), as full
    N x N matrices, (Lambda^2 g)_IJ = g_ac g_bd - g_ad g_bc, each entry read
    through `pack_map`."""
    a, b, c, d = pair_axes(n)
    P = pack_map(n)
    return comps[..., P[a, c]] * comps[..., P[b, d]] - comps[..., P[a, d]] * comps[..., P[b, c]]


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of lower-triangular 3 x 3 matrices by forward substitution; any
    other trailing shape raises ValueError."""
    if L.shape[-2:] != (3, 3):
        raise ValueError(f"lower_inverse needs 3 x 3 factors, got trailing shape {L.shape[-2:]}")
    inv = np.zeros_like(L)
    for k in range(3):
        np.reciprocal(L[..., k, k], out=inv[..., k, k])
    inv[..., 1, 0] = -L[..., 1, 0] * inv[..., 0, 0] * inv[..., 1, 1]
    inv[..., 2, 1] = -L[..., 2, 1] * inv[..., 1, 1] * inv[..., 2, 2]
    inv[..., 2, 0] = -(L[..., 2, 0] * inv[..., 0, 0]
                       + L[..., 2, 1] * inv[..., 1, 0]) * inv[..., 2, 2]
    return inv


def lapack_spectrum(R: RiemannField) -> np.ndarray:
    """Ascending eigenvalues of the 3-d pencil (R, Lambda^2 g) on R.mask,
    (nodes, 3), as `sec_spectrum` took them before its solve moved to
    planes: Lambda^2 g from the packed components, LAPACK's Cholesky factor
    L of it, the factor's inverse by forward substitution, and LAPACK's
    `eigvalsh` of the node-major congruence L^-1 R L^-T."""
    Linv = lower_inverse(np.linalg.cholesky(lambda2(R.metric.comps[R.mask], 3)))
    return np.linalg.eigvalsh(Linv @ R.riem[R.mask] @ np.swapaxes(Linv, -2, -1))
