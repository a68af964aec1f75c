"""Node-major views of the Riemann builder's pieces, read only by the tests.

`slab_parts` returns the Hessian part A and the remainder B of one slab
from the builder's own `_slab_planes`; `s_tensor` forms S_mkl node-major,
the reference for the sums the builder takes plane by plane.
"""
import numpy as np

from mollilab.curvature import _slab_planes
from mollilab.lattice import MetricField


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
