"""The full-matrix pullback, read only by the tests.

`full_matrix_pullback` is `pullback_metric` as it was before it worked on
packed components: it unpacks the interpolated components into full
matrices, forms J^T G J by two batched matmuls, averages the two triangles
and packs the result.  It is the reference for the packed pullback, which
computes each packed entry once from component planes.
"""
import numpy as np

from mollilab.atlas import Transition, interpolate_metric
from mollilab.lattice import (Lattice, MetricField, fold, pack_symmetric,
                              unpack_symmetric)


def full_matrix_pullback(tr: Transition, g: MetricField, target: Lattice) -> MetricField:
    """(D tau)^T g(tau(x)) (D tau) on the target lattice, on full matrices."""
    X = target.coords()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Y = np.asarray(tr.map(X), dtype=float)
        J = np.asarray(tr.jacobian(X), dtype=float)
    finite = (fold(np.logical_and, np.isfinite(Y))
              & fold(np.logical_and, np.isfinite(J).reshape(J.shape[:-2] + (-1,))))
    Y = np.where(finite[..., None], Y, 0.0)
    comps, ok = interpolate_metric(g, Y)
    G = unpack_symmetric(comps, target.n)
    out = np.swapaxes(J, -1, -2) @ G @ J
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return MetricField(lattice=target, comps=pack_symmetric(out), mask=ok & finite)
