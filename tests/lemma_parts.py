"""The lemma suite pair by pair, read only by the tests.

`pairwise_lemmas` is the per-pair loop `cli.run_lemmas` replaced: each of
the test pairs (f, a) sampled on its own by `sample_scalar`, two Hoelder
seminorms per pair, and at each scale two `convolve` calls per pair, each
eroding the mask again.  It is the reference for the stacked suite, which
must give the same rows bit for bit.
"""
import numpy as np

from mollilab.cli import LEMMA_PAIRS
from mollilab.kernels import convolve, kernel_lq_bound, kernel_lq_norm, scale_kernel
from mollilab.lattice import ScalarField, make_lattice, sample_scalar
from mollilab.norms import holder_seminorm


def pairwise_family(m: int, alpha: float, seed: int):
    """The lattice and the test pairs (f, a), one `sample_scalar` call per function."""
    lat = make_lattice(2, 1.0, m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = []

    def from_fn(ffn, afn):
        return (sample_scalar(ffn, lat), sample_scalar(afn, lat))

    pairs.append(from_fn(lambda X: np.ones(X.shape[:-1]),
                         lambda X: np.ones(X.shape[:-1])))
    pairs.append(from_fn(lambda X: np.sin(X[..., 0]),
                         lambda X: np.abs(X[..., 0]) ** alpha))
    pairs.append(from_fn(lambda X: np.sqrt((X**2).sum(-1)) ** (1.0 + alpha),
                         lambda X: np.cos(X[..., 1])))
    while len(pairs) < LEMMA_PAIRS:
        w = rng.uniform(0.5, 3.0, size=(2, lat.n))
        ph = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0.2, 1.5, size=2)
        c = rng.uniform(-lat.r / 2, lat.r / 2)
        kind = rng.integers(0, 2)

        def ffn(X, w=w[0], ph=ph[0], amp=amp[0]):
            return amp * np.sin((X * w).sum(-1) + ph)

        if kind == 0:
            def afn(X, w=w[1], ph=ph[1], amp=amp[1]):
                return amp * np.cos((X * w).sum(-1) + ph)
        else:
            def afn(X, c=c, amp=amp[1]):
                return amp * np.abs(X[..., 0] - c) ** alpha

        pairs.append(from_fn(ffn, afn))
    return lat, pairs


def pairwise_lemmas(m: int, alpha: float, p: float, seed: int) -> list:
    """The rows of `cli.run_lemmas`, one test pair at a time."""
    lat, pairs = pairwise_family(m, alpha, seed)
    n, r = lat.n, lat.r
    q = p / (p - 1.0)
    scales = list(np.geomspace(4.0 * lat.h, r / 8.0, 5))

    semis = [holder_seminorm(f.values, f.mask, lat.h, alpha) for f, _ in pairs]
    cas = [holder_seminorm(a.values, a.mask, lat.h, alpha) for _, a in pairs]
    flps = [float((np.sum(np.abs(f.values[f.mask]) ** p) * lat.h**n) ** (1.0 / p))
            for f, _ in pairs]

    rows = []
    for t in scales:
        kernel = scale_kernel(n, t, lat.h)
        lq = kernel_lq_norm(kernel, q)
        lq_bound = kernel_lq_bound(kernel, q)
        rows.append(("kernel_lq", -1, t, lq, lq_bound, lq / lq_bound))
        for idx, (f, a) in enumerate(pairs):
            pf = convolve(kernel, f)
            mask = pf.mask

            sup_in = f.sup_norm()
            sup_out = pf.sup_norm()
            rows.append(("sup_nonincrease", idx, t, sup_out, sup_in,
                         sup_out / sup_in if sup_in > 0 else 0.0))

            lhs = float(np.abs((f.values - pf.values))[mask].max())
            rhs = t ** alpha * semis[idx]
            rows.append(("holder_mollify", idx, t, lhs, rhs,
                         lhs / rhs if rhs > 0 else 0.0))

            af = ScalarField(lattice=lat, values=a.values * f.values, mask=f.mask)
            p_af = convolve(kernel, af)
            comm = float(np.abs(p_af.values - a.values * pf.values)[mask].max())
            rhs_c = (2.0 ** ((n + 1) / q) * cas[idx] * flps[idx]
                     * t ** (alpha - n / p))
            rows.append(("commutator", idx, t, comm, rhs_c,
                         comm / rhs_c if rhs_c > 0 else 0.0))
    return rows
