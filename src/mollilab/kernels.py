"""Bump mollification kernels and the discrete mollification operator P_t.

The kernel is the standard compactly supported bump profile, tensorized
over the axes.  Its taps at scale t are the profile sampled at the
lattice offsets and normalized discretely, to unit mass less a
rounding-safe margin, so the sup non-increase property holds exactly in
floats; no continuous normalizing constant is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .lattice import Field, MetricField, ScalarField, erode_mask


def bump_profile(s):
    """exp(-1/(1-s^2)) on (-1, 1), zero outside; smooth and even."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si**2))
    return out


def _normalize_taps(w: np.ndarray) -> np.ndarray:
    """Rescale non-negative taps to unit mass with a sup-safe margin.

    Exact unit mass and a float-exact sup non-increase property cannot
    both hold: accumulated rounding in the dot product can push a
    constant one ulp above itself.  The taps are therefore shrunk by a
    margin covering the worst-case summation error, so sup(P_t f) never
    exceeds sup(f) in floating point.  Constants remain fixed points up
    to a few ulps, far inside every tolerance used downstream.
    """
    margin = 2.0 * len(w) * np.finfo(float).eps
    return w * ((1.0 - margin) / math.fsum(w))


@dataclass(frozen=True)
class ScaledKernel:
    """phi_t(x) = t^-n phi(x/t) on R^n, discretized at lattice spacing h."""

    n: int
    t: float
    h: float
    taps1d: np.ndarray

    @property
    def radius(self) -> int:
        """Support radius in nodes, ceil(t/h)."""
        return (len(self.taps1d) - 1) // 2

    def taps_nd(self) -> np.ndarray:
        """Full tensor-product tap array, shape (2K+1,)*n."""
        taps = self.taps1d
        for _ in range(self.n - 1):
            taps = np.multiply.outer(taps, self.taps1d)
        return taps


def scale_kernel(n: int, t: float, h: float) -> ScaledKernel:
    if t <= 0:
        raise ValueError("scale t must be positive")
    if t <= h:
        raise ValueError(f"kernel under-resolved: t={t} <= h={h} leaves only the centre tap")
    radius = math.ceil(t / h - 1e-12)
    offsets = np.arange(-radius, radius + 1) * h
    raw = bump_profile(offsets / t)
    taps = _normalize_taps(raw)
    return ScaledKernel(n=n, t=t, h=h, taps1d=taps)


def convolve(k: ScaledKernel, f: Field) -> Field:
    """P_t f on the mask eroded by the kernel's node radius."""
    lat = f.lattice
    if abs(k.h - lat.h) > 1e-12 * lat.h:
        raise ValueError("kernel spacing does not match field lattice")
    mask = erode_mask(f.mask, k.radius)
    if not mask.any():
        raise ValueError("scale too large for domain: empty output mask")

    # the grid axes lead, so a metric's packed component axis or a stack's
    # field axis rides along;
    # a node of the eroded mask reads only nodes of f's mask
    scalar = isinstance(f, ScalarField)
    out = f.values if scalar else f.comps
    for ax in range(lat.n):
        out = ndimage.convolve1d(out, k.taps1d, axis=ax, mode="constant")
    if scalar:
        return ScalarField(lattice=lat, values=out, mask=mask)
    return MetricField(lattice=lat, comps=out, mask=mask)


def kernel_lq_norm(k: ScaledKernel, q: float) -> float:
    """Quadrature L^q norm of the scaled kernel phi_t.

    The largest density is factored out of the power, so that q = p/(p-1)
    in the hundreds (p near 1) does not overflow."""
    if not 1.0 < q < math.inf:
        raise ValueError("q must lie in (1, inf)")
    n = k.n
    w = k.taps_nd()
    dens = w / k.h**n  # tap weights are density times cell volume
    top = dens.max()
    return float(top * (np.sum((dens / top) ** q) * k.h**n) ** (1.0 / q))


def kernel_lq_bound(k: ScaledKernel, q: float) -> float:
    """The closed-form bound 2^{n/q} t^{-n/p} with 1/p + 1/q = 1."""
    n = k.n
    p = q / (q - 1.0)
    return 2.0 ** (n / q) * k.t ** (-n / p)
