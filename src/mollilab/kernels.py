"""Bump mollification kernels and the discrete mollification operator P_t.

The kernel is the standard compactly supported bump profile, tensorized
over the axes and normalized to unit mass.  Discrete taps are midpoint
quadrature weights renormalized to unit mass with a rounding-safe
margin, so the sup non-increase property holds exactly in floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, ndimage

from .lattice import Field, MetricField, ScalarField, central_diff, erode_mask


def bump_profile(s):
    """exp(-1/(1-s^2)) on (-1, 1), zero outside; smooth and even."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si**2))
    return out


@dataclass(frozen=True)
class BumpKernel:
    """Tensor-product bump on [-1,1]^n with unit-mass normalization."""

    n: int
    profile_mass_1d: float  # integral of the 1-d profile over [-1, 1]

    @property
    def norm_const(self) -> float:
        return self.profile_mass_1d ** (-self.n)

    def value(self, x: np.ndarray) -> np.ndarray:
        """Kernel value at points x of shape (..., n)."""
        x = np.asarray(x, dtype=float)
        return self.norm_const * np.prod(bump_profile(x), axis=-1)

    def mass(self, resolution: int = 2001) -> float:
        """Quadrature mass over [-1,1]^n (tensor-product Simpson)."""
        s = np.linspace(-1.0, 1.0, resolution)
        m1 = integrate.simpson(bump_profile(s), x=s)
        return (m1 / self.profile_mass_1d) ** self.n


def make_bump(n: int) -> BumpKernel:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    m1, _ = integrate.quad(lambda s: float(bump_profile(s)), -1.0, 1.0,
                           epsabs=1e-14, epsrel=1e-14)
    return BumpKernel(n=n, profile_mass_1d=m1)


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
    """phi_t(x) = t^-n phi(x/t) discretized at lattice spacing h."""

    base: BumpKernel
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
        for _ in range(self.base.n - 1):
            taps = np.multiply.outer(taps, self.taps1d)
        return taps


def scale_kernel(k: BumpKernel, t: float, h: float) -> ScaledKernel:
    if t <= 0:
        raise ValueError("scale t must be positive")
    if t <= h:
        raise ValueError(f"kernel under-resolved: t={t} <= h={h} leaves only the centre tap")
    radius = math.ceil(t / h - 1e-12)
    offsets = np.arange(-radius, radius + 1) * h
    raw = bump_profile(offsets / t)
    taps = _normalize_taps(raw)
    return ScaledKernel(base=k, t=t, h=h, taps1d=taps)


def convolve(k: ScaledKernel, f: Field) -> Field:
    """P_t f on the mask eroded by the kernel's node radius."""
    lat = f.lattice
    if abs(k.h - lat.h) > 1e-12 * lat.h:
        raise ValueError("kernel spacing does not match field lattice")
    mask = erode_mask(f.mask, k.radius)
    if not mask.any():
        raise ValueError("scale too large for domain: empty output mask")

    def smooth(values: np.ndarray) -> np.ndarray:
        out = np.where(f.mask, values, 0.0)
        for ax in range(lat.n):
            out = ndimage.convolve1d(out, k.taps1d, axis=ax, mode="constant")
        return out

    if isinstance(f, ScalarField):
        return ScalarField(lattice=lat, values=smooth(f.values), mask=mask)
    comps = np.stack([smooth(f.comps[..., c]) for c in range(f.comps.shape[-1])], axis=-1)
    return MetricField(lattice=lat, comps=comps, mask=mask)


def derivative_commutation_check(k: ScaledKernel, f: ScalarField, axis: int) -> float:
    """sup |d(P_t f) - P_t(d f)| over the common mask, same stencil both sides."""
    lat = f.lattice
    pf = convolve(k, f)
    d_of_pf = central_diff(pf.values, axis, lat.h)
    mask_left = erode_mask(pf.mask, 1)

    df_vals = central_diff(np.where(f.mask, f.values, 0.0), axis, lat.h)
    df = ScalarField(lattice=lat, values=np.where(erode_mask(f.mask, 1), df_vals, 0.0),
                     mask=erode_mask(f.mask, 1))
    pf_of_d = convolve(k, df)
    common = mask_left & pf_of_d.mask
    return float(np.abs(d_of_pf - pf_of_d.values)[common].max())


def kernel_lq_norm(k: ScaledKernel, q: float) -> float:
    """Quadrature L^q norm of the scaled kernel phi_t."""
    if not 1.0 < q < math.inf:
        raise ValueError("q must lie in (1, inf)")
    n = k.base.n
    w = k.taps_nd()
    dens = w / k.h**n  # tap weights are density times cell volume
    return float((np.sum(dens**q) * k.h**n) ** (1.0 / q))


def kernel_lq_bound(k: ScaledKernel, q: float) -> float:
    """The closed-form bound 2^{n/q} t^{-n/p} with 1/p + 1/q = 1."""
    n = k.base.n
    p = q / (q - 1.0)
    return 2.0 ** (n / q) * k.t ** (-n / p)
