"""Uniform grids, sampled functions, regions, bump generators and Sobolev norms.

All operator evaluations in this package are carried by :class:`SampledFunction`
objects living on a uniform grid over [-L, L).  Fourier conventions:

    (F f)(xi) = int f(x) exp(-i x xi) dx,      (F^-1 g)(x) = (2 pi)^-1 int g(xi) exp(i x xi) dxi.

Compactly supported functions are expected to live well inside the grid
(supp f inside [-L/2, L/2]) so that periodization effects stay controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid x_p = -L + p*dx, p = 0..n-1, with its discrete Fourier dual."""

    L: float
    n: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("grid half-width must be positive")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError("grid size must be a power of two, at least 8")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.n)

    @property
    def xi(self) -> np.ndarray:
        """Angular frequencies dual to the spatial grid (FFT ordering)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    def dilate(self, k: float) -> "Interval":
        """kI: dilation about the interval's own center."""
        h = 0.5 * k * self.length
        return Interval(self.center - h, self.center + h)

    def contains(self, x) -> np.ndarray:
        return (np.asarray(x) >= self.a) & (np.asarray(x) <= self.b)


@dataclass(frozen=True)
class Box:
    """Product of intervals (2D tensor region)."""

    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if not isinstance(f, Interval):
                raise ValueError("box factors must be intervals")

    @property
    def volume(self) -> float:
        v = 1.0
        for f in self.factors:
            v *= f.length
        return v


@dataclass
class SampledFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.grid.n:
            raise ValueError("values length must equal grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled function must have finite entries")


def bump_profile(t, sharpness: float):
    """exp(-sharpness/(1-t^2)) for |t|<1, zero outside (vectorized, exact zeros)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-sharpness / (1.0 - ti * ti))
    return out


def make_bump(support: Interval, center_offset: float, sharpness: float, grid: Grid) -> SampledFunction:
    """Smooth bump supported in `support`, exactly zero outside.

    The bump is centered at the support midpoint shifted by `center_offset`;
    its half-width shrinks by |center_offset| so the function stays inside the
    stated support.  At the bump center the value is exp(-sharpness).
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    if not (-grid.L < support.a and support.b < grid.L):
        raise ValueError("bump support must lie inside the grid domain")
    half = 0.5 * support.length - abs(center_offset)
    if half <= 0:
        raise ValueError("center offset pushes the bump outside its support")
    c = support.center + center_offset
    t = (grid.x - c) / half
    return SampledFunction(grid, bump_profile(t, sharpness))


def _interval_samples(f: SampledFunction, region: Interval):
    """Grid samples inside an interval plus linearly interpolated endpoint values."""
    g = f.grid
    if region.a < -g.L or region.b > g.L:
        raise ValueError("region outside grid domain")
    x = g.x
    mask = (x > region.a) & (x < region.b)
    xs = x[mask]
    vs = f.values[mask]
    va = np.interp(region.a, x, f.values.real) + 1j * np.interp(region.a, x, f.values.imag)
    vb = np.interp(region.b, x, f.values.real) + 1j * np.interp(region.b, x, f.values.imag)
    xs = np.concatenate([[region.a], xs, [region.b]])
    vs = np.concatenate([[va], vs, [vb]])
    if not np.iscomplexobj(f.values):
        vs = vs.real
    return xs, vs


def _smoothstep(u):
    """C^inf transition: 0 for u<=0, 1 for u>=1."""
    u = np.asarray(u, dtype=float)
    lo = u <= 0
    hi = u >= 1
    mid = ~(lo | hi)
    out = np.zeros_like(u)
    out[hi] = 1.0
    um = u[mid]
    e1 = np.exp(-1.0 / um)
    e2 = np.exp(-1.0 / (1.0 - um))
    out[mid] = e1 / (e1 + e2)
    return out


def smooth_cutoff(region: Interval, grid: Grid) -> np.ndarray:
    """Fixed C^inf cutoff equal to 1 on the region, supported in 1.1*region."""
    outer = region.dilate(1.1)
    rise = _smoothstep((grid.x - outer.a) / (region.a - outer.a))
    fall = _smoothstep((outer.b - grid.x) / (outer.b - region.b))
    return rise * fall


def _sobolev_weight(xi, s: float, homogeneous: bool):
    if homogeneous:
        with np.errstate(divide="ignore"):
            w = np.abs(xi) ** s
        if s < 0:
            w[xi == 0] = 0.0
        return w
    return (1.0 + xi * xi) ** (0.5 * s)


def _fullline_sobolev(f: SampledFunction, s: float, homogeneous: bool):
    g = f.grid
    fhat = g.dx * np.fft.fft(f.values)
    if homogeneous and s < 0:
        dc = np.abs(fhat[..., 0])
        total = np.sqrt(np.sum(np.abs(fhat) ** 2, axis=-1))
        if np.any((total > 0) & (dc > 1e-8 * total)):
            raise ValueError("homogeneous negative-order norm is ill-posed for nonzero-mean data")
    w = _sobolev_weight(g.xi, s, homogeneous)
    # Plancherel: ||f||^2 = (2 pi)^-1 int |Ff|^2 dxi, dxi = pi/L
    out = np.sqrt(np.sum((w * np.abs(fhat)) ** 2, axis=-1) * (np.pi / g.L) / (2.0 * np.pi))
    return float(out) if out.ndim == 0 else out


def norm(f: SampledFunction, space: str, region: Interval | None = None, s: float | None = None):
    """Norm of a sampled function; of each row, bit for bit, for a (rows, n) stack.

    space: "L2" (Riemann sum over region; one row only), "Hs" (inhomogeneous Sobolev via FFT),
    "HsDot" (homogeneous; neither takes a region), "HnegS_local" (smooth-cutoff surrogate
    ||chi_region * f||_{H^{-s}(R)} for the local negative norm).
    """
    if space == "L2":
        if region is None:
            out = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=-1) * f.grid.dx)
            return float(out) if out.ndim == 0 else out
        if f.values.ndim != 1:
            raise ValueError("L2 over a region takes one row, not a stack")
        xs, vs = _interval_samples(f, region)
        return float(np.sqrt(max(np.trapezoid(np.abs(vs) ** 2, xs).real, 0.0)))
    if space in ("Hs", "HsDot"):
        if s is None:
            raise ValueError("Sobolev norm requires s")
        if not (-2.0 < s <= 2.0):
            raise ValueError("s must lie in (-2, 2]")
        if region is not None:
            raise ValueError(f"{space} is a full-line norm and takes no region")
        return _fullline_sobolev(f, s, homogeneous=(space == "HsDot"))
    if space == "HnegS_local":
        if s is None or region is None:
            raise ValueError("HnegS_local requires s and a region")
        chi = smooth_cutoff(region, f.grid)
        cut = SampledFunction(f.grid, chi * f.values)
        return _fullline_sobolev(cut, -abs(s), homogeneous=False)
    raise ValueError(f"unknown norm space {space!r}")
