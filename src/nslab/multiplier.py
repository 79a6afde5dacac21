"""Fourier-multiplier engine and direct-quadrature oracles.

Two evaluation routes are provided for every operator:

* :func:`apply` — plain FFT / pointwise multiply / inverse FFT on the working
  grid.  Symbol-level algebra (compositions, branch identities, adjointness)
  is exact on this route, but outputs of slowly-decaying kernels carry the
  periodization error of the torus.
* :func:`apply_dealiased` — line-accurate evaluation.  The multiplier is
  applied on a zero-padded frequency grid and the non-smooth part of the
  symbol at xi = 0 (jump, kink, |xi|^{-2a} singularity) is handled by a
  windowed Taylor correction: inside a smooth frequency window the integrand
  F f(xi) e^{i x xi} is replaced by its Taylor polynomial (whose coefficients
  are moments of f about x); the resulting integrals I_q of m w xi^q are a
  closed-form finite part plus one `adaptive_gauss` call.  This removes the
  slow spatial decay that aliasing cannot handle and brings FFT output into
  1e-6+ agreement with direct kernel quadrature.  The padding factor (32),
  window width (0.45) and Taylor degree (44) are fixed.  On the n-point grid
  both parts are one Toeplitz matrix t[i - j]: the padded multiplier is
  circulant on the 32n-point domain, and the correction is a polynomial of
  degree 44 in x - y whose weights do not depend on x.
  Every symbol applied has a real kernel (m(-xi) = conj m(xi)), so t is real:
  :func:`dealiased_rows` builds it at the offsets k = -(n-1)..n-1 from one
  32n-point `irfft` of the symbol at the `rfftfreq` points plus that
  polynomial, summed in float64 on Re(i^q W_q), and convolves the real and
  imaginary parts of r rows with it by 2n-point `rfft`: one 32n-point `irfft`
  per call plus O(r*n log n).
  Nyquist convention: `irfft` gives the xi = +-pi/dx bin the mean of
  m(+-pi/dx), 0 for an odd imaginary symbol; m(-pi/dx) there would add
  (m(-pi/dx) - mean) (-1)^i/(32n) sum_j (-1)^j f_j to output i (1e-10 relative
  for a bump at n = 1024).  The raw
  route :func:`apply` keeps m(-pi/dx) at that bin (`Grid.xi` is `fftfreq`),
  so symbol algebra stays exact at every bin (H o H = -I); a symbol that is
  imaginary there, such as an odd one, adds m(-pi/dx) (-1)^i/n
  sum_j (-1)^j f_j to output i, an imaginary part on real data.

The oracles `oracle_symbols` and `oracle_quadrature` integrate each kind's
`_kernel` against the trigonometric interpolant of f with the same
`adaptive_gauss`, the module's one quadrature.

Symbols use the convention (F f)(xi) = int f(x) e^{-i x xi} dx.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridfn import Grid, Interval, SampledFunction

KINDS = (
    "AbsPow",
    "HilbertSign",
    "ModifiedCoth",
    "RieszInverse",
    "FourierLaplace",
    "BranchCut",
    "SignPow",
)


@dataclass(frozen=True)
class SymbolSpec:
    kind: str
    two_s: float | None = None
    delta: float | None = None
    alpha: float | None = None
    beta: float | None = None
    branch: int | None = None

    def __post_init__(self):
        k = self.kind
        if k not in KINDS:
            raise ValueError(f"unknown symbol kind {k!r}")
        if k in ("AbsPow", "SignPow"):
            if self.two_s is None or self.two_s < 0:  # |xi|^2s is infinite at xi = 0
                raise ValueError(f"{k} requires an exponent 2s >= 0, got {self.two_s}")
        elif k == "ModifiedCoth":
            if self.delta is None or self.delta <= 0:
                raise ValueError("ModifiedCoth requires delta > 0")
        elif k == "RieszInverse":
            a = self.alpha
            if a is None or a <= 0:
                raise ValueError("RieszInverse requires alpha > 0")
            if abs(2 * a - round(2 * a)) < 1e-12:
                raise ValueError("RieszInverse requires 2*alpha not a nonnegative integer")
        elif k == "FourierLaplace":
            if self.alpha is None or self.beta is None:
                raise ValueError("FourierLaplace requires (alpha, beta)")
            if self.alpha == 0 and self.beta == 0:
                raise ValueError("FourierLaplace requires (alpha, beta) != (0, 0)")
        elif k == "BranchCut":
            if self.two_s is None or abs(self.two_s - round(self.two_s)) < 1e-12:
                raise ValueError("BranchCut requires 2s not an integer")
            if self.branch not in (1, 2):
                raise ValueError("BranchCut requires branch j in {1, 2}")


def symbol(kind: str, **params) -> SymbolSpec:
    return SymbolSpec(kind, **params)


# 2^(2k) B_(2k)/(2k)!, k = 1..11: the Taylor coefficients of coth(u) - 1/u
_COTH_SERIES = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
                4 / 18243225, -3617 / 162820783125, 87734 / 38979295480125,
                -349222 / 1531329465290625, 310732 / 13447856940643125)


def _coth_minus_inv(u):
    """coth(u) - 1/u (odd, analytic): its Taylor series through u^21 for
    |u| < 1/2, where 1/tanh(u) - 1/u cancels, and that difference beyond."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = np.abs(u) < 0.5
    us = u[small]
    out[small] = us * np.polynomial.polynomial.polyval(us * us, _COTH_SERIES)
    ub = u[~small]
    out[~small] = 1.0 / np.tanh(ub) - 1.0 / ub
    return out


def evaluate(spec: SymbolSpec, xi) -> np.ndarray:
    """Pointwise symbol values on the real line (DC conventions applied)."""
    xi = np.asarray(xi, dtype=float)
    k = spec.kind
    if k == "AbsPow":
        return np.abs(xi) ** spec.two_s + 0j
    if k == "HilbertSign":
        return -1j * np.sign(xi) + 0.0
    if k == "ModifiedCoth":
        out = np.zeros_like(xi, dtype=complex)
        nz = xi != 0
        u = xi[nz] / (2.0 * spec.delta)
        out[nz] = -1j / np.tanh(u)
        return out
    if k == "RieszInverse":
        out = np.zeros_like(xi, dtype=complex)
        nz = xi != 0
        out[nz] = -np.abs(xi[nz]) ** (-2.0 * spec.alpha)
        return out
    if k == "SignPow":
        return 1j * np.sign(xi) * np.abs(xi) ** spec.two_s
    if k == "BranchCut":
        mag = np.abs(xi) ** spec.two_s
        phase = cmath.exp(-1j * spec.two_s * math.pi)  # e^{-2 s pi i} with two_s = 2s
        if spec.branch == 1:
            return np.where(xi > 0, phase * mag, mag + 0j)
        return np.where(xi < 0, phase * mag, mag + 0j)
    raise ValueError(f"symbol kind {k!r} has no pointwise multiplier (use the dedicated operator)")


def _hom_term(spec: SymbolSpec) -> tuple[float, complex, complex]:
    """Piecewise-homogeneous model of the symbol near xi = 0.

    Returns (lam, c_plus, c_minus) meaning c_plus*|xi|^lam on xi>0 and
    c_minus*|xi|^lam on xi<0; the remainder (symbol minus model) is smooth at 0.
    """
    k = spec.kind
    if k == "AbsPow":
        return spec.two_s, 1.0 + 0j, 1.0 + 0j
    if k == "HilbertSign":
        return 0.0, -1j, 1j
    if k == "ModifiedCoth":
        # -i coth(xi/(2 delta)) = -2i*delta/xi + smooth
        return -1.0, -2j * spec.delta, 2j * spec.delta
    if k == "RieszInverse":
        return -2.0 * spec.alpha, -1.0 + 0j, -1.0 + 0j
    if k == "SignPow":
        return spec.two_s, 1j, -1j
    raise ValueError(f"{k!r} has no real-kernel multiplier model")


def _rest_values(spec: SymbolSpec, xi: np.ndarray) -> np.ndarray:
    """Symbol minus its homogeneous model (smooth, odd); only ModifiedCoth has one."""
    if spec.kind == "ModifiedCoth":
        return -1j * _coth_minus_inv(xi / (2.0 * spec.delta))
    return np.zeros_like(xi, dtype=complex)


def _support_extent(grid: Grid, values: np.ndarray):
    """(lo, hi, mask) per row of values: the samples with |v| > 1e-14 max|v| of
    their row and the first and last of their x (lo = hi = 0 for a zero row)."""
    a = np.abs(values)
    mask = a > 1e-14 * np.maximum(np.max(a, axis=-1, keepdims=True), 1e-300)
    live = mask.any(axis=-1)
    x = grid.x
    return (np.where(live, x[np.argmax(mask, axis=-1)], 0.0),
            np.where(live, x[::-1][np.argmax(mask[..., ::-1], axis=-1)], 0.0), mask)


def _check_support(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Reject rows whose support reaches past [-L/2, L/2]; returns their support masks."""
    lo, hi, mask = _support_extent(grid, values)
    L, dx = grid.L, grid.dx
    # globally supported rows (periodic data such as pure modes): no compactness claim
    local = (lo > -L + dx) | (hi < L - 2 * dx)
    over = np.where(local, np.maximum(np.maximum(-L / 2 - lo, hi - L / 2), 0.0), 0.0)
    if np.any(over > dx):
        raise ValueError(f"support extends {np.max(over):.3g} beyond [-L/2, L/2]; periodization uncontrolled")
    return mask


def apply(spec: SymbolSpec, f: SampledFunction) -> SampledFunction:
    """Raw route: FFT, multiply by evaluate(spec, xi_k), inverse FFT.
    xi_k is `Grid.xi`, so the Nyquist bin keeps m(-pi/dx): H o H = -I at every
    bin, and a symbol imaginary there gives real data an imaginary part."""
    g = f.grid
    _check_support(g, f.values)
    return SampledFunction(g, np.fft.ifft(evaluate(spec, g.xi) * np.fft.fft(f.values)))


# ---------------------------------------------------------------------------
# Line-accurate (dealiased) application
# ---------------------------------------------------------------------------

_PAD, _XI0, _DEGREE = 32, 0.45, 44  # padding factor, window width, Taylor degree


def _window(xi):
    """Smooth (entire) frequency window: 1 near 0, ~0 beyond ~1.3*_XI0."""
    return np.exp(-((xi / _XI0) ** 16))


def _correction_weights(spec: SymbolSpec, grid: Grid):
    """W_q = R^q (I_q - D_q)/q!, q = 0.._DEGREE, for the windowed-Taylor
    correction on `grid`, with R = (n-1) dx."""
    dxi = math.pi / (grid.L * _PAD)
    xic = 1.35 * _XI0
    qs = np.arange(_DEGREE + 1)

    # I_q = (finite-part) int_{-xic}^{xic} m w xi^q, m = c_+-|xi|^lam + r with r odd, folded
    # onto (0, xic) as par (fp + int (w - 1) xi^(q+lam)) + odd int w r xi^q, fp the finite
    # part of int_0^xic xi^(q+lam): the parity factors make an I_q that vanishes exactly 0,
    # where a relative tolerance could only chase rounding
    lam, cp, cm = _hom_term(spec)
    par = cp + cm * (-1.0) ** qs  # one-sided to two-sided parity factors
    odd = 1.0 - (-1.0) ** qs
    denom = qs + lam + 1
    safe = np.where(denom == 0, 1.0, denom)
    fp = np.where(denom == 0, 0.0, xic**safe / safe)  # analytic continuation in lam
    if np.any((denom == 0) & (np.abs(par) > 1e-14)):
        raise ValueError("logarithmic finite part encountered; symbol model unsupported")

    def integrand(x):
        w = _window(x)
        return (par[:, None] * (w - 1.0) * x ** (qs[:, None] + lam)
                + odd[:, None] * w * _rest_values(spec, x) * x ** qs[:, None])

    I = par * fp + adaptive_gauss(integrand, 0.0, xic)

    # D_q = dxi * sum over nonzero fine-grid nodes of m w xi^q
    kmax = int(xic / dxi) + 1
    xi_nodes = dxi * np.concatenate([np.arange(1, kmax + 1), -np.arange(1, kmax + 1)])
    D = dxi * np.sum(evaluate(spec, xi_nodes) * _window(xi_nodes) * xi_nodes ** qs[:, None], axis=1)

    R = (grid.n - 1) * grid.dx
    scale = np.array([R**q / math.factorial(q) for q in qs])
    return (I - D) * scale


def _correction_kernel(spec: SymbolSpec, grid: Grid) -> np.ndarray:
    """The windowed-Taylor correction at the offsets x - y = k dx, k = -(n-1)..n-1:
    sum_q c_q (k/(n-1))^q dx / 2 pi with c_q = Re(i^q W_q), summed by Horner in
    float64 with R = (n-1) dx, so that |k/(n-1)| <= 1.  m(-xi) = conj m(xi)
    makes i^q W_q real up to rounding, which this drops."""
    n, W = grid.n, _correction_weights(spec, grid)
    c = (W * 1j ** np.arange(W.size)).real
    u = np.arange(-(n - 1), n) / (n - 1)
    return np.polynomial.polynomial.polyval(u, c) * (grid.dx / (2.0 * np.pi))


def branch_split(spec: SymbolSpec) -> tuple[complex, complex]:
    """(a, b) with P^j = a |D|^{2s} + b SignPow for the BranchCut spec P^j:
    a = (1+phi)/2 and b = -/+ i (phi-1)/2 for j = 1/2, phi = e^{-2 pi i s}."""
    phi = cmath.exp(-1j * spec.two_s * math.pi)  # e^{-2 s pi i} with two_s = 2s
    return (1.0 + phi) / 2.0, (-1j if spec.branch == 1 else 1j) * (phi - 1.0) / 2.0


def dealiased_rows(spec: SymbolSpec, grid: Grid, F: np.ndarray) -> np.ndarray:
    """`apply_dealiased` on every row of F (rows x n, each compactly supported):
    the complex rows x n result, each row bit for bit its single-row result.
    The real parts of the live rows and their nonzero imaginary parts are 2n-point
    `rfft` convolutions with the real Toeplitz kernel t of the module docstring.
    A symbol with no real kernel (BranchCut, FourierLaplace) raises ValueError."""
    supp = _check_support(grid, F)
    n = grid.n
    t = _correction_kernel(spec, grid)   # `_hom_term` raises for the rest
    # plus the circulant column of the multiplier on the _PAD-times-larger
    # periodic domain, where a negative k wraps to k mod 32n
    xib = 2.0 * np.pi * np.fft.rfftfreq(n * _PAD, d=grid.dx)
    t += np.fft.irfft(evaluate(spec, xib), n * _PAD)[np.arange(-(n - 1), n)]
    out = np.zeros(F.shape, dtype=complex)
    live = np.flatnonzero(supp.any(axis=1))   # zero rows stay zero
    if not live.size:
        return out
    circ = np.zeros(2 * n)   # linear convolution as a 2n-point circulant
    circ[:n], circ[n + 1:] = t[n - 1:], t[:n - 1]
    cx = live[F[live].imag.any(axis=1)]   # an all-zero imaginary part is not transformed
    X = np.concatenate([F[live].real, F[cx].imag])
    Y = np.fft.irfft(np.fft.rfft(X, 2 * n, axis=-1) * np.fft.rfft(circ), 2 * n, axis=-1)[:, :n]
    out.real[live], out.imag[cx] = Y[:live.size], Y[live.size:]
    return out


def apply_dealiased(spec: SymbolSpec, f: SampledFunction) -> SampledFunction:
    """Line-accurate operator evaluation for compactly supported f: one row of `dealiased_rows`."""
    return SampledFunction(f.grid, dealiased_rows(spec, f.grid, f.values[None])[0])


# ---------------------------------------------------------------------------
# Quadrature and the oracles
# ---------------------------------------------------------------------------

_RTOL, _ORDER, _MAX_DEPTH = 1e-12, 64, 24  # relative tolerance, nodes per panel, splits
_MAX_CALLS = 2000  # integrand calls per adaptive_gauss; `nsl`'s defaults make at most 15


@lru_cache(maxsize=8)
def _gauss_rule(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def adaptive_gauss(fun, a: float, b: float):
    """Adaptive panel-split Gauss-Legendre quadrature of a vectorized integrand.

    ``fun(x)`` returns shape ``(..., len(x))`` and the result has shape
    ``(...)``.  Each panel takes `_ORDER` nodes.  All components share one
    panel tree but each has its own tolerance (`_RTOL` relative), and only the
    components that have not converged recurse into a sub-panel, so every
    component gets exactly the sum that integrating it on its own would give.
    A non-finite panel sum raises ArithmeticError, and so does a component
    still unconverged after `_MAX_DEPTH` splits or `_MAX_CALLS` calls of ``fun``.
    """
    t, w = _gauss_rule(_ORDER)
    calls = itertools.count(1)

    def values(lo, hi):
        if next(calls) > _MAX_CALLS:
            raise ArithmeticError(f"quadrature unconverged on [{lo!r}, {hi!r}] "
                                  f"after {_MAX_CALLS} integrand calls")
        return np.asarray(fun(0.5 * (hi - lo) * t + 0.5 * (hi + lo)))

    def panel(lo, hi, vals):
        s = 0.5 * (hi - lo) * np.sum(vals * w, axis=-1)
        if not np.all(np.isfinite(s)):
            raise ArithmeticError(f"non-finite quadrature panel sum on [{lo!r}, {hi!r}]")
        return s

    def recurse(lo, hi, whole, tol, rows, depth):
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid, values(lo, mid).reshape(-1, t.size)[rows])
        right = panel(mid, hi, values(mid, hi).reshape(-1, t.size)[rows])
        total = left + right
        todo = np.flatnonzero(np.abs(total - whole) > tol)
        if todo.size:
            if depth == _MAX_DEPTH:
                raise ArithmeticError(f"{todo.size} quadrature component(s) unconverged "
                                      f"on [{lo!r}, {hi!r}] at depth {_MAX_DEPTH}")
            total[todo] = (recurse(lo, mid, left[todo], tol[todo], rows[todo], depth + 1)
                           + recurse(mid, hi, right[todo], tol[todo], rows[todo], depth + 1))
        return total

    first = values(a, b)
    vals = first.reshape(-1, t.size)
    whole = panel(a, b, vals)
    # absolute floor tied to the integrand's mass so that cancellation-dominated
    # integrals (result near zero) terminate at roundoff instead of max depth
    absmass = 0.5 * (b - a) * np.sum(np.abs(vals) * w, axis=-1)
    tol = np.maximum(np.maximum(_RTOL * np.abs(whole), 1e-15 * absmass), 1e-30)
    out = recurse(a, b, whole, tol, np.arange(whole.size), 0)
    return out.reshape(first.shape[:-1])[()]


def trig_interp(f: SampledFunction, pts) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Period 2L, the Nyquist mode read as a cosine (real data give real values),
    in cardinal form (Henrici, Numer. Math. 33, 1979) summed over supp f only:
        p(x) = (-1)^j0 sin(pi u/dx)/n * sum_{f_j != 0} (-1)^j f_j cot(pi (x - x_j)/(2L))
    with j0 = rint((x + L)/dx) and u = x - x_j0 by the `Grid.x` expression, so
    u == 0 exactly at a node, where p is f_j0.  Both factors are reduced through u
    (sin(n pi (x + L)/(2L)) taken directly loses 1e-12): x - x_j = u + d dx with
    d = j0 - j taken mod n into [-n/2, n/2).  Cost O(points * nnz(f)).
    """
    g = f.grid
    x = np.atleast_1d(np.asarray(pts, dtype=float)).ravel()
    j0 = np.rint((x + g.L) / g.dx).astype(np.int64)
    u = x - (-g.L + g.dx * j0)
    out = f.values[j0 % g.n].astype(complex)
    off, supp = np.flatnonzero(u), np.flatnonzero(f.values)
    d = (j0[off, None] - supp + g.n // 2) % g.n - g.n // 2
    cot = 1.0 / np.tan(np.pi * (u[off, None] / (2.0 * g.L) + d / g.n))
    fj = np.where(supp % 2, -f.values[supp], f.values[supp])
    out[off] = np.where(j0[off] % 2, -1.0, 1.0) * np.sin(np.pi * u[off] / g.dx) / g.n * (cot @ fj)
    return out


def riesz_constant(alpha: float) -> float:
    """c_a with F[|x|^(2a-1)](xi) = c_a |xi|^(-2a): c_a = 2 cos(pi a) Gamma(2a)."""
    return 2.0 * math.cos(math.pi * alpha) * math.gamma(2.0 * alpha)


def _kernel(spec: SymbolSpec, x, y) -> np.ndarray:
    """Integral kernel matching the symbol normalization of `evaluate`: the
    off-diagonal kernel of the real-kernel kinds, e^{(a+ib) x y} for FourierLaplace."""
    k = spec.kind
    if k == "FourierLaplace":
        return np.exp(complex(spec.alpha, spec.beta) * x * y)
    u = x - y
    if k == "HilbertSign":
        return 1.0 / (math.pi * u)
    if k == "ModifiedCoth":
        d = spec.delta
        return d / np.tanh(math.pi * d * u)
    if k == "RieszInverse":
        a = spec.alpha
        return -np.abs(u) ** (2.0 * a - 1.0) / riesz_constant(a)
    if k == "AbsPow":
        # the off-support |D|^{2s} kernel A |x-y|^{-1-2s}
        two_s = spec.two_s
        return (-math.gamma(two_s + 1.0) * math.sin(math.pi * two_s / 2.0) / math.pi
                * np.abs(u) ** (-1.0 - two_s))
    raise ValueError(f"no off-support kernel for {k!r}")


def oracle_symbols(specs, f: SampledFunction, I: Interval, eval_points) -> np.ndarray:
    """Direct Gauss-Legendre evaluation (relative tolerance 1e-12) of every
    operator in `specs` at `eval_points`, in one adaptive pass: the
    (len(specs), points) result, each entry bit for bit its own single-symbol,
    single-point integral.  Real points stay float64.  FourierLaplace takes
    points anywhere, complex ones too; every other kind takes real points
    outside I-bar only and raises ValueError for the rest.

    Values match the symbol normalization used by `apply`/`apply_dealiased`
    (for RieszInverse this includes the 1D Riesz-potential constant; see
    `riesz_constant`).
    """
    pts = np.atleast_1d(np.asarray(eval_points))
    pts = pts if np.iscomplexobj(pts) else pts.astype(float)
    if any(spec.kind != "FourierLaplace" for spec in specs):
        if np.iscomplexobj(pts):
            raise ValueError("complex evaluation points are for FourierLaplace only")
        inside = pts[(pts >= I.a) & (pts <= I.b)]
        if inside.size:
            raise ValueError(f"evaluation point {inside[0]} lies inside the closed source interval")

    def integrand(y):
        fy = trig_interp(f, y)
        return np.stack([fy * _kernel(spec, pts[..., None], y) for spec in specs])

    return adaptive_gauss(integrand, I.a, I.b)


def oracle_quadrature(spec: SymbolSpec, f: SampledFunction, I: Interval, eval_points) -> np.ndarray:
    """One row of `oracle_symbols`."""
    return oracle_symbols([spec], f, I, eval_points)[0]
