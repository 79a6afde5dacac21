"""Exact Hausdorff-moment machinery.

Shifted-Legendre algebra on [0,1], Hilbert-matrix conditioning and the
quantitative moment stability bounds.  The problem is severely ill-posed
(sigma_max(H_N^{-1}) grows like e^{3.5(N+1)}), so nothing here inverts H_N in
floating point.  The identities are exact: H_N^{-1} has a closed binomial
formula in integers, and the stability bound is a set of Hilbert sums
sum_k p_k / (j + k + 1) over integer numerators.  sigma_max(H_N^{-1}) is the
top eigenvalue of that integer matrix, a perfectly conditioned problem, found
by certified power iteration on the integers.  The inversion
(`reconstruct.stability_sweep`) works in the Legendre basis of its fit and
converts no moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polyx
from .gridfn import Box, Interval


@dataclass(frozen=True)
class PrecisionConfig:
    """Width of the sigma_max certificate: the Fraction is within 2^-(bits+8)
    relative and rounds to lambda_1's float64 at any width; `nsl` uses 64."""

    bits: int = 256

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("precision requires at least 64 mantissa bits")


# ---------------------------------------------------------------------------
# Shifted-Legendre system on [0, 1]
# ---------------------------------------------------------------------------

def legendre_coeff_matrix(N: int):
    """Exact C[m][l] = (2m+1)(-1)^(m+l) (m+l)! / ((m-l)! (l!)^2), 0 <= l <= m <= N."""
    C = []
    for m in range(N + 1):
        row = []
        for l in range(m + 1):
            num = Fraction((2 * m + 1) * math.factorial(m + l),
                           math.factorial(m - l) * math.factorial(l) ** 2)
            row.append(num if (m + l) % 2 == 0 else -num)
        row += [Fraction(0)] * (N - m)
        C.append(row)
    return tuple(tuple(r) for r in C)


@dataclass(frozen=True)
class LegendreSystem:
    """Raw coefficients C per the product formula, orthonormal rows C/sqrt(2m+1).

    The raw rows give ||L_m||^2 = 2m+1 on (0,1); the normalized rows are the
    orthonormal system for which the Gram identity Chat^T Chat = H_N^{-1}
    holds exactly (computed rationally as sum_m C[m,j] C[m,k] / (2m+1)).
    """

    N: int

    @property
    def C(self):
        return legendre_coeff_matrix(self.N)

    def gram_exact(self):
        """Chat^T Chat as exact rationals."""
        C, n = self.C, self.N + 1
        return [[sum(C[m][j] * C[m][k] / Fraction(2 * m + 1) for m in range(n))
                 for k in range(n)] for j in range(n)]

    def hilbert_inverse_exact(self):
        """H_N^{-1} via the closed binomial formula (exact integers)."""
        n = self.N + 1
        return [[(-1) ** (i + j) * (i + j + 1) * math.comb(n + i, n - j - 1)
                 * math.comb(n + j, n - i - 1) * math.comb(i + j, i) ** 2
                 for j in range(n)] for i in range(n)]

    def raw_polynomial(self, m: int):
        """Exact monomial coefficients of L_m on [0,1] (norm sqrt(2m+1))."""
        return list(self.C[m][: m + 1])


def legendre_ode_residual(m: int):
    """Exact residual of -(x(1-x) L_m')' - m(m+1) L_m (list of Fractions)."""
    sys = LegendreSystem(max(m, 1))
    L = sys.raw_polynomial(m)
    Lp = polyx.p_deriv(L)
    inner = polyx.p_mul([Fraction(0), Fraction(1), Fraction(-1)], Lp)  # x(1-x) L'
    lhs = polyx.p_scale(polyx.p_deriv(inner), Fraction(-1))
    rhs = polyx.p_scale(L, Fraction(m * (m + 1)))
    return polyx.p_add(lhs, polyx.p_scale(rhs, Fraction(-1)))


# ---------------------------------------------------------------------------
# Hilbert-matrix conditioning
# ---------------------------------------------------------------------------

def hilbert_inverse_sigma_max(N: int, prec: PrecisionConfig = PrecisionConfig()) -> Fraction:
    """sigma_max(H_N^{-1}) = lambda_1 of the exact integer matrix A = H_N^{-1}.

    Power iteration on the integers of `LegendreSystem.hilbert_inverse_exact`
    from v = ((-1)^i), Av shifted right to about bits + 64 bits each step.
    With the exact Rayleigh quotient rho and eps^2 = |Av|^2/|v|^2 - rho^2, and
    lambda_2 <= trace - rho (A is positive definite), Kato-Temple gives
    0 <= lambda_1 - rho <= eps^2/(2 rho - trace).  The iteration stops once this
    bracket is certified to 2^-(bits+8) and to the double it rounds to (both
    ends round to one float64): 5-10 steps at 64 bits, 15-32 at 256, 1 <= N <= 40.
    It returns that rho as an exact Fraction.  No certificate in `bits` steps
    raises ArithmeticError, as does a float64 `eigvalsh` of A that differs by
    more than 1e-12 relative (measured <= 7e-16 for N <= 40).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > 40:
        raise ValueError(f"N must be <= 40, the orders the certificate is measured on, got {N}")
    hinv = LegendreSystem(N).hilbert_inverse_exact()
    trace = sum(row[i] for i, row in enumerate(hinv))
    v = [(-1) ** i for i in range(N + 1)]
    for _ in range(prec.bits):
        Av = [sum(a * x for a, x in zip(row, v)) for row in hinv]
        vv = sum(x * x for x in v)
        rho = Fraction(sum(x * y for x, y in zip(v, Av)), vv)
        eps2 = Fraction(sum(y * y for y in Av), vv) - rho * rho
        if 2 * rho > trace and eps2 <= (2 * rho - trace) * rho / 2 ** (prec.bits + 8) \
                and float(rho) == float(rho + eps2 / (2 * rho - trace)):
            break
        shift = max(max(abs(y) for y in Av).bit_length() - (prec.bits + 64), 0)
        v = [y >> shift for y in Av]
    else:
        raise ArithmeticError(f"sigma_max(H_{N}^-1): no certificate in {prec.bits} steps")
    check = np.linalg.eigvalsh(np.array(hinv, dtype=float))[-1]
    if not abs(float(rho) - check) <= 1e-12 * check:
        raise ArithmeticError(
            f"sigma_max(H_{N}^-1): {float(rho)!r} and float64 {check!r} disagree")
    return rho


# ---------------------------------------------------------------------------
# Stability bounds
# ---------------------------------------------------------------------------

def _box_constant(I, n_dim: int) -> float:
    """C = 3.5 n for the unit box, 6.5 n - 2 log|I| for sub-boxes."""
    if isinstance(I, Interval):
        vol = I.length
        unit = I.a == 0.0 and I.b == 1.0
    else:
        vol = I.volume
        unit = all(f.a == 0.0 and f.b == 1.0 for f in I.factors)
    if unit:
        return 3.5 * n_dim
    return 6.5 * n_dim - 2.0 * math.log(vol)


def verify_festmom(f, I, N: int):
    """`verify_festmom_stack` for the one-row stack [f]."""
    return verify_festmom_stack([f], I, N)[0]


def verify_festmom_stack(F, I, N: int):
    """Both sides of the moment stability bound at every order 0..N for each
    f of the stack F; moments taken in the unit-interval pullback variable of
    each box factor (the rescaled estimate).

    Returns, per f, one (lhs, rhs, holds) per order n = 0..N, with lhs =
    ||f||^2_{L2(I)} and rhs = e^{C(n+1)} sum_{|j| <= n} |f_j|^2 +
    ||grad f||^2_{L2(I)} / (4(n+1)^2).  Each f is a nonempty coefficient list
    on an Interval or a matrix c[i][j] x^i y^j on a 2D Box, all of one shape.
    ||f||^2, each moment sum and ||grad f||^2 are exact rationals from one
    `_hilbert_sums` pass over the stack, each rounded to float once.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if isinstance(I, Interval):
        factors = (I,)
        if not (0.0 <= I.a < I.b <= 1.0):
            raise ValueError("interval must lie inside (0,1)")
    elif isinstance(I, Box) and len(I.factors) == 2:
        factors = I.factors
        if not all(0.0 <= fac.a < fac.b <= 1.0 for fac in factors):
            raise ValueError("box must lie inside the unit square")
    else:
        raise ValueError("verify_festmom supports intervals and 2D boxes")
    l2s, msums, grads = _hilbert_sums(F, factors, N)
    growth = np.array([math.exp(_box_constant(I, len(factors)) * n) for n in range(1, N + 2)])
    rhs = growth * msums + grads[:, None] / (4.0 * np.arange(1, N + 2) ** 2)
    return [[(lhs, r, lhs <= r * (1 + 1e-12)) for r in row]
            for lhs, row in zip(l2s.tolist(), rhs.tolist())]


def _along(p, k, M):
    """The integer matrix M applied along axis k of the object array p."""
    return np.moveaxis(np.tensordot(np.array(M, dtype=object), p, axes=(1, k)), 0, k)


def _hilbert_apply(p, rows):
    """(Hp, L): along each of the last len(rows) axes k, the integer Hilbert block
    L_k/(i+m+1) (i < rows[k], m < p.shape[k], L_k the lcm of its denominators) applied
    to p; L is the product of the L_k, so Hp / L holds the sums of p/(i+m+1)."""
    L = 1
    for k, r in enumerate(rows, p.ndim - len(rows)):
        n = p.shape[k]
        Lk = math.lcm(*range(1, r + n))
        p = _along(p, k, [[Lk // (i + m + 1) for m in range(n)] for i in range(r)])
        L *= Lk
    return p, L


def _hilbert_sums(F, factors, N):
    """Float arrays over the stack F (axis 0) of ||f||^2_{L2(I)}, sum_{|j|<=n} |f_j|^2
    for n = 0..N (a row per f) and ||grad f||^2_{L2(I)}, each an exact rational rounded once.

    The pullback g(t) = f(a + lam t) onto the unit box is p(t)/D with integer
    coefficients p (one axis per factor) and one integer D for the stack (the
    largest power of two for floats).  Since int_0^1 t^m dt = 1/(m+1), the
    pullback moments are (H_{N,d} p)/D and ||g||^2 = p . H_{d,d} p / D^2 along
    every axis, with H the Hilbert block 1/(i+m+1): each is one integer sum
    over one common denominator.  The Jacobian prod(lam) and the chain-rule
    factor 1/lam_k of d/dx_k carry these back to I; the moments f_j are
    prod(lam) times the pullback ones.  Each integer matrix acts once on the
    stack, the Hilbert block at N (order n sums its leading (n+1)^d block, read
    off cumulative sums); int / int rounds each sum as float(Fraction) would.
    """
    c = np.array(F, dtype=object)
    if c.ndim != len(factors) + 1:
        raise ValueError("coefficients must have one axis per box factor and one shape")
    if not c.size:
        raise ValueError("f must have at least one coefficient")
    num, den = np.frompyfunc(
        lambda v: (v if isinstance(v, float) else Fraction(v)).as_integer_ratio(), 1, 2)(c)
    D = math.lcm(*den.flat)
    p = num * (D // den)
    lams = []
    for k, fac in enumerate(factors, 1):
        a = Fraction(fac.a).limit_denominator(10**12)
        lam = Fraction(fac.b).limit_denominator(10**12) - a
        q = math.lcm(a.denominator, lam.denominator)
        A, Lam = int(a * q), int(lam * q)
        d = p.shape[k] - 1
        # sum_i p_i (a + lam t)^i = sum_i p_i q^(d-i) (A + Lam t)^i / q^d
        p = _along(p, k, [[math.comb(i, m) * A ** (i - m) * Lam ** m * q ** (d - i)
                           if m <= i else 0 for i in range(d + 1)] for m in range(d + 1)])
        D *= q ** d
        lams.append(lam)
    vol = math.prod(lams)
    axes = tuple(range(1, p.ndim))
    # one name for the Hilbert-applied arrays, so each dies when the next is made
    H, L = _hilbert_apply(p, p.shape[1:])
    l2 = vol / (D * D * L) * np.sum(p * H, axis=axes)
    H, L = _hilbert_apply(p, [N + 1] * len(factors))
    H = H * H
    for k in axes:
        H = np.cumsum(H, axis=k)
    num, den = (vol ** 2 / (D * L) ** 2).as_integer_ratio()
    msums = H[(slice(None),) + (np.arange(N + 1),) * len(factors)] * num / den
    grad = np.zeros(len(l2), dtype=object)
    for k, n in enumerate(p.shape[1:], 1):
        if n > 1:
            dp = _along(p, k, [[i if i == m + 1 else 0 for i in range(n)] for m in range(n - 1)])
            H, L = _hilbert_apply(dp, dp.shape[1:])
            grad = grad + vol / (lams[k - 1] ** 2 * D * D * L) * np.sum(dp * H, axis=axes)
    return l2.astype(float), msums.astype(float), grad.astype(float)
