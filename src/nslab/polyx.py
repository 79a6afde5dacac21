"""Exact polynomial algebra on intervals.

Polynomials are coefficient sequences in the monomial basis (ascending
powers), with Fraction coefficients in exact mode.  Used by the moment
machinery where the Hilbert-matrix conditioning makes floating arithmetic
meaningless.  `linear_fit` is the one least-squares line (with R^2) that
every fitted exponent in the package goes through.
"""

from __future__ import annotations

import numpy as np


def p_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def p_scale(p, a):
    return [a * c for c in p]


def p_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def p_deriv(p):
    return [i * c for i, c in enumerate(p)][1:] or [0 * p[0]]


def linear_fit(x, y):
    """Least-squares line y ~ c0 + c1 x over the columns [1, x]; returns
    (c0, c1, r_squared), with r_squared = 1 when y is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum((y - A @ coef) ** 2)) / ss if ss > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2
