from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import polyx

frac = st.fractions(min_value=-5, max_value=5, max_denominator=20)
poly = st.lists(frac, min_size=1, max_size=6)


def _as_exact(coeffs):
    return [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]


def _p_eval(coeffs, x):
    """Horner evaluation at a scalar or an array x."""
    acc = 0 * x if isinstance(x, np.ndarray) else type(coeffs[0])(0) if coeffs else 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _p_antideriv(p):
    return [0 * p[0]] + [c / Fraction(i + 1) if isinstance(c, (Fraction, int)) else c / (i + 1)
                         for i, c in enumerate(p)]


def _p_integral(p, a, b):
    P = _p_antideriv(p)
    return _p_eval(P, b) - _p_eval(P, a)


def _p_l2sq(p, a, b):
    return _p_integral(polyx.p_mul(p, p), a, b)


def _p_moment(p, j, a, b):
    """int_a^b x^j p(x) dx, the reference the moment checks are written in."""
    return _p_integral([0] * j + list(p), a, b)


def _p_compose_affine(p, c0, c1):
    """Coefficients of p(c0 + c1 t), by Horner composition."""
    acc = [p[-1]]
    lin = [c0, c1]
    for c in reversed(p[:-1]):
        acc = polyx.p_add(polyx.p_mul(acc, lin), [c])
    return acc


class TestBasicAlgebra:
    def test_eval_horner(self):
        # 1 + 2x + 3x^2 at x = 2
        assert _p_eval([1, 2, 3], 2) == 17

    def test_mul_known(self):
        assert polyx.p_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_derivative_antiderivative_roundtrip(self):
        p = _as_exact([1, 2, 3, 4])
        back = polyx.p_deriv(_p_antideriv(p))
        assert back == p

    def test_integral_monomial(self):
        # int_0^1 x^2 dx = 1/3, exact
        assert _p_integral([0, 0, Fraction(1)], Fraction(0), Fraction(1)) \
            == Fraction(1, 3)

    def test_moment(self):
        # int_0^1 x^2 * 1 dx
        assert _p_moment([Fraction(1)], 2, Fraction(0), Fraction(1)) \
            == Fraction(1, 3)

    def test_affine_composition(self):
        # p(x) = x^2, composed with x = 1 + 2t -> 1 + 4t + 4t^2
        assert _p_compose_affine([0, 0, 1], 1, 2) == [1, 4, 4]


@settings(max_examples=50, deadline=None)
@given(p=poly, q=poly)
def test_mul_evaluates_as_product(p, q):
    x = Fraction(3, 7)
    assert _p_eval(polyx.p_mul(p, q), x) == \
        _p_eval(p, x) * _p_eval(q, x)


@settings(max_examples=50, deadline=None)
@given(p=poly)
def test_l2sq_nonnegative_exact(p):
    assert _p_l2sq(p, Fraction(0), Fraction(1)) >= 0



class TestLinearFit:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(12)
            y = 0.7 - 2.5 * x + 0.1 * rng.standard_normal(12)
            c0, c1, r2 = polyx.linear_fit(x, y)
            slope, intercept = np.polyfit(x, y, 1)
            assert c0 == pytest.approx(intercept, rel=1e-12, abs=1e-12)
            assert c1 == pytest.approx(slope, rel=1e-12, abs=1e-12)
            pred = slope * x + intercept
            want = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
            assert r2 == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_constant_y_has_unit_r_squared(self):
        c0, c1, r2 = polyx.linear_fit([1.0, 2.0, 3.0, 4.0], [2.5] * 4)
        assert r2 == 1.0
        assert c0 == pytest.approx(2.5, abs=1e-12) and c1 == pytest.approx(0.0, abs=1e-12)
