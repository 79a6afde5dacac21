import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import moments, multiplier, polyx
from nslab.gridfn import Box, Interval, SampledFunction, make_bump
from nslab.moments import (LegendreSystem, PrecisionConfig, hilbert_inverse_sigma_max,
                           legendre_ode_residual, verify_festmom, verify_festmom_stack)
from nslab.multiplier import adaptive_gauss, trig_interp
from test_polyx import _as_exact, _p_compose_affine, _p_eval, _p_integral, _p_l2sq

UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# Moment routes the program no longer runs, kept as references: moments of a
# polynomial or of a sampled function, and the moment-to-Legendre
# reconstruction with its precision guard (`required_bits`), which the
# inversion no longer needs because it evaluates its fit in the Legendre basis
# it solves in
# ---------------------------------------------------------------------------

@dataclass
class MomentSequence:
    interval: Interval
    N: int
    values: list
    precision_bits: int = 256
    quad_error: float = 0.0

    def __post_init__(self):
        if len(self.values) != self.N + 1:
            raise ValueError("moment sequence must hold N+1 values")


def required_bits(N: int, n_dim: int = 1) -> int:
    """Mantissa bits needed to survive the e^{3.5 n (N+1)} conditioning."""
    return math.ceil(3.5 * n_dim * (N + 1) / math.log(2.0)) + 64


def compute_moments(f, I: Interval, N: int, prec: PrecisionConfig = PrecisionConfig()) -> MomentSequence:
    """Plain moments f_j = int_I x^j f(x) dx, j = 0..N.

    f may be a polynomial (list of coefficients, exact if Fractions) or a
    SampledFunction (high-order quadrature with an error estimate attached).
    """
    if N < 0:
        raise ValueError("moment order must be nonnegative")
    if isinstance(f, SampledFunction):
        vals, err = _sampled_moments(f, I, N)
        return MomentSequence(I, N, vals, precision_bits=prec.bits, quad_error=err)
    coeffs = list(f)
    # f_j = sum_i c_i h_{i+j} with h_k = int_I x^k dx, on Fractions or on mpf
    with mpmath.workprec(prec.bits):
        if all(isinstance(c, (Fraction, int)) for c in coeffs):
            a, b = (Fraction(v).limit_denominator(10**12) for v in (I.a, I.b))
            c = _as_exact(coeffs)
        else:
            a, b, c = mpmath.mpf(I.a), mpmath.mpf(I.b), [mpmath.mpf(v) for v in coeffs]
        h = [(b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(len(c) + N)]
        vals = [sum(ci * h[i + j] for i, ci in enumerate(c)) for j in range(N + 1)]
    return MomentSequence(I, N, vals, precision_bits=prec.bits)


def _sampled_moments(f: SampledFunction, I: Interval, N: int):
    def integrand(y):
        # y**j with a Python int keeps numpy's scalar-exponent paths, so each
        # row equals the single-moment integrand bit for bit
        return trig_interp(f, y) * np.array([y**j for j in range(N + 1)])

    vals = adaptive_gauss(integrand, I.a, I.b)
    with mock.patch.multiple(multiplier, _ORDER=32, _MAX_DEPTH=6):
        coarse = adaptive_gauss(integrand, I.a, I.b)
    err = float(np.max(np.abs(vals - coarse)))
    vals = [v.real if abs(v.imag) < 1e-13 * (abs(v) + 1e-300) else v for v in map(complex, vals)]
    return vals, err


def unit_interval_moments(m: MomentSequence):
    """Moments of the affine pullback F(t) = f(x0 + lam t) onto (0,1).

    F_j = lam^{-j-1} sum_k binom(j,k) (-x0)^{j-k} f_k, exact when possible.
    """
    I = m.interval
    exact = all(isinstance(v, (Fraction, int)) for v in m.values)
    with mpmath.workprec(m.precision_bits):
        if exact:
            x0, b = (Fraction(v).limit_denominator(10**12) for v in (I.a, I.b))
            vals = m.values
        else:
            x0, b, vals = mpmath.mpf(I.a), mpmath.mpf(I.b), [_to_mp(v) for v in m.values]
        lam = b - x0
        out = [sum(math.comb(j, k) * (-x0) ** (j - k) * vals[k] for k in range(j + 1))
               / lam ** (j + 1) for j in range(m.N + 1)]
    return out, exact


def reconstruct_from_moments(m: MomentSequence, N: int):
    """Orthogonal projection onto span{L-hat_0..N} on I from the moments.

    Returns monomial coefficients (in the unit-interval variable t, together
    with the affine map) of sum_k lambda_k L-hat_k where lambda_k are the
    Legendre coefficients assembled from the moments.  Exact rational when the
    moments are rational: the reconstruction equals
    sum_k (C F)_k L_k / (2k+1), which removes all square roots.
    """
    if m.N < N:
        raise ValueError("moment sequence shorter than requested order")
    bits_needed = required_bits(N)
    if not all(isinstance(v, (Fraction, int)) for v in m.values) and m.precision_bits < bits_needed:
        raise ArithmeticError(
            f"insufficient precision: need at least {bits_needed} bits for N={N}")
    F, exact = unit_interval_moments(m)
    C = moments.legendre_coeff_matrix(N)
    with mpmath.workprec(m.precision_bits):
        if not exact:
            C = [[_to_mp(c) for c in row] for row in C]
        coeffs = [0] * (N + 1)
        for k in range(N + 1):
            lam_k = sum(C[k][l] * F[l] for l in range(k + 1))
            scale = lam_k / (2 * k + 1)
            for l in range(k + 1):
                coeffs[l] += scale * C[k][l]
    return coeffs, m.interval


def _to_mp(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)
    if isinstance(v, complex):
        return mpmath.mpc(v)
    if isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return v
    return mpmath.mpf(v)


def eval_reconstruction(coeffs, interval: Interval, x):
    """Evaluate a unit-interval reconstruction at physical points x."""
    t = (np.asarray(x, dtype=float) - interval.a) / interval.length
    if any(isinstance(c, (complex, mpmath.mpc)) for c in coeffs):
        cf = [complex(c) for c in coeffs]
    else:
        cf = [float(c) for c in coeffs]
    return _p_eval(cf, t)


class TestComputeMoments:
    def test_constant(self):
        m = compute_moments([Fraction(1)], UNIT, 2)
        assert m.values == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]

    def test_linear(self):
        m = compute_moments([Fraction(0), Fraction(1)], UNIT, 2)
        assert m.values == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_orthonormal_first_legendre(self):
        # L-hat_1 = (2t - 1) * sqrt(3) / sqrt(3) normalization: raw L_1 has
        # coefficients 3(2t-1); orthonormal row divides by sqrt(3)
        sys = LegendreSystem(1)
        raw = sys.raw_polynomial(1)          # norm sqrt(3)
        coeffs = [float(c) / math.sqrt(3) for c in raw]
        m = compute_moments(coeffs, UNIT, 1)
        assert float(m.values[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(m.values[1]) == pytest.approx(math.sqrt(3) / 6, rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            compute_moments([1], UNIT, -1)

    def test_sampled_function_matches_riemann_sums(self, grid):
        f = make_bump(UNIT, 0.0, 1.0, grid)
        m = compute_moments(f, UNIT, 10)
        x = grid.x[UNIT.contains(grid.x)]
        fx = f.values[UNIT.contains(grid.x)]
        for j, v in enumerate(m.values):
            riemann = np.sum(x**j * fx) * grid.dx
            assert abs(v - riemann) <= 1e-10 * abs(riemann)
        assert math.isfinite(m.quad_error) and m.quad_error <= 1e-8


class TestHilbertSigmaMax:
    def test_order_zero(self):
        assert float(hilbert_inverse_sigma_max(0)) == pytest.approx(1.0)

    def test_order_one_closed_form(self):
        # inverse of [[1,1/2],[1/2,1/3]] is [[4,-6],[-6,12]]; top eigenvalue
        # of the symmetric inverse is 8 + sqrt(52)
        val = float(hilbert_inverse_sigma_max(1))
        assert val == pytest.approx(8.0 + math.sqrt(52.0), rel=1e-10)

    def test_growth_monotone(self):
        vals = [float(hilbert_inverse_sigma_max(N)) for N in range(6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            hilbert_inverse_sigma_max(-1)
        with pytest.raises(ValueError, match="N must be <= 40"):
            hilbert_inverse_sigma_max(41)

    @pytest.mark.parametrize("N", [13, 17, 20])
    def test_matches_600_bit_eigensolve_of_hilbert_matrix(self, N):
        # independent route: 1 / lambda_min of H_N itself at 600 bits
        with mpmath.workprec(600):
            H = mpmath.matrix(N + 1)
            for i in range(N + 1):
                for j in range(N + 1):
                    H[i, j] = mpmath.mpf(1) / (i + j + 1)
            ref = 1 / min(mpmath.eigsy(H, eigvals_only=True))
            rho = hilbert_inverse_sigma_max(N)
            got = mpmath.mpf(rho.numerator) / rho.denominator
            assert abs(got - ref) <= mpmath.mpf(10) ** -30 * ref

    def test_order_forty_agrees_with_float64(self):
        got = float(hilbert_inverse_sigma_max(40))
        hinv = np.array(LegendreSystem(40).hilbert_inverse_exact(), dtype=float)
        assert math.isfinite(got)
        assert got == pytest.approx(np.linalg.eigvalsh(hinv)[-1], rel=1e-12)

    def test_float64_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(moments.np.linalg, "eigvalsh",
                            lambda a: np.array([2.0 * np.max(np.abs(a))]))
        with pytest.raises(ArithmeticError):
            hilbert_inverse_sigma_max(3)

    def test_float_equals_full_eigensolve(self):
        # reference: every eigenvalue of the integer matrix at 256 bits; the
        # default width and the 64 bits that `nsl` runs print the same double
        for N in range(21):
            hinv = LegendreSystem(N).hilbert_inverse_exact()
            with mpmath.workprec(256):
                ref = max(mpmath.eigsy(mpmath.matrix(hinv), eigvals_only=True))
            for prec in (PrecisionConfig(), PrecisionConfig(bits=64)):
                assert float(hilbert_inverse_sigma_max(N, prec)) == float(ref)

    def test_near_midpoint_rounds_to_the_double_of_lambda_1(self, monkeypatch):
        # lambda_1 = 2^53 + 1 + 2.2e-16 lies just above the midpoint of two
        # doubles: a bracket 2^-72 wide relative still straddles it, so the stop test
        # also needs both ends to round to one double
        M = [[2**53 + 1, 1], [1, 2**52]]
        monkeypatch.setattr(LegendreSystem, "hilbert_inverse_exact", lambda self: M)
        with mpmath.workprec(400):
            ref = float(max(mpmath.eigsy(mpmath.matrix(M), eigvals_only=True)))
        assert ref == 9007199254740994.0
        assert float(hilbert_inverse_sigma_max(1, PrecisionConfig(bits=64))) == ref

    def test_certified_to_512_bits(self):
        N = 20
        with mpmath.workprec(1100):
            H = mpmath.matrix(N + 1)
            for i in range(N + 1):
                for j in range(N + 1):
                    H[i, j] = mpmath.mpf(1) / (i + j + 1)
            ref = 1 / min(mpmath.eigsy(H, eigvals_only=True))
            rho = hilbert_inverse_sigma_max(N, PrecisionConfig(bits=512))
            got = mpmath.mpf(rho.numerator) / rho.denominator
            assert abs(got - ref) <= mpmath.mpf(2) ** -500 * ref

    def test_double_top_eigenvalue_raises(self, monkeypatch):
        # lambda_1 = lambda_2: no gap, so no Kato-Temple certificate
        monkeypatch.setattr(LegendreSystem, "hilbert_inverse_exact",
                            lambda self: [[1, 0], [0, 1]])
        with pytest.raises(ArithmeticError, match="certificate"):
            hilbert_inverse_sigma_max(1)


class TestGramIdentity:
    @pytest.mark.parametrize("N", [1, 4, 8])
    def test_orthonormal_gram_equals_hilbert_inverse(self, N):
        sys = LegendreSystem(N)
        assert sys.gram_exact() == sys.hilbert_inverse_exact()

    def test_order_one_entries(self):
        sys = LegendreSystem(1)
        assert sys.hilbert_inverse_exact() == [[4, -6], [-6, 12]]

    def test_orthonormality_integral(self):
        sys = LegendreSystem(4)
        for m in range(5):
            for k in range(m + 1):
                Lm = sys.raw_polynomial(m)
                Lk = sys.raw_polynomial(k)
                ip = _p_integral(polyx.p_mul(Lm, Lk), Fraction(0), Fraction(1))
                ip /= Fraction((2 * m + 1)) ** Fraction(1) if False else 1
                expect = Fraction(2 * m + 1) if m == k else Fraction(0)
                assert ip == expect


class TestLegendreODE:
    @pytest.mark.parametrize("m", range(9))
    def test_residual_exactly_zero(self, m):
        assert all(c == 0 for c in legendre_ode_residual(m))


class TestFestmom:
    def test_zero_function(self):
        lhs, rhs, holds = verify_festmom([Fraction(0)], UNIT, 3)[3]
        assert (float(lhs), float(rhs), holds) == (0.0, 0.0, True)

    def test_random_suite_small(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            coeffs = rng.standard_normal(6).tolist()
            for N in (1, 4, 8):
                _, _, holds = verify_festmom(coeffs, Interval(0.2, 0.8), N)[N]
                assert holds

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_top_legendre_mode_gradient_term_dominates(self, N):
        # f = orthonormal L_{N+1}: moment sum up to N vanishes by
        # orthogonality, so the gradient term alone must carry the bound
        sys = LegendreSystem(N + 1)
        raw = sys.raw_polynomial(N + 1)
        coeffs = [float(c) / math.sqrt(2 * (N + 1) + 1) for c in raw]
        lhs, rhs, holds = verify_festmom(coeffs, UNIT, N)[N]
        assert holds
        assert float(lhs) == pytest.approx(1.0, rel=1e-8)
        assert float(rhs) >= 1.0

    def test_domain_check(self):
        with pytest.raises(ValueError):
            verify_festmom([1], Interval(-0.5, 0.5), 2)
        with pytest.raises(ValueError):
            verify_festmom([[1.0]], Interval(0.2, 0.5), 2)
        with pytest.raises(ValueError, match="at least one coefficient"):
            verify_festmom([], Interval(0.2, 0.5), 2)
        with pytest.raises(ValueError, match="at least one coefficient"):
            verify_festmom([[]], Box((Interval(0.2, 0.5),) * 2), 2)


def _festmom_polyx_reference(f, I, N):
    """The 1D bound through Fraction convolutions and antiderivatives."""
    coeffs = _as_exact(list(f))
    a = Fraction(I.a).limit_denominator(10**12)
    b = Fraction(I.b).limit_denominator(10**12)
    lhs = _p_l2sq(coeffs, a, b)
    lam = b - a
    pulled = _p_compose_affine(coeffs, a, lam)
    # int_0^1 t^j pulled(t) dt
    msum = sum((lam * _p_integral([0] * j + pulled, Fraction(0), Fraction(1))) ** 2
               for j in range(N + 1))
    grad = _p_l2sq(polyx.p_deriv(coeffs), a, b)
    C = moments._box_constant(I, 1)
    rhs = math.exp(C * (N + 1)) * float(msum) + float(grad) / (4.0 * (N + 1) ** 2)
    lhs = float(lhs)
    return lhs, rhs, lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("ab", [(0.1, 0.9), (0.0, 1.0), (0.2, 0.8)])
def test_festmom_equals_polyx_reference(ab):
    # the criterion-3 suite (seed 0, 50 degree-10 polynomials, N = 1..8),
    # then one polynomial of each degree 0..3
    I = Interval(*ab)
    rng = np.random.default_rng(0)
    suite = [rng.standard_normal(11).tolist() for _ in range(50)]
    suite += [rng.standard_normal(d + 1).tolist() for d in range(4)]
    for coeffs in suite:
        assert verify_festmom(coeffs, I, 8) == [_festmom_polyx_reference(coeffs, I, N)
                                                for N in range(9)]


def _festmom_single_order_reference(f, I, N):
    """The bound at order N alone, one Hilbert block of N + 1 rows per order:
    the earlier single-order `_hilbert_sums` and `verify_festmom`."""
    factors = I.factors if isinstance(I, Box) else (I,)
    c = np.frompyfunc(Fraction, 1, 1)(np.array(f, dtype=object))
    D = math.lcm(*(v.denominator for v in c.flat))
    p = np.frompyfunc(lambda v: v.numerator * (D // v.denominator), 1, 1)(c)
    lams = []
    for k, fac in enumerate(factors):
        a = Fraction(fac.a).limit_denominator(10**12)
        lam = Fraction(fac.b).limit_denominator(10**12) - a
        q = math.lcm(a.denominator, lam.denominator)
        A, Lam = int(a * q), int(lam * q)
        d = p.shape[k] - 1
        p = moments._along(p, k, [[math.comb(i, m) * A ** (i - m) * Lam ** m * q ** (d - i)
                                   if m <= i else 0 for i in range(d + 1)]
                                  for m in range(d + 1)])
        D *= q ** d
        lams.append(lam)
    vol = math.prod(lams)
    Hp, L = moments._hilbert_apply(p, p.shape)
    l2 = vol * Fraction(np.sum(p * Hp), D * D * L)
    mom, L = moments._hilbert_apply(p, [N + 1] * p.ndim)
    msum = vol ** 2 * Fraction(np.sum(mom * mom), (D * L) ** 2)
    grad = Fraction(0)
    for k, n in enumerate(p.shape):
        if n > 1:
            dp = moments._along(p, k, [[i if i == m + 1 else 0 for i in range(n)]
                                       for m in range(n - 1)])
            Hdp, L = moments._hilbert_apply(dp, dp.shape)
            grad += vol / lams[k] ** 2 * Fraction(np.sum(dp * Hdp), D * D * L)
    C = moments._box_constant(I, len(factors))
    rhs = math.exp(C * (N + 1)) * float(msum) + float(grad) / (4.0 * (N + 1) ** 2)
    return float(l2), rhs, float(l2) <= rhs * (1 + 1e-12)


class TestFestmomBox:
    BOX = Box((Interval(0.1, 0.9), Interval(0.2, 0.7)))

    @pytest.mark.parametrize("box", [BOX, Box((Interval(0.0, 1.0), Interval(0.0, 1.0)))])
    def test_all_orders_equal_single_order_reference(self, box):
        rng = np.random.default_rng(6)
        for shape in ((3, 3), (4, 2), (1, 5)):
            c = rng.standard_normal(shape).tolist()
            assert verify_festmom(c, box, 3) == [_festmom_single_order_reference(c, box, N)
                                                 for N in range(4)]

    def test_zero_function(self):
        assert verify_festmom([[0.0, 0.0], [0.0, 0.0]], self.BOX, 2)[2] == (0.0, 0.0, True)

    def test_separable_lhs_is_product_of_norms(self):
        rng = np.random.default_rng(4)
        p = _as_exact(rng.standard_normal(4).tolist())
        q = _as_exact(rng.standard_normal(3).tolist())
        c = [[pi * qj for qj in q] for pi in p]
        lhs, _, holds = verify_festmom(c, self.BOX, 3)[3]
        exact = (_p_l2sq(p, Fraction(1, 10), Fraction(9, 10))
                 * _p_l2sq(q, Fraction(1, 5), Fraction(7, 10)))
        assert lhs == float(exact) and holds

    @pytest.mark.parametrize("box", [BOX, Box((Interval(0.0, 1.0), Interval(0.0, 1.0)))])
    def test_random_degree_two_tensors_hold(self, box):
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.standard_normal((3, 3)).tolist()
            for N in (0, 1, 3):
                assert verify_festmom(c, box, N)[N][2]

    def test_domain_check(self):
        with pytest.raises(ValueError):
            verify_festmom([[1.0]], Box((Interval(0.5, 1.5), Interval(0.0, 1.0))), 1)
        with pytest.raises(ValueError):
            verify_festmom([[[1.0]]], Box((Interval(0.0, 1.0),) * 3), 1)


class TestFestmomStack:
    BOX = Box((Interval(0.1, 0.9), Interval(0.2, 0.7)))

    @pytest.mark.parametrize("I, shape", [
        (Interval(0.1, 0.9), (11,)), (Interval(0.0, 1.0), (4,)), (Interval(0.2, 0.8), (1,)),
        (BOX, (3, 3)), (BOX, (4, 2)), (Box((Interval(0.0, 1.0),) * 2), (1, 1))])
    def test_equals_per_f(self, I, shape):
        # one common denominator over rows of very different scales and
        # denominators (dyadic floats, thirds) and the zero polynomial; the
        # (1,) and (1, 1) shapes are degree 0
        rng = np.random.default_rng(7)
        F = [(rng.standard_normal(shape) * scale).tolist() for scale in (1.0, 2.0 ** -40, 1e6)]
        F += [np.zeros(shape).tolist(),
              np.vectorize(lambda v: Fraction(round(3 * v), 3))(rng.standard_normal(shape)).tolist()]
        got = verify_festmom_stack(F, I, 4)
        assert got == [verify_festmom(f, I, 4) for f in F]
        assert got == [[_festmom_single_order_reference(f, I, N) for N in range(5)] for f in F]
        assert got[3][4] == (0.0, 0.0, True)

    def test_ragged_stack_raises(self):
        with pytest.raises(ValueError, match="one shape"):
            verify_festmom_stack([[1.0, 2.0], [1.0]], Interval(0.1, 0.9), 2)
        with pytest.raises(ValueError, match="one shape"):
            verify_festmom_stack([[[1.0, 2.0], [3.0, 4.0]], [[1.0]]], self.BOX, 2)


_SERIES_TERMS = 400  # moments of f summed into G


@mock.patch.object(multiplier, "_RTOL", 1e-10)
def _weighted_moment_bounds(f, I, gamma, signed):
    """Both sides of the weighted moment bounds.

    Positive weights (signed=False):
        ||f||_{L2(I)} <= e^{C r} / min_{j<=N_f} gamma_j * ||G||_{L2(I)},
        G(x) = sum_{j<400} gamma_j f_j x^j,  r = ||f'|| / ||f||,  C = 6.5 - 2 log|I|.
    Signed weights (signed=True) add the gradient term ||G'|| / (N_f + 1).
    The moments f_j are exact Hankel sums (`compute_moments`), each rounded
    to float once.
    """
    if not (0.0 <= I.a < I.b <= 1.0):
        raise ValueError("interval must lie inside (0,1)")
    coeffs = [float(c) for c in f]
    l2 = math.sqrt(max(_p_l2sq(coeffs, I.a, I.b), 0.0))
    if l2 == 0.0:
        return 0.0, 0.0, True
    grad = math.sqrt(max(_p_l2sq(polyx.p_deriv(coeffs), I.a, I.b), 0.0))
    r = grad / l2
    Nf = max(1, round(r)) - 1
    gam = [float(gamma(j)) if callable(gamma) else float(gamma[j]) for j in range(_SERIES_TERMS)]
    if any(g == 0 for g in gam[: Nf + 1]):
        raise ValueError("weights must be nonzero up to N_f")
    if not signed and any(g <= 0 for g in gam):
        raise ValueError("unsigned bound requires positive weights")
    moms = compute_moments(_as_exact(coeffs), I, _SERIES_TERMS - 1).values
    wmoms = [g * float(m) for g, m in zip(gam, moms)]

    def G(x):
        return _p_eval(wmoms, np.asarray(x, dtype=float))

    Gnorm = math.sqrt(abs(adaptive_gauss(lambda x: G(x) ** 2, I.a, I.b)))
    Cbox = 6.5 - 2.0 * math.log(I.length)
    front = math.exp(Cbox * r) / min(abs(g) for g in gam[: Nf + 1])
    if not signed:
        rhs = front * Gnorm
    else:
        dmoms = [j * wmoms[j] for j in range(1, _SERIES_TERMS)]

        def Gp(x):
            return _p_eval(dmoms, np.asarray(x, dtype=float))

        Gpnorm = math.sqrt(abs(adaptive_gauss(lambda x: Gp(x) ** 2, I.a, I.b)))
        rhs = front * (Gnorm + Gpnorm / (Nf + 1))
    return l2, rhs, l2 <= rhs * (1 + 1e-9)


class TestWeightedBounds:
    def test_unit_weights_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            coeffs = rng.standard_normal(5).tolist()
            for signed in (False, True):
                _, _, holds = _weighted_moment_bounds(
                    coeffs, Interval(0.1, 0.9), lambda j: 1.0, signed)
                assert holds

    def test_riesz_weights(self):
        # gamma_j = prod_{k<=j} (1 - 2a/k) with a = 1/4: 1, 1/2, 3/8, ...
        alpha = 0.25

        def gamma(j):
            out = 1.0
            for k in range(1, j + 1):
                out *= 1.0 - 2.0 * alpha / k
            return out

        assert gamma(0) == 1.0 and gamma(1) == 0.5
        _, _, holds = _weighted_moment_bounds(
            [0.3, -1.0, 2.0], Interval(0.2, 0.7), gamma, False)
        assert holds

    def test_zero_function_trivially_holds(self):
        lhs, rhs, holds = _weighted_moment_bounds(
            [0.0], Interval(0.1, 0.9), lambda j: 1.0, False)
        assert holds and lhs == 0.0

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            _weighted_moment_bounds([1.0, 5.0, 3.0, 1.0], Interval(0.1, 0.9),
                                   lambda j: 0.0, False)


class TestReconstructFromMoments:
    def test_legendre_mode_exact(self):
        sys = LegendreSystem(2)
        raw = polyx.p_scale(sys.raw_polynomial(2), Fraction(1))
        m = compute_moments(raw, UNIT, 4)
        coeffs, itv = reconstruct_from_moments(m, 4)
        assert coeffs[:3] == raw and all(c == 0 for c in coeffs[3:])

    def test_constant_order_zero(self):
        m = compute_moments([Fraction(1)], UNIT, 0)
        coeffs, itv = reconstruct_from_moments(m, 0)
        assert coeffs == [Fraction(1)]

    def test_degree6_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        coeffs = [Fraction(x).limit_denominator(1000)
                  for x in rng.standard_normal(7)]
        m = compute_moments(coeffs, UNIT, 6)
        rec, itv = reconstruct_from_moments(m, 6)
        diff = polyx.p_add(rec, polyx.p_scale(coeffs, Fraction(-1)))
        err = _p_l2sq(diff, Fraction(0), Fraction(1))
        assert float(err) <= 1e-30

    def test_general_interval_roundtrip(self):
        I = Interval(0.25, 0.75)
        coeffs = [Fraction(1), Fraction(-2), Fraction(3)]
        m = compute_moments(coeffs, I, 4)
        rec, itv = reconstruct_from_moments(m, 4)
        xs = np.linspace(I.a + 0.01, I.b - 0.01, 7)
        got = eval_reconstruction(rec, itv, xs)
        want = _p_eval([float(c) for c in coeffs], xs)
        assert np.max(np.abs(np.asarray(got, dtype=float) - want)) <= 1e-12

    def test_precision_guard(self):
        vals = [mpmath.mpf(1)] * 13
        m = MomentSequence(UNIT, 12, vals, precision_bits=64)
        with pytest.raises(ArithmeticError):
            reconstruct_from_moments(m, 12)


def _mp_pullback_reference(m):
    """The extended-precision pullback as a separate mp-only loop."""
    with mpmath.workprec(m.precision_bits):
        x0, lam = mpmath.mpf(m.interval.a), mpmath.mpf(m.interval.b) - mpmath.mpf(m.interval.a)
        out = []
        for j in range(m.N + 1):
            s = mpmath.mpc(0) if any(isinstance(v, complex) for v in m.values) else mpmath.mpf(0)
            for k in range(j + 1):
                s += mpmath.binomial(j, k) * (-x0) ** (j - k) * _to_mp(m.values[k])
            out.append(s / lam ** (j + 1))
        return out


def _mp_reconstruction_reference(m, N):
    """The extended-precision projection as a separate mp-only loop."""
    F = _mp_pullback_reference(m)
    C = moments.legendre_coeff_matrix(N)
    with mpmath.workprec(m.precision_bits):
        coeffs = [mpmath.mpf(0)] * (N + 1)
        for k in range(N + 1):
            lam_k = sum(_to_mp(C[k][l]) * F[l] for l in range(k + 1))
            scale = lam_k / (2 * k + 1)
            for l in range(k + 1):
                coeffs[l] = coeffs[l] + scale * _to_mp(C[k][l])
        return coeffs


class TestOneArithmeticRoute:
    """Exact and extended-precision moments run one code path; on float and
    complex moments it gives bit for bit what an mp-only loop gives."""

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_pullback_and_reconstruction_match_mp_loop(self, complex_values):
        rng = np.random.default_rng(17 + complex_values)
        N = 9
        vals = rng.standard_normal(N + 1)
        if complex_values:
            vals = vals + 1j * rng.standard_normal(N + 1)
        m = MomentSequence(Interval(0.2, 0.7), N, [v.item() for v in vals],
                           precision_bits=required_bits(N))
        F, exact = unit_interval_moments(m)
        assert not exact
        assert F == _mp_pullback_reference(m)
        coeffs, _ = reconstruct_from_moments(m, N)
        assert coeffs == _mp_reconstruction_reference(m, N)

    def test_float_coefficients_match_exact_moments(self):
        coeffs = [0.25, -1.5, 2.0, 0.75]
        I = Interval(0.1, 0.9)
        mp_vals = compute_moments(coeffs, I, 8).values
        exact = compute_moments(_as_exact(coeffs), I, 8).values
        assert all(isinstance(v, Fraction) for v in exact)
        for a, b in zip(mp_vals, exact):
            assert abs(float(a) - float(b)) <= 1e-15 * abs(float(b))


class TestPrecisionPolicy:
    def test_required_bits_formula(self):
        assert required_bits(7) == math.ceil(3.5 * 8 / math.log(2.0)) + 64

    def test_minimum_bits(self):
        with pytest.raises(ValueError):
            PrecisionConfig(bits=32)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_roundtrip_property_exact(coeffs):
    fr = [Fraction(c) for c in coeffs]
    deg = len(fr) - 1
    m = compute_moments(fr, UNIT, deg)
    rec, _ = reconstruct_from_moments(m, deg)
    diff = polyx.p_add(rec, polyx.p_scale(fr, Fraction(-1)))
    assert _p_l2sq(diff, Fraction(0), Fraction(1)) == 0
