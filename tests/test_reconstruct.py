import math
import os
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from nslab import moments, multiplier, reconstruct
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump, norm
from nslab.reconstruct import _design, _fit, _on_grid, _project, _select, stability_sweep

I01 = Interval(0.0, 1.0)
J23 = Interval(2.0, 3.0)
SYMBOL_PARAMS = {"Hilbert": {}, "ModifiedHilbert": {"delta": 0.05},
                 "RieszInverse": {"alpha": 0.25},
                 "FourierLaplace": {"alpha": 0.0, "beta": -1.0}}


def _spec(kind, **params):
    """The symbol spec that `stability_sweep` builds for the operator `kind`."""
    return multiplier.symbol(reconstruct._SYMBOL_OF[kind][0], **params)


class Samples(NamedTuple):
    """Samples at `points` of the operator `spec` applied to a source on I."""
    spec: multiplier.SymbolSpec
    I: Interval
    points: np.ndarray
    values: np.ndarray


def sample(kind, f, I, J, num, **params):
    """Clean quadrature-oracle samples on `num` equispaced points of J, as
    `stability_sweep` takes them before its noise draws."""
    spec, pts = _spec(kind, **params), np.linspace(J.a, J.b, num)
    return Samples(spec, I, pts, multiplier.oracle_quadrature(spec, f, I, pts))


def closed_form_hilbert_data(f_j, J, num=64, bits=320, terms=400):
    """Extended-precision samples of (1/pi) sum_j f_j x^{-j-1} on J: the data
    rounded to float64, and the list of the samples themselves.

    f_j are exact moments of a source on (0,1); the series is the analytic
    continuation of the transform off the source interval, so this is an
    independent data oracle for the moment-recovery fit.
    """
    pts = np.linspace(J.a, J.b, num)
    vals = []
    with mpmath.workprec(bits):
        for x in pts:
            xm = mpmath.mpf(float(x))
            acc = mpmath.mpf(0)
            for j in range(terms):
                fj = f_j(j)
                acc += fj * xm ** (-j - 1)
            vals.append(acc / mpmath.pi)
    return Samples(_spec("Hilbert"), I01, pts, np.array([complex(v) for v in vals])), vals


def _path(data, N, noise=0.0):
    """The values of `data` projected on the design for fits up to order N."""
    return _project(_design(data.spec, data.I, data.points, N), data.values, noise)


# ---------------------------------------------------------------------------
# Extended-precision reference fit of Hilbert data: the design from the
# forward recurrence with the bits it loses, modified Gram-Schmidt, the
# projection and the back substitution, all at `bits`
# ---------------------------------------------------------------------------

def _vdot(a, b):
    """sum conj(a_i) b_i."""
    return mpmath.fdot(b, a, conjugate=True)


def _mgs_qr(cols, bits):
    """Modified Gram-Schmidt QR of a column list, stopped before the first
    numerically dependent column."""
    with mpmath.workprec(bits):
        qs, R = [], []
        for a in cols:
            v = list(a)
            rk = []
            for q in qs:
                c = _vdot(q, v)
                rk.append(c)
                v = [vi - c * qi for vi, qi in zip(v, q)]
            nrm = mpmath.sqrt(_vdot(v, v).real)
            if nrm < mpmath.sqrt(_vdot(a, a).real) * mpmath.mpf(2) ** (-(bits - 16)):
                break
            qs.append([vi / nrm for vi in v])
            R.append(rk + [nrm])
        return qs, R


def _ref_design(data, N, bits):
    """The Hilbert design of order M = min(N + _FIT_BUFFER, m//2 - 1) at the
    points of `data`, as (itv, M, qs, R, bits): column k at x is
    sqrt((2k+1)/(2h)) sign(z)/pi f_k(z), z = (x - c)/h, with f_0 = log((z+1)/(z-1)),
    f_1 = z f_0 - 2 and (k+1) f_{k+1} = (2k+1) z f_k - k f_{k-1} run forward
    with the 2M log2(|z| + sqrt(z^2 - 1)) bits that it loses."""
    assert data.spec.kind == "HilbertSign"
    itv, M = data.I, min(N + reconstruct._FIT_BUFFER, data.points.size // 2 - 1)
    z_far = max(abs(x - itv.center) / (0.5 * itv.length) for x in data.points.real)
    loss = 2 * M * math.log2(z_far + math.sqrt(z_far ** 2 - 1))
    with mpmath.workprec(bits + 32 + math.ceil(loss)):
        c, h = (mpmath.mpf(itv.a) + itv.b) / 2, (mpmath.mpf(itv.b) - itv.a) / 2
        cols = [[] for _ in range(M + 1)]
        for x in data.points.real:
            z = (mpmath.mpf(x) - c) / h
            s, za = mpmath.sign(z), abs(z)
            f = [mpmath.log((za + 1) / (za - 1))]
            f.append(za * f[0] - 2)
            for k in range(1, M):
                f.append(((2 * k + 1) * za * f[k] - k * f[k - 1]) / (k + 1))
            for k in range(M + 1):
                cols[k].append(mpmath.sqrt((2 * k + 1) / (2 * h)) * s ** (k + 1) / mpmath.pi * f[k])
    return (itv, M, *_mgs_qr(cols, bits), bits)


def _ref_path(data, values, N, bits, noise=0.0):
    """(design, rhs, residuals, noise, floor) of `values` on `_ref_design`."""
    design = _ref_design(data, N, bits)
    qs, bres, rhs, residuals = design[2], list(values), [], []
    with mpmath.workprec(bits):
        for q in qs:
            c = _vdot(q, bres)
            rhs.append(c)
            bres = [bi - c * qi for bi, qi in zip(bres, q)]
            residuals.append(mpmath.sqrt(_vdot(bres, bres).real))
    return design, rhs, residuals, noise, 1e-8 * max(float(abs(v)) for v in values)


def _ref_fit(path, N):
    """`_fit` of a `_ref_path`: the same buffer and gate, at its bits."""
    (itv, M, qs, R, bits), rhs, residuals, noise, floor = path
    M_fit = min(N + reconstruct._FIT_BUFFER, M)
    gate = reconstruct._BUFFER_GATE * max(noise, floor)
    M_use = N
    while M_use < M_fit and abs(rhs[M_use + 1]) > gate:
        M_use += 1
    with mpmath.workprec(bits):
        x = [mpmath.mpf(0)] * (M_use + 1)
        for i in range(M_use, -1, -1):
            s = rhs[i]
            for l in range(i + 1, M_use + 1):
                s -= R[l][i] * x[l]
            x[i] = s / R[i][i]
    return x[:N + 1], itv, residuals[N]


def _mp_power_closed_form(z, beta, N):
    """f_N(z) = int_{-1}^1 P_N(t) |z - t|^beta dt, |z| > 1, at the working
    precision: sgn(z)^N (-beta)_N / (2^N N!) |z|^(beta-N) B(1/2, N+1)
    2F1((N-beta)/2, (N-beta+1)/2; N+3/2; 1/z^2)."""
    beta, s, z = mpmath.mpf(beta), mpmath.sign(z) ** N, abs(z)
    return (s * mpmath.rf(-beta, N) / (2 ** N * mpmath.factorial(N)) * z ** (beta - N)
            * mpmath.beta(mpmath.mpf(1) / 2, N + 1)
            * mpmath.hyp2f1((N - beta) / 2, (N - beta + 1) / 2, N + mpmath.mpf(3) / 2,
                            1 / z ** 2))


def _moment_table(itv: Interval, N: int):
    """int_I y^j G_k(y) dy for k, j <= N, exact until one final rounding.

    With s = (y - a)/L, G_k = sqrt((2k+1)/L) L_k(s)/(2k+1) for the integer rows
    C of `legendre_coeff_matrix`, and int_0^1 s^i L_k = sum_l C[k][l]/(i+l+1);
    the float ends are dyadic, a = A/q and L = B/q, and (A + B s)^j / q^j
    expands y^j."""
    C = moments.legendre_coeff_matrix(N)
    D = math.lcm(*range(1, 2 * N + 2))
    S = [[sum(int(C[k][l]) * (D // (i + l + 1)) for l in range(k + 1)) if i >= k else 0
          for i in range(N + 1)] for k in range(N + 1)]
    a, L = Fraction(itv.a), Fraction(itv.b) - Fraction(itv.a)
    q = math.lcm(a.denominator, L.denominator)
    A, B = int(a * q), int(L * q)
    T = [[math.comb(j, i) * A ** (j - i) * B ** i for i in range(j + 1)] for j in range(N + 1)]
    return [[mpmath.sqrt(mpmath.mpf(L.numerator) / (L.denominator * (2 * k + 1)))
             * mpmath.ldexp(mpmath.mpf(sum(T[j][i] * S[k][i] for i in range(k, j + 1))) / D,
                            -j * (q.bit_length() - 1)) if j >= k else mpmath.mpf(0)
             for j in range(N + 1)] for k in range(N + 1)]


def fit_moments(fit, bits=256):
    """Moments 0..N of a `_fit` result, int_I y^j sum_k a_k G_k through the
    exact table (on the tilde image of I for ModifiedHilbert, whose zeroth
    moment is still f_0), each rounded to float64 once; real parts only."""
    a, itv, _ = fit
    N = len(a) - 1
    with mpmath.workprec(bits):
        a = [mpmath.mpmathify(complex(v)) if isinstance(v, np.generic) else v for v in a]
        mom = _moment_table(itv, N)
        return [float(mpmath.re(mpmath.fsum(a[k] * mom[k][j] for k in range(N + 1))))
                for j in range(N + 1)]


def riesz_coefficient(alpha, j):
    """c_0 = 1, c_j = prod_{k=1..j} (1 - 2 alpha / k)."""
    c = 1.0
    for k in range(1, j + 1):
        c *= 1.0 - 2.0 * alpha / k
    return c


def expansion_basis(kind, j, x, delta=None, alpha=None, beta=None):
    """j-th far-field basis function at x (tilde variable for ModifiedHilbert).

    Hilbert: pi^-1 x^{-j-1}; RieszInverse: c_j x^{-j-1+2a}; ModifiedHilbert:
    (pi^-1 + 2 delta x) x^{-j-1}, with the constant -delta folded into j = 0;
    FourierLaplace: ((a+ib) x)^j / j!.  Valid for |x| > sup I in the
    power-series cases; everywhere for FourierLaplace.
    """
    x = np.asarray(x)
    if kind == "Hilbert":
        return x ** (-j - 1.0) / np.pi
    if kind == "ModifiedHilbert":
        out = (1.0 / np.pi + 2.0 * delta * x) * x ** (-j - 1.0)
        return out - delta if j == 0 else out
    if kind == "RieszInverse":
        return riesz_coefficient(alpha, j) * x ** (-j - 1.0 + 2.0 * alpha)
    return ((alpha + 1j * beta) * x) ** j / math.factorial(j)


def far_field_kernel(kind, x, y, delta=None, alpha=None, beta=None):
    """sum_j y^j expansion_basis(kind, j, x) in closed form, for mp scalars:
    the kernels whose Legendre integrals are the design's columns."""
    if kind == "Hilbert":
        return 1 / (mpmath.pi * (x - y))
    if kind == "ModifiedHilbert":
        return (1 / mpmath.pi + 2 * delta * x) / (x - y) - delta
    if kind == "RieszInverse":  # |x - y|^(2a-1) on either side of the source
        return abs(x) ** (2 * mpmath.mpf(alpha) - 1) * abs(1 - y / x) ** (2 * mpmath.mpf(alpha) - 1)
    return mpmath.exp(mpmath.mpc(alpha, beta) * x * y)


class TestExpansionBasis:
    def test_hilbert_j0(self):
        assert expansion_basis("Hilbert", 0, 2.0) == pytest.approx(
            1.0 / (2.0 * math.pi))

    def test_riesz_alpha_quarter_j1(self):
        # c_1 = 1 - 2*0.25 = 0.5
        assert expansion_basis("RieszInverse", 1, 2.0, alpha=0.25) == \
            pytest.approx(0.5 * 2.0 ** -1.5)

    def test_fourier_laplace_j2(self):
        val = expansion_basis("FourierLaplace", 2, 1.0, alpha=0.0, beta=-1.0)
        assert val == pytest.approx(-0.5)


def _columns(design):
    """The columns of a design, rebuilt as Q R = H_0 .. H_M R from its
    Householder vectors and rounded to float64 or complex128, which mpmath
    reads (it reads no np.longdouble)."""
    V = design.V
    A = np.vstack([design.R, np.zeros((len(V) - len(design.R), V.shape[1]), V.dtype)])
    for v in V.T[::-1]:
        A -= 2 * np.outer(v, v.conj() @ A)
    return A.T.astype(complex if np.iscomplexobj(A) else float)


def _design_columns(spec, points, N):
    """Columns 0..N of the fit design of order N for I = (0, 1), rebuilt as
    Q R; the design for fits up to order N - _FIT_BUFFER has order N."""
    design = _design(spec, I01, points, N - reconstruct._FIT_BUFFER)
    assert design.order == N
    return _columns(design)


def _orthonormal_legendre(k, y, I):
    c, h = (I.a + I.b) / 2, (I.b - I.a) / 2
    return mpmath.sqrt((2 * k + 1) / (2 * mpmath.mpf(h))) * \
        mpmath.legendre(k, (y - c) / h)


def _riesz_kernel(alpha, x, y):
    """-|x - y|^(2a-1)/c_a, c_a = 2 cos(pi a) Gamma(2a), at the working
    precision: the kernel that the oracle integrates (`multiplier._kernel`)."""
    a = mpmath.mpf(alpha)
    return -abs(x - y) ** (2 * a - 1) / (2 * mpmath.cos(mpmath.pi * a) * mpmath.gamma(2 * a))


def _hilbert_column_reference(k, x):
    """Column k of the Hilbert design for I = (0, 1) at x:
    (2/pi) sqrt(2k+1) Q_k(2x - 1)."""
    return 2 / mpmath.pi * mpmath.sqrt(2 * k + 1) * mpmath.legenq(
        k, 0, 2 * mpmath.mpf(x) - 1, type=3)


class TestDesign:
    @pytest.mark.parametrize("kind,params", [
        ("Hilbert", {}), ("ModifiedHilbert", {"delta": 0.05}),
        ("RieszInverse", {"alpha": 0.25}),
        ("FourierLaplace", {"alpha": 0.3, "beta": -1.0})])
    def test_kernel_sums_expansion_basis(self, kind, params):
        x, y = 2.5, 0.7
        series = sum(complex(expansion_basis(kind, j, x, **params)) * y ** j
                     for j in range(120))
        with mpmath.workprec(128):
            closed = complex(far_field_kernel(kind, mpmath.mpf(x), mpmath.mpf(y),
                                              **params))
        assert abs(closed - series) <= 1e-14 * abs(series)

    @pytest.mark.parametrize("bits,tol", [(256, 1e-55), (384, 1e-86)])
    def test_hilbert_columns_match_legendre_q(self, bits, tol):
        # the extended-precision reference columns, rebuilt from their MGS
        # factors, meet Q_k to `tol` relative (the far columns fall to ~1e-17);
        # the design's columns meet it to 1e-13 of each column's largest entry
        data = Samples(_spec("Hilbert"), I01, np.linspace(1.05, 2.05, 64), np.zeros(64))
        _, _, qs, R, _ = _ref_design(data, 12, bits)
        cols = _design_columns(data.spec, data.points, 20)
        with mpmath.workprec(bits):
            ref = [[_hilbert_column_reference(k, x) for x in data.points] for k in range(21)]
            worst = max(abs(mpmath.fsum(R[k][i] * qs[i][p] for i in range(k + 1)) / ref[k][p] - 1)
                        for k in range(21) for p in range(64))
            assert worst <= tol
            worst = max(float(max(abs(c - r) for c, r in zip(cols[k], ref[k]))
                              / max(abs(r) for r in ref[k])) for k in range(21))
        assert worst <= 1e-13

    @pytest.mark.parametrize("num", [64, 256])
    def test_far_point_column_within_the_rank_gate(self, num):
        # the backward recurrence converges slowest at the nearest point and
        # the columns decay fastest at the farthest: the highest column inside
        # the rank gate m eps |a_k|, which grows with the sample count m
        # (column 17 of 19 at 64 points, all 19 at 256), meets the 2F1 at
        # every point
        pts = np.linspace(1.05, 4.05, num)
        design = _design(_spec("Hilbert"), I01, pts, 10)
        assert (design.order, design.rank) == (18, {64: 18, 256: 19}[num])
        k = design.rank - 1
        col = _columns(design)[k]
        with mpmath.workprec(128):
            ref = [mpmath.sqrt(2 * k + 1) / mpmath.pi
                   * _mp_power_closed_form(2 * mpmath.mpf(x) - 1, -1, k) for x in pts]
            gap = max(abs(c - r) for c, r in zip(col, ref))
            assert gap <= 1e-13 * max(abs(r) for r in ref)

    def test_riesz_columns_match_quadrature(self):
        # the columns carry the oracle's kernel -|x - y|^(2a-1)/c_a
        alpha = 0.25
        pts = np.linspace(1.05, 2.05, 64)
        cols = _design_columns(_spec("RieszInverse", alpha=alpha), pts, 14)
        worst = 0
        with mpmath.workprec(256):
            for k in range(15):
                size = max(abs(v) for v in cols[k])
                for p in (0, 31, 63):
                    x = mpmath.mpf(pts[p])
                    ref = mpmath.quad(
                        lambda y: _orthonormal_legendre(k, y, I01)
                        * _riesz_kernel(alpha, x, y), [0, 1])
                    worst = max(worst, abs(cols[k][p] - ref) / size)
        assert worst <= 1e-13

    @staticmethod
    def _worst_against_quadrature(spec, points, N, kernel, pts, itv):
        """Largest gap between columns 0, N/2, N at three of `points` and
        `mp.quad` at 400 bits, relative to the column's largest entry; `pts`
        and `itv` are those points and I in the variable of the fit."""
        cols = _design_columns(spec, points, N)
        worst = 0
        with mpmath.workprec(400):
            for k in (0, N // 2, N):
                size = max(abs(v) for v in cols[k])
                for p in (0, 31, 63):
                    x = mpmath.mpmathify(pts[p])
                    ref = mpmath.quad(lambda y: _orthonormal_legendre(k, y, itv)
                                      * kernel(x, y), [itv.a, itv.b])
                    worst = max(worst, abs(cols[k][p] - ref) / size)
        return worst

    def test_riesz_columns_left_of_the_source(self):
        alpha = 0.75
        pts = np.linspace(-3, -2, 64)
        worst = self._worst_against_quadrature(
            _spec("RieszInverse", alpha=alpha), pts, 28,
            lambda x, y: _riesz_kernel(alpha, x, y), pts, I01)
        assert worst <= 1e-13

    def test_modified_hilbert_columns_match_quadrature(self):
        delta = 0.05
        pts = np.linspace(1.25, 2.25, 64)
        # the fit runs in the tilde variable, on the tilde image of I
        worst = self._worst_against_quadrature(
            _spec("ModifiedHilbert", delta=delta), pts, 20,
            lambda x, y: (1 / mpmath.pi + 2 * delta * x) / (x - y) - delta,
            reconstruct.tilde_variable(pts, delta),
            reconstruct._tilde_interval(I01, delta))
        assert worst <= 1e-13

    def test_modified_hilbert_columns_left_of_the_source(self):
        # left of the source: the tilde points, in (-1.61, -1.03), lie nearer
        # the origin than the tilde image (0, 1.17) of I reaches, yet |z| > 1
        delta = 0.05
        pts = np.linspace(-2.25, -1.25, 64)
        worst = self._worst_against_quadrature(
            _spec("ModifiedHilbert", delta=delta), pts, 20,
            lambda x, y: (1 / mpmath.pi + 2 * delta * x) / (x - y) - delta,
            reconstruct.tilde_variable(pts, delta),
            reconstruct._tilde_interval(I01, delta))
        assert worst <= 1e-13

    def test_fourier_laplace_columns_match_quadrature(self):
        pts = np.linspace(-0.5, 0.5, 64)
        worst = self._worst_against_quadrature(
            _spec("FourierLaplace", alpha=0.0, beta=-1.0), pts, 20,
            lambda x, y: mpmath.exp(-1j * x * y), pts, I01)
        assert worst <= 1e-13

    def test_fourier_laplace_columns_near_the_imaginary_axis(self):
        # w = -22i x/2 reaches |w| = 22.6, where the 0F1 series' terms grow
        # to about e^|w| times column 0 (in longdouble it missed column 0 by
        # 2.9e-11, though column 20 passed); the backward ratios do not cancel
        pts = np.linspace(1.05, 2.05, 64)
        worst = self._worst_against_quadrature(
            _spec("FourierLaplace", alpha=0.0, beta=-22.0), pts, 20,
            lambda x, y: mpmath.exp(-22j * x * y), pts, I01)
        assert worst <= 1e-13

    def test_exp_closed_form_matches_quadrature(self):
        for w in (0.5, -3 + 4j, 30j, -40.0):
            w = np.clongdouble(w)
            for N in (0, 1, 8, 20):
                closed = reconstruct._exp_closed_form(w, N)
                with mpmath.workprec(400):
                    wm = mpmath.mpc(complex(w))
                    ref = mpmath.quad(lambda t: mpmath.legendre(N, t) * mpmath.exp(wm * t),
                                      mpmath.linspace(-1, 1, 9))
                    assert abs(closed - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("beta", [-1, -0.5, 0, 0.5])
    @pytest.mark.parametrize("z", [-1.25, 3.0])
    def test_power_closed_form_matches_quadrature(self, beta, z):
        for N in (0, 1, 8, 20):
            closed = reconstruct._power_closed_form(z, beta, N)
            if beta == 0 and N >= 1:
                assert closed == 0
                continue
            with mpmath.workprec(400):
                ref = mpmath.quad(lambda t: mpmath.legendre(N, t) * abs(z - t) ** beta,
                                  [-1, 1])
                assert abs(closed - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("kind", ["Hilbert", "ModifiedHilbert", "RieszInverse"])
    def test_starved_guard_bits_fail_the_self_check(self, monkeypatch, kind):
        # the backward recurrence started at K = M, with none of the 64 bits of
        # damping its start is sized for: column M is off by about 1% of its
        # size, far outside the 2^-40 check
        power_integrals = reconstruct._power_integrals
        monkeypatch.setattr(reconstruct, "_power_integrals",
                            lambda z, beta, M, K: power_integrals(z, beta, M, M))
        with pytest.raises(ArithmeticError, match="closed-form check"):
            _design(_spec(kind, **SYMBOL_PARAMS[kind]), I01, np.linspace(2, 3, 16), 6)

    def test_starved_exp_recurrence_fails_the_series_check(self, monkeypatch):
        # the backward ratios started at K = M: r_M is off by about
        # w^2/((2M+1)(2M+3)), 2% at |w| = 3 and M = 6
        exp_integrals = reconstruct._exp_integrals
        monkeypatch.setattr(reconstruct, "_exp_integrals",
                            lambda w, M, K: exp_integrals(w, M, M))
        spec = _spec("FourierLaplace", **SYMBOL_PARAMS["FourierLaplace"])
        with pytest.raises(ArithmeticError, match="series check"):
            _design(spec, I01, np.linspace(2, 3, 16), 6)

    def test_design_needs_an_extended_longdouble(self, monkeypatch):
        # where np.longdouble is float64 (MSVC, macOS on arm64), no design
        finfo = np.finfo
        monkeypatch.setattr(np, "finfo", lambda t: finfo(float) if t is np.longdouble
                            else finfo(t))
        with pytest.raises(ArithmeticError, match="np.longdouble of 64 bits or more"):
            _design(_spec("Hilbert"), I01, np.linspace(2, 3, 16), 3)

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_modified_hilbert_low_orders_pass_the_self_check(self, N):
        # column 0 carries the constant -delta sqrt(2h); the check reads f_N,
        # which does not; 2(N+1) samples make the design's order, the checked
        # column, N
        m = 2 * (N + 1)
        design = _design(_spec("ModifiedHilbert", delta=0.05), I01, np.linspace(2, 3, m), N)
        assert design.order == N
        assert design.rank == N + 1

    @pytest.mark.parametrize("kind,series", [
        ("Hilbert", 0), ("ModifiedHilbert", 0), ("RieszInverse", 0), ("FourierLaplace", 1)])
    def test_power_kernel_design_runs_no_quadrature(self, monkeypatch, kind, series):
        # no quadrature rule builds a design: the columns come from the
        # backward recurrences, FourierLaplace's from one `_exp_integrals`
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the design ran a quadrature rule")

        calls = []
        exp_integrals = reconstruct._exp_integrals
        monkeypatch.setattr(reconstruct.multiplier, "adaptive_gauss", no_quadrature)
        monkeypatch.setattr(reconstruct, "_exp_integrals",
                            lambda *args: calls.append(args) or exp_integrals(*args))
        _design(_spec(kind, **SYMBOL_PARAMS[kind]), I01, np.linspace(2, 3, 16), 6)
        assert len(calls) == series

    def test_sweep_imports_no_mpmath(self):
        # the CLI and a sweep of each kind run without extended precision
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        code = (
            "import sys, nslab.cli\n"
            "from nslab.gridfn import Grid, Interval, make_bump\n"
            "from nslab.reconstruct import stability_sweep\n"
            "f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, Grid(8.0, 1024))\n"
            f"for kind, params in {SYMBOL_PARAMS!r}.items():\n"
            "    stability_sweep(kind, f, Interval(0.0, 1.0), Interval(1.05, 2.05),\n"
            "                    [1e-2, 1e-3, 1e-4, 1e-5], trials=1, num_samples=16,\n"
            "                    N_max=4, **params)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("lo,hi", [(-0.9, -0.5), (1.01, 2.0)])
    def test_points_near_the_source_fit(self, grid, lo, hi):
        # left of the source, and 0.01 off its end: |z| > 1 is all the
        # Legendre design needs, whatever the distance from the origin
        f = _unit_source(grid)
        data = sample("Hilbert", f, I01, Interval(lo, hi), 16)
        design = _design(data.spec, I01, data.points, 3)
        assert design.rank == design.order + 1
        _, err = _on_grid(data.spec, I01, f)(_fit(_project(design, data.values, 0.0), 3))
        # the best L2(I) approximation of f of degree 3 misses it by 0.419
        assert 0.41 <= err <= 0.43

    def test_tilde_map_onto_the_source_end_rejected(self):
        # at delta = 0.5 the float64 tilde map sends the float after 0.7 to
        # tilde(0.7), the end of the fit interval, where |z| = 1
        I = Interval(0.0, 0.7)
        x = np.nextafter(0.7, 1.0)
        assert reconstruct.tilde_variable(x, 0.5) == reconstruct._tilde_interval(I, 0.5).b
        pts = np.concatenate([[x], np.linspace(1.0, 2.0, 15)])
        with pytest.raises(ValueError, match=r"\|z\| > 1"):
            _design(_spec("ModifiedHilbert", delta=0.5), I, pts, 3)

    def test_points_within_the_check_gap_rejected(self):
        # |z| = 1 + 2^-12: the 2F1 of the column check would take 8e4 terms
        # and lose accuracy with each; the design asks for |z| >= 1 + 2^-10
        pts = np.concatenate([[1 + 2.0 ** -13], np.linspace(1.5, 2.5, 15)])
        with pytest.raises(ValueError, match=r"\|z\| > 1, at least 1 \+ 0.000977"):
            _design(_spec("Hilbert"), I01, pts, 3)

    def test_negative_order_cap_rejected(self, unit_bump):
        with pytest.raises(ValueError, match="N_max must be >= 0, got -1"):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [1e-2, 1e-3, 1e-4, 1e-5], trials=1, N_max=-1)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_discrepancy_factor_rejected(self, unit_bump, tau):
        # with tau <= 0 the floor is never crossed and N runs to N_max
        with pytest.raises(ValueError, match=f"tau must be > 0, got {tau}"):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [1e-2, 1e-3, 1e-4, 1e-5], trials=1, tau=tau)

    def test_no_fit_reads_past_the_rank(self):
        # column 18 of this design is numerically dependent (rank 18 of 19
        # columns); every data coefficient of random values clears the buffer
        # gate, yet the fit at N = 10 stops its buffer at column 17: a NaN in
        # column 18 of R leaves it unchanged
        values = np.random.default_rng(0).standard_normal(64)
        design = _design(_spec("Hilbert"), I01, np.linspace(1.05, 4.05, 64), 10)
        assert (design.order, design.rank) == (18, 18)
        R = design.R.copy()
        R[:, 18] = np.nan
        fits = [_fit(_project(d, values, 0.0), 10)[0] for d in (design, design._replace(R=R))]
        assert np.all(np.isfinite(fits[0]))
        assert np.array_equal(fits[0], fits[1])

    def test_sample_points_inside_source_rejected(self):
        # a power kernel is singular on the closed source interval
        with pytest.raises(ValueError, match=r"\|z\| > 1"):
            _design(_spec("Hilbert"), I01, [0.5, 2.0], 0)

    def test_fourier_laplace_overlap_allowed(self):
        # the entire kernel e^(lambda x y) may be sampled over the source
        design = _design(_spec("FourierLaplace", alpha=0.0, beta=-1.0), I01, [0.5, 2.0], 0)
        assert design.rank == 1

    def test_unknown_kind(self, unit_bump):
        with pytest.raises(ValueError, match="no far-field design for symbol kind 'AbsPow'"):
            _design(multiplier.symbol("AbsPow", two_s=1.0), I01, [2.0, 3.0], 0)
        with pytest.raises(ValueError, match="unknown operator 'Mellin'"):
            stability_sweep("Mellin", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [1e-2, 1e-3, 1e-4, 1e-5], trials=1)


class TestRecoverMoments:
    def test_polynomial_closed_form(self):
        # f(x) = x(1-x) on (0,1): f_j = 1/(j+2) - 1/(j+3)
        def f_j(j):
            return mpmath.mpf(1) / (j + 2) - mpmath.mpf(1) / (j + 3)

        data, _ = closed_form_hilbert_data(f_j, J23)
        got = fit_moments(_fit(_path(data, 6), 6), 320)
        errs = [abs(got[j] - (1.0 / (j + 2) - 1.0 / (j + 3))) for j in range(7)]
        assert max(errs) <= 1e-8

    def test_zero_data_zero_moments(self):
        data = Samples(_spec("Hilbert"), I01, np.linspace(2, 3, 64), np.zeros(64))
        got = fit_moments(_fit(_path(data, 4), 4))
        assert all(abs(complex(v)) == 0.0 for v in got)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError, match="need at least 14 samples for N=6, got 8"):
            _design(_spec("Hilbert"), I01, np.linspace(2, 3, 8), 6)

    def test_fourier_laplace_overlapping_window(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        data = sample("FourierLaplace", f, I01, Interval(-0.5, 0.5), 64, alpha=0.0, beta=-1.0)
        got = fit_moments(_fit(_path(data, 4), 4))
        mask = I01.contains(grid.x)
        integral = float(np.sum(f.values[mask]) * grid.dx)
        assert abs(got[0] - integral) <= 1e-6

    def test_gauge_invariance_power_of_two(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        data = sample("Hilbert", f, I01, J23, 64)
        lam = 8.0
        scaled = data._replace(values=lam * data.values)
        a = fit_moments(_fit(_path(data, 4), 4))
        b = fit_moments(_fit(_path(scaled, 4), 4))
        for j in range(5):
            assert complex(b[j]) == complex(lam * a[j])

    def test_modified_hilbert_f0_recovery(self, grid):
        # the pullback moment F_0 equals f_0 by the change of variables
        delta = 0.05
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        data = sample("ModifiedHilbert", f, I01, J23, 64, delta=delta)
        got = fit_moments(_fit(_path(data, 4), 4))
        mask = I01.contains(grid.x)
        f0 = float(np.sum(f.values[mask]) * grid.dx)
        assert abs(got[0] - f0) <= 1e-5

    def test_riesz_f0_recovery(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        data = sample("RieszInverse", f, I01, J23, 64, alpha=0.25)
        got = fit_moments(_fit(_path(data, 4), 4))
        mask = I01.contains(grid.x)
        f0 = float(np.sum(f.values[mask]) * grid.dx)
        assert abs(got[0] - f0) <= 1e-5

    def test_riesz_f0_recovery_left_of_source(self, grid):
        # the kernel |x - y|^(2a-1) is real on both sides of the source
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        f0 = float(np.sum(f.values[I01.contains(grid.x)]) * grid.dx)
        got = []
        for J in (J23, Interval(-3.0, -2.0)):
            data = sample("RieszInverse", f, I01, J, 64, alpha=0.25)
            got.append(fit_moments(_fit(_path(data, 4), 4))[0])
        assert abs(got[1] - f0) <= 1e-5
        assert abs(got[1] - got[0]) <= 1e-5


class TestInvert:
    @staticmethod
    def _polynomial_data(grid):
        """320-bit samples of the transform of x(1 - x) on I, and the truth."""
        data, exact = closed_form_hilbert_data(
            lambda j: mpmath.mpf(1) / (j + 2) - mpmath.mpf(1) / (j + 3), J23)
        truth = SampledFunction(grid, np.where(I01.contains(grid.x), grid.x * (1.0 - grid.x), 0.0))
        return data, exact, truth

    def test_polynomial_roundtrip(self, grid):
        # the 320-bit reference fit of the 320-bit samples (measured 9.8e-17)
        data, exact, truth = self._polynomial_data(grid)
        a, itv, res = _ref_fit(_ref_path(data, exact, 6, 320), 6)
        _, err = _on_grid(data.spec, I01, truth)((np.array([complex(v) for v in a]), itv, res))
        assert err <= 1e-10

    def test_polynomial_roundtrip_float64(self, grid):
        # the fit of the samples rounded to float64, as every sweep feeds it:
        # the bound is u kappa_2(R) = 3.0e-6 for the 7 columns it solves
        # (kappa = 2.7e10, u of float64); measured 1.80e-7, as the 320-bit
        # reference fit of the same rounded data misses by 1.8e-7
        data, _, truth = self._polynomial_data(grid)
        _, err = _on_grid(data.spec, I01, truth)(_fit(_path(data, 6), 6))
        assert err <= 3e-6

    def test_order_zero_zero_mean(self, grid):
        # odd-about-center source: f_0 = 0, so the order-0 projection vanishes
        base = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        f = SampledFunction(grid, base.values * (grid.x - 0.5))
        data = sample("Hilbert", f, I01, J23, 64)
        rec, _ = _on_grid(data.spec, I01, f)(_fit(_path(data, 0), 0))
        # floor set by the quadrature accuracy of the data oracle
        assert np.max(np.abs(rec.values)) <= 1e-5 * np.max(np.abs(f.values))

    def test_noisy_auto_order_error_shrinks_with_noise(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        nrm = norm(f, "L2", region=I01)
        f = SampledFunction(grid, f.values / nrm)
        clean = sample("Hilbert", f, I01, J23, 64)
        errs = []
        for noise in (1e-6, 1e-8):
            rng = np.random.default_rng(5)
            data = clean._replace(values=clean.values + noise * rng.standard_normal(64))
            N = _select(_path(data, 10, noise), 10, 1.5)
            _, err = _on_grid(data.spec, I01, f)(_fit(_path(data, N, noise), N))
            errs.append(err)
        assert errs[1] <= 0.5
        assert errs[1] <= errs[0]


    @pytest.mark.parametrize("N", [4, 8])
    def test_mirrored_geometry_matches(self, grid, N):
        # J = (-1.05, -0.05) mirrors (1.05, 2.05) about the centre of I, and the
        # unit source is even about it: the two fits reconstruct it alike
        f = _unit_source(grid)
        errs = []
        for J in (Interval(-1.05, -0.05), Interval(1.05, 2.05)):
            data = sample("Hilbert", f, I01, J, 64)
            errs.append(_on_grid(data.spec, I01, f)(_fit(_path(data, N), N))[1])
        assert errs[0] == pytest.approx(errs[1], rel=1e-8)


class TestStabilitySweep:
    def test_too_few_levels(self, grid, unit_bump):
        with pytest.raises(ValueError):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1),
                            Interval(2, 3), [1e-2, 1e-4], trials=1)

    def test_four_positive_levels_needed(self, unit_bump):
        # the log-modulus fit reads the positive levels only
        with pytest.raises(ValueError, match="need at least 4 positive noise levels"):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [0.0, 1e-2, 1e-3, 1e-4], trials=1)

    def test_negative_level_rejected(self, unit_bump):
        # its discrepancy floor would be negative, and N would run to N_max
        with pytest.raises(ValueError, match="noise levels must be >= 0, got -0.001"):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [-1e-3, 1e-2, 1e-3, 1e-4, 1e-5], trials=1)

    @pytest.mark.parametrize("alpha", [1.25, -0.25])
    def test_riesz_alpha_outside_the_unit_interval_rejected(self, monkeypatch, unit_bump,
                                                            alpha):
        # before any sampling: the oracle is never called
        monkeypatch.setattr(multiplier, "oracle_quadrature", None)
        with pytest.raises(ValueError, match="RieszInverse requires alpha"):
            stability_sweep("RieszInverse", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [1e-2, 1e-3, 1e-4, 1e-5], trials=1, alpha=alpha)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, unit_bump, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            stability_sweep("Hilbert", unit_bump, Interval(-1, 1), Interval(2, 3),
                            [1e-2, 1e-3, 1e-4, 1e-5], trials=trials)

    def test_zero_level_matches_noise_free_floor(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
        f = SampledFunction(grid, f.values / norm(f, "L2", region=I01))
        curve = stability_sweep("Hilbert", f, I01, Interval(1.05, 2.05),
                                [0.0, 1e-3, 1e-4, 1e-5, 1e-6], trials=1,
                                num_samples=48, N_max=8)
        zero_err = dict(curve.pairs)[0.0]
        clean = sample("Hilbert", f, I01, Interval(1.05, 2.05), 48)
        N = _select(_path(clean, 8), 8, 1.5)
        _, floor = _on_grid(clean.spec, I01, f)(_fit(_path(clean, N), N))
        assert zero_err == pytest.approx(floor, rel=1e-12)

    def test_riesz_constant_sign_family_completes(self, grid):
        f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)  # f >= 0
        f = SampledFunction(grid, f.values / norm(f, "L2", region=I01))
        curve = stability_sweep("RieszInverse", f, I01, Interval(1.05, 2.05),
                                [1e-3, 1e-4, 1e-5, 1e-6], trials=1,
                                num_samples=48, N_max=6, alpha=0.25)
        assert len(curve.pairs) == 4
        assert all(e >= 0 for _, e in curve.pairs)

    def test_riesz_rows_unchanged(self, grid):
        # the columns carry -1/c_a where the data were scaled by -c_a; the
        # orders are those of the scaled fit, and the errors within 1e-12
        curve = stability_sweep("RieszInverse", _unit_source(grid), I01, Interval(1.05, 2.05),
                                [1e-2, 1e-3, 1e-4, 1e-5], trials=2, seed=7, N_max=10,
                                alpha=0.25)
        assert [r["N"] for r in curve.rows] == [2, 2, 2, 2, 1, 0, 0, 0]
        assert [r["error_L2"] for r in curve.rows] == pytest.approx(
            [0.4468627017470843, 0.4263827285863184, 0.4515572871561658,
             0.45675960719315595, 0.7468632711894022, 0.7454472635166874,
             0.7455797214844824, 0.745838441952103], rel=1e-12)

    def test_one_design_and_one_projection_per_draw(self, monkeypatch, grid):
        # the order selection and the fit read one projection per draw, and
        # every draw shares the one design the sweep builds
        counts = {"_design": 0, "_project": 0}
        for name in counts:
            def counted(*args, _fn=getattr(reconstruct, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(reconstruct, name, counted)
        stability_sweep("Hilbert", _unit_source(grid), I01, Interval(1.05, 2.05),
                        [1e-2, 1e-3, 1e-4, 1e-5], trials=2, seed=7, num_samples=64)
        assert counts == {"_design": 1, "_project": 8}

    def test_sweep_clamps_the_order_to_the_rank(self, grid):
        # noise 0 selects N_max; at N_max = 20 this design has order 28 and
        # rank 18, so the sweep clamps N_max to 17
        curve = stability_sweep("Hilbert", _unit_source(grid), I01, Interval(1.05, 4.05),
                                [0.0, 1e-3, 1e-4, 1e-5, 1e-6], trials=1, N_max=20)
        assert curve.rows[0]["N"] == 17
        assert all(math.isfinite(r["error_L2"]) for r in curve.rows)

    def test_unread_dependent_column_does_not_stop_the_sweep(self, grid):
        # columns 16 to 18 of this design are numerically dependent (rank 16
        # of 19 columns); the sweep's design has order 18, but no fit at the
        # orders selected here reads past column 10; the rows are those that
        # per-fit designs of order N + 8 gave
        curve = stability_sweep("FourierLaplace", _unit_source(grid), I01,
                                Interval(1.05, 2.05), [1e-2, 1e-3, 1e-4, 1e-5],
                                trials=2, seed=7, N_max=10, alpha=1.0, beta=0.5)
        assert [r["N"] for r in curve.rows] == [2, 2, 1, 1, 1, 1, 0, 0]
        assert [r["error_L2"] for r in curve.rows] == pytest.approx(
            [0.4173153165031352, 0.41743367545220517, 0.7454100280917545,
             0.7454093844294232, 0.7454085706501402, 0.745408657093878,
             0.746246810934468, 0.7454119465618605], rel=1e-12)

    @pytest.mark.parametrize("num,errors", [
        (4, [1.0585409240597727, 1.0576142745909596, 1.0647447773056244, 0.9516096821455746]),
        (8, [0.7871503863453118, 0.7809671384514525, 1.0588200066834663, 1.0543687785290097]),
        (12, [267.60322206478315, 268.15249644888104, 1.0680799909317156, 1.0887841400746645])])
    def test_few_samples_near_the_imaginary_axis(self, grid, num, errors):
        # beta = -30 puts |w| at 30.75, where the 0F1 series summed in
        # longdouble misses the checked column 1, 3 or 5 by about 4e-9 of its
        # size; the rows are those of a 256-bit series fit
        curve = stability_sweep("FourierLaplace", _unit_source(grid), I01,
                                Interval(1.05, 2.05), [1e-2, 1e-3, 1e-4, 1e-5], trials=1,
                                seed=7, N_max=0, num_samples=num, alpha=0.0, beta=-30.0)
        assert [r["N"] for r in curve.rows] == [0, 0, 0, 0]
        assert [r["error_L2"] for r in curve.rows] == pytest.approx(errors, rel=1e-12)

    def test_unread_dependent_hilbert_column_does_not_stop_the_sweep(self, grid):
        # column 18 of this sweep's design is numerically dependent (see
        # `test_no_fit_reads_past_the_rank`), and no fit reads it; the 256-bit
        # MGS fit of the same draws gave the same orders and errors within
        # 8.6e-13 relative
        curve = stability_sweep("Hilbert", _unit_source(grid), I01, Interval(1.05, 4.05),
                                [1e-2, 1e-3, 1e-4, 1e-5], trials=2, seed=7, N_max=10)
        assert [r["N"] for r in curve.rows] == [3, 3, 2, 2, 1, 1, 0, 0]
        assert [r["error_L2"] for r in curve.rows] == pytest.approx(
            [0.46959328324155103, 0.42060786439624787, 0.4170529886704048,
             0.4472256652171011, 0.7460887782502609, 0.7463208145306816,
             0.7484566218093762, 0.7455562365777112], rel=1e-12)


def _unit_source(grid):
    f = make_bump(Interval(0.2, 0.8), 0.0, 1.0, grid)
    return SampledFunction(grid, f.values / norm(f, "L2", region=I01))


@pytest.fixture(scope="module")
def default_geometry_data(grid):
    """Clean samples of the unit bump at the `reconstruct sweep` defaults
    (I = (0, 1), J = (1.05, 2.05), 64 points), one draw per operator kind."""
    f = _unit_source(grid)
    return {kind: sample(kind, f, I01, Interval(1.05, 2.05), 64, **params)
            for kind, params in SYMBOL_PARAMS.items() if kind != "RieszInverse"}


def _legendre_sum_reference(data, fit, xs):
    """sum_k Re(a_k) G_k at xs at 256 bits from the fit's own a_k, in the
    tilde variable times e^{2 pi delta x} for ModifiedHilbert."""
    a, itv, _ = fit
    out = []
    with mpmath.workprec(256):
        L = mpmath.mpf(itv.b) - itv.a
        for x in xs:
            x, scale = mpmath.mpf(float(x)), 1
            if data.spec.kind == "ModifiedCoth":
                w = 2 * mpmath.pi * data.spec.delta
                x, scale = mpmath.expm1(w * x) / w, mpmath.exp(w * x)
            t = (2 * x - itv.a - itv.b) / L
            out.append(float(scale * mpmath.fsum(
                mpmath.re(mpmath.mpmathify(ak)) * mpmath.sqrt((2 * k + 1) / L)
                * mpmath.legendre(k, t) for k, ak in enumerate(a))))
    return np.array(out)


class TestLegendreRoute:
    """`_on_grid` sums the fit's Legendre coefficients by `legval`.  A route
    through float64 moments and monomial coefficients misses the same
    reference at the same points by 3e-13 max|ref| at N = 6, 3e-11 at
    N = 10 and 4e-3 at N = 22.  N = 22 passes the rank (21, at float64's
    resolution) of the Hilbert design, so there `_on_grid` reads the 256-bit
    reference fit."""

    @pytest.mark.parametrize("kind, N", [("Hilbert", N) for N in (6, 10, 14, 18, 22)]
                             + [(kind, N) for kind in ("ModifiedHilbert", "FourierLaplace")
                                for N in (6, 10)])
    def test_matches_extended_precision_legendre_sum(self, grid, default_geometry_data,
                                                     kind, N):
        data = default_geometry_data[kind]
        if N > 20:
            a, itv, res = _ref_fit(_ref_path(data, data.values.real, N, 256), N)
            fit = np.array([complex(v) for v in a]), itv, res
        else:
            fit = _fit(_path(data, N), N)
        rec, _ = _on_grid(data.spec, I01, _unit_source(grid))(fit)
        inside = np.flatnonzero(I01.contains(grid.x))
        idx = inside[np.linspace(0, inside.size - 1, 7).astype(int)]
        ref = _legendre_sum_reference(data, fit, grid.x[idx])
        assert np.max(np.abs(rec.values[idx] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_recovered_moments_unchanged(self):
        # f(x) = sqrt(x) on (0, 1) with noise 1e-10, so two buffer columns pass
        # the gate; the moments of the fit through the exact table, bit for bit
        clean, _ = closed_form_hilbert_data(lambda j: 1 / (j + mpmath.mpf(3) / 2),
                                            Interval(1.5, 2.5), num=32)
        noise = 1e-10 * np.random.default_rng(3).standard_normal(32)
        data = clean._replace(values=clean.values + noise)
        path = _path(data, 2, 1e-10)
        gate = reconstruct._BUFFER_GATE * max(path.noise, path.floor)
        assert [abs(path.rhs[k]) > gate for k in (3, 4, 5)] == [True, True, False]
        fit = _fit(path, 2)
        assert fit_moments(fit) == [0.6666676134544263, 0.39999400356340353, 0.2857257413546657]
        assert fit[2] == 1.1159860500444815e-06

