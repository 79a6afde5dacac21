import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from nslab import multiplier, polyx
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump
from nslab.multiplier import (apply, apply_dealiased, evaluate,
                              oracle_quadrature, oracle_symbols,
                              riesz_constant, symbol, trig_interp)


def _hilbert_derivative_kernel(x, y, k):
    """d^k/dx^k of the Cauchy kernel: (-1)^k k!/pi * (x-y)^(-1-k)."""
    sign = -1.0 if k % 2 else 1.0
    return (sign * math.factorial(k) / math.pi) * (x - y) ** (-(k + 1))


def _abspow_derivative_kernel(two_s, x, y, k):
    """d^k/dx^k of the off-support |D|^{2s} kernel A |x-y|^{-1-2s}."""
    A = -math.gamma(two_s + 1.0) * math.sin(math.pi * two_s / 2.0) / math.pi
    a = 1.0 + two_s
    poch = 1.0
    for j in range(k):
        poch *= a + j
    u = x - y
    return A * poch * (-np.sign(u)) ** k * np.abs(u) ** (-a - k)


def _pseudolocality_profile(f, two_s, J, kmax):
    """Derivative-growth profile sup_J |d^k/dx^k |D|^{2s} f| for k = 0..kmax.

    Values are computed from the off-support kernel by a grid Riemann sum over
    supp f (spectrally accurate for smooth compactly supported f); the FFT
    route is unusable here because (i xi)^k amplifies the roundoff tail of the
    spectrum at high derivative orders.

    Returns (profile, rho_hat): the fitted rho from the k! rho^{-1-k} growth
    law via linear regression of log(value_k / k!) against k.
    """
    if kmax > 8:
        raise ValueError("kmax must be at most 8")
    lo, hi, supp = multiplier._support_extent(f.grid, f.values)
    if not (J.b < lo or J.a > hi):
        raise ValueError("profile region must be disjoint from supp f")
    g = f.grid
    mask = J.contains(g.x)
    xs = g.x[mask]
    ys = g.x[supp]
    fy = f.values[supp] * g.dx
    profile = []
    for k in range(kmax + 1):
        K = _abspow_derivative_kernel(two_s, xs[:, None], ys[None, :], k)
        vals = K @ fy
        profile.append((k, float(np.max(np.abs(vals)))))
    ks = np.array([p[0] for p in profile], dtype=float)
    vals = np.array([p[1] for p in profile])
    y = np.log(vals) - np.array([math.lgamma(k + 1) for k in ks])
    rho_hat = float(np.exp(-polyx.linear_fit(ks, y)[1]))
    return profile, rho_hat


def _trig_interp_dense(f, pts):
    """The interpolant as a points x n matrix of complex exponentials times
    the DFT coefficients: the reference for the cardinal `trig_interp`."""
    g = f.grid
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    coeff = np.fft.fft(f.values) / g.n
    xi = g.xi
    nyq = g.n // 2
    phase = np.exp(1j * np.outer(pts + g.L, xi))
    # the Nyquist mode enters as a cosine, so real data interpolate to real values
    phase[:, nyq] = np.cos(xi[nyq] * (pts + g.L))
    return phase @ coeff


def _random_compact(g, rng, dtype):
    """A bump at a random place, width and sharpness, at least two nodes wide,
    times a random cubic and a random real or complex amplitude."""
    c = rng.uniform(-g.L / 4, g.L / 4)
    w = max(rng.uniform(g.L / 16, g.L / 4), 2 * g.dx)
    f = make_bump(Interval(c - w, c + w), rng.uniform(-w / 4, w / 4),
                  rng.uniform(0.5, 3.0), g)
    amp = rng.standard_normal(2) @ [1, 1j] if dtype is complex else rng.standard_normal()
    return SampledFunction(g, f.values * np.polyval(rng.standard_normal(4), g.x) * amp)


class TestTrigInterp:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("L", [3.0, 8.0])
    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_matches_dense_reference(self, n, L, dtype):
        rng = np.random.default_rng(n + int(L) + (dtype is complex))
        g = Grid(L, n)
        for _ in range(4):
            f = _random_compact(g, rng, dtype)
            assert np.count_nonzero(f.values) >= 2
            pts = rng.uniform(-L, L, 64)
            gap = np.max(np.abs(trig_interp(f, pts) - _trig_interp_dense(f, pts)))
            assert gap <= 1e-14 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("L", [3.0, 8.0])
    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_exact_at_nodes_and_periodic_images(self, n, L):
        g = Grid(L, n)
        f = _random_compact(g, np.random.default_rng(n), complex)
        for shift in (0.0, 2 * L, -2 * L):
            assert np.all(trig_interp(f, g.x + shift) == f.values)

    def test_zero_data(self):
        g = Grid(8.0, 256)
        out = trig_interp(SampledFunction(g, np.zeros(g.n)), [-9.0, 0.1, g.x[7], 3.3])
        assert np.all(out == 0)

    @pytest.mark.parametrize("n", [8, 256, 4096])
    def test_real_data_give_real_values(self, n):
        # the Nyquist mode is read as a cosine, not as e^{-i n pi (x + L)/(2L)}
        g = Grid(8.0, n)
        rng = np.random.default_rng(n)
        f = SampledFunction(g, rng.standard_normal(n))
        assert np.all(trig_interp(f, rng.uniform(-8.0, 8.0, 64)).imag == 0)
        f = _random_compact(g, rng, float)
        assert np.all(trig_interp(f, rng.uniform(-8.0, 8.0, 64)).imag == 0)

    @pytest.mark.parametrize("n, data", [(4096, "bump"), (256, "noise")])
    def test_matches_extended_precision_sum(self, n, data):
        # sum_j f_j sin(n t/2) cot(t/2)/n, t = pi (x - x_j)/L, in 40 digits
        g = Grid(8.0, n)
        rng = np.random.default_rng(5)
        if data == "bump":
            f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
        else:
            v = np.zeros(n, dtype=complex)
            v[n // 4:n // 2] = rng.standard_normal(n // 4) + 1j * rng.standard_normal(n // 4)
            f = SampledFunction(g, v)
        pts = rng.uniform(-1.0, 1.0, 5)
        got = trig_interp(f, pts)
        with mpmath.workdps(40):
            for x, p in zip(pts, got):
                want = 0
                for j in np.flatnonzero(f.values):
                    t = mpmath.pi * (mpmath.mpf(x) - mpmath.mpf(g.x[j])) / g.L
                    want += complex(f.values[j]) * mpmath.sin(n * t / 2) * mpmath.cot(t / 2) / n
                assert abs(p - complex(want)) <= 1e-15 * np.max(np.abs(f.values))


class TestSymbolValues:
    def test_abspow(self):
        spec = symbol("AbsPow", two_s=1.5)
        xi = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(evaluate(spec, xi), np.abs(xi) ** 1.5)

    def test_hilbert_sign(self):
        spec = symbol("HilbertSign")
        assert np.allclose(evaluate(spec, np.array([-1.0, 2.0])), [1j, -1j])

    def test_modified_coth(self):
        spec = symbol("ModifiedCoth", delta=0.5)
        xi = np.array([0.3, -1.7])
        want = -1j / np.tanh(xi / (2 * 0.5))
        assert np.allclose(evaluate(spec, xi), want)

    def test_riesz_dc_zeroed(self):
        spec = symbol("RieszInverse", alpha=0.25)
        vals = evaluate(spec, np.array([0.0, 2.0]))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(-(2.0 ** -0.5))

    def test_branchcut_halfline_agreement(self):
        for two_s in (1.2, 1.5, 1.8):
            b1 = symbol("BranchCut", two_s=two_s, branch=1)
            b2 = symbol("BranchCut", two_s=two_s, branch=2)
            ap = symbol("AbsPow", two_s=two_s)
            xi = np.linspace(-5, 5, 41)
            v1, v2, va = evaluate(b1, xi), evaluate(b2, xi), evaluate(ap, xi)
            assert np.all(v1[xi <= 0] == va[xi <= 0])
            assert np.all(v2[xi >= 0] == va[xi >= 0])

    def test_branchcut_sum_identity_pointwise(self):
        two_s = 1.5
        xi = np.linspace(-5, 5, 81)
        b1 = evaluate(symbol("BranchCut", two_s=two_s, branch=1), xi)
        b2 = evaluate(symbol("BranchCut", two_s=two_s, branch=2), xi)
        ap = evaluate(symbol("AbsPow", two_s=two_s), xi)
        lhs = 2 * ap - b1 - b2
        rhs = (1 - cmath.exp(-1j * two_s * math.pi)) * ap
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("branch", [1, 2])
    def test_branchcut_split_pointwise(self, branch):
        # P^j = a |xi|^{2s} + b i sgn(xi) |xi|^{2s}, the split the dealiased route applies
        two_s = 1.5
        xi = np.linspace(-5, 5, 81)
        spec = symbol("BranchCut", two_s=two_s, branch=branch)
        a, b = multiplier.branch_split(spec)
        got = (a * evaluate(symbol("AbsPow", two_s=two_s), xi)
               + b * evaluate(symbol("SignPow", two_s=two_s), xi))
        assert np.max(np.abs(got - evaluate(spec, xi))) <= 1e-14 * 5.0 ** two_s

    def test_branchcut_integer_order_rejected(self):
        with pytest.raises(ValueError):
            symbol("BranchCut", two_s=2.0, branch=1)

    @pytest.mark.parametrize("kind", ["AbsPow", "SignPow"])
    @pytest.mark.parametrize("two_s", [-0.5, -2.0, None])
    def test_power_negative_or_missing_order_rejected(self, kind, two_s):
        # a negative 2s puts inf or nan at xi = 0, which `apply` cannot sample
        with pytest.raises(ValueError, match=f"{kind} requires an exponent 2s >= 0"):
            symbol(kind, two_s=two_s)

    def test_riesz_integer_2alpha_rejected(self):
        with pytest.raises(ValueError):
            symbol("RieszInverse", alpha=0.5)

    def test_coth_minus_inv_matches_mpmath(self):
        # the Taylor series below |u| = 1/2 and the difference above it; just
        # past the switch 1/tanh(u) - 1/u still cancels by a factor of 12
        u = np.geomspace(1e-8, 20.0, 401)
        u = np.concatenate([u, -u])
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.coth(x) - 1 / mpmath.mpf(x)) for x in u])
        got = multiplier._coth_minus_inv(u)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15


class TestApply:
    def test_hilbert_squared_is_minus_identity(self, grid):
        f0 = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, grid)
        # mean-zero input: spectral derivative of the bump
        f = SampledFunction(grid, np.fft.ifft(
            1j * grid.xi * np.fft.fft(f0.values.astype(complex))))
        spec = symbol("HilbertSign")
        hh = apply(spec, apply(spec, f))
        assert np.max(np.abs(hh.values + f.values)) <= 1e-10 * np.max(
            np.abs(f.values))

    def test_abspow_on_fourier_mode(self):
        g = Grid(np.pi, 256)
        k = 4.0
        f = SampledFunction(g, np.sin(k * g.x))
        out = apply(symbol("AbsPow", two_s=1.0), f)
        assert np.max(np.abs(out.values - k * f.values)) <= 1e-10 * k

    def test_modified_coth_limits_to_hilbert(self, grid, unit_bump):
        mask = Interval(2.0, 3.0).contains(grid.x)
        h = apply_dealiased(symbol("HilbertSign"), unit_bump)
        diffs = []
        for delta in (1e-2, 1e-3):
            hd = apply_dealiased(symbol("ModifiedCoth", delta=delta), unit_bump)
            diffs.append(np.max(np.abs(hd.values[mask] - h.values[mask])))
        assert diffs[1] <= 1e-2 and diffs[1] <= diffs[0]

    def test_linearity(self, grid):
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, grid)
        g = make_bump(Interval(-0.5, 0.5), 0.0, 2.0, grid)
        spec = symbol("AbsPow", two_s=1.2)
        lhs = apply(spec, SampledFunction(grid, 2.0 * f.values - 3.0 * g.values))
        rhs = 2.0 * apply(spec, f).values - 3.0 * apply(spec, g).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_self_adjointness(self, grid):
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, grid)
        g = make_bump(Interval(-0.3, 0.8), 0.1, 2.0, grid)
        spec = symbol("AbsPow", two_s=1.5)
        a = np.sum(np.conj(apply(spec, f).values) * g.values)
        b = np.sum(np.conj(f.values) * apply(spec, g).values)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_wide_support_rejected(self):
        g = Grid(2.0, 256)
        # decays below the support threshold around |x| = 1.4, past L/2 = 1
        f = SampledFunction(g, np.exp(-16.0 * g.x ** 2))
        with pytest.raises(ValueError):
            apply(symbol("HilbertSign"), f)


class TestOracleQuadrature:
    def test_hilbert_cross_oracle_single_point(self, grid):
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, grid)
        spec = symbol("HilbertSign")
        x = grid.x[np.argmin(np.abs(grid.x - 2.0))]
        orc = oracle_quadrature(spec, f, Interval(0.0, 1.0), [x])[0]
        fft_val = trig_interp(apply_dealiased(spec, f), [x])[0]
        assert abs(orc - fft_val) <= 1e-6 * abs(orc)

    def test_fourier_laplace_matches_riemann_sum(self, grid):
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, grid)
        I = Interval(0.0, 1.0)
        x = 1.3
        orc = oracle_quadrature(symbol("FourierLaplace", alpha=0.0, beta=-1.0),
                                f, I, [x])[0]
        mask = I.contains(grid.x)
        riemann = np.sum(np.exp(-1j * x * grid.x[mask]) * f.values[mask]) * grid.dx
        assert abs(orc - riemann) <= 1e-8 * abs(orc)

    def test_eval_point_inside_support_rejected(self, grid):
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, grid)
        with pytest.raises(ValueError):
            oracle_quadrature(symbol("HilbertSign"), f, Interval(0.0, 1.0), [0.5])
        with pytest.raises(ValueError, match="evaluation point 1.0 lies inside"):
            oracle_quadrature(symbol("HilbertSign"), f, Interval(0.0, 1.0), [2.0, 1.0, 0.5])
        # FourierLaplace has no singularity at x = y and takes the point; stacked
        # with a singular kernel, the point is rejected all the same
        fl = symbol("FourierLaplace", alpha=0.0, beta=-1.0)
        assert np.all(np.isfinite(oracle_quadrature(fl, f, Interval(0.0, 1.0), [0.5])))
        with pytest.raises(ValueError, match="evaluation point 0.5 lies inside"):
            oracle_symbols([fl, symbol("HilbertSign")], f, Interval(0.0, 1.0), [0.5])
        with pytest.raises(ValueError, match="complex evaluation points"):
            oracle_quadrature(symbol("HilbertSign"), f, Interval(0.0, 1.0), [2.0 + 1.0j])

    def test_odd_function_leading_moment_vanishes(self, grid):
        I = Interval(-1.0, 1.0)
        base = make_bump(I, 0.0, 1.0, grid)
        f = SampledFunction(grid, base.values * grid.x)  # odd about 0
        orc = oracle_quadrature(symbol("FourierLaplace", alpha=0.0, beta=-1.0),
                                f, I, [0.0])[0]
        assert abs(orc) <= 1e-10


class TestVectorQuadrature:
    """One adaptive pass over many points gives each point its own result."""

    @pytest.mark.parametrize("spec", [symbol("HilbertSign"),
                                      symbol("ModifiedCoth", delta=0.1),
                                      symbol("RieszInverse", alpha=0.25),
                                      symbol("AbsPow", two_s=1.5)],
                             ids=lambda spec: spec.kind)
    def test_multi_point_oracle_equals_single_points(self, spec):
        g = Grid(8.0, 1024)
        I = Interval(0.0, 1.0)
        f = make_bump(I, 0.0, 1.0, g)
        pts = np.array([-2.0, -0.3, 1.05, 1.6, 3.5])
        many = oracle_quadrature(spec, f, I, pts)
        one = np.concatenate([oracle_quadrature(spec, f, I, [x]) for x in pts])
        assert np.array_equal(many, one)

    def test_stacked_symbols_equal_single_symbols(self):
        g = Grid(8.0, 1024)
        I = Interval(0.0, 1.0)
        f = make_bump(I, 0.0, 1.0, g)
        pts = np.array([-2.0, -0.3, 1.05, 1.6, 3.5])
        specs = [symbol("HilbertSign"), symbol("ModifiedCoth", delta=0.1),
                 symbol("ModifiedCoth", delta=1.0), symbol("RieszInverse", alpha=0.25),
                 symbol("RieszInverse", alpha=0.75), symbol("AbsPow", two_s=1.5)]
        stacked = oracle_symbols(specs, f, I, pts)
        assert stacked.shape == (len(specs), pts.size)
        for spec, row in zip(specs, stacked):
            assert np.array_equal(row, oracle_quadrature(spec, f, I, pts)), spec

    def test_fourier_laplace_complex_points_equal_single_points(self):
        g = Grid(8.0, 1024)
        I = Interval(0.0, 1.0)
        f = make_bump(I, 0.0, 1.0, g)
        spec = symbol("FourierLaplace", alpha=0.2, beta=-1.0)
        pts = np.array([0.3 + 0.5j, -1.2j, 2.0, 0.0, 4.0 - 3.0j])
        many = oracle_quadrature(spec, f, I, pts)
        one = np.concatenate([oracle_quadrature(spec, f, I, [x]) for x in pts])
        assert np.array_equal(many, one)

    def test_small_component_keeps_its_own_relative_accuracy(self):
        # the second component is 1e-12 times the first and needs refinement;
        # a tolerance shared through max|whole| would stop it after one split
        eps = 1e-2

        def peak(x):
            return 1e-12 * eps / ((x - 0.5) ** 2 + eps ** 2)

        exact = 1e-12 * 2.0 * math.atan(0.5 / eps)
        val = multiplier.adaptive_gauss(
            lambda x: np.stack([np.ones_like(x), peak(x)]), 0.0, 1.0)
        assert val.shape == (2,)
        assert val[0] == pytest.approx(1.0, rel=1e-14)
        assert abs(val[1] - exact) <= 1e-10 * exact
        assert val[1] == multiplier.adaptive_gauss(peak, 0.0, 1.0)

    def test_non_finite_integrand_raises_at_once(self, monkeypatch):
        calls = []

        def nan_integrand(x):
            calls.append(x.size)
            return np.full_like(x, np.nan)

        monkeypatch.setattr(multiplier, "_ORDER", 8)
        with pytest.raises(ArithmeticError):
            multiplier.adaptive_gauss(nan_integrand, 0.0, 1.0)
        assert calls == [8]

    def test_oscillatory_integrand_exhausts_the_call_budget(self):
        # sin(1e7 x) converges only after 262,143 calls (2.9-7.3 s on 2 shared
        # vCPUs without a budget); the budget stops it after 2,000, in 0.03-0.08 s
        calls = []

        def wave(x):
            calls.append(x.size)
            return np.sin(1e7 * x)

        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="after 2000 integrand calls"):
            multiplier.adaptive_gauss(wave, 0.0, 1.0)
        assert time.perf_counter() - start < 1.0
        assert len(calls) == 2000

    def test_unconverged_at_max_depth_raises(self):
        # the panel holding x = 1/3 never meets the tolerance; the partial sum
        # it would return is 2.78766, against 2 sqrt(1/3) + 2 sqrt(2/3) = 2.78769
        with pytest.raises(ArithmeticError, match="unconverged"):
            multiplier.adaptive_gauss(lambda x: np.abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0)


def _family_terms(spec, k=0):
    """[(c, m)] with sum c m = spec (i xi)^k, each m a real-kernel symbol that
    `dealiased_rows` applies: i xi |xi|^l is SignPow l+1, i xi SignPow l is
    -|xi|^{l+1} and HilbertSign is -SignPow 0; BranchCut is a |D|^{2s} +
    b SignPow (`branch_split`), the split `branchcut.defects` composes."""
    if spec.kind == "BranchCut":
        a, b = multiplier.branch_split(spec)
        return ([(a * c, m) for c, m in _family_terms(symbol("AbsPow", two_s=spec.two_s), k)]
                + [(b * c, m) for c, m in _family_terms(symbol("SignPow", two_s=spec.two_s), k)])
    if k == 0:
        return [(1.0, spec)]
    c, kind, lam = (-1.0, "SignPow", 0.0) if spec.kind == "HilbertSign" else (1.0, spec.kind, spec.two_s)
    for _ in range(k):
        c, kind = (c, "SignPow") if kind == "AbsPow" else (-c, "AbsPow")
        lam += 1.0
    return [(c, symbol(kind, two_s=lam))]


def _dealiased(spec, k, g, F):
    """spec (i xi)^k on the rows of F, summed over its family terms."""
    return sum(c * multiplier.dealiased_rows(m, g, F) for c, m in _family_terms(spec, k))


def _correction_kernel(spec, k, g):
    """The correction polynomial of spec (i xi)^k, summed over its family terms."""
    return sum(c * multiplier._correction_kernel(m, g) for c, m in _family_terms(spec, k))


def _weights(spec, k, g, R):
    """The correction weights of spec (i xi)^k at the scale R.  They are linear
    in the symbol, and W_q is R^q times a coefficient, so they are those of its
    family terms, which `_correction_weights` gives at R0 = (n-1) dx, times
    (R/R0)^q."""
    W = sum(c * multiplier._correction_weights(m, g) for c, m in _family_terms(spec, k))
    return W * (R / ((g.n - 1) * g.dx)) ** np.arange(W.size)


def _reference_dealiased(spec, k, f):
    """The Taylor correction summed at every grid point over the support of f,
    with R the support's largest distance to the grid, O(n*s*degree)."""
    g = f.grid
    x = g.x
    supp = np.abs(f.values) > 1e-14 * np.max(np.abs(f.values))
    ys = x[supp]
    fy = f.values[supp] * g.dx
    R = max(abs(x[0] - ys[-1]), abs(x[-1] + g.dx - ys[0]), 1e-9)
    W = _weights(spec, k, g, R)
    T = (x[:, None] - ys[None, :]) / R
    Z = np.ones_like(T)
    corr = np.zeros(g.n, dtype=complex)
    for q in range(W.size):
        corr += (1j) ** q * (Z @ fy) * W[q]
        if q < W.size - 1:
            Z *= T
    return supp, corr / (2.0 * np.pi)


class TestDealiasedCorrection:
    """The polynomial part of the Toeplitz kernel, at R = (n-1) dx, gives the
    correction that the Taylor sum at every grid point gives.  The d2 case is
    |D|^{1.5} (i xi)^2 = -|D|^{3.5}."""

    CASES = [(symbol("HilbertSign"), 0),
             (symbol("ModifiedCoth", delta=0.1), 0),
             (symbol("RieszInverse", alpha=0.75), 0),
             (symbol("SignPow", two_s=1.5), 0),
             (symbol("AbsPow", two_s=1.5), 2)]

    @staticmethod
    def _sources():
        g = Grid(8.0, 1024)
        spike = np.zeros(g.n)
        spike[g.n // 2 + 37] = 1.0
        return {"centred": make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g),
                "off_centre": make_bump(Interval(0.3, 3.1), 0.0, 1.0, g),
                "single_sample": SampledFunction(g, spike)}

    @pytest.mark.parametrize("source", ["centred", "off_centre", "single_sample"])
    @pytest.mark.parametrize("spec,k", CASES, ids=[f"{spec.kind}-d{k}" for spec, k in CASES])
    def test_matches_grid_point_sum(self, spec, k, source):
        f = self._sources()[source]
        n = f.grid.n
        supp, corr = _reference_dealiased(spec, k, f)
        kernel = _correction_kernel(spec, k, f.grid)
        ys = np.flatnonzero(supp)
        # kernel[k + n - 1] is the correction at the offset x - y = k dx
        got = kernel[np.arange(n)[:, None] - ys[None, :] + n - 1] @ f.values[supp]
        assert np.max(np.abs(got - corr)) <= 1e-13 * np.max(np.abs(corr))


def _spec_id(spec):
    return "-".join([spec.kind] + [f"{v:g}" for v in (spec.two_s, spec.delta, spec.alpha)
                                   if v is not None])


def _window_model(spec):
    """(lam, c_plus, c_minus, r): the symbol near 0 as c_+-|xi|^lam plus the
    odd smooth remainder r (None if 0), in mpmath."""
    k = spec.kind
    if k == "ModifiedCoth":
        d = mpmath.mpf(spec.delta)
        return -1, -2j * d, 2j * d, lambda x: -1j * (mpmath.coth(x / (2 * d)) - 2 * d / x)
    if k == "RieszInverse":
        return -2 * mpmath.mpf(spec.alpha), -1, -1, None
    if k == "HilbertSign":
        return 0, -1j, 1j, None
    lam = mpmath.mpf(spec.two_s)
    return (lam, 1, 1, None) if k == "AbsPow" else (lam, 1j, -1j, None)


def _window_integral(spec, q):
    """int (w m - c_+-|xi|^lam) xi^q over (-1.35 xi0, 1.35 xi0) in mpmath: the
    part of I_q that `_correction_weights` leaves to quadrature, unfolded."""
    lam, cp, cm, r = _window_model(spec)
    xi0 = mpmath.mpf(multiplier._XI0)
    xic = mpmath.mpf(1.35 * multiplier._XI0)

    def f(x):
        one_minus_w = -mpmath.expm1(-(x / xi0) ** 16)
        v = -one_minus_w * (cp if x > 0 else cm) * abs(x) ** lam
        if r is not None:
            v += (1 - one_minus_w) * r(x)
        return v * x ** q

    return complex(mpmath.quad(f, [-xic, -xi0, 0, xi0, xic]))


class TestCorrectionWeights:
    """I_q = par fp + one `adaptive_gauss` integral over (0, 1.35 xi0), whose
    components that vanish by parity are exactly 0."""

    GRIDS = [Grid(L, n) for L in (4.0, 8.0) for n in (512, 4096)]
    SPECS = ([symbol("HilbertSign")]
             + [symbol("ModifiedCoth", delta=d) for d in (0.001, 0.01, 0.1, 0.5, 1.0, 10.0, 100.0)]
             + [symbol("RieszInverse", alpha=a) for a in (0.05, 0.25, 0.4, 0.6, 0.75, 0.99)]
             + [symbol(kind, two_s=t) for kind in ("AbsPow", "SignPow")
                for t in (0.3, 0.5, 0.9, 1.2, 1.5, 1.98)])
    REFERENCE = [symbol("HilbertSign"), symbol("ModifiedCoth", delta=0.1),
                 symbol("ModifiedCoth", delta=1.0), symbol("RieszInverse", alpha=0.25),
                 symbol("RieszInverse", alpha=0.75), symbol("AbsPow", two_s=1.5),
                 symbol("SignPow", two_s=1.2)]

    @staticmethod
    def _integrals(spec, g):
        """(weights, the values of every `adaptive_gauss` call they made)."""
        seen = []

        def spy(*args, **kwargs):
            seen.append(real_gauss(*args, **kwargs))
            return seen[-1]

        real_gauss = multiplier.adaptive_gauss
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multiplier, "adaptive_gauss", spy)
            W = multiplier._correction_weights(spec, g)
        return W, seen

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_converges_with_one_quadrature(self, spec):
        for g in self.GRIDS:
            W, seen = self._integrals(spec, g)
            assert len(seen) == 1
            assert np.all(np.isfinite(W))

    @pytest.mark.parametrize("spec", REFERENCE, ids=_spec_id)
    def test_integrals_match_mpmath(self, spec):
        _, (J,) = self._integrals(spec, Grid(8.0, 1024))
        with mpmath.workdps(40):
            for q in (0, 1, 10, 11, 43, 44):
                ref = _window_integral(spec, q)
                if J[q] == 0:
                    assert abs(ref) <= 1e-40   # exactly 0 by parity
                else:
                    assert abs(J[q] - ref) <= 2e-14 * abs(ref), q


def _padded_symbol(spec, k, g, nbig):
    """The symbol times (i xi)^k at the `fftfreq(nbig, dx)` points."""
    xib = 2.0 * np.pi * np.fft.fftfreq(nbig, d=g.dx)
    return evaluate(spec, xib) * (1j * xib) ** k


def _nyquist_values(spec, k, g):
    """The symbol times (i xi)^k at xi = -pi/dx and +pi/dx."""
    nyq = np.array([-1.0, 1.0]) * np.pi / g.dx
    return evaluate(spec, nyq) * (1j * nyq) ** k


def _parent_padded_route(spec, k, f):
    """The one-row route the Toeplitz kernel replaced: ifft(m * fft) on the
    32-times padded grid plus the Taylor correction summed by one
    matrix-vector product per power at the Chebyshev points and interpolated.
    The Nyquist bin takes the mean of m(+-pi/dx), the convention of the
    real-kernel route."""
    g = f.grid
    nbig = g.n * 32
    off = (nbig - g.n) // 2
    big = np.zeros(nbig, dtype=complex)
    big[off:off + g.n] = f.values
    m = _padded_symbol(spec, k, g, nbig)
    m[nbig // 2] = _nyquist_values(spec, k, g).mean()
    out = np.fft.ifft(m * np.fft.fft(big))[off:off + g.n].copy()

    x = g.x
    a = np.abs(f.values)
    supp = a > 1e-14 * max(np.max(a), 1e-300)
    ys = x[supp]
    fy = f.values[supp] * g.dx
    R = max(abs(x[0] - ys[-1]), abs(x[-1] + g.dx - ys[0]), 1e-9)
    W = _weights(spec, k, g, R)
    K = W.size
    theta = (2 * np.arange(K) + 1) * np.pi / (2 * K)
    xc = 0.5 * (x[-1] + x[0]) + 0.5 * (x[-1] - x[0]) * np.cos(theta)
    T = (xc[:, None] - ys[None, :]) / R
    Z = np.ones_like(T)
    corr = np.zeros(K, dtype=complex)
    for q in range(K):
        corr += (1j) ** q * (Z @ fy) * W[q]
        if q < K - 1:
            Z *= T
    j = np.arange(K)
    w = (-1.0) ** j * np.sin((2 * j + 1) * np.pi / (2 * K))
    diff = x[:, None] - xc[None, :]
    hit_row, hit_col = np.nonzero(diff == 0.0)
    diff[hit_row] = 1.0
    c = w / diff
    interp = (c @ corr) / c.sum(axis=1)
    interp[hit_row] = corr[hit_col]
    out += interp / (2.0 * np.pi)
    return out


def _real_kernel(spec, k, g):
    """(t, correction): the real Toeplitz kernel at the offsets -(n-1)..n-1,
    a 32n-point `irfft` plus the correction polynomial."""
    n = g.n
    xib = 2.0 * np.pi * np.fft.rfftfreq(32 * n, d=g.dx)
    m = evaluate(spec, xib) * (1j * xib) ** k
    corr = _correction_kernel(spec, k, g)
    return np.fft.irfft(m, 32 * n)[np.arange(-(n - 1), n)] + corr, corr


def _complex_route(spec, k, g, F):
    """The route the real-kernel one replaced: t from a 32n-point complex `ifft`
    of the symbol at the `fftfreq` points, whose Nyquist bin holds
    m(-pi/dx), plus the complex correction polynomial, applied by complex
    2n-point FFT convolution."""
    n = g.n
    t = np.fft.ifft(_padded_symbol(spec, k, g, 32 * n))[np.arange(-(n - 1), n)]
    W = _weights(spec, k, g, (n - 1) * g.dx)
    t += np.polyval(W[::-1], 1j * np.arange(-(n - 1), n) / (n - 1)) * (g.dx / (2.0 * np.pi))
    circ = np.zeros(2 * n, dtype=complex)
    circ[:n], circ[n + 1:] = t[n - 1:], t[:n - 1]
    return np.fft.ifft(np.fft.fft(F, 2 * n, axis=-1) * np.fft.fft(circ), axis=-1)[..., :n]


class TestDealiasedRows:
    """Each case (spec, k) is spec (i xi)^k, applied as its family terms
    (`_family_terms`) and checked against references that evaluate spec times
    (i xi)^k itself.  ModifiedCoth and RieszInverse (alpha = 3/4) times i xi
    have no real-kernel symbol in the family and run at k = 0 only."""

    KERNELS = [symbol("HilbertSign"), symbol("ModifiedCoth", delta=0.1),
               symbol("RieszInverse", alpha=0.75), symbol("BranchCut", two_s=1.2, branch=1),
               symbol("AbsPow", two_s=1.5), symbol("SignPow", two_s=1.2)]
    CASES = [(spec, k) for spec in KERNELS for k in (0, 1)
             if k == 0 or spec.kind not in ("ModifiedCoth", "RieszInverse")]
    REAL = [(spec, k) for spec, k in CASES if spec.kind != "BranchCut"]

    @staticmethod
    def _source(n):
        g = Grid(8.0, n)
        f = make_bump(Interval(-0.7, 1.3), 0.0, 1.0, g)
        return SampledFunction(g, f.values * np.cos(3.0 * g.x))

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("spec,k", CASES, ids=[f"{spec.kind}-{k}" for spec, k in CASES])
    def test_single_row_matches_padded_route(self, spec, k, n):
        f = self._source(n)
        got = _dealiased(spec, k, f.grid, f.values[None])[0]
        ref = _parent_padded_route(spec, k, f)
        # the two routes round differently; the padded route's own error against
        # a long-double evaluation of its sum reaches 9.2e-12 max|out| at k = 1
        tol = 1e-12 if k == 0 else 1e-10
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec,k", CASES, ids=[f"{spec.kind}-{k}" for spec, k in CASES])
    def test_stack_equals_single_rows(self, spec, k):
        g = Grid(8.0, 1024)
        centred = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values
        shifted = make_bump(Interval(0.3, 3.1), 0.0, 1.0, g).values
        # rows of two supports, a zero row and complex rows
        F = np.array([centred, 2.5 * shifted, np.zeros(g.n), -3.0 * centred,
                      centred * np.sin(5.0 * g.x), 1j * shifted, shifted * np.cos(g.x),
                      0.5 * centred, 7.25 * centred, shifted, centred * np.exp(2j * g.x)])
        rows = _dealiased(spec, k, g, F)
        assert rows.shape == F.shape and rows.dtype == complex
        for row, f in zip(rows, F):
            assert np.array_equal(row, _dealiased(spec, k, g, f[None])[0])
        assert not rows[2].any()

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("spec,k", REAL, ids=[f"{spec.kind}-{k}" for spec, k in REAL])
    def test_complex_route_less_its_nyquist_term(self, spec, k, n):
        # the complex route gives the Nyquist bin m(-pi/dx) where irfft gives
        # the mean of m(+-pi/dx); that adds (m(-pi/dx) - mean) (-1)^i/(32n)
        # * sum_j (-1)^j f_j to output i (up to 1.1e-6 max|out|), and nothing
        # else differs beyond the roundoff of summing t[i-j] f_j, whose terms
        # reach max|t| sum|f| (up to 7e6 max|out| for the steep kernels)
        f = self._source(n)
        got = _dealiased(spec, k, f.grid, f.values[None])[0]
        mn = _nyquist_values(spec, k, f.grid)
        alt = (-1.0) ** np.arange(n)
        term = (mn[0] - mn.mean()) * alt / (32 * n) * np.sum(alt * f.values)
        ref = _complex_route(spec, k, f.grid, f.values) - term
        t, _ = _real_kernel(spec, k, f.grid)
        scale = np.max(np.abs(t)) * np.sum(np.abs(f.values))
        assert np.max(np.abs(got - ref)) <= 1e-15 * scale

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("spec,k", REAL, ids=[f"{spec.kind}-{k}" for spec, k in REAL])
    def test_correction_kernel_is_real(self, spec, k, n):
        # m(-xi) = conj m(xi) makes i^q W_q real; `_correction_kernel` sums
        # Re(i^q W_q) and drops the roundoff left in Im(i^q W_q), which moves
        # no offset (|k/(n-1)| <= 1) by more than its sum
        g = Grid(8.0, n)
        t, _ = _real_kernel(spec, k, g)
        W = _weights(spec, k, g, (n - 1) * g.dx)
        dropped = np.sum(np.abs((W * 1j ** np.arange(W.size)).imag)) * g.dx / (2.0 * np.pi)
        assert dropped <= 1e-15 * np.max(np.abs(t))

    @pytest.mark.parametrize("spec,k", REAL, ids=[f"{spec.kind}-{k}" for spec, k in REAL])
    def test_real_rows_give_real_output(self, spec, k):
        g = Grid(8.0, 1024)
        F = np.array([make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values,
                      self._source(1024).values, np.zeros(g.n)])
        rows = _dealiased(spec, k, g, F)
        assert rows.dtype == complex and not rows.imag.any()
        assert rows[:2].real.any()

    @pytest.mark.parametrize("s", [0.6, 0.75])
    @pytest.mark.parametrize("n", [4096, 8192])
    @pytest.mark.parametrize("branch", [1, 2])
    def test_branch_cut_split_matches_complex_route(self, branch, n, s):
        # P^j = a |D|^{2s} + b SignPow as `branchcut.defects` composes it,
        # against P^j's own complex route, on the source of `nsl branchcut defects`
        g = Grid(8.0, n)
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
        spec = symbol("BranchCut", two_s=2.0 * s, branch=branch)
        got = _dealiased(spec, 0, g, f.values[None])[0]
        ref = _complex_route(spec, 0, g, f.values)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(got))

    @pytest.mark.parametrize("spec", [symbol("BranchCut", two_s=1.5, branch=1),
                                      symbol("BranchCut", two_s=1.5, branch=2),
                                      symbol("FourierLaplace", alpha=0.0, beta=-1.0)],
                             ids=["BranchCut-1", "BranchCut-2", "FourierLaplace"])
    def test_rejects_symbol_without_real_kernel(self, spec):
        g = Grid(8.0, 1024)
        F = np.array([make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values, np.zeros(g.n)])
        with pytest.raises(ValueError, match="real-kernel"):
            multiplier.dealiased_rows(spec, g, F)
        with pytest.raises(ValueError, match="real-kernel"):
            multiplier.dealiased_rows(spec, g, np.zeros((1, g.n)))

    def test_rejects_row_reaching_past_half_width(self):
        g = Grid(8.0, 1024)
        F = np.array([make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values,
                      make_bump(Interval(2.0, 5.5), 0.0, 1.0, g).values])
        with pytest.raises(ValueError, match="beyond"):
            multiplier.dealiased_rows(symbol("HilbertSign"), g, F)


class TestPseudolocality:
    def test_k0_matches_sup(self, grid, unit_bump):
        J = Interval(2.0, 3.0)
        profile, rho = _pseudolocality_profile(unit_bump, 1.5, J, 4)
        out = apply_dealiased(symbol("AbsPow", two_s=1.5), unit_bump)
        mask = J.contains(grid.x)
        assert profile[0][1] == pytest.approx(
            float(np.max(np.abs(out.values[mask]))), rel=1e-9)

    def test_hilbert_derivatives_match_kernel_quadrature(self, grid):
        I = Interval(0.0, 1.0)
        f = make_bump(I, 0.0, 1.0, grid)
        spec = symbol("HilbertSign")
        x = grid.x[np.argmin(np.abs(grid.x - 2.5))]
        # the FFT route loses accuracy with k: (i xi)^k amplifies the roundoff
        # tail of the spectrum, so the tolerance is tiered by order
        # H (i xi)^k is applied as the family symbol it equals (`_family_terms`):
        # |D| at k = 1, SignPow 2 at k = 2 and -|D|^3 at k = 3
        for k, rtol in ((0, 1e-6), (1, 1e-6), (2, 1e-3), (3, 1e-3)):
            out = SampledFunction(grid, _dealiased(spec, k, grid, f.values[None])[0])
            fft_val = trig_interp(out, [x])[0]

            def integrand(y, k=k, x=x):
                return _hilbert_derivative_kernel(x, y, k) * trig_interp(f, y)

            orc = multiplier.adaptive_gauss(integrand, I.a, I.b)
            assert abs(fft_val - orc) <= rtol * max(abs(orc), 1e-30)

    def test_rho_increases_with_distance(self, grid, unit_bump):
        # the fitted analyticity radius is biased low by the Gamma-function
        # prefactor of the kernel derivatives, but it must grow with the
        # distance from the support to the profile region
        _, rho_near = _pseudolocality_profile(unit_bump, 1.5, Interval(2.0, 3.0), 6)
        _, rho_far = _pseudolocality_profile(unit_bump, 1.5, Interval(3.0, 3.9), 6)
        assert 0.0 < rho_near < rho_far

    def test_overlap_rejected(self, grid, unit_bump):
        with pytest.raises(ValueError):
            _pseudolocality_profile(unit_bump, 1.5, Interval(0.5, 2.0), 4)


class TestRieszConstant:
    def test_alpha_quarter_positive(self):
        assert riesz_constant(0.25) > 0
