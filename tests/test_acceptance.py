"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins the full-pipeline behavior at fixed configurations: exact
algebra identities, cross-oracle operator agreement, defect thresholds under
refinement, fitted-exponent signs and fit quality, and runtime budgets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nslab import branchcut, continuation, moments, multiplier, reconstruct, runge
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump, norm
from nslab.moments import LegendreSystem, PrecisionConfig, legendre_ode_residual


def _linear_fit_r2(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss = np.sum((y - np.mean(y)) ** 2)
    return coef[1], 1.0 - np.sum((y - pred) ** 2) / ss


def test_criterion_1_hilbert_inverse_growth_rate():
    # per-step growth rate of log sigma_max(H_N^{-1}) in [3.2, 3.7] for all
    # N in 10..20 at 256 bits, under a 30 s budget
    t0 = time.monotonic()
    prec = PrecisionConfig(bits=256)
    logs = {N: math.log(float(moments.hilbert_inverse_sigma_max(N, prec)))
            for N in range(9, 21)}
    for N in range(10, 21):
        rate = logs[N] - logs[N - 1]
        assert 3.2 <= rate <= 3.7, (N, rate)
    assert time.monotonic() - t0 < 30.0


def test_criterion_2_exact_algebra():
    t0 = time.monotonic()
    for N in (1, 6, 12):
        sys = LegendreSystem(N)
        gram = sys.gram_exact()
        hinv = sys.hilbert_inverse_exact()
        assert gram == hinv  # entrywise exact rationals
    for m in range(9):
        assert all(c == Fraction(0) for c in legendre_ode_residual(m))
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_moment_stability_bound():
    I = Interval(0.1, 0.9)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(50):
        coeffs = rng.standard_normal(11).tolist()  # degree <= 10
        for N in range(1, 9):
            _, _, holds = moments.verify_festmom(coeffs, I, N)[N]
            violations += 0 if holds else 1
    assert violations == 0


def test_criterion_4_operator_cross_oracle():
    grid = Grid(8.0, 4096)
    I = Interval(0.0, 1.0)
    f = make_bump(I, 0.0, 1.0, grid)
    idx = np.flatnonzero((grid.x >= 2.1) & (grid.x <= 2.9))
    idx = idx[np.linspace(0, idx.size - 1, 16).astype(int)]
    pts = grid.x[idx]
    specs = [multiplier.symbol("HilbertSign"),
             multiplier.symbol("ModifiedCoth", delta=0.1),
             multiplier.symbol("ModifiedCoth", delta=1.0),
             multiplier.symbol("RieszInverse", alpha=0.25),
             multiplier.symbol("RieszInverse", alpha=0.75)]
    for spec in specs:
        fft_vals = multiplier.apply_dealiased(spec, f).values[idx]
        orc_vals = multiplier.oracle_quadrature(spec, f, I, pts)
        scale = float(np.max(np.abs(orc_vals)))
        assert np.max(np.abs(fft_vals - orc_vals)) <= 1e-6 * scale, spec.kind
    # oscillatory-exponential transform: grid Riemann sum (spectrally accurate
    # for a smooth compactly supported integrand) vs adaptive quadrature
    fl = multiplier.symbol("FourierLaplace", alpha=0.0, beta=-1.0)
    orc_vals = multiplier.oracle_quadrature(fl, f, I, pts)
    mask = I.contains(grid.x)
    grid_vals = np.array(
        [np.sum(np.exp(-1j * x * grid.x[mask]) * f.values[mask]) * grid.dx
         for x in pts])
    scale = float(np.max(np.abs(orc_vals)))
    assert np.max(np.abs(grid_vals - orc_vals)) <= 1e-6 * scale


def test_criterion_5_branch_cut_structure(grid, unit_bump):
    xi = np.linspace(-5.0, 5.0, 201)
    # integer 2s is excluded from the symbol family (logarithmic finite part);
    # the s = 1/2 case enters through the comparison-pair loop below
    for two_s in (1.2, 1.5, 1.8):
        b1 = multiplier.evaluate(multiplier.symbol("BranchCut", two_s=two_s,
                                                   branch=1), xi)
        b2 = multiplier.evaluate(multiplier.symbol("BranchCut", two_s=two_s,
                                                   branch=2), xi)
        ap = multiplier.evaluate(multiplier.symbol("AbsPow", two_s=two_s), xi)
        assert np.all(b1[xi <= 0] == ap[xi <= 0])  # exact piecewise equality
        assert np.all(b2[xi >= 0] == ap[xi >= 0])
    for s in (0.5, 0.6, 0.75, 0.9):
        pair = branchcut.comparison_pair(unit_bump, s)
        assert pair.sum_identity_residual() <= 1e-10


@pytest.mark.parametrize("s", [0.6, 0.75])
def test_criterion_6_support_preservation(s):
    I = Interval(-1.0, 1.0)
    J_right, J_left = Interval(2.0, 3.0), Interval(-3.0, -2.0)
    sup, imag = [], []
    for n in (4096, 8192):
        g = Grid(8.0, n)
        f = make_bump(I, 0.0, 1.0, g)
        d = branchcut.defects(branchcut.comparison_pair(f, s), J_left, J_right)
        sup.append(max(d["support_defect_b1"], d["support_defect_b2"]))
        imag.append(max(d["imag_defect_b1"], d["imag_defect_b2"]))
    assert sup[0] <= 1e-6 and imag[0] <= 1e-6
    assert sup[1] <= 0.5 * sup[0]
    assert imag[1] <= 0.5 * imag[0]


def test_criterion_7_log_stability_reconstruction(grid):
    t0 = time.monotonic()
    I, J = Interval(0.0, 1.0), Interval(1.05, 2.05)
    comps = [(0.0374, 0.3926, 2.5473, 0.3852),
             (0.0890, 0.3407, 1.5162, 0.2068),
             (0.0179, 0.6275, 1.3985, 0.1773)]
    vals = np.zeros(grid.n)
    for a, b, sharp, amp in comps:
        vals = vals + amp * make_bump(Interval(a, b), 0.0, sharp, grid).values
    f = SampledFunction(grid, vals)
    f = SampledFunction(grid, f.values / norm(f, "L2", region=I))
    levels = [10.0 ** (-2 - k) for k in range(9)]  # 1e-2 .. 1e-10
    curve = reconstruct.stability_sweep("Hilbert", f, I, J, levels, trials=5,
                                        seed=0, num_samples=64, N_max=12,
                                        tau=1.5)
    assert curve.model["form"] == "log"
    assert curve.model["exponent"] > 0
    assert curve.r_squared >= 0.9
    assert curve.monotonicity_inversions() <= 1
    assert time.monotonic() - t0 < 300.0


def test_criterion_8_singular_value_decay():
    # exterior-data solution operator
    p = runge.build(0.6, 0.0, Interval(-1.0, 1.0), Interval(1.02, 3.8),
                    Grid(4.0, 512))
    svd = runge.poisson_svd(p)
    slope, r2 = runge.sigma_decay_fit(svd, j_max=30)
    assert slope < 0 and r2 >= 0.98
    # window-truncated Hilbert transform chi_J H chi_I
    g = Grid(8.0, 1024)
    T = runge.dense_multiplier_matrix(multiplier.symbol("HilbertSign"), g)
    rows = np.flatnonzero(Interval(1.5, 3.5).contains(g.x))
    cols = np.flatnonzero(Interval(-1.0, 1.0).contains(g.x))
    sig = np.linalg.svd(g.dx * T[np.ix_(rows, cols)], compute_uv=False)
    slope, r2 = _linear_fit_r2(np.arange(1, 31), np.log(sig[:30]))
    assert slope < 0 and r2 >= 0.98


def test_criterion_9_runge_cost_curve():
    t0 = time.monotonic()
    g = Grid(4.0, 512)
    p = runge.build(0.6, 0.0, Interval(-1.0, 1.0), Interval(1.02, 3.8), g)
    v = make_bump(Interval(-0.9, 0.9), 0.0, 0.5, g).values[p.omega_idx]
    v = v / (math.sqrt(g.dx) * np.linalg.norm(v))
    rows, fit = runge.epsilon_sweep(p, v, eps_list=(0.5, 0.2, 0.1, 0.05, 0.02))
    for row in rows:
        assert row["achieved"] <= row["eps"]
    costs = [row["cost"] for row in rows]
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert fit["mu_hat"] > 0 and fit["r_squared"] >= 0.9
    assert time.monotonic() - t0 < 120.0


class TestCriterion10PropertySuite:
    def test_parseval_and_roundtrip(self, grid, unit_bump):
        fhat = np.fft.fft(unit_bump.values.astype(complex))
        back = np.fft.ifft(fhat)
        assert np.max(np.abs(back - unit_bump.values)) <= 1e-12
        parseval = np.sum(np.abs(fhat) ** 2) / grid.n
        direct = np.sum(np.abs(unit_bump.values) ** 2)
        assert abs(parseval - direct) <= 1e-12 * direct

    def test_hilbert_involution(self, grid, unit_bump):
        # H o H = -Id on mean-zero input, also at the Nyquist bin: the raw
        # route keeps m(-pi/dx) there, so on the real alternating input H
        # returns the imaginary part m(-pi/dx) (-1)^i/n sum_j (-1)^j f_j
        spec = multiplier.symbol("HilbertSign")
        sign = (-1.0) ** np.arange(grid.n)
        alternating = unit_bump.values * sign - np.mean(unit_bump.values * sign)
        derivative = np.fft.ifft(1j * grid.xi * np.fft.fft(unit_bump.values.astype(complex)))
        for values in (derivative, alternating):
            f = SampledFunction(grid, values)
            hh = multiplier.apply(spec, multiplier.apply(spec, f))
            assert np.max(np.abs(hh.values + f.values)) <= \
                1e-10 * np.max(np.abs(f.values))
        h = multiplier.apply(spec, SampledFunction(grid, alternating)).values
        nyquist = multiplier.evaluate(spec, -np.pi / grid.dx) * np.sum(sign * alternating) / grid.n
        assert np.max(np.abs(h.imag - (nyquist * sign).imag)) <= 1e-12 * np.max(np.abs(h))
        assert np.max(np.abs(h.imag)) >= 1e-3 * np.max(np.abs(h))

    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_poincare_ratio_dilation_invariance(self, lam):
        I = Interval(-1.0, 1.0)
        g = Grid(8.0, 4096)
        gl = Grid(8.0 / lam, 4096)
        f = make_bump(I, 0.0, 1.0, g)
        fl = SampledFunction(gl, f.values)
        r = branchcut.poincare_ratio(f, I, 0.5)
        rl = branchcut.poincare_ratio(fl, Interval(I.a / lam, I.b / lam), 0.5)
        assert rl == pytest.approx(r, rel=1e-8)

    def test_three_balls_monotonicity(self):
        g = Grid(8.0, 1024)
        ys = np.linspace(0.0, 1.0, 129)
        for sharp in (0.5, 1.0, 2.0):
            h = make_bump(Interval(1.0, 2.0), 0.0, sharp, g)
            field = continuation.extend(h, ys)
            n1, n2, n4, _ = continuation.three_balls_report(field, (1.5, 0.5),
                                                            0.1)
            assert n1 <= n2 <= n4

    def test_ball_count_log_fit(self):
        taus = [2.0 ** -k for k in range(3, 11)]
        counts = [continuation.plan_ball_chain(Interval(-2, -1),
                                               Interval(1, 2), t).count
                  for t in taus]
        slope, r2 = _linear_fit_r2(np.log(1.0 / np.array(taus)),
                                   np.array(counts, dtype=float))
        assert slope > 0 and r2 >= 0.95
