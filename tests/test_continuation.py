import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import continuation
from nslab.continuation import (HalfPlaneField, extend, plan_ball_chain,
                                smallness_certificate, three_balls_report)
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump, norm, smooth_cutoff


def _level(field, j):
    return SampledFunction(field.grid, field.values[j])


def _poisson_field(n=1024, y_top=1.0, levels=129, support=Interval(1.0, 2.0)):
    g = Grid(8.0, n)
    h = make_bump(support, 0.0, 1.0, g)
    ys = np.linspace(0.0, y_top, levels)
    return extend(h, ys)


def _ball_norm_reference(field, center, r):
    """Reference: the masked Riemann sum visited at every y-level."""
    cx, cy = center
    wy = np.gradient(field.y_levels)
    total = 0.0
    for j, y in enumerate(field.y_levels):
        dy2 = r * r - (y - cy) ** 2
        if dy2 <= 0:
            continue
        xmask = np.abs(field.grid.x - cx) <= math.sqrt(dy2)
        if not np.any(xmask):
            continue
        total += np.sum(np.abs(field.values[j][xmask]) ** 2) * field.grid.dx * wy[j]
    return float(math.sqrt(total))


def _strip_norm_reference(field, base, tau):
    """Reference: |values|^2 taken on the gathered strip base x [0, tau]."""
    ys = field.y_levels
    sel = ys <= tau + 1e-12
    xmask = base.contains(field.grid.x)
    rows = np.sum(np.abs(field.values[sel][:, xmask]) ** 2, axis=1) * field.grid.dx
    return float(math.sqrt(max(np.trapezoid(rows, ys[sel]), 0.0)))


def _certificate_reference(field, I, J, decades):
    """Certificate rows from one full ball-chain walk per tau at or below
    the field's top level."""
    top = float(field.y_levels[-1])

    def propagate(tau):
        strip = field.strip_norm(I, tau)
        chain = plan_ball_chain(I, J, tau, y_top=top)
        small = None
        for cx, cy in chain.centers:
            n1, n2, n4, alpha = three_balls_report(field, (cx, cy), cy / 8.0)
            if small is None:
                small = n2
                continue
            if alpha is None or n4 == 0.0:
                small = max(small, n2)
                continue
            carried = min(small, n1) if n1 > 0 else small
            small = min(n2, carried ** alpha * n4 ** (1.0 - alpha))
        return float(strip), float(small), chain.count

    rows = []
    t = 0.45
    for _ in range(int(decades * 16)):
        if t < 2.0 * float(field.y_levels[1]):
            break
        if t <= top:
            strip, chain, count = propagate(t)
            rows.append({"tau": t, "strip": strip, "chain": chain,
                         "count": count, "bound": strip + chain})
        t *= 10.0 ** (-1.0 / 16.0)
    return rows


_ONESIDED_TOL = 1e-10


def _negative_frequency_share(fhat, xi):
    """Share of the energy of fhat on xi < 0."""
    tot = float(np.sum(np.abs(fhat) ** 2))
    if tot == 0.0:
        return 0.0
    return float(np.sum(np.abs(fhat[xi < 0]) ** 2)) / tot


def _extend_one_sided(h, y_levels):
    """Analytic extension of data with positive-frequency spectrum: xi >= 0
    is damped by e^{-y xi}, and xi < 0 may carry at most _ONESIDED_TOL of
    the energy."""
    g = h.grid
    ys = np.sort(np.atleast_1d(np.asarray(y_levels, dtype=float)))
    fhat = np.fft.fft(np.asarray(h.values, dtype=complex))
    if _negative_frequency_share(fhat, g.xi) > _ONESIDED_TOL:
        raise ValueError("one-sided extension requires a positive-frequency spectrum")
    damp = np.maximum(g.xi, 0.0)
    return HalfPlaneField(g, ys, np.fft.ifft(fhat * np.exp(-ys[:, None] * damp), axis=1))


def _cauchy_riemann_residual(field):
    """Relative size of the conjugate-derivative combination that vanishes for
    upper-half-plane analytic fields, with the y-derivative taken by centered
    finite differences across levels (x-derivative spectral)."""
    if _negative_frequency_share(np.fft.fft(field.values[0]), field.grid.xi) > _ONESIDED_TOL:
        raise ValueError("Cauchy-Riemann residual applies to one-sided fields")
    g, ys = field.grid, field.y_levels
    if ys.size < 3:
        raise ValueError("need at least three levels")
    num = 0.0
    den = 0.0
    for j in range(1, ys.size - 1):
        dx_h = np.fft.ifft(1j * g.xi * np.fft.fft(field.values[j]))
        dy_h = (field.values[j + 1] - field.values[j - 1]) / (ys[j + 1] - ys[j - 1])
        num += np.sum(np.abs(dx_h + 1j * dy_h) ** 2)
        den += np.sum(np.abs(field.values[j]) ** 2)
    if den == 0.0:
        return 0.0
    return float(math.sqrt(num / den))


def _harmonic_residual(field):
    """Relative 5-point-Laplacian residual on interior lattice points; needs
    uniform y-spacing.  O(dy^2 + dx^2) for true harmonic extensions."""
    ys = field.y_levels
    if ys.size < 3:
        raise ValueError("need at least three levels")
    dy = np.diff(ys)
    if np.max(np.abs(dy - dy[0])) > 1e-12 * dy[0]:
        raise ValueError("5-point residual requires uniform y-levels")
    u = field.values.real
    dx2 = field.grid.dx ** 2
    lap = ((np.roll(u, 1, axis=1) - 2 * u + np.roll(u, -1, axis=1))[1:-1] / dx2
           + (u[2:] - 2 * u[1:-1] + u[:-2]) / dy[0] ** 2)
    den = float(np.max(np.abs(u)))
    if den == 0.0:
        return 0.0
    return float(np.max(np.abs(lap)) / den)


def _bulk_boundary_check(h, I, c, k, s):
    """Two bulk/boundary norm comparisons for one-sided boundary data.

    Pair 1: |h-tilde|_{H^{1/2}-type}(I x [0,c]) vs the boundary quantity
    |h|_{L2} (= the homogeneous H^{1/2} norm of a -1/2-order smoothing of h).
    Pair 2: |h|_{H^{-s}(I)} vs |h-tilde|_{L2(kI x [0,c])}.
    Returns dict with both pairs and their ratios (None when rhs vanishes).
    """
    if not (0.5 <= s < 1.0):
        raise ValueError("s must lie in [1/2, 1)")
    if k <= 1.0:
        raise ValueError("dilation factor k must exceed 1")
    if c <= 0:
        raise ValueError("height c must be positive")
    g = h.grid
    ny = 65
    ys = np.linspace(0.0, c, ny)
    field = _extend_one_sided(h, ys)
    # surrogate square-norm: level-wise H^{1/2}(R) energies integrated in y
    rows = []
    chi = smooth_cutoff(I, g)
    for j in range(ny):
        lvl = SampledFunction(g, chi * field.values[j])
        rows.append(norm(lvl, "Hs", s=0.5) ** 2)
    lhs1 = float(math.sqrt(max(np.trapezoid(rows, ys), 0.0)))
    rhs1 = norm(h, "L2")
    lhs2 = norm(h, "HnegS_local", region=I, s=s)
    rhs2 = field.strip_norm(I.dilate(k), c)
    return {
        "boundary_pair": (lhs1, rhs1, lhs1 / rhs1 if rhs1 > 0 else None),
        "bulk_pair": (lhs2, rhs2, lhs2 / rhs2 if rhs2 > 0 else None),
    }


def _low_poisson_field():
    """A Poisson field sampled up to y = 0.1, below most of the tau grid."""
    return _poisson_field(y_top=0.1)


def _zero_field():
    g = Grid(8.0, 512)
    ys = np.linspace(0.0, 1.0, 65)
    return HalfPlaneField(g, ys, np.zeros((65, g.n), dtype=complex))


class TestExtend:
    def test_single_positive_mode(self):
        g = Grid(np.pi, 256)
        k = 3.0
        h = SampledFunction(g, np.exp(1j * k * g.x))
        field = _extend_one_sided(h, [0.0, 1.0])
        want = np.exp(1j * k * g.x) * math.exp(-k)
        assert np.max(np.abs(_level(field, 1).values - want)) <= 1e-12

    def test_poisson_cosine(self):
        g = Grid(np.pi, 256)
        k = 2.0
        h = SampledFunction(g, np.cos(k * g.x))
        field = extend(h, [0.0, 0.5])
        want = math.exp(-k * 0.5) * np.cos(k * g.x)
        assert np.max(np.abs(_level(field, 1).values - want)) <= 1e-12

    def test_base_slice_exact(self):
        field = _poisson_field()
        h0 = _level(field, 0)
        assert np.max(np.abs(np.imag(h0.values))) <= 1e-12

    def test_onesided_precondition(self):
        g = Grid(np.pi, 256)
        h = SampledFunction(g, np.cos(3.0 * g.x))  # two-sided spectrum
        with pytest.raises(ValueError):
            _extend_one_sided(h, [0.0, 1.0])

    @pytest.mark.parametrize("ys", [[], [0.0]])
    def test_fewer_than_two_levels_rejected(self, ys):
        h = SampledFunction(Grid(np.pi, 256), np.zeros(256))
        with pytest.raises(ValueError, match="at least two y-levels"):
            extend(h, ys)

    def test_semigroup(self):
        g = Grid(np.pi, 256)
        h = SampledFunction(g, np.cos(2.0 * g.x) + 0.3 * np.sin(5.0 * g.x))
        a = extend(h, [0.0, 0.3])
        b = extend(_level(a, 1), [0.0, 0.4])
        c = extend(h, [0.0, 0.7])
        assert np.max(np.abs(_level(b, 1).values - _level(c, 1).values)) <= 1e-12

    def test_maximum_principle_poisson(self):
        field = _poisson_field()
        sup0 = np.max(np.abs(_level(field, 0).values))
        for j in range(1, len(field.y_levels)):
            assert np.max(np.abs(_level(field, j).values)) <= sup0 + 1e-10

    def test_cauchy_riemann_residual_fine_levels(self):
        g = Grid(8.0, 1024)
        base = make_bump(Interval(1.0, 2.0), 0.0, 1.0, g)
        fhat = np.fft.fft(base.values.astype(complex))
        fhat[g.xi < 0] = 0.0
        h = SampledFunction(g, np.fft.ifft(fhat))
        ys = 0.5 + np.arange(9) * 2e-4
        field = _extend_one_sided(h, ys)
        assert _cauchy_riemann_residual(field) <= 1e-6

    def test_harmonic_residual_second_order(self):
        # 5-point Laplacian residual drops ~4x when both spacings halve
        res = []
        for n, levels in ((512, 65), (1024, 129)):
            g = Grid(8.0, n)
            h = make_bump(Interval(1.0, 2.0), 0.0, 1.0, g)
            ys = 0.5 + np.arange(levels) * (16.0 / n)
            res.append(_harmonic_residual(extend(h, ys)))
        assert res[1] <= 0.5 * res[0]


class TestThreeBalls:
    def test_constant_field_scaling(self):
        g = Grid(8.0, 1024)
        ys = np.linspace(0.0, 2.0, 257)
        field = HalfPlaneField(g, ys, np.ones((257, g.n), dtype=complex))
        n1, n2, n4, alpha = three_balls_report(field, (0.0, 1.0), 0.2)
        assert n2 / n1 == pytest.approx(2.0, rel=2e-2)
        assert n4 / n1 == pytest.approx(4.0, rel=2e-2)
        assert alpha is not None

    def test_polynomial_ball_norms(self):
        # u = Re (x + iy)^2 = x^2 - y^2; ||u||_{L2(B_r(0, c))}^2 has a closed
        # form by polar integration
        g = Grid(8.0, 2048)
        ys = np.linspace(0.0, 2.0, 513)
        u = (g.x[None, :] ** 2 - ys[:, None] ** 2).astype(complex)
        field = HalfPlaneField(g, ys, u)
        cx, cy, r = 0.0, 1.0, 0.2

        from scipy import integrate as spint

        def integrand(t, rho):
            x = cx + rho * np.cos(t)
            y = cy + rho * np.sin(t)
            return (x * x - y * y) ** 2 * rho

        want, _ = spint.dblquad(integrand, 0, r, 0, 2 * np.pi)
        got = field.ball_norm((cx, cy), r)
        assert got == pytest.approx(math.sqrt(want), rel=5e-3)

    def test_ball_norm_equals_per_level_reference(self):
        field = _poisson_field()
        rng = np.random.default_rng(3)
        balls = [((float(cx), float(cy)), float(cy) / 8.0 * k)
                 for cx, cy in plan_ball_chain(Interval(-2, -1), Interval(1, 2),
                                               0.02).centers
                 for k in (1, 2, 4)]
        balls += [((float(rng.uniform(-3, 3)), float(rng.uniform(0.3, 0.7))),
                   float(rng.uniform(0.01, 0.3))) for _ in range(40)]
        balls += [((0.0, 0.5), 0.125), ((1.0, 0.25), 0.25)]  # on lattice levels
        for center, r in balls:
            assert field.ball_norm(center, r) == _ball_norm_reference(
                field, center, r)

    def test_three_balls_report_equals_per_level_reference(self, monkeypatch):
        field = _poisson_field()
        balls = [((cx, cy), r) for cx in (-2.5, -0.3, 1.5, 2.0)
                 for cy, r in ((0.5, 0.1), (0.45, 0.1125), (0.6, 0.03), (0.8, 0.05))]
        got = [three_balls_report(field, c, r) for c, r in balls]
        monkeypatch.setattr(HalfPlaneField, "ball_norm", _ball_norm_reference)
        assert got == [three_balls_report(field, c, r) for c, r in balls]

    def test_monotone_in_radius(self):
        field = _poisson_field()
        n1, n2, n4, _ = three_balls_report(field, (1.5, 0.5), 0.1)
        assert n1 <= n2 <= n4

    def test_geometry_guard(self):
        field = _poisson_field()
        with pytest.raises(ValueError):
            three_balls_report(field, (1.5, 0.2), 0.1)  # 4r dips below y=0

    @settings(max_examples=60, deadline=None)
    @given(cx=st.floats(-4.0, 4.0), cy=st.floats(0.45, 1.4),
           seed=st.integers(0, 1000))
    def test_alpha_in_unit_interval_random_harmonic(self, cx, cy, seed):
        rng = np.random.default_rng(seed)
        g = Grid(8.0, 256)
        vals = rng.standard_normal(g.n)
        h = SampledFunction(g, vals - np.mean(vals))
        ys = np.linspace(0.0, 2.0, 65)
        field = extend(h, ys)
        r = min(cy / 4.0, 0.1)
        n1, n2, n4, alpha = three_balls_report(field, (cx, cy), r)
        if alpha is not None:
            assert 0.0 < alpha <= 1.0 + 1e-12


class TestStripNorm:
    def test_constant_field(self):
        # |1|^2 over the base's nodes times the strip height, trapezoid-exact
        g = Grid(8.0, 1024)
        field = HalfPlaneField(g, np.linspace(0.0, 1.0, 129), np.ones((129, g.n)))
        base = Interval(-2.0, -1.0)
        nodes = np.count_nonzero(base.contains(g.x))
        assert field.strip_norm(base, 0.5) == pytest.approx(math.sqrt(nodes * g.dx * 0.5),
                                                             rel=1e-14)

    def test_strip_above_the_top_level_raises(self):
        field = _low_poisson_field()
        assert field.strip_norm(Interval(-2.0, -1.0), 0.1) > 0.0
        with pytest.raises(ValueError, match="leaves the sampled levels"):
            field.strip_norm(Interval(-2.0, -1.0), 0.107)

    def test_strip_below_the_lowest_level_raises(self):
        g = Grid(8.0, 256)
        ys = np.linspace(0.5, 1.0, 9)
        field = HalfPlaneField(g, ys, np.ones((9, g.n)))
        with pytest.raises(ValueError, match="leaves the sampled levels"):
            field.strip_norm(Interval(-1.0, 1.0), 0.75)

    def test_strip_under_two_levels_raises(self):
        field = _poisson_field()
        with pytest.raises(ValueError, match="fewer than two y-levels"):
            field.strip_norm(Interval(-2.0, -1.0), 0.5 * float(field.y_levels[1]))


class TestBallChain:
    def test_count_affine_in_log_tau(self):
        taus = [2.0 ** -k for k in range(3, 11)]
        counts = [plan_ball_chain(Interval(-2, -1), Interval(1, 2), t).count
                  for t in taus]
        x = np.log(1.0 / np.array(taus))
        y = np.array(counts, dtype=float)
        A = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        pred = A @ coef
        r2 = 1 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert coef[1] > 0 and r2 >= 0.95

    def test_tau_range_guard(self):
        with pytest.raises(ValueError):
            plan_ball_chain(Interval(-2, -1), Interval(1, 2), 0.7)


class TestPropagateSmallness:
    def test_zero_field(self):
        _, _, rows = smallness_certificate(_zero_field(), Interval(-2, -1), Interval(1, 2),
                                           decades=2.5)
        assert rows and all(r["strip"] == 0.0 and r["chain"] == 0.0 and r["count"] > 0
                            for r in rows)

    def test_disjointness_guard(self):
        field = _poisson_field()
        with pytest.raises(ValueError, match="disjoint closures"):
            smallness_certificate(field, Interval(0.5, 1.5), Interval(1.0, 2.0), decades=2.5)

    def test_certificate_within_10x_of_direct(self):
        field = _poisson_field(n=1024, levels=257)
        I, J = Interval(-2.0, -1.0), Interval(1.0, 2.0)
        tau, bound, rows = smallness_certificate(field, I, J, decades=2.0)
        direct = field.strip_norm(I, 1.0)
        assert bound <= 10.0 * direct
        assert all(r["count"] >= rows[0]["count"] for r in rows)

    @pytest.mark.parametrize("make_field", [_poisson_field, _zero_field,
                                            _low_poisson_field])
    def test_certificate_rows_equal_per_tau_walks(self, make_field):
        field = make_field()
        I, J = Interval(-2.0, -1.0), Interval(1.0, 2.0)
        want = _certificate_reference(field, I, J, 2.5)
        tau, bound, rows = smallness_certificate(field, I, J, decades=2.5)
        assert rows == want
        best = min(want, key=lambda r: r["bound"])
        assert (tau, bound) == (best["tau"], best["bound"])

    @pytest.mark.parametrize("levels", [129, 257])
    def test_certificate_rows_equal_per_level_norms(self, monkeypatch, levels):
        # ball_norm sums a slice of the field's |values|^2 per level and
        # strip_norm gathers from it; both must give the references' bits
        field = _poisson_field(levels=levels)
        I, J = Interval(-2.0, -1.0), Interval(1.0, 2.0)
        got = smallness_certificate(field, I, J, decades=2.0)
        monkeypatch.setattr(HalfPlaneField, "ball_norm", _ball_norm_reference)
        monkeypatch.setattr(HalfPlaneField, "strip_norm", _strip_norm_reference)
        assert got == smallness_certificate(field, I, J, decades=2.0)

    def test_certificate_walks_the_chain_once(self, monkeypatch):
        calls = []
        real = continuation.three_balls_report

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(continuation, "three_balls_report", counted)
        field = _poisson_field()
        _, _, rows = smallness_certificate(field, Interval(-2.0, -1.0),
                                           Interval(1.0, 2.0), decades=2.5)
        assert len(calls) == max(r["count"] for r in rows)
        assert len(set(calls)) == len(calls)

    def test_certificate_plans_one_chain(self, monkeypatch):
        # every tau's count is a prefix length of the longest chain
        taus = []
        real = continuation.plan_ball_chain

        def counted(I, J, tau, **kwargs):
            taus.append(tau)
            return real(I, J, tau, **kwargs)

        monkeypatch.setattr(continuation, "plan_ball_chain", counted)
        _, _, rows = smallness_certificate(_poisson_field(), Interval(-2.0, -1.0),
                                           Interval(1.0, 2.0), decades=2.5)
        assert len(rows) > 1
        assert taus == [rows[-1]["tau"]]


class TestBulkBoundary:
    def test_single_mode_ratios_finite(self):
        g = Grid(np.pi, 512)
        h = SampledFunction(g, np.exp(1j * 4.0 * g.x))
        rep = _bulk_boundary_check(h, Interval(-1.0, 1.0), 0.5, 2.0, 0.5)
        assert rep["boundary_pair"][2] > 0
        assert rep["bulk_pair"][2] > 0

    def test_zero_function(self):
        g = Grid(np.pi, 512)
        h = SampledFunction(g, np.zeros(g.n))
        rep = _bulk_boundary_check(h, Interval(-1.0, 1.0), 0.5, 2.0, 0.5)
        assert rep["boundary_pair"][2] is None
        assert rep["bulk_pair"][2] is None

    def test_family_ratio_regression_baseline(self):
        # 20 bump-derived one-sided functions; baseline fixed at first
        # validated run, later runs must stay within 1.5x
        g = Grid(8.0, 1024)
        worst = 0.0
        for k in range(20):
            base = make_bump(Interval(-1.0 + 0.05 * k, 1.0), 0.0,
                             0.5 + 0.1 * k, g)
            fhat = np.fft.fft(base.values.astype(complex))
            fhat[g.xi < 0] = 0.0
            h = SampledFunction(g, np.fft.ifft(fhat))
            rep = _bulk_boundary_check(h, Interval(-1.0, 1.0), 0.5, 2.0, 0.5)
            if rep["boundary_pair"][2] is not None:
                worst = max(worst, rep["boundary_pair"][2])
        assert worst <= 1.5 * 1.05  # baseline 1.05 from first validated run

    def test_s_range_guard(self):
        g = Grid(np.pi, 512)
        h = SampledFunction(g, np.exp(1j * 4.0 * g.x))
        with pytest.raises(ValueError):
            _bulk_boundary_check(h, Interval(-1.0, 1.0), 0.5, 2.0, 0.3)
