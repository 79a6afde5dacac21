import math

import numpy as np
import pytest

from nslab import branchcut, multiplier
from nslab.branchcut import (comparison_pair, defects, modulated_family, poincare_ratio,
                             slice_experiment_2d, stability_experiment_fraclap)
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump, norm

I = Interval(-1.0, 1.0)
J_LEFT = Interval(-3.0, -2.0)
J_RIGHT = Interval(2.0, 3.0)


def frequency_content(g: SampledFunction, s: float) -> float:
    """F = |g|_{H^{2s}} / |g|_{L2}, the family-ordering parameter that
    `stability_experiment_fraclap` computes over its stacked members."""
    return norm(g, "Hs", s=2.0 * s) / norm(g, "L2")


class TestComparisonPair:
    @pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9])
    def test_sum_identity_and_spectral_support(self, unit_bump, s):
        pair = comparison_pair(unit_bump, s)
        # the one-sided spectra are checked in test_off_side_energy
        assert pair.sum_identity_residual() <= 1e-10

    def test_zero_input(self, grid):
        z = SampledFunction(grid, np.zeros(grid.n))
        pair = comparison_pair(z, 0.75)
        assert np.all(pair.h1.values == 0) and np.all(pair.h2.values == 0)

    def test_half_s_degenerates_to_hilbert_pair(self, grid, unit_bump):
        # s = 1/2: h1 = |D|g - i g', h2 = |D|g + i g'
        pair = comparison_pair(unit_bump, 0.5)
        fhat = np.fft.fft(unit_bump.values.astype(complex))
        absd = np.fft.ifft(np.abs(grid.xi) * fhat)
        gp = np.fft.ifft(1j * grid.xi * fhat)
        scale = np.max(np.abs(absd))
        assert np.max(np.abs(pair.h1.values - (absd - 1j * gp))) <= 1e-10 * scale
        assert np.max(np.abs(pair.h2.values - (absd + 1j * gp))) <= 1e-10 * scale
        # real/imaginary split: Re h1 = |D|g, Im h1 = -g'
        assert np.max(np.abs(np.real(pair.h1.values) - np.real(absd))) \
            <= 1e-10 * scale
        assert np.max(np.abs(np.imag(pair.h1.values) + np.real(gp))) \
            <= 1e-10 * scale

    def test_off_side_energy(self, unit_bump):
        # h1 (h2) carries at most 1e-10 of its energy on xi < 0 (xi > 0)
        xi = unit_bump.grid.xi
        for s in (0.5, 0.6, 0.75, 0.9):
            pair = comparison_pair(unit_bump, s)
            for h, off in ((pair.h1, xi < 0), (pair.h2, xi > 0)):
                energy = np.abs(np.fft.fft(h.values)) ** 2
                assert np.sum(energy[off]) <= 1e-10 * np.sum(energy), s

    def test_s_out_of_range(self, unit_bump):
        for s in (0.3, 1.0):
            with pytest.raises(ValueError):
                comparison_pair(unit_bump, s)


def _poincare_lower_bound(g, s, I):
    """Computable legs of the lower bound
    |P_s(D) g|_{H^{-s}(I)} >= |1-e^{-2 i s pi}| |g|_{Hs-dot}^2 / |g|_{Hs}.

    Returns (lhs, rhs, duality_rhs) where duality_rhs is the inner-product
    quotient |(P_s(D)g, g)| / |g|_{Hs} that the smooth-cutoff surrogate lhs is
    compared against.
    """
    pf = branchcut._phase_factor(s)
    Pg = SampledFunction(g.grid, pf * multiplier.apply(
        multiplier.symbol("AbsPow", two_s=2.0 * s), g).values)
    lhs = norm(Pg, "HnegS_local", region=I, s=s)
    hs = norm(g, "Hs", s=s)
    rhs = abs(pf) * norm(g, "HsDot", s=s) ** 2 / hs if hs > 0 else 0.0
    ip = abs(np.sum(np.conj(Pg.values) * g.values) * g.grid.dx)
    duality = ip / hs if hs > 0 else 0.0
    return lhs, rhs, duality


class TestSupportDefect:
    @pytest.mark.parametrize("s", [0.6, 0.75])
    def test_small_and_refining(self, s):
        vals = []
        for n in (4096, 8192):
            g = Grid(8.0, n)
            f = make_bump(I, 0.0, 1.0, g)
            vals.append(defects(comparison_pair(f, s), J_LEFT, J_RIGHT)["support_defect_b1"])
        assert vals[0] <= 1e-6
        assert vals[1] <= 0.5 * vals[0]

    def test_branch2_mirror(self, unit_bump):
        d = defects(comparison_pair(unit_bump, 0.75), J_LEFT, J_RIGHT)["support_defect_b2"]
        assert d <= 1e-6

    def test_zero_function(self, grid):
        z = SampledFunction(grid, np.zeros(grid.n))
        d = defects(comparison_pair(z, 0.75), J_LEFT, J_RIGHT)
        assert d["support_defect_b1"] == 0.0 and d["support_defect_b2"] == 0.0

    def test_wrong_side_rejected(self, unit_bump):
        pair = comparison_pair(unit_bump, 0.75)
        with pytest.raises(ValueError, match="branch 1 defect"):
            defects(pair, J_LEFT, J_LEFT)
        with pytest.raises(ValueError, match="branch 2 defect"):
            defects(pair, J_RIGHT, J_RIGHT)


class TestImagDefect:
    @pytest.mark.parametrize("s", [0.6, 0.75])
    def test_small_and_refining(self, s):
        vals = []
        for n in (4096, 8192):
            g = Grid(8.0, n)
            f = make_bump(I, 0.0, 1.0, g)
            vals.append(defects(comparison_pair(f, s), J_LEFT, J_RIGHT)["imag_defect_b1"])
        assert vals[0] <= 1e-6
        assert vals[1] <= 0.5 * vals[0]

    def test_zero_function(self, grid):
        z = SampledFunction(grid, np.zeros(grid.n))
        d = defects(comparison_pair(z, 0.6), J_LEFT, J_RIGHT)
        assert d["imag_defect_b1"] == 0.0 and d["imag_defect_b2"] == 0.0

    def test_wrong_side_rejected(self, unit_bump):
        pair = comparison_pair(unit_bump, 0.6)
        with pytest.raises(ValueError, match="branch 1 defect"):
            defects(pair, J_LEFT, J_LEFT)


class TestDefects:
    def test_wrong_side_rejected(self, unit_bump):
        pair = comparison_pair(unit_bump, 0.6)
        with pytest.raises(ValueError):
            defects(pair, J_RIGHT, J_LEFT)


class TestPoincare:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_ratio_dilation_invariant(self, lam):
        g = Grid(8.0, 4096)
        gl = Grid(8.0 / lam, 4096)
        f = make_bump(I, 0.0, 1.0, g)
        fl = SampledFunction(gl, f.values)
        Il = Interval(I.a / lam, I.b / lam)
        r = poincare_ratio(f, I, 0.5)
        rl = poincare_ratio(fl, Il, 0.5)
        assert rl == pytest.approx(r, rel=1e-8)

    def test_bounded_over_bump_family(self, grid):
        ratios = [poincare_ratio(make_bump(I, 0.0, sh, grid), I, 0.5)
                  for sh in (0.5, 1.0, 2.0, 4.0)]
        assert max(ratios) <= 2.0  # recorded family constant

    def test_lower_bound_chain(self, grid):
        for k in range(2, 9):
            base = make_bump(I, 0.0, 1.0, grid)
            g = SampledFunction(grid, base.values * np.sin(2.0 ** k * grid.x))
            lhs, rhs, dual = _poincare_lower_bound(g, 0.75, I)
            # surrogate local norm must dominate the duality quotient, which
            # in turn dominates the homogeneous-energy bound
            assert lhs >= dual * (1.0 - 1e-9)
            assert dual >= rhs * (1.0 - 1e-9)


class TestStabilityExperiment:
    def test_modulated_family_curve(self, grid):
        fam = modulated_family(I, grid, range(2, 9))
        curve = stability_experiment_fraclap(fam, 0.75, I,
                                             Interval(-3.0, -1.5),
                                             Interval(1.5, 3.0))
        rs = [row["r"] for row in curve.rows]
        assert all(b < a for a, b in zip(rs, rs[1:]))  # strictly decreasing
        assert curve.model["exponent"] > 0
        assert curve.model["norms"] == "surrogate"

    def test_family_ordered_by_frequency_content(self, grid):
        fam = modulated_family(I, grid, range(2, 9))
        Fs = [frequency_content(g, 0.75) for g in fam]
        assert all(b > a for a, b in zip(Fs, Fs[1:]))

    def test_single_element_family_rejected(self, grid, unit_bump):
        with pytest.raises(ValueError):
            stability_experiment_fraclap([unit_bump], 0.75, I,
                                         Interval(-3.0, -1.5),
                                         Interval(1.5, 3.0))


class Test2DSlices:
    def _field(self, grid, axis_profile):
        row = make_bump(Interval(-0.8, 0.8), 0.0, 1.0, grid).values
        col = axis_profile
        return np.outer(col, row)

    def test_zero_local_term_reduces_to_1d(self):
        g = Grid(8.0, 256)
        prof = make_bump(Interval(-0.5, 0.5), 0.0, 1.0, g).values
        g2 = self._field(g, prof)
        J1, J2 = Interval(-3.0, -1.5), Interval(1.5, 3.0)
        rep = slice_experiment_2d(g2, g, 0.75, "zero", Interval(-0.5, 0.5),
                                  Interval(-0.8, 0.8), J1, J2)
        # every slice is a multiple of the same profile; its ratio must match
        # the directly computed 1D ratio
        from nslab import multiplier
        from nslab.gridfn import norm as gnorm
        row = SampledFunction(g, self._field(g, prof)[128])
        out = multiplier.apply_dealiased(
            multiplier.symbol("AbsPow", two_s=1.5), row)
        r1 = gnorm(out, "HnegS_local", region=J1, s=0.75)
        r2 = gnorm(out, "HnegS_local", region=J2, s=0.75)
        want = math.sqrt(r1 ** 2 + r2 ** 2) / gnorm(row, "Hs", s=1.5)
        got = [r["r"] for r in rep["rows"] if r["i"] == 128][0]
        assert got == pytest.approx(want, abs=1e-8)

    def test_local_term_vanishes_off_support(self):
        # the derivative term is local, so away from the x1-support the full
        # operator coincides with the fractional part alone; needs enough
        # resolution for the spectral tail of the profile to clear 1e-8
        g = Grid(8.0, 2048)
        prof = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values
        g2 = np.outer(prof, prof)
        local = np.fft.ifft((g.xi ** 2)[:, None] * np.fft.fft(
            g2.astype(complex), axis=0), axis=0)
        far = np.abs(g.x) > 1.5
        scale = np.max(np.abs(local))
        assert np.max(np.abs(local[far])) <= 1e-8 * scale

    def test_local_term_matches_full_array_reference(self, monkeypatch):
        # the x1 term transforms only live columns and only Q's rows go through
        # the dealiased route; the reference runs every row and every column
        def full_apply_2d(g2, grid, s, local, rows):
            out = multiplier.dealiased_rows(multiplier.symbol("AbsPow", two_s=2.0 * s), grid, g2)
            out += np.fft.ifft((grid.xi ** 2)[:, None] * np.fft.fft(g2, axis=0), axis=0)
            return out[rows]

        g = Grid(8.0, 256)
        # zero rows past x1 = 1.2 (some inside Q) and zero columns outside
        # x2 in (-0.8, 0.8) u (1.6, 2.9); the second term puts x1-curvature on J2
        g2 = (np.outer(make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values,
                       make_bump(Interval(-0.8, 0.8), 0.0, 1.0, g).values)
              + np.outer(make_bump(Interval(-0.3, 1.2), 0.0, 1.0, g).values,
                         make_bump(Interval(1.6, 2.9), 0.0, 1.0, g).values))
        args = (g, 0.75, "neg_dxx1", Interval(-0.5, 1.5), Interval(-0.8, 0.8),
                Interval(-3.0, -1.5), Interval(1.5, 3.0))
        got = slice_experiment_2d(g2, *args)
        zero = slice_experiment_2d(g2, g, 0.75, "zero", *args[3:])
        assert abs(got["aggregate"] - zero["aggregate"]) > 1e-3 * zero["aggregate"]
        monkeypatch.setattr(branchcut, "_apply_2d", full_apply_2d)
        want = slice_experiment_2d(g2, *args)
        assert [(r["i"], r["x1"]) for r in got["rows"]] == [(r["i"], r["x1"]) for r in want["rows"]]
        assert len(got["rows"]) < int(np.sum(Interval(-0.5, 1.5).contains(g.x)))
        for a, b in zip(got["rows"], want["rows"]):
            assert a["r"] == pytest.approx(b["r"], rel=1e-15, abs=0.0)
        assert got["aggregate"] == pytest.approx(want["aggregate"], rel=1e-15, abs=0.0)

    def test_zero_field(self):
        g = Grid(8.0, 256)
        rep = slice_experiment_2d(np.zeros((g.n, g.n)), g, 0.75, "zero",
                                  Interval(-0.5, 0.5), Interval(-0.8, 0.8),
                                  Interval(-3.0, -1.5), Interval(1.5, 3.0))
        assert rep["aggregate"] == 0.0 and rep["rows"] == []

    def test_nonzero_mixed_symbol_rejected(self):
        g = Grid(8.0, 256)
        with pytest.raises(ValueError):
            slice_experiment_2d(np.zeros((g.n, g.n)), g, 0.75, "shift",
                                Interval(-0.5, 0.5), Interval(-0.8, 0.8),
                                Interval(-3.0, -1.5), Interval(1.5, 3.0))
