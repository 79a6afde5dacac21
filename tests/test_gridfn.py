import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab import multiplier
from nslab.gridfn import (Grid, Interval, SampledFunction, _interval_samples,
                          make_bump, norm)


def integrate(f: SampledFunction, region: Interval):
    """Trapezoid-rule integral of f over the interval (endpoints interpolated)."""
    xs, vs = _interval_samples(f, region)
    return np.trapezoid(vs, xs)


def forward_fft(f: SampledFunction) -> np.ndarray:
    """Samples of (F f)(xi_k): continuum-normalized DFT with grid phase."""
    g = f.grid
    return g.dx * np.fft.fft(f.values) * np.exp(1j * g.L * g.xi)


def inverse_fft(grid: Grid, fhat: np.ndarray) -> SampledFunction:
    vals = np.fft.ifft(fhat * np.exp(-1j * grid.L * grid.xi)) / grid.dx
    return SampledFunction(grid, vals)


class TestGrid:
    def test_spacing_identity(self):
        g = Grid(8.0, 4096)
        assert g.dx * g.n == pytest.approx(16.0)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(8.0, 1000)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(8.0, 4)

    def test_frequency_grid_is_fft_dual(self):
        g = Grid(8.0, 64)
        assert np.allclose(g.xi, 2 * np.pi * np.fft.fftfreq(g.n, g.dx))


class TestMakeBump:
    def test_exact_zero_outside_support(self):
        g = Grid(8.0, 4096)
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, g)
        outside = (g.x <= 0.0) | (g.x >= 1.0)
        assert np.all(f.values[outside] == 0.0)

    def test_midpoint_value(self):
        g = Grid(8.0, 4096)
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
        mid = np.argmin(np.abs(g.x))
        assert f.values[mid] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_l2_norm_against_adaptive_quadrature(self, monkeypatch):
        monkeypatch.setattr(multiplier, "_RTOL", 1e-13)
        g = Grid(8.0, 4096)
        I = Interval(-1.0, 1.0)
        f = make_bump(I, 0.0, 1.0, g)
        val = multiplier.adaptive_gauss(
            lambda t: np.exp(-2.0 / np.clip(1 - t * t, 1e-300, None))
            * (np.abs(t) < 1), -1.0, 1.0)
        assert norm(f, "L2", region=I) == pytest.approx(
            math.sqrt(float(np.real(val))), rel=1e-10)

    def test_support_outside_grid_rejected(self):
        g = Grid(2.0, 64)
        with pytest.raises(ValueError):
            make_bump(Interval(1.0, 3.0), 0.0, 1.0, g)

    def test_nonnegative_and_symmetric(self):
        g = Grid(8.0, 4096)
        f = make_bump(Interval(-1.0, 1.0), 0.0, 2.0, g)
        assert np.all(f.values >= 0)
        # grid point x[k] mirrors to x[n-k] about the center 0
        v = f.values
        assert np.max(np.abs(v[1:] - v[1:][::-1])) <= 1e-14 * np.max(v)


class TestNorm:
    def test_indicator_l2(self):
        g = Grid(8.0, 4096)
        vals = ((g.x >= 0) & (g.x <= 1)).astype(float)
        f = SampledFunction(g, vals)
        assert norm(f, "L2", region=Interval(0.0, 1.0)) == pytest.approx(1.0, abs=2e-2)

    def test_fourier_mode_homogeneous_norm(self):
        g = Grid(np.pi, 256)
        k = 5.0
        f = SampledFunction(g, np.sin(k * g.x))
        for s in (0.5, 1.0, -0.5):
            assert norm(f, "HsDot", s=s) == pytest.approx(
                k ** s * norm(f, "L2"), rel=1e-10)

    def test_h1_matches_spectral_derivative(self):
        g = Grid(8.0, 4096)
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, g)
        fhat = np.fft.fft(f.values.astype(complex))
        fp = SampledFunction(g, np.fft.ifft(1j * g.xi * fhat))
        expect = math.sqrt(norm(f, "L2") ** 2 + norm(fp, "L2") ** 2)
        assert norm(f, "Hs", s=1.0) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("space", ["Hs", "HsDot"])
    def test_hs_region_rejected(self, space):
        # a full-line norm takes no region, even for f vanishing outside it
        g = Grid(8.0, 4096)
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, g)
        with pytest.raises(ValueError, match=f"{space} is a full-line norm and takes no region"):
            norm(f, space, region=Interval(0.0, 1.0), s=0.5)

    def test_negative_norm_surrogate_below_l2(self):
        g = Grid(8.0, 4096)
        f = make_bump(Interval(0.0, 1.0), 0.0, 1.0, g)
        assert norm(f, "HnegS_local", region=Interval(0.0, 1.0), s=0.5) \
            <= 1.5 * norm(f, "L2")


class TestStackedNorm:
    GRID = Grid(8.0, 512)

    def _rows(self):
        # zero-mean rows (so every HsDot order applies), one of them complex,
        # and a zero row
        g = self.GRID
        bump = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values
        rows = np.array([bump * np.sin(k * g.x) for k in (1.0, 3.0, 7.0)] + [0 * bump],
                        dtype=complex)
        rows[1] *= 1.0 - 2.0j
        return rows - rows.mean(axis=1, keepdims=True)

    @pytest.mark.parametrize("space, kw", [
        ("L2", {}), ("Hs", {"s": 1.5}), ("Hs", {"s": -0.75}), ("HsDot", {"s": 0.5}),
        ("HsDot", {"s": -0.5}), ("HnegS_local", {"region": Interval(-2.0, 0.5), "s": 0.75})])
    @pytest.mark.parametrize("real", [False, True])
    def test_equals_row_norms_bit_for_bit(self, space, kw, real):
        rows = self._rows().real.copy() if real else self._rows()
        got = norm(SampledFunction(self.GRID, rows), space, **kw)
        assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
        assert got.tolist() == [norm(SampledFunction(self.GRID, r), space, **kw) for r in rows]
        assert isinstance(norm(SampledFunction(self.GRID, rows[0]), space, **kw), float)

    def test_shape_and_mean_checks(self):
        g = self.GRID
        with pytest.raises(ValueError, match="grid size"):
            SampledFunction(g, np.zeros((3, g.n // 2)))
        with pytest.raises(ValueError, match="grid size"):
            SampledFunction(g, np.zeros((2, 3, g.n)))
        rows = self._rows()
        rows[2] += 1e-3   # one row with nonzero mean
        with pytest.raises(ValueError, match="nonzero-mean"):
            norm(SampledFunction(g, rows), "HsDot", s=-0.5)
        with pytest.raises(ValueError, match="one row"):
            norm(SampledFunction(g, rows), "L2", region=Interval(-1.0, 1.0))


class TestIntegrate:
    def test_constant(self):
        g = Grid(8.0, 4096)
        f = SampledFunction(g, np.ones(g.n))
        assert complex(integrate(f, Interval(0.0, 1.0))).real == pytest.approx(
            1.0, abs=1e-2)

    def test_bump_against_quadrature(self, monkeypatch):
        monkeypatch.setattr(multiplier, "_RTOL", 1e-13)
        g = Grid(8.0, 4096)
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
        val = multiplier.adaptive_gauss(
            lambda t: np.exp(-1.0 / np.clip(1 - t * t, 1e-300, None))
            * (np.abs(t) < 1), -1.0, 1.0)
        assert complex(integrate(f, Interval(-1.0, 1.0))).real == pytest.approx(
            float(np.real(val)), rel=1e-8)

    def test_odd_function_symmetric_region(self):
        g = Grid(8.0, 4096)
        f = SampledFunction(g, g.x * np.exp(-g.x ** 2))
        assert abs(complex(integrate(f, Interval(-2.0, 2.0)))) <= 1e-14


class TestFFTRoundtrip:
    def test_roundtrip_and_parseval(self, unit_bump):
        f = unit_bump
        back = inverse_fft(f.grid, forward_fft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(
            np.abs(f.values))
        fhat = np.fft.fft(f.values.astype(complex))
        parseval = math.sqrt(float(np.sum(np.abs(fhat) ** 2)) / f.grid.n
                             * f.grid.dx)
        assert parseval == pytest.approx(norm(f, "L2"), rel=1e-12)


class TestDilationCovariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_l2_and_homogeneous_scaling(self, lam):
        g = Grid(8.0, 4096)
        gl = Grid(8.0 / lam, 4096)
        f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
        fl = SampledFunction(gl, make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g).values)
        # f_lam(x) = f(lam x) on the rescaled grid: same samples, new spacing
        assert norm(fl, "L2") == pytest.approx(
            lam ** -0.5 * norm(f, "L2"), rel=1e-6)
        s = 0.5
        assert norm(fl, "HsDot", s=s) == pytest.approx(
            lam ** (s - 0.5) * norm(f, "HsDot", s=s), rel=1e-6)


class TestBumpRegularity:
    def test_derivatives_bounded_under_refinement(self):
        sups = []
        for n in (2048, 4096):
            g = Grid(8.0, n)
            f = make_bump(Interval(-1.0, 1.0), 0.0, 1.0, g)
            v = f.values
            for k in range(1, 5):
                v = np.gradient(v, g.dx)
            sups.append(np.max(np.abs(v)))
        assert sups[1] <= 4.0 * sups[0] + 1.0


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 1.0), width=st.floats(0.3, 2.0),
       sharp=st.floats(0.3, 4.0))
def test_bump_l2_positive_and_supported(a, width, sharp):
    g = Grid(8.0, 1024)
    I = Interval(a, a + width)
    f = make_bump(I, 0.0, sharp, g)
    assert norm(f, "L2") > 0
    outside = ~I.contains(g.x)
    assert np.all(f.values[outside] == 0.0)
