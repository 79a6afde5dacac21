"""Comparison operators for the fractional Laplacian built from branch-cut
symbols, their one-sided spectral splittings, and the support/imaginary-part
defect measurements plus stability experiments that rest on them.

For s in [1/2, 1) the piecewise symbols P_s^j carry the phase e^{-2 s pi i} on
one frequency half-line and |xi|^{2s} on the other.  The differences
h_j = (|D|^{2s} - P_s^j(D)) g then have one-sided spectra, extend analytically
to the upper (j=1) / lower (j=2) half-plane, and satisfy
h_1 + h_2 = (1 - e^{-2 s pi i}) |D|^{2s} g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import multiplier, polyx
from .gridfn import Grid, Interval, SampledFunction, norm
from .reconstruct import StabilityCurve


def _phase_factor(s: float) -> complex:
    return 1.0 - cmath.exp(-2j * s * math.pi)


def _check_s(s: float):
    if not (0.5 <= s < 1.0):
        raise ValueError("s must lie in [1/2, 1)")


@dataclass
class ComparisonPair:
    s: float
    g: SampledFunction
    h1: SampledFunction
    h2: SampledFunction

    def sum_identity_residual(self) -> float:
        """Relative residual of h1 + h2 = (1 - e^{-2 s pi i}) |D|^{2s} g."""
        spec = multiplier.symbol("AbsPow", two_s=2.0 * self.s)
        rhs = _phase_factor(self.s) * multiplier.apply(spec, self.g).values
        num = np.linalg.norm(self.h1.values + self.h2.values - rhs)
        den = np.linalg.norm(rhs)
        return float(num / den) if den > 0 else 0.0


def comparison_pair(g: SampledFunction, s: float) -> ComparisonPair:
    """Build (h1, h2).

    h_j = (|D|^{2s} - P_s^j(D)) g, computed with plain FFT multipliers so the
    sum identity holds to rounding on the grid.  For s = 1/2 the branch-cut
    symbol degenerates: h1 = |D|g - i g', h2 = |D|g + i g'.
    """
    _check_s(s)
    grid = g.grid
    fhat = np.fft.fft(np.asarray(g.values, dtype=complex))
    xi = grid.xi
    mag = np.abs(xi) ** (2.0 * s)
    pf = _phase_factor(s)
    h1_hat = np.where(xi > 0, pf * mag, 0.0) * fhat
    h2_hat = np.where(xi < 0, pf * mag, 0.0) * fhat
    h1 = SampledFunction(grid, np.fft.ifft(h1_hat))
    h2 = SampledFunction(grid, np.fft.ifft(h2_hat))
    return ComparisonPair(s, g, h1, h2)


def _check_side(g: SampledFunction, j: int, J: Interval):
    """Raise unless J lies right (j = 1) or left (j = 2) of supp g."""
    lo, hi, _ = multiplier._support_extent(g.grid, g.values)
    if (J.a < hi) if j == 1 else (J.b > lo):
        raise ValueError(f"branch {j} defect is measured to the "
                         f"{('right', 'left')[j - 1]} of supp g")


def _ratio(vals: np.ndarray, grid: Grid, J: Interval, den: float) -> float:
    """|vals|_{L2(J)} / den, and 0 for den = 0."""
    return float(norm(SampledFunction(grid, vals), "L2", region=J) / den) if den else 0.0


def defects(pair: ComparisonPair, J1: Interval, J2: Interval) -> dict:
    """Support and imaginary-part defects of both branches, from one dealiased
    application each of |D|^{2s} and its odd companion SignPow, which give
    P^j = a_j |D|^{2s} + b_j SignPow (`multiplier.branch_split`).

    support_defect_bj = |P_s^j(D) g|_{L2(J)} / |g|_{L2} and imag_defect_bj =
    |Im h_j|_{L2(J)} / |h_j|_{L2}, both zero in theory and a discretization
    floor in practice (0 for a zero denominator).  Branch 1 preserves supports
    to the left, so it is measured on J2, right of supp g; branch 2 mirrors
    this on J1.  The pair is built with plain FFT symbols; the defects use the
    dealiased operator so the grid's wrap-around tail does not dominate.
    """
    g, s = pair.g, pair.s
    full, odd = (multiplier.apply_dealiased(multiplier.symbol(kind, two_s=2.0 * s), g).values
                 for kind in ("AbsPow", "SignPow"))
    out = {}
    for j, J, h in ((1, J2, pair.h1), (2, J1, pair.h2)):
        _check_side(g, j, J)
        a, b = multiplier.branch_split(multiplier.symbol("BranchCut", two_s=2.0 * s, branch=j))
        Pg = a * full + b * odd
        out[f"support_defect_b{j}"] = _ratio(Pg, g.grid, J, norm(g, "L2"))
        out[f"imag_defect_b{j}"] = _ratio(np.imag(full - Pg), g.grid, J, norm(h, "L2"))
    return out


def poincare_ratio(g: SampledFunction, I: Interval, s: float) -> float:
    """|g|_{L2} / (|I|^s |g|_{Hs-dot}); dilation-invariant."""
    den = I.length ** s * norm(g, "HsDot", s=s)
    return norm(g, "L2") / den if den > 0 else 0.0


def stability_experiment_fraclap(family, s: float, I: Interval,
                                 J1: Interval, J2: Interval) -> StabilityCurve:
    """Exterior-smallness exponent fit for the fractional Laplacian.

    For each member g_k: F_k = |g_k|_{H^{2s}}/|g_k|_{L2} and
    r_k = ||D|^{2s} g_k|_{H^{-s}(J1 u J2)} / |g_k|_{H^{2s}} (smooth-cutoff
    surrogate for the local negative norm).  Fits
    log(1/r) = log C + mu * log F and reports the surrogate exponent mu-hat.
    """
    _check_s(s)
    if len(family) < 4:
        raise ValueError("need at least 4 family members for the fit")
    if not (J1.b <= I.a and I.b <= J2.a):
        raise ValueError("J1 must lie left of I and J2 right of I")
    spec = multiplier.symbol("AbsPow", two_s=2.0 * s)
    grid = family[0].grid
    G = SampledFunction(grid, np.array([g.values for g in family]))
    out = SampledFunction(grid, multiplier.dealiased_rows(spec, grid, G.values))
    hs = norm(G, "Hs", s=2.0 * s)
    F = (hs / norm(G, "L2")).tolist()
    r1, r2 = (norm(out, "HnegS_local", region=J, s=s).tolist() for J in (J1, J2))
    rows = [{"k": k, "F": F[k], "r": math.sqrt(a * a + b * b) / h}
            for k, (a, b, h) in enumerate(zip(r1, r2, hs.tolist()))]
    rows.sort(key=lambda row: row["F"])
    F = np.array([row["F"] for row in rows])
    r = np.array([row["r"] for row in rows])
    c0, c1, r2fit = polyx.linear_fit(np.log(F), np.log(1.0 / r))
    model = {"form": "exp", "C": math.exp(-c0), "exponent": c1, "norms": "surrogate"}
    return StabilityCurve(pairs=list(zip(F.tolist(), r.tolist())),
                          model=model, r_squared=r2fit, rows=rows)


def modulated_family(I: Interval, grid: Grid, ks):
    """g_k = bump * sin(2^k x): the standard increasing-frequency family."""
    from .gridfn import make_bump
    base = make_bump(I, 0.0, 1.0, grid)
    return [SampledFunction(grid, base.values * np.sin(2.0 ** k * grid.x))
            for k in ks]


# --- 2D slice experiment ----------------------------------------------------

_LOCAL_SYMBOLS = ("zero", "neg_dxx1")


def _apply_2d(g2: np.ndarray, grid: Grid, s: float, local: str, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of P(D) g for P = |D_{x2}|^{2s} + L(D_{x1}) applied axis by
    axis with the dealiased 1D operator (axis 0 = x1 rows, axis 1 = x2); the
    first-order mixed-symbol term m(D') is zero."""
    if local not in _LOCAL_SYMBOLS:
        raise ValueError(f"unsupported local symbol {local!r}")
    out = multiplier.dealiased_rows(multiplier.symbol("AbsPow", two_s=2.0 * s), grid, g2[rows])
    if local == "neg_dxx1":
        # local operators have no periodization tail; plain spectral suffices.
        # The transform of a zero column is zero, so only live columns run.
        cols = np.flatnonzero(g2.any(axis=0))
        out[:, cols] += np.fft.ifft((grid.xi ** 2)[:, None] * np.fft.fft(g2[:, cols], axis=0),
                                    axis=0)[rows]
    return out


def slice_experiment_2d(g2: np.ndarray, grid: Grid, s: float, local: str,
                        Q: Interval, I: Interval, J1: Interval, J2: Interval):
    """Per-row (frozen x1) exterior-smallness ratios for the 2D operator.

    g2[i, :] is the x2-profile at x1 = grid.x[i]; rows outside Q are ignored.
    Returns dict with per-row ratios and the aggregate surrogate ratio.
    """
    _check_s(s)
    g2 = np.asarray(g2)
    if g2.shape != (grid.n, grid.n):
        raise ValueError("2D field must be grid.n x grid.n")
    x = grid.x
    q_rows = np.flatnonzero(Q.contains(x))
    prof = SampledFunction(grid, g2[q_rows])
    out = SampledFunction(grid, _apply_2d(g2, grid, s, local, q_rows))
    l2 = norm(prof, "L2").tolist()
    r1, r2 = (norm(out, "HnegS_local", region=J, s=s).tolist() for J in (J1, J2))
    dens = norm(prof, "Hs", s=2.0 * s).tolist()
    rows, total_num, total_den = [], 0.0, 0.0
    for i, l2_i, r1_i, r2_i, den in zip(q_rows.tolist(), l2, r1, r2, dens):
        if l2_i == 0.0:
            continue
        rows.append({"i": i, "x1": float(x[i]), "r": math.sqrt(r1_i * r1_i + r2_i * r2_i) / den})
        total_num += r1_i * r1_i + r2_i * r2_i
        total_den += den * den
    agg = math.sqrt(total_num / total_den) if total_den > 0 else 0.0
    return {"rows": rows, "aggregate": agg, "local": local}
