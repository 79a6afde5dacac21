"""Moment recovery from remote operator data and log-stability sweeps.

Away from the source interval the four nonlocal operators treated here admit
convergent expansions whose coefficients are the monomial moments of the
source.  Fitting those expansions to samples taken on a far region J gives
the source's coefficients in the orthonormal Legendre basis of I.  The
inversion is severely ill-posed, so the least squares runs in extended
precision and the truncation order N acts as the regularizer, chosen by the
discrepancy principle under noise.  Its one entry is `stability_sweep`, which
builds one design for its fixed sample geometry (`_design`); per noise draw,
the selection (`_select`) and the fit (`_fit`) read one projection of the data
on it (`_project`).

The fit is set in the Legendre basis: the k-th design column is the operator
applied to the k-th orthonormal Legendre mode G_k of I, i.e. int_I G_k(y)
kernel(x, y) dy, with the far-field kernel summed in closed form:
|x - y|^beta up to a factor for the three singular operators, e^(lambda x y)
for FourierLaplace.  No quadrature rule computes it: each column is a
closed-form factor times int_{-1}^1 P_k(t) kappa(z, t) dt, a three-term
recurrence in k for |z - t|^beta and a 0F1 series for e^(wt) (see
`_design`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import multiplier, polyx
from .gridfn import Interval, SampledFunction, norm
from .moments import PrecisionConfig

OPERATOR_KINDS = ("Hilbert", "ModifiedHilbert", "RieszInverse", "FourierLaplace")

_SYMBOL_OF = {
    "Hilbert": lambda d: multiplier.symbol("HilbertSign"),
    "ModifiedHilbert": lambda d: multiplier.symbol("ModifiedCoth", delta=d.delta),
    "RieszInverse": lambda d: multiplier.symbol("RieszInverse", alpha=d.alpha),
    "FourierLaplace": lambda d: multiplier.symbol("FourierLaplace", alpha=d.alpha, beta=d.beta),
}


@dataclass(frozen=True)
class RemoteData:
    """Samples of one nonlocal operator applied to an unknown source on I.

    kind: one of OPERATOR_KINDS; `source` is the interval I carrying the
    unknown; `points` lie in the measurement region (complex allowed for
    FourierLaplace).
    """

    kind: str
    source: Interval
    points: np.ndarray
    values: np.ndarray
    delta: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "points", np.atleast_1d(np.asarray(self.points)))
        vals = np.atleast_1d(np.asarray(self.values))
        if vals.dtype != object:  # object arrays keep extended-precision values
            vals = vals.astype(complex)
        object.__setattr__(self, "values", vals)
        if self.points.shape != self.values.shape:
            raise ValueError("points and values must have matching shapes")
        if self.kind == "ModifiedHilbert" and (self.delta is None or self.delta <= 0):
            raise ValueError("ModifiedHilbert requires delta > 0")
        if self.kind == "RieszInverse" and (self.alpha is None or not 0 < self.alpha < 1):
            raise ValueError("RieszInverse requires alpha in (0,1)")
        if self.kind == "FourierLaplace" and (self.alpha is None or self.beta is None):
            raise ValueError("FourierLaplace requires alpha and beta")
        if self.kind != "FourierLaplace":
            # sample points must avoid the closed source interval (the kernels
            # are singular there); the entire-kernel case has no such constraint
            pts = self.points.real
            if np.any((pts >= self.source.a) & (pts <= self.source.b)):
                raise ValueError("sample points must avoid the closed source interval")


def sample_remote(kind: str, f: SampledFunction, I: Interval, J: Interval,
                  num: int = 64, **params) -> RemoteData:
    """Clean quadrature-oracle samples of the operator on `num` equispaced
    points of J; `stability_sweep` adds its seeded noise to them."""
    if num < 2:
        raise ValueError("need at least two sample points")
    pts = np.linspace(J.a, J.b, num)
    data = RemoteData(kind, I, pts, np.zeros(num, dtype=complex), **params)
    vals = multiplier.oracle_quadrature(_SYMBOL_OF[kind](data), f, I, pts)
    return replace(data, values=vals)


# ---------------------------------------------------------------------------
# Change of variable
# ---------------------------------------------------------------------------

def tilde_variable(x, delta: float):
    """x-tilde = (e^{2 pi delta x} - 1) / (2 pi delta), the exponential change
    of variable under which the coth kernel becomes a Cauchy kernel."""
    x = np.asarray(x, dtype=float)
    return np.expm1(2.0 * np.pi * delta * x) / (2.0 * np.pi * delta)


def _tilde_interval(I: Interval, delta: float) -> Interval:
    a, b = tilde_variable([I.a, I.b], delta)
    return Interval(float(a), float(b))


# ---------------------------------------------------------------------------
# Extended-precision least squares
# ---------------------------------------------------------------------------

def _mp_vec(a):
    out = []
    for v in np.atleast_1d(a):
        if not isinstance(v, (mp.mpf, mp.mpc)):
            v = complex(v)
            v = mp.mpc(v) if v.imag != 0 else mp.mpf(v.real)
        out.append(v)
    return out


def _vdot(a, b):
    """sum conj(a_i) b_i."""
    return mp.fdot(b, a, conjugate=True)


def _mgs_qr(cols, bits: int):
    """Modified Gram-Schmidt QR of a column list, stopped before the first
    numerically dependent column: the factors cover the independent leading
    columns, and only a reader of a column past them raises (`_Design.read`)."""
    with mp.workprec(bits):
        qs, R = [], []
        for a in cols:
            v = list(a)
            rk = []
            for q in qs:
                c = _vdot(q, v)
                rk.append(c)
                v = [vi - c * qi for vi, qi in zip(v, q)]
            nrm = mp.sqrt(_vdot(v, v).real)
            if nrm < mp.sqrt(_vdot(a, a).real) * mp.mpf(2) ** (-(bits - 16)):
                break
            qs.append([vi / nrm for vi in v])
            R.append(rk + [nrm])
        return qs, R


def _power_integrals(z, beta, N: int):
    """f_k(z) = int_{-1}^1 P_k(t) |z - t|^beta dt, k <= N, |z| > 1: closed-form
    f_0 and f_1, then (k+beta+2) f_{k+1} = (2k+1) z f_k - (k-beta-1) f_{k-1}
    and f_k(-z) = (-1)^k f_k(z).  f_k is the recurrence's minimal solution,
    so the caller supplies the 2N log2(z + sqrt(z^2 - 1)) bits it loses."""
    s, z = (1, z) if z > 0 else (-1, -z)
    if beta == -1:  # f_k = 2 Q_k(z)
        f = [mp.log((z + 1) / (z - 1))]
        f.append(z * f[0] - 2)
    else:
        f = [((z + 1) ** (beta + 1) - (z - 1) ** (beta + 1)) / (beta + 1)]
        f.append(z * f[0] - ((z + 1) ** (beta + 2) - (z - 1) ** (beta + 2)) / (beta + 2))
    for k in range(1, N):
        f.append(((2 * k + 1) * z * f[k] - (k - beta - 1) * f[k - 1]) / (k + beta + 2))
    return [s ** k * v for k, v in enumerate(f[:N + 1])]


def _power_closed_form(z, beta, N: int):
    """f_N(z) of `_power_integrals`, |z| > 1, without the recurrence: N
    integrations by parts of Rodrigues' formula and the binomial series of
    (1 - t/z)^(beta-N) give sgn(z)^N (-beta)_N / (2^N N!) |z|^(beta-N)
    B(1/2, N+1) 2F1((N-beta)/2, (N-beta+1)/2; N+3/2; 1/z^2), a series whose
    terms after the first share one sign (2 Q_N(z) at beta = -1, DLMF 14.3)."""
    beta, s, z = mp.mpf(beta), mp.sign(z) ** N, abs(z)
    return (s * mp.rf(-beta, N) / (2 ** N * mp.factorial(N)) * z ** (beta - N)
            * mp.beta(mp.mpf(1) / 2, N + 1)
            * mp.hyp2f1((N - beta) / 2, (N - beta + 1) / 2, N + mp.mpf(3) / 2, 1 / z ** 2))


def _exp_integrals(w, N: int):
    """f_k(w) = int_{-1}^1 P_k(t) e^(wt) dt = 2 w^k/(2k+1)!! 0F1(; k+3/2; w^2/4),
    k <= N: the Taylor series with the exact int P_k t^m, which `mp.hyp0f1`
    sums to working precision, with bits added for its cancellation."""
    return [2 * w ** k / mp.fac2(2 * k + 1) * mp.hyp0f1(k + mp.mpf(3) / 2, w * w / 4)
            for k in range(N + 1)]


# bits a design carries past `bits`: rounding of the closed forms and of
# z = (x - c)/h, and the polynomial factors of the recurrence's growth
_GUARD_BITS = 32

# extra fit columns beyond the reported order (tail-absorption buffer); each
# is kept only while its orthogonalized data coefficient clears the noise gate
_FIT_BUFFER = 8
_BUFFER_GATE = 3.0


class _Design(NamedTuple):
    """The QR-factored design of one sample geometry (`_design`)."""
    itv: Interval    # the source interval in the fit variable
    order: int       # the design's order M
    qs: list         # MGS orthonormal columns
    R: list          # MGS R factor, one row per independent leading column
    scale: float     # data to fit units: -c_alpha for RieszInverse, else 1
    bits: int

    def read(self, k: int):
        """The rank gate: a reader of columns 0..k needs each independent."""
        if k >= len(self.R):
            raise ArithmeticError(f"design matrix numerically rank-deficient at column "
                                  f"{len(self.R)}; increase precision or reduce N")


def _design(data: RemoteData, N: int, bits: int) -> _Design:
    """The design of the sample points of `data`, factored by `_mgs_qr`, which
    stops before the first dependent column.  Its order M = min(N +
    _FIT_BUFFER, m//2 - 1) serves every fit up to order N, as MGS works column
    by column; ModifiedHilbert fits in the tilde variable.

    For I = [c - h, c + h] (in the fit variable) and z = (x - c)/h, column k
    at x is sqrt((2k+1)/(2h)) f_k times: Hilbert sign(z)/pi, f_k from
    `_power_integrals` at beta = -1; ModifiedHilbert the same times
    1 + 2 pi delta x, less delta int_I G_0 = delta sqrt(2h) for k = 0;
    RieszInverse h^(2a), beta = 2a - 1; FourierLaplace h e^(lambda x c), f_k
    from `_exp_integrals` at w = lambda x h.  The power kernels need |z| > 1
    at every point.  At the sample point that loses most bits, column M must
    match an independent value to 2^-(bits-64) of its size, else
    ArithmeticError.  For the three power kernels that value is
    `_power_closed_form` at bits + 16, which catches the recurrence losing
    precision; FourierLaplace's is `mp.quad` of G_M e^(lambda x y), with bits
    added for the integrand's mass, at most sqrt(2h) max_I |e^(lambda x y)| by
    Cauchy-Schwarz.  RieszInverse data are scaled by -c_alpha into the units
    of the fit, as the grid operator carries the Riesz-potential constant and
    the design the bare kernel -|x-y|^{2a-1}.
    """
    kind, delta, alpha, beta = data.kind, data.delta, data.alpha, data.beta
    m = data.points.size
    if m < 2 * (N + 1):
        raise ValueError(f"need at least {2 * (N + 1)} samples for N={N}, got {m}")
    M = min(N + _FIT_BUFFER, m // 2 - 1)
    if kind == "ModifiedHilbert":
        pts = tilde_variable(data.points.real, delta)
        itv = _tilde_interval(data.source, delta)
    else:
        pts, itv = data.points, data.source
    if kind == "FourierLaplace":
        i0, loss = int(np.argmax(np.abs(pts))), 0
    else:
        # the float64 tilde map can put a point just off I onto its end
        if np.any((pts.real >= itv.a) & (pts.real <= itv.b)):
            raise ValueError("sample points must lie off the source interval in the "
                             "variable of the fit (|z| > 1)")
        z_abs = np.abs(pts.real - itv.center) / (0.5 * itv.length)
        i0 = int(np.argmax(z_abs))
        loss = 2 * M * math.log2(z_abs[i0] + math.sqrt(z_abs[i0] ** 2 - 1))
    with mp.workprec(bits + _GUARD_BITS + math.ceil(loss)):
        c = (mp.mpf(itv.a) + itv.b) / 2
        h = (mp.mpf(itv.b) - itv.a) / 2
        xs = _mp_vec(pts)
        if kind == "FourierLaplace":
            lam = mp.mpc(alpha, beta)
            f = [_exp_integrals(lam * x * h, M) for x in xs]
            factor = [h * mp.exp(lam * x * c) for x in xs]
        else:
            power = 2 * mp.mpf(alpha) - 1 if kind == "RieszInverse" else -1
            zs = [(x - c) / h for x in xs]
            f = [_power_integrals(z, power, M) for z in zs]
            if kind == "RieszInverse":
                factor = [h ** (2 * mp.mpf(alpha))] * len(xs)
            else:
                factor = [mp.sign(x - c) / mp.pi for x in xs]
            if kind == "ModifiedHilbert":
                factor = [(1 + 2 * mp.pi * delta * x) * s for x, s in zip(xs, factor)]
        cols = [[mp.sqrt((2 * k + 1) / (2 * h)) * s * fx[k] for s, fx in zip(factor, f)]
                for k in range(M + 1)]
        if kind == "ModifiedHilbert":
            cols[0] = [v - delta * mp.sqrt(2 * h) for v in cols[0]]
        col = cols[M][i0]
        if kind == "FourierLaplace":
            mass = mp.sqrt(2 * h) * max(abs(mp.exp(lam * xs[i0] * y))
                                        for y in (mp.mpf(itv.a), mp.mpf(itv.b)))
            extra = max(0, mp.mag(mass) - mp.mag(col)) if col else 0
    if kind == "FourierLaplace":
        check = "quadrature"
        with mp.workprec(bits + extra):
            ref = mp.quad(lambda y: mp.sqrt((2 * M + 1) / (2 * h)) * mp.legendre(M, (y - c) / h)
                          * mp.exp(lam * xs[i0] * y), [itv.a, itv.b])
    else:
        check = "closed-form"
        with mp.workprec(bits + 16):
            ref = mp.sqrt((2 * M + 1) / (2 * h)) * factor[i0] * _power_closed_form(zs[i0], power, M)
            if kind == "ModifiedHilbert" and M == 0:
                ref -= delta * mp.sqrt(2 * h)
    gap = abs(col - ref)
    if gap > mp.ldexp(abs(col), -(bits - 64)):
        raise ArithmeticError(f"{kind} design column {M} misses its {check} check by "
                              f"{float(gap):.3g} (column {float(abs(col)):.3g})")
    scale = -multiplier.riesz_constant(alpha) if kind == "RieszInverse" else 1.0
    return _Design(itv, M, *_mgs_qr(cols, bits), scale, bits)


class _Path(NamedTuple):
    """One data set projected on one design (`_project`)."""
    design: _Design
    rhs: list        # data coefficients on the orthonormal columns
    residuals: list  # residuals[k]: the data norm left after columns 0..k
    noise: float     # the noise std-dev in the units of the fit
    floor: float     # the quadrature/float64 roundoff even "clean" samples carry


def _project(design: _Design, values, noise: float) -> _Path:
    """`values`, sampled at the design's points with additive noise of std-dev
    `noise` (0 for clean data), projected on its orthonormal columns."""
    # a unit scale leaves extended-precision (object) values unrounded
    vals = values if design.scale == 1.0 else design.scale * values
    bres, rhs, residuals = _mp_vec(vals), [], []
    with mp.workprec(design.bits):
        for q in design.qs:
            c = _vdot(q, bres)
            rhs.append(c)
            bres = [bi - c * qi for bi, qi in zip(bres, q)]
            residuals.append(float(mp.sqrt(_vdot(bres, bres).real)))
    floor = 1e-8 * float(np.max(np.abs(vals)))
    return _Path(design, rhs, residuals, abs(design.scale) * noise, floor)


def _fit(path: _Path, N: int):
    """The far-field fit at order N from a path of order >= N: its Legendre
    coefficients a_0..a_N (the source is sum_k a_k G_k on I, in the fit
    variable), the fit interval and the fit residual at order N."""
    # fit a few modes beyond N: the extra columns absorb the source's higher
    # modes, which would otherwise alias O(1) errors into the top reported
    # coefficients (the buffer modes themselves are discarded)
    d = path.design
    M_fit = min(N + _FIT_BUFFER, d.order)
    d.read(M_fit)
    # keep a buffer column only while its data coefficient clears the noise
    # gate: below it the column fits noise, and its amplified junk coefficient
    # would leak into the reported modes through back substitution
    gate = _BUFFER_GATE * max(path.noise, path.floor)
    M_use = N
    while M_use < M_fit and abs(path.rhs[M_use + 1]) > gate:
        M_use += 1
    with mp.workprec(d.bits):
        x = [mp.mpf(0)] * (M_use + 1)
        for i in range(M_use, -1, -1):
            s = path.rhs[i]
            for l in range(i + 1, M_use + 1):
                s -= d.R[l][i] * x[l]
            x[i] = s / d.R[i][i]
    return x[:N + 1], d.itv, path.residuals[N]


def _select(path: _Path, N_max: int, tau: float) -> int:
    """Discrepancy principle: the largest N <= N_max whose fit residual stays
    at or above the noise floor tau * delta * sqrt(#samples) (ties broken
    toward smaller N), with delta in the units of the fit (`_project`).

    tau > 1 is the usual safety factor: without it, noise draws whose norm
    exceeds its expectation never cross the floor and the selection runs away
    to N_max with exponentially amplified error.
    """
    path.design.read(N_max)
    floor = tau * path.noise * math.sqrt(len(path.design.qs[0]))
    # residuals are nonincreasing until noise takes over; stop at the first
    # crossing below the floor so later chance fluctuations cannot inflate N
    best = 0
    for k, r in enumerate(path.residuals[:N_max + 1]):
        if r < floor:
            break
        best = k
    return best


def _on_grid(data: RemoteData, fit, truth: SampledFunction):
    """(sum_{k<=N} Re(a_k) G_k of a `_fit` result on the grid points in I of
    `truth`, its relative L2(I) error against `truth`): G_k = sqrt((2k+1)/L)
    P_k((2x - a - b)/L) on the fit interval (a, b), summed by `legval`, in the
    tilde variable and times e^{2 pi delta x} for ModifiedHilbert."""
    a, itv, _ = fit
    I, grid = data.source, truth.grid
    inside = I.contains(grid.x)
    xs = grid.x[inside]
    t = tilde_variable(xs, data.delta) if data.kind == "ModifiedHilbert" else xs
    c = np.array([float(mp.re(v)) for v in a]) * np.sqrt((2 * np.arange(len(a)) + 1) / itv.length)
    vals = np.zeros(grid.n)
    vals[inside] = np.polynomial.legendre.legval((2 * t - itv.a - itv.b) / itv.length, c)
    if data.kind == "ModifiedHilbert":
        vals[inside] *= np.exp(2.0 * np.pi * data.delta * xs)
    diff = norm(SampledFunction(grid, vals - np.real(truth.values)), "L2", region=I)
    denom = norm(truth, "L2", region=I)
    return SampledFunction(grid, vals), diff / denom if denom > 0 else diff


# ---------------------------------------------------------------------------
# Stability curves
# ---------------------------------------------------------------------------

@dataclass
class StabilityCurve:
    """(abscissa, value) pairs with a fitted two-parameter decay/growth model.

    model["form"] is "log" for value = C / |log x|^nu or "exp" for
    value = C exp(C x^-mu); model["exponent"] is nu or mu.
    """

    pairs: list
    model: dict
    r_squared: float
    rows: list = field(default_factory=list)

    def __post_init__(self):
        xs = [p[0] for p in self.pairs]
        if list(xs) != sorted(xs):
            raise ValueError("curve pairs must be sorted by abscissa")
        if self.model.get("form") not in ("log", "exp"):
            raise ValueError("model form must be 'log' or 'exp'")

    def monotonicity_inversions(self) -> int:
        """The number of steps at which the value falls as the abscissa grows."""
        vals = [p[1] for p in self.pairs]
        return sum(b < a for a, b in zip(vals, vals[1:]))


def fit_log_modulus(deltas, errors):
    """Fit error = C / |log delta|^nu; returns (C, nu, r_squared)."""
    x = np.log(np.abs(np.log(np.asarray(deltas, dtype=float))))
    y = np.log(np.asarray(errors, dtype=float))
    if x.size < 4:
        raise ValueError("need at least 4 points to fit the log modulus")
    c0, c1, r2 = polyx.linear_fit(x, y)
    return float(np.exp(c0)), -c1, r2


def stability_sweep(kind: str, f: SampledFunction, I: Interval, J: Interval,
                    levels, trials: int, seed: int = 0, num_samples: int = 64,
                    N_max: int = 10, prec: PrecisionConfig = PrecisionConfig(),
                    tau: float = 1.5, **params) -> StabilityCurve:
    """Noise sweep of the full inversion pipeline with a log-modulus fit.

    For each noise level the reconstruction error (relative L2 over I) is
    averaged over `trials` independent noise draws; N is re-selected per trial
    by the discrepancy principle, at most min(N_max, num_samples//2 - 1).
    The sample geometry is fixed, so one design serves every draw.  RNG
    streams are derived from (seed, level index, trial) so sweeps are
    reproducible and trial-parallel.
    """
    levels = sorted(float(d) for d in levels)
    if len(levels) < 4:
        raise ValueError("need at least 4 noise levels")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if N_max < 0:
        raise ValueError(f"N_max must be >= 0, got {N_max}")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    clean = sample_remote(kind, f, I, J, num=num_samples, **params)
    N_max = min(N_max, num_samples // 2 - 1)
    design = _design(clean, N_max, prec.bits)
    rows, averaged = [], []
    for li, lvl in enumerate(levels):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, li, t)))
            vals = clean.values + (lvl * rng.standard_normal(num_samples) if lvl > 0 else 0.0)
            path = _project(design, vals, lvl)
            N = _select(path, N_max, tau)
            _, err = _on_grid(clean, _fit(path, N), f)
            errs.append(err)
            rows.append({"operator": kind, "delta_noise": lvl, "trial": t,
                         "N": N, "error_L2": err})
        averaged.append(float(np.mean(errs)))
    fit_lvls = [l for l in levels if l > 0]
    fit_errs = [e for l, e in zip(levels, averaged) if l > 0]
    C, nu, r2 = fit_log_modulus(fit_lvls, fit_errs)
    pairs = list(zip(levels, averaged))
    return StabilityCurve(pairs, {"form": "log", "C": C, "exponent": nu}, r2, rows=rows)

