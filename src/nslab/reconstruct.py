"""Moment recovery from remote operator data and log-stability sweeps.

Away from the source interval the four nonlocal operators treated here admit
convergent expansions whose coefficients are the monomial moments of the
source.  Fitting those expansions to samples taken on a far region J gives
the source's coefficients in the orthonormal Legendre basis of I.  The
inversion is severely ill-posed, and the truncation order N acts as the
regularizer, chosen by the discrepancy principle under noise.  Its one entry
is `stability_sweep`, which takes the operator as the `multiplier.SymbolSpec`
the quadrature oracle samples (`_SYMBOL_OF`) and builds one design for its
fixed sample geometry (`_design`, in np.longdouble); per noise draw, the
selection (`_select`) and the fit (`_fit`) read one projection of the data
on it (`_project`).  The k-th design column is the oracle's kernel, summed
in closed form, applied to the k-th orthonormal Legendre mode G_k of I, so
data, noise and floors stay in the units of the data: no quadrature rule
computes it, and Miller's backward recurrence in k gives it at every sample
point at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import multiplier, polyx
from .gridfn import Interval, SampledFunction, norm

# each operator's symbol kind, and the parameters that kind reads
_SYMBOL_OF = {
    "Hilbert": ("HilbertSign", ()),
    "ModifiedHilbert": ("ModifiedCoth", ("delta",)),
    "RieszInverse": ("RieszInverse", ("alpha",)),
    "FourierLaplace": ("FourierLaplace", ("alpha", "beta")),
}


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
# The least squares
# ---------------------------------------------------------------------------

def _miller(f0, ratio, M: int, K: int):
    """Rows f_0..f_M, at every point, of the minimal solution of a three-term
    recurrence in k, from f_0 and the ratios r_k = f_k/f_{k-1} =
    ratio(k, r_{k+1}) of Miller's backward recurrence started at r_{K+1} = 0."""
    rows, r = [f0], np.zeros_like(f0)
    for k in range(K, 0, -1):
        r = ratio(k, r)
        if k <= M:
            rows.insert(1, r)
    return np.cumprod(rows, axis=0)


def _power_integrals(z, beta, M: int, K: int):
    """f_k(z) = int_{-1}^1 P_k(t) |z - t|^beta dt for k <= M at every point z,
    |z| > 1, as rows k of an array.  f_k is the minimal solution of
    (k+beta+2) f_{k+1} = (2k+1) z f_k - (k-beta-1) f_{k-1}, so `_miller` gives
    it from r_k = (k-beta-1)/((2k+1)|z| - (k+beta+2) r_{k+1}) and the
    closed-form f_0 = ((z+1)^(beta+1) - (z-1)^(beta+1))/(beta+1), summed as
    (z-1)^(beta+1) expm1((beta+1) L)/(beta+1), L = log1p(2/(z-1)), so that it
    does not cancel at large z (L at beta = -1); f_k(-z) = (-1)^k f_k(z)."""
    s, z = np.sign(z), np.abs(z)
    p, L = beta + 1, np.log1p(2 / (z - 1))
    f0 = L if p == 0 else (z - 1) ** p * np.expm1(p * L) / p
    f = _miller(f0, lambda k, r: (k - p) / ((2 * k + 1) * z - (k + beta + 2) * r), M, K)
    return f * s ** np.arange(M + 1)[:, None]


def _power_closed_form(z: float, beta: float, N: int) -> float:
    """f_N(z) of `_power_integrals` at one point, without the recurrence: N
    integrations by parts of Rodrigues' formula and the binomial series of
    (1 - t/z)^(beta-N) give sgn(z)^N (-beta)_N / (2^N N!) |z|^(beta-N)
    B(1/2, N+1) 2F1(a, a + 1/2; N + 3/2; 1/z^2), a = (N-beta)/2 (2 Q_N(z) at
    beta = -1, DLMF 14.3).  The series' terms after the first share one sign,
    and past n0 their ratio is below x = 1/z^2, so it stops once the geometric
    bound on its tail is below 2^-60 of the sum."""
    x, a, c = z ** -2, (N - beta) / 2, N + 1.5
    n0 = (a * (a + 0.5) - c) / (beta + 2)
    term = total = 1.0
    n = 0
    while n < n0 or abs(term) * x > 2 ** -60 * (1 - x) * abs(total):
        term *= (a + n) * (a + 0.5 + n) / ((c + n) * (n + 1)) * x
        total += term
        n += 1
    pre = math.prod(j - beta for j in range(N)) / 2 ** N * math.copysign(1, z) ** N
    return pre * math.exp(0.5 * math.log(math.pi) - math.lgamma(c)
                          + (beta - N) * math.log(abs(z))) * total


def _exp_integrals(w, M: int, K: int):
    """f_k(w) = int_{-1}^1 P_k(t) e^(wt) dt = 2 i_k(w), i_k the modified
    spherical Bessel function, for k <= M at every point w, as rows k of an
    array.  f_k is the minimal solution of f_{k+1} = f_{k-1} - (2k+1)/w f_k,
    so `_miller` gives it from r_k = w/((2k+1) + w r_{k+1}) and
    f_0 = 2 sinh(w)/w (2 at w = 0).  Neither cancels at any w, where the 0F1
    series of `_exp_closed_form` does near the imaginary axis."""
    w1 = np.where(w == 0, 1, w)
    f0 = np.where(w == 0, 2, 2 * np.sinh(w1) / w1)
    return _miller(f0, lambda k, r: w / ((2 * k + 1) + w * r), M, K)


def _exp_closed_form(w, N: int) -> complex:
    """f_N(w) of `_exp_integrals` at one point w (np.clongdouble) by its series
    2 w^N/(2N+1)!! 0F1(; N + 3/2; w^2/4).  Near the imaginary axis its terms
    grow to about e^|w| times its sum, so the 0F1 is summed exactly, in
    integers over a common denominator D: with w = (a + ib)/d, each term is
    the last times (a + ib)^2 / q, q = 2 d^2 (2N + 3 + 2n)(n + 1).  Past its
    largest term it stops once a term is below 2^-64 of the sum."""
    (a, p), (b, q) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    d = max(p, q)  # both are powers of two
    a, b = a * (d // p), b * (d // q)
    a2, b2 = a * a - b * b, 2 * a * b
    tr, ti, sr, si = 1, 0, 1, 0
    D, n = 1, 0
    while 2 * n <= abs(w) or tr * tr + ti * ti > (sr * sr + si * si) >> 128:
        q = 2 * d * d * (2 * N + 3 + 2 * n) * (n + 1)
        tr, ti = tr * a2 - ti * b2, tr * b2 + ti * a2
        sr, si, D, n = sr * q + tr, si * q + ti, D * q, n + 1
    pre = 2 * math.prod(complex(w) / (2 * j + 1) for j in range(1, N + 1))
    return pre * complex(sr / D, si / D)


# extra fit columns beyond the reported order (tail-absorption buffer); each
# is kept only while its orthogonalized data coefficient clears the noise gate
_FIT_BUFFER = 8
_BUFFER_GATE = 3.0

# the design's sample points keep |z| >= 1 + _Z_GAP in the fit variable: the
# check's 2F1 takes about 21/(|z| - 1) terms at the nearest point, and its
# rounding grows like 1/(|z| - 1), to 5e-14 of f_M at 1 + 2^-10
_Z_GAP = 2.0 ** -10


class _Design(NamedTuple):
    """The QR-factored design of one sample geometry (`_design`)."""
    itv: Interval    # the source interval in the fit variable
    order: int       # the design's order M
    V: np.ndarray    # m x (M + 1) Householder vectors of Q (`_householder_qr`)
    R: np.ndarray    # (M + 1) x (M + 1) triangular factor
    rank: int        # the leading columns of numerically full rank


def _householder_qr(A):
    """A = Q R by Householder reflections in the precision of A (np.linalg.qr
    has no np.longdouble), as (V, R): column k of V is the unit vector v_k,
    zero above row k, of the reflection H_k = I - 2 v_k v_k^H, with
    Q = H_0 H_1 .. H_{n-1}, and R is n x n upper triangular.  Q is not formed."""
    R, V = A.copy(), np.zeros_like(A)
    for k in range(A.shape[1]):
        v = R[k:, k].copy()
        v[0] += (v[0] / abs(v[0]) if v[0] else 1) * np.sqrt(np.sum(np.abs(v) ** 2))
        v /= np.sqrt(np.sum(np.abs(v) ** 2)) or 1  # a zero column is left as it is
        R[k:, k:] -= 2 * np.outer(v, v.conj() @ R[k:, k:])
        V[k:, k] = v
    return V, np.triu(R[:A.shape[1]])


def _design(spec: multiplier.SymbolSpec, I: Interval, points, N: int) -> _Design:
    """The design of the operator `spec` (a symbol kind of `_SYMBOL_OF`) with
    source interval I at `points`, in np.longdouble, factored by one
    Householder QR.  Its order M = min(N + _FIT_BUFFER, m//2 - 1) serves
    every fit up to order N; its rank is the first k with |R_kk| <= m eps |a_k|
    (eps the float64 epsilon of the data, a_k column k), and no fit reads a
    column past it (`_fit`).  np.longdouble must carry 64 bits or more (x86
    extended precision, IEEE quad), else ArithmeticError: a float64 fit's own
    rounding moves its error by up to 1e-8.

    For I = [c - h, c + h] (in the fit variable, the tilde variable for
    ModifiedCoth) and z = (x - c)/h, column k at x is sqrt((2k+1)/(2h)) f_k
    times: HilbertSign sign(z)/pi, f_k from `_power_integrals` at beta = -1;
    ModifiedCoth the same times 1 + 2 pi delta x, less delta int_I G_0 =
    delta sqrt(2h) for k = 0; RieszInverse -h^(2a)/c_a, beta = 2a - 1, the
    normalisation of the kernel the oracle integrates (`multiplier._kernel`);
    FourierLaplace h e^(lambda x c), f_k from `_exp_integrals` at
    w = lambda x h.  Each backward recurrence is started for the point where it
    converges slowest, the nearest for the power kernels (which need
    |z| >= 1 + _Z_GAP), the one of largest |w| for FourierLaplace, and there
    f_M must match `_power_closed_form` or `_exp_closed_form` to 2^-40 of its
    size, else ArithmeticError.
    """
    if np.finfo(np.longdouble).nmant < 63:
        raise ArithmeticError("the inversion needs an np.longdouble of 64 bits or more")
    kind, delta, alpha = spec.kind, spec.delta, spec.alpha
    if kind not in {k for k, _ in _SYMBOL_OF.values()}:
        raise ValueError(f"no far-field design for symbol kind {kind!r}")
    pts = np.asarray(points)
    m = pts.size
    if m < 2 * (N + 1):
        raise ValueError(f"need at least {2 * (N + 1)} samples for N={N}, got {m}")
    M = min(N + _FIT_BUFFER, m // 2 - 1)
    if kind == "ModifiedCoth":
        pts, itv = tilde_variable(pts.real, delta), _tilde_interval(I, delta)
    else:
        itv = I
    c, h = itv.center, 0.5 * itv.length
    if kind == "FourierLaplace":
        lam, pts = complex(alpha, spec.beta), pts.astype(np.clongdouble)
        w = lam * h * pts
        # past k = |w|/2 each step damps the start's error by (|w|/(2k+1))^2
        i0 = int(np.argmax(np.abs(w)))
        f = _exp_integrals(w, M, M + 16 + math.ceil(2 * abs(w[i0])))
        factor = h * np.exp(lam * c * pts)
        check, ref = "series", _exp_closed_form(w[i0], M)
    else:
        z = (pts.real.astype(np.longdouble) - c) / h
        # the float64 tilde map can put a point just off I onto its end
        if np.min(np.abs(z)) < 1 + _Z_GAP:
            raise ValueError("sample points must lie off the source interval in the "
                             f"variable of the fit (|z| > 1, at least 1 + {_Z_GAP:.3g})")
        beta = 2 * alpha - 1 if kind == "RieszInverse" else -1
        # 64 bits of damping, by rho^-2 per step, rho = |z| + sqrt(z^2 - 1)
        i0 = int(np.argmin(np.abs(z)))
        K = M + 8 + math.ceil(64 * math.log(2) / (2 * math.acosh(abs(z[i0]))))
        f = _power_integrals(z, beta, M, K)
        factor = (-h ** (2 * alpha) / multiplier.riesz_constant(alpha)
                  if kind == "RieszInverse" else np.sign(z) / np.pi)
        if kind == "ModifiedCoth":
            factor = factor * (1 + 2 * np.pi * delta * pts)
        check, ref = "closed-form", _power_closed_form(float(z[i0]), beta, M)
    gap = abs(f[M, i0] - ref)
    if not gap <= 2 ** -40 * abs(f[M, i0]):
        raise ArithmeticError(f"{kind} design column {M} misses its {check} check by "
                              f"{gap:.3g} (f_{M} = {abs(f[M, i0]):.3g})")
    A = (np.sqrt((2 * np.arange(M + 1) + 1) / (2 * h))[:, None] * factor * f).T
    if kind == "ModifiedCoth":
        A[:, 0] -= delta * math.sqrt(2 * h)
    V, R = _householder_qr(A)
    dependent = np.abs(np.diag(R)) <= m * np.finfo(float).eps * np.linalg.norm(A, axis=0)
    rank = int(np.argmax(dependent)) if dependent.any() else M + 1
    return _Design(itv, M, V, R, rank)


class _Path(NamedTuple):
    """One data set projected on one design (`_project`)."""
    design: _Design
    rhs: np.ndarray        # data coefficients on the columns of Q
    residuals: np.ndarray  # residuals[k]: the data norm left after columns 0..k
    noise: float     # the noise std-dev
    floor: float     # the quadrature/float64 roundoff even "clean" samples carry


def _project(design: _Design, values, noise: float) -> _Path:
    """`values`, sampled at the design's points with additive noise of std-dev
    `noise` (0 for clean data), projected on the columns of Q: rhs = Q^H v, by
    the design's reflections in turn; residuals[k] is |rhs[k+1:]|, summed from
    the far end so that no subtraction cancels."""
    rhs = np.array(values, np.clongdouble)
    floor = 1e-8 * float(np.max(np.abs(rhs)))
    for k, v in enumerate(design.V.T):
        rhs[k:] -= 2 * v[k:] * (v[k:].conj() @ rhs[k:])
    tail = np.sqrt(np.cumsum(np.abs(rhs[::-1]) ** 2)[::-1])
    return _Path(design, rhs, tail[1:design.order + 2], noise, floor)


def _fit(path: _Path, N: int):
    """The far-field fit at order N from a path of order >= N: its Legendre
    coefficients a_0..a_N (the source is sum_k a_k G_k on I, in the fit
    variable), the fit interval and the fit residual at order N."""
    # fit a few modes beyond N, below the design's rank: the extra columns
    # absorb the source's higher modes, which would otherwise alias O(1)
    # errors into the top reported coefficients (the buffer modes themselves
    # are discarded)
    d = path.design
    M_fit = min(N + _FIT_BUFFER, d.rank - 1)
    # keep a buffer column only while its data coefficient clears the noise
    # gate: below it the column fits noise, and its amplified junk coefficient
    # would leak into the reported modes through back substitution
    gate = _BUFFER_GATE * max(path.noise, path.floor)
    M_use = N
    while M_use < M_fit and abs(path.rhs[M_use + 1]) > gate:
        M_use += 1
    R, x = d.R[:M_use + 1, :M_use + 1], np.zeros(M_use + 1, np.clongdouble)
    for i in range(M_use, -1, -1):
        x[i] = (path.rhs[i] - R[i, i + 1:] @ x[i + 1:]) / R[i, i]
    return x[:N + 1].astype(complex), d.itv, float(path.residuals[N])


def _select(path: _Path, N_max: int, tau: float) -> int:
    """Discrepancy principle: the largest N <= N_max whose fit residual stays
    at or above the noise floor tau * delta * sqrt(#samples) (ties broken
    toward smaller N).

    tau > 1 is the usual safety factor: without it, noise draws whose norm
    exceeds its expectation never cross the floor and the selection runs away
    to N_max with exponentially amplified error.
    """
    floor = tau * path.noise * math.sqrt(len(path.rhs))
    # residuals are nonincreasing until noise takes over; stop at the first
    # crossing below the floor so later chance fluctuations cannot inflate N
    best = 0
    for k, r in enumerate(path.residuals[:N_max + 1]):
        if r < floor:
            break
        best = k
    return best


def _on_grid(spec: multiplier.SymbolSpec, I: Interval, fit, truth: SampledFunction):
    """(sum_{k<=N} Re(a_k) G_k of a `_fit` result on the grid points in I of
    `truth`, its relative L2(I) error against `truth`): G_k = sqrt((2k+1)/L)
    P_k((2x - a - b)/L) on the fit interval (a, b), summed by `legval`, in the
    tilde variable and times e^{2 pi delta x} for ModifiedCoth."""
    a, itv, _ = fit
    grid = truth.grid
    inside = I.contains(grid.x)
    xs = grid.x[inside]
    t = tilde_variable(xs, spec.delta) if spec.kind == "ModifiedCoth" else xs
    c = np.real(a) * np.sqrt((2 * np.arange(len(a)) + 1) / itv.length)
    vals = np.zeros(grid.n)
    vals[inside] = np.polynomial.legendre.legval((2 * t - itv.a - itv.b) / itv.length, c)
    if spec.kind == "ModifiedCoth":
        vals[inside] *= np.exp(2.0 * np.pi * spec.delta * xs)
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
                    N_max: int = 10, tau: float = 1.5, **params) -> StabilityCurve:
    """Noise sweep of the full inversion pipeline with a log-modulus fit.

    `kind` is a key of `_SYMBOL_OF` and `params` the symbol parameters it
    reads.  The operator is sampled by the quadrature oracle on `num_samples`
    equispaced points of J.  For each noise level the reconstruction error
    (relative L2 over I) is averaged over `trials` independent noise draws;
    N is re-selected per trial by the discrepancy principle, at most
    min(N_max, num_samples//2 - 1, rank - 1) for the design's rank.  The
    sample geometry is fixed, so one design serves every draw.  RNG streams
    are derived from (seed, level index, trial) so sweeps are reproducible
    and trial-parallel.
    """
    levels = sorted(float(d) for d in levels)
    bad = [l for l in levels if not l >= 0]
    if bad:
        raise ValueError(f"noise levels must be >= 0, got {bad[0]}")
    if sum(l > 0 for l in levels) < 4:
        raise ValueError("need at least 4 positive noise levels")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if N_max < 0:
        raise ValueError(f"N_max must be >= 0, got {N_max}")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if num_samples < 2:
        raise ValueError(f"num_samples must be >= 2, got {num_samples}")
    if kind not in _SYMBOL_OF:
        raise ValueError(f"unknown operator {kind!r}, not one of {', '.join(_SYMBOL_OF)}")
    symbol_kind, reads = _SYMBOL_OF[kind]
    unread = [k for k in params if k not in reads]
    if unread:
        raise ValueError(f"operator {kind} does not read {unread[0]!r}")
    spec = multiplier.symbol(symbol_kind, **params)
    if kind == "RieszInverse" and not 0 < spec.alpha < 1:
        raise ValueError(f"RieszInverse requires alpha in (0, 1), got {spec.alpha}")
    pts = np.linspace(J.a, J.b, num_samples)
    N_max = min(N_max, num_samples // 2 - 1)
    design = _design(spec, I, pts, N_max)
    N_max = min(N_max, design.rank - 1)
    clean = multiplier.oracle_quadrature(spec, f, I, pts)
    rows, averaged = [], []
    for li, lvl in enumerate(levels):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, li, t)))
            vals = clean + (lvl * rng.standard_normal(num_samples) if lvl > 0 else 0.0)
            path = _project(design, vals, lvl)
            N = _select(path, N_max, tau)
            _, err = _on_grid(spec, I, _fit(path, N), f)
            errs.append(err)
            rows.append({"operator": kind, "delta_noise": lvl, "trial": t,
                         "N": N, "error_L2": err})
        averaged.append(float(np.mean(errs)))
    fit_lvls = [l for l in levels if l > 0]
    fit_errs = [e for l, e in zip(levels, averaged) if l > 0]
    C, nu, r2 = fit_log_modulus(fit_lvls, fit_errs)
    pairs = list(zip(levels, averaged))
    return StabilityCurve(pairs, {"form": "log", "C": C, "exponent": nu}, r2, rows=rows)

