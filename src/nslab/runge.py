"""Discretized exterior-value problem for L_s = (-d^2/dx^2)^s + q, its Poisson
operator, and the quantitative exterior-approximation experiment.

The operator is a circulant column, the inverse FFT of the |xi|^{2s} multiplier
on the grid, and each block read is a Toeplitz window over one diagonal run of
it; Dirichlet data live on an exterior region W disjoint from Omega, and the
Poisson operator A maps W-values (H^s(W) inner product) to u|_Omega (L^2(Omega)
inner product).  Its SVD is taken in Ritz form with two half-size solves, as the
node reflection splits the symmetric Toeplitz H^s(W) Gram (Cantoni & Butler,
Linear Algebra Appl. 13, 1976); its singular values decay exponentially, which
prices exterior control of interior targets at exp(C eps^-mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import multiplier, polyx
from .gridfn import Grid, Interval, SampledFunction, norm

_EIG_TOL = 1e-8  # smallest/largest singular-value ratio treated as singular
_SIGMA_FLOOR = 1e-13  # Poisson singular values below this times sigma_1 are roundoff
_SKETCH_WIDTH = 48    # first width of poisson_svd's Gaussian range sketch


class DirichletEigenvalueError(ValueError):
    """Zero is (numerically) a Dirichlet eigenvalue of the interior block."""

    def __init__(self, message, near_null=None):
        super().__init__(message)
        self.near_null = near_null


def _circulant_block(c: np.ndarray, rows, cols) -> np.ndarray:
    """Block rows x cols of the circulant matrix with first column c,
    M[i, j] = c[(i - j) mod n], for consecutive index ranges rows and cols: a
    Toeplitz window over one diagonal run of c, copied C-contiguous."""
    m, k = len(rows), len(cols)
    d = rows[0] - cols[0] if m and k else 0
    # run[t] = c[(d + m - 1 - t) mod n], so M[i, j] = run[m - 1 - i + j]
    run = c[(d + m - 1 - np.arange(m + k)) % c.size]
    return np.lib.stride_tricks.sliding_window_view(run, k)[:m][::-1].copy()


def dense_multiplier_matrix(spec: multiplier.SymbolSpec, grid: Grid) -> np.ndarray:
    """Dense matrix of the Fourier multiplier on the periodic grid: the
    circulant of the column ifft(symbol)."""
    i = np.arange(grid.n)
    return _circulant_block(np.fft.ifft(multiplier.evaluate(spec, grid.xi)), i, i)


def _fold(X) -> np.ndarray:
    """P X along axis 0, P = P^T = P^-1 the reflection whose rows are the even
    parts (x_i + x_{m-1-i}) / sqrt 2, the middle entry for odd m, then the odd
    parts reversed; P M P = diag(E, O), exactly, for a symmetric Toeplitz M."""
    m, h = len(X), len(X) // 2
    Y = np.empty(np.shape(X))                 # one allocation: no temporaries
    np.add(X[:h], X[m - h:][::-1], out=Y[:h])
    np.subtract(X[:h], X[m - h:][::-1], out=Y[m - h:][::-1])
    Y *= math.sqrt(0.5)
    Y[h:m - h] = X[h:m - h]
    return Y


@dataclass
class RungeProblem:
    s: float
    grid: Grid
    Omega: Interval
    W: Interval
    q: float                    # constant potential on Omega
    c: np.ndarray               # real first column of |D|^{2s}'s circulant
    omega_idx: np.ndarray = field(repr=False, default=None)
    w_idx: np.ndarray = field(repr=False, default=None)
    condition_number: float = 0.0
    eig: tuple = field(repr=False, default=None)  # eigh of E and of O, P B P = diag(E, O)

    def solve(self, X) -> np.ndarray:
        """B^-1 X = P diag(E^-1, O^-1) P X for the interior block B, each half
        from build's eigh; X is one right-hand side or a column stack of them."""
        halves = zip(self.eig, np.split(_fold(X), [self.eig[0][0].size]))
        return _fold(np.concatenate([V @ ((V.T @ Z).T / lam).T for (lam, V), Z in halves]))


def build(s: float, q, Omega: Interval, W: Interval, grid: Grid) -> RungeProblem:
    """Form the operator's circulant column; verify the interior block is invertible."""
    if not (0.5 <= s < 1.0):
        raise ValueError("s must lie in [1/2, 1)")
    if np.ndim(q) or not math.isfinite(q):
        raise ValueError(f"potential q must be a finite constant, got {q!r}")
    if not (W.b <= Omega.a or Omega.b <= W.a):
        raise ValueError("exterior region W must be disjoint from Omega")
    omega_idx = np.flatnonzero(Omega.contains(grid.x))   # consecutive nodes
    w_idx = np.flatnonzero(W.contains(grid.x))
    for name, idx in (("interior region Omega", omega_idx), ("exterior region W", w_idx)):
        if idx.size == 0:
            raise ValueError(f"{name} contains no grid points")
    # T is the circulant of c, so max|T - T^T| / max|T| is read off c
    c = np.fft.ifft(multiplier.evaluate(
        multiplier.symbol("AbsPow", two_s=2.0 * s), grid.xi))
    c_t = np.roll(c[::-1], 1)                 # column of T^T
    asym = np.max(np.abs(c - c_t)) / np.max(np.abs(c))
    if asym > 1e-10:
        raise ValueError(f"operator matrix asymmetry {asym:.2e} exceeds 1e-10")
    prob = RungeProblem(s=s, grid=grid, Omega=Omega, W=W, q=float(q),
                        c=np.real(0.5 * (c + c_t)), omega_idx=omega_idx, w_idx=w_idx)
    # F = P B P = diag(E, O), B = T_OO + q I; B's singular values are E's and O's |lam|
    F = _fold(_fold(_circulant_block(prob.c, omega_idx, omega_idx)).T)
    F[np.diag_indices_from(F)] += prob.q
    h = (omega_idx.size + 1) // 2
    prob.eig = (np.linalg.eigh(F[:h, :h]), np.linalg.eigh(F[h:, h:]))
    sv = np.abs(np.concatenate([lam for lam, _ in prob.eig]))
    k = int(np.argmin(sv))
    if sv[k] < _EIG_TOL * sv.max():
        e = np.split(np.eye(1, sv.size, k)[0], [h])
        raise DirichletEigenvalueError(
            "interior block numerically singular: zero behaves as a Dirichlet "
            f"eigenvalue (sigma_min/sigma_max = {sv[k] / sv.max():.2e})",
            _fold(np.concatenate([V @ z for (_, V), z in zip(prob.eig, e)])))
    prob.condition_number = float(sv.max() / sv[k])
    return prob


@dataclass
class PoissonSVD:
    """Truncated SVD of the Poisson operator A: sigma, w and phi hold only
    the certified triplets, sigma_j >= _SIGMA_FLOOR * sigma_1, and every
    discarded singular value lies below that floor (see poisson_svd)."""
    problem: RungeProblem
    sigma: np.ndarray          # nonincreasing positive singular values
    phi: np.ndarray            # exterior basis, columns H^s(W)-orthonormal
    w: np.ndarray              # interior basis, columns L^2(Omega)-orthonormal
    A: np.ndarray = field(repr=False, default=None)  # W-values -> u|_Omega


def poisson_svd(p: RungeProblem) -> PoissonSVD:
    """SVD of the Poisson operator A: W-values (H^s(W)) -> u|_Omega (L^2);
    sigma, w and phi hold only the certified triplets, >= _SIGMA_FLOOR * sigma_1.

    They are the triplets of Atil = sqrt(dx) A R^-1 (G = R^T R the H^s(W) Gram),
    taken in Ritz form: Atil is never formed.  Q spans a seeded Gaussian sketch
    of range(A) = range(Atil) after one power step (Halko, Martinsson & Tropp,
    SIAM Review 53, 2011); Y is a G-orthonormal basis (QR, then Cholesky QR
    twice) of Z = G^-1 (Q^T A)^T, two half-size solves with the blocks of P G P,
    the image under R^-1 of Q^T Atil's row space; the SVD U_b S V_b^T of
    sqrt(dx) Q^T A Y gives w = Q U_b / sqrt(dx) and phi = Y V_b.  With X = A - Q
    Q^T A and G = dx C_WW for the circulant C of the weights (1 + xi^2)^s >= 1,
    ||Atil - Q Q^T Atil||_F^2 = tr(X C_WW^-1 X^T) is at most ||X||_F^2 (Cauchy
    interlacing) and at most the H^-s norm^2 of X's zero-extended rows (C_WW^-1
    <= (C^-1)_WW), each over 1 - slack, slack = n log2(n) eps max(weight) for
    the ifft's roundoff in G's column.  Once either is below the floor, Weyl's
    inequality puts every discarded singular value below it; until then the
    width doubles, and at min(|Omega|, |W|) Q spans all of range(A)."""
    A = -p.solve(_circulant_block(p.c, p.omega_idx, p.w_idx))
    n, sqdx = p.grid.n, math.sqrt(p.grid.dx)
    h = (p.w_idx.size + 1) // 2               # size of the Gram's even block
    weight = (1.0 + p.grid.xi ** 2) ** p.s
    G = p.grid.dx * _circulant_block(np.real(np.fft.ifft(weight)), p.w_idx, p.w_idx)
    G = 0.5 * (G + G.T)                       # symmetric Toeplitz, as B is
    Ge = _fold(_fold(G).T)                    # P G P = diag(Ge, Go)
    Ge, Go = Ge[:h, :h].copy(), Ge[h:, h:].copy()   # copies, so P G P is freed
    slack = n * math.log2(n) * np.finfo(float).eps * weight.max()
    floor = _SIGMA_FLOOR * math.sqrt(max(1.0 - slack, 0.0))
    width = _SKETCH_WIDTH
    while True:
        sketch = np.random.default_rng(0).standard_normal((A.shape[1], width))
        Q = np.linalg.qr(A @ sketch)[0]
        Q = np.linalg.qr(A @ np.linalg.qr(A.T @ Q)[0])[0]
        B = Q.T @ A
        Z = np.split(_fold(B.T), [h])
        Z = np.linalg.solve(Ge, Z[0]), np.linalg.solve(Go, Z[1])
        Y = np.linalg.qr(_fold(np.concatenate(Z)))[0]
        for _ in range(2):
            Y = np.linalg.solve(np.linalg.cholesky(Y.T @ G @ Y), Y.T).T
        Ub, sig, Vt = np.linalg.svd(sqdx * (B @ Y))
        X = A - Q @ B
        if (width >= min(A.shape) or np.linalg.norm(X) < floor * sig[0] or math.sqrt(
                np.sum(np.abs(np.fft.fft(X, n, axis=1)) ** 2 / weight) / n) < floor * sig[0]):
            break
        width *= 2
    k = int(np.sum(sig >= _SIGMA_FLOOR * sig[0]))
    return PoissonSVD(problem=p, sigma=sig[:k], phi=Y @ Vt[:k].T,
                      w=Q @ Ub[:, :k] / sqdx, A=A)


def sigma_decay_fit(svd: PoissonSVD, j_max: int = 30):
    """Linear fit of log sigma_j vs j over the certified j <= j_max; returns
    (slope, r2)."""
    sig = svd.sigma[:j_max]
    _, slope, r2 = polyx.linear_fit(np.arange(1, sig.size + 1), np.log(sig))
    return slope, r2


def runge_approximate(p: RungeProblem, v, eps: float, svd: PoissonSVD = None):
    """Exterior data f_eps with ||A f_eps - v||_{L2(Omega)} <= eps ||v||.

    Truncated-SVD construction: f_eps = sum_{j<=k} sigma_j^{-1} <v, w_j> phi_j
    with minimal k.  Returns (f_eps on W, achieved relative error, cost
    ||f_eps||_{H^s(W)}, k, floor_flag)."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    vv = np.asarray(v, dtype=float)
    if vv.shape != p.omega_idx.shape:
        raise ValueError("v must be sampled on the Omega nodes")
    vnorm = math.sqrt(p.grid.dx) * np.linalg.norm(vv)
    if vnorm == 0.0:
        raise ValueError("target v must be nonzero")
    if svd is None:
        svd = poisson_svd(p)
    c = p.grid.dx * (svd.w.T @ vv)        # L2(Omega) coefficients of v
    res2 = vnorm ** 2 - np.cumsum(c ** 2)
    res = np.sqrt(np.maximum(res2, 0.0))
    target = eps * vnorm
    # modes below the relative floor carry pure roundoff; never truncate there
    rank = int(np.sum(svd.sigma >= _SIGMA_FLOOR * svd.sigma[0]))
    hit = np.flatnonzero(res <= target)
    k = int(hit[0]) + 1 if hit.size else rank
    k = min(k, rank)

    def attempt(k):
        coef = c[:k] / svd.sigma[:k]
        f_eps = svd.phi[:, :k] @ coef
        achieved = float(math.sqrt(p.grid.dx) *
                         np.linalg.norm(svd.A @ f_eps - vv) / vnorm)
        return f_eps, achieved, float(np.linalg.norm(coef))

    # the coefficient-tail prediction can be a hair optimistic once roundoff
    # enters; verify the actual residual and widen the truncation if needed
    f_eps, achieved, cost = attempt(k)
    while achieved > eps and k < rank:
        k += 1
        f_eps, achieved, cost = attempt(k)
    floor = achieved > eps
    return f_eps, achieved, cost, k, floor


def epsilon_sweep(p: RungeProblem, v, eps_list=(0.5, 0.2, 0.1, 0.05, 0.02),
                  svd: PoissonSVD = None):
    """Cost curve over the eps ladder with an exp(C2 * eps^-mu) envelope fit.

    Fits log cost = log C + C2 * eps^-mu by scanning mu and solving the linear
    subproblem; returns (rows, fit dict with mu_hat, C, C2, r_squared)."""
    if svd is None:
        svd = poisson_svd(p)
    rows = []
    for eps in eps_list:
        _, achieved, cost, k, floor = runge_approximate(p, v, eps, svd=svd)
        rows.append({"eps": float(eps), "achieved": achieved,
                     "cost": cost, "k": k, "floor": floor})
    return rows, _envelope_fit(np.array([row["eps"] for row in rows]),
                               np.log([row["cost"] for row in rows]))


def _envelope_fit(eps: np.ndarray, y: np.ndarray) -> dict:
    """Fit y = log C + C2 * eps^-mu: the mu of a 400-point scan whose line
    through (eps^-mu, y) has the largest R^2 among those with slope C2 > 0,
    and mu_hat = 0 when no slope is positive.

    For fixed y, R^2 ranks as s_xy^2 / s_xx on centred x = eps^-mu, and the
    slope's sign is s_xy's; y is shifted by y[0], which leaves s_xy as it is
    and makes it exactly 0 for constant costs.  The first maximum wins."""
    mus = np.linspace(0.05, 4.0, 400)
    X = eps[None, :] ** -mus[:, None]
    X -= X.mean(axis=1, keepdims=True)
    sxy = X @ (y - y[0])
    if not np.any(sxy > 0):
        return {"mu_hat": 0.0, "C": float(np.exp(np.mean(y))), "C2": 0.0, "r_squared": 0.0}
    mu = mus[np.argmax(np.where(sxy > 0, sxy ** 2 / np.sum(X ** 2, axis=1), -np.inf))]
    c0, c1, r2 = polyx.linear_fit(eps ** (-mu), y)
    return {"mu_hat": float(mu), "C": math.exp(c0), "C2": c1, "r_squared": r2}


def dual_ucp_experiment(p: RungeProblem, v):
    """Dual unique-continuation ratio: solve (T+q) w = v on Omega with w = 0
    outside, then compare ||v||_{H^-s(Omega)} against ||L_s w||_{H^-s(W)}
    (smooth-cutoff surrogates).  Returns a report dict including the empirical
    equivalence constant between ||w||_{H^s} and ||v||_{H^-s}; for a 2-D v
    (trials x |Omega|) a list of them, from one solve with every target as a
    right-hand side."""
    vv = np.asarray(v, dtype=float)
    if vv.ndim not in (1, 2) or vv.shape[-1:] != p.omega_idx.shape:
        raise ValueError("v must be sampled on the Omega nodes")
    V = vv.reshape(-1, p.omega_idx.size)
    lo, hi = p.omega_idx[0], p.omega_idx[-1] + 1   # Omega's nodes are consecutive
    Wo = p.solve(V.T)
    Lw = _circulant_block(p.c, np.arange(p.grid.n), p.omega_idx) @ Wo
    Lw[lo:hi] += p.q * Wo
    w, v_full = np.zeros((2, V.shape[0], p.grid.n))
    w[:, lo:hi], v_full[:, lo:hi] = Wo.T, V
    # contiguous rows of Lw.T keep each row's transform bit for bit its single-row one
    lhs = norm(SampledFunction(p.grid, v_full), "HnegS_local", region=p.Omega, s=p.s).tolist()
    rhs = norm(SampledFunction(p.grid, np.ascontiguousarray(Lw.T)), "HnegS_local",
               region=p.W, s=p.s).tolist()
    w_hs = norm(SampledFunction(p.grid, w), "Hs", s=p.s).tolist()
    reports = [{"lhs": l, "rhs": r, "w": SampledFunction(p.grid, w_k), "w_hs": h,
                "equivalence_constant": h / l if l > 0 else 0.0}
               for l, r, w_k, h in zip(lhs, rhs, w, w_hs)]
    return reports if vv.ndim == 2 else reports[0]


def reciprocity_defect(p: RungeProblem, rng=None, trials: int = 5) -> float:
    """max over random (f, v) of |<A f, v>_Omega - <f, A^T v>_W| / scale;
    the duality consistency the exterior-control argument rests on.

    A f = -B^-1 T_OW f and A^T v = -T_WO B^-1 v (B the interior block) are
    formed from T's two off-diagonal blocks with one application of build's
    eigendecomposition of B, so an asymmetry of T shows; no matrix A is
    formed."""
    rng = np.random.default_rng(rng)
    F, V = map(np.array, zip(*[(rng.standard_normal(p.w_idx.size),
                                rng.standard_normal(p.omega_idx.size)) for _ in range(trials)]))
    X = p.solve(np.hstack([_circulant_block(p.c, p.omega_idx, p.w_idx) @ F.T, V.T]))
    a = -p.grid.dx * np.sum(X[:, :trials] * V.T, axis=0)
    b = -p.grid.dx * np.sum(F.T * (_circulant_block(p.c, p.w_idx, p.omega_idx) @ X[:, trials:]), axis=0)
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1.0)))
