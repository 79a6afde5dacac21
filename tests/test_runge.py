import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nslab import multiplier, polyx, runge
from nslab.gridfn import Grid, Interval, SampledFunction, make_bump, norm
from nslab.runge import (DirichletEigenvalueError, RungeProblem, build,
                         dual_ucp_experiment, epsilon_sweep, poisson_svd,
                         reciprocity_defect, runge_approximate, sigma_decay_fit)

GRID = Grid(4.0, 512)
OMEGA = Interval(-1.0, 1.0)
W = Interval(1.02, 3.8)


def solve_dirichlet(p: RungeProblem, f, F_interior=None) -> SampledFunction:
    """Solve the exterior-value problem: u = f on W, u = 0 on the rest of the
    exterior, and (T + q) u = F on Omega (F = 0 for the homogeneous problem)."""
    fv = np.broadcast_to(np.asarray(f, dtype=float), p.w_idx.shape)
    u = np.zeros(p.grid.n)
    u[p.w_idx] = fv
    rhs = -_block(p, p.omega_idx, p.w_idx) @ fv
    if F_interior is not None:
        rhs = rhs + np.broadcast_to(np.asarray(F_interior, dtype=float),
                                    p.omega_idx.shape)
    u[p.omega_idx] = p.solve(rhs)
    nodes = np.arange(p.grid.n)
    # T u over u's two consecutive column ranges; u is zero off Omega and W
    full = _block(p, nodes, p.omega_idx) @ u[p.omega_idx] + _block(p, nodes, p.w_idx) @ fv
    res = full[p.omega_idx] + p.q * u[p.omega_idx]
    if F_interior is not None:
        res = res - F_interior
    scale = np.linalg.norm(full) + np.linalg.norm(u)
    if scale > 0 and np.linalg.norm(res) > 1e-10 * scale:
        raise np.linalg.LinAlgError(
            f"interior residual {np.linalg.norm(res):.2e} too large "
            f"(condition number {p.condition_number:.2e})")
    return SampledFunction(p.grid, u)


def _block(p, rows, cols):
    """Block rows x cols of the operator matrix T[i, j] = c[(i - j) mod n],
    for consecutive index ranges rows and cols."""
    return runge._circulant_block(p.c, rows, cols)


def _interior_block(p):
    """The interior block B = T_OO + q I, formed in full."""
    B = _block(p, p.omega_idx, p.omega_idx)
    B[np.diag_indices_from(B)] += p.q
    return B


def _hs_gram(p):
    """Gram matrix of the H^s(W) inner product on zero-extended W-values: the
    W x W block of the circulant of the weight's inverse FFT, as poisson_svd
    forms it."""
    weight = (1.0 + p.grid.xi ** 2) ** p.s
    G = p.grid.dx * runge._circulant_block(np.real(np.fft.ifft(weight)), p.w_idx, p.w_idx)
    return 0.5 * (G + G.T)


def _poisson_svd_reference(p):
    """The dense route: the full SVD of the whitened Poisson operator, with
    LU solves of the interior block and of the Cholesky factor, every
    triplet kept."""
    A = -np.linalg.solve(_interior_block(p), _block(p, p.omega_idx, p.w_idx))
    R = np.linalg.cholesky(_hs_gram(p)).T
    Atil = math.sqrt(p.grid.dx) * np.linalg.solve(R.T, A.T).T
    U, sig, Vt = np.linalg.svd(Atil, full_matrices=False)
    return runge.PoissonSVD(sigma=sig, phi=np.linalg.solve(R, Vt.T),
                            w=U / math.sqrt(p.grid.dx), A=A)


def _circulant_block_reference(c, rows, cols):
    """The modulo gather M[i, j] = c[(i - j) mod n], for any index arrays."""
    return c[np.subtract.outer(rows, cols) % c.size]


def _certificate_slack(p):
    """n log2(n) eps max(weight): poisson_svd's bound on the ifft's roundoff
    in the H^s(W) Gram's column."""
    weight = (1.0 + p.grid.xi ** 2) ** p.s
    return p.grid.n * math.log2(p.grid.n) * np.finfo(float).eps * weight.max()


def _orthonormality_residuals(p, svd):
    """Max deviation from the identity of the H^s(W) Gram of phi and the
    L^2(Omega) Gram of w, for the SVD of problem p's Poisson operator."""
    gram_phi = svd.phi.T @ _hs_gram(p) @ svd.phi
    gram_w = p.grid.dx * (svd.w.T @ svd.w)
    k = svd.sigma.size
    return (float(np.max(np.abs(gram_phi - np.eye(k)))),
            float(np.max(np.abs(gram_w - np.eye(k)))))


def _linalg_calls(monkeypatch, run):
    """(name, shape of the first argument, shape of the second or None) of
    every call run() makes to the np.linalg factorizations and solves."""
    calls = []

    def wrap(name):
        real = getattr(np.linalg, name)

        def counted(a, *rest, **kw):
            calls.append((name, np.shape(a), np.shape(rest[0]) if rest else None))
            return real(a, *rest, **kw)
        monkeypatch.setattr(np.linalg, name, counted)

    for name in ("solve", "cholesky", "inv", "eigh", "eigvalsh", "svd", "qr"):
        wrap(name)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


@pytest.fixture(scope="module")
def problem():
    return build(0.6, 0.0, OMEGA, W, GRID)


@pytest.fixture(scope="module")
def svd(problem):
    return poisson_svd(problem)


@pytest.fixture(scope="module")
def bump_target(problem):
    v = make_bump(Interval(-0.9, 0.9), 0.0, 0.5, GRID).values[problem.omega_idx]
    return v / (math.sqrt(GRID.dx) * np.linalg.norm(v))


def _full_block(p):
    """The whole n x n operator matrix, gathered from the problem's column."""
    nodes = np.arange(p.grid.n)
    return _block(p, nodes, nodes)


def _multiplier_matrix_reference(symbol_values):
    """The multiplier applied to every column of the identity by FFT."""
    n = symbol_values.size
    F = np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft(symbol_values[:, None] * F, axis=0)


class TestBuild:
    @pytest.mark.parametrize("s,n", [(0.6, 512), (0.5, 1024), (0.9, 2048)])
    def test_circulant_matches_fft_of_identity(self, s, n):
        g = Grid(4.0, n)
        p = build(s, 0.0, OMEGA, W, g)
        ref = _multiplier_matrix_reference(multiplier.evaluate(
            multiplier.symbol("AbsPow", two_s=2.0 * s), g.xi))
        ref = np.real(0.5 * (ref + ref.T))
        scale = np.max(np.abs(ref))
        T = _full_block(p)
        assert np.max(np.abs(T - ref)) <= 1e-15 * scale
        assert np.array_equal(T, T.T)
        assert T.dtype == np.float64 and T.flags.c_contiguous
        hilbert = multiplier.evaluate(multiplier.symbol("HilbertSign"), g.xi)
        ref = _multiplier_matrix_reference(hilbert)
        got = runge.dense_multiplier_matrix(multiplier.symbol("HilbertSign"), g)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_circulant_block_equals_modulo_gather(self, dtype):
        n = 64
        c = np.random.default_rng(2).standard_normal(n).astype(dtype)
        if dtype is complex:
            c += 1j * np.random.default_rng(3).standard_normal(n)
        r = lambda lo, hi: np.arange(lo, hi)
        blocks = [(r(0, n), r(0, n)), (r(50, 64), r(0, 20)), (r(0, 10), r(40, 64)),
                  (r(3, 4), r(0, n)), (r(0, n), r(17, 18)), (r(9, 10), r(60, 61)),
                  (r(5, 5), r(0, 8)), (r(0, 8), r(5, 5)), (r(5, 5), r(7, 7)),
                  (r(20, 40), r(10, 33))]
        for rows, cols in blocks:
            got = runge._circulant_block(c, rows, cols)
            assert np.array_equal(got, _circulant_block_reference(c, rows, cols))
            assert got.shape == (rows.size, cols.size) and got.dtype == c.dtype
            assert got.flags.c_contiguous and not np.shares_memory(got, c)

    def test_problem_blocks_equal_modulo_gather(self, problem):
        nodes = np.arange(GRID.n)
        o, w = problem.omega_idx, problem.w_idx
        for rows, cols in ((o, o), (o, w), (w, o), (w, w), (nodes, o), (nodes, nodes)):
            assert np.array_equal(_block(problem, rows, cols),
                                  _circulant_block_reference(problem.c, rows, cols))

    def test_hs_gram_matches_fft_of_identity(self, problem):
        weight = (1.0 + GRID.xi ** 2) ** problem.s
        S = np.real(_multiplier_matrix_reference(weight))
        ref = GRID.dx * S[np.ix_(problem.w_idx, problem.w_idx)]
        ref = 0.5 * (ref + ref.T)
        got = _hs_gram(problem)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.array_equal(got, got.T)

    def test_asymmetric_symbol_rejected(self, monkeypatch):
        monkeypatch.setattr(multiplier, "evaluate", lambda spec, xi: xi ** 3)
        with pytest.raises(ValueError, match="asymmetry"):
            build(0.6, 0.0, OMEGA, W, GRID)

    def test_operator_matches_multiplier_on_sine_mode(self):
        p = build(0.5, 0.0, OMEGA, W, GRID)
        k = abs(float(GRID.xi[40]))  # an exact grid frequency, mid-range
        u = np.sin(k * GRID.x)
        out = _full_block(p) @ u
        mid = np.abs(GRID.x) < 2.0
        rel = np.max(np.abs(out[mid] - k * u[mid])) / k
        assert rel <= 1e-2

    def test_symmetry(self, problem):
        T = _full_block(problem)
        assert np.max(np.abs(T - T.T)) <= 1e-10 * np.max(np.abs(T))

    def test_condition_number_drops_with_coercive_potential(self, problem):
        p_big_q = build(0.6, 50.0, OMEGA, W, GRID)
        assert p_big_q.condition_number < problem.condition_number

    def test_empty_exterior_rejected(self):
        with pytest.raises(ValueError):
            build(0.6, 0.0, OMEGA, Interval(3.99, 3.995), GRID)

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            build(0.6, 0.0, OMEGA, Interval(0.5, 2.0), GRID)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf"),
                                   np.array([0.0, 0.1, 0.2])],
                             ids=["nan", "inf", "-inf", "array"])
    def test_nonfinite_or_nonconstant_potential_rejected(self, q):
        with pytest.raises(ValueError, match="finite constant"):
            build(0.6, q, OMEGA, W, GRID)

    def test_s_range(self):
        with pytest.raises(ValueError):
            build(0.3, 0.0, OMEGA, W, GRID)

    def test_condition_number_matches_svd(self, problem):
        sv = np.linalg.svd(_interior_block(problem), compute_uv=False)
        assert problem.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-12)

    def test_dirichlet_eigenvalue_raises_with_near_null_vector(self, problem):
        T_oo = _block(problem, problem.omega_idx, problem.omega_idx)
        q = -np.linalg.eigvalsh(T_oo)[0]     # shifts the lowest eigenvalue to 0
        with pytest.raises(DirichletEigenvalueError) as info:
            build(0.6, q, OMEGA, W, GRID)
        v = info.value.near_null
        B = T_oo + q * np.eye(T_oo.shape[0])
        assert v.shape == problem.omega_idx.shape
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(B @ v) <= 1e-8 * np.linalg.norm(B, 2)

    def test_no_n_by_n_array(self):
        """At the benchmark's n = 2048, build and poisson_svd each peak below
        the 8 n^2 bytes of one n x n float64 matrix: the operator is kept as
        its column and only the blocks read are gathered."""
        g = Grid(4.0, 2048)
        bound = 8 * g.n ** 2
        tracemalloc.start()
        try:
            p = build(0.6, 0.0, OMEGA, W, g)
            peak_build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            poisson_svd(p)
            peak_svd = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_build < bound
        assert peak_svd < bound


class TestFold:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 513])
    def test_reflection_is_symmetric_orthogonal_involution(self, n):
        P = runge._fold(np.eye(n))
        assert np.max(np.abs(P - P.T)) <= 1e-15
        assert np.max(np.abs(P @ P.T - np.eye(n))) <= 1e-15
        X = np.random.default_rng(n).standard_normal((n, 3))
        for x in (X, X[:, 0]):
            back = runge._fold(runge._fold(x))
            assert np.all(np.abs(back - x) <= 4 * np.spacing(np.max(np.abs(x))))

    @pytest.mark.parametrize("m", [6, 7, 128, 129])
    def test_symmetric_toeplitz_splits_exactly(self, m):
        col = np.random.default_rng(m).standard_normal(m)
        M = col[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
        F = runge._fold(runge._fold(M).T)
        h = (m + 1) // 2
        assert np.all(F[:h, h:] == 0.0) and np.all(F[h:, :h] == 0.0)
        assert np.array_equal(F, F.T)


class TestReflectionSplit:
    """build at an odd |Omega| (the default Omega, 129 nodes) and an even one
    (Omega = [-1, 0.99], 128 nodes)."""

    @pytest.fixture(params=[OMEGA, Interval(-1.0, 0.99)], ids=["odd", "even"])
    def omega(self, request):
        return request.param

    def test_node_count_parity(self, omega):
        m = build(0.6, 0.0, omega, W, GRID).omega_idx.size
        assert m == (129 if omega is OMEGA else 128)

    @pytest.mark.parametrize("q", [0.0, -0.7, 2.5])
    def test_solve_and_condition_number(self, omega, q):
        p = build(0.6, q, omega, W, GRID)
        B = _interior_block(p)
        X = np.random.default_rng(6).standard_normal((p.omega_idx.size, 3))
        for rhs in (X, X[:, 0]):
            ref = np.linalg.solve(B, rhs)
            assert np.linalg.norm(p.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)
        sv = np.linalg.svd(B, compute_uv=False)
        assert p.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-12)

    @pytest.mark.parametrize("which", [0, 1], ids=["lowest", "second"])
    def test_near_null_vector(self, omega, which):
        # the two lowest eigenvalues of T_OO have even and odd eigenvectors,
        # so the near-null vector comes from each half in turn
        p = build(0.6, 0.0, omega, W, GRID)
        T_oo = _block(p, p.omega_idx, p.omega_idx)
        q = -np.linalg.eigvalsh(T_oo)[which]
        with pytest.raises(DirichletEigenvalueError) as info:
            build(0.6, q, omega, W, GRID)
        v = info.value.near_null
        B = T_oo + q * np.eye(T_oo.shape[0])
        assert v.shape == p.omega_idx.shape
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(B @ v) <= 1e-8 * np.linalg.norm(B, 2)

    def test_two_half_size_eigensolves(self, omega, monkeypatch):
        calls = _linalg_calls(monkeypatch, lambda: build(0.6, 0.0, omega, W, GRID))
        m = build(0.6, 0.0, omega, W, GRID).omega_idx.size
        assert [(name, shape) for name, shape, _ in calls] == \
            [("eigh", ((m + 1) // 2,) * 2), ("eigh", (m // 2,) * 2)]


class TestInteriorSolve:
    @pytest.mark.parametrize("indefinite", [False, True], ids=["q0", "indefinite_q"])
    def test_solve_matches_lu(self, problem, indefinite):
        p = problem
        if indefinite:
            # a constant q halfway between the two lowest eigenvalues of T_OO
            # leaves one eigenvalue of the block negative and none near 0
            lam = np.linalg.eigvalsh(_block(problem, problem.omega_idx, problem.omega_idx))
            p = build(0.6, -0.5 * (lam[0] + lam[1]), OMEGA, W, GRID)
            assert sum(np.sum(lam < 0) for lam, _ in p.eig) == 1
        X = np.random.default_rng(5).standard_normal((p.omega_idx.size, 4))
        for rhs in (X, X[:, 0]):
            ref = np.linalg.solve(_interior_block(p), rhs)
            assert np.linalg.norm(p.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestSolveDirichlet:
    def test_zero_data_zero_solution(self, problem):
        u = solve_dirichlet(problem, np.zeros(problem.w_idx.size))
        assert np.max(np.abs(u.values)) == 0.0

    def test_boundary_values_imposed(self, problem):
        f = np.linspace(1.0, 2.0, problem.w_idx.size)
        u = solve_dirichlet(problem, f)
        assert np.allclose(u.values[problem.w_idx], f)
        exterior = np.ones(GRID.n, dtype=bool)
        exterior[problem.omega_idx] = False
        exterior[problem.w_idx] = False
        assert np.all(u.values[exterior] == 0.0)

    def test_linearity(self, problem, rng):
        f1 = rng.standard_normal(problem.w_idx.size)
        f2 = rng.standard_normal(problem.w_idx.size)
        u12 = solve_dirichlet(problem, f1 + f2)
        u1 = solve_dirichlet(problem, f1)
        u2 = solve_dirichlet(problem, f2)
        assert np.max(np.abs(u12.values - u1.values - u2.values)) <= \
            1e-10 * np.max(np.abs(u12.values))

    def test_manufactured_solution(self, problem):
        ustar = np.zeros(GRID.n)
        ustar[problem.omega_idx] = make_bump(
            Interval(-0.8, 0.8), 0.0, 1.0, GRID).values[problem.omega_idx]
        Fstar = (_full_block(problem) @ ustar)[problem.omega_idx] \
            + problem.q * ustar[problem.omega_idx]
        u = solve_dirichlet(problem, np.zeros(problem.w_idx.size),
                            F_interior=Fstar)
        err = np.max(np.abs(u.values[problem.omega_idx]
                            - ustar[problem.omega_idx]))
        assert err <= 1e-8 * np.max(np.abs(ustar))

    def test_energy_bound_recorded(self, problem, rng):
        # a-priori estimate: solution H^s energy controlled by the data
        f = rng.standard_normal(problem.w_idx.size)
        u = solve_dirichlet(problem, f)
        data_norm = math.sqrt(GRID.dx) * np.linalg.norm(f)
        assert norm(u, "Hs", s=problem.s) <= 50.0 * data_norm


class TestPoissonSVD:
    def test_sigma_nonincreasing_positive_head(self, svd):
        sig = svd.sigma
        assert np.all(np.diff(sig) <= 1e-15)
        assert np.all(sig[:30] > 0)

    def test_orthonormality(self, problem, svd):
        r_phi, r_w = _orthonormality_residuals(problem, svd)
        assert r_phi <= 1e-10 and r_w <= 1e-10

    @pytest.mark.parametrize("n", [512, 2048])
    def test_orthonormality_to_roundoff(self, n):
        p = build(0.6, 0.0, OMEGA, W, Grid(4.0, n))
        r_phi, r_w = _orthonormality_residuals(p, poisson_svd(p))
        assert r_phi <= 1e-13 and r_w <= 1e-13

    @pytest.mark.parametrize("s", [0.5, 0.6, 0.9])
    def test_certificate_bounds_the_whitened_residual(self, s):
        # with X = A - Q Q^T A for any orthonormal Q, ||Atil - Q Q^T Atil||_F
        # is at most ||X||_F and at most the H^-s norm of X's zero-extended
        # rows, each over sqrt(1 - slack): lambda_min(G) >= dx min(weight) by
        # interlacing, and dx G^-1 = C_WW^-1 is below (C^-1)_WW for C the
        # weight's circulant
        p = build(s, 0.0, OMEGA, W, GRID)
        G = _hs_gram(p)
        weight = (1.0 + GRID.xi ** 2) ** s
        lam = np.linalg.eigvalsh(G)[0]
        assert lam >= GRID.dx * weight.min()
        scale = 1.0 / math.sqrt(1.0 - _certificate_slack(p))
        assert math.sqrt(GRID.dx / lam) <= scale
        A = -np.linalg.solve(_interior_block(p), _block(p, p.omega_idx, p.w_idx))
        R = np.linalg.cholesky(G).T
        Atil = math.sqrt(GRID.dx) * np.linalg.solve(R.T, A.T).T
        rng = np.random.default_rng(4)
        Qs = [np.linalg.qr(A @ rng.standard_normal((A.shape[1], k)))[0] for k in (5, 20, 48)]
        Qs.append(np.linalg.qr(rng.standard_normal((A.shape[0], 30)))[0])
        for Q in Qs:
            X = A - Q @ (Q.T @ A)
            whitened = np.linalg.norm(Atil - Q @ (Q.T @ Atil))
            hneg = math.sqrt(np.sum(np.abs(np.fft.fft(X, GRID.n, axis=1)) ** 2 / weight)
                             / GRID.n)
            assert 0 < whitened <= scale * min(np.linalg.norm(X), hneg)

    @pytest.mark.parametrize("s,n", [(0.6, 512), (0.6, 2048), (0.9, 2048)])
    def test_one_gram_solve_with_at_most_width_columns(self, monkeypatch, s, n):
        # the one solve against the H^s(W) Gram runs as two half-size solves
        # with the blocks of its reflection split, and no |W| x |W| one is
        # made; at s = 0.9, n = 2048, ||X||_F exceeds the floor at width 48
        # and the H^-s bound certifies it, so the width does not double
        problem = build(s, 0.0, OMEGA, W, Grid(4.0, n))
        calls = _linalg_calls(monkeypatch, lambda: poisson_svd(problem))
        m = problem.w_idx.size
        big = [c for c in calls if min(c[1]) > runge._SKETCH_WIDTH]
        assert [(name, shape) for name, shape, _ in big] == \
            [("solve", ((m + 1) // 2,) * 2), ("solve", (m // 2,) * 2)]
        assert all(rhs[1] <= runge._SKETCH_WIDTH for _, _, rhs in big)
        assert not any(c[1] == (m, m) for c in calls)
        assert sum(c[0] == "cholesky" for c in calls) == 2

    def test_sigma1_below_apriori_bound(self, problem, svd, rng):
        # operator norm of A bounded by the recorded energy constant
        worst = 0.0
        for _ in range(10):
            f = rng.standard_normal(problem.w_idx.size)
            u = solve_dirichlet(problem, f)
            un = math.sqrt(GRID.dx) * np.linalg.norm(u.values[problem.omega_idx])
            fn = math.sqrt(GRID.dx) * np.linalg.norm(f)
            worst = max(worst, un / fn)
        assert svd.sigma[0] <= 50.0 * worst

    def test_log_sigma_linear_fit(self, svd):
        slope, r2 = sigma_decay_fit(svd, j_max=30)
        assert slope < 0 and r2 >= 0.98

    def test_numerical_rank_grows_with_grid(self, problem, svd):
        g2 = Grid(4.0, 1024)
        p2 = build(0.6, 0.0, OMEGA, W, g2)
        s2 = poisson_svd(p2)
        rank = lambda s: int(np.sum(s.sigma >= runge._SIGMA_FLOOR * s.sigma[0]))
        assert rank(s2) > rank(svd)

    @pytest.mark.parametrize("n", [512, 2048])
    def test_truncated_svd_matches_dense_reference(self, n):
        g = Grid(4.0, n)
        p = build(0.6, 0.0, OMEGA, W, g)
        _assert_matches_reference(p, poisson_svd(p), _poisson_svd_reference(p))

    @pytest.mark.parametrize("width", [8, 1024], ids=["doubling", "full_svd"])
    def test_sketch_width_paths_match_dense_reference(self, problem, monkeypatch,
                                                      width):
        # width 8 is below the rank, so the certificate fails until the width
        # has doubled past it; width 1024 exceeds min(|Omega|, |W|) and takes
        # the full SVD at once
        monkeypatch.setattr(runge, "_SKETCH_WIDTH", width)
        got = poisson_svd(problem)
        assert got.sigma.size > 8
        _assert_matches_reference(problem, got, _poisson_svd_reference(problem))

    def test_sketch_leaves_global_rng_alone(self, problem):
        before = np.random.get_state()
        poisson_svd(problem)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]


def _assert_matches_reference(p, got, ref):
    """sigma_1..sigma_10 within 1e-10 relative of the dense SVD's, the same
    numerical rank, and the same k and floor at every eps of the sweep."""
    assert np.all(np.abs(got.sigma[:10] - ref.sigma[:10]) <= 1e-10 * ref.sigma[:10])
    assert got.sigma.size == int(np.sum(ref.sigma >= runge._SIGMA_FLOOR * ref.sigma[0]))
    v = make_bump(Interval(-0.9, 0.9), 0.0, 0.5, p.grid).values[p.omega_idx]
    v = v / (math.sqrt(p.grid.dx) * np.linalg.norm(v))
    rows, _ = epsilon_sweep(p, v, svd=got)
    ref_rows, _ = epsilon_sweep(p, v, svd=ref)
    assert [(r["k"], r["floor"]) for r in rows] == \
        [(r["k"], r["floor"]) for r in ref_rows]


class TestRungeApproximate:
    def test_rank_one_target_exact(self, problem, svd):
        v = svd.w[:, 0]
        f_eps, achieved, cost, k, floor = runge_approximate(
            problem, v, 0.5, svd=svd)
        assert achieved <= 1e-10 and k == 1 and not floor

    def test_cost_monotone_in_accuracy(self, problem, bump_target, svd):
        _, _, cost_loose, _, _ = runge_approximate(problem, bump_target, 0.5,
                                                   svd=svd)
        _, _, cost_tight, _, _ = runge_approximate(problem, bump_target, 0.05,
                                                   svd=svd)
        assert cost_tight >= cost_loose

    def test_zero_target_rejected(self, problem):
        with pytest.raises(ValueError):
            runge_approximate(problem, np.zeros(problem.omega_idx.size), 0.1)

    def test_eps_range_guard(self, problem, bump_target):
        with pytest.raises(ValueError):
            runge_approximate(problem, bump_target, 1.5)

    def test_sweep_all_achieved_with_fit(self, problem, bump_target):
        rows, fit = epsilon_sweep(problem, bump_target)
        for row in rows:
            assert row["achieved"] <= row["eps"] and not row["floor"]
        costs = [row["cost"] for row in rows]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
        assert fit["mu_hat"] > 0 and fit["r_squared"] >= 0.9

    def test_sweep_reuses_given_svd(self, problem, bump_target, svd):
        assert epsilon_sweep(problem, bump_target, svd=svd) == epsilon_sweep(
            problem, bump_target)


def _envelope_fit_reference(rows):
    """The mu scan as 400 separate least-squares fits, strict > between them."""
    y = np.log([row["cost"] for row in rows])
    eps_arr = np.array([row["eps"] for row in rows])
    best = None
    for mu in np.linspace(0.05, 4.0, 400):
        c0, c1, r2 = polyx.linear_fit(eps_arr ** (-mu), y)
        if c1 > 0 and (best is None or r2 > best[3]):
            best = (mu, c0, c1, r2)
    if best is None:
        return {"mu_hat": 0.0, "C": float(np.exp(np.mean(y))), "C2": 0.0,
                "r_squared": 0.0}
    mu, c0, c1, r2 = best
    return {"mu_hat": float(mu), "C": math.exp(c0), "C2": c1, "r_squared": r2}


class TestEnvelopeFit:
    def test_criterion_9_rows_match_reference(self, problem, bump_target, svd):
        rows, fit = epsilon_sweep(problem, bump_target, svd=svd)
        assert fit["mu_hat"] > 0
        assert fit == _envelope_fit_reference(rows)

    def test_fine_grid_rows_match_reference(self):
        g = Grid(4.0, 2048)
        p = build(0.6, 0.0, OMEGA, W, g)
        v = make_bump(Interval(-0.9, 0.9), 0.0, 0.5, g).values[p.omega_idx]
        rows, fit = epsilon_sweep(p, v / (math.sqrt(g.dx) * np.linalg.norm(v)))
        assert fit["mu_hat"] > 0
        assert fit == _envelope_fit_reference(rows)

    @pytest.mark.parametrize("costs", [[9.0, 7.0, 5.0, 4.0, 3.5],
                                       np.exp([0.0, 1.0, 1.1, 1.1, 0.3]).tolist()],
                             ids=["decreasing", "slope_sign_changes_with_mu"])
    def test_synthetic_costs_match_reference(self, costs):
        eps = [0.5, 0.2, 0.1, 0.05, 0.02]
        fit = runge._envelope_fit(np.array(eps), np.log(costs))
        assert fit == _envelope_fit_reference(
            [{"eps": e, "cost": c} for e, c in zip(eps, costs)])

    @pytest.mark.parametrize("costs", [[3.7] * 5, [7.1] * 5, [9.0, 7.0, 5.0, 4.0, 3.5]],
                             ids=["constant", "constant_mean_off_by_an_ulp", "decreasing"])
    def test_no_positive_slope_falls_back(self, costs):
        # for constant costs the reference loop does not: lstsq leaves a slope
        # of rounding size, positive at some mu, where every R^2 is 1
        with np.errstate(all="raise"):
            fit = runge._envelope_fit(np.array([0.5, 0.2, 0.1, 0.05, 0.02]), np.log(costs))
        assert fit == {"mu_hat": 0.0, "C": pytest.approx(np.exp(np.mean(np.log(costs)))),
                       "C2": 0.0, "r_squared": 0.0}


class TestDualUCP:
    def test_zero_target(self, problem):
        rep = dual_ucp_experiment(problem, np.zeros(problem.omega_idx.size))
        assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0

    def test_rhs_positive_for_random_targets(self, problem, rng):
        for _ in range(50):
            v = rng.standard_normal(problem.omega_idx.size)
            rep = dual_ucp_experiment(problem, v)
            vnorm = math.sqrt(GRID.dx) * np.linalg.norm(v)
            assert rep["rhs"] / vnorm >= 1e-12

    def test_scaling_linearity(self, problem, rng):
        v = rng.standard_normal(problem.omega_idx.size)
        a = dual_ucp_experiment(problem, v)
        b = dual_ucp_experiment(problem, 3.0 * v)
        assert b["lhs"] == pytest.approx(3.0 * a["lhs"], rel=1e-10)
        assert b["rhs"] == pytest.approx(3.0 * a["rhs"], rel=1e-10)

    def test_equivalence_constant_recorded(self, problem, rng):
        consts = []
        for _ in range(10):
            v = rng.standard_normal(problem.omega_idx.size)
            consts.append(dual_ucp_experiment(problem, v)["equivalence_constant"])
        c = max(max(consts), 1.0 / min(consts))
        assert c < 100.0


class TestDualUCPStacked:
    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_stacked_targets_match_single_calls(self, q):
        p = build(0.6, q, OMEGA, W, GRID)
        V = np.random.default_rng(8).standard_normal((7, p.omega_idx.size))
        reports = dual_ucp_experiment(p, V)
        assert isinstance(reports, list) and len(reports) == len(V)
        for v, rep in zip(V, reports):
            one = dual_ucp_experiment(p, v)
            assert isinstance(one, dict)
            assert rep["lhs"] == one["lhs"]
            for key in ("rhs", "w_hs", "equivalence_constant"):
                assert rep[key] == pytest.approx(one[key], rel=1e-13, abs=0.0)
            w1, w2 = one["w"].values, rep["w"].values
            assert np.max(np.abs(w2 - w1)) <= 1e-13 * np.max(np.abs(w1))

    def test_bad_shapes_rejected(self, problem):
        m = problem.omega_idx.size
        for bad in (np.zeros(m + 1), np.zeros((2, m - 1)), np.zeros((1, 2, m))):
            with pytest.raises(ValueError):
                dual_ucp_experiment(problem, bad)


class TestReciprocity:
    def test_matrix_level_duality(self, problem):
        assert reciprocity_defect(problem, 0) <= 1e-8

    def test_detects_one_perturbed_coupling_entry(self, problem):
        # one column entry: it moves one diagonal of T_OW, and neither T_WO
        # nor T_OO reads it
        c = problem.c.copy()
        c[(problem.omega_idx[3] - problem.w_idx[5]) % GRID.n] *= 1.0 + 1e-6
        perturbed = dataclasses.replace(problem, c=c)
        assert reciprocity_defect(perturbed, 0) > 1e-13
