import numpy as np
import pytest

from gridstate.bdu import (
    RobustProblem,
    UncertaintyStructure,
    _Evaluator,
    bdu_solve,
    g_of_lambda,
    lambda_approx,
    min_g,
    null_uncertainty,
    spectral_norm_strs,
    worst_case_objective,
)
from gridstate.errors import ValidationError


def _random_problem(rng, m=None, n=None, q=None, s_scale=0.5, e_scale=0.4, ez_scale=0.2):
    n = n or int(rng.integers(1, 4))
    q = q or int(rng.integers(1, 4))
    m = m or n + 2 + int(rng.integers(0, 3))
    h = rng.standard_normal((m, n))
    x_true = rng.standard_normal(n)
    z = h @ x_true + 0.1 * rng.standard_normal(m)
    r = np.diag(rng.uniform(0.5, 2.0, m))
    s = s_scale * rng.standard_normal((m, q))
    e_h = e_scale * rng.standard_normal((q, n))
    e_z = ez_scale * rng.standard_normal(q)
    return RobustProblem(z, h, r, UncertaintyStructure(s, e_h, e_z))


def _weighted_ls(p):
    return np.linalg.solve(p.h.T @ p.r @ p.h, p.h.T @ p.r @ p.z)


# --- brute-force min-max oracle (n <= 2, q <= 2) ---------------------------


def _inner_max_grid(x_grid, p, n_dirs=2048):
    """Vectorized inner maximum over the boundary of the y-ball for a batch
    of x points, with the analytic linear-term direction included."""
    u = p.uncertainty
    v = x_grid @ p.h.T - p.z  # (N, m)
    nominal = np.einsum("im,mk,ik->i", v, p.r, v)
    phi = np.linalg.norm(x_grid @ u.e_h.T - u.e_z, axis=1)
    if u.q == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    su = p.r @ u.s @ dirs.T  # (m, K)
    lin = v @ su  # (N, K)
    quad = np.einsum("mk,mn,nk->k", u.s @ dirs.T, p.r, u.s @ dirs.T)
    vals = nominal[:, None] + 2.0 * phi[:, None] * lin + (phi**2)[:, None] * quad[None, :]
    best = vals.max(axis=1)
    # analytic candidate: y aligned with S' R v
    lin_dir = v @ (p.r @ u.s)  # (N, q)
    norms = np.linalg.norm(lin_dir, axis=1)
    ok = norms > 0
    if ok.any():
        d = np.zeros_like(lin_dir)
        d[ok] = lin_dir[ok] / norms[ok, None]
        y = phi[:, None] * d
        t = v + y @ u.s.T
        cand = np.einsum("im,mk,ik->i", t, p.r, t)
        best = np.maximum(best, cand)
    return best


def grid_minmax(p, center, half=2.0, rounds=6, pts=41):
    """Coarse-to-fine grid search for the outer minimization (n <= 2)."""
    n = p.h.shape[1]
    lo = np.asarray(center, dtype=float) - half
    hi = np.asarray(center, dtype=float) + half
    arg = np.asarray(center, dtype=float)
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        x_grid = np.stack([g.ravel() for g in mesh], axis=1)
        vals = _inner_max_grid(x_grid, p)
        k = int(np.argmin(vals))
        arg = x_grid[k]
        pitch = (hi - lo) / (pts - 1)
        lo = arg - 1.5 * pitch
        hi = arg + 1.5 * pitch
    return arg, float(_inner_max_grid(arg[None, :], p, n_dirs=8192)[0])


# --- reductions -------------------------------------------------------------


def test_reduction_to_weighted_ls():
    rng = np.random.default_rng(20)
    for _ in range(50):
        if rng.random() < 0.5:
            p = _random_problem(rng, s_scale=0.0)  # S = 0
        else:
            p = _random_problem(rng, e_scale=0.0, ez_scale=0.0)  # E = 0
        sol = bdu_solve(p, "exact")
        assert np.abs(sol.x - _weighted_ls(p)).max() < 1e-10
        sol_a = bdu_solve(p, "approx", mu=2.0)
        assert np.abs(sol_a.x - _weighted_ls(p)).max() < 1e-10


def test_scalar_instance_matches_grid_oracle():
    p = RobustProblem(
        np.array([1.0]),
        np.array([[1.0]]),
        np.array([[1.0]]),
        UncertaintyStructure(np.array([[1.0]]), np.array([[0.5]]), np.array([0.0])),
    )
    sol = bdu_solve(p, "exact")
    x_grid, val_grid = grid_minmax(p, np.array([1.0]))
    assert abs(sol.x[0] - x_grid[0]) < 1e-3
    assert abs(sol.worst_case - val_grid) < 1e-3


def test_saddle_correctness_desk_scale():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        p = _random_problem(rng, n=n, q=q)
        sol = bdu_solve(p, "exact")
        x_grid, val_grid = grid_minmax(p, _weighted_ls(p))
        assert np.abs(sol.x - x_grid).max() < 1e-3
        assert abs(sol.worst_case - val_grid) < 1e-3 * (1.0 + abs(val_grid))


# --- G(lambda) --------------------------------------------------------------


def test_g_recomposition_oracle():
    rng = np.random.default_rng(9)
    p = _random_problem(rng, m=6, n=3, q=2)
    u = p.uncertainty
    lam0 = spectral_norm_strs(u.s, p.r)
    for lam in (lam0 * 1.1, lam0 * 2.0, lam0 + 5.0):
        got = g_of_lambda(lam, p)
        # independent recomposition with generic pinv/solve calls
        strs = u.s.T @ p.r @ u.s
        r_lam = p.r + p.r @ u.s @ np.linalg.pinv(lam * np.eye(u.q) - strs) @ u.s.T @ p.r
        lhs = lam * u.e_h.T @ u.e_h + p.h.T @ r_lam @ p.h
        x_lam = np.linalg.solve(lhs, p.h.T @ r_lam @ p.z + lam * u.e_h.T @ u.e_z)
        res = p.h @ x_lam - p.z
        expect = lam * np.sum((u.e_h @ x_lam - u.e_z) ** 2) + res @ r_lam @ res
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_g_constant_when_structure_degenerate():
    rng = np.random.default_rng(14)
    p = _random_problem(rng, m=5, n=2, q=1, s_scale=0.0, e_scale=0.0, ez_scale=0.0)
    vals = [g_of_lambda(lam, p) for lam in (0.0, 1.0, 10.0, 100.0)]
    assert max(vals) - min(vals) < 1e-12 * (1.0 + abs(vals[0]))


def test_g_boundary_evaluation_finite():
    rng = np.random.default_rng(25)
    for _ in range(10):
        p = _random_problem(rng)
        lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
        val = g_of_lambda(lam0, p)
        assert np.isfinite(val)
        # pseudoinverse-consistent: approaching from above converges to it
        near = g_of_lambda(lam0 * (1.0 + 1e-9) + 1e-12, p)
        assert val == pytest.approx(near, rel=1e-4, abs=1e-8)


def test_g_domain_error():
    rng = np.random.default_rng(2)
    p = _random_problem(rng, s_scale=1.0)
    lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
    with pytest.raises(ValidationError):
        g_of_lambda(0.5 * lam0, p)


# --- the lambda optimizer ---------------------------------------------------


def test_min_g_matches_grid_scan():
    rng = np.random.default_rng(33)
    for _ in range(20):
        p = _random_problem(rng)
        lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
        lam_hat = min_g(p)
        assert lam_hat >= lam0 - 1e-12
        ev = _Evaluator(p)
        span = max(4.0 * (lam_hat - lam0), 2.0 * max(lam0, 1.0))
        grid = np.linspace(lam0, lam0 + span, 10_000)
        vals = [ev.g(l) for l in grid]
        lam_grid = grid[int(np.argmin(vals))]
        pitch = span / (len(grid) - 1)
        assert abs(lam_hat - lam_grid) <= pitch + 1e-9 * (1.0 + lam_grid)


def test_min_g_degenerate_returns_left_endpoint():
    rng = np.random.default_rng(3)
    p = _random_problem(rng, s_scale=0.0, e_scale=0.0, ez_scale=0.0)
    assert min_g(p) == 0.0


def test_lambda_approx():
    assert lambda_approx(0.0, np.eye(3), np.eye(3)) == pytest.approx(1.0)
    assert lambda_approx(1.0, np.eye(3), np.eye(3)) == pytest.approx(2.0)
    rng = np.random.default_rng(6)
    p = _random_problem(rng)
    lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
    assert lambda_approx(0.0, p.uncertainty.s, p.r) == pytest.approx(lam0)
    with pytest.raises(ValidationError):
        lambda_approx(-0.1, p.uncertainty.s, p.r)


def test_approx_lambda_never_beats_exact_g():
    # G at the practical lambda is at best the exact minimum
    rng = np.random.default_rng(18)
    for _ in range(10):
        p = _random_problem(rng)
        ev = _Evaluator(p)
        g_star = ev.g(min_g(p))
        for mu in (0.0, 0.5, 1.0, 5.0):
            lam = lambda_approx(mu, p.uncertainty.s, p.r)
            assert ev.g(lam) >= g_star - 1e-6 * (1.0 + abs(g_star))


# --- worst-case sampling oracle ---------------------------------------------


def test_worst_case_zero_radius_is_nominal():
    rng = np.random.default_rng(40)
    p = _random_problem(rng, e_scale=0.0, ez_scale=0.0)
    x = _weighted_ls(p)
    res = p.h @ x - p.z
    assert worst_case_objective(x, p, 64, 0) == pytest.approx(res @ p.r @ res)


def test_worst_case_scalar_closed_form():
    p = RobustProblem(
        np.array([2.0]),
        np.array([[1.0]]),
        np.array([[1.5]]),
        UncertaintyStructure(np.array([[0.7]]), np.array([[0.5]]), np.array([0.3])),
    )
    x = np.array([1.2])
    phi = abs(0.5 * 1.2 - 0.3)
    expect = 1.5 * (abs(1.2 - 2.0) + phi * 0.7) ** 2
    assert worst_case_objective(x, p, 16, 0) == pytest.approx(expect, abs=1e-9)


def test_robust_worst_case_beats_ls():
    rng = np.random.default_rng(55)
    better = 0
    total = 120
    for k in range(total):
        p = _random_problem(rng, s_scale=1.0, e_scale=0.8, ez_scale=0.5)
        x_r = bdu_solve(p, "exact").x
        x_ls = _weighted_ls(p)
        wr = worst_case_objective(x_r, p, 256, seed=k)
        wl = worst_case_objective(x_ls, p, 256, seed=k)
        better += wr <= wl * (1.0 + 1e-9)
    assert better >= 0.95 * total


# --- invariants -------------------------------------------------------------


def test_pseudoinverse_is_plain_inverse_above_bound():
    rng = np.random.default_rng(60)
    p = _random_problem(rng, q=3)
    u = p.uncertainty.s.T @ p.r @ p.uncertainty.s
    lam = spectral_norm_strs(p.uncertainty.s, p.r) * 1.7
    m = lam * np.eye(3) - u
    assert np.abs(m @ np.linalg.pinv(m) - np.eye(3)).max() < 1e-10


def test_scaling_homogeneity():
    rng = np.random.default_rng(71)
    for _ in range(10):
        p = _random_problem(rng)
        sol = bdu_solve(p, "exact")
        c = 3.7
        p2 = RobustProblem(
            c * p.z, p.h, p.r,
            UncertaintyStructure(p.uncertainty.s, p.uncertainty.e_h, c * p.uncertainty.e_z),
        )
        sol2 = bdu_solve(p2, "exact")
        assert np.abs(sol2.x - c * sol.x).max() < 1e-6 * (1.0 + np.abs(c * sol.x).max())


def test_lambda_at_least_bound_always():
    rng = np.random.default_rng(81)
    for _ in range(15):
        p = _random_problem(rng)
        lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
        for strat, mu in (("exact", 1.0), ("approx", 0.0), ("approx", 3.0)):
            sol = bdu_solve(p, strat, mu)
            assert sol.lam >= lam0 - 1e-12
            scale = max(1.0, np.abs(sol.r_hat).max())
            assert np.abs(sol.r_hat - sol.r_hat.T).max() < 1e-12 * scale


def test_dimension_validation():
    with pytest.raises(ValidationError):
        RobustProblem(np.ones(3), np.ones((4, 2)), np.eye(4), null_uncertainty(4, 2))
    with pytest.raises(ValidationError):
        RobustProblem(np.ones(4), np.ones((4, 2)), np.eye(3), null_uncertainty(4, 2))
    with pytest.raises(ValidationError):
        UncertaintyStructure(np.ones((4, 1)), np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValidationError):
        bdu_solve(_random_problem(np.random.default_rng(0)), "magic")


def _dense_cov(p, lam):
    """Oracle covariance of x(lam) for data of covariance R^-1: A R^-1 A'
    with A = N^-1 H' R_hat, everything dense."""
    u = p.uncertainty
    strs = u.s.T @ p.r @ u.s
    lam0 = float(np.linalg.eigvalsh(0.5 * (strs + strs.T))[-1])
    lam = max(lam, lam0 + 1e-12 * max(1.0, lam0))
    r_hat = p.r + p.r @ u.s @ np.linalg.inv(lam * np.eye(u.q) - strs) @ u.s.T @ p.r
    a = np.linalg.solve(lam * u.e_h.T @ u.e_h + p.h.T @ r_hat @ p.h, p.h.T @ r_hat)
    return a @ np.linalg.inv(p.r) @ a.T


def test_solution_covariance_matches_dense_sandwich():
    rng = np.random.default_rng(93)
    for _ in range(10):
        p = _random_problem(rng, m=7, n=3, q=2)
        c = rng.standard_normal((7, 7))
        p = RobustProblem(p.z, p.h, c @ c.T + np.eye(7), p.uncertainty)  # dense R
        # approx lambda keeps off the domain edge, where both forms lose
        # digits to the 1e12 weight of the top eigen-direction
        for mu in (0.5, 3.0):
            sol = bdu_solve(p, "approx", mu)
            ref = _dense_cov(p, sol.lam)
            assert np.abs(sol.cov - ref).max() <= 1e-9 * np.abs(ref).max()
        reduced = bdu_solve(RobustProblem(p.z, p.h, p.r, null_uncertainty(7, 3)))
        ref = np.linalg.inv(p.h.T @ p.r @ p.h)
        assert np.abs(reduced.cov - ref).max() <= 1e-12 * np.abs(ref).max()


def test_exact_lambda_builds_one_evaluator(monkeypatch):
    from gridstate import bdu

    rng = np.random.default_rng(94)
    problems = [_random_problem(rng) for _ in range(5)]
    expected = [min_g(p) for p in problems]
    built = []

    class Counting(_Evaluator):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(bdu, "_Evaluator", Counting)
    for p, lam in zip(problems, expected):
        built.clear()
        sol = bdu_solve(p, "exact")
        assert len(built) == 1
        assert sol.lam == lam  # sharing the evaluator leaves the search bit-identical
        built.clear()
        sol = bdu_solve(p, "approx", 2.0)
        assert len(built) == 1
        assert sol.lam == pytest.approx(lambda_approx(2.0, p.uncertainty.s, p.r), rel=1e-12)
