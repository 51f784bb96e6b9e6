import numpy as np
import pytest

from gridstate.bdu import (
    RobustProblem,
    UncertaintyStructure,
    g_of_lambda,
    lambda_approx,
    min_g,
    null_uncertainty,
    worst_case_objective,
)
from gridstate.errors import NumericalError, ValidationError
from gridstate.hybrid import (
    PmuBlock,
    apply_perturbation,
    build_hybrid_model,
    hybrid_solve,
    hybrid_solve_robust,
    pmu_block,
    sample_delta,
    uncertainty_for_model,
)
from gridstate.measurement import MeasurementSet, ModelView
from gridstate.multiarea import _pmu_ref_anchor, split_measurements
from gridstate.wls import PolarModel, wls_estimate
from tests.conftest import synth_zero


def _level1_inputs(net30, part30, specs30, truth30, area_idx, rng=None, cfg=None):
    from gridstate.measurement import synthesize

    view = ModelView.for_area(net30, part30, area_idx)
    if rng is None:
        mset = synth_zero(ModelView.full(net30), truth30, specs30)
    else:
        mset = synthesize(ModelView.full(net30), truth30, specs30, cfg.sigma_for, rng)
    scada, pmu = split_measurements(part30, mset)
    anchor = _pmu_ref_anchor(pmu[area_idx], part30.areas[area_idx - 1].ref_bus)
    tse_set = MeasurementSet(tuple(scada[area_idx]) + anchor)
    model = PolarModel(view, tuple(tse_set), pin_angle=not anchor)
    tse = wls_estimate(tse_set, model, tol=1e-9, k_limit=30)
    return view, tse, pmu[area_idx]


def _build(tse, pmu, view):
    """The hybrid model of a traditional estimate plus every row of ``pmu``."""
    return build_hybrid_model(tse, pmu_block(view, pmu.specs, range(len(pmu))), pmu)


def _dense_w(m):
    """The model's whole W as one dense matrix."""
    n2 = m.n_state
    w = np.zeros((len(m.z), len(m.z)))
    w[:n2, :n2] = m.w_pseudo
    w[n2:, n2:] = np.diag(m.w_pmu)
    return w


def _dense_whitener(w):
    """Oracle W^-1/2 from one eigh of the whole W, clipped at its scale."""
    evals, vecs = np.linalg.eigh(0.5 * (w + w.T))
    scale = max(float(evals[-1]), 1e-300)
    if evals[0] < -1e-8 * scale:
        raise NumericalError("hybrid covariance is not positive definite")
    evals = np.clip(evals, 1e-14 * scale, None)
    return (vecs / np.sqrt(evals)) @ vecs.T


def _dense_problem(m, unc):
    """The whitened robust problem built through the dense whitener."""
    w_isqrt = _dense_whitener(_dense_w(m))
    return RobustProblem(w_isqrt @ m.z, w_isqrt @ m.h, np.ones(len(m.z)),
                         UncertaintyStructure(w_isqrt @ unc.s, unc.e_h, unc.e_z))


def _oracle_plain(m):
    """Dense WLS: x from lstsq on the dense-whitened stack, cov = inv(H' W^-1 H)."""
    w = _dense_w(m)
    w_isqrt = _dense_whitener(w)
    x = np.linalg.lstsq(w_isqrt @ m.h, w_isqrt @ m.z, rcond=None)[0]
    return x, np.linalg.inv(m.h.T @ np.linalg.inv(w) @ m.h)


def _oracle_robust(m, unc, lam):
    """Dense BDU at a given lambda on the dense-whitened problem: R_hat as
    an m x m matrix (from the eigendecomposition of S'S), x and
    A = N^-1 H' R_hat by solves, cov = A A'; also cond(N), N the normal
    matrix."""
    p = _dense_problem(m, unc)
    s = p.uncertainty.s
    d, q = np.linalg.eigh(s.T @ s)
    lam = max(lam, d[-1] + 1e-12 * max(1.0, d[-1]))
    sq = s @ q
    r_hat = np.eye(len(p.z)) + (sq / (lam - d)) @ sq.T
    ehe = unc.e_h.T @ unc.e_h
    normal = lam * ehe + p.h.T @ r_hat @ p.h
    x = np.linalg.solve(normal, p.h.T @ r_hat @ p.z + lam * unc.e_h.T @ unc.e_z)
    a = np.linalg.solve(normal, p.h.T @ r_hat)
    return x, a @ a.T, np.linalg.cond(normal)


def _assert_matches(x, cov, x_ref, cov_ref, cond=1.0):
    # x to 1e-10 and cov to 1e-8 relative; where the normal matrix is so
    # ill-conditioned that two summation orders cannot agree that closely
    # (lambda within ~1e-7 of ||S'RS||: cond ~ 1e12), to cond * 1e-16
    assert np.abs(x - x_ref).max() <= max(1e-10, 1e-16 * cond) * np.abs(x_ref).max()
    assert np.abs(cov - cov_ref).max() <= max(1e-8, 1e-16 * cond) * np.abs(cov_ref).max()


def _flat(res):
    return np.concatenate([res.state.v1, res.state.v2])


def _rect_truth(truth30, view):
    sub = truth30.subset(view.bus_ids)
    return np.concatenate([sub.v1 * np.cos(sub.v2), sub.v1 * np.sin(sub.v2)])


def test_no_pmu_degenerates_to_tse_passthrough(net30, part30, specs30, truth30):
    view, tse, _ = _level1_inputs(net30, part30, specs30, truth30, 1)
    m = _build(tse, MeasurementSet(()), view)
    assert m.h.shape == (2 * view.n_bus, 2 * view.n_bus)
    assert np.array_equal(m.h, np.eye(2 * view.n_bus))
    res = hybrid_solve(m)
    rect = np.concatenate([res.state.v1, res.state.v2])
    assert np.abs(rect - m.z).max() < 1e-9


def test_pmu_voltage_selector_rows(net30, part30, specs30, truth30):
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1)
    m = _build(tse, pmu, view)
    n = view.n_bus
    k = view.pos[4]
    vr_row = m.h[2 * n]
    assert vr_row[k] == 1.0 and np.count_nonzero(vr_row) == 1
    vi_row = m.h[2 * n + 1]
    assert vi_row[n + k] == 1.0 and np.count_nonzero(vi_row) == 1


def test_model_row_count_from_topology(net30, part30, specs30, truth30):
    # PMU at the area slack: rows = 2n (pseudo) + 2 (phasor) + 2 * incident
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1)
    m = _build(tse, pmu, view)
    incident = [br for br in net30.branches if 4 in (br.f, br.t)]
    assert len(m.z) == 2 * view.n_bus + 2 + 2 * len(incident)


def test_zero_noise_hybrid_recovers_truth(net30, part30, specs30, truth30):
    for area_idx in (1, 2, 3):
        view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, area_idx)
        m = _build(tse, pmu, view)
        res = hybrid_solve(m)
        rect = np.concatenate([res.state.v1, res.state.v2])
        assert np.abs(rect - _rect_truth(truth30, view)).max() < 1e-10


def test_hybrid_equals_generic_quadratic_minimizer(net30, part30, specs30, truth30, cfg30):
    from scipy.optimize import minimize

    rng = np.random.default_rng(13)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    res = hybrid_solve(m)
    x_hat = np.concatenate([res.state.v1, res.state.v2])

    w_inv = np.linalg.inv(_dense_w(m))

    def j_fun(x):
        r = m.z - m.h @ x
        return r @ w_inv @ r

    def j_grad(x):
        return -2.0 * m.h.T @ w_inv @ (m.z - m.h @ x)

    out = minimize(j_fun, x_hat + 0.05, jac=j_grad, method="CG",
                   options={"gtol": 1e-14, "maxiter": 5000})
    assert np.abs(out.x - x_hat).max() < 1e-6
    assert j_fun(x_hat) <= out.fun + 1e-10


def test_h_is_exact_derivative_of_linear_stack(net30, part30, specs30, truth30):
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 2)
    m = _build(tse, pmu, view)
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal(m.n_state)
    dx = rng.standard_normal(m.n_state)
    # model is linear: finite difference equals H exactly
    f0 = m.h @ x0
    f1 = m.h @ (x0 + dx)
    assert np.abs((f1 - f0) - m.h @ dx).max() < 1e-12


def test_adding_pmu_never_increases_cov_trace(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(3)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m_without = _build(tse, MeasurementSet(()), view)
    m_with = _build(tse, pmu, view)
    t0 = np.trace(hybrid_solve(m_without).covariance)
    t1 = np.trace(hybrid_solve(m_with).covariance)
    assert t1 <= t0 + 1e-12


def test_w_block_structure(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(4)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    n2 = 2 * view.n_bus
    # PMU block diagonal with sigma^2, zero cross-block
    w = _dense_w(m)
    assert np.all(w[:n2, n2:] == 0.0) and np.all(w[n2:, :n2] == 0.0)
    pmu_block = w[n2:, n2:]
    assert np.array_equal(pmu_block, np.diag(np.diag(pmu_block)))
    assert np.allclose(np.diag(pmu_block), [pmu.items[k].sigma**2 for k in m.block.rows])
    # TSE block equals the transported polar covariance (plus the floor)
    from gridstate.measurement import polar_to_rect

    cov_full = tse.model.embed_cov(tse.covariance)
    _, cov_rect = polar_to_rect(tse.state, cov_full)
    assert np.abs(w[:n2, :n2] - cov_rect - 1e-12 * np.eye(n2)).max() < 1e-15


def test_robust_reduces_to_plain_without_uncertainty(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(6)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 2, rng, cfg30)
    m = _build(tse, pmu, view)
    plain = hybrid_solve(m)
    for unc in (null_uncertainty(len(m.z), m.n_state), uncertainty_for_model(m, 0.0, 0.5)):
        rob = hybrid_solve_robust(m, unc)
        assert np.abs(np.concatenate([rob.state.v1, rob.state.v2])
                      - np.concatenate([plain.state.v1, plain.state.v2])).max() < 1e-10


def test_robust_beats_plain_on_sampled_worst_case(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(21)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    wins = 0
    total = 100
    for seed in range(total):
        sampling = uncertainty_for_model(m, 0.05, 0.05, anchored=False)
        delta = sample_delta(np.random.default_rng([seed, 2]), sampling.q, sampling.e_h.shape[0])
        pert = apply_perturbation(m, sampling, delta)
        unc = uncertainty_for_model(pert, 0.05, 0.05, anchored=True)
        plain = hybrid_solve(pert)
        # the min-max (exact lambda) solution is the one carrying the
        # worst-case guarantee
        robust = hybrid_solve_robust(pert, unc, "exact")
        prob = _dense_problem(pert, unc)
        wc_p = worst_case_objective(np.concatenate([plain.state.v1, plain.state.v2]), prob, 200, seed)
        wc_r = worst_case_objective(np.concatenate([robust.state.v1, robust.state.v2]), prob, 200, seed)
        wins += wc_r <= wc_p * (1.0 + 1e-9)
    assert wins >= 0.95 * total


def test_scalar_instance_embedded_as_one_bus_model():
    # one rect bus; the vr component carries the scalar sanity instance
    # (H=1, z=1, R=1, S=1, E_h=0.5, E_z=0 -> x_hat = 1), vi decouples
    from gridstate.bdu import bdu_solve
    from gridstate.hybrid import HybridModel

    class _FakeView:
        bus_ids = (1,)
        n_bus = 1
        ref_bus = 1

    hm = HybridModel(
        block=PmuBlock(_FakeView(), (), np.zeros(0, dtype=int), np.eye(2), 0.0),
        z=np.array([1.0, 0.0]),
        h=np.eye(2),
        w_pseudo=np.eye(2),
        w_pmu=np.zeros(0),
    )
    unc = UncertaintyStructure(
        np.array([[1.0], [0.0]]), np.array([[0.5, 0.0]]), np.array([0.0])
    )
    res = hybrid_solve_robust(hm, unc, "exact")
    assert abs(res.state.v1[0] - 1.0) < 1e-6 and abs(res.state.v2[0]) < 1e-9
    direct = bdu_solve(RobustProblem(hm.z, hm.h, np.diag(np.linalg.inv(_dense_w(hm))), unc), "exact")
    assert np.abs(direct.x - np.array([res.state.v1[0], res.state.v2[0]])).max() < 1e-9


def test_perturbation_shapes_and_guards(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(7)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    unc = uncertainty_for_model(m, 0.1, 0.1, anchored=False)
    delta = sample_delta(rng, unc.q, unc.e_h.shape[0])
    assert abs(np.linalg.svd(delta, compute_uv=False)[0] - 1.0) < 1e-12
    pert = apply_perturbation(m, unc, delta)
    assert pert.h.shape == m.h.shape
    assert np.abs(pert.z - m.z).max() == 0.0  # ez0 = 0: measurements untouched
    assert np.abs(pert.h - m.h)[: 2 * view.n_bus].max() == 0.0  # pseudo rows clean
    with pytest.raises(ValidationError):
        apply_perturbation(m, unc, delta[:, :-1])


def test_build_requires_converged_tse(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(10)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    from dataclasses import replace

    broken = replace(tse, converged=False)
    with pytest.raises(ValidationError):
        _build(broken, pmu, view)


def _check_against_oracle(m, seed):
    plain = hybrid_solve(m)
    _assert_matches(_flat(plain), plain.covariance, *_oracle_plain(m))
    sampling = uncertainty_for_model(m, 0.05, 0.05, anchored=False)
    if not sampling.is_null():
        delta = sample_delta(np.random.default_rng(seed), sampling.q, sampling.e_h.shape[0])
        m = apply_perturbation(m, sampling, delta)
    unc = uncertainty_for_model(m, 0.05, 0.05, anchored=True)
    for strategy in ("approx", "exact"):
        rob = hybrid_solve_robust(m, unc, strategy, 1.0)
        if unc.is_null():
            assert rob.robust.strategy == "reduced"
            ref = _oracle_plain(m)
        else:
            p = _dense_problem(m, unc)
            if strategy == "approx":
                assert rob.robust.lam == pytest.approx(lambda_approx(1.0, p.uncertainty.s, p.r), rel=1e-12)
            else:
                # the golden-section search may stop elsewhere in a flat G:
                # compare G values on the oracle's problem, not lambdas
                g_hat = g_of_lambda(rob.robust.lam, p)
                assert g_hat <= g_of_lambda(min_g(p), p) + 1e-9 * (1.0 + abs(g_hat))
            ref = _oracle_robust(m, unc, rob.robust.lam)
        _assert_matches(_flat(rob), rob.covariance, *ref)


@pytest.mark.parametrize("with_pmu", [True, False])
def test_block_whitening_matches_dense_oracle(net30, part30, specs30, truth30, cfg30, with_pmu):
    rng = np.random.default_rng(31)
    for area_idx in (1, 2, 3):
        view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, area_idx, rng, cfg30)
        m = _build(tse, pmu if with_pmu else MeasurementSet(()), view)
        assert (len(m.w_pmu) > 0) == with_pmu
        _check_against_oracle(m, area_idx)


def test_level2_stack_matches_dense_oracle(net30, part30, specs30, truth30, cfg30, monkeypatch):
    from gridstate import multiarea
    from gridstate.measurement import synthesize

    stacked = []
    original = multiarea.stack_model

    def spy(*args, **kwargs):
        stacked.append(original(*args, **kwargs))
        return stacked[-1]

    monkeypatch.setattr(multiarea, "stack_model", spy)
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, np.random.default_rng(12))
    multiarea.run_two_level(net30, part30, mset, cfg30, robust=True)
    (m,) = stacked
    assert len(m.w_pmu) > 0
    _check_against_oracle(m, 12)


def test_indefinite_pseudo_block_raises(net30, part30, specs30, truth30, cfg30):
    from dataclasses import replace

    rng = np.random.default_rng(9)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    bad = replace(m, w_pseudo=-m.w_pseudo)
    with pytest.raises(NumericalError, match="hybrid covariance is not positive definite"):
        hybrid_solve(bad)
    with pytest.raises(NumericalError, match="hybrid covariance is not positive definite"):
        hybrid_solve_robust(bad, uncertainty_for_model(bad, 0.05, 0.05))
