import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstate.bdu import RobustProblem, UncertaintyStructure, bdu_solve, min_g
from gridstate.errors import NumericalError, ValidationError
from gridstate.hybrid import (
    VARIANCE_FLOOR,
    HybridModel,
    PmuBlock,
    _uncertainty_arrays,
    apply_perturbation,
    build_hybrid_model,
    hybrid_solve,
    hybrid_solve_robust,
    pmu_block,
    sample_delta,
    select_block,
    uncertainty_for_model,
)
from gridstate.measurement import MeasurementSet, ModelView
from gridstate.multiarea import _pmu_ref_anchor, split_measurements
from gridstate.wls import PolarModel, whitener, wls_estimate
from tests.conftest import synth_zero
from tests.oracles import (
    bdu_approx,
    g_of_lambda,
    kkt_solution,
    lambda_approx,
    lsq_solution,
    stacked_h,
    worst_case_objective,
)


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


class _View:
    """The layout a hybrid model reads from its view, without a network."""

    def __init__(self, n_bus):
        self.bus_ids = tuple(range(1, n_bus + 1))
        self.n_bus = n_bus
        self.ref_bus = 1


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


def _dense_problem(m, s0, e):
    """The whitened robust problem of (s0, e) built through the dense whitener."""
    unc = _uncertainty_arrays(m, s0, e)
    w_isqrt = _dense_whitener(_dense_w(m))
    return RobustProblem(w_isqrt @ m.z, w_isqrt @ stacked_h(m), np.ones(len(m.z)),
                         UncertaintyStructure(w_isqrt @ unc.s, unc.e_h, unc.e_z))


def _oracle_plain(m):
    """Dense WLS: x from lstsq on the dense-whitened stack, cov = inv(H' W^-1 H)."""
    w, h = _dense_w(m), stacked_h(m)
    w_isqrt = _dense_whitener(w)
    x = np.linalg.lstsq(w_isqrt @ h, w_isqrt @ m.z, rcond=None)[0]
    return x, np.linalg.inv(h.T @ np.linalg.inv(w) @ h)


def _oracle_robust(m, s0, e, lam):
    """Dense BDU at a given lambda on the dense-whitened problem: R_hat as
    an m x m matrix (from the eigendecomposition of S'S), x and
    A = N^-1 H' R_hat by solves, cov = A A'; also cond(N), N the normal
    matrix."""
    p = _dense_problem(m, s0, e)
    unc = p.uncertainty
    s = unc.s
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
    assert stacked_h(m).shape == (2 * view.n_bus, 2 * view.n_bus)
    assert np.array_equal(stacked_h(m), np.eye(2 * view.n_bus))
    # the covariance-form step passes x_p and W_p through exactly
    res = hybrid_solve(m)
    assert np.array_equal(_flat(res), m.z)
    assert np.array_equal(res.covariance, m.w_pseudo)


def test_pmu_voltage_selector_rows(net30, part30, specs30, truth30):
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1)
    m = _build(tse, pmu, view)
    n = view.n_bus
    k = view.pos[4]
    vr_row = stacked_h(m)[2 * n]
    assert vr_row[k] == 1.0 and np.count_nonzero(vr_row) == 1
    vi_row = stacked_h(m)[2 * n + 1]
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

    w_inv, h = np.linalg.inv(_dense_w(m)), stacked_h(m)

    def j_fun(x):
        r = m.z - h @ x
        return r @ w_inv @ r

    def j_grad(x):
        return -2.0 * h.T @ w_inv @ (m.z - h @ x)

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
    h = stacked_h(m)
    f0 = h @ x0
    f1 = h @ (x0 + dx)
    assert np.abs((f1 - f0) - h @ dx).max() < 1e-12


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
    bare = _build(tse, MeasurementSet(()), view)
    assert uncertainty_for_model(bare, 0.05, 0.05) == (0.05, 0.0)
    # no S (s0 = 0 or no PMU rows), or S with no perturbation bound
    # (e = 0): plain WLS, exactly
    for model, pairs in ((m, [(0.0, 0.5), uncertainty_for_model(m, 0.0, 0.5),
                              uncertainty_for_model(m, 0.5, 0.0)]),
                         (bare, [uncertainty_for_model(bare, 0.05, 0.05), (0.05, 0.05)])):
        plain = hybrid_solve(model)
        for s0, e in pairs:
            for strategy in ("approx", "exact"):
                rob = hybrid_solve_robust(model, s0, e, strategy)
                assert rob.robust is None
                assert np.array_equal(_flat(rob), _flat(plain))
                assert np.array_equal(rob.covariance, plain.covariance)


def test_robust_beats_plain_on_sampled_worst_case(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(21)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    wins = 0
    total = 100
    for seed in range(total):
        delta = sample_delta(np.random.default_rng([seed, 2]), len(m.w_pmu), m.n_state)
        pert = apply_perturbation(m, delta, 0.05, 0.05)
        s0, e = uncertainty_for_model(pert, 0.05, 0.05)
        plain = hybrid_solve(pert)
        # the min-max (exact lambda) solution is the one carrying the
        # worst-case guarantee
        robust = hybrid_solve_robust(pert, s0, e, "exact")
        prob = _dense_problem(pert, s0, e)
        wc_p = worst_case_objective(np.concatenate([plain.state.v1, plain.state.v2]), prob, 200, seed)
        wc_r = worst_case_objective(np.concatenate([robust.state.v1, robust.state.v2]), prob, 200, seed)
        wins += wc_r <= wc_p * (1.0 + 1e-9)
    assert wins >= 0.95 * total


def test_scalar_instance_embedded_as_one_bus_model():
    # one rect bus; the vr component carries the scalar sanity instance
    # (H=1, z=1, R=1, S=1, E_h=0.5, E_z=0 -> x_hat = 1), vi decouples.
    # S sits on a pseudo row, outside the experiment's (s0, e) form, so
    # bdu solves the model's problem directly
    hm = HybridModel(
        block=PmuBlock(_View(1), (), np.zeros(0, dtype=int), np.zeros((0, 2)), 0.0),
        z=np.array([1.0, 0.0]),
        h_pmu=np.zeros((0, 2)),
        w_pseudo=np.eye(2),
        w_pmu=np.zeros(0),
    )
    unc = UncertaintyStructure(
        np.array([[1.0], [0.0]]), np.array([[0.5, 0.0]]), np.array([0.0])
    )
    direct = bdu_solve(RobustProblem(hm.z, stacked_h(hm), np.diag(np.linalg.inv(_dense_w(hm))), unc))
    assert abs(direct.x[0] - 1.0) < 1e-6 and abs(direct.x[1]) < 1e-9


def _dense_perturbation(m, delta, s0, e0):
    """The perturbed H as the dense products H + (S Delta) E_h, S = s0 on
    the PMU rows (m x p) and E_h = e0 c I (2n x 2n)."""
    n, p = m.n_state, len(m.w_pmu)
    s = np.zeros((len(m.z), p))
    s[n + np.arange(p), np.arange(p)] = s0
    return stacked_h(m) + (s @ delta) @ (e0 * m.block.scale * np.eye(n))


def _level2_stack(net30, part30, specs30, truth30, cfg30, monkeypatch, seed):
    """The coordinator's hybrid model, captured from a two-level run."""
    from gridstate import multiarea
    from gridstate.measurement import synthesize

    stacked = []
    original = multiarea.stack_model

    def spy(*args, **kwargs):
        stacked.append(original(*args, **kwargs))
        return stacked[-1]

    monkeypatch.setattr(multiarea, "stack_model", spy)
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, np.random.default_rng(seed))
    multiarea.run_two_level(net30, part30, mset, cfg30, robust=True)
    (m,) = stacked
    return m


def _assert_perturbation_matches_dense(m, rng):
    n = m.n_state
    for s0, e0 in ((0.05, 0.05), (0.1, 0.03), (0.5, 0.0)):
        delta = sample_delta(rng, len(m.w_pmu), n)
        pert = apply_perturbation(m, delta, s0, e0)
        assert np.array_equal(stacked_h(pert), _dense_perturbation(m, delta, s0, e0))
        assert np.array_equal(pert.z, m.z)
        assert pert.block is m.block and pert.w_pmu is m.w_pmu and pert.w_pseudo is m.w_pseudo


def test_perturbation_matches_dense_products(net30, part30, specs30, truth30, cfg30, monkeypatch):
    rng = np.random.default_rng(17)
    for area_idx in (1, 2, 3):
        view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, area_idx, rng, cfg30)
        m = _build(tse, pmu, view)
        assert len(m.w_pmu) > 0
        _assert_perturbation_matches_dense(m, rng)
    m = _level2_stack(net30, part30, specs30, truth30, cfg30, monkeypatch, 12)
    assert len(m.w_pmu) > 0
    _assert_perturbation_matches_dense(m, rng)


def test_perturbation_shapes_and_guards(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(7)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    delta = sample_delta(rng, len(m.w_pmu), m.n_state)
    assert abs(np.linalg.svd(delta, compute_uv=False)[0] - 1.0) < 1e-12
    pert = apply_perturbation(m, delta, 0.1, 0.1)
    assert pert.h_pmu.shape == m.h_pmu.shape
    assert np.abs(pert.z - m.z).max() == 0.0  # E_z = 0: measurements untouched
    assert np.abs(pert.h_pmu - m.h_pmu).max() > 0.0
    for bad in (delta[:, :-1], delta[:-1], delta.T):
        with pytest.raises(ValidationError, match="delta dimensions"):
            apply_perturbation(m, bad, 0.1, 0.1)


def test_blocks_hold_the_pmu_rows_alone(net30, part30, specs30, truth30):
    """A block's H is its p PMU rows over the view's 2n states, for an
    area, the boundary, no rows and a selection that drops rows; a
    perturbation keeps that shape and takes a Delta of no other."""
    from gridstate.multiarea import Structure

    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1)
    n2, p = 2 * view.n_bus, len(pmu)
    block = pmu_block(view, pmu.specs, range(p))
    assert p > 2 and block.h_pmu.shape == (p, n2)
    bnd = Structure(net30, part30, specs30).bnd_block
    assert len(bnd.rows) > 0 and bnd.h_pmu.shape == (len(bnd.rows), 2 * bnd.view.n_bus)
    empty = pmu_block(view, (), [])
    assert empty.h_pmu.shape == (0, n2) and empty.scale == 0.0
    for k in (1, 2):
        at = np.arange(p)
        at[block.rows[:k]] = -1
        assert select_block(block, at[block.rows], pmu.specs).h_pmu.shape == (p - k, n2)

    m = _build(tse, pmu, view)
    delta = sample_delta(np.random.default_rng(5), p, n2)
    assert apply_perturbation(m, delta, 0.1, 0.1).h_pmu.shape == (p, n2)
    for shape in ((p + n2, n2), (p, n2 + 1), (n2, p), (0, n2)):
        with pytest.raises(ValidationError, match="delta dimensions"):
            apply_perturbation(m, np.ones(shape), 0.1, 0.1)


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
    if len(m.w_pmu):
        delta = sample_delta(np.random.default_rng(seed), len(m.w_pmu), m.n_state)
        m = apply_perturbation(m, delta, 0.05, 0.05)
    s0, e = uncertainty_for_model(m, 0.05, 0.05)
    for strategy in ("approx", "exact"):
        rob = hybrid_solve_robust(m, s0, e, strategy, 1.0)
        if e == 0.0:
            assert rob.robust is None
            ref = _oracle_plain(m)
        else:
            p = _dense_problem(m, s0, e)
            if strategy == "approx":
                assert rob.robust.lam == pytest.approx(lambda_approx(1.0, p.uncertainty.s, p.r), rel=1e-12)
            else:
                # the golden-section search may stop elsewhere in a flat G:
                # compare G values on the oracle's problem, not lambdas
                g_hat = g_of_lambda(rob.robust.lam, p)
                assert g_hat <= g_of_lambda(min_g(p), p) + 1e-9 * (1.0 + abs(g_hat))
            ref = _oracle_robust(m, s0, e, rob.robust.lam)
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
    m = _level2_stack(net30, part30, specs30, truth30, cfg30, monkeypatch, 12)
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
        hybrid_solve_robust(bad, *uncertainty_for_model(bad, 0.05, 0.05))


def test_plain_step_with_pinned_reference_matches_dense_oracle(net30, part30, specs30, truth30, cfg30):
    # the anchor rows observe the frame, but the reference angle is pinned:
    # the pseudo-state covariance has the floored zero mode
    from gridstate.measurement import synthesize

    rng = np.random.default_rng(43)
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, rng)
    scada, pmu = split_measurements(part30, mset)
    view = ModelView.for_area(net30, part30, 1)
    tse_set = MeasurementSet(tuple(scada[1]) + _pmu_ref_anchor(pmu[1], part30.areas[0].ref_bus))
    model = PolarModel(view, tuple(tse_set), pin_angle=True)
    tse = wls_estimate(tse_set, model, tol=1e-9, k_limit=30)
    m = _build(tse, pmu[1], view)
    assert np.linalg.eigvalsh(m.w_pseudo)[0] < 1e-11
    plain = hybrid_solve(m)
    _assert_matches(_flat(plain), plain.covariance, *_oracle_plain(m))


def test_skipping_the_covariance_leaves_the_estimate_bit_identical(net30, part30, specs30, truth30, cfg30):
    from gridstate.measurement import synthesize
    from gridstate.multiarea import Structure
    from gridstate.netmodel import single_area

    rng = np.random.default_rng(44)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    full, bare = hybrid_solve(m), hybrid_solve(m, cov=False)
    assert bare.covariance is None
    assert np.array_equal(_flat(full), _flat(bare))

    # a central trial reads no level-1 covariance; forcing it changes nothing
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, rng)
    structure = Structure(net30, single_area(net30), specs30)
    (area,) = structure.areas
    assert not area.cov_read
    skipped = structure.run(mset, cfg30, robust=False)
    area.cov_read = True
    computed = structure.run(mset, cfg30, robust=False)
    assert skipped.locals[0].cov is None and computed.locals[0].cov is not None
    assert np.array_equal(skipped.vm, computed.vm)
    assert np.array_equal(skipped.va, computed.va)


def _robust_models(monkeypatch, central, trials):
    """(model, s0, e) of every robust hybrid stage of the bundled
    experiment (seed 0, s0 = e0 = 0.05) over ``trials``."""
    from gridstate import multiarea
    from gridstate.cli import prepare, run_trial

    seen = []
    original = multiarea.hybrid_solve_robust

    def spy(m, s0, e, *args, **kwargs):
        seen.append((m, s0, e))
        return original(m, s0, e, *args, **kwargs)

    monkeypatch.setattr(multiarea, "hybrid_solve_robust", spy)
    exp = prepare(config="ieee30.cfg")
    for trial in trials:
        run_trial(exp, trial, robust=True, central=central)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("mu", [0.0, 1e-9])
def test_approx_step_at_the_lambda_edge_matches_kkt_oracle(monkeypatch, mu):
    # at lambda = ||S'RS|| (mu = 0) the PMU rows are equality constraints:
    # bdu's normal equations there need the edge shift and reach cond ~1e12,
    # the saddle system and the covariance-form step do not
    central = _robust_models(monkeypatch, True, range(3))
    # areas 1-3; level 2's dense-whitened problem alone is rounded at 4e-11
    areas = _robust_models(monkeypatch, False, range(1))[:3]
    assert len(central) == 3 and {m.n_bus for m, _, _ in central} == {30}
    assert sorted(m.n_bus for m, _, _ in areas) == [12, 12, 18]
    for m, s0, e in central + areas:
        rob = hybrid_solve_robust(m, s0, e, "approx", mu, cov=False)
        p = _dense_problem(m, s0, e)
        assert rob.robust.lam == pytest.approx(lambda_approx(mu, p.uncertainty.s, p.r), rel=1e-12)
        x_ref = kkt_solution(p, rob.robust.lam)
        assert np.abs(_flat(rob) - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


def _random_model(seed, n_bus, p):
    """A hybrid model with a random SPD pseudo block (one zero mode, lifted by
    the floor, as a pinned reference angle leaves it), a dense random PMU
    block and unequal PMU sigmas, so the d_i = s0^2 / sigma_i^2 differ."""
    rng = np.random.default_rng(seed)
    n = 2 * n_bus
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = 10.0 ** rng.uniform(-6.0, -2.0, n)
    evals[0] = 0.0
    w = (q * evals) @ q.T + VARIANCE_FLOOR * np.eye(n)
    h_pmu = rng.standard_normal((p, n))
    sigma = rng.uniform(5e-4, 5e-3, p)
    x_p = 1.0 + 0.1 * rng.standard_normal(n)
    truth = x_p + (q * np.sqrt(evals)) @ rng.standard_normal(n)
    z = np.concatenate([x_p, h_pmu @ truth + sigma * rng.standard_normal(p)])
    block = PmuBlock(_View(n_bus), (), np.arange(p), h_pmu, float(np.linalg.norm(h_pmu, 2)))
    return HybridModel(block, z, h_pmu, w, sigma**2)


def _whitened(m, s0, e):
    """The problem the exact-lambda branch hands bdu: z, H, S scaled by
    W^-1/2 through the package's block whitener, unit weights."""
    unc = _uncertainty_arrays(m, s0, e)
    whiten = whitener([m.w_pseudo, m.w_pmu], "hybrid covariance is not positive definite")
    return RobustProblem(whiten(m.z), whiten(stacked_h(m)), np.ones(len(m.z)),
                         UncertaintyStructure(whiten(unc.s), unc.e_h, unc.e_z))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bus=st.integers(1, 8),
    p=st.integers(1, 10),
    s0=st.floats(0.01, 0.2),
    e0=st.floats(0.01, 0.2),
    mu=st.floats(1e-3, 200.0),
)
def test_property_structured_step_equals_bdu_solve(seed, n_bus, p, s0, e0, mu):
    m = _random_model(seed, n_bus, p)
    _, e = uncertainty_for_model(m, s0, e0)
    rob = hybrid_solve_robust(m, s0, e, "approx", mu)
    x, cov = _flat(rob), rob.covariance
    prob = _whitened(m, s0, e)
    assert rob.robust.lam == pytest.approx(lambda_approx(mu, prob.uncertainty.s, prob.r), rel=1e-12)
    x_ls, cov_ls, cond = lsq_solution(prob, rob.robust.lam)
    assert np.abs(x - x_ls).max() <= 1e-10 * np.abs(x_ls).max()
    assert np.abs(cov - cov_ls).max() <= 1e-8 * np.abs(cov_ls).max()
    # bdu solves the normal equations, whose forward error grows as
    # n eps cond(N): the floored zero mode puts cond(N) near 1e9 here
    ref = bdu_approx(prob, mu)
    bound = 4 * m.n_state * np.finfo(float).eps * cond
    assert np.abs(x - ref.x).max() <= max(1e-10, bound) * np.abs(ref.x).max()
    assert np.abs(cov - ref.cov).max() <= max(1e-8, bound) * np.abs(ref.cov).max()
    # g_of_lambda sums squared residuals of whitened data as large as
    # x_p / VARIANCE_FLOOR^1/2: an absolute error near 1e-11 where G is small
    assert rob.robust.worst_case == pytest.approx(g_of_lambda(rob.robust.lam, prob), rel=1e-9, abs=1e-9)


def test_skipping_the_robust_covariance_leaves_the_estimate_bit_identical(net30, part30, specs30, truth30, cfg30):
    from gridstate.cli import make_delta_sampler
    from gridstate.measurement import synthesize
    from gridstate.multiarea import Structure
    from gridstate.netmodel import single_area

    rng = np.random.default_rng(45)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    s0, e = uncertainty_for_model(m, 0.05, 0.05)
    for strategy in ("approx", "exact"):
        full, bare = (hybrid_solve_robust(m, s0, e, strategy, 100.0, cov=cov) for cov in (True, False))
        assert full.covariance is not None and bare.covariance is None
        assert np.array_equal(_flat(full), _flat(bare))
        assert (full.robust.lam, full.robust.worst_case) == (bare.robust.lam, bare.robust.worst_case)

    # a central robust trial reads no level-1 covariance; forcing it changes nothing
    assert cfg30.lambda_strategy == "approx" and cfg30.s0 > 0.0 and cfg30.e0 > 0.0
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, rng)
    structure = Structure(net30, single_area(net30), specs30)
    (area,) = structure.areas
    assert not area.cov_read
    perturb = make_delta_sampler(cfg30.seed, 0)
    skipped = structure.run(mset, cfg30, robust=True, perturb=perturb)
    area.cov_read = True
    computed = structure.run(mset, cfg30, robust=True, perturb=perturb)
    assert skipped.locals[0].hybrid.robust is not None
    assert skipped.locals[0].cov is None and computed.locals[0].cov is not None
    assert np.array_equal(skipped.vm, computed.vm)
    assert np.array_equal(skipped.va, computed.va)


def _robust_test_models(net30, part30, specs30, truth30, cfg30):
    """An area model of the bundled case, perturbed as a trial does, and
    two random ones."""
    rng = np.random.default_rng(46)
    view, tse, pmu = _level1_inputs(net30, part30, specs30, truth30, 1, rng, cfg30)
    m = _build(tse, pmu, view)
    m = apply_perturbation(m, sample_delta(rng, len(m.w_pmu), m.n_state), 0.05, 0.05)
    return [m, _random_model(5, 4, 6), _random_model(8, 1, 3)]


def test_uncertainty_arrays_are_the_dense_triple(net30, part30, specs30, truth30, cfg30):
    # the oracle is the triple as the robust step used to receive it:
    # S = s0 on the PMU rows, E_h = e0 c I, E_z = E_h x_p
    for m in _robust_test_models(net30, part30, specs30, truth30, cfg30):
        n, p = m.n_state, len(m.w_pmu)
        for s0, e0 in ((0.05, 0.05), (0.1, 0.03), (0.02, 0.2)):
            s = np.zeros((len(m.z), p))
            for k in range(p):
                s[n + k, k] = s0
            c = float(np.linalg.norm(m.h_pmu, 2))
            e_h = e0 * c * np.eye(n)
            e_z = e_h @ m.z[:n]
            pair = uncertainty_for_model(m, s0, e0)
            assert pair == (s0, e0 * c)
            unc = _uncertainty_arrays(m, *pair)
            assert np.array_equal(unc.s, s)
            assert np.array_equal(unc.e_h, e_h)
            assert np.array_equal(unc.e_z, e_z)
            assert np.array_equal(unc.e_z, pair[1] * m.z[:n])  # centred on x_p


def test_exact_step_is_bdu_solve_on_the_whitened_problem(net30, part30, specs30, truth30, cfg30):
    for m in _robust_test_models(net30, part30, specs30, truth30, cfg30):
        s0, e = uncertainty_for_model(m, 0.05, 0.05)
        rob = hybrid_solve_robust(m, s0, e, "exact")
        ref = bdu_solve(_whitened(m, s0, e))
        assert rob.robust.strategy == "exact"
        assert np.array_equal(_flat(rob), ref.x)
        assert np.array_equal(rob.covariance, ref.cov)
        assert (rob.robust.lam, rob.robust.worst_case) == (ref.lam, ref.worst_case)


def test_robust_step_validates_the_uncertainty_and_strategy():
    m = _random_model(5, 4, 6)
    bad = [(np.nan, 0.05), (0.05, np.nan), (np.inf, 0.05), (0.05, np.inf), (-0.05, 0.05), (0.05, -1e-3),
           uncertainty_for_model(m, np.nan, 0.05), uncertainty_for_model(m, 0.05, np.nan)]
    for s0, e in bad:
        for strategy in ("approx", "exact"):
            with pytest.raises(ValidationError, match="s0 and e must be finite and nonnegative"):
                hybrid_solve_robust(m, s0, e, strategy)
    # a bogus strategy is refused also where the step would reduce to plain WLS
    for s0, e in ((0.0, 0.0), (0.05, 0.0), (0.05, 0.05)):
        with pytest.raises(ValidationError, match="unknown lambda strategy 'bogus'"):
            hybrid_solve_robust(m, s0, e, "bogus")


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
def test_approx_lambda_refuses_a_non_finite_or_negative_mu(mu):
    m = _random_model(5, 4, 6)
    s0, e = uncertainty_for_model(m, 0.05, 0.05)
    with pytest.raises(ValidationError, match="mu must be finite and nonnegative"):
        hybrid_solve_robust(m, s0, e, "approx", mu)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -1.0])
def test_approx_lambda_checks_mu_also_where_the_step_is_plain_wls(mu):
    # null uncertainty or no PMU rows: the step reduces to hybrid_solve,
    # but mu is checked first, whichever path solves
    from dataclasses import replace

    m = _random_model(5, 4, 6)
    bare = HybridModel(replace(m.block, rows=np.arange(0), h_pmu=m.h_pmu[:0]), m.z[: m.n_state],
                       m.h_pmu[:0], m.w_pseudo, m.w_pmu[:0])
    for model, s0, e in ((m, 0.0, 0.0), (m, 0.05, 0.0), (m, 0.0, 0.05), (bare, 0.05, 0.05)):
        with pytest.raises(ValidationError, match="mu must be finite and nonnegative"):
            hybrid_solve_robust(model, s0, e, "approx", mu)
        assert hybrid_solve_robust(model, s0, e, "exact", mu).robust is None
