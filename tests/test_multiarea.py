from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from gridstate.errors import NumericalError, UnobservableError, ValidationError
from gridstate.measurement import MeasurementSet, ModelView, h_eval, jacobian_polar, synthesize, wrap_angle
from gridstate.multiarea import (
    CoordinatorProblem,
    GlobalResult,
    Structure,
    _assemble_coordinator,
    _coordinator_init,
    _CoordinatorModel,
    _solve_coordinator,
    _split_rows,
    _turned_angles,
    compute_errors,
    coordinator_measurements,
    level1_run,
    level2_run,
    run_centralized,
    run_two_level,
)
from gridstate.netmodel import single_area
from gridstate.powerflow import StateVector
from gridstate.wls import PolarModel
from tests.conftest import synth_zero
from tests.oracles import coordinator_jac


def _zero_cfg(cfg30):
    return replace(cfg30, s0=0.0, e0=0.0)


def _noisy(view30, truth30, specs30, cfg, seed):
    return synthesize(view30, truth30, specs30, cfg.sigma_for, np.random.default_rng(seed))


def test_zero_noise_every_area_recovers_truth(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    mset = synth_zero(view30, truth30, specs30)
    locals_ = level1_run(Structure(net30, part30, specs30), mset, cfg, robust=True)
    assert len(locals_) == 3
    for lr in locals_:
        sub = truth30.subset(lr.state.bus_ids)
        assert np.abs(lr.state.v1 - sub.v1).max() < 1e-6
        assert np.abs(wrap_angle(lr.state.v2 - sub.v2)).max() < 1e-6


def test_internal_buses_beat_boundary_and_external(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    internal_err, outer_err = [], []
    structure = Structure(net30, part30, specs30)
    for seed in range(30):
        mset = _noisy(view30, truth30, specs30, cfg, seed)
        locals_ = level1_run(structure, mset, cfg, robust=False)
        for lr in locals_:
            area = part30.areas[lr.area_index - 1]
            sub = truth30.subset(lr.state.bus_ids)
            err = np.abs(lr.state.v1 - sub.v1) + np.abs(wrap_angle(lr.state.v2 - sub.v2))
            for k, b in enumerate(lr.state.bus_ids):
                (internal_err if b in area.internal else outer_err).append(err[k])
    assert np.mean(internal_err) < np.mean(outer_err)


def test_level1_non_interaction(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    mset = _noisy(view30, truth30, specs30, cfg, 3)
    structure = Structure(net30, part30, specs30)
    base = level1_run(structure, mset, cfg, robust=True)

    # concurrent run is bit-identical
    par = level1_run(structure, mset, cfg, robust=True, parallel=True)
    for a, b in zip(base, par):
        assert np.array_equal(a.state.v1, b.state.v1)
        assert np.array_equal(a.state.v2, b.state.v2)
        assert np.array_equal(a.cov, b.cov)

    # corrupting another area's data leaves this area's result untouched
    z = mset.z.copy()
    z[_split_rows(part30, specs30)[0][1]] += 0.3
    alt = level1_run(structure, mset.with_values(z), cfg, robust=True)
    assert np.array_equal(alt[1].state.v1, base[1].state.v1)
    assert np.array_equal(alt[2].state.v2, base[2].state.v2)
    assert not np.array_equal(alt[0].state.v1, base[0].state.v1)


def test_level2_exact_with_noiseless_inputs(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    mset = synth_zero(view30, truth30, specs30)
    structure = Structure(net30, part30, specs30)
    locals_ = level1_run(structure, mset, cfg, robust=True)
    g = level2_run(structure, locals_, mset, cfg, robust=True)
    dvm, dva = compute_errors(g, truth30)
    assert dvm.max() < 1e-6 and dva.max() < 1e-6
    assert np.abs(g.u).max() < 1e-6


def test_boundary_fixture_composition(part30):
    assert set(part30.boundary_buses()) >= {4, 6, 9, 10, 12, 15, 22, 23, 24, 28}
    assert [a.ref_bus for a in part30.areas] == [4, 15, 24]


def test_coordinator_measurement_selection(net30, part30, specs30, truth30, view30, cfg30):
    mset = synth_zero(view30, truth30, specs30)
    z_b, z_pmu = coordinator_measurements(net30, part30, mset)
    bnd = set(part30.boundary_buses())
    for m in z_b:
        if m.kind in ("p_inj", "q_inj"):
            assert m.bus in bnd
        else:
            assert part30.is_tie(net30.branch(*m.branch))
    for m in z_pmu:
        if m.kind in ("pmu_vr", "pmu_vi"):
            assert m.bus in bnd
        else:
            assert m.branch[0] in bnd and m.branch[1] in bnd


def test_coverage_every_bus_exactly_once(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    mset = _noisy(view30, truth30, specs30, cfg, 1)
    g = run_two_level(net30, part30, mset, cfg, robust=False)
    assert g.bus_ids == tuple(sorted(net30.bus_ids))
    bnd = set(part30.boundary_buses())
    for b, src in zip(g.bus_ids, g.source):
        if b in bnd:
            assert src == "coordinator"
        else:
            assert src == f"area{part30.area_of(b)}"


def test_single_area_degeneracy(net30, part30, specs30, truth30, view30, cfg30):
    from gridstate.cli import make_delta_sampler

    cfg = replace(cfg30, s0=0.05, e0=0.05)
    mset = _noisy(view30, truth30, specs30, cfg, 17)
    part1 = single_area(net30, ref_bus=part30.global_ref)
    perturb = make_delta_sampler(0, 0)
    g2 = run_two_level(net30, part1, mset, cfg, robust=True, perturb=perturb)
    gc = run_centralized(net30, mset, cfg, robust=True, ref_bus=part30.global_ref, perturb=perturb)
    assert np.abs(g2.vm - gc.vm).max() < 1e-8
    assert np.abs(wrap_angle(g2.va - gc.va)).max() < 1e-8
    assert len(g2.u) == 1 and g2.u[0] == 0.0


def test_remark4_zero_uncertainty_reduction(net30, part30, specs30, truth30, view30, cfg30):
    cfg = _zero_cfg(cfg30)
    mset = _noisy(view30, truth30, specs30, cfg, 23)
    ga = run_two_level(net30, part30, mset, cfg, robust=True)
    gb = run_two_level(net30, part30, mset, cfg, robust=False)
    assert np.abs(ga.vm - gb.vm).max() < 1e-10
    assert np.abs(wrap_angle(ga.va - gb.va)).max() < 1e-10


def test_robust_coordinator_beats_plain_under_perturbation(net30, part30, specs30, truth30, view30, cfg30):
    from gridstate.cli import make_delta_sampler

    cfg = replace(cfg30, s0=0.05, e0=0.05)
    bnd = [b for b in sorted(net30.bus_ids) if b in set(part30.boundary_buses())]
    wins = 0
    total = 40
    for seed in range(total):
        mset = _noisy(view30, truth30, specs30, cfg, 1000 + seed)
        perturb = make_delta_sampler(seed, 0)
        ga = run_two_level(net30, part30, mset, cfg, robust=True, perturb=perturb)
        gb = run_two_level(net30, part30, mset, cfg, robust=False, perturb=perturb)
        ea = compute_errors(ga, truth30)
        eb = compute_errors(gb, truth30)
        idx = [ga.bus_ids.index(b) for b in bnd]
        ma = np.mean(ea[0][idx] + ea[1][idx])
        mb = np.mean(eb[0][idx] + eb[1][idx])
        wins += ma <= mb
    assert wins >= 0.9 * total


def test_compute_errors_wraps_angles(truth30):
    vm = truth30.v1.copy()
    va = truth30.v2.copy()
    k = 5
    va[k] = np.pi - 0.01
    g = GlobalResult(
        truth30.bus_ids, vm, va, ("x",) * len(vm), np.zeros(1)
    )
    truth_mod = StateVector("polar", truth30.bus_ids, vm.copy(), truth30.v2.copy())
    truth_mod.v2[k] = -np.pi + 0.01
    dvm, dva = compute_errors(g, truth_mod)
    assert abs(dva[k] - 0.02) < 1e-12
    assert dvm.max() == 0.0


def test_estimate_equals_truth_gives_zero_errors(truth30):
    g = GlobalResult(
        truth30.bus_ids, truth30.v1.copy(), truth30.v2.copy(),
        ("x",) * len(truth30.v1), np.zeros(1),
    )
    dvm, dva = compute_errors(g, truth30)
    assert dvm.max() == 0.0 and dva.max() == 0.0


def test_bus_missing_from_a_state_is_a_validation_error(net30, truth30):
    # a bare KeyError would escape the CLI's exit-code mapping
    g = GlobalResult(truth30.bus_ids, truth30.v1.copy(), truth30.v2.copy(),
                     ("x",) * len(truth30.v1), np.zeros(1))
    short = truth30.subset([b for b in truth30.bus_ids if b != 30])
    with pytest.raises(ValidationError, match="bus 30 is not in the state"):
        compute_errors(g, short)
    with pytest.raises(ValidationError, match="bus 30 is not in the state"):
        PolarModel(ModelView.full(net30), ()).pack(short)


def test_unobservable_area_reported(net30, part30, cfg30):
    cfg = _zero_cfg(cfg30)
    with pytest.raises(NumericalError) as err:
        run_two_level(net30, part30, MeasurementSet(()), cfg, robust=False)
    assert "area" in str(err.value)


def test_boundary_injection_uses_pinned_internals(net30, part30, specs30, truth30, view30, cfg30):
    # the fixture plan measures injections at boundary buses 28 (area 3) and
    # 12 (area 2); their coordinator rows must evaluate through the pinned
    # internal states and still reproduce the truth at zero noise
    mset = synth_zero(view30, truth30, specs30)
    z_b, _ = coordinator_measurements(net30, part30, mset)
    kinds = {(m.kind, m.bus) for m in z_b if m.kind in ("p_inj", "q_inj")}
    assert ("p_inj", 28) in kinds and ("p_inj", 12) in kinds


# ---------------------------------------------------------------------------
# the level-2 coordinator against reference implementations


def _coordinator(net30, part30, specs30, truth30, view30, cfg, seed, robust):
    """(problem, model, x0, level-1 results) of one coordinator solve on
    the 3-area fixture."""
    from gridstate.cli import make_delta_sampler

    mset = _noisy(view30, truth30, specs30, cfg, seed)
    structure = Structure(net30, part30, specs30)
    perturb = make_delta_sampler(seed, 0)
    locals_ = level1_run(structure, mset, cfg, robust=robust, perturb=perturb)
    angles = _turned_angles(locals_)
    prob = _assemble_coordinator(structure.coordinator, locals_, angles, mset)
    model = structure.coordinator.pinned(locals_, angles)
    return prob, model, _coordinator_init(model, prob), locals_


def _loop_h_jac(model, locals_, x):
    """h and Jacobian of the coordinator model by per-bus loops."""
    nb = model.n_bnd
    u = np.concatenate([[0.0], x[2 * nb :]])
    pinned = {}
    for area, lr in zip(model.part.areas, locals_):
        for b in area.internal:
            pinned[b] = (area.index, *lr.state.at(b))
    vm, va = np.empty(model.n), np.empty(model.n)
    for k, bid in enumerate(model.bus_ids):
        if bid in pinned:
            ai, pvm, pva = pinned[bid]
            vm[k], va[k] = pvm, pva + u[ai - 1]
        else:
            j = model.bnd_ids.index(bid)
            vm[k], va[k] = x[nb + j], x[j]
    jfull = jacobian_polar(model.view, (vm, va), model.physical)
    jp = np.zeros((jfull.shape[0], model.n_state))
    for k, bid in enumerate(model.bus_ids):
        if bid not in pinned:
            j = model.bnd_ids.index(bid)
            jp[:, j] = jfull[:, k]
            jp[:, nb + j] = jfull[:, model.n + k]
        elif pinned[bid][0] >= 2:
            jp[:, 2 * nb + pinned[bid][0] - 2] += jfull[:, k]
    h, jac = [h_eval(model.view, (vm, va), model.physical)], [jp]
    for ai in model.pseudo_areas:
        area = model.part.areas[ai - 1]
        pos = [model.bnd_ids.index(b) for b in area.boundary + area.external]
        h.append(np.concatenate([x[pos] - u[ai - 1], x[[nb + p for p in pos]]]))
        blk = np.zeros((2 * len(pos), model.n_state))
        for r, p in enumerate(pos):
            blk[r, p] = 1.0
            blk[len(pos) + r, nb + p] = 1.0
            if ai >= 2:
                blk[r, 2 * nb + ai - 2] = -1.0
        jac.append(blk)
    return np.concatenate(h), np.vstack(jac)


def _dense_gauss_newton(model, prob, x0, tol, k_limit):
    """The coordinator's undamped Gauss-Newton on the dense m x m weight
    matrix: whole-matrix Cholesky whitening, SVD least squares, explicit
    inverse of the gain at the returned x."""
    w = block_diag(np.diag(prob.w_diag), *prob.w_blocks)
    l_fac = np.linalg.cholesky(w)
    x = np.array(x0, dtype=float)
    for k in range(1, k_limit + 1):
        r_w = np.linalg.solve(l_fac, prob.z - model.h(x))
        j_w = np.linalg.solve(l_fac, coordinator_jac(model, x))
        dx = np.linalg.lstsq(j_w, r_w, rcond=None)[0]
        x = x + dx
        if np.max(np.abs(dx)) < tol:
            j_w = np.linalg.solve(l_fac, coordinator_jac(model, x))
            return x, np.linalg.inv(j_w.T @ j_w), k
    raise AssertionError("dense oracle did not converge")


@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("seed", [4, 11])
def test_coordinator_model_matches_loop_reference(net30, part30, specs30, truth30, view30,
                                                  cfg30, robust, seed):
    """h, and the Jacobian scattered from the physical rows' pattern (its
    column map folds the pinned angles into the u columns) plus the
    pseudo rows, against per-bus loops on the 24-unknown coordinator."""
    prob, model, x0, locals_ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, seed,
                                            robust)
    assert model.n_state == 24
    rng = np.random.default_rng(seed)
    for x in (x0, x0 + 1e-2 * rng.standard_normal(x0.shape)):
        h_ref, jac_ref = _loop_h_jac(model, locals_, x)
        assert np.abs(model.h(x) - h_ref).max() <= 1e-14
        assert np.abs(coordinator_jac(model, x) - jac_ref).max() <= 1e-12 * np.abs(jac_ref).max()


@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("seed", [4, 11])
def test_coordinator_matches_dense_oracle(net30, part30, specs30, truth30, view30, cfg30,
                                          robust, seed):
    prob, model, x0, _ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, seed, robust)
    assert len(prob.w_diag) + sum(b.shape[0] for b in prob.w_blocks) == len(prob.z)
    tol, k_limit = cfg30.epsilon, cfg30.k_limit
    x, cov, iters = _solve_coordinator(model, prob, x0, tol, k_limit)
    x_ref, cov_ref, iters_ref = _dense_gauss_newton(model, prob, x0, tol, k_limit)
    assert iters == iters_ref >= 2
    assert np.abs(x - x_ref).max() <= 1e-10
    assert np.abs(cov - cov_ref).max() <= 1e-8 * np.abs(cov_ref).max()


def test_coordinator_indefinite_weight_block(net30, part30, specs30, truth30, view30, cfg30):
    prob, model, x0, _ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, 4, True)
    blk = prob.w_blocks[1].copy()
    blk[0, 0] = -blk[0, 0]
    bad = replace(prob, w_blocks=(prob.w_blocks[0], blk, *prob.w_blocks[2:]))
    with pytest.raises(NumericalError, match="coordinator: weight matrix not positive definite"):
        _solve_coordinator(model, bad, x0, cfg30.epsilon, cfg30.k_limit)


def test_coordinator_rank_deficient(net30, part30, specs30, truth30, view30, cfg30):
    # area 1's pseudo rows alone leave the other areas' offsets u and their
    # own boundary states free
    prob, model, x0, locals_ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, 4, True)
    n1 = prob.w_blocks[0].shape[0]
    p = len(prob.w_diag)
    only1 = CoordinatorProblem(prob.z[p : p + n1], np.zeros(0), prob.w_blocks[:1])
    # a model with no physical rows, so its pattern is empty too
    model1 = _CoordinatorModel(net30, part30, specs30, []).pinned(locals_, _turned_angles(locals_))
    model1.pseudo_jac = model.pseudo_jac[:n1]
    with pytest.raises(UnobservableError):
        _solve_coordinator(model1, only1, x0, cfg30.epsilon, cfg30.k_limit)


def test_coordinator_iteration_limit(net30, part30, specs30, truth30, view30, cfg30):
    prob, model, x0, _ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, 4, True)
    with pytest.raises(NumericalError, match="coordinator: no convergence in 1 iterations"):
        _solve_coordinator(model, prob, x0, 1e-30, 1)


def test_coordinator_damps_a_step_that_raises_the_objective(net30, part30, specs30, truth30,
                                                            view30, cfg30, monkeypatch):
    # with the level-1 pseudo rows deweighted the nonlinear physical rows
    # dominate, and from shrunken boundary magnitudes the full Gauss-Newton
    # step raises J, so the Marquardt fallback has to find the descent step
    from gridstate import multiarea

    prob, model, x0, _ = _coordinator(net30, part30, specs30, truth30, view30, cfg30, 4, True)
    prob = replace(prob, w_blocks=tuple(1e4 * b for b in prob.w_blocks))
    nb = model.n_bnd
    x_ref, cov_ref, _ = _solve_coordinator(model, prob, x0, cfg30.epsilon, cfg30.k_limit)

    calls = []
    h_eval_ = multiarea.h_eval

    def counted(*args):
        calls.append(1)
        return h_eval_(*args)

    monkeypatch.setattr(multiarea, "h_eval", counted)
    far = np.concatenate([x0[:nb], 0.55 * x0[nb : 2 * nb], x0[2 * nb :]])
    x, cov, iters = _solve_coordinator(model, prob, far, cfg30.epsilon, cfg30.k_limit)
    # undamped: the start point plus one trial step per iteration
    assert len(calls) > iters + 1
    assert np.abs(x - x_ref).max() <= 1e-8
    assert np.abs(cov - cov_ref).max() <= 1e-8 * np.abs(cov_ref).max()
