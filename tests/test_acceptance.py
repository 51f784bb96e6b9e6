"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them inline).

Tolerances are pinned here, not configurable.
"""

from dataclasses import replace

import numpy as np

from gridstate.bdu import _Evaluator, bdu_solve, min_g
from gridstate.caseio import parse_config
from gridstate.cli import main, make_delta_sampler, prepare, run_trial
from gridstate.measurement import (
    MeasurementSet,
    ModelView,
    h_eval,
    jacobian_polar,
    synthesize,
    wrap_angle,
)
from gridstate.multiarea import (
    Structure,
    compute_errors,
    level1_run,
    run_centralized,
    run_two_level,
    split_measurements,
    _pmu_ref_anchor,
)
from gridstate.netmodel import boundary_measurement_ownership, single_area
from gridstate.powerflow import StateVector, masked_mismatch, run_powerflow
from gridstate.wls import PolarModel, wls_estimate
from tests.conftest import synth_zero
from tests.oracles import qr_covariance, spectral_norm_strs, weighted_ls
from tests.test_bdu import _random_problem, grid_minmax


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_c01_partition_reproduction(net30, part30):
    counts = [(len(a.internal), len(a.boundary), len(a.external)) for a in part30.areas]
    listed = {4, 6, 9, 10, 12, 15, 22, 23, 24, 28}
    got = set(part30.boundary_buses())
    ok = counts == [(5, 3, 4), (9, 5, 4), (5, 3, 4)] and listed <= got
    _report(1, ok, f"area composition {counts}, boundary set {sorted(got)}")


def test_c02_measurement_plan_reproduction(net30, part30, plan30):
    from gridstate.measurement import redundancy

    specs = plan30.expand(net30)
    scada = [m for m in specs if m.kind in ("p_inj", "q_inj", "p_flow", "q_flow")]
    owned = boundary_measurement_ownership(part30, scada)
    by_id = {m.id: m for m in scada}
    counts = {
        a: (
            sum(1 for i in ids if by_id[i].kind == "p_inj"),
            sum(1 for i in ids if by_id[i].kind == "p_flow"),
        )
        for a, ids in owned.items()
    }
    report, _ = redundancy(net30, part30, plan30)
    etas = [round(eta, 3) for _, _, eta in report.values()]
    ok = counts == {1: (3, 15), 2: (5, 21), 3: (3, 12)} and all(
        eta >= 1.3 for eta in etas
    )
    _report(2, ok, f"injection/flow pairs {counts}, eta per area {etas}")


def test_c03_noise_defaults():
    cfg = parse_config("")
    got = (cfg.sigma_injection, cfg.sigma_flow, cfg.sigma_pmu)
    _report(3, got == (0.01, 0.008, 0.001), f"sigma defaults {got}")


def test_c04_load_flow(net30):
    sol = run_powerflow(net30, tol=1e-8, max_iter=10)
    check = masked_mismatch(net30, sol.state)
    ok = sol.iterations <= 10 and sol.max_mismatch < 1e-8 and check < 1e-8
    _report(4, ok, f"{sol.iterations} iterations, independent mismatch {check:.2e}")


def test_c05_wls_consistency(net30, part30, specs30, truth30, view30):
    mset = synth_zero(view30, truth30, specs30)
    scada, pmu = split_measurements(part30, mset)
    worst_state = 0.0
    worst_cov = 0.0
    for area in part30.areas:
        view = ModelView.for_area(net30, part30, area.index)
        anchor = _pmu_ref_anchor(pmu[area.index], area.ref_bus)
        tse_set = MeasurementSet(tuple(scada[area.index]) + anchor)
        model = PolarModel(view, tuple(tse_set), pin_angle=not anchor)
        res = wls_estimate(tse_set, model, tol=1e-9, k_limit=30)
        x_true = model.pack(truth30.subset(view.bus_ids))
        worst_state = max(worst_state, np.abs(model.pack(res.state) - x_true).max())
        # an oracle that does not form the normal matrix, so it does not
        # share the rounding of the code's gain
        h = model.jac(model.pack(res.state))
        oracle = qr_covariance(h / tse_set.sigmas[:, None])
        rel = np.abs(res.covariance - oracle).max() / np.abs(oracle).max()
        worst_cov = max(worst_cov, rel)
    ok = worst_state < 1e-6 and worst_cov < 1e-10
    _report(5, ok, f"max state error {worst_state:.2e}, cov identity {worst_cov:.2e}")


def test_c06_jacobian_correctness(net30, part30, specs30):
    rng = np.random.default_rng(2024)
    owned = boundary_measurement_ownership(part30, specs30)
    by_id = {m.id: m for m in specs30}
    worst = 0.0
    for area in part30.areas:
        view = ModelView.for_area(net30, part30, area.index)
        meas = [by_id[i] for i in owned[area.index]]
        n = view.n_bus
        for _ in range(10):
            vm = 1.0 + 0.05 * rng.standard_normal(n)
            va = 0.15 * rng.standard_normal(n)
            st = StateVector("polar", view.bus_ids, np.clip(vm, 0.8, None), va)
            jac = jacobian_polar(view, view.polar(st), meas)
            eps = 1e-6
            fd = np.empty_like(jac)
            for col in range(2 * n):
                up_vm, up_va = st.v1.copy(), st.v2.copy()
                dn_vm, dn_va = st.v1.copy(), st.v2.copy()
                if col < n:
                    up_va[col] += eps
                    dn_va[col] -= eps
                else:
                    up_vm[col - n] += eps
                    dn_vm[col - n] -= eps
                hi = h_eval(view, (up_vm, up_va), meas)
                lo = h_eval(view, (dn_vm, dn_va), meas)
                fd[:, col] = (hi - lo) / (2 * eps)
            rel = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
            worst = max(worst, rel)
    _report(6, worst < 1e-6, f"max relative Jacobian error {worst:.2e}")


def test_c07_bdu_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        if k % 2 == 0:
            p = _random_problem(rng, s_scale=0.0)
        else:
            p = _random_problem(rng, e_scale=0.0, ez_scale=0.0)
        r = np.diag(p.r)
        x_ls = np.linalg.solve(p.h.T @ r @ p.h, p.h.T @ r @ p.z)
        worst = max(worst, np.abs(weighted_ls(p).x - x_ls).max())
    _report(7, worst < 1e-10, f"max deviation from weighted LS {worst:.2e}")


def test_c08_bdu_saddle_desk_scale():
    rng = np.random.default_rng(42)
    worst_x = 0.0
    worst_v = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        p = _random_problem(rng, n=n, q=q)
        sol = bdu_solve(p)
        r = np.diag(p.r)
        x_ls = np.linalg.solve(p.h.T @ r @ p.h, p.h.T @ r @ p.z)
        x_grid, val_grid = grid_minmax(p, x_ls)
        worst_x = max(worst_x, np.abs(sol.x - x_grid).max())
        worst_v = max(worst_v, abs(sol.worst_case - val_grid) / (1.0 + abs(val_grid)))
    ok = worst_x < 1e-3 and worst_v < 1e-3
    _report(8, ok, f"minimizer gap {worst_x:.2e}, value gap {worst_v:.2e}")


def test_c09_lambda_optimizer():
    rng = np.random.default_rng(33)
    worst = 0.0
    all_in_domain = True
    for _ in range(20):
        p = _random_problem(rng)
        lam0 = spectral_norm_strs(p.uncertainty.s, p.r)
        lam_hat = min_g(p)
        all_in_domain &= lam_hat >= lam0 - 1e-12
        ev = _Evaluator(p)
        span = max(4.0 * (lam_hat - lam0), 2.0 * max(lam0, 1.0))
        grid = np.linspace(lam0, lam0 + span, 10_000)
        lam_grid = grid[int(np.argmin([ev.g(l) for l in grid]))]
        pitch = span / (len(grid) - 1)
        worst = max(worst, abs(lam_hat - lam_grid) / pitch)
    ok = worst <= 1.0 + 1e-6 and all_in_domain
    _report(9, ok, f"max |lam - grid| = {worst:.3f} grid pitches, domain ok {all_in_domain}")


def test_c10_hybrid_improvement(net30, part30, specs30, truth30, view30, cfg30):
    cfg = replace(cfg30, s0=0.0, e0=0.0)
    tse_err, hyb_err = [], []
    structure = Structure(net30, part30, specs30)
    for trial in range(100):
        mset = synthesize(view30, truth30, specs30, cfg.sigma_for,
                          np.random.default_rng([4242, trial]))
        locals_ = level1_run(structure, mset, cfg, robust=False)
        for lr in locals_:
            b = part30.areas[lr.area_index - 1].ref_bus
            tvm, tva = truth30.at(b)
            svm, sva = lr.tse_state.at(b)
            hvm, hva = lr.state.at(b)
            tse_err += [abs(svm - tvm), abs(wrap_angle(sva - tva))]
            hyb_err += [abs(hvm - tvm), abs(wrap_angle(hva - tva))]
    t, h = np.mean(tse_err), np.mean(hyb_err)
    _report(10, h < t, f"mean |error| at PMU buses: TSE {t:.3e}, hybrid {h:.3e}")


def test_c11_two_level_degeneracy(net30, part30, specs30, truth30, view30, cfg30):
    cfg = replace(cfg30, s0=0.05, e0=0.05, seed=11)
    mset = synthesize(view30, truth30, specs30, cfg.sigma_for,
                      np.random.default_rng([11, 0]))
    part1 = single_area(net30, ref_bus=part30.global_ref)
    perturb = make_delta_sampler(cfg.seed, 0)
    g2 = run_two_level(net30, part1, mset, cfg, robust=True, perturb=perturb)
    gc = run_centralized(net30, mset, cfg, robust=True,
                         ref_bus=part30.global_ref, perturb=perturb)
    gap = max(np.abs(g2.vm - gc.vm).max(), np.abs(wrap_angle(g2.va - gc.va)).max())
    _report(11, gap < 1e-8, f"max difference two-level vs centralized {gap:.2e}")


def test_c12_robustness_claim():
    exp = prepare(partition="ieee30.areas", overrides={"s0": 0.05, "e0": 0.05, "seed": 3})
    wins = 0
    wls_means, rob_means = [], []
    for t in range(100):
        rw = run_trial(exp, t, robust=False)
        rr = run_trial(exp, t, robust=True)
        ew = compute_errors(rw, exp.truth)
        er = compute_errors(rr, exp.truth)
        mw = 0.5 * (ew[0].mean() + ew[1].mean())
        mr = 0.5 * (er[0].mean() + er[1].mean())
        wls_means.append(mw)
        rob_means.append(mr)
        wins += mr <= mw
    _report(
        12,
        wins >= 95,
        f"robust wins {wins}/100 paired seeds "
        f"(mean error: wls {np.mean(wls_means):.3e}, robust {np.mean(rob_means):.3e})",
    )


def test_c13_remark4_reduction():
    exp = prepare(partition="ieee30.areas", overrides={"s0": 0.0, "e0": 0.0, "seed": 7})
    ga = run_trial(exp, 0, robust=True)
    gb = run_trial(exp, 0, robust=False)
    gap = max(np.abs(ga.vm - gb.vm).max(), np.abs(wrap_angle(ga.va - gb.va)).max())
    _report(13, gap < 1e-10, f"robust vs non-robust at zero uncertainty: {gap:.2e}")


def test_c14_determinism(tmp_path):
    args = [
        "estimate", "--partition", "ieee30.areas", "--mode", "multiarea-robust",
        "--seed", "7", "--trials", "2", "--uncertainty", "0.05,0.05",
        "--format", "json",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    f1 = (tmp_path / "run1" / "estimate_multiarea-robust.json").read_bytes()
    f2 = (tmp_path / "run2" / "estimate_multiarea-robust.json").read_bytes()
    _report(14, f1 == f2, f"byte-identical outputs across reruns ({len(f1)} bytes)")
