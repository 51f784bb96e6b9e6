"""Two-level multi-area estimation.

Level 1 runs one robust hybrid estimator per area, independently and
optionally in parallel, over each area's own [internal, boundary,
external] state.  Level 2 is the central coordinator: it re-estimates all
boundary states plus the per-area reference offsets u from boundary
measurements, PMU measurements, and the level-1 results treated as
pseudo-measurements, then applies the same hybrid robust refinement.

Angle frames: each area's traditional estimate pins its reference-bus
angle to the PMU-measured angle when the reference carries a PMU (all
fixture areas do), so local frames are already aligned to the
synchronized one up to measurement noise; the offsets u (u_1 = 0) absorb
what remains.  Final angles are reported in area 1's frame.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .caseio import ExperimentConfig
from .errors import NumericalError, UnobservableError, ValidationError
from .hybrid import (
    VARIANCE_FLOOR,
    HybridResult,
    apply_perturbation,
    build_hybrid_model,
    hybrid_solve,
    hybrid_solve_robust,
    stack_model,
    uncertainty_for_model,
)
from .measurement import (
    FLOW_KINDS,
    INJECTION_KINDS,
    PMU_CURRENT_KINDS,
    PMU_KINDS,
    PMU_VOLTAGE_KINDS,
    MeasurementSet,
    ModelView,
    h_eval,
    jacobian_polar,
    polar_to_rect,
    rect_to_polar,
    wrap_angle,
)
from .netmodel import AreaPartition, PowerNetwork, boundary_measurement_ownership
from .powerflow import StateVector
from .wls import PolarModel, check_observable, gauss_newton, whitener, wls_estimate


# deweighting of the reference PMU phasor when used as the traditional
# estimator's frame/scale anchor; the full-precision rows belong to the
# hybrid stage, the anchor only has to make frame and voltage scale
# observable from SCADA data
ANCHOR_SIGMA_FACTOR = 10.0


def _pmu_ref_anchor(pmu: MeasurementSet, ref_bus: int):
    """Deweighted copies of the reference-bus PMU voltage phasor rows, or
    () when the reference carries no PMU.

    P/Q-only SCADA sets leave the voltage scale nearly free and fix angles
    only relatively; the anchor rows make both observable while leaving
    essentially all PMU precision to the hybrid stage.  With an anchor the
    reference angle is estimated, not pinned."""
    rows = []
    for m in pmu:
        if m.kind in ("pmu_vr", "pmu_vi") and m.bus == ref_bus:
            rows.append(replace(m, sigma=m.sigma * ANCHOR_SIGMA_FACTOR))
    if len(rows) != 2:
        return ()
    return tuple(rows)


def split_measurements(part: AreaPartition, mset: MeasurementSet):
    """Per-area SCADA and PMU subsets by ownership (metered side)."""
    owned = boundary_measurement_ownership(part, mset)
    scada, pmu = {}, {}
    for area in part.areas:
        sub = mset.subset(owned[area.index])
        scada[area.index] = sub.of_kind(*INJECTION_KINDS, *FLOW_KINDS)
        pmu[area.index] = sub.of_kind(*PMU_KINDS)
    return scada, pmu


def coordinator_measurements(net: PowerNetwork, part: AreaPartition, mset: MeasurementSet,
                             reuse_boundary: bool = True):
    """(z_b, z_PMU) for level 2.

    z_b re-uses the raw boundary measurements: injections at boundary buses
    and flows on tie-lines.  z_PMU keeps PMU voltage rows at boundary buses
    and PMU current rows on branches with both endpoints boundary (rows
    touching internal buses would leak unweighted level-1 error into the
    coordinator).
    """
    bnd = set(part.boundary_buses())
    zb, zpmu = [], []
    for m in mset:
        if m.kind in INJECTION_KINDS and m.bus in bnd:
            zb.append(m)
        elif m.kind in FLOW_KINDS and part.is_tie(net.branch(*m.branch)):
            zb.append(m)
        elif m.kind in PMU_VOLTAGE_KINDS and m.bus in bnd:
            zpmu.append(m)
        elif m.kind in PMU_CURRENT_KINDS and m.branch[0] in bnd and m.branch[1] in bnd:
            zpmu.append(m)
    if not reuse_boundary:
        zb = []
    return MeasurementSet(tuple(zb)), MeasurementSet(tuple(zpmu))


@dataclass(frozen=True)
class LocalResult:
    """Level-1 output for one area: polar estimate over [int, bnd, ext]
    with full covariance over the [va; vm] layout."""

    area_index: int
    state: StateVector
    cov: np.ndarray
    tse_state: StateVector
    tse_iterations: int
    hybrid: HybridResult

    def block(self, bus_ids):
        """(vm, va, joint covariance) for a subset of buses, rows ordered
        [va(bus_ids); vm(bus_ids)]."""
        n = len(self.state.bus_ids)
        pos = [self.state.bus_ids.index(b) for b in bus_ids]
        idx = list(pos) + [n + k for k in pos]
        return self.state.v1[pos], self.state.v2[pos], self.cov[np.ix_(idx, idx)]


def _hybrid_stage(hmodel, cfg: ExperimentConfig, robust, perturb, key) -> HybridResult:
    """The hybrid PMU step of both levels: sample the structured
    uncertainty, perturb the model with ``perturb(key, q, p)`` when a
    sampler is given, then solve plainly or robustly."""
    sampling = uncertainty_for_model(hmodel, cfg.s0, cfg.e0, cfg.ez0, anchored=False)
    if perturb is not None and not sampling.is_null():
        delta = perturb(key, sampling.q, sampling.e_h.shape[0])
        hmodel = apply_perturbation(hmodel, sampling, delta)
    if not robust:
        return hybrid_solve(hmodel)
    unc = uncertainty_for_model(hmodel, cfg.s0, cfg.e0, cfg.ez0, anchored=True)
    return hybrid_solve_robust(hmodel, unc, cfg.lambda_strategy, cfg.mu)


def _estimate_area(net, part, area, scada, pmu, cfg: ExperimentConfig, robust, perturb):
    view = ModelView.for_area(net, part, area.index)
    anchor = _pmu_ref_anchor(pmu, area.ref_bus)
    tse_set = MeasurementSet(tuple(scada) + anchor)
    model = PolarModel(view, tuple(tse_set), pin_angle=not anchor)
    if not check_observable(model):
        raise UnobservableError(
            f"area {area.index}: SCADA measurement set does not observe the local state"
        )
    tse = wls_estimate(tse_set, model, tol=cfg.epsilon, k_limit=cfg.k_limit)
    if not tse.converged:
        raise NumericalError(f"area {area.index}: traditional estimator did not converge")

    hmodel = build_hybrid_model(tse, pmu, view, diagonal_tse_cov=cfg.tse_cov_diagonal)
    hres = _hybrid_stage(hmodel, cfg, robust, perturb, ("level1", area.index))
    polar, cov_polar = rect_to_polar(hres.state, hres.covariance)
    return LocalResult(area.index, polar, cov_polar, tse.state, tse.iterations, hres)


def level1_run(
    net: PowerNetwork,
    part: AreaPartition,
    scada_by_area: dict,
    pmu_by_area: dict,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
    parallel: bool = False,
) -> list[LocalResult]:
    """Run every area's robust hybrid estimator; areas never exchange data.

    Results are gathered in area-index order regardless of completion
    order.  Raises NumericalError listing every failing area.
    """
    def job(area):
        return _estimate_area(
            net, part, area,
            scada_by_area[area.index], pmu_by_area[area.index],
            cfg, robust, perturb,
        )

    results: dict[int, LocalResult] = {}
    failures: list[str] = []
    if parallel:
        with ThreadPoolExecutor(max_workers=len(part.areas)) as pool:
            futures = {area.index: pool.submit(job, area) for area in part.areas}
        for idx in sorted(futures):
            try:
                results[idx] = futures[idx].result()
            except (NumericalError, ValidationError) as exc:
                failures.append(str(exc))
    else:
        for area in part.areas:
            try:
                results[area.index] = job(area)
            except (NumericalError, ValidationError) as exc:
                failures.append(str(exc))
    if failures:
        raise NumericalError("level 1 failed: " + "; ".join(failures))
    return [results[a.index] for a in part.areas]


# ---------------------------------------------------------------------------
# level 2: the central coordinator


@dataclass(frozen=True)
class CoordinatorProblem:
    """Assembled level-2 estimation problem.

    Unknowns x_c = [va(bnd, global frame); vm(bnd); u_2..u_r].  Rows:
    boundary SCADA, coordinator PMU rows, then per-area pseudo-measurement
    rows [va(bnd_i); vm(bnd_i); va(ext_i); vm(ext_i)].  The weight matrix
    is block-diagonal and kept as its blocks: the variances of the
    physical rows, then one level-1 covariance block per pseudo area.
    """

    bnd_ids: tuple[int, ...]
    physical: MeasurementSet
    pseudo_area_order: tuple[int, ...]
    pseudo_bus_lists: tuple[tuple[int, ...], ...]
    z: np.ndarray
    w_diag: np.ndarray
    w_blocks: tuple[np.ndarray, ...]

    @property
    def n_bnd(self):
        return len(self.bnd_ids)


class _CoordinatorModel:
    """h and Jacobian of the coordinator problem.

    Physical rows are evaluated on the full network with every
    non-boundary bus pinned to its owning area's level-1 estimate, rotated
    by that area's offset u; the chain rule folds the pinned angles'
    u-dependence into the u columns.
    """

    def __init__(self, net, part, locals_, prob: CoordinatorProblem):
        self.net = net
        self.part = part
        self.locals = {lr.area_index: lr for lr in locals_}
        self.prob = prob
        self.physical = tuple(prob.physical)
        self.view = ModelView.full(net, ref_bus=part.global_ref)
        self.bus_ids = self.view.bus_ids
        self.n = len(self.bus_ids)
        self.r = part.area_count
        nb = prob.n_bnd
        self.n_state = 2 * nb + (self.r - 1)
        self.bnd_pos = np.array([self.view.pos[b] for b in prob.bnd_ids], dtype=int)
        # pinned (non-boundary) buses: view position, owning area, local estimate
        pin_pos, pin_area, pin_vm, pin_va = [], [], [], []
        for area in part.areas:
            lr = self.locals[area.index]
            for b in area.internal:
                vm, va = lr.state.at(b)
                pin_pos.append(self.view.pos[b])
                pin_area.append(area.index)
                pin_vm.append(vm)
                pin_va.append(va)
        self.pin_pos = np.array(pin_pos, dtype=int)
        self.pin_u = np.array(pin_area, dtype=int) - 1
        self.pin_vm = np.array(pin_vm)
        self.pin_va = np.array(pin_va)
        # d(pinned angle)/d(u_2..u_r)
        self.pin_to_u = np.eye(self.r)[self.pin_u, 1:]
        # pseudo rows [va(buses) - u_ai; vm(buses)] are linear in x_c
        bnd_at = {b: j for j, b in enumerate(prob.bnd_ids)}
        col, u_rows, u_cols = [], [], []
        for ai, buses in zip(prob.pseudo_area_order, prob.pseudo_bus_lists):
            pos = [bnd_at[b] for b in buses]
            if ai >= 2:
                u_rows += range(len(col), len(col) + len(pos))
                u_cols += [2 * nb + ai - 2] * len(pos)
            col += pos + [nb + p for p in pos]
        self.pseudo_col = np.array(col, dtype=int)
        self.pseudo_jac = np.zeros((len(col), self.n_state))
        self.pseudo_jac[np.arange(len(col)), self.pseudo_col] = 1.0
        self.pseudo_jac[u_rows, u_cols] = -1.0

    def unpack(self, x):
        nb = self.prob.n_bnd
        u = np.concatenate([[0.0], x[2 * nb :]])
        vm = np.empty(self.n)
        va = np.empty(self.n)
        vm[self.bnd_pos] = x[nb : 2 * nb]
        va[self.bnd_pos] = x[:nb]
        vm[self.pin_pos] = self.pin_vm
        va[self.pin_pos] = self.pin_va + u[self.pin_u]
        return StateVector("polar", self.bus_ids, vm, va, ref_bus=self.part.global_ref)

    def h(self, x):
        physical = h_eval(self.view, self.unpack(x), self.physical)
        return np.concatenate([physical, self.pseudo_jac @ x])

    def jac(self, x):
        jfull = jacobian_polar(self.view, self.unpack(x), self.physical, pin_ref=False)
        j_va, j_vm = jfull[:, : self.n], jfull[:, self.n :]
        physical = np.hstack(
            [j_va[:, self.bnd_pos], j_vm[:, self.bnd_pos], j_va[:, self.pin_pos] @ self.pin_to_u]
        )
        return np.vstack([physical, self.pseudo_jac])


def _assemble_coordinator(part, locals_, z_b, z_pmu) -> CoordinatorProblem:
    bnd_ids = part.boundary_buses()
    physical = MeasurementSet(tuple(z_b) + tuple(z_pmu))
    z_parts = [physical.z]
    w_blocks, area_order, bus_lists = [], [], []
    for area in part.areas:
        lr = next(l for l in locals_ if l.area_index == area.index)
        buses = tuple(area.boundary) + tuple(area.external)
        if not buses:
            continue
        vm, va, cov = lr.block(buses)
        area_order.append(area.index)
        bus_lists.append(buses)
        z_parts.append(np.concatenate([va, vm]))
        w_blocks.append(cov + VARIANCE_FLOOR * np.eye(2 * len(buses)))
    return CoordinatorProblem(
        bnd_ids, physical, tuple(area_order), tuple(bus_lists),
        np.concatenate(z_parts), physical.sigmas**2, tuple(w_blocks),
    )


@dataclass(frozen=True)
class GlobalResult:
    """Final per-bus estimates: internal buses from level 1 (re-referenced
    through u), boundary buses from the coordinator."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray
    source: tuple[str, ...]
    u: np.ndarray
    method: str
    locals: tuple[LocalResult, ...] = ()
    coordinator_iterations: int = 0

    def state(self) -> StateVector:
        return StateVector("polar", self.bus_ids, self.vm.copy(), self.va.copy())


def _coordinator_init(model: _CoordinatorModel, prob: CoordinatorProblem):
    """Boundary states start at the mean of their level-1 pseudo values,
    offsets at zero."""
    nb = prob.n_bnd
    pseudo_z = prob.z[len(prob.w_diag) :]
    sums = np.bincount(model.pseudo_col, weights=pseudo_z, minlength=2 * nb)
    counts = np.bincount(model.pseudo_col, minlength=2 * nb)
    if np.any(counts[:nb] == 0):
        missing = [prob.bnd_ids[j] for j in range(nb) if counts[j] == 0]
        raise NumericalError(f"boundary buses {missing} have no level-1 pseudo-measurement")
    return np.concatenate([sums / counts, np.zeros(model.r - 1)])


def _solve_coordinator(model, prob: CoordinatorProblem, x0, tol, k_limit):
    """Gauss-Newton over the block-diagonal weight of ``prob``, whitened
    block by block.  Returns (x, inverse gain at x, iterations)."""
    whiten = whitener([prob.w_diag, *prob.w_blocks],
                      "coordinator: weight matrix not positive definite")
    x, cov, iterations, converged, _, _ = gauss_newton(model, prob.z, whiten, x0, tol, k_limit)
    if not converged:
        raise NumericalError(f"coordinator: no convergence in {k_limit} iterations")
    return x, cov, iterations


def level2_run(
    net: PowerNetwork,
    part: AreaPartition,
    locals_: list[LocalResult],
    z_b: MeasurementSet,
    z_pmu: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
) -> GlobalResult:
    """Central coordinator: nonlinear WLS over [boundary states; u], then
    the hybrid robust refinement of the boundary voltages."""
    bnd_ids = part.boundary_buses()
    u = np.zeros(part.area_count)
    iters = 0

    if bnd_ids:
        prob = _assemble_coordinator(part, locals_, z_b, z_pmu)
        model = _CoordinatorModel(net, part, locals_, prob)
        x0 = _coordinator_init(model, prob)
        x_hat, cov_c, iters = _solve_coordinator(model, prob, x0, cfg.epsilon, cfg.k_limit)
        nb = len(bnd_ids)
        u = np.concatenate([[0.0], x_hat[2 * nb :]])

        # hybrid refinement of the boundary voltages (rectangular, linear);
        # u passes through with its step-4 estimate
        bnd_state = StateVector(
            "polar", bnd_ids, np.array(x_hat[nb : 2 * nb]), np.array(x_hat[:nb])
        )
        rect, cov_rect = polar_to_rect(bnd_state, cov_c[: 2 * nb, : 2 * nb])
        bnd_view = ModelView(net, bnd_ids, ref_bus=part.global_ref)
        hmodel = stack_model(bnd_view, rect, cov_rect, z_pmu)
        hres = _hybrid_stage(hmodel, cfg, robust, perturb, ("level2", 0))
        bnd_polar, _ = rect_to_polar(hres.state)
    else:
        bnd_polar = None

    # assemble the global estimate: internal from level 1 (+u), boundary
    # from the coordinator
    by_area = {lr.area_index: lr for lr in locals_}
    bus_ids = tuple(sorted(b.id for b in net.buses))
    vm = np.empty(len(bus_ids))
    va = np.empty(len(bus_ids))
    source = []
    bnd_set = set(bnd_ids)
    for k, bid in enumerate(bus_ids):
        if bid in bnd_set:
            bvm, bva = bnd_polar.at(bid)
            vm[k], va[k] = bvm, bva
            source.append("coordinator")
        else:
            ai = part.area_of(bid)
            lvm, lva = by_area[ai].state.at(bid)
            vm[k] = lvm
            va[k] = lva + u[ai - 1]
            source.append(f"area{ai}")
    return GlobalResult(
        bus_ids, vm, va, tuple(source), u, "robust" if robust else "wls", tuple(locals_), iters
    )


def run_two_level(
    net: PowerNetwork,
    part: AreaPartition,
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
    parallel: bool = False,
) -> GlobalResult:
    """Full pipeline: ownership split, level 1 in all areas, level 2."""
    scada, pmu = split_measurements(part, mset)
    locals_ = level1_run(net, part, scada, pmu, cfg, robust, perturb, parallel)
    z_b, z_pmu = coordinator_measurements(net, part, mset, cfg.level2_reuse_boundary)
    return level2_run(net, part, locals_, z_b, z_pmu, cfg, robust, perturb)


def run_centralized(
    net: PowerNetwork,
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    ref_bus: int | None = None,
    perturb=None,
) -> GlobalResult:
    """Single-estimator reference pipeline over the whole network."""
    from .netmodel import single_area

    part = single_area(net, ref_bus)
    return run_two_level(net, part, mset, cfg, robust, perturb)


def compute_errors(result: GlobalResult, truth: StateVector):
    """Per-bus absolute errors (|dV|, |dtheta|); angles wrapped to (-pi, pi]."""
    if truth.coord != "polar":
        raise ValidationError("truth must be polar")
    order = [truth.index(b) for b in result.bus_ids]
    dvm = np.abs(result.vm - truth.v1[order])
    dva = np.abs(wrap_angle(result.va - truth.v2[order]))
    return dvm, dva
