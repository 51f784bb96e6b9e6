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

A :class:`Structure` holds all that depends only on the network, the
partition and the spec tuple (views, models, observability, row
positions); :meth:`Structure.run` solves one trial from a measurement
set's ``z`` and ``sigmas``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from copy import copy
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
    pmu_block,
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
from .netmodel import AreaPartition, PowerNetwork, boundary_measurement_ownership, single_area
from .powerflow import StateVector
from .wls import PolarModel, check_observable, gauss_newton, whitener, wls_estimate


# deweighting of the reference PMU phasor when used as the traditional
# estimator's frame/scale anchor; the full-precision rows belong to the
# hybrid stage, the anchor only has to make frame and voltage scale
# observable from SCADA data
ANCHOR_SIGMA_FACTOR = 10.0
SCADA_KINDS = INJECTION_KINDS + FLOW_KINDS


def _anchor_rows(specs, rows, ref_bus):
    """The positions among ``rows`` of ``specs`` of the reference-bus PMU
    voltage phasor, or [] when the reference carries no PMU."""
    found = [k for k in rows if specs[k].kind in PMU_VOLTAGE_KINDS and specs[k].bus == ref_bus]
    return found if len(found) == 2 else []


def _pmu_ref_anchor(pmu: MeasurementSet, ref_bus: int):
    """Deweighted copies of the reference-bus PMU voltage phasor rows, or
    () when the reference carries no PMU.

    P/Q-only SCADA sets leave the voltage scale nearly free and fix angles
    only relatively; the anchor rows make both observable while leaving
    essentially all PMU precision to the hybrid stage.  With an anchor the
    reference angle is estimated, not pinned."""
    rows = _anchor_rows(pmu.specs, range(len(pmu)), ref_bus)
    return tuple(replace(pmu.items[k], sigma=pmu.items[k].sigma * ANCHOR_SIGMA_FACTOR) for k in rows)


def _split_rows(part: AreaPartition, specs):
    """Per area, the positions in ``specs`` of the SCADA and the PMU rows
    it owns (metered side)."""
    owned = boundary_measurement_ownership(part, specs)
    scada, pmu = {}, {}
    for area in part.areas:
        wanted = set(owned[area.index])
        rows = [k for k, m in enumerate(specs) if m.id in wanted]
        scada[area.index] = [k for k in rows if specs[k].kind in SCADA_KINDS]
        pmu[area.index] = [k for k in rows if specs[k].kind in PMU_KINDS]
    return scada, pmu


def split_measurements(part: AreaPartition, mset: MeasurementSet):
    """Per-area SCADA and PMU subsets by ownership (metered side)."""
    by_kind = _split_rows(part, mset.specs)
    return tuple({i: mset.take(rows) for i, rows in by_area.items()} for by_area in by_kind)


def _coordinator_rows(net: PowerNetwork, part: AreaPartition, specs):
    """The positions in ``specs`` of z_b and z_PMU (see
    :func:`coordinator_measurements`)."""
    bnd = set(part.boundary_buses())
    zb, zpmu = [], []
    for k, m in enumerate(specs):
        if m.kind in INJECTION_KINDS and m.bus in bnd:
            zb.append(k)
        elif m.kind in FLOW_KINDS and part.is_tie(net.branch(*m.branch)):
            zb.append(k)
        elif m.kind in PMU_VOLTAGE_KINDS and m.bus in bnd:
            zpmu.append(k)
        elif m.kind in PMU_CURRENT_KINDS and m.branch[0] in bnd and m.branch[1] in bnd:
            zpmu.append(k)
    return zb, zpmu


def coordinator_measurements(net: PowerNetwork, part: AreaPartition, mset: MeasurementSet):
    """(z_b, z_PMU) for level 2.

    z_b re-uses the raw boundary measurements: injections at boundary buses
    and flows on tie-lines.  z_PMU keeps PMU voltage rows at boundary buses
    and PMU current rows on branches with both endpoints boundary (rows
    touching internal buses would leak unweighted level-1 error into the
    coordinator).
    """
    zb, zpmu = _coordinator_rows(net, part, mset.specs)
    return mset.take(zb), mset.take(zpmu)


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


class _AreaStructure:
    """Level 1 of one area without values: the TSE model over its SCADA
    rows plus the reference anchor (``tse_rows`` in the spec tuple, with
    sigma factors ``tse_scale``), its observability verdict, and the PMU
    block of its hybrid stage."""

    def __init__(self, net, part, area, specs, scada_rows, pmu_rows):
        self.area = area
        view = ModelView.for_area(net, part, area.index)
        self.block = pmu_block(view, specs, pmu_rows)
        anchor = _anchor_rows(specs, pmu_rows, area.ref_bus)
        self.tse_rows = np.array(scada_rows + anchor, dtype=np.intp)
        self.tse_scale = np.repeat([1.0, ANCHOR_SIGMA_FACTOR], [len(scada_rows), len(anchor)])
        self.model = PolarModel(view, tuple(specs[k] for k in self.tse_rows), pin_angle=not anchor)
        self.observable = check_observable(self.model)


def _estimate_area(a: _AreaStructure, mset: MeasurementSet, cfg: ExperimentConfig, robust, perturb):
    index = a.area.index
    if not a.observable:
        raise UnobservableError(f"area {index}: SCADA measurement set does not observe the local state")
    tse_set = MeasurementSet(a.model.specs, mset.z[a.tse_rows], mset.sigmas[a.tse_rows] * a.tse_scale)
    tse = wls_estimate(tse_set, a.model, tol=cfg.epsilon, k_limit=cfg.k_limit)
    if not tse.converged:
        raise NumericalError(f"area {index}: traditional estimator did not converge")

    hmodel = build_hybrid_model(tse, a.block, mset)
    hres = _hybrid_stage(hmodel, cfg, robust, perturb, ("level1", index))
    polar, cov_polar = rect_to_polar(hres.state, hres.covariance)
    return LocalResult(index, polar, cov_polar, tse.state, tse.iterations, hres)


def level1_run(
    structure: "Structure",
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
    parallel: bool = False,
) -> list[LocalResult]:
    """Run every area's robust hybrid estimator on the values of ``mset``;
    areas never exchange data.

    Results are gathered in area-index order regardless of completion
    order.  Raises NumericalError listing every failing area.
    """
    def job(a):
        return _estimate_area(a, mset, cfg, robust, perturb)

    results: dict[int, LocalResult] = {}
    failures: list[str] = []
    if parallel:
        with ThreadPoolExecutor(max_workers=len(structure.areas)) as pool:
            futures = {a.area.index: pool.submit(job, a) for a in structure.areas}
        for idx in sorted(futures):
            try:
                results[idx] = futures[idx].result()
            except (NumericalError, ValidationError) as exc:
                failures.append(str(exc))
    else:
        for a in structure.areas:
            try:
                results[a.area.index] = job(a)
            except (NumericalError, ValidationError) as exc:
                failures.append(str(exc))
    if failures:
        raise NumericalError("level 1 failed: " + "; ".join(failures))
    return [results[a.area.index] for a in structure.areas]


# ---------------------------------------------------------------------------
# level 2: the central coordinator


@dataclass(frozen=True)
class CoordinatorProblem:
    """One trial's level-2 values over the rows of a
    :class:`_CoordinatorModel`: z, and the block-diagonal weight matrix
    kept as its blocks: the variances of the physical rows, then one
    level-1 covariance block per pseudo area.
    """

    z: np.ndarray
    w_diag: np.ndarray
    w_blocks: tuple[np.ndarray, ...]


class _CoordinatorModel:
    """h and Jacobian of the coordinator problem.

    Unknowns x_c = [va(bnd, global frame); vm(bnd); u_2..u_r].  Rows: the
    physical rows (boundary SCADA, coordinator PMU rows) at positions
    ``rows`` of the spec tuple, then per pseudo area (one with boundary or
    external buses) [va(bnd_i); vm(bnd_i); va(ext_i); vm(ext_i)], taken
    from its level-1 [va; vm] at positions ``pseudo_idx``.

    Physical rows are evaluated on the full network with every
    non-boundary bus pinned to its owning area's level-1 estimate, rotated
    by that area's offset u; the chain rule folds the pinned angles'
    u-dependence into the u columns.  The index maps are built once;
    :meth:`pinned` binds one trial's level-1 estimates.
    """

    def __init__(self, net, part, specs, rows):
        self.part = part
        self.rows = np.array(rows, dtype=np.intp)
        self.physical = tuple(specs[k] for k in self.rows)
        self.view = ModelView.full(net, ref_bus=part.global_ref)
        self.bus_ids = self.view.bus_ids
        self.n = len(self.bus_ids)
        self.r = part.area_count
        self.bnd_ids = part.boundary_buses()
        nb = self.n_bnd = len(self.bnd_ids)
        self.n_state = 2 * nb + (self.r - 1)
        self.bnd_pos = np.array([self.view.pos[b] for b in self.bnd_ids], dtype=int)
        # pinned (non-boundary) buses: view position and owning area; an
        # area's internal buses lead its level-1 layout
        self.n_int = [len(area.internal) for area in part.areas]
        self.pin_pos = np.array([self.view.pos[b] for a in part.areas for b in a.internal], dtype=int)
        self.pin_u = np.array([a.index - 1 for a in part.areas for _ in a.internal], dtype=int)
        # d(pinned angle)/d(u_2..u_r)
        self.pin_to_u = np.eye(self.r)[self.pin_u, 1:]
        # pseudo rows [va(buses) - u_ai; vm(buses)] are linear in x_c
        bnd_at = {b: j for j, b in enumerate(self.bnd_ids)}
        col, u_rows, u_cols = [], [], []
        self.pseudo_areas, self.pseudo_idx = [], []
        for area in part.areas:
            buses = area.boundary + area.external
            if not buses:
                continue
            at = np.arange(len(area.internal), len(area.layout))
            self.pseudo_areas.append(area.index)
            self.pseudo_idx.append(np.concatenate([at, len(area.layout) + at]))
            pos = [bnd_at[b] for b in buses]
            if area.index >= 2:
                u_rows += range(len(col), len(col) + len(pos))
                u_cols += [2 * nb + area.index - 2] * len(pos)
            col += pos + [nb + p for p in pos]
        self.pseudo_col = np.array(col, dtype=int)
        self.pseudo_jac = np.zeros((len(col), self.n_state))
        self.pseudo_jac[np.arange(len(col)), self.pseudo_col] = 1.0
        self.pseudo_jac[u_rows, u_cols] = -1.0

    def pinned(self, locals_):
        """This model with the non-boundary buses pinned at the level-1
        estimates ``locals_`` (in area order)."""
        model = copy(self)
        model.pin_vm = np.concatenate([lr.state.v1[:k] for lr, k in zip(locals_, self.n_int)])
        model.pin_va = np.concatenate([lr.state.v2[:k] for lr, k in zip(locals_, self.n_int)])
        return model

    def unpack(self, x):
        nb = self.n_bnd
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
        jfull = jacobian_polar(self.view, self.unpack(x), self.physical)
        j_va, j_vm = jfull[:, : self.n], jfull[:, self.n :]
        physical = np.hstack(
            [j_va[:, self.bnd_pos], j_vm[:, self.bnd_pos], j_va[:, self.pin_pos] @ self.pin_to_u]
        )
        return np.vstack([physical, self.pseudo_jac])


def _assemble_coordinator(model: _CoordinatorModel, locals_, mset: MeasurementSet) -> CoordinatorProblem:
    z_parts = [mset.z[model.rows]]
    w_blocks = []
    for ai, idx in zip(model.pseudo_areas, model.pseudo_idx):
        lr = locals_[ai - 1]
        z_parts.append(np.concatenate([lr.state.v2, lr.state.v1])[idx])
        w_blocks.append(lr.cov[np.ix_(idx, idx)] + VARIANCE_FLOOR * np.eye(len(idx)))
    return CoordinatorProblem(np.concatenate(z_parts), mset.sigmas[model.rows] ** 2, tuple(w_blocks))


@dataclass(frozen=True)
class GlobalResult:
    """Final per-bus estimates: internal buses from level 1 (re-referenced
    through u), boundary buses from the coordinator."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray
    source: tuple[str, ...]
    u: np.ndarray
    locals: tuple[LocalResult, ...] = ()
    coordinator_iterations: int = 0


def _coordinator_init(model: _CoordinatorModel, prob: CoordinatorProblem):
    """Boundary states start at the mean of their level-1 pseudo values,
    offsets at zero."""
    nb = model.n_bnd
    pseudo_z = prob.z[len(prob.w_diag) :]
    sums = np.bincount(model.pseudo_col, weights=pseudo_z, minlength=2 * nb)
    counts = np.bincount(model.pseudo_col, minlength=2 * nb)
    if np.any(counts[:nb] == 0):
        missing = [model.bnd_ids[j] for j in range(nb) if counts[j] == 0]
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
    structure: "Structure",
    locals_: list[LocalResult],
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
) -> GlobalResult:
    """Central coordinator: nonlinear WLS over [boundary states; u], then
    the hybrid robust refinement of the boundary voltages."""
    s = structure
    u = np.zeros(s.part.area_count)
    iters = 0
    vm = np.empty(len(s.bus_ids))
    va = np.empty(len(s.bus_ids))

    if s.coordinator is not None:
        prob = _assemble_coordinator(s.coordinator, locals_, mset)
        model = s.coordinator.pinned(locals_)
        x0 = _coordinator_init(model, prob)
        x_hat, cov_c, iters = _solve_coordinator(model, prob, x0, cfg.epsilon, cfg.k_limit)
        nb = model.n_bnd
        u = np.concatenate([[0.0], x_hat[2 * nb :]])

        # hybrid refinement of the boundary voltages (rectangular, linear);
        # u passes through with its step-4 estimate
        bnd_state = StateVector(
            "polar", model.bnd_ids, np.array(x_hat[nb : 2 * nb]), np.array(x_hat[:nb])
        )
        rect, cov_rect = polar_to_rect(bnd_state, cov_c[: 2 * nb, : 2 * nb])
        hmodel = stack_model(s.bnd_block, rect, cov_rect, mset)
        hres = _hybrid_stage(hmodel, cfg, robust, perturb, ("level2", 0))
        bnd_polar, _ = rect_to_polar(hres.state)
        vm[s.bnd_out] = bnd_polar.v1
        va[s.bnd_out] = bnd_polar.v2

    # the global estimate: internal from level 1 (+u), boundary from the
    # coordinator
    for lr, out in zip(locals_, s.internal_out):
        vm[out] = lr.state.v1[: len(out)]
        va[out] = lr.state.v2[: len(out)] + u[lr.area_index - 1]
    return GlobalResult(s.bus_ids, vm, va, s.source, u, tuple(locals_), iters)


class Structure:
    """The value-free part of a two-level run over one network, partition
    and spec tuple, run once per trial by :meth:`run`: each area's level 1,
    the coordinator model (None without boundary buses) and its PMU block,
    and the positions that assemble the global estimate."""

    def __init__(self, net: PowerNetwork, part: AreaPartition, specs):
        self.part = part
        self.specs = tuple(specs)
        scada, pmu = _split_rows(part, self.specs)
        self.areas = [
            _AreaStructure(net, part, a, self.specs, scada[a.index], pmu[a.index]) for a in part.areas
        ]
        self.bus_ids = tuple(sorted(b.id for b in net.buses))
        out = {b: k for k, b in enumerate(self.bus_ids)}
        bnd_ids = part.boundary_buses()
        self.bnd_out = np.array([out[b] for b in bnd_ids], dtype=np.intp)
        self.internal_out = [np.array([out[b] for b in a.internal], dtype=np.intp) for a in part.areas]
        source = dict.fromkeys(bnd_ids, "coordinator")
        source.update((b, f"area{a.index}") for a in part.areas for b in a.internal)
        self.source = tuple(source[b] for b in self.bus_ids)
        self.coordinator = self.bnd_block = None
        if bnd_ids:
            zb, zpmu = _coordinator_rows(net, part, self.specs)
            self.coordinator = _CoordinatorModel(net, part, self.specs, zb + zpmu)
            self.bnd_block = pmu_block(ModelView(net, bnd_ids, ref_bus=part.global_ref), self.specs, zpmu)

    def run(self, mset: MeasurementSet, cfg: ExperimentConfig, robust: bool = True,
            perturb=None, parallel: bool = False) -> GlobalResult:
        """One trial on the values of ``mset``, a set over this structure's specs."""
        if mset.specs is not self.specs and mset.specs != self.specs:
            raise ValidationError("measurement set does not match the structure's specs")
        locals_ = level1_run(self, mset, cfg, robust, perturb, parallel)
        return level2_run(self, locals_, mset, cfg, robust, perturb)


def run_two_level(
    net: PowerNetwork,
    part: AreaPartition,
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    perturb=None,
    parallel: bool = False,
) -> GlobalResult:
    """Full pipeline on one measurement set: build the structure, run it once."""
    structure = Structure(net, part, mset.specs)
    return structure.run(mset, cfg, robust, perturb, parallel)


def run_centralized(
    net: PowerNetwork,
    mset: MeasurementSet,
    cfg: ExperimentConfig,
    robust: bool = True,
    ref_bus: int | None = None,
    perturb=None,
) -> GlobalResult:
    """Single-estimator reference pipeline over the whole network."""
    return run_two_level(net, single_area(net, ref_bus), mset, cfg, robust, perturb)


def compute_errors(result: GlobalResult, truth: StateVector):
    """Per-bus absolute errors (|dV|, |dtheta|); angles wrapped to (-pi, pi]."""
    if truth.coord != "polar":
        raise ValidationError("truth must be polar")
    order = [truth.index(b) for b in result.bus_ids]
    dvm = np.abs(result.vm - truth.v1[order])
    dva = np.abs(wrap_angle(result.va - truth.v2[order]))
    return dvm, dva
