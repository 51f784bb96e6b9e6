"""Two-level multi-area estimation.

Level 1 runs one robust hybrid estimator per area, independently, over
each area's own [internal, boundary, external] state: the areas'
traditional estimators step in lockstep, each as if alone, and their
hybrid stages run optionally in parallel.  Level 2 is the central coordinator: it re-estimates all
boundary states plus the per-area reference offsets u from boundary
measurements, PMU measurements, and the level-1 results treated as
pseudo-measurements, then applies the same hybrid robust refinement.

Angle frames: each area's traditional estimate pins its reference-bus
angle to the PMU-measured angle when the reference carries a PMU (all
fixture areas do), so local frames are already aligned to the
synchronized one up to measurement noise and whole turns; level 2 takes
every level-1 angle within pi of area 1's first, and the offsets u
(u_1 = 0) absorb what remains.  Final angles are reported in area 1's
frame.

A :class:`Structure` holds all that depends only on the network, the
partition and a spec tuple (views, models, observability, row
positions); :meth:`Structure.run` solves one trial from a measurement
set's ``z`` and ``sigmas``.  A structure is built on a spec pool and runs
any tuple of the pool's rows, in any order: a meter outage removes rows,
so its trials select rows of one pool instead of building a structure
each, sharing each part whose rows are all present and building the
others anew.  Parts hold their rows in canonical order
(:func:`gridstate.measurement.row_key`), so the estimate does not depend
on the order a measurement set lists its rows in.
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
    select_block,
    stack_model,
    uncertainty_for_model,
)
from .measurement import (
    FLOW_KINDS,
    INJECTION_KINDS,
    PMU_CURRENT_KINDS,
    PMU_VOLTAGE_KINDS,
    MeasurementSet,
    ModelView,
    h_eval,
    jacobian_polar,
    polar_to_rect,
    rect_to_polar,
    row_key,
    wrap_angle,
)
from .netmodel import AreaPartition, PowerNetwork, owning_area, single_area
from .powerflow import StateVector
from .wls import (
    JacobianPattern,
    PatternNormal,
    PolarBatch,
    PolarModel,
    check_observable,
    gauss_newton,
    whitener,
    wls_estimate,
)


# deweighting of the reference PMU phasor when used as the traditional
# estimator's frame/scale anchor; the full-precision rows belong to the
# hybrid stage, the anchor only has to make frame and voltage scale
# observable from SCADA data
ANCHOR_SIGMA_FACTOR = 10.0
# the traditional estimator starts flat at the anchor's measured angle
# rounded to this step: Gauss-Newton does not converge from about 1.3 rad
# off the PMU frame, and frames within half a step of zero start at 0
_START_STEP = np.pi / 4
SCADA_KINDS = INJECTION_KINDS + FLOW_KINDS


def _anchor_rows(specs, rows, ref_bus):
    """The positions among ``rows`` of ``specs`` of PMU voltage rows at ``ref_bus``."""
    return [k for k in rows if specs[k].kind in PMU_VOLTAGE_KINDS and specs[k].bus == ref_bus]


def _pmu_ref_anchor(pmu: MeasurementSet, ref_bus: int):
    """Deweighted copies of the reference-bus PMU voltage phasor rows, or
    () when the reference carries no PMU.

    P/Q-only SCADA sets leave the voltage scale nearly free and fix angles
    only relatively; the anchor rows make both observable while leaving
    essentially all PMU precision to the hybrid stage.  With an anchor the
    reference angle is estimated, not pinned."""
    rows = _anchor_rows(pmu.specs, range(len(pmu)), ref_bus)
    rows = rows if len(rows) == 2 else []
    return tuple(replace(pmu.items[k], sigma=pmu.items[k].sigma * ANCHOR_SIGMA_FACTOR) for k in rows)


def _split_rows(part: AreaPartition, specs):
    """Per area, the positions in ``specs`` of the SCADA and the PMU rows
    it owns (metered side), each in canonical row order."""
    scada = {a.index: [] for a in part.areas}
    pmu = {a.index: [] for a in part.areas}
    for k, m in sorted(enumerate(specs), key=lambda km: row_key(km[1])):
        (scada if m.kind in SCADA_KINDS else pmu)[owning_area(part, m)].append(k)
    return scada, pmu


def split_measurements(part: AreaPartition, mset: MeasurementSet):
    """Per-area SCADA and PMU subsets by ownership (metered side), their
    rows in canonical order (:func:`row_key`)."""
    by_kind = _split_rows(part, mset.specs)
    return tuple({i: mset.take(rows) for i, rows in by_area.items()} for by_area in by_kind)


def _coordinator_rows(net: PowerNetwork, part: AreaPartition, specs):
    """The positions in ``specs`` of z_b and z_PMU (see
    :func:`coordinator_measurements`)."""
    bnd = set(part.boundary_buses())
    zb, zpmu = [], []
    for k, m in sorted(enumerate(specs), key=lambda km: row_key(km[1])):
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
    """(z_b, z_PMU) for level 2, their rows in canonical order
    (:func:`row_key`).

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
    with full covariance over the [va; vm] layout, or None when the
    coordinator reads none of it (no boundary or external buses)."""

    area_index: int
    state: StateVector
    cov: np.ndarray | None
    tse_state: StateVector
    tse_iterations: int
    hybrid: HybridResult


def _hybrid_stage(hmodel, cfg: ExperimentConfig, robust, perturb, key, cov) -> HybridResult:
    """The hybrid PMU step of both levels: when a sampler is given, draw
    Delta = ``perturb(key, p, 2n)`` and move the model's p PMU rows by it
    (:func:`apply_perturbation`), then solve plainly or robustly; either
    solve forms its covariance only with ``cov``."""
    if perturb is not None and len(hmodel.w_pmu):
        delta = perturb(key, len(hmodel.w_pmu), hmodel.n_state)
        hmodel = apply_perturbation(hmodel, delta, cfg.s0, cfg.e0)
    if not robust:
        return hybrid_solve(hmodel, cov=cov)
    s0, e = uncertainty_for_model(hmodel, cfg.s0, cfg.e0)
    return hybrid_solve_robust(hmodel, s0, e, cfg.lambda_strategy, cfg.mu, cov=cov)


class _AreaStructure:
    """Level 1 of one area without values, for a spec tuple ``specs``: the
    PMU block of its hybrid stage, the TSE model over its SCADA rows plus
    the reference anchor (``tse_rows`` in ``specs``, with sigma factors
    ``tse_scale``), its observability verdict, and whether level 2 reads
    its covariance (``cov_read``).  ``rows`` holds the TSE's candidate
    rows: the SCADA rows, then the reference-bus PMU voltage rows, which
    anchor the TSE when there are two of them."""

    def __init__(self, view, area, specs, scada, pmu, cov_read):
        self.view, self.area, self.cov_read = view, area, cov_read
        self.block = pmu_block(view, specs, pmu)
        self._place(np.array(scada + _anchor_rows(specs, pmu, area.ref_bus), dtype=np.intp), len(scada))
        self._build(specs)

    def _place(self, rows, n_scada):
        """Hold the candidate rows ``rows`` (the first ``n_scada`` SCADA)
        and the TSE positions they give."""
        self.rows, self.n_scada = rows, n_scada
        anchor = rows[n_scada:] if len(rows) - n_scada == 2 else rows[:0]
        self.anchor = anchor.tolist()  # canonical order puts pmu_vi first: atan2 takes (vi, vr)
        self.tse_rows = np.concatenate([rows[:n_scada], anchor])
        self.tse_scale = np.repeat([1.0, ANCHOR_SIGMA_FACTOR], [n_scada, len(anchor)])

    def _build(self, specs):
        """Build the TSE model over ``tse_rows`` and its verdict."""
        tse_specs = tuple(specs[k] for k in self.tse_rows)
        self.model = PolarModel(copy(self.view), tse_specs, pin_angle=not self.anchor)
        self.observable = check_observable(self.model)

    def select(self, specs, row_of):
        """This area for the tuple ``specs`` of rows of its own (``row_of``:
        each of its tuple's rows' position in ``specs``, -1 where absent):
        the block and the TSE are shared at their new positions when all
        their rows are present, else built on the present ones."""
        area = copy(self)
        area.block = select_block(self.block, row_of[self.block.rows], specs)
        at = row_of[self.rows]
        present = at >= 0
        area._place(at[present], int(np.count_nonzero(present[: self.n_scada])))
        if not present.all():
            area._build(specs)
        return area


def _tse_inputs(structure: "Structure", mset: MeasurementSet):
    """Per observable area (``structure.observable``) its traditional
    estimator's measurement set, valued from ``mset``, and its start: flat
    at the anchor's measured angle rounded to ``_START_STEP``."""
    sets, starts = [], []
    for a in structure.observable:
        sets.append(MeasurementSet(a.model.specs, mset.z[a.tse_rows], mset.sigmas[a.tse_rows] * a.tse_scale))
        va0 = _START_STEP * round(np.arctan2(*mset.z[a.anchor]) / _START_STEP) if a.anchor else 0.0
        starts.append(a.model.flat(va0))
    return sets, starts


def _estimate_area(a: _AreaStructure, tse, mset: MeasurementSet, cfg: ExperimentConfig, robust, perturb):
    """The hybrid stage of one area on its traditional estimate ``tse``
    (or the error its traditional estimator failed with)."""
    index = a.area.index
    if not a.observable:
        raise UnobservableError(f"area {index}: SCADA measurement set does not observe the local state")
    if isinstance(tse, Exception):
        raise tse
    if not tse.converged:
        raise NumericalError(f"area {index}: traditional estimator did not converge")

    hmodel = build_hybrid_model(tse, a.block, mset)
    hres = _hybrid_stage(hmodel, cfg, robust, perturb, (1, index), a.cov_read)
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

    The observable areas' traditional estimators run in lockstep, each as
    if alone (one :func:`wls_estimate` call on ``structure.tse``); then
    each area's hybrid stage runs, on threads with ``parallel``.  Results
    are gathered in area-index order regardless of completion order.
    Raises NumericalError listing every failing area.
    """
    observable = structure.observable
    try:
        sets, starts = _tse_inputs(structure, mset)
        tse = wls_estimate(sets, structure.tse, cfg.epsilon, cfg.k_limit, starts) if sets else []
    except (NumericalError, ValidationError) as exc:
        tse = [exc] * len(observable)
    tse = dict(zip((a.area.index for a in observable), tse))

    def job(a):
        try:
            return _estimate_area(a, tse.get(a.area.index), mset, cfg, robust, perturb)
        except (NumericalError, ValidationError) as exc:
            return exc

    if parallel:
        with ThreadPoolExecutor(max_workers=len(structure.areas)) as pool:
            out = list(pool.map(job, structure.areas))
    else:
        out = [job(a) for a in structure.areas]
    failures = [str(r) for r in out if isinstance(r, Exception)]
    if failures:
        raise NumericalError("level 1 failed: " + "; ".join(failures))
    return out


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
    """h and normal equations of the coordinator problem.

    Unknowns x_c = [va(bnd, global frame); vm(bnd); u_2..u_r].  Rows: the
    physical rows (the boundary SCADA rows, then the coordinator PMU rows,
    each in canonical order) at positions ``rows`` of the spec tuple, then
    per pseudo area (one with boundary or external buses)
    [va(bnd_i); vm(bnd_i); va(ext_i); vm(ext_i)], taken from its level-1
    [va; vm] at positions ``pseudo_idx``.

    Physical rows are evaluated on the full network with every
    non-boundary bus pinned to its owning area's level-1 estimate, rotated
    by that area's offset u; the chain rule folds the pinned angles'
    u-dependence into the u columns.  The physical rows' nonzero pattern
    (``pattern``) maps each full-view column to its unknown: a boundary
    va or vm to its own, a pinned angle to its area's u (area 1's
    dropped), a pinned magnitude nowhere; the pseudo rows' Jacobian is
    the constant ``pseudo_jac``.  The index maps are built once;
    :meth:`select` keeps the rows another spec tuple has, and
    :meth:`pinned` binds one trial's level-1 estimates.  To
    :func:`gauss_newton` it is a batch of one (``parts``).
    """

    def __init__(self, net, part, specs, rows):
        self.part = part
        self.view = ModelView.full(net, ref_bus=part.global_ref)
        self.bus_ids = self.view.bus_ids
        self.n = len(self.bus_ids)
        self.r = part.area_count
        self.bnd_ids = part.boundary_buses()
        nb = self.n_bnd = len(self.bnd_ids)
        self.n_state = 2 * nb + (self.r - 1)
        self.parts = ((slice(None), slice(None)),)
        self.bnd_pos = np.array([self.view.pos[b] for b in self.bnd_ids], dtype=int)
        # pinned (non-boundary) buses: view position and owning area; an
        # area's internal buses lead its level-1 layout
        self.n_int = [len(area.internal) for area in part.areas]
        self.pin_pos = np.array([self.view.pos[b] for a in part.areas for b in a.internal], dtype=int)
        self.pin_u = np.array([a.index - 1 for a in part.areas for _ in a.internal], dtype=int)
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
        col_of = self.col_of = np.full(2 * self.n, -1)
        col_of[self.bnd_pos] = np.arange(nb)
        col_of[self.n + self.bnd_pos] = nb + np.arange(nb)
        col_of[self.pin_pos] = np.where(self.pin_u > 0, 2 * nb + self.pin_u - 1, -1)
        self._hold(specs, rows)

    def _hold(self, specs, rows):
        """Hold the rows ``rows`` of ``specs`` as the physical rows, with their pattern."""
        self.rows = np.array(rows, dtype=np.intp)
        self.physical = tuple(specs[k] for k in self.rows)
        at = self.view.compile(self.physical).jac_at
        self.pattern = JacobianPattern(at, len(self.physical), self.col_of, self.n_state)

    def select(self, specs, row_of):
        """This model for the tuple ``specs`` of rows of its own (``row_of``:
        each of its tuple's rows' position in ``specs``, -1 where absent):
        shared at the new positions when all its rows are present, else
        the present rows compiled on a copy of its view."""
        at = row_of[self.rows]
        model = copy(self)
        if np.all(at >= 0):
            model.rows = at
        else:
            model.view = copy(self.view)
            model._hold(specs, at[at >= 0])
        return model

    def pinned(self, locals_, angles):
        """This model with the non-boundary buses pinned at the level-1
        estimates ``locals_`` (in area order), their angles ``angles``."""
        model = copy(self)
        model.pin_vm = np.concatenate([lr.state.v1[:k] for lr, k in zip(locals_, self.n_int)])
        model.pin_va = np.concatenate([va[:k] for va, k in zip(angles, self.n_int)])
        return model

    def unpack(self, x):
        """(vm, va) over the full view at x: the pair h_eval takes."""
        nb = self.n_bnd
        u = np.concatenate([[0.0], x[2 * nb :]])
        vm = np.empty(self.n)
        va = np.empty(self.n)
        vm[self.bnd_pos] = x[nb : 2 * nb]
        va[self.bnd_pos] = x[:nb]
        vm[self.pin_pos] = self.pin_vm
        va[self.pin_pos] = self.pin_va + u[self.pin_u]
        return vm, va

    def h(self, x):
        """h at x, with no domain check (see :meth:`outside`)."""
        physical = h_eval(self.view, self.unpack(x), self.physical)
        return np.concatenate([physical, self.pseudo_jac @ x])

    def outside(self, x):
        """Whether x leaves the state domain (a boundary magnitude that is
        not positive), as a batch of one; the pinned magnitudes are level
        1's, positive as ``rect_to_polar`` gives them."""
        return np.array([np.any(x[self.n_bnd : 2 * self.n_bnd] <= 0.0)])

    def jac_values(self, x):
        """The physical rows' nonzero Jacobian values over the full view,
        in ``CompiledSpecs.jac_at`` order."""
        return jacobian_polar(self.view, self.unpack(x), self.physical, dense=False)

    def pattern_normal(self, whiten) -> PatternNormal:
        """:class:`PatternNormal` under ``whiten``, one trial's whitener
        over [physical; pseudo] rows: the physical rows by the pattern,
        the pseudo rows' constant Jacobian whitened (and its gain formed)
        once per trial."""
        m = len(self.physical)
        unit = np.zeros(m + len(self.pseudo_jac))
        unit[:m] = 1.0
        pseudo = np.zeros((len(unit), self.n_state))
        pseudo[m:] = self.pseudo_jac
        return PatternNormal(self.pattern, self.jac_values, whiten(unit)[:m], whiten(pseudo)[m:])


def _assemble_coordinator(model: _CoordinatorModel, locals_, angles, mset) -> CoordinatorProblem:
    """The coordinator's values: the physical rows from ``mset``, the
    pseudo rows from the level-1 results ``locals_`` with angles
    ``angles``."""
    z_parts = [mset.z[model.rows]]
    w_blocks = []
    for ai, idx in zip(model.pseudo_areas, model.pseudo_idx):
        lr = locals_[ai - 1]
        z_parts.append(np.concatenate([angles[ai - 1], lr.state.v1])[idx])
        w_blocks.append(lr.cov[np.ix_(idx, idx)] + VARIANCE_FLOOR * np.eye(len(idx)))
    return CoordinatorProblem(np.concatenate(z_parts), mset.sigmas[model.rows] ** 2, tuple(w_blocks))


@dataclass(frozen=True)
class GlobalResult:
    """Final per-bus estimates: internal buses from level 1 (re-referenced
    through u), boundary buses from the coordinator.  ``locals`` holds the
    level-1 results as level 1 returned them, their angles before level
    2's whole-turn shift."""

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
    block by block; the normal equations come from the physical rows'
    pattern plus the pseudo rows' gain, formed once
    (:meth:`_CoordinatorModel.pattern_normal`).  Returns (x, inverse gain
    at x, iterations); raises the error the solve failed with."""
    whiten = whitener([prob.w_diag, *prob.w_blocks],
                      "coordinator: weight matrix not positive definite")
    normal = model.pattern_normal(whiten)
    (out,) = gauss_newton(model, prob.z, whiten, x0, tol, k_limit, normal)
    if isinstance(out, Exception):
        raise out
    x, cov, iterations, converged, _, _ = out
    if not converged:
        raise NumericalError(f"coordinator: no convergence in {k_limit} iterations")
    return x, cov, iterations


def _turned_angles(locals_):
    """The level-1 angles, each area's taken within pi of area 1's first:
    level-1 angles are known up to whole turns (areas start apart and the
    hybrid step wraps)."""
    ref = locals_[0].state.v2[0]
    return [lr.state.v2 + 2.0 * np.pi * np.round((ref - lr.state.v2) / (2.0 * np.pi)) for lr in locals_]


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
    angles = _turned_angles(locals_)
    u = np.zeros(s.part.area_count)
    iters = 0
    vm = np.empty(len(s.bus_ids))
    va = np.empty(len(s.bus_ids))

    if s.coordinator is not None:
        prob = _assemble_coordinator(s.coordinator, locals_, angles, mset)
        model = s.coordinator.pinned(locals_, angles)
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
        hres = _hybrid_stage(hmodel, cfg, robust, perturb, (2, 0), cov=False)
        bnd_polar, _ = rect_to_polar(hres.state)
        vm[s.bnd_out] = bnd_polar.v1
        va[s.bnd_out] = bnd_polar.v2

    # the global estimate: internal from level 1 (+u), boundary from the
    # coordinator
    for lr, area_va, out in zip(locals_, angles, s.internal_out):
        vm[out] = lr.state.v1[: len(out)]
        va[out] = area_va[: len(out)] + u[lr.area_index - 1]
    return GlobalResult(s.bus_ids, vm, va, s.source, u, tuple(locals_), iters)


class Structure:
    """The value-free part of a two-level run over one network, partition
    and spec tuple, run once per trial by :meth:`run`: each area's level 1,
    the lockstep batch of the observable areas' traditional estimators
    (``tse``), the coordinator model (None without boundary buses) and its
    PMU block, and the positions that assemble the global estimate.  Each
    part holds its rows in canonical order (:func:`row_key`), whatever
    the tuple's order.

    The tuple it is built on is its spec pool, whose per-row work (views
    and their Ybus, compiled rows, index maps, PMU blocks) is done once;
    a tuple of rows of the pool, in any order, is run on a structure
    selected from it (:meth:`select`)."""

    def __init__(self, net: PowerNetwork, part: AreaPartition, specs):
        self.part = part
        self.bus_ids = tuple(sorted(b.id for b in net.buses))
        out = {b: k for k, b in enumerate(self.bus_ids)}
        bnd_ids = part.boundary_buses()
        self.bnd_out = np.array([out[b] for b in bnd_ids], dtype=np.intp)
        self.internal_out = [np.array([out[b] for b in a.internal], dtype=np.intp) for a in part.areas]
        source = dict.fromkeys(bnd_ids, "coordinator")
        source.update((b, f"area{a.index}") for a in part.areas for b in a.internal)
        self.source = tuple(source[b] for b in self.bus_ids)
        specs = tuple(specs)
        self._last = None  # the last structure select derived
        coordinator = bnd_block = None
        if bnd_ids:
            zb, zpmu = _coordinator_rows(net, part, specs)
            coordinator = _CoordinatorModel(net, part, specs, zb + zpmu)
            bnd_block = pmu_block(ModelView(net, bnd_ids, ref_bus=part.global_ref), specs, zpmu)
        # the coordinator reads the level-1 covariance of its pseudo areas only
        read = set(coordinator.pseudo_areas) if coordinator is not None else set()
        scada, pmu = _split_rows(part, specs)
        areas = [_AreaStructure(ModelView.for_area(net, part, a.index), a, specs,
                                scada[a.index], pmu[a.index], a.index in read) for a in part.areas]
        self._set(specs, coordinator, bnd_block, areas)

    def _set(self, specs, coordinator, bnd_block, areas):
        """Hold the parts of the tuple ``specs``."""
        self.specs, self.coordinator, self.bnd_block, self.areas = specs, coordinator, bnd_block, areas
        self._at = {id(m): k for k, m in enumerate(specs)}  # each spec object's position
        # the observable areas' traditional estimators, solved in lockstep
        self.observable = [a for a in self.areas if a.observable]
        self.tse = PolarBatch([a.model for a in self.observable]) if self.observable else None

    def row_of(self, specs):
        """Each row's position in ``specs`` (-1 where absent), every row
        serving one row of ``specs``; None when ``specs`` has a row this
        structure's tuple lacks."""
        row_of = np.full(len(self.specs), -1, dtype=np.intp)
        at = [self._at.get(id(m), -1) for m in specs]
        if -1 not in at:  # rows that are this tuple's own spec objects, as an outage's are
            row_of[at] = np.arange(len(specs))
            if np.count_nonzero(row_of >= 0) == len(specs):
                return row_of
        # equal specs that are other objects, or a repeated row: match copy by copy
        free = {}
        for k, m in enumerate(self.specs):
            free.setdefault(m, []).append(k)
        row_of[:] = -1
        for r, m in enumerate(specs):
            if not free.get(m):
                return None
            row_of[free[m].pop(0)] = r
        return row_of

    def select(self, specs) -> "Structure | None":
        """The structure of the tuple ``specs``, equal in every value to
        one built on it: this structure for its own specs, else one
        selected from its parts, which keeps no reference back (the last
        one is kept for the next call); None when ``specs`` has a row this
        structure's tuple lacks.  Each part (an area's TSE, a PMU block,
        the coordinator) is this structure's at its new positions when all
        its rows are present, and is built on the present rows otherwise."""
        specs = tuple(specs)
        if specs is self.specs or specs == self.specs:
            return self
        last = self._last
        if last is not None and (specs is last.specs or specs == last.specs):
            return last
        row_of = self.row_of(specs)
        if row_of is None:
            return None
        coordinator = bnd_block = None
        if self.coordinator is not None:
            coordinator = self.coordinator.select(specs, row_of)
            bnd_block = select_block(self.bnd_block, row_of[self.bnd_block.rows], specs)
        last = copy(self)
        last._last = None
        last._set(specs, coordinator, bnd_block, [a.select(specs, row_of) for a in self.areas])
        self._last = last
        return last

    def run(self, mset: MeasurementSet, cfg: ExperimentConfig, robust: bool = True,
            perturb=None, parallel: bool = False) -> GlobalResult:
        """One trial on the values of ``mset``, a set over rows of this
        structure's tuple (:meth:`select`)."""
        structure = self.select(mset.specs)
        if structure is None:
            raise ValidationError("measurement set does not match the structure's specs")
        locals_ = level1_run(structure, mset, cfg, robust, perturb, parallel)
        return level2_run(structure, locals_, mset, cfg, robust, perturb)


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
