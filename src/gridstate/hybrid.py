"""Two-step hybrid estimator: stack the traditional-SE result (as
rectangular pseudo-measurements) with PMU phasor measurements into one
linear model, then solve non-robustly (one-shot weighted LS) or robustly
(min-max via :mod:`gridstate.bdu`).

Row order of the stacked model: [V_R,TSE; V_I,TSE; V_R,PMU; V_I,PMU;
I_R,PMU; I_I,PMU].  The state is rectangular, [vr (n); vi (n)].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bdu import (
    RobustProblem,
    RobustSolution,
    UncertaintyStructure,
    bdu_solve,
    lsq,
    null_uncertainty,
)
from .errors import ValidationError
from .measurement import (
    PMU_CURRENT_KINDS,
    PMU_VOLTAGE_KINDS,
    MeasurementSet,
    ModelView,
    jacobian_rect,
    polar_to_rect,
)
from .powerflow import StateVector
from .wls import EstimationResult, whitener

# added to the pseudo-state covariance blocks of both levels: the
# transported covariance carries a zero mode (the pinned reference angle)
VARIANCE_FLOOR = 1e-12


def _pmu_block_order(pmu: MeasurementSet):
    """Reorder PMU rows into the [vr..., vi..., ir..., ii...] block layout."""
    blocks = [[m for m in pmu if m.kind == kind] for kind in ("pmu_vr", "pmu_vi", "pmu_ir", "pmu_ii")]
    return tuple(m for block in blocks for m in block)


@dataclass(frozen=True)
class HybridModel:
    """Stacked linear measurement model z = H x + e over rectangular states;
    the block-diagonal error covariance W is kept as its two blocks."""

    view: ModelView
    z: np.ndarray
    h: np.ndarray
    w_pseudo: np.ndarray  # 2n x 2n pseudo-state covariance, plus VARIANCE_FLOOR
    w_pmu: np.ndarray  # PMU variances sigma^2, one per PMU row
    pmu_specs: tuple

    @property
    def n_bus(self):
        return self.view.n_bus

    @property
    def n_state(self):
        return 2 * self.view.n_bus

    @property
    def pmu_rows(self):
        return np.arange(self.n_state, len(self.z))


def stack_model(
    view: ModelView,
    rect_state: StateVector,
    cov_rect: np.ndarray,
    pmu,
) -> HybridModel:
    """Stack rectangular pseudo-state rows over PMU rows into one model.

    Shared by the per-area hybrid step and the coordinator's refinement.
    ``VARIANCE_FLOOR`` keeps the pseudo-state block invertible.
    """
    n = view.n_bus
    if rect_state.bus_ids != view.bus_ids:
        raise ValidationError("pseudo-state layout does not match the view")
    cov = cov_rect + VARIANCE_FLOOR * np.eye(2 * n)
    pmu_specs = _pmu_block_order(pmu)
    for m in pmu_specs:
        if m.kind not in PMU_VOLTAGE_KINDS + PMU_CURRENT_KINDS:
            raise ValidationError(f"non-PMU measurement {m.kind} in the hybrid stack")
    z = np.concatenate([rect_state.v1, rect_state.v2, [m.value for m in pmu_specs]])
    h = np.eye(2 * n)
    if pmu_specs:
        h = np.vstack([h, jacobian_rect(view, pmu_specs)])
    w_pmu = np.array([m.sigma**2 for m in pmu_specs])
    return HybridModel(view, z, h, cov, w_pmu, pmu_specs)


def build_hybrid_model(
    tse: EstimationResult,
    pmu: MeasurementSet,
    view: ModelView,
    diagonal_tse_cov: bool = False,
) -> HybridModel:
    """Assemble (z, H, W) from a converged traditional estimate plus PMU rows.

    The TSE estimate and covariance are transported to rectangular
    coordinates; its pinned reference angle gives the covariance one zero
    mode, which ``VARIANCE_FLOOR`` lifts to keep W invertible.  With
    ``diagonal_tse_cov`` the transported block is thinned to its diagonal,
    reproducing the fully diagonal covariance layout literally.
    """
    if not tse.converged:
        raise ValidationError("hybrid step requires a converged traditional estimate")
    if tse.state.bus_ids != view.bus_ids:
        raise ValidationError("traditional estimate layout does not match the view")
    cov_full = tse.model.embed_cov(tse.covariance)
    rect, cov_rect = polar_to_rect(tse.state, cov_full)
    if diagonal_tse_cov:
        cov_rect = np.diag(np.diag(cov_rect))
    return stack_model(view, rect, cov_rect, pmu)


@dataclass(frozen=True)
class HybridResult:
    state: StateVector  # rectangular
    covariance: np.ndarray  # over [vr; vi]
    robust: RobustSolution | None = None


def _as_state(m: HybridModel, x) -> StateVector:
    n = m.n_bus
    return StateVector("rect", m.view.bus_ids, np.array(x[:n]), np.array(x[n:]), ref_bus=m.view.ref_bus)


def _whitener(m: HybridModel):
    """W^-1/2 over the model's rows.  W spans many decades (the floored
    reference-angle mode), so solves use whitened least squares."""
    return whitener([m.w_pseudo, m.w_pmu], "hybrid covariance is not positive definite")


def hybrid_solve(m: HybridModel) -> HybridResult:
    """One-shot weighted LS x = (H' W^-1 H)^-1 H' W^-1 z; non-iterative."""
    whiten = _whitener(m)
    x, cov = lsq(whiten(m.h), whiten(m.z))
    return HybridResult(_as_state(m, x), cov)


def uncertainty_for_model(
    m: HybridModel, s0: float, e0: float, ez0: float = 0.0, anchored: bool = True
) -> UncertaintyStructure:
    """Structured-uncertainty triple for a hybrid model.

    S = s0 I restricted to the PMU rows (pseudo-measurement rows are the
    estimator's own output, not uncertain inputs).  E_h = e0 c I with c
    the spectral norm of the PMU row block, i.e. e0 is a fraction of the
    block's own scale, the way network-parameter tolerances are quoted.

    ``anchored`` selects E_z.  The sampling form (anchored=False,
    E_z = ez0 ones) describes raw parameter error and is what experiments
    draw perturbations from.  The solver form (anchored=True) adds
    E_h @ x_pseudo, centering the perturbation ball on the traditional
    estimate carried in the model's own pseudo-measurement rows; that is
    the solver's best prior for where the truth manifold lies, and without
    it the min-max hedge shrinks voltages toward zero.
    """
    rows = len(m.z)
    n = m.n_state
    pmu_rows = m.pmu_rows
    if s0 == 0.0 or len(pmu_rows) == 0:
        return null_uncertainty(rows, n)
    s = np.zeros((rows, len(pmu_rows)))
    s[pmu_rows, np.arange(len(pmu_rows))] = s0
    block_scale = float(np.linalg.norm(m.h[pmu_rows], 2))
    e_h = e0 * block_scale * np.eye(n)
    e_z = ez0 * np.ones(n)
    if anchored:
        e_z = e_z + e_h @ m.z[:n]
    return UncertaintyStructure(s, e_h, e_z)


def hybrid_solve_robust(
    m: HybridModel,
    unc: UncertaintyStructure,
    lam_strategy: str = "exact",
    mu: float = 1.0,
) -> HybridResult:
    """Robust variant of hybrid_solve; delegates the min-max solve to bdu.
    Null uncertainty reduces exactly to hybrid_solve.

    The problem is whitened first (z, H, S scaled by W^-1/2, unit
    weights): the min-max cost and its minimizer are unchanged, the
    conditioning is not, and bdu's covariance is for unit data covariance.
    """
    whiten = _whitener(m)
    unc_w = UncertaintyStructure(whiten(unc.s), unc.e_h, unc.e_z)
    p = RobustProblem(whiten(m.z), whiten(m.h), np.ones(len(m.z)), unc_w)
    sol = bdu_solve(p, lam_strategy, mu)
    return HybridResult(_as_state(m, sol.x), sol.cov, sol)


def sample_delta(rng, q: int, p: int) -> np.ndarray:
    """Uniform direction on the unit spectral-norm sphere of q x p matrices
    (a Gaussian draw normalized to ||Delta|| = 1)."""
    a = rng.standard_normal((q, p))
    norm = np.linalg.svd(a, compute_uv=False)[0]
    return a / norm


def apply_perturbation(m: HybridModel, unc: UncertaintyStructure, delta) -> HybridModel:
    """Perturbed model per [dH dz] = S Delta [E_h E_z]."""
    if unc.is_null():
        return m
    if delta.shape != (unc.q, unc.e_h.shape[0]):
        raise ValidationError("delta dimensions do not match the uncertainty structure")
    s_delta = unc.s @ delta
    return replace(m, h=m.h + s_delta @ unc.e_h, z=m.z + s_delta @ unc.e_z)
