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
from .measurement import MeasurementSet, ModelView, jacobian_rect, polar_to_rect
from .powerflow import StateVector
from .wls import EstimationResult, whitener

# added to the pseudo-state covariance blocks of both levels: the
# transported covariance carries a zero mode (the pinned reference angle)
VARIANCE_FLOOR = 1e-12
_BLOCK_RANK = {"pmu_vr": 0, "pmu_vi": 1, "pmu_ir": 2, "pmu_ii": 3}


@dataclass(frozen=True)
class PmuBlock:
    """The value-free rows of a hybrid model: PMU rows (``specs``, at
    positions ``rows`` of a spec tuple) in the [vr..., vi..., ir..., ii...]
    block layout, the stacked H = [I; H_PMU] over ``view``, and the
    spectral norm of H_PMU."""

    view: ModelView
    specs: tuple
    rows: np.ndarray
    h: np.ndarray
    scale: float


def pmu_block(view: ModelView, specs, rows) -> PmuBlock:
    """The PMU rows at positions ``rows`` of ``specs`` as a :class:`PmuBlock`;
    ValidationError for a row that is not a PMU row."""
    order = sorted(rows, key=lambda k: _BLOCK_RANK.get(specs[k].kind, len(_BLOCK_RANK)))
    block_specs = tuple(specs[k] for k in order)
    n = view.n_bus
    h, scale = np.eye(2 * n), 0.0
    if block_specs:
        h = np.vstack([h, jacobian_rect(view, block_specs)])
        scale = float(np.linalg.norm(h[2 * n :], 2))
    return PmuBlock(view, block_specs, np.array(order, dtype=np.intp), h, scale)


@dataclass(frozen=True)
class HybridModel:
    """Stacked linear measurement model z = H x + e over rectangular states;
    the block-diagonal error covariance W is kept as its two blocks.
    ``block`` holds the rows' structure; ``h`` is its H, perturbed or not."""

    block: PmuBlock
    z: np.ndarray
    h: np.ndarray
    w_pseudo: np.ndarray  # 2n x 2n pseudo-state covariance, plus VARIANCE_FLOOR
    w_pmu: np.ndarray  # PMU variances sigma^2, one per PMU row

    @property
    def n_bus(self):
        return self.block.view.n_bus

    @property
    def n_state(self):
        return 2 * self.n_bus

    @property
    def pmu_rows(self):
        return np.arange(self.n_state, len(self.z))


def stack_model(
    block: PmuBlock,
    rect_state: StateVector,
    cov_rect: np.ndarray,
    mset: MeasurementSet,
) -> HybridModel:
    """Stack rectangular pseudo-state rows over the PMU rows of ``block``,
    valued from ``mset`` (the set the block's positions index).

    Shared by the per-area hybrid step and the coordinator's refinement.
    ``VARIANCE_FLOOR`` keeps the pseudo-state block invertible.
    """
    if rect_state.bus_ids != block.view.bus_ids:
        raise ValidationError("pseudo-state layout does not match the view")
    cov = cov_rect + VARIANCE_FLOOR * np.eye(len(cov_rect))
    z = np.concatenate([rect_state.v1, rect_state.v2, mset.z[block.rows]])
    return HybridModel(block, z, block.h, cov, mset.sigmas[block.rows] ** 2)


def build_hybrid_model(
    tse: EstimationResult,
    block: PmuBlock,
    mset: MeasurementSet,
) -> HybridModel:
    """Assemble (z, H, W) from a converged traditional estimate plus the
    PMU rows of ``block``, valued from ``mset``.

    The TSE estimate and covariance are transported to rectangular
    coordinates; its pinned reference angle gives the covariance one zero
    mode, which ``VARIANCE_FLOOR`` lifts to keep W invertible.
    """
    if not tse.converged:
        raise ValidationError("hybrid step requires a converged traditional estimate")
    if tse.state.bus_ids != block.view.bus_ids:
        raise ValidationError("traditional estimate layout does not match the view")
    cov_full = tse.model.embed_cov(tse.covariance)
    rect, cov_rect = polar_to_rect(tse.state, cov_full)
    return stack_model(block, rect, cov_rect, mset)


@dataclass(frozen=True)
class HybridResult:
    state: StateVector  # rectangular
    covariance: np.ndarray  # over [vr; vi]
    robust: RobustSolution | None = None


def _as_state(m: HybridModel, x) -> StateVector:
    n = m.n_bus
    view = m.block.view
    return StateVector("rect", view.bus_ids, np.array(x[:n]), np.array(x[n:]), ref_bus=view.ref_bus)


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
    block_scale = float(np.linalg.norm(m.h[pmu_rows], 2)) if anchored else m.block.scale
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
