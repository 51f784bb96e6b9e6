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
    null_uncertainty,
)
from .errors import NumericalError, ValidationError
from .measurement import (
    PMU_CURRENT_KINDS,
    PMU_VOLTAGE_KINDS,
    MeasurementSet,
    ModelView,
    jacobian_rect,
    polar_to_rect,
)
from .powerflow import StateVector
from .wls import EstimationResult


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
    w_pseudo: np.ndarray  # 2n x 2n pseudo-state covariance, floored
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

    def perturbed(self, dh, dz) -> "HybridModel":
        """Model seen under a structured perturbation [dH dz]."""
        return replace(self, h=self.h + dh, z=self.z + dz)


def stack_model(
    view: ModelView,
    rect_state: StateVector,
    cov_rect: np.ndarray,
    pmu,
    variance_floor: float = 1e-12,
) -> HybridModel:
    """Stack rectangular pseudo-state rows over PMU rows into one model.

    Shared by the per-area hybrid step and the coordinator's refinement.
    ``variance_floor`` keeps the pseudo-state block invertible when the
    transported covariance carries a zero mode (the pinned reference
    angle).
    """
    n = view.n_bus
    if rect_state.bus_ids != view.bus_ids:
        raise ValidationError("pseudo-state layout does not match the view")
    cov = cov_rect + variance_floor * np.eye(2 * n)
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
    variance_floor: float = 1e-12,
    diagonal_tse_cov: bool = False,
) -> HybridModel:
    """Assemble (z, H, W) from a converged traditional estimate plus PMU rows.

    The TSE estimate and covariance are transported to rectangular
    coordinates; its pinned reference angle gives the covariance one zero
    mode, which ``variance_floor`` lifts to keep W invertible.  With
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
    return stack_model(view, rect, cov_rect, pmu, variance_floor)


@dataclass(frozen=True)
class HybridResult:
    state: StateVector  # rectangular
    covariance: np.ndarray  # over [vr; vi]
    robust: RobustSolution | None = None


def _as_state(m: HybridModel, x) -> StateVector:
    n = m.n_bus
    return StateVector("rect", m.view.bus_ids, np.array(x[:n]), np.array(x[n:]), ref_bus=m.view.ref_bus)


def _whitener(m: HybridModel):
    """W^-1/2 as a function over the model's rows, block by block: the
    symmetric root of the pseudo-state block from its own eigh, 1/sigma on
    the PMU rows.  W spans many decades (the floored reference-angle mode),
    so solves go through whitened least squares rather than the raw normal
    equations.  Rounding-level negative eigenvalues are clipped relative
    to the scale of the whole W."""
    evals, vecs = np.linalg.eigh(0.5 * (m.w_pseudo + m.w_pseudo.T))
    scale = max(float(evals[-1]), float(m.w_pmu.max(initial=0.0)), 1e-300)
    if evals[0] < -1e-8 * scale:
        raise NumericalError("hybrid covariance is not positive definite")
    pseudo = (vecs / np.sqrt(np.clip(evals, 1e-14 * scale, None))) @ vecs.T
    pmu = 1.0 / np.sqrt(np.clip(m.w_pmu, 1e-14 * scale, None))
    n2 = m.n_state

    def whiten(a):
        return np.concatenate([pseudo @ a[:n2], (pmu * a[n2:].T).T])

    return whiten


def _qr_solve(a, b):
    """Least squares via QR; (solution, inv(A'A)) with a rank guard."""
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise NumericalError("hybrid normal matrix is singular")
    x = np.linalg.solve(r, q.T @ b)
    r_inv = np.linalg.solve(r, np.eye(r.shape[0]))
    return x, r_inv @ r_inv.T


def hybrid_solve(m: HybridModel) -> HybridResult:
    """One-shot weighted LS x = (H' W^-1 H)^-1 H' W^-1 z; non-iterative."""
    whiten = _whitener(m)
    x, cov = _qr_solve(whiten(m.h), whiten(m.z))
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

    The problem is whitened first (z, H, S scaled by W^-1/2, R = I): the
    min-max cost and its minimizer are unchanged, the conditioning is not.
    The solution's R_hat is therefore over the whitened rows, and the
    estimate's covariance is bdu's for data of covariance R^-1 = I.
    """
    whiten = _whitener(m)
    h, z = whiten(m.h), whiten(m.z)
    if unc.is_null() or unc.no_perturbation_bound():
        x, cov = _qr_solve(h, z)
        res = h @ x - z
        sol = RobustSolution(x, 0.0, np.eye(len(z)), float(res @ res), "reduced", cov)
    else:
        unc_w = UncertaintyStructure(whiten(unc.s), unc.e_h, unc.e_z)
        sol = bdu_solve(RobustProblem(z, h, np.eye(len(z)), unc_w), lam_strategy, mu)
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
    dh = unc.s @ delta @ unc.e_h
    dz = unc.s @ delta @ unc.e_z
    return m.perturbed(dh, dz)
