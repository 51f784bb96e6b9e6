"""Two-step hybrid estimator: stack the traditional-SE result (as
rectangular pseudo-measurements) with PMU phasor measurements into one
linear model, then solve non-robustly (one-shot weighted LS) or robustly
(min-max via :mod:`gridstate.bdu`).

Row order of the stacked model: [V_R,TSE; V_I,TSE; V_R,PMU; V_I,PMU;
I_R,PMU; I_I,PMU].  The state is rectangular, [vr (n); vi (n)].  The
pseudo rows of H are the identity (Zhou, Centeno, Thorp & Phadke, IEEE
Trans. Power Syst. 21(4), 2006) and a perturbation moves H_PMU only
(:func:`apply_perturbation`), so a model stores H_PMU alone.

The plain step is in covariance form, a linear update of the
pseudo-state by the p PMU rows (a p x p Cholesky, no inverse root of the
2n x 2n pseudo block), and its covariance is skipped where nothing reads
it (central runs, level 2).  The robust step at the practical lambda is
the same update, re-weighted: under :func:`uncertainty_for_model`'s
(s0, e) the min-max solution at a given lambda is a regularized LS
solution (El Ghaoui & Lebret, SIAM J. Matrix Anal. Appl. 18(4), 1997).
Only the exact-lambda step stacks [I; H_PMU], which it whitens by
:func:`gridstate.wls.whitener` (an eigh of the pseudo block) for bdu; its
rounding also rests on the TSE gain's, which
:class:`gridstate.wls.PatternNormal` forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bdu import RobustProblem, RobustSolution, UncertaintyStructure, bdu_solve, spd_inv, tri_solve
from .errors import NumericalError, ValidationError
from .measurement import MeasurementSet, ModelView, jacobian_rect, polar_to_rect, row_key
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
    block layout, their rows H_PMU (p x 2n) over ``view``, and its
    spectral norm.  The pseudo rows above them are I and not stored."""

    view: ModelView
    specs: tuple
    rows: np.ndarray
    h_pmu: np.ndarray
    scale: float


def pmu_block(view: ModelView, specs, rows) -> PmuBlock:
    """The PMU rows at positions ``rows`` of ``specs`` as a :class:`PmuBlock`,
    by kind in block layout, each kind in canonical order (:func:`row_key`);
    ValidationError for a row that is not a PMU row."""
    order = sorted(rows, key=lambda k: (_BLOCK_RANK.get(specs[k].kind, len(_BLOCK_RANK)),
                                        row_key(specs[k])))
    block_specs = tuple(specs[k] for k in order)
    h_pmu = jacobian_rect(view, block_specs)
    scale = float(np.linalg.norm(h_pmu, 2)) if block_specs else 0.0
    return PmuBlock(view, block_specs, np.array(order, dtype=np.intp), h_pmu, scale)


def select_block(block: PmuBlock, at, specs) -> PmuBlock:
    """The rows of ``block`` that a spec tuple ``specs`` keeps (``at``: each
    block row's position in ``specs``, -1 where absent): ``block`` at the
    new positions when every row is kept, else built by :func:`pmu_block`."""
    if np.all(at >= 0):
        return replace(block, rows=at)
    return pmu_block(block.view, specs, at[at >= 0])


@dataclass(frozen=True)
class HybridModel:
    """Stacked linear model z = H x + e over rectangular states, H = [I; H_PMU],
    with the block-diagonal error covariance W kept as its two blocks.  ``z``
    holds all 2n + p rows; ``h_pmu`` is ``block``'s H_PMU, perturbed or not."""

    block: PmuBlock
    z: np.ndarray
    h_pmu: np.ndarray
    w_pseudo: np.ndarray  # 2n x 2n pseudo-state covariance, plus VARIANCE_FLOOR
    w_pmu: np.ndarray  # PMU variances sigma^2, one per PMU row

    @property
    def n_bus(self):
        return self.block.view.n_bus

    @property
    def n_state(self):
        return 2 * self.n_bus


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
    return HybridModel(block, z, block.h_pmu, cov, mset.sigmas[block.rows] ** 2)


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
    covariance: np.ndarray | None  # over [vr; vi]; None where not asked for
    robust: RobustSolution | None = None


def _as_state(m: HybridModel, x) -> StateVector:
    n = m.n_bus
    view = m.block.view
    return StateVector("rect", view.bus_ids, np.array(x[:n]), np.array(x[n:]), ref_bus=view.ref_bus)


def _cholesky(a):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericalError("hybrid covariance is not positive definite") from None


def hybrid_solve(m: HybridModel, cov: bool = True) -> HybridResult:
    """One-shot weighted LS in covariance form.  The pseudo rows of H are
    exactly I (a perturbation moves PMU rows only), so the estimate is

        x = x_p + K (z_p - H_p x_p),  K = W_p H_p' S^-1,
        S = H_p W_p H_p' + diag(sigma^2),

    by a Cholesky of S.  The covariance W_p - K H_p W_p is formed only
    with ``cov`` (else None); x does not depend on it.  NumericalError
    when S is not positive definite.
    """
    n = m.n_state
    x, w, h = m.z[:n], m.w_pseudo, m.h_pmu
    wh = w @ h.T
    s = h @ wh
    s[np.diag_indices_from(s)] += m.w_pmu
    c = _cholesky(s)
    x = x + wh @ tri_solve(c.T, tri_solve(c, m.z[n:] - h @ x, True), False)
    if not cov:
        return HybridResult(_as_state(m, x), None)
    b = tri_solve(c, wh.T, True)  # L^-1 H_p W_p
    return HybridResult(_as_state(m, x), w - b.T @ b)


def uncertainty_for_model(m: HybridModel, s0: float, e0: float) -> tuple[float, float]:
    """The two numbers (s0, e) of the structured uncertainty the robust
    solve hedges against.

    S = s0 I restricted to the PMU rows (pseudo-measurement rows are the
    estimator's own output, not uncertain inputs).  E_h = e I, e = e0 c
    with c the spectral norm of the model's PMU row block (0 with no S):
    e0 is a fraction of the block's own scale, the way network-parameter
    tolerances are quoted.  E_z = E_h x_pseudo centers the perturbation
    ball on the traditional estimate in the model's pseudo rows; that is
    the solver's best prior for where the truth manifold lies, and
    without it the min-max hedge shrinks voltages toward zero.
    """
    if s0 == 0.0 or len(m.w_pmu) == 0:
        return s0, 0.0
    return s0, e0 * float(np.linalg.norm(m.h_pmu, 2))


def hybrid_solve_robust(
    m: HybridModel,
    s0: float,
    e: float,
    lam_strategy: str = "exact",
    mu: float = 1.0,
    cov: bool = True,
) -> HybridResult:
    """Robust variant of hybrid_solve under the uncertainty (s0, e) of
    :func:`uncertainty_for_model`, its covariance formed only with ``cov``
    (else None).  Uncertainty that is null or bounds no perturbation
    (s0 = 0, e = 0 or no PMU rows) leaves plain WLS: that is
    :func:`hybrid_solve` itself, with ``robust`` None.  ValidationError,
    whichever path solves, for an unknown ``lam_strategy`` and for s0, e
    or (at ``approx``) mu outside [0, inf); no other function checks them.

    Approximate lambda is :func:`_approx_step`.  Exact lambda is
    :func:`gridstate.bdu.bdu_solve` on the whitened problem (z, the
    stacked H = [I; H_PMU] and S scaled by W^-1/2, unit weights): the
    min-max cost and its minimizer are unchanged, the conditioning is
    not, and bdu's covariance is for unit data covariance.
    """
    if not (0.0 <= s0 < np.inf and 0.0 <= e < np.inf):
        raise ValidationError("s0 and e must be finite and nonnegative")
    if lam_strategy not in ("approx", "exact"):
        raise ValidationError(f"unknown lambda strategy {lam_strategy!r}")
    if lam_strategy == "approx":
        _scaled_lambda(mu, 0.0)  # raises for a mu outside [0, inf)
    if s0 == 0.0 or e == 0.0 or len(m.w_pmu) == 0:
        return hybrid_solve(m, cov=cov)
    if lam_strategy == "approx":
        return _approx_step(m, s0, e, mu, cov)
    # W spans many decades (the floored reference-angle mode), so the
    # solve runs on whitened data
    unc = _uncertainty_arrays(m, s0, e)
    whiten = whitener([m.w_pseudo, m.w_pmu], "hybrid covariance is not positive definite")
    unc_w = UncertaintyStructure(whiten(unc.s), unc.e_h, unc.e_z)
    h = np.vstack([np.eye(m.n_state), m.h_pmu])
    p = RobustProblem(whiten(m.z), whiten(h), np.ones(len(m.z)), unc_w)
    sol = bdu_solve(p)
    return HybridResult(_as_state(m, sol.x), sol.cov if cov else None, sol)


def _scaled_lambda(mu: float, lam0: float) -> float:
    if not 0.0 <= mu < np.inf:
        raise ValidationError("mu must be finite and nonnegative")
    return (1.0 + mu) * lam0


def _uncertainty_arrays(m: HybridModel, s0: float, e: float) -> UncertaintyStructure:
    """(S, E_h, E_z) of the pair (s0, e) as bdu takes them: S = s0 on the
    PMU rows (m x p), E_h = e I (2n x 2n), E_z = E_h x_pseudo."""
    n, p = m.n_state, len(m.w_pmu)
    s = np.zeros((len(m.z), p))
    s[n + np.arange(p), np.arange(p)] = s0
    e_h = e * np.eye(n)
    return UncertaintyStructure(s, e_h, e_h @ m.z[:n])


def _approx_step(m: HybridModel, s0: float, e: float, mu: float, cov: bool) -> HybridResult:
    """The min-max step at lambda = (1 + mu) max d_i, d_i = s0^2 / sigma_i^2,
    as :func:`hybrid_solve`'s update with a shrunk prior and re-weighted
    PMU rows:

        P = (W_p^-1 + lam e^2 I)^-1 = (I + lam e^2 W_p)^-1 W_p,
        M = H_p P H_p' + diag(sigma^2 (lam - d) / lam),
        x = x_p + K y,  K = P H_p' M^-1,  y = z_p - H_p x_p,

    and G(lam) = y' M^-1 y.  At mu = 0 the top rows get variance 0, which
    the update takes exactly.  The covariance holds E_z constant, as bdu's
    does: (I - K H_p) P W_p^-1 P (I - K H_p)' + K diag(sigma^2) K', with
    P W_p^-1 P = A^-1 W_p A^-1, A = I + lam e^2 W_p.  NumericalError when
    A or M is not positive definite.
    """
    n = m.n_state
    d = s0**2 / m.w_pmu
    lam = _scaled_lambda(mu, float(d.max()))
    x, w, h = m.z[:n], m.w_pseudo, m.h_pmu
    a = (lam * e**2) * w
    a[np.diag_indices_from(a)] += 1.0
    ca = _cholesky(a)

    ph = tri_solve(ca.T, tri_solve(ca, w @ h.T, True), False)  # P H_p'
    # H_p P H_p' is symmetric only up to ph's rounding, which is relative to
    # its largest entries; M's smallest eigenvalues (rows near variance 0)
    # need the symmetric part, not the lower triangle alone
    inn = h @ ph
    inn = 0.5 * (inn + inn.T)
    inn[np.diag_indices_from(inn)] += m.w_pmu * ((lam - d) / lam)
    c = _cholesky(inn)  # M = C C'
    v = tri_solve(c, m.z[n:] - h @ x, True)
    x = x + ph @ tri_solve(c.T, v, False)
    covariance = None
    if cov:
        k = tri_solve(c.T, tri_solve(c, ph.T, True), False).T
        ikh = np.eye(n) - k @ h
        a_inv = spd_inv(a)
        covariance = ikh @ (a_inv @ w @ a_inv) @ ikh.T + (k * m.w_pmu) @ k.T
    sol = RobustSolution(x, lam, float(v @ v), "approx", covariance)
    return HybridResult(_as_state(m, x), covariance, sol)


def sample_delta(rng, q: int, p: int) -> np.ndarray:
    """A q x p Gaussian draw scaled to spectral norm 1 (not uniform on that sphere)."""
    a = rng.standard_normal((q, p))
    norm = np.linalg.svd(a, compute_uv=False)[0]
    return a / norm


def apply_perturbation(m: HybridModel, delta, s0: float, e0: float) -> HybridModel:
    """The model under one draw Delta (p x 2n, p PMU rows) of the
    experiment's perturbation [dH dz] = S Delta [E_h E_z], with S = s0 on
    the PMU rows, E_h = e0 c I (c = ``block.scale``, the unperturbed
    block's spectral norm) and E_z = 0: H_PMU moves by (s0 Delta)(e0 c);
    the pseudo rows (I) and z are untouched."""
    if delta.shape != m.h_pmu.shape:
        raise ValidationError("delta dimensions do not match the model's PMU block")
    return replace(m, h_pmu=m.h_pmu + (s0 * delta) * (e0 * m.block.scale))
