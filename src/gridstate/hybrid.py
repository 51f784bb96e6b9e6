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


@dataclass(frozen=True)
class HybridGroup:
    """Hybrid models of one shape (p PMU rows over 2n states) as one batch:
    their blocks and their arrays stacked on a leading axis (``z``
    k x (2n + p), ``h_pmu`` k x p x 2n, ``w_pseudo`` k x 2n x 2n, ``w_pmu``
    k x p).  A step on a group is one stacked numpy call per operation,
    each member rounding as it would alone: every product keeps the
    memory layout a model's own has (layout picks the BLAS path), and the
    scalars a model computes in Python stay Python floats."""

    blocks: tuple[PmuBlock, ...]
    z: np.ndarray
    h_pmu: np.ndarray
    w_pseudo: np.ndarray
    w_pmu: np.ndarray

    @classmethod
    def of(cls, m: HybridModel) -> "HybridGroup":
        """The group of one of ``m``, over views of its arrays."""
        return cls((m.block,), m.z[None], m.h_pmu[None], m.w_pseudo[None], m.w_pmu[None])

    @property
    def p(self):
        return self.h_pmu.shape[1]

    @property
    def n_state(self):
        return self.w_pseudo.shape[-1]

    def models(self) -> list[HybridModel]:
        return [HybridModel(b, *arrays)
                for b, *arrays in zip(self.blocks, self.z, self.h_pmu, self.w_pseudo, self.w_pmu)]


def _t(a):
    """Each matrix of a stack transposed, as a view."""
    return a.transpose(0, 2, 1)


def _mv(a, v):
    """Each matrix of a stack times its vector."""
    return (a @ v[..., None])[..., 0]


def stack_group(blocks, vr, vi, cov_rect, mset: MeasurementSet) -> HybridGroup:
    """:func:`stack_model` of each member as one batch: per member, its
    rectangular pseudo-state (a row of ``vr`` and of ``vi``, its
    covariance in ``cov_rect``) over the PMU rows of its block in
    ``blocks``, valued from ``mset``."""
    rows = np.array([b.rows for b in blocks], dtype=np.intp)
    cov = cov_rect + VARIANCE_FLOOR * np.eye(cov_rect.shape[-1])
    z = np.concatenate([vr, vi, mset.z[rows]], axis=1)
    h_pmu = np.array([b.h_pmu for b in blocks])
    return HybridGroup(tuple(blocks), z, h_pmu, cov, mset.sigmas[rows] ** 2)


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
    (m,) = stack_group((block,), rect_state.v1[None], rect_state.v2[None], cov_rect[None], mset).models()
    return m


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


def _results(g: HybridGroup, x, cov, robust=None) -> list[HybridResult]:
    """Per member its HybridResult: its row of the states ``x``, its
    matrix of the stack ``cov`` (or None) and its RobustSolution in
    ``robust`` (or None)."""
    n = g.n_state // 2
    return [HybridResult(StateVector("rect", b.view.bus_ids, x[k, :n], x[k, n:], ref_bus=b.view.ref_bus),
                         None if cov is None else cov[k], None if robust is None else robust[k])
            for k, b in enumerate(g.blocks)]


def _cholesky(a):
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericalError("hybrid covariance is not positive definite") from None


def _add_diag(a, d):
    """Add each row of ``d`` to the diagonal of its matrix of the stack ``a``, in place."""
    i = np.arange(a.shape[-1])
    a[:, i, i] += d


def hybrid_solve(m: HybridModel, cov: bool = True) -> HybridResult:
    """One-shot weighted LS in covariance form.  The pseudo rows of H are
    exactly I (a perturbation moves PMU rows only), so the estimate is

        x = x_p + K (z_p - H_p x_p),  K = W_p H_p' S^-1,
        S = H_p W_p H_p' + diag(sigma^2),

    by a Cholesky of S.  The covariance W_p - K H_p W_p is formed only
    with ``cov`` (else None); x does not depend on it.  NumericalError
    when S is not positive definite.  :func:`solve_group` on the group of
    one of ``m``.
    """
    (res,) = solve_group(HybridGroup.of(m), cov)
    return res


def solve_group(g: HybridGroup, cov: bool = True) -> list[HybridResult]:
    """:func:`hybrid_solve` of every member of ``g``, as one batch."""
    n = g.n_state
    x, w, h = g.z[:, :n], g.w_pseudo, g.h_pmu
    wh = w @ _t(h)
    s = h @ wh
    _add_diag(s, g.w_pmu)
    c = _cholesky(s)
    x = x + _mv(wh, tri_solve(_t(c), tri_solve(c, g.z[:, n:] - _mv(h, x), True), False))
    if not cov:
        return _results(g, x, None)
    b = tri_solve(c, _t(wh), True)  # L^-1 H_p W_p
    return _results(g, x, w - _t(b) @ b)


def _spectral_norms(h):
    """The spectral norm of each matrix of the stack ``h``."""
    return np.linalg.svd(h, compute_uv=False).max(axis=-1)


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
    return s0, e0 * float(_spectral_norms(m.h_pmu[None])[0])


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

    Approximate lambda is :func:`_approx_step` on the group of one of
    ``m``.  Exact lambda is :func:`gridstate.bdu.bdu_solve` on the
    whitened problem (z, the stacked H = [I; H_PMU] and S scaled by
    W^-1/2, unit weights): the min-max cost and its minimizer are
    unchanged, the conditioning is not, and bdu's covariance is for unit
    data covariance.
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
        (res,) = _approx_step(HybridGroup.of(m), s0, [e], mu, cov)
        return res
    # W spans many decades (the floored reference-angle mode), so the
    # solve runs on whitened data
    unc = _uncertainty_arrays(m, s0, e)
    whiten = whitener([m.w_pseudo, m.w_pmu], "hybrid covariance is not positive definite")
    unc_w = UncertaintyStructure(whiten(unc.s), unc.e_h, unc.e_z)
    h = np.vstack([np.eye(m.n_state), m.h_pmu])
    p = RobustProblem(whiten(m.z), whiten(h), np.ones(len(m.z)), unc_w)
    sol = bdu_solve(p, cov)
    (res,) = _results(HybridGroup.of(m), sol.x[None], sol.cov[None] if cov else None, [sol])
    return res


def approx_group(g: HybridGroup, s0: float, e0: float, mu: float, cov: bool = True) -> list[HybridResult]:
    """:func:`hybrid_solve_robust` at approximate lambda of every member of
    ``g``, each under its own (s0, e) of :func:`uncertainty_for_model`, as
    one batch; member by member where not every member takes the
    same step (an e or a parameter outside [0, inf), or null uncertainty
    for some members only)."""
    e = [e0 * c for c in _spectral_norms(g.h_pmu).tolist()] if s0 != 0.0 and g.p else [0.0] * len(g.blocks)
    if 0.0 <= s0 < np.inf and 0.0 <= mu < np.inf:
        if all(ek == 0.0 for ek in e):
            return solve_group(g, cov)
        if all(0.0 < ek < np.inf for ek in e):
            return _approx_step(g, s0, e, mu, cov)
    return [hybrid_solve_robust(m, s0, ek, "approx", mu, cov) for m, ek in zip(g.models(), e)]


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


def _approx_step(g: HybridGroup, s0: float, e, mu: float, cov: bool) -> list[HybridResult]:
    """The min-max step at lambda = (1 + mu) max d_i, d_i = s0^2 / sigma_i^2,
    of each member of ``g`` (its e in the list ``e``), as
    :func:`hybrid_solve`'s update with a shrunk prior and re-weighted PMU
    rows:

        P = (W_p^-1 + lam e^2 I)^-1 = (I + lam e^2 W_p)^-1 W_p,
        M = H_p P H_p' + diag(sigma^2 (lam - d) / lam),
        x = x_p + K y,  K = P H_p' M^-1,  y = z_p - H_p x_p,

    and G(lam) = y' M^-1 y.  At mu = 0 the top rows get variance 0, which
    the update takes exactly.  The covariance holds E_z constant, as bdu's
    does: (I - K H_p) P W_p^-1 P (I - K H_p)' + K diag(sigma^2) K', with
    P W_p^-1 P = A^-1 W_p A^-1, A = I + lam e^2 W_p.  NumericalError when
    an A or M is not positive definite.
    """
    n = g.n_state
    d = s0**2 / g.w_pmu
    lam = [_scaled_lambda(mu, float(dk.max())) for dk in d]
    x, w, h = g.z[:, :n], g.w_pseudo, g.h_pmu
    # lam e^2 per member in Python floats, as one model computes it
    a = np.array([lk * ek**2 for lk, ek in zip(lam, e)])[:, None, None] * w
    _add_diag(a, 1.0)
    ca = _cholesky(a)

    ph = tri_solve(_t(ca), tri_solve(ca, w @ _t(h), True), False)  # P H_p'
    # H_p P H_p' is symmetric only up to ph's rounding, which is relative to
    # its largest entries; M's smallest eigenvalues (rows near variance 0)
    # need the symmetric part, not the lower triangle alone
    inn = h @ ph
    inn = 0.5 * (inn + _t(inn))
    lam_k = np.array(lam)[:, None]
    _add_diag(inn, g.w_pmu * ((lam_k - d) / lam_k))
    c = _cholesky(inn)  # M = C C'
    v = tri_solve(c, g.z[:, n:] - _mv(h, x), True)
    x = x + _mv(ph, tri_solve(_t(c), v, False))
    covariance = None
    if cov:
        kt = tri_solve(_t(c), tri_solve(c, _t(ph), True), False)  # K'
        k = _t(kt)
        ikh = np.eye(n) - k @ h
        a_inv = spd_inv(a)
        # K diag(sigma^2) in K's own (column-major) layout
        covariance = ikh @ (a_inv @ w @ a_inv) @ _t(ikh) + _t(kt * g.w_pmu[:, :, None]) @ kt
    sols = [RobustSolution(xk, lk, float(vk @ vk), "approx", None if covariance is None else covariance[k])
            for k, (xk, lk, vk) in enumerate(zip(x, lam, v))]
    return _results(g, x, covariance, sols)


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
    the pseudo rows (I) and z are untouched.  :func:`perturb_group` on the
    group of one of ``m``."""
    return replace(m, h_pmu=perturb_group(HybridGroup.of(m), [delta], s0, e0).h_pmu[0])


def perturb_group(g: HybridGroup, deltas, s0: float, e0: float) -> HybridGroup:
    """:func:`apply_perturbation` of every member of ``g``, each by its own
    draw in ``deltas``, as one batch."""
    if any(np.shape(delta) != g.h_pmu.shape[1:] for delta in deltas):
        raise ValidationError("delta dimensions do not match the model's PMU block")
    scale = e0 * np.array([b.scale for b in g.blocks])
    return replace(g, h_pmu=g.h_pmu + (s0 * np.array(deltas)) * scale[:, None, None])
