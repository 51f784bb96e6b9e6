"""Nonlinear weighted-least-squares estimation by Gauss-Newton.

This is the traditional (SCADA-only) estimator run at step 1 of the hybrid
method: normal-equation steps dx = (H' W^-1 H)^-1 H' W^-1 (z - h(x)),
stopping when max |dx| < epsilon, with the estimate covariance equal to
the inverse gain matrix at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bdu import spd_inv, tri_solve
from .errors import NumericalError, UnobservableError, ValidationError
from .measurement import MeasurementSet, ModelView, h_eval, jacobian_polar
from .powerflow import StateVector


class PolarModel:
    """Packs/unpacks the estimation vector x = [va (free); vm (all)] for a
    model view and evaluates h and H on it.

    With ``pin_angle`` (the default) the reference-bus angle is pinned at
    zero and removed from the unknowns.  When the reference bus
    carries a PMU its angle is estimated instead: pass pin_angle=False and
    include anchor rows in the specs so the gain matrix keeps rank.
    """

    def __init__(self, view: ModelView, specs, pin_angle: bool = True):
        self.view = view
        self.specs = tuple(specs)
        self.pin_angle = bool(pin_angle)
        compiled = view.compile(self.specs)
        self.n_bus = view.n_bus
        if view.ref_bus not in view.pos:
            raise ValidationError(f"reference bus {view.ref_bus} is not in the view")
        if pin_angle:
            self.free_va = [k for k, bid in enumerate(view.bus_ids) if bid != view.ref_bus]
        else:
            self.free_va = list(range(self.n_bus))
        self.n_state = len(self.free_va) + self.n_bus
        self._cols = np.concatenate([self.free_va, self.n_bus + np.arange(self.n_bus)])
        # H's nonzero pattern, a pinned angle's column dropped
        col_of = np.full(2 * self.n_bus, -1)
        col_of[self._cols] = np.arange(self.n_state)
        self.pattern = JacobianPattern(compiled.jac_at, len(self.specs), col_of, self.n_state)
        self._start = None  # the last start and its linearization, see start

    def flat(self, va0: float = 0.0) -> np.ndarray:
        """Every free angle at ``va0``, every magnitude 1."""
        x = np.full(self.n_state, float(va0))
        x[len(self.free_va) :] = 1.0
        return x

    def pack(self, state: StateVector) -> np.ndarray:
        order = [state.index(b) for b in self.view.bus_ids]
        va = state.v2[order]
        vm = state.v1[order]
        return np.concatenate([va[self.free_va], vm])

    def unpack(self, x) -> StateVector:
        va = np.zeros(self.n_bus)
        va[self.free_va] = x[: len(self.free_va)]
        vm = np.array(x[len(self.free_va) :])
        return StateVector("polar", self.view.bus_ids, vm, va, ref_bus=self.view.ref_bus)

    def h(self, x) -> np.ndarray:
        return h_eval(self.view, self.unpack(x), self.specs)

    def jac(self, x) -> np.ndarray:
        """Dense H over x (for :func:`check_observable`'s rank test); copied
        only to drop a pinned angle."""
        full = jacobian_polar(self.view, self.unpack(x), self.specs)
        return full[:, self._cols] if self.pin_angle else full

    def jac_values(self, x) -> np.ndarray:
        """H's nonzero values at x over [va (all); vm (all)], in
        ``CompiledSpecs.jac_at`` order (see :class:`JacobianPattern`)."""
        return jacobian_polar(self.view, self.unpack(x), self.specs, dense=False)

    def pattern_normal(self, whiten) -> "PatternNormal":
        """:class:`PatternNormal` on H's nonzero pattern under ``whiten``,
        a whitener of variances over the spec rows."""
        return PatternNormal(self.pattern, self.jac_values, whiten(np.ones(len(self.specs))))

    def start(self, normal, x0, weights):
        """:func:`linearize` at ``x0`` under ``normal``, remembered for the
        last start only: reused while x0 and the weight vector equal the
        last ones (every trial starts flat at the same point), recomputed
        for anything else."""
        memo = self._start
        if not (memo and np.array_equal(memo[0], x0) and np.array_equal(memo[1], weights)):
            memo = (np.array(x0, dtype=float), np.array(weights, dtype=float),
                    linearize(self, normal, x0))
            self._start = memo
        return memo[2]

    def embed_cov(self, cov_est: np.ndarray) -> np.ndarray:
        """Estimate covariance embedded into the full [va(n); vm(n)] layout
        (zero variance at a pinned reference angle)."""
        n = self.n_bus
        full = np.zeros((2 * n, 2 * n))
        full[np.ix_(self._cols, self._cols)] = cov_est
        return full


@dataclass(frozen=True)
class EstimationResult:
    state: StateVector
    covariance: np.ndarray  # over the model's [va(free); vm] layout
    iterations: int
    converged: bool
    objective: float
    residuals: np.ndarray
    model: PolarModel


def whitener(parts, error: str):
    """W^-1/2 of a block-diagonal W as a function over W's rows.

    ``parts`` are W's diagonal blocks in row order: a 1-D part is a run of
    variances (scaled by 1/sigma), a 2-D part a dense block (whitened by
    its symmetric inverse root, from its own eigh); a W of variances
    only is whitened in one pass.  Rounding-level
    negative eigenvalues are clipped relative to the scale of the whole W;
    one below -1e-8 of that scale raises NumericalError(error).  The
    function keeps its argument's memory layout, on which the BLAS path
    (and so the rounding) of a product of whitened matrices depends.
    """
    spectra = [(p, None) if p.ndim == 1 else np.linalg.eigh(0.5 * (p + p.T)) for p in parts]
    scale = max([1e-300] + [float(e.max(initial=0.0)) for e, _ in spectra])
    if min(float(e.min(initial=0.0)) for e, _ in spectra) < -1e-8 * scale:
        raise NumericalError(error)
    roots, at = [], 0
    for evals, vecs in spectra:
        root_evals = np.sqrt(np.clip(evals, 1e-14 * scale, None))
        root = 1.0 / root_evals if vecs is None else (vecs / root_evals) @ vecs.T
        roots.append((slice(at, at + len(evals)), root))
        at += len(evals)
    if all(root.ndim == 1 for _, root in roots):
        root = np.concatenate([root for _, root in roots])
        return lambda a: (root * a.T).T

    def whiten(a):
        out = np.empty_like(a)
        for rows, root in roots:
            out[rows] = root @ a[rows] if root.ndim == 2 else (root * a[rows].T).T
        return out

    return whiten


class JacobianPattern:
    """Where the nonzeros of an m-row Jacobian land among a model's n
    unknowns.

    ``jac_at`` lists, in the order :func:`jacobian_polar` gives its values
    with ``dense=False``, their flat Fortran-order places over N columns;
    ``col_of`` sends each of the N columns to an unknown, or to -1 where
    the model drops it.  Nonzeros that land on one (row, unknown) are
    summed, which is the chain rule of a many-to-one column map.  Entries
    are sorted by (row, unknown); ``entry`` sends each kept nonzero (at
    ``take`` among the values) to its entry.  ``a``, ``b`` list every
    ordered pair of entries in one row and ``ab`` its place in the n x n
    gain.
    """

    def __init__(self, jac_at, m, col_of, n):
        self.m, self.n = m, n
        full_col, row = np.divmod(jac_at, m)
        col = col_of[full_col]
        kept = self.take = np.flatnonzero(col >= 0)
        at, self.entry = np.unique(row[kept] * n + col[kept], return_inverse=True)
        self.row, self.col = np.divmod(at, n)
        row = self.row
        per_nz = np.bincount(row, minlength=m)[row]
        self.a = np.repeat(np.arange(len(row)), per_nz)
        first = np.searchsorted(row, row)  # each row's first entry
        self.b = np.arange(len(self.a)) - np.repeat(np.cumsum(per_nz) - per_nz - first, per_nz)
        self.ab = self.col[self.a] * n + self.col[self.b]

    def values(self, jac_values) -> np.ndarray:
        """The entries' values from the Jacobian's nonzero values: one
        gather, a slot with one nonzero getting 0.0 + v = v exactly."""
        return np.bincount(self.entry, weights=jac_values[self.take], minlength=len(self.row))


class PatternNormal:
    """Normal equations for :func:`gauss_newton` from H's nonzero values
    on a :class:`JacobianPattern`, with W^-1/2 = diag(``root``) on its
    rows: a step's linearization is the whitened entry values v, its gain
    sums v_a v_b over the pairs of entries in one row and its gradient
    H' W^-1 r over the entries, each by one bincount; no dense H is formed.

    ``values(x)`` gives the nonzero values at x.  Rows below the
    pattern's whose Jacobian is constant enter as ``fixed``, their
    whitened Jacobian J_w: its gain J_w' J_w is formed here, once, and
    every step adds it and J_w' r_w over those rows.
    """

    def __init__(self, pattern: JacobianPattern, values, root, fixed=None):
        self.pattern, self.values = pattern, values
        self.root_row = root[pattern.row]
        self.fixed = fixed
        if fixed is not None:
            self.fixed_gain = fixed.T @ fixed

    def weigh(self, x):
        return self.root_row * self.pattern.values(self.values(x))

    def gain(self, v):
        p = self.pattern
        gain = np.bincount(p.ab, weights=v[p.a] * v[p.b], minlength=p.n * p.n).reshape(p.n, p.n)
        return gain if self.fixed is None else gain + self.fixed_gain

    def grad(self, v, r_w):
        p = self.pattern
        g = np.bincount(p.col, weights=v * r_w[p.row], minlength=p.n)
        return g if self.fixed is None else g + self.fixed.T @ r_w[p.m :]

    def gain_at(self, x):
        return self.gain(self.weigh(x))


def _factor(gain):
    """The Cholesky factor of a step's gain; UnobservableError when it is
    singular."""
    try:
        return np.linalg.cholesky(gain)
    except np.linalg.LinAlgError:
        raise UnobservableError("gain matrix H' W^-1 H is singular: system unobservable") from None


def linearize(model, normal, x):
    """(h(x), ``normal``'s linearization at x, the gain, its Cholesky
    factor): what a Gauss-Newton step at x needs besides its residual."""
    h = model.h(x)
    lin = normal.weigh(x)
    gain = normal.gain(lin)
    return h, lin, gain, _factor(gain)


def gauss_newton(model, z, whiten, x0, tol, k_limit, normal, start=None):
    """Gauss-Newton WLS on ``model`` (``h(x)``) from x0, with W^-1/2
    applied by ``whiten`` (see :func:`whitener`).

    ``normal`` (a :class:`PatternNormal`: ``weigh``, ``gain``, ``grad``,
    ``gain_at``) forms the steps' normal equations, gain H' W^-1 H and
    gradient H' W^-1 r; ``start`` is :func:`linearize` at x0 when the
    caller has it.
    Steps solve these normal equations; a full step that raises
    J(x) = ||W^-1/2 (z - h(x))||^2 falls back to Marquardt damping.
    Stops when max |dx| < tol.  Returns (x, covariance, iterations,
    converged, J(x), z - h(x)) with the covariance equal to the inverse
    gain at the returned x; converged=False (no raise) when k_limit is
    reached.  Raises UnobservableError when the gain matrix is singular.
    """

    def trial(xv):
        """(J(xv), z - h(xv), W^-1/2 (z - h(xv))); (inf, the error, None)
        when xv left the state domain (e.g. vm <= 0)."""
        try:
            r = z - model.h(xv)
        except ValidationError as exc:
            return np.inf, exc, None
        r_w = whiten(r)
        return float(np.sum(r_w**2)), r, r_w

    x = np.array(x0, dtype=float)
    h, lin, gain, c = linearize(model, normal, x) if start is None else start
    r = z - h
    r_w = whiten(r)
    j_here = float(np.sum(r_w**2))
    converged = False
    iterations = 0
    for k in range(1, k_limit + 1):
        if k > 1:
            lin = normal.weigh(x)
            gain = normal.gain(lin)
            c = _factor(gain)
        g = normal.grad(lin, r_w)
        dx = tri_solve(c.T, tri_solve(c, g, True), False)
        # pure Gauss-Newton (Eq-9-style) step whenever it descends; under
        # weak redundancy the full step can overshoot the curved valley of
        # the P/Q-only objective, so fall back to Marquardt damping
        j_next, r_next, rw_next = trial(x + dx)
        if j_next > j_here:
            damp = np.diag(np.clip(np.diag(gain), 1e-8, None))
            mu = 1e-4
            for _ in range(24):
                dx_mu = np.linalg.solve(gain + mu * damp, g)
                j_mu, r_mu, rw_mu = trial(x + dx_mu)
                if j_mu <= j_here:
                    dx, j_next, r_next, rw_next = dx_mu, j_mu, r_mu, rw_mu
                    break
                mu *= 8.0
        if isinstance(r_next, ValidationError):
            raise r_next  # the accepted step left the state domain
        # the accepted trial's residual is the next iterate's
        x = x + dx
        j_here, r, r_w = j_next, r_next, rw_next
        iterations = k
        if np.max(np.abs(dx)) < tol:
            converged = True
            break

    try:
        cov = spd_inv(normal.gain_at(x))
    except np.linalg.LinAlgError:
        raise UnobservableError("gain matrix singular at the solution") from None
    return x, cov, iterations, converged, j_here, r


def wls_estimate(
    mset: MeasurementSet,
    model: PolarModel,
    tol: float = 1e-6,
    k_limit: int = 20,
    x0: np.ndarray | None = None,
) -> EstimationResult:
    """Gauss-Newton WLS estimate for the given measurement set and model,
    from ``x0`` (default: the model's flat start).

    The normal equations come from H's nonzero pattern
    (:meth:`PolarModel.pattern_normal`).  The start's linearization is the model's remembered one when x0 and
    the sigmas repeat (:meth:`PolarModel.start`).

    Returns converged=False (never raises) when k_limit is reached; raises
    UnobservableError when the gain matrix is singular at an iterate.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    if len(mset) != len(model.specs):
        raise ValidationError("measurement set does not match the model's specs")
    x0 = model.flat() if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.n_state,) or not np.all(np.isfinite(x0)):
        raise ValidationError(f"start must hold {model.n_state} finite values")
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    normal = model.pattern_normal(whiten)
    start = model.start(normal, x0, mset.sigmas)
    x, cov, iterations, converged, j, r = gauss_newton(
        model, mset.z, whiten, x0, tol, k_limit, normal, start
    )
    return EstimationResult(model.unpack(x), cov, iterations, converged, j, r, model)


def check_observable(model: PolarModel) -> bool:
    """Rank check of the Jacobian at the flat start."""
    h = model.jac(model.flat())
    if h.shape[0] < model.n_state:
        return False
    return int(np.linalg.matrix_rank(h)) == model.n_state
