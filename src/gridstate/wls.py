"""Nonlinear weighted-least-squares estimation by Gauss-Newton.

This is the traditional (SCADA-only) estimator run at step 1 of the hybrid
method: normal-equation steps dx = (H' W^-1 H)^-1 H' W^-1 (z - h(x)),
stopping when max |dx| < epsilon, with the estimate covariance equal to
the inverse gain matrix at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bdu
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
        view.compile(self.specs)
        self.n_bus = view.n_bus
        if view.ref_bus not in view.pos:
            raise ValidationError(f"reference bus {view.ref_bus} is not in the view")
        if pin_angle:
            self.free_va = [k for k, bid in enumerate(view.bus_ids) if bid != view.ref_bus]
        else:
            self.free_va = list(range(self.n_bus))
        self.n_state = len(self.free_va) + self.n_bus
        self._cols = np.concatenate([self.free_va, self.n_bus + np.arange(self.n_bus)])
        self._pairs = None  # H's row-wise nonzero pairs, built by pattern_normal

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
        """H over x, Fortran-ordered like :func:`jacobian_polar`'s (a column
        selection keeps that order); copied only to drop a pinned angle."""
        full = jacobian_polar(self.view, self.unpack(x), self.specs)
        return full[:, self._cols] if self.pin_angle else full

    def pattern_normal(self, root):
        """``normal`` for :func:`gauss_newton` with W^-1/2 = diag(``root``),
        built from H's nonzero pattern: the gain sums w_r h_r h_r' over the
        pairs of nonzeros that share a row, and the gradient H' W^-1 r over
        the nonzeros, each by one bincount; no whitened copy of H is formed.

        The pattern comes from the compiled specs' Jacobian places, with a
        pinned angle's column dropped; it is built on the first call.
        """
        n, m = self.n_state, len(self.specs)
        if self._pairs is None:
            col_of = np.full(2 * self.n_bus, -1)
            col_of[self._cols] = np.arange(n)
            full_col, row = np.divmod(self.view.compile(self.specs).jac_at, m)
            col = col_of[full_col]
            row, col = row[col >= 0], col[col >= 0]
            order = np.argsort(row, kind="stable")
            row, col = row[order], col[order]
            # every ordered pair (a, b) of nonzeros in one row, rows ascending
            per_nz = np.bincount(row, minlength=m)[row]
            a = np.repeat(np.arange(len(row)), per_nz)
            first = np.searchsorted(row, row)  # each row's first nonzero
            b = np.arange(len(a)) - np.repeat(np.cumsum(per_nz) - per_nz - first, per_nz)
            self._pairs = (row, col, row + m * col, a, b, col[a] * n + col[b])
        row, col, at, a, b, ab = self._pairs
        root_row = root[row]

        def normal(h, r=None):
            v = root_row * np.ravel(h, order="F")[at]
            gain = np.bincount(ab, weights=v[a] * v[b], minlength=n * n).reshape(n, n)
            if r is None:
                return gain, None
            return gain, np.bincount(col, weights=v * (root * r)[row], minlength=n)

        return normal

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
    (and so the rounding) of the gain product H_w' H_w depends.
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


def _dense_normal(whiten):
    """``normal`` for :func:`gauss_newton` as dense products of the
    whitened H: (H_w' H_w, H_w' r_w), or the gain alone without r, from
    two whitened copies (H_w' H_w on one array takes another BLAS path)."""

    def normal(h, r=None):
        if r is None:
            return whiten(h).T @ whiten(h), None
        h_w = whiten(h)
        return h_w.T @ h_w, h_w.T @ whiten(r)

    return normal


def gauss_newton(model, z, whiten, x0, tol, k_limit, normal=None):
    """Gauss-Newton WLS on ``model`` (``h(x)`` and ``jac(x)``) from x0,
    with W^-1/2 applied by ``whiten`` (see :func:`whitener`).

    ``normal(H, r)`` forms a step's gain H' W^-1 H and gradient
    H' W^-1 r, ``normal(H)`` the gain alone (default: :func:`_dense_normal`).
    Steps solve these normal equations; a full step that raises
    J(x) = ||W^-1/2 (z - h(x))||^2 falls back to Marquardt damping.
    Stops when max |dx| < tol.  Returns (x, covariance, iterations,
    converged, J(x), z - h(x)) with the covariance equal to the inverse
    gain at the returned x; converged=False (no raise) when k_limit is
    reached.  Raises UnobservableError when the gain matrix is singular.
    """

    def trial(xv):
        """(J(xv), z - h(xv)); (inf, the error) when xv left the state
        domain (e.g. vm <= 0)."""
        try:
            r = z - model.h(xv)
        except ValidationError as exc:
            return np.inf, exc
        return float(np.sum(whiten(r) ** 2)), r

    normal = _dense_normal(whiten) if normal is None else normal
    x = np.array(x0, dtype=float)
    r = z - model.h(x)
    j_here = float(np.sum(whiten(r) ** 2))
    converged = False
    iterations = 0
    for k in range(1, k_limit + 1):
        gain, g = normal(model.jac(x), r)
        try:
            c = np.linalg.cholesky(gain)
        except np.linalg.LinAlgError:
            raise UnobservableError(
                "gain matrix H' W^-1 H is singular: system unobservable"
            ) from None
        dx = tri_solve(c.T, tri_solve(c, g, True), False)
        # pure Gauss-Newton (Eq-9-style) step whenever it descends; under
        # weak redundancy the full step can overshoot the curved valley of
        # the P/Q-only objective, so fall back to Marquardt damping
        j_next, r_next = trial(x + dx)
        if j_next > j_here:
            damp = np.diag(np.clip(np.diag(gain), 1e-8, None))
            mu = 1e-4
            for _ in range(24):
                dx_mu = np.linalg.solve(gain + mu * damp, g)
                j_mu, r_mu = trial(x + dx_mu)
                if j_mu <= j_here:
                    dx, j_next, r_next = dx_mu, j_mu, r_mu
                    break
                mu *= 8.0
        if isinstance(r_next, ValidationError):
            raise r_next  # the accepted step left the state domain
        # the accepted trial's residual is the next iterate's
        x = x + dx
        j_here, r = j_next, r_next
        iterations = k
        if np.max(np.abs(dx)) < tol:
            converged = True
            break

    gain, _ = normal(model.jac(x))
    try:
        cov = spd_inv(gain)
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

    Above ``bdu._LEAF`` unknowns the normal equations come from H's
    nonzero pattern (:meth:`PolarModel.pattern_normal`); at or below it
    they are dense products, so every such system rounds as it always did.

    Returns converged=False (never raises) when k_limit is reached; raises
    UnobservableError when the gain matrix is singular at an iterate.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    if len(mset) != len(model.specs):
        raise ValidationError("measurement set does not match the model's specs")
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    normal = None
    if model.n_state > bdu._LEAF:
        normal = model.pattern_normal(whiten(np.ones(len(mset))))
    x0 = model.flat() if x0 is None else x0
    x, cov, iterations, converged, j, r = gauss_newton(
        model, mset.z, whiten, x0, tol, k_limit, normal
    )
    return EstimationResult(model.unpack(x), cov, iterations, converged, j, r, model)


def check_observable(model: PolarModel) -> bool:
    """Rank check of the Jacobian at the flat start."""
    h = model.jac(model.flat())
    if h.shape[0] < model.n_state:
        return False
    return int(np.linalg.matrix_rank(h)) == model.n_state
