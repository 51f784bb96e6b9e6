"""Nonlinear weighted-least-squares estimation by Gauss-Newton.

This is the traditional (SCADA-only) estimator run at step 1 of the hybrid
method: normal-equation steps dx = (H' W^-1 H)^-1 H' W^-1 (z - h(x)),
stopping when max |dx| < epsilon, with the estimate covariance equal to
the inverse gain matrix at the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def flat(self) -> np.ndarray:
        x = np.zeros(self.n_state)
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
        full = jacobian_polar(self.view, self.unpack(x), self.specs)
        return full[:, self._cols]

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


def objective(mset: MeasurementSet, model: PolarModel, state: StateVector) -> float:
    """J(x) = (z - h(x))' W^-1 (z - h(x))."""
    r = mset.z - model.h(model.pack(state))
    return float(np.sum((r / mset.sigmas) ** 2))


def whitener(parts, error: str):
    """W^-1/2 of a block-diagonal W as a function over W's rows.

    ``parts`` are W's diagonal blocks in row order: a 1-D part is a run of
    variances (scaled by 1/sigma), a 2-D part a dense block (whitened by
    its symmetric inverse root, from its own eigh).  Rounding-level
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

    def whiten(a):
        out = np.empty_like(a)
        for rows, root in roots:
            out[rows] = root @ a[rows] if root.ndim == 2 else (root * a[rows].T).T
        return out

    return whiten


def gauss_newton(model, z, whiten, x0, tol, k_limit):
    """Gauss-Newton WLS on ``model`` (``h(x)`` and ``jac(x)``) from x0,
    with W^-1/2 applied by ``whiten`` (see :func:`whitener`).

    Steps solve the whitened normal equations; a full step that raises
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

    x = np.array(x0, dtype=float)
    r = z - model.h(x)
    j_here = float(np.sum(whiten(r) ** 2))
    converged = False
    iterations = 0
    for k in range(1, k_limit + 1):
        h_w = whiten(model.jac(x))
        g = h_w.T @ whiten(r)
        gain = h_w.T @ h_w
        try:
            c = np.linalg.cholesky(gain)
        except np.linalg.LinAlgError:
            raise UnobservableError(
                "gain matrix H' W^-1 H is singular: system unobservable"
            ) from None
        dx = np.linalg.solve(c.T, np.linalg.solve(c, g))
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

    h = model.jac(x)
    # two whitened copies: H_w' H_w on one array takes another BLAS path
    gain = whiten(h).T @ whiten(h)
    try:
        cov = np.linalg.inv(gain)
    except np.linalg.LinAlgError:
        raise UnobservableError("gain matrix singular at the solution") from None
    return x, cov, iterations, converged, j_here, r


def wls_estimate(
    mset: MeasurementSet,
    model: PolarModel,
    tol: float = 1e-6,
    k_limit: int = 20,
) -> EstimationResult:
    """Gauss-Newton WLS estimate for the given measurement set and model,
    from a flat start.

    Returns converged=False (never raises) when k_limit is reached; raises
    UnobservableError when the gain matrix is singular at an iterate.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    if len(mset) != len(model.specs):
        raise ValidationError("measurement set does not match the model's specs")
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    x, cov, iterations, converged, j, r = gauss_newton(model, mset.z, whiten, model.flat(), tol, k_limit)
    return EstimationResult(model.unpack(x), cov, iterations, converged, j, r, model)


def check_observable(model: PolarModel) -> bool:
    """Rank check of the Jacobian at the flat start."""
    h = model.jac(model.flat())
    if h.shape[0] < model.n_state:
        return False
    return int(np.linalg.matrix_rank(h)) == model.n_state
