"""Reference quantities that only the tests read: G(lambda) at a given
lambda, the practical lambda choice, ||S'RS|| and the WLS objective at a
given state, each from the package's own pieces."""

import numpy as np

from gridstate.bdu import RobustProblem, _Evaluator, _scaled_lambda
from gridstate.errors import ValidationError


def spectral_norm_strs(s, r) -> float:
    """||S' diag(r) S|| (largest eigenvalue; the matrix is symmetric PSD)."""
    if s.shape[1] == 0:
        return 0.0
    u = s.T @ (s * r[:, None])
    return float(np.linalg.eigvalsh(0.5 * (u + u.T))[-1])


def g_of_lambda(lam: float, p: RobustProblem) -> float:
    """G(lambda); domain error below ||S'RS||."""
    ev = _Evaluator(p)
    if lam < ev.lam0 * (1.0 - 1e-9) - 1e-300:
        raise ValidationError(f"lambda={lam!r} below the domain bound {ev.lam0!r}")
    return ev.g(lam)


def lambda_approx(mu: float, s, r) -> float:
    """Practical choice lambda = (1 + mu) ||S'RS||."""
    return _scaled_lambda(mu, spectral_norm_strs(s, r))


def objective(mset, model, state) -> float:
    """J(x) = (z - h(x))' W^-1 (z - h(x))."""
    r = mset.z - model.h(model.pack(state))
    return float(np.sum((r / mset.sigmas) ** 2))
