"""Reference quantities that only the tests read: G(lambda) at a given
lambda, the practical lambda choice, ||S'RS|| and the WLS objective at a
given state, each from the package's own pieces; and the min-max
solution at a given lambda from its saddle (KKT) system and from QR on
its stacked least-squares rows."""

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


def kkt_solution(p: RobustProblem, lam: float) -> np.ndarray:
    """x of the min-max problem at lambda from the saddle system

        [lam E_h'E_h + H'RH   H'B           ] [x ]   [H'Rz + lam E_h'E_z]
        [B'H                  -diag(lam - d)] [nu] = [B'z               ]

    with S'RS = Q diag(d) Q' and B = R S Q (nu = (lam - d)^-1 B'(Hx - z)
    eliminated gives bdu's normal equations).  It stays nonsingular at
    lambda = ||S'RS||, where those normal equations do not exist."""
    u = p.uncertainty
    rs = u.s * p.r[:, None]
    d, q = np.linalg.eigh(u.s.T @ rs)
    b, htr = rs @ q, p.h.T * p.r
    k = np.block([[lam * (u.e_h.T @ u.e_h) + htr @ p.h, p.h.T @ b],
                  [b.T @ p.h, -np.diag(lam - d)]])
    rhs = np.concatenate([htr @ p.z + lam * (u.e_h.T @ u.e_z), b.T @ p.z])
    return np.linalg.solve(k, rhs)[: p.h.shape[1]]


def lsq_solution(p: RobustProblem, lam: float):
    """(x, cov, cond N) of the min-max problem at lambda above ||S'RS||
    from its least-squares form: x minimizes

        lam ||E_h x - E_z||^2 + (H x - z)' R_hat (H x - z),
        R_hat = R + R S (lam I - S'RS)^-1 S'R,

    solved by QR on the rows [sqrt(lam) E_h; R_hat^1/2 H], so its error
    grows as cond(N)^1/2, N = lam E_h'E_h + H'R_hat H the normal matrix
    bdu solves.  cov is x's covariance for data of covariance R^-1 with
    E_z held constant."""
    u = p.uncertainty
    rs = u.s * p.r[:, None]
    d, q = np.linalg.eigh(u.s.T @ rs)
    r_hat = np.diag(p.r) + (rs @ q / (lam - d)) @ (rs @ q).T
    evals, vecs = np.linalg.eigh(0.5 * (r_hat + r_hat.T))
    root = (vecs * np.sqrt(evals)) @ vecs.T
    k = len(u.e_z)
    a = np.vstack([np.sqrt(lam) * u.e_h, root @ p.h])
    b = np.concatenate([np.sqrt(lam) * u.e_z, root @ p.z])
    qa, ra = np.linalg.qr(a)
    x = np.linalg.solve(ra, qa.T @ b)
    dx_dz = np.linalg.solve(ra, qa[k:].T @ root)
    return x, (dx_dz / p.r) @ dx_dz.T, np.linalg.cond(ra) ** 2


def objective(mset, model, state) -> float:
    """J(x) = (z - h(x))' W^-1 (z - h(x))."""
    r = mset.z - model.h(model.pack(state))
    return float(np.sum((r / mset.sigmas) ** 2))
