"""Reference quantities that only the tests read: G(lambda) at a given
lambda, the practical lambda choice, ||S'RS|| and the WLS objective at a
given state, each from the package's own pieces; the min-max solution at
a given lambda from its saddle (KKT) system and from QR on its stacked
least-squares rows; the WLS covariance from QR; the Gauss-Newton normal
equations as dense products; the coordinator's dense Jacobian; and a
hybrid model's whole H."""

import numpy as np

from gridstate.bdu import RobustProblem, _Evaluator, _scaled_lambda
from gridstate.errors import ValidationError
from gridstate.measurement import h_eval


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


def polar_h(model, x) -> np.ndarray:
    """h at x of a ``wls.PolarModel``, on its own view."""
    return h_eval(model.view, model.unpack(x), model.specs)


def objective(mset, model, state) -> float:
    """J(x) = (z - h(x))' W^-1 (z - h(x))."""
    r = mset.z - polar_h(model, model.pack(state))
    return float(np.sum((r / mset.sigmas) ** 2))


def qr_covariance(h_w) -> np.ndarray:
    """(H_w' H_w)^-1 of a whitened H as R^-1 R^-T from H_w = QR, without
    forming the normal matrix, so its error grows as cond(H_w), not as
    the gain's cond(H_w)^2."""
    r = np.linalg.qr(h_w, mode="r")
    r_inv = np.linalg.solve(r, np.eye(len(r)))
    return r_inv @ r_inv.T


class DenseNormal:
    """Normal equations for ``wls.gauss_newton`` as dense products of the
    whitened H = ``jac(x)``: a step's linearization is H_w, its gain
    H_w' H_w (as a list of one block, the gain of a batch of one) and its
    gradient H_w' r_w; the reference for the package's pattern form
    (``wls.PatternNormal``)."""

    def __init__(self, jac, whiten):
        self.jac, self.whiten = jac, whiten

    def weigh(self, x):
        return self.whiten(self.jac(x))

    def gain(self, h_w):
        return [h_w.T @ h_w]

    def grad(self, h_w, r_w):
        return h_w.T @ r_w

    def gain_at(self, x):
        """The gain alone, from two whitened copies (H_w' H_w on one
        array takes another BLAS path)."""
        h = self.jac(x)
        return [self.whiten(h).T @ self.whiten(h)]


def coordinator_jac(model, x) -> np.ndarray:
    """The coordinator's m x n Jacobian at x: its physical rows scattered
    from the nonzero values on ``model.pattern`` (pinned angles summed
    into their area's u column), then the constant pseudo rows."""
    p = model.pattern
    physical = np.zeros((p.m, model.n_state))
    physical[p.row, p.col] = p.values(model.jac_values(x))
    return np.vstack([physical, model.pseudo_jac])


def stacked_h(m) -> np.ndarray:
    """A hybrid model's whole H = [I; H_PMU], pseudo rows first."""
    return np.vstack([np.eye(m.n_state), m.h_pmu])
