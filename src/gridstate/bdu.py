"""Robust linear least squares under bounded structured data uncertainty.

Solves  min_x max_{||y|| <= phi(x)} (Hx - z + Sy)' R (Hx - z + Sy)  with
phi(x) = ||E_h x - E_z||, the min-max problem induced by the perturbation
model [dH dz] = S Delta [E_h E_z], ||Delta|| <= 1.  The closed-form
solution is

    x_hat = (lam E_h'E_h + H' R_hat H)^-1 (H' R_hat z + lam E_h'E_z)
    R_hat = R + R S (lam I - S'RS)^+ S' R

with lam minimizing

    G(lam) = lam ||E_h x(lam) - E_z||^2 + ||H x(lam) - z||^2_{R(lam)}

over [||S'RS||, inf).  Norms on matrices are spectral.  G is evaluated at
the left endpoint through a relative 1e-12 shift, which realizes the
one-sided limit that the saddle point requires there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_EDGE_SHIFT = 1e-12


@dataclass(frozen=True)
class UncertaintyStructure:
    """(S, E_h, E_z) of the structured perturbation; ||Delta|| <= 1 is the
    perturbation contract and is not stored."""

    s: np.ndarray  # m x q
    e_h: np.ndarray  # p x n
    e_z: np.ndarray  # p

    def __post_init__(self):
        if self.e_h.shape[0] != len(self.e_z):
            raise ValidationError("E_h and E_z row dimensions differ")

    @property
    def q(self):
        return self.s.shape[1]

    def is_null(self):
        return self.q == 0 or not np.any(self.s)

    def no_perturbation_bound(self):
        return not np.any(self.e_h) and not np.any(self.e_z)

    def phi(self, x) -> float:
        """Radius of the admissible perturbation ball at x."""
        return float(np.linalg.norm(self.e_h @ x - self.e_z))


def null_uncertainty(m: int, n: int) -> UncertaintyStructure:
    return UncertaintyStructure(np.zeros((m, 0)), np.zeros((n, n)), np.zeros(n))


@dataclass(frozen=True)
class RobustProblem:
    z: np.ndarray
    h: np.ndarray
    r: np.ndarray  # weighting matrix, R = W^-1, symmetric positive definite
    uncertainty: UncertaintyStructure

    def __post_init__(self):
        m, n = self.h.shape
        if len(self.z) != m:
            raise ValidationError("z length does not match H rows")
        if self.r.shape != (m, m):
            raise ValidationError("R must be m x m")
        u = self.uncertainty
        if u.q and u.s.shape[0] != m:
            raise ValidationError("S row dimension does not match H")
        if u.e_h.shape[1] != n:
            raise ValidationError("E_h column dimension does not match H")


@dataclass(frozen=True)
class RobustSolution:
    x: np.ndarray
    lam: float
    r_hat: np.ndarray
    worst_case: float
    strategy: str
    cov: np.ndarray  # covariance of x when z has covariance R^-1


def spectral_norm_strs(s, r) -> float:
    """||S' R S|| (largest eigenvalue; the matrix is symmetric PSD)."""
    if s.shape[1] == 0:
        return 0.0
    u = s.T @ r @ s
    return float(np.linalg.eigvalsh(0.5 * (u + u.T))[-1])


class _Evaluator:
    """Shared factorizations for repeated G(lambda) evaluation; R S and H'R
    are formed once and every product with R derives from them."""

    def __init__(self, p: RobustProblem):
        self.p = p
        u = p.uncertainty
        rs, htr = p.r @ u.s, p.h.T @ p.r
        strs = u.s.T @ rs
        d, q = np.linalg.eigh(0.5 * (strs + strs.T)) if u.q else (np.zeros(0), np.zeros((0, 0)))
        self.d = np.clip(d, 0.0, None)
        self.lam0 = float(self.d[-1]) if len(self.d) else 0.0
        self.b, self.sq = rs @ q, u.s @ q  # R S Q, S Q
        self.htb = p.h.T @ self.b
        self.btz = self.b.T @ p.z
        self.htrh, self.htrz = htr @ p.h, htr @ p.z
        self.ehteh = u.e_h.T @ u.e_h
        self.ehtez = u.e_h.T @ u.e_z
        self._scale = max(1.0, self.lam0)

    def _solve(self, lam: float, with_cov: bool = False):
        """(effective lambda, eigen-weights w of (lam I - S'RS)^+, x(lam)).
        ``with_cov`` also solves for P = N^-1 (H' + H'RSQ w (SQ)'), N the
        normal matrix, and returns [x P]: x = A z + const with
        A = N^-1 H'R(lam) = P R, so A R^-1 A' = P R P'."""
        lam_eff = max(float(lam), self.lam0 + _EDGE_SHIFT * self._scale)
        w = 1.0 / (lam_eff - self.d)
        hw = self.htb * w
        lhs = lam_eff * self.ehteh + self.htrh + hw @ self.htb.T
        rhs = self.htrz + hw @ self.btz + lam_eff * self.ehtez
        if with_cov:
            rhs = np.column_stack([rhs, self.p.h.T + hw @ self.sq.T])
        try:
            return lam_eff, w, np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular robust normal matrix at lambda={lam!r}") from None

    def _g(self, lam_eff, w, x) -> float:
        res = self.p.h @ x - self.p.z
        weighted = res @ self.p.r @ res + np.sum(w * (self.b.T @ res) ** 2)
        u = self.p.uncertainty
        return float(lam_eff * np.sum((u.e_h @ x - u.e_z) ** 2) + weighted)

    def g(self, lam: float) -> float:
        return self._g(*self._solve(lam))

    def solution(self, lam: float, strategy: str) -> RobustSolution:
        """x(lam), R(lam), G(lam) and the covariance of x for data of
        covariance R^-1, from one solve of the normal equations."""
        lam_eff, w, sol = self._solve(lam, with_cov=True)
        x, pr = sol[:, 0], sol[:, 1:]
        r_hat = self.p.r + (self.b * w) @ self.b.T
        return RobustSolution(x, float(lam), r_hat, self._g(lam_eff, w, x), strategy, (pr @ self.p.r) @ pr.T)


def g_of_lambda(lam: float, p: RobustProblem) -> float:
    """G(lambda); domain error below ||S'RS||."""
    ev = _Evaluator(p)
    if lam < ev.lam0 * (1.0 - 1e-9) - 1e-300:
        raise ValidationError(f"lambda={lam!r} below the domain bound {ev.lam0!r}")
    return ev.g(lam)


_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def _golden(f, lo, hi, tol_of):
    c = hi - _GOLD * (hi - lo)
    d = lo + _GOLD * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol_of(0.5 * (lo + hi)):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLD * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLD * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def min_g(p: RobustProblem, max_doublings: int = 80, evaluator: _Evaluator | None = None):
    """lambda minimizing G over [||S'RS||, inf).

    Brackets by geometric expansion from the left endpoint until G rises,
    then refines by golden section to absolute tolerance 1e-8 (1 + lam).
    A flat G (degenerate structure) returns the left endpoint.
    ``evaluator`` is p's own, when the caller already built it.
    """
    ev = evaluator or _Evaluator(p)
    lam0 = ev.lam0
    step = 0.01 * max(1.0, lam0)
    f0 = ev.g(lam0)

    seen = [(lam0, f0)]
    prev_lam, prev_f = lam0, f0
    bracket = None
    for _ in range(max_doublings):
        lam = prev_lam + step
        f = ev.g(lam)
        seen.append((lam, f))
        if f > prev_f:
            bracket = (seen[-3][0] if len(seen) >= 3 else lam0, lam)
            break
        prev_lam, prev_f = lam, f
        step *= 2.0

    values = [f for _, f in seen]
    if max(values) - min(values) <= 1e-12 * (1.0 + abs(f0)):
        return lam0  # degenerate: G flat, pick the endpoint deterministically
    if bracket is None:
        raise NumericalError(
            f"no bracket for the lambda search within {max_doublings} expansions"
        )

    lam_hat = float(max(_golden(ev.g, bracket[0], bracket[1], lambda mid: 1e-8 * (1.0 + mid)), lam0))
    # the minimum may sit exactly on the domain boundary
    if f0 <= ev.g(lam_hat):
        return lam0
    return lam_hat


def lambda_approx(mu: float, s, r) -> float:
    """Practical choice lambda = (1 + mu) ||S'RS||."""
    return _scaled_lambda(mu, spectral_norm_strs(s, r))


def _scaled_lambda(mu: float, lam0: float) -> float:
    if mu < 0.0:
        raise ValidationError("mu must be nonnegative")
    return (1.0 + mu) * lam0


def bdu_solve(p: RobustProblem, lam_strategy: str = "exact", mu: float = 1.0) -> RobustSolution:
    """Solve the min-max problem; with null uncertainty this reduces exactly
    to the plain weighted LS solution (no lambda machinery involved)."""
    u = p.uncertainty
    if u.is_null() or u.no_perturbation_bound():
        htr = p.h.T @ p.r
        try:
            sol = np.linalg.solve(htr @ p.h, np.column_stack([htr @ p.z, np.eye(len(htr))]))
        except np.linalg.LinAlgError:
            raise NumericalError("singular normal matrix in weighted least squares") from None
        res = p.h @ sol[:, 0] - p.z
        return RobustSolution(sol[:, 0], 0.0, p.r.copy(), float(res @ p.r @ res), "reduced", sol[:, 1:])

    ev = _Evaluator(p)
    if lam_strategy == "exact":
        lam = min_g(p, evaluator=ev)
    elif lam_strategy == "approx":
        lam = _scaled_lambda(mu, ev.lam0)
    else:
        raise ValidationError(f"unknown lambda strategy {lam_strategy!r}")
    return ev.solution(lam, lam_strategy)


def worst_case_objective(x, p: RobustProblem, samples: int = 256, seed: int = 0) -> float:
    """Sampled inner maximum of the robust cost at a fixed x.

    Evaluates (Hx - z + Sy)' R (Hx - z + Sy) over boundary-directed draws
    y = phi(x) d plus the analytic candidate directions (the linear-term
    direction and the top curvature eigenvector), and returns the largest.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    u = p.uncertainty
    v = p.h @ x - p.z
    nominal = float(v @ p.r @ v)
    if u.q == 0:
        return nominal
    phi = u.phi(x)
    if phi == 0.0:
        return nominal

    dirs = []
    lin = u.s.T @ p.r @ v
    if np.linalg.norm(lin) > 0.0:
        dirs.append(lin / np.linalg.norm(lin))
    strs = u.s.T @ p.r @ u.s
    _, vecs = np.linalg.eigh(0.5 * (strs + strs.T))
    dirs.extend([vecs[:, -1], -vecs[:, -1]])
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, u.q))
    norms = np.linalg.norm(raw, axis=1)
    dirs.extend(raw[k] / norms[k] for k in range(samples) if norms[k] > 0.0)

    best = nominal
    for d in dirs:
        y = phi * d
        t = v + u.s @ y
        best = max(best, float(t @ p.r @ t))
    return best
