"""Robust linear least squares under bounded structured data uncertainty,
at the exact lambda.

Solves  min_x max_{||y|| <= phi(x)} (Hx - z + Sy)' R (Hx - z + Sy)  with
phi(x) = ||E_h x - E_z||, the min-max problem induced by the perturbation
model [dH dz] = S Delta [E_h E_z], ||Delta|| <= 1, and R = diag(r).  The
closed-form solution is

    x_hat = (lam E_h'E_h + H' R_hat H)^-1 (H' R_hat z + lam E_h'E_z)
    R_hat = R + R S (lam I - S'RS)^+ S' R

with lam minimizing

    G(lam) = lam ||E_h x(lam) - E_z||^2 + ||H x(lam) - z||^2_{R(lam)}

over [||S'RS||, inf) (El Ghaoui & Lebret, SIAM J. Matrix Anal. Appl.
18(4), 1997; Chandrasekaran, Golub, Gu & Sayed, SIAM J. Matrix Anal.
Appl. 19(1), 1998).  Norms on matrices are spectral.  G is evaluated at
the left endpoint through a relative 1e-12 shift, which realizes the
one-sided limit that the saddle point requires there.  The pipeline
solves only problems that perturb something (the hybrid step routes null
uncertainty to plain WLS); the module also holds the two dense kernels
every triangular solve and TSE covariance go through.
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


# Order at or below which the dense kernels are numpy's own LAPACK call
# (the crossover with one BLAS thread); every system that small rounds
# exactly as a plain np.linalg call would.
_LEAF = 64


def tri_solve(t, b, lower: bool):
    """T^-1 b for a triangular T (``lower`` or upper) and a 1-D or 2-D b,
    by blocked substitution: above ``_LEAF`` the lower case is
    y1 = T11^-1 b1, y2 = T22^-1 (b2 - T21 y1), the upper case mirrored.
    At or below ``_LEAF``, T may also be a stack of k such matrices and b
    the stack of their right-hand sides (k x n, or k x n x m): one call,
    each solve rounding as its own.  Above it, a stack is solved member by
    member."""
    n = t.shape[-1]
    if t.ndim > 2 and n > _LEAF:
        return np.stack([tri_solve(tk, bk, lower) for tk, bk in zip(t, b)])
    if n <= _LEAF:
        if t.ndim > 2 and b.ndim < t.ndim:  # a stack of vectors
            return np.linalg.solve(t, b[..., None])[..., 0]
        return np.linalg.solve(t, b)
    k = n // 2
    if lower:
        y1 = tri_solve(t[:k, :k], b[:k], True)
        y2 = tri_solve(t[k:, k:], b[k:] - t[k:, :k] @ y1, True)
    else:
        y2 = tri_solve(t[k:, k:], b[k:], False)
        y1 = tri_solve(t[:k, :k], b[:k] - t[:k, k:] @ y2, False)
    return np.concatenate([y1, y2])


def spd_inv(g):
    """G^-1 for a symmetric positive definite G.  Above ``_LEAF`` from its
    Cholesky factor L: G^-1 = M'M with M = L^-1 inverted by halves,
    M = [[M11, 0], [-M22 L21 M11, M22]] (Mii = Lii^-1).  The Schur-complement
    form of G^-1 from an inverted leading block loses accuracy as
    cond(A) cond(S); this form keeps LAPACK's.  LinAlgError when G is not
    positive definite (np.linalg.inv, the leaf, raises it on a singular G).
    G may also be a stack of matrices: one call at or below ``_LEAF``,
    member by member above it."""
    if g.shape[-1] <= _LEAF:
        return np.linalg.inv(g)
    if g.ndim > 2:
        return np.stack([spd_inv(gk) for gk in g])
    m = _tri_inv(np.linalg.cholesky(g))
    return m.T @ m


def _tri_inv(t):
    """T^-1 for a lower-triangular T, by the halves of :func:`spd_inv`."""
    n = t.shape[0]
    if n <= _LEAF:
        return np.linalg.inv(t)
    k = n // 2
    m11, m22 = _tri_inv(t[:k, :k]), _tri_inv(t[k:, k:])
    return np.block([[m11, np.zeros((k, n - k))], [-m22 @ (t[k:, :k] @ m11), m22]])


@dataclass(frozen=True)
class RobustProblem:
    z: np.ndarray
    h: np.ndarray
    r: np.ndarray  # weights, the diagonal of R = W^-1; positive and finite
    uncertainty: UncertaintyStructure

    def __post_init__(self):
        m, n = self.h.shape
        if len(self.z) != m:
            raise ValidationError("z length does not match H rows")
        if self.r.shape != (m,) or not np.all(np.isfinite(self.r) & (self.r > 0.0)):
            raise ValidationError("r must hold one positive, finite weight per row of H")
        u = self.uncertainty
        if u.q and u.s.shape[0] != m:
            raise ValidationError("S row dimension does not match H")
        if u.e_h.shape[1] != n:
            raise ValidationError("E_h column dimension does not match H")


@dataclass(frozen=True)
class RobustSolution:
    x: np.ndarray
    lam: float
    worst_case: float
    strategy: str
    cov: np.ndarray | None  # covariance of x when z has covariance R^-1; None where not asked for


class _Evaluator:
    """Shared factorizations for repeated G(lambda) evaluation; R S and H'R
    are scaled once (H'R C-ordered: its layout picks the BLAS path, and so
    the rounding, of H'R z) and every product with R derives from them."""

    def __init__(self, p: RobustProblem):
        self.p = p
        u = p.uncertainty
        rs, htr = u.s * p.r[:, None], np.ascontiguousarray(p.h.T * p.r)
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
        weighted = (res * self.p.r) @ res + np.sum(w * (self.b.T @ res) ** 2)
        u = self.p.uncertainty
        return float(lam_eff * np.sum((u.e_h @ x - u.e_z) ** 2) + weighted)

    def g(self, lam: float) -> float:
        return self._g(*self._solve(lam))

    def solution(self, lam: float, strategy: str, cov: bool = True) -> RobustSolution:
        """x(lam), G(lam) and, with ``cov``, the covariance of x for data of
        covariance R^-1 (else None), from one solve of the normal
        equations; without ``cov`` it solves for x alone."""
        lam_eff, w, sol = self._solve(lam, with_cov=cov)
        if not cov:
            return RobustSolution(sol, float(lam), self._g(lam_eff, w, sol), strategy, None)
        x, pr = sol[:, 0], sol[:, 1:]
        return RobustSolution(x, float(lam), self._g(lam_eff, w, x), strategy, (pr * self.p.r) @ pr.T)


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


_MAX_DOUBLINGS = 80


def min_g(p: RobustProblem, evaluator: _Evaluator | None = None):
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
    for _ in range(_MAX_DOUBLINGS):
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
            f"no bracket for the lambda search within {_MAX_DOUBLINGS} expansions"
        )

    lam_hat = float(max(_golden(ev.g, bracket[0], bracket[1], lambda mid: 1e-8 * (1.0 + mid)), lam0))
    # the minimum may sit exactly on the domain boundary
    if f0 <= ev.g(lam_hat):
        return lam0
    return lam_hat


def bdu_solve(p: RobustProblem, cov: bool = True) -> RobustSolution:
    """The min-max solution at the lambda :func:`min_g` finds, with G there
    and, with ``cov``, the covariance of x for data of covariance R^-1
    (else None); one evaluator serves the search and the solution."""
    ev = _Evaluator(p)
    return ev.solution(min_g(p, evaluator=ev), "exact", cov)
