"""Newton-Raphson AC load flow; produces the ground-truth state for experiments.

The solver works in polar coordinates from a flat start (V = 1 p.u.,
theta = 0).  Generator buses hold their voltage magnitude (PV), the slack
bus holds magnitude and angle.  Reactive-power limits are not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError, is_integer
from .netmodel import GENERATOR, SLACK, PowerNetwork, build_ybus


@dataclass(frozen=True)
class StateVector:
    """Per-bus voltage state, polar (vm, va) or rectangular (vr, vi).

    ``v1``/``v2`` hold (magnitude, angle[rad]) in polar form and
    (real, imaginary) in rectangular form; ``bus_ids`` fixes the layout.
    """

    coord: str
    bus_ids: tuple[int, ...]
    v1: np.ndarray
    v2: np.ndarray
    ref_bus: int | None = None

    def __post_init__(self):
        if self.coord not in ("polar", "rect"):
            raise ValidationError(f"unknown coordinate tag {self.coord!r}")
        if len(self.v1) != len(self.bus_ids) or len(self.v2) != len(self.bus_ids):
            raise ValidationError("state arrays do not match bus layout")
        if self.coord == "polar" and np.any(self.v1 <= 0.0):
            raise ValidationError("polar state requires positive magnitudes")

    @property
    def vm(self):
        assert self.coord == "polar"
        return self.v1

    @property
    def va(self):
        assert self.coord == "polar"
        return self.v2

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {b: k for k, b in enumerate(self.bus_ids)}

    def index(self, bus_id: int) -> int:
        try:
            return self._pos[bus_id]
        except KeyError:
            raise ValidationError(f"bus {bus_id} is not in the state") from None

    def at(self, bus_id: int) -> tuple[float, float]:
        k = self.index(bus_id)
        return float(self.v1[k]), float(self.v2[k])

    def subset(self, bus_ids) -> "StateVector":
        idx = [self.index(b) for b in bus_ids]
        ref = self.ref_bus if self.ref_bus in bus_ids else None
        return StateVector(self.coord, tuple(bus_ids), self.v1[idx].copy(), self.v2[idx].copy(), ref)


@dataclass(frozen=True)
class PowerflowSolution:
    state: StateVector
    iterations: int
    max_mismatch: float


def calc_injections(ybus, vm, va):
    """Complex power injections S = V .* conj(Y V) split into (P, Q)."""
    v = vm * np.exp(1j * va)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


class YbusPattern(NamedTuple):
    """Where some Ybus rows are nonzero, with every diagonal: entry e sits
    at bus positions (``row[e]``, ``col[e]``) with admittance ``y[e]``, in
    row-major order.  ``diag`` holds each row's diagonal entry and
    ``count`` its number of entries, both in row order."""

    row: np.ndarray
    col: np.ndarray
    y: np.ndarray
    diag: np.ndarray
    count: np.ndarray


def ybus_pattern(y, k) -> YbusPattern:
    """The pattern of ``y``, the Ybus rows of the buses at positions ``k``."""
    mask = y != 0.0
    mask[np.arange(len(k)), k] = True
    at, col = np.nonzero(mask)
    row = k[at]
    return YbusPattern(row, col, y[at, col], np.flatnonzero(col == row), np.bincount(at, minlength=len(k)))


def injection_jacobian(pat: YbusPattern, vm, va, p, q):
    """(dP/dtheta, dP/dV, dQ/dtheta, dQ/dV) of the injections (p, q) at the
    buses of ``pat``, one value per pattern entry: dP_k/dtheta_j at the
    entry (k, j).  Every other derivative is structurally zero."""
    k, j, d = pat.row, pat.col, pat.diag
    g, b = pat.y.real, pat.y.imag
    theta = va[k] - va[j]
    ct, st = np.cos(theta), np.sin(theta)
    a = g * ct + b * st
    c = g * st - b * ct
    vmk = vm[k]
    vmd = vmk[d]
    gkk, bkk = g[d], b[d]
    dp_dth = vmk * vm[j] * c
    dp_dth[d] = -q - bkk * vmd**2
    dp_dv = vmk * a
    dp_dv[d] = p / vmd + gkk * vmd
    dq_dth = -vmk * vm[j] * a
    dq_dth[d] = p - gkk * vmd**2
    dq_dv = vmk * c
    dq_dv[d] = q / vmd - bkk * vmd
    return dp_dth, dp_dv, dq_dth, dq_dv


def mismatch(net: PowerNetwork, state: StateVector):
    """Per-bus scheduled-minus-calculated (dP, dQ) at the given polar state.

    Raw values for every bus; the slack P/Q and generator-bus Q entries are
    not meaningful residuals (those quantities are not scheduled) and are
    masked by callers such as :func:`run_powerflow`.
    """
    if state.coord != "polar":
        raise ValidationError("mismatch expects a polar state")
    adm = build_ybus(net)
    order = [state.index(b) for b in adm.bus_ids]
    p_calc, q_calc = calc_injections(adm.y, state.v1[order], state.v2[order])
    dp = np.array([net.bus(b).p for b in adm.bus_ids]) - p_calc
    dq = np.array([net.bus(b).q for b in adm.bus_ids]) - q_calc
    return dp, dq


def _mismatch_mask(net: PowerNetwork, bus_ids):
    kinds = [net.bus(b).kind for b in bus_ids]
    p_mask = np.array([k != SLACK for k in kinds])
    q_mask = np.array([k not in (SLACK, GENERATOR) for k in kinds])
    return p_mask, q_mask


def masked_mismatch(net: PowerNetwork, state: StateVector) -> float:
    """Largest mismatch over the equations the load flow actually solves."""
    dp, dq = mismatch(net, state)
    p_mask, q_mask = _mismatch_mask(net, state.bus_ids)
    terms = [np.abs(dp[p_mask])]
    if q_mask.any():
        terms.append(np.abs(dq[q_mask]))
    return float(max(t.max() for t in terms if t.size))


def run_powerflow(net: PowerNetwork, tol: float = 1e-8, max_iter: int = 20) -> PowerflowSolution:
    """Full Newton-Raphson load flow from a flat start.

    Raises ConvergenceError (carrying the final mismatch) if the mismatch
    does not fall below ``tol`` within ``max_iter`` iterations.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    if not is_integer(max_iter) or max_iter < 1:
        raise ValidationError("iteration cap must be an integer of at least 1")

    adm = build_ybus(net)
    bus_ids = adm.bus_ids
    n = len(bus_ids)
    kinds = [net.bus(bid).kind for bid in bus_ids]
    p_sched = np.array([net.bus(bid).p for bid in bus_ids])
    q_sched = np.array([net.bus(bid).q for bid in bus_ids])

    vm = np.ones(n)
    va = np.zeros(n)
    for k, bid in enumerate(bus_ids):
        bus = net.bus(bid)
        if bus.kind in (SLACK, GENERATOR):
            vm[k] = bus.vm
        if bus.kind == SLACK:
            va[k] = bus.va

    pv_pq = [k for k in range(n) if kinds[k] != SLACK]
    pq = [k for k in range(n) if kinds[k] not in (SLACK, GENERATOR)]

    # [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]] over all buses, filled at
    # the Ybus pattern; the Newton matrix keeps the equations P at pv_pq,
    # Q at pq and the unknowns theta at pv_pq, V at pq
    pat = ybus_pattern(adm.y, np.arange(n))
    rows = np.concatenate([pat.row, pat.row, n + pat.row, n + pat.row])
    cols = np.concatenate([pat.col, n + pat.col, pat.col, n + pat.col])
    keep = np.array(pv_pq + [n + k for k in pq], dtype=np.intp)

    last = np.inf
    for it in range(max_iter + 1):
        p_calc, q_calc = calc_injections(adm.y, vm, va)
        dp = p_sched[pv_pq] - p_calc[pv_pq]
        dq = q_sched[pq] - q_calc[pq]
        f = np.concatenate([dp, dq])
        last = float(np.max(np.abs(f))) if f.size else 0.0
        if last < tol:
            state = StateVector("polar", bus_ids, vm, va, ref_bus=net.slack_bus.id)
            return PowerflowSolution(state, it, last)
        if it == max_iter:
            break

        full = np.zeros((2 * n, 2 * n))
        full[rows, cols] = np.concatenate(injection_jacobian(pat, vm, va, p_calc, q_calc))
        jac = full[np.ix_(keep, keep)]
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular power-flow Jacobian: {exc}", residual=last) from exc
        va[pv_pq] += dx[: len(pv_pq)]
        vm[pq] += dx[len(pv_pq) :]

    raise ConvergenceError(
        f"load flow did not converge in {max_iter} iterations (mismatch {last:.3e})",
        residual=last,
    )
