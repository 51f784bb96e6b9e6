"""Dense reference copies of the injection Jacobian, the polar measurement
Jacobian and the Newton load flow built on them.

Every entry of the k x n injection blocks and of the m x 2n polar
Jacobian is evaluated, structural zeros included, by the same per-entry
formulas as the sparse-pattern kernels in ``gridstate``; the tests compare
the two bit for bit.
"""

import numpy as np

from gridstate.errors import ConvergenceError
from gridstate.netmodel import GENERATOR, SLACK, build_ybus
from gridstate.powerflow import StateVector, calc_injections


def injection_jacobian_dense(y, k, vm, va, p, q):
    """(dP/dtheta, dP/dV, dQ/dtheta, dQ/dV) of the injections (p, q) at the
    bus positions ``k``, over all n buses; ``y`` holds the Ybus rows of k."""
    at = np.arange(len(k))
    g, b = y.real, y.imag
    theta = va[k][:, None] - va[None, :]
    ct, st = np.cos(theta), np.sin(theta)
    a = g * ct + b * st
    c = g * st - b * ct
    vmk = vm[k]
    gkk, bkk = g[at, k], b[at, k]
    dp_dth = vmk[:, None] * vm * c
    dp_dth[at, k] = -q - bkk * vmk**2
    dp_dv = vmk[:, None] * a
    dp_dv[at, k] = p / vmk + gkk * vmk
    dq_dth = -vmk[:, None] * vm * a
    dq_dth[at, k] = p - gkk * vmk**2
    dq_dv = vmk[:, None] * c
    dq_dv[at, k] = q / vmk - bkk * vmk
    return dp_dth, dp_dv, dq_dth, dq_dv


def scatter_pattern(pat, n, values):
    """Per-entry values of a :class:`gridstate.powerflow.YbusPattern` as a
    dense block of n columns, one row per pattern row (zero off the pattern)."""
    at = np.repeat(np.arange(len(pat.count)), pat.count)
    out = np.zeros((len(pat.count), n))
    out[at, pat.col] = values
    return out


def jacobian_polar_dense(view, polar, specs):
    """Analytic H = dh/dx at the (vm, va) pair ``polar`` for the polar
    layout [va (all); vm (all)], C-ordered."""
    vm, va = polar
    c = view.compile(specs)
    n = view.n_bus
    d_va = np.zeros((c.n_rows, n))
    d_vm = np.zeros((c.n_rows, n))

    k = c.inj_bus
    v = vm * np.exp(1j * va)
    s = v[k] * np.conj(c.inj_y @ v)
    dva_p, dvm_p, dva_q, dvm_q = injection_jacobian_dense(c.inj_y, k, vm, va, s.real, s.imag)
    u = c.inj
    im = u.imag[:, None]
    d_va[u.rows] = np.where(im, dva_q[u.k], dva_p[u.k])
    d_vm[u.rows] = np.where(im, dvm_q[u.k], dvm_p[u.k])

    f = c.flow
    vi, vj = vm[f.i], vm[f.j]
    g1, b1 = f.ymm.real, f.ymm.imag
    g2, b2 = f.ymf.real, f.ymf.imag
    th = va[f.i] - va[f.j]
    cth, sth = np.cos(th), np.sin(th)
    dth = vi * vj * np.where(f.imag, g2 * cth + b2 * sth, -g2 * sth + b2 * cth)
    d_va[f.rows, f.i] = dth
    d_va[f.rows, f.j] = -dth
    d_vm[f.rows, f.i] = np.where(
        f.imag,
        -2.0 * vi * b1 + vj * (g2 * sth - b2 * cth),
        2.0 * vi * g1 + vj * (g2 * cth + b2 * sth),
    )
    d_vm[f.rows, f.j] = vi * np.where(f.imag, g2 * sth - b2 * cth, g2 * cth + b2 * sth)

    u = c.volt
    vmk, ck, sk = vm[u.k], np.cos(va[u.k]), np.sin(va[u.k])
    d_vm[u.rows, u.k] = np.where(u.imag, sk, ck)
    d_va[u.rows, u.k] = np.where(u.imag, vmk * ck, -vmk * sk)

    u = c.cur
    for k, y in ((u.i, u.ymm), (u.j, u.ymf)):
        gk, bk = y.real, y.imag
        ck, sk = np.cos(va[k]), np.sin(va[k])
        d_vm[u.rows, k] = np.where(u.imag, gk * sk + bk * ck, gk * ck - bk * sk)
        d_va[u.rows, k] = vm[k] * np.where(u.imag, gk * ck - bk * sk, -gk * sk - bk * ck)

    return np.hstack([d_va, d_vm])


def run_powerflow_dense(net, tol=1e-8, max_iter=20):
    """Newton-Raphson load flow from a flat start on the dense injection
    Jacobian; (state, iterations)."""
    adm = build_ybus(net)
    bus_ids = adm.bus_ids
    n = len(bus_ids)
    kinds = [net.bus(bid).kind for bid in bus_ids]
    p_sched = np.array([net.bus(bid).p for bid in bus_ids])
    q_sched = np.array([net.bus(bid).q for bid in bus_ids])
    vm, va = np.ones(n), np.zeros(n)
    for k, bid in enumerate(bus_ids):
        bus = net.bus(bid)
        if bus.kind in (SLACK, GENERATOR):
            vm[k] = bus.vm
        if bus.kind == SLACK:
            va[k] = bus.va
    pv_pq = [k for k in range(n) if kinds[k] != SLACK]
    pq = [k for k in range(n) if kinds[k] not in (SLACK, GENERATOR)]
    for it in range(max_iter + 1):
        p_calc, q_calc = calc_injections(adm.y, vm, va)
        f = np.concatenate([p_sched[pv_pq] - p_calc[pv_pq], q_sched[pq] - q_calc[pq]])
        if float(np.max(np.abs(f))) < tol:
            return StateVector("polar", bus_ids, vm, va, ref_bus=net.slack_bus.id), it
        dp_dth, dp_dv, dq_dth, dq_dv = injection_jacobian_dense(adm.y, np.arange(n), vm, va, p_calc, q_calc)
        jac = np.block(
            [
                [dp_dth[np.ix_(pv_pq, pv_pq)], dp_dv[np.ix_(pv_pq, pq)]],
                [dq_dth[np.ix_(pq, pv_pq)], dq_dv[np.ix_(pq, pq)]],
            ]
        )
        dx = np.linalg.solve(jac, f)
        va[pv_pq] += dx[: len(pv_pq)]
        vm[pq] += dx[len(pv_pq) :]
    raise ConvergenceError("dense reference load flow did not converge")
