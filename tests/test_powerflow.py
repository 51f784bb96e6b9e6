import numpy as np
import pytest

from gridstate.errors import ConvergenceError, ValidationError
from gridstate.netmodel import Branch, Bus, PowerNetwork
from gridstate.powerflow import (
    StateVector,
    masked_mismatch,
    mismatch,
    run_powerflow,
)


def test_flat_solution_on_dead_network():
    net = PowerNetwork(
        (Bus(1, "slack", vm=1.0), Bus(2, "load"), Bus(3, "load")),
        (Branch(1, 2, 0.01, 0.1), Branch(2, 3, 0.01, 0.1)),
    )
    sol = run_powerflow(net)
    assert sol.iterations == 0
    assert np.allclose(sol.state.v1, 1.0) and np.allclose(sol.state.v2, 0.0)
    dp, dq = mismatch(net, sol.state)
    assert np.abs(dp).max() < 1e-14 and np.abs(dq).max() < 1e-14


def _two_bus_oracle(net, n_grid=2001, rounds=4):
    """Dense-grid search on (V2, th2) minimizing the squared mismatch."""
    from gridstate.netmodel import build_ybus
    from gridstate.powerflow import calc_injections

    adm = build_ybus(net)
    p2 = net.bus(2).p
    q2 = net.bus(2).q
    lo = np.array([0.8, -0.5])
    hi = np.array([1.1, 0.1])
    for _ in range(rounds):
        vs = np.linspace(lo[0], hi[0], n_grid)
        ths = np.linspace(lo[1], hi[1], n_grid)
        best, arg = np.inf, None
        for th in ths:
            vm = np.stack([np.ones(n_grid), vs])
            va = np.stack([np.zeros(n_grid), np.full(n_grid, th)])
            v = vm * np.exp(1j * va)
            s = v * np.conj(adm.y @ v)
            err = (s[1].real - p2) ** 2 + (s[1].imag - q2) ** 2
            k = int(np.argmin(err))
            if err[k] < best:
                best, arg = err[k], (vs[k], th)
        pitch = (hi - lo) / (n_grid - 1)
        lo = np.array(arg) - 2 * pitch
        hi = np.array(arg) + 2 * pitch
    return arg


def test_two_bus_against_grid_oracle(two_bus):
    sol = run_powerflow(two_bus, tol=1e-12)
    v2, th2 = _two_bus_oracle(two_bus)
    assert abs(sol.state.at(2)[0] - v2) < 1e-6
    assert abs(sol.state.at(2)[1] - th2) < 1e-6


def test_ieee30_converges_fast_and_verified(net30):
    sol = run_powerflow(net30, tol=1e-8, max_iter=10)
    assert sol.iterations <= 10
    assert sol.max_mismatch < 1e-8
    assert masked_mismatch(net30, sol.state) < 1e-8


def test_power_balance_at_solution(net30, truth30):
    # generation - load - losses balances to zero: total calculated
    # injections equal total series + shunt losses
    dp, dq = mismatch(net30, truth30)
    from gridstate.netmodel import build_ybus
    from gridstate.powerflow import calc_injections

    adm = build_ybus(net30)
    order = [truth30.index(b) for b in adm.bus_ids]
    p_calc, _ = calc_injections(adm.y, truth30.v1[order], truth30.v2[order])
    v = truth30.v1[order] * np.exp(1j * truth30.v2[order])
    losses = 0.0
    for br in net30.branches:
        yff, yft, ytf, ytt = br.admittances()
        i, j = adm.index(br.f), adm.index(br.t)
        sf = v[i] * np.conj(yff * v[i] + yft * v[j])
        st = v[j] * np.conj(ytf * v[i] + ytt * v[j])
        losses += (sf + st).real
    shunts = sum(net30.bus(b).gs * truth30.at(b)[0] ** 2 for b in net30.bus_ids)
    assert abs(p_calc.sum() - losses - shunts) < 1e-8


def test_mismatch_linearization_consistency(net30, truth30):
    # perturbing one angle: the mismatch change shrinks consistently with a
    # first-order model (halving the step halves the change to O(h^2))
    k = truth30.index(17)
    for h in (0.01, 0.005):
        va = truth30.v2.copy()
        va[k] += h
        st = StateVector("polar", truth30.bus_ids, truth30.v1.copy(), va)
        dp, _ = mismatch(net30, st)
        va2 = truth30.v2.copy()
        va2[k] -= h
        st2 = StateVector("polar", truth30.bus_ids, truth30.v1.copy(), va2)
        dp2, _ = mismatch(net30, st2)
        if h == 0.01:
            slope_coarse = (dp - dp2) / (2 * h)
        else:
            slope_fine = (dp - dp2) / (2 * h)
    # central differences agree to O(h^2): 4x tighter at half step
    assert np.abs(slope_coarse - slope_fine).max() < 1e-3 * max(1.0, np.abs(slope_fine).max())


def test_divergence_reports_residual():
    net = PowerNetwork(
        (Bus(1, "slack", vm=1.0), Bus(2, "load", p=-9.0, q=-3.0)),
        (Branch(1, 2, 0.01, 0.1),),
    )
    with pytest.raises(ConvergenceError) as err:
        run_powerflow(net, tol=1e-10, max_iter=8)
    assert err.value.residual is not None


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(net30, tol):
    with pytest.raises(ValidationError, match="positive and finite"):
        run_powerflow(net30, tol=tol)


def test_argument_validation(net30):
    with pytest.raises(ValidationError):
        run_powerflow(net30, max_iter=0)
    with pytest.raises(ValidationError):
        mismatch(net30, StateVector("rect", net30.bus_ids, np.ones(30), np.zeros(30)))


def test_state_vector_guards():
    with pytest.raises(ValidationError):
        StateVector("polar", (1,), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValidationError):
        StateVector("spherical", (1,), np.array([1.0]), np.array([0.0]))
    s = StateVector("polar", (1, 2), np.array([1.0, 1.02]), np.array([0.0, -0.1]))
    assert s.at(2) == (1.02, -0.1)
    sub = s.subset([2])
    assert sub.bus_ids == (2,) and sub.at(2)[0] == 1.02
