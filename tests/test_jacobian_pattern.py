"""The sparse-pattern Jacobians against dense reference copies, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridstate.measurement import ModelView, jacobian_polar
from gridstate.multiarea import Structure, _split_rows
from gridstate.netmodel import build_ybus
from gridstate.powerflow import StateVector, calc_injections, injection_jacobian, run_powerflow, ybus_pattern
from gridstate.wls import PolarModel
from tests.dense_jacobian import (
    injection_jacobian_dense,
    jacobian_polar_dense,
    run_powerflow_dense,
    scatter_pattern,
)


def _state(data, view):
    n = view.n_bus
    vm = data.draw(arrays(np.float64, n, elements=st.floats(0.9, 1.1)))
    va = data.draw(arrays(np.float64, n, elements=st.floats(-0.3, 0.3)))
    return StateVector("polar", view.bus_ids, vm, va)


def _models(net30, part30, specs30):
    """{case: (view, specs, PolarModel or None)}: an area TSE model with its
    reference angle pinned, an anchored one, the full view over every row
    it can evaluate, and the coordinator's physical rows."""
    structure = Structure(net30, part30, specs30)
    anchored = structure.areas[1].model
    assert not anchored.pin_angle
    scada = _split_rows(part30, specs30)[0][3]
    view3 = ModelView.for_area(net30, part30, 3)
    pinned = PolarModel(view3, tuple(specs30[k] for k in scada), pin_angle=True)
    full = ModelView.full(net30)
    every = tuple(m for m in specs30 if m.kind not in ("p_inj", "q_inj") or m.bus in full.injection_ok)
    coord = structure.coordinator
    return {
        "pinned": (pinned.view, pinned.specs, pinned),
        "anchored": (anchored.view, anchored.specs, anchored),
        "full": (full, every, None),
        "coordinator": (coord.view, coord.physical, None),
    }


@settings(max_examples=15, deadline=None)
@given(case=st.sampled_from(["pinned", "anchored", "full", "coordinator"]), data=st.data())
def test_pattern_jacobian_equals_dense_reference(net30, part30, specs30, case, data):
    view, specs, model = _models(net30, part30, specs30)[case]
    state = _state(data, view)
    got = jacobian_polar(view, view.polar(state), specs)
    want = jacobian_polar_dense(view, view.polar(state), specs)
    assert got.flags.f_contiguous
    assert np.array_equal(got, want)
    if model is not None:
        # a pinned model unpacks its reference angle as zero
        x = model.pack(state)
        jac = model.jac(x)
        assert jac.flags.f_contiguous
        assert np.array_equal(jac, jacobian_polar_dense(view, model.unpack(x), specs)[:, model._cols])


@settings(max_examples=15, deadline=None)
@given(data=st.data(), subset=st.booleans())
def test_injection_kernel_equals_dense_reference(net30, data, subset):
    adm = build_ybus(net30)
    view = ModelView.full(net30)
    state = _state(data, view)
    vm, va = state.v1, state.v2
    n = len(vm)
    k = np.array([17, 2, 29, 5, 11]) if subset else np.arange(n)
    p, q = (part[k] for part in calc_injections(adm.y, vm, va))
    pat = ybus_pattern(adm.y[k], k)
    dense = injection_jacobian_dense(adm.y[k], k, vm, va, p, q)
    for got, want in zip(injection_jacobian(pat, vm, va, p, q), dense):
        assert np.array_equal(scatter_pattern(pat, n, got), want)


def test_truth_load_flow_is_bit_identical_to_dense_newton(net30):
    sol = run_powerflow(net30, tol=1e-10, max_iter=20)
    state, iterations = run_powerflow_dense(net30, tol=1e-10, max_iter=20)
    assert sol.iterations == iterations
    assert np.array_equal(sol.state.v1, state.v1)
    assert np.array_equal(sol.state.v2, state.v2)
