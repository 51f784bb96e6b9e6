import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridstate.errors import ValidationError
from gridstate.measurement import (
    ALL_KINDS,
    FLOW_KINDS,
    INJECTION_KINDS,
    PMU_CURRENT_KINDS,
    PMU_KINDS,
    PMU_VOLTAGE_KINDS,
    Measurement,
    MeasurementSet,
    ModelView,
    h_eval,
    jacobian_polar,
    jacobian_rect,
    polar_to_rect,
    rect_to_polar,
    synthesize,
    wrap_angle,
)
from gridstate.netmodel import Branch, Bus, PowerNetwork
from gridstate.powerflow import StateVector
from tests.conftest import synth_zero
from tests.dense_jacobian import jacobian_polar_dense


def flat_state(bus_ids):
    """Every magnitude 1, every angle 0."""
    n = len(bus_ids)
    return StateVector("polar", tuple(bus_ids), np.ones(n), np.zeros(n))


def _flat(view):
    return flat_state(view.bus_ids)


def test_flat_state_values():
    net = PowerNetwork(
        (Bus(1, "slack"), Bus(2, "load")), (Branch(1, 2, 0.01, 0.1),)
    )  # no shunts, no charging
    view = ModelView.full(net)
    specs = (
        Measurement(0, "p_inj", 0.0, 1.0, bus=1),
        Measurement(1, "q_inj", 0.0, 1.0, bus=2),
        Measurement(2, "p_flow", 0.0, 1.0, branch=(1, 2)),
        Measurement(3, "pmu_vr", 0.0, 1.0, bus=1),
        Measurement(4, "pmu_vi", 0.0, 1.0, bus=2),
    )
    vals = h_eval(view, view.polar(_flat(view)), specs)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_h_matches_powerflow_internals(net30, truth30, view30, specs30):
    # residuals of noise-free synthesis at the true state vanish
    mset = synth_zero(view30, truth30, specs30)
    vals = h_eval(view30, view30.polar(truth30), specs30)
    assert np.abs(mset.z - vals).max() < 1e-12
    # and injection rows equal the scheduled injections at the solution
    for m, v in zip(specs30, vals):
        if m.kind == "p_inj":
            assert abs(v - net30.bus(m.bus).p) < 1e-8
        if m.kind == "q_inj" and net30.bus(m.bus).kind == "load":
            assert abs(v - net30.bus(m.bus).q) < 1e-8


def test_two_bus_flow_hand_computed():
    # V1=1.05<10deg, V2=0.98<-5deg over r=.02 x=.2 b=.04, hand pi-model
    net = PowerNetwork(
        (Bus(1, "slack"), Bus(2, "load")), (Branch(1, 2, 0.02, 0.2, 0.04),)
    )
    view = ModelView.full(net)
    st = StateVector("polar", (1, 2), np.array([1.05, 0.98]), np.radians([10.0, -5.0]))
    specs = (
        Measurement(0, "p_flow", 0.0, 1.0, branch=(1, 2), side="from"),
        Measurement(1, "q_flow", 0.0, 1.0, branch=(1, 2), side="to"),
    )
    got = h_eval(view, view.polar(st), specs)
    ys = 1.0 / complex(0.02, 0.2)
    v1 = 1.05 * np.exp(1j * np.radians(10.0))
    v2 = 0.98 * np.exp(1j * np.radians(-5.0))
    sf = v1 * np.conj((ys + 0.02j) * v1 - ys * v2)
    st_ = v2 * np.conj((ys + 0.02j) * v2 - ys * v1)
    assert abs(got[0] - sf.real) < 1e-12
    assert abs(got[1] - st_.imag) < 1e-12


def test_jacobian_matches_finite_differences(net30, part30, specs30):
    rng = np.random.default_rng(42)
    for area_idx in (1, 2, 3):
        view = ModelView.for_area(net30, part30, area_idx)
        owned = [
            m
            for m in specs30
            if m.metered_bus() in view.pos
            and all(b in view.pos for b in ((m.branch or (m.bus, m.bus))))
            and (m.kind not in ("p_inj", "q_inj") or m.bus in view.injection_ok)
        ]
        n = view.n_bus
        for _ in range(4):
            vm = 1.0 + 0.05 * rng.standard_normal(n)
            va = 0.1 * rng.standard_normal(n)
            st = StateVector("polar", view.bus_ids, np.abs(vm) + 0.5, va)
            jac = jacobian_polar(view, view.polar(st), owned)
            eps = 1e-6
            for col in range(2 * n):
                dvm = st.v1.copy()
                dva = st.v2.copy()
                if col < n:
                    dva[col] += eps
                    up = StateVector("polar", view.bus_ids, dvm, dva)
                    dva2 = st.v2.copy()
                    dva2[col] -= eps
                    dn = StateVector("polar", view.bus_ids, dvm, dva2)
                else:
                    dvm[col - n] += eps
                    up = StateVector("polar", view.bus_ids, dvm, dva)
                    dvm2 = st.v1.copy()
                    dvm2[col - n] -= eps
                    dn = StateVector("polar", view.bus_ids, dvm2, dva)
                fd = (h_eval(view, view.polar(up), owned) - h_eval(view, view.polar(dn), owned)) / (2 * eps)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(jac[:, col] - fd).max() < 1e-6 * scale


def test_rect_jacobian_selector_and_current_rows(net30, part30):
    view = ModelView.for_area(net30, part30, 1)
    n = view.n_bus
    specs = (
        Measurement(0, "pmu_vr", 0.0, 1.0, bus=4),
        Measurement(1, "pmu_vi", 0.0, 1.0, bus=4),
        Measurement(2, "pmu_ir", 0.0, 1.0, branch=(4, 6), side="from"),
        Measurement(3, "pmu_ii", 0.0, 1.0, branch=(4, 6), side="from"),
    )
    h = jacobian_rect(view, specs)
    k = view.pos[4]
    row = np.zeros(2 * n)
    row[k] = 1.0
    assert np.array_equal(h[0], row)
    row = np.zeros(2 * n)
    row[n + k] = 1.0
    assert np.array_equal(h[1], row)
    # current rows carry the branch admittances
    br = net30.branch(4, 6)
    yff, yft, _, _ = br.admittances()
    j = view.pos[6]
    assert abs(h[2, k] - yff.real) < 1e-15 and abs(h[2, j] - yft.real) < 1e-15
    assert abs(h[2, n + k] + yff.imag) < 1e-15
    assert abs(h[3, k] - yff.imag) < 1e-15 and abs(h[3, n + j] - yft.real) < 1e-15
    with pytest.raises(ValidationError):
        jacobian_rect(view, (Measurement(0, "p_inj", 0.0, 1.0, bus=4),))


def test_untouched_bus_has_zero_column(net30, part30):
    view = ModelView.for_area(net30, part30, 1)
    specs = (Measurement(0, "p_flow", 0.0, 1.0, branch=(1, 2)),)
    st = flat_state(view.bus_ids)
    jac = jacobian_polar(view, view.polar(st), specs)
    n = view.n_bus
    col = view.pos[7]  # bus 7 not on branch 1-2
    assert np.all(jac[:, col] == 0.0) and np.all(jac[:, n + col] == 0.0)


def test_synthesis_reproducible_and_exact_at_zero_sigma(view30, truth30, specs30, cfg30):
    a = synthesize(view30, truth30, specs30, cfg30.sigma_for, np.random.default_rng(5))
    b = synthesize(view30, truth30, specs30, cfg30.sigma_for, np.random.default_rng(5))
    assert np.array_equal(a.z, b.z)
    c = synthesize(view30, truth30, specs30, cfg30.sigma_for, np.random.default_rng(6))
    assert not np.array_equal(a.z, c.z)
    exact = synth_zero(view30, truth30, specs30)
    assert np.abs(exact.z - h_eval(view30, view30.polar(truth30), specs30)).max() == 0.0


def test_plan_counts_match_paper_table(net30, part30, plan30, specs30):
    from gridstate.netmodel import boundary_measurement_ownership

    scada = [m for m in specs30 if m.kind in ("p_inj", "q_inj", "p_flow", "q_flow")]
    owned = boundary_measurement_ownership(part30, scada)
    by_id = {m.id: m for m in scada}
    counts = {}
    for area, ids in owned.items():
        inj = sum(1 for i in ids if by_id[i].kind == "p_inj")
        flow = sum(1 for i in ids if by_id[i].kind == "p_flow")
        counts[area] = (inj, flow)
    assert counts == {1: (3, 15), 2: (5, 21), 3: (3, 12)}


def test_pmu_plan_expansion(net30, plan30, specs30):
    # a PMU contributes the bus phasor plus current phasors of every
    # incident branch
    pmu4 = [m for m in specs30 if m.kind.startswith("pmu") and (m.bus == 4 or (m.branch and 4 in m.branch))]
    incident = [br for br in net30.branches if 4 in (br.f, br.t)]
    vr = [m for m in pmu4 if m.kind == "pmu_vr"]
    ir = [m for m in pmu4 if m.kind == "pmu_ir"]
    assert len(vr) == 1 and len(ir) == len(incident)
    assert all(m.metered_bus() == 4 for m in pmu4)


def test_polar_rect_round_trip():
    st = StateVector("polar", (1, 2), np.array([1.0, 1.0]), np.array([0.0, np.pi / 2]))
    rect, _ = polar_to_rect(st)
    assert np.allclose(rect.v1, [1.0, 0.0], atol=1e-15)
    assert np.allclose(rect.v2, [0.0, 1.0], atol=1e-15)
    rng = np.random.default_rng(3)
    vm = 0.9 + 0.2 * rng.random(6)
    va = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 6)
    st = StateVector("polar", tuple(range(6)), vm, va)
    back, _ = rect_to_polar(polar_to_rect(st)[0])
    assert np.abs(back.v1 - vm).max() < 1e-12
    assert np.abs(wrap_angle(back.v2 - va)).max() < 1e-12


def test_covariance_transport_matches_monte_carlo():
    rng = np.random.default_rng(12)
    n = 3
    vm0 = np.array([1.0, 0.98, 1.05])
    va0 = np.array([0.0, -0.2, 0.15])
    a = rng.standard_normal((2 * n, 2 * n)) * 0.01
    cov = a @ a.T + 1e-6 * np.eye(2 * n)  # over [va; vm]
    st = StateVector("polar", (1, 2, 3), vm0, va0)
    _, cov_rect = polar_to_rect(st, cov)

    samples = rng.multivariate_normal(np.concatenate([va0, vm0]), cov, size=100000)
    vr = samples[:, n:] * np.cos(samples[:, :n])
    vi = samples[:, n:] * np.sin(samples[:, :n])
    emp = np.cov(np.hstack([vr, vi]).T)
    scale = np.abs(np.diag(cov_rect)).max()
    assert np.abs(emp - cov_rect).max() < 0.05 * scale


def test_rect_to_polar_covariance_inverts_transport():
    rng = np.random.default_rng(7)
    n = 4
    vm0 = 1.0 + 0.05 * rng.random(n)
    va0 = 0.2 * rng.standard_normal(n)
    a = rng.standard_normal((2 * n, 2 * n)) * 0.005
    cov = a @ a.T + 1e-8 * np.eye(2 * n)
    st = StateVector("polar", tuple(range(n)), vm0, va0)
    rect, cov_rect = polar_to_rect(st, cov)
    _, cov_back = rect_to_polar(rect, cov_rect)
    assert np.abs(cov_back - cov).max() < 1e-12


def test_measurement_validation():
    with pytest.raises(ValidationError):
        Measurement(0, "p_flow", 0.0, 1.0, bus=1)  # flow needs branch
    with pytest.raises(ValidationError):
        Measurement(0, "p_inj", 0.0, 0.0, bus=1)  # sigma > 0
    with pytest.raises(ValidationError):
        Measurement(0, "zeta", 0.0, 1.0, bus=1)
    m = Measurement(0, "q_flow", 0.0, 1.0, branch=(1, 2), side="to")
    assert m.metered_bus() == 2


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sigma_rejected(sigma):
    with pytest.raises(ValidationError):
        Measurement(0, "p_inj", 0.0, sigma, bus=1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_value_rejected(value):
    with pytest.raises(ValidationError, match="value must be finite"):
        Measurement(0, "p_inj", value, 1.0, bus=1)
    mset = MeasurementSet((Measurement(0, "p_inj", 0.0, 1.0, bus=1),))
    with pytest.raises(ValidationError, match="value must be finite"):
        mset.with_values([value])


def test_injection_needs_full_neighborhood(net30, part30, truth30):
    view = ModelView.for_area(net30, part30, 1)
    bad = (Measurement(0, "p_inj", 0.0, 1.0, bus=9),)  # external bus
    with pytest.raises(ValidationError):
        h_eval(view, view.polar(truth30.subset(view.bus_ids)), bad)


def test_wrap_angle():
    assert abs(wrap_angle(np.pi - 0.01 - (-np.pi + 0.01)) + 0.02) < 1e-15
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert abs(wrap_angle(0.3) - 0.3) < 1e-15


# ---------------------------------------------------------------------------
# compiled measurement model


def _evaluable(view, specs):
    return [
        m
        for m in specs
        if all(b in view.pos for b in (m.branch or (m.bus,)))
        and (m.kind not in ("p_inj", "q_inj") or m.bus in view.injection_ok)
    ]


def _random_state(view, rng):
    n = view.n_bus
    vm = 1.0 + 0.05 * rng.standard_normal(n)
    return StateVector("polar", view.bus_ids, vm, 0.2 * rng.standard_normal(n))


def _all_views(net30, part30):
    return [ModelView.full(net30)] + [ModelView.for_area(net30, part30, i) for i in (1, 2, 3)]


def test_rows_follow_spec_permutation(net30, part30, specs30):
    rng = np.random.default_rng(21)
    for view in _all_views(net30, part30):
        owned = _evaluable(view, specs30)
        lists = [owned] + [[m for m in owned if m.kind == k] for k in ALL_KINDS]
        st = view.polar(_random_state(view, rng))
        for specs in lists:
            if not specs:
                continue
            perm = rng.permutation(len(specs))
            shuffled = [specs[k] for k in perm]
            fresh = ModelView(net30, view.bus_ids, view.ref_bus)
            np.testing.assert_allclose(
                h_eval(fresh, st, shuffled), h_eval(view, st, specs)[perm], rtol=1e-13, atol=1e-15
            )
            np.testing.assert_allclose(
                jacobian_polar(fresh, st, shuffled),
                jacobian_polar(view, st, specs)[perm],
                rtol=1e-13,
                atol=1e-15,
            )


def _central_differences(f, x, eps=1e-6):
    cols = []
    for k in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[k] += eps
        dn[k] -= eps
        cols.append((f(up) - f(dn)) / (2 * eps))
    return np.column_stack(cols)


def _generated_state(data, view):
    """(vm, va) drawn over the view's buses: vm in [0.9, 1.1], va in [-0.3, 0.3]."""
    n = view.n_bus
    vm = data.draw(arrays(np.float64, n, elements=st.floats(0.9, 1.1)))
    va = data.draw(arrays(np.float64, n, elements=st.floats(-0.3, 0.3)))
    return vm, va


def _full_or_area_view(net30, part30, area):
    return ModelView.full(net30) if area is None else ModelView.for_area(net30, part30, area)


@settings(max_examples=20, deadline=None)
@given(area=st.sampled_from([None, 2]), data=st.data())
def test_polar_jacobian_matches_central_differences_at_generated_states(net30, part30, specs30, area, data):
    view = _full_or_area_view(net30, part30, area)
    specs = _evaluable(view, specs30)
    vm, va = _generated_state(data, view)
    n = view.n_bus

    def h(x):  # x over [va; vm]
        return h_eval(view, (x[n:], x[:n]), specs)

    fd = _central_differences(h, np.concatenate([va, vm]))
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(jacobian_polar(view, (vm, va), specs) - fd).max() < 1e-6 * scale


@settings(max_examples=20, deadline=None)
@given(area=st.sampled_from([None, 2]), data=st.data())
def test_rect_jacobian_matches_central_differences_at_generated_states(net30, part30, specs30, area, data):
    view = _full_or_area_view(net30, part30, area)
    specs = [m for m in _evaluable(view, specs30) if m.kind in PMU_KINDS]
    vm, va = _generated_state(data, view)
    n = view.n_bus

    def h(x):  # x over [vr; vi]
        vr, vi = x[:n], x[n:]
        return h_eval(view, (np.hypot(vr, vi), np.arctan2(vi, vr)), specs)

    fd = _central_differences(h, np.concatenate([vm * np.cos(va), vm * np.sin(va)]))
    assert np.abs(jacobian_rect(view, specs) - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_alternating_spec_lists_match_fresh_views(net30, part30, specs30):
    view = ModelView.for_area(net30, part30, 1)
    owned = _evaluable(view, specs30)
    a = tuple(m for m in owned if not m.kind.startswith("pmu"))
    b = tuple(m for m in owned if m.kind.startswith("pmu"))
    st = view.polar(_random_state(view, np.random.default_rng(8)))

    def fresh():
        return ModelView(net30, view.bus_ids, view.ref_bus)

    for specs in (a, b, a):
        assert np.array_equal(h_eval(view, st, specs), h_eval(fresh(), st, specs))
        assert np.array_equal(jacobian_polar(view, st, specs), jacobian_polar(fresh(), st, specs))

    # a list mutated in place between calls is compiled again
    specs = list(a)
    h_eval(view, st, specs)
    specs.reverse()
    specs.append(b[0])
    assert np.array_equal(h_eval(view, st, specs), h_eval(fresh(), st, specs))
    assert np.array_equal(jacobian_polar(view, st, specs), jacobian_polar(fresh(), st, specs))


def test_view_keeps_one_compiled_form(net30, part30, specs30):
    view = ModelView.for_area(net30, part30, 3)
    owned = _evaluable(view, specs30)
    a, b = tuple(owned[:10]), tuple(owned[10:])
    ca = view.compile(a)
    assert view.compile(a) is ca
    assert view.compile(list(a)) is ca  # an equal list hits
    cb = view.compile(b)
    assert view.compile(b) is cb
    assert view.compile(a) is not ca  # b evicted a


def test_compile_rejects_rows_outside_the_view(net30, part30):
    view = ModelView.for_area(net30, part30, 1)
    outside = [b for b in net30.bus_ids if b not in view.pos][0]
    for bad in (
        Measurement(0, "pmu_vr", 0.0, 1.0, bus=outside),
        Measurement(0, "p_flow", 0.0, 1.0, branch=(1, 30)),  # no such branch
    ):
        with pytest.raises(ValidationError):
            view.compile((bad,))
    good = (Measurement(0, "pmu_vr", 0.0, 1.0, bus=4),)
    kept = view.compile(good)
    with pytest.raises(ValidationError):
        view.compile((Measurement(0, "p_inj", 0.0, 1.0, bus=9),))
    assert view.compile(good) is kept  # a failed compile leaves the cache alone


def _branch_ends(view, m):
    br = view.net.branch(*m.branch)
    yff, yft, ytf, ytt = br.admittances()
    i, j = view.pos[br.f], view.pos[br.t]
    return (i, j, yff, yft) if m.side == "from" else (j, i, ytt, ytf)


def _reference_h_and_jacobian(view, state, specs):
    """Row-by-row h(x) and H over [va (all); vm (all)], written directly
    from the measurement equations; the oracle for the compiled model."""
    vm, va = state.v1, state.v2
    n = view.n_bus
    g, b = view.adm.g, view.adm.b
    v = vm * np.exp(1j * va)
    s_inj = v * np.conj(view.adm.y @ v)
    h = np.empty(len(specs))
    jac = np.zeros((len(specs), 2 * n))
    d_va, d_vm = jac[:, :n], jac[:, n:]
    for r, m in enumerate(specs):
        if m.kind in ("p_inj", "q_inj"):
            i = view.pos[m.bus]
            p, q = s_inj[i].real, s_inj[i].imag
            a_row = g[i] * np.cos(va[i] - va) + b[i] * np.sin(va[i] - va)
            c_row = g[i] * np.sin(va[i] - va) - b[i] * np.cos(va[i] - va)
            if m.kind == "p_inj":
                h[r] = p
                d_va[r], d_vm[r] = vm[i] * vm * c_row, vm[i] * a_row
                d_va[r, i] = -q - b[i, i] * vm[i] ** 2
                d_vm[r, i] = p / vm[i] + g[i, i] * vm[i]
            else:
                h[r] = q
                d_va[r], d_vm[r] = -vm[i] * vm * a_row, vm[i] * c_row
                d_va[r, i] = p - g[i, i] * vm[i] ** 2
                d_vm[r, i] = q / vm[i] - b[i, i] * vm[i]
        elif m.kind in ("pmu_vr", "pmu_vi"):
            k = view.pos[m.bus]
            c, s = np.cos(va[k]), np.sin(va[k])
            if m.kind == "pmu_vr":
                h[r], d_vm[r, k], d_va[r, k] = vm[k] * c, c, -vm[k] * s
            else:
                h[r], d_vm[r, k], d_va[r, k] = vm[k] * s, s, vm[k] * c
        else:
            i, j, ymm, ymf = _branch_ends(view, m)
            cur = ymm * v[i] + ymf * v[j]
            # dI/dvm_k = y e^{j va_k}, dI/dva_k = j y v_k
            di_dvm = {i: ymm * np.exp(1j * va[i]), j: ymf * np.exp(1j * va[j])}
            di_dva = {i: 1j * ymm * v[i], j: 1j * ymf * v[j]}
            if m.kind in ("pmu_ir", "pmu_ii"):
                part = np.real if m.kind == "pmu_ir" else np.imag
                h[r] = part(cur)
                for k in (i, j):
                    d_vm[r, k], d_va[r, k] = part(di_dvm[k]), part(di_dva[k])
            else:
                # S = v_i conj(I), so dS = dv_i conj(I) + v_i conj(dI)
                part = np.real if m.kind == "p_flow" else np.imag
                h[r] = part(v[i] * np.conj(cur))
                for k in (i, j):
                    dv_vm, dv_va = (np.exp(1j * va[i]), 1j * v[i]) if k == i else (0.0, 0.0)
                    d_vm[r, k] = part(dv_vm * np.conj(cur) + v[i] * np.conj(di_dvm[k]))
                    d_va[r, k] = part(dv_va * np.conj(cur) + v[i] * np.conj(di_dva[k]))
    return h, jac


def test_compiled_model_matches_row_by_row_reference(net30, part30, specs30):
    rng = np.random.default_rng(13)
    for view in _all_views(net30, part30):
        specs = _evaluable(view, specs30)
        for _ in range(3):
            st = _random_state(view, rng)
            h_ref, jac_ref = _reference_h_and_jacobian(view, st, specs)
            np.testing.assert_allclose(h_eval(view, view.polar(st), specs), h_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                jacobian_polar(view, view.polar(st), specs), jac_ref, rtol=1e-12, atol=1e-12
            )


FAMILIES = {"injection": INJECTION_KINDS, "voltage": PMU_VOLTAGE_KINDS, "flow": FLOW_KINDS,
            "current": PMU_CURRENT_KINDS}


@settings(max_examples=30, deadline=None)
@given(area=st.sampled_from([None, 1, 2, 3]), keep=st.sets(st.sampled_from(sorted(FAMILIES))),
       data=st.data())
def test_absent_families_change_no_value(net30, part30, specs30, area, keep, data):
    """A spec list without some measurement families evaluates only the
    families it has, with the same per-entry arithmetic: h is the full
    list's rows bit for bit (the row-by-row reference rounds the flows'
    and currents' complex products differently, so it is held to 1e-12),
    and H and its nonzero values equal the dense reference bit for bit."""
    view = _full_or_area_view(net30, part30, area)
    every = _evaluable(view, specs30)
    rows = [k for k, m in enumerate(every) if any(m.kind in FAMILIES[f] for f in keep)]
    specs = [every[k] for k in rows]
    vm, va = _generated_state(data, view)
    state = StateVector("polar", view.bus_ids, vm, va)
    h = h_eval(view, (vm, va), specs)
    assert np.array_equal(h, h_eval(view, (vm, va), every)[rows])
    h_ref, _ = _reference_h_and_jacobian(view, state, specs)
    np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-12)
    jac = jacobian_polar(view, (vm, va), specs)
    assert np.array_equal(jac, jacobian_polar_dense(view, (vm, va), specs))
    values = jacobian_polar(view, (vm, va), specs, dense=False)
    assert np.array_equal(values, np.ravel(jac, order="F")[view.compile(specs).jac_at])
