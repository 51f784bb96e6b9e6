import numpy as np
import pytest

from gridstate.errors import UnobservableError, ValidationError
from gridstate.measurement import Measurement, MeasurementSet, ModelView
from gridstate.multiarea import _pmu_ref_anchor, split_measurements
from gridstate.powerflow import StateVector
from gridstate.wls import PolarModel, check_observable, objective, wls_estimate
from tests.conftest import synth_zero


def _area_problem(net30, part30, specs30, truth30, area_idx, rng=None, cfg=None):
    """Noise-free (or noisy) TSE problem for one area of the fixture."""
    from gridstate.measurement import synthesize

    view = ModelView.for_area(net30, part30, area_idx)
    if rng is None:
        mset = synth_zero(ModelView.full(net30), truth30, specs30)
    else:
        mset = synthesize(ModelView.full(net30), truth30, specs30, cfg.sigma_for, rng)
    scada, pmu = split_measurements(part30, mset)
    anchor = _pmu_ref_anchor(pmu[area_idx], part30.areas[area_idx - 1].ref_bus)
    tse_set = MeasurementSet(tuple(scada[area_idx]) + anchor)
    model = PolarModel(view, tuple(tse_set), pin_angle=not anchor)
    return view, tse_set, model


def test_noiseless_recovery_all_areas(net30, part30, specs30, truth30):
    for i in (1, 2, 3):
        view, mset, model = _area_problem(net30, part30, specs30, truth30, i)
        res = wls_estimate(mset, model, tol=1e-8, k_limit=30)
        assert res.converged
        x_true = model.pack(truth30.subset(view.bus_ids))
        assert np.abs(model.pack(res.state) - x_true).max() < 1e-6


class _LinearModel:
    """Identity-observation linear model mimicking the PolarModel surface."""

    def __init__(self, a, c, bus_ids):
        self.a = a
        self.c = c
        self.bus_ids = bus_ids
        self.specs = tuple(range(a.shape[0]))
        self.n_state = a.shape[1]

    def flat(self):
        x = np.zeros(self.n_state)
        x[self.n_state // 2 :] = 1.0
        return x

    def h(self, x):
        return self.a @ x + self.c

    def jac(self, x):
        return self.a

    def unpack(self, x):
        n = self.n_state // 2
        return StateVector("polar", self.bus_ids, x[n:], x[:n])


def test_linear_model_one_step_exact():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((9, 4))
    c = rng.standard_normal(9)
    model = _LinearModel(a, c, (1, 2))
    sigmas = rng.uniform(0.5, 2.0, 9)
    x_target = np.array([0.1, -0.2, 1.0, 1.1])
    z = a @ x_target + c + 0.05 * rng.standard_normal(9)
    mset = MeasurementSet(
        tuple(
            Measurement(k, "pmu_vr", float(z[k]), float(sigmas[k]), bus=1)
            for k in range(9)
        )
    )
    res = wls_estimate(mset, model, tol=1e-10, k_limit=10)
    w_inv = np.diag(1.0 / sigmas**2)
    x_ls = np.linalg.solve(a.T @ w_inv @ a, a.T @ w_inv @ (z - c))
    # Gauss-Newton reaches the exact LS solution in one step, plus the
    # convergence-confirming step
    assert res.converged and res.iterations == 2
    got = np.concatenate([res.state.v2, res.state.v1])
    assert np.abs(got - x_ls).max() < 1e-10


def test_area2_converges_quickly_under_noise(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(123)
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 2, rng, cfg30)
    res = wls_estimate(mset, model, tol=1e-6, k_limit=20)
    assert res.converged and res.iterations <= 10


def test_objective_examples(net30, part30, specs30, truth30):
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    truth_sub = truth30.subset(view.bus_ids)
    assert objective(mset, model, truth_sub) < 1e-20

    # scaling all sigmas by c multiplies J by 1/c^2
    state = StateVector("polar", view.bus_ids, truth_sub.v1 * 1.01, truth_sub.v2)
    j1 = objective(mset, model, state)
    from dataclasses import replace

    scaled = MeasurementSet(tuple(replace(m, sigma=m.sigma * 2.0) for m in mset))
    assert objective(scaled, model, state) == pytest.approx(j1 / 4.0, rel=1e-12)

    # naive triple-loop oracle
    z = mset.z
    h = model.h(model.pack(state))
    w_inv = np.diag(1.0 / mset.sigmas**2)
    naive = 0.0
    for i in range(len(z)):
        for j in range(len(z)):
            naive += (z[i] - h[i]) * w_inv[i, j] * (z[j] - h[j])
    assert j1 == pytest.approx(naive, rel=1e-12)


def test_covariance_is_inverse_gain(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(9)
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 1, rng, cfg30)
    res = wls_estimate(mset, model, tol=1e-9, k_limit=30)
    h = model.jac(model.pack(res.state))
    w_inv = np.diag(1.0 / mset.sigmas**2)
    gain = h.T @ w_inv @ h
    oracle = np.linalg.solve(gain, np.eye(model.n_state))
    scale = np.abs(oracle).max()
    assert np.abs(res.covariance - oracle).max() < 1e-10 * scale
    # symmetric positive definite
    assert np.abs(res.covariance - res.covariance.T).max() < 1e-12 * scale
    assert np.linalg.eigvalsh(res.covariance).min() > 0.0


def test_measurement_order_invariance(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(77)
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 3, rng, cfg30)
    res = wls_estimate(mset, model, tol=1e-9, k_limit=30)

    perm = np.random.default_rng(1).permutation(len(mset))
    mset_p = MeasurementSet(tuple(mset.items[k] for k in perm))
    model_p = PolarModel(view, tuple(mset_p), pin_angle=model.pin_angle)
    res_p = wls_estimate(mset_p, model_p, tol=1e-9, k_limit=30)
    assert np.abs(model.pack(res.state) - model_p.pack(res_p.state)).max() < 1e-9


def test_first_order_condition(net30, part30, specs30, truth30, cfg30):
    # gradient at the converged estimate vanishes relative to the size of
    # its own constituent terms (the weights reach 1e6, so z-norm scaling
    # would demand more than float64 can certify)
    rng = np.random.default_rng(31)
    for i in (1, 2, 3):
        view, mset, model = _area_problem(net30, part30, specs30, truth30, i, rng, cfg30)
        res = wls_estimate(mset, model, tol=1e-12, k_limit=40)
        x = model.pack(res.state)
        h = model.jac(x)
        w_inv = np.diag(1.0 / mset.sigmas**2)
        grad = h.T @ w_inv @ (mset.z - model.h(x))
        scale = np.linalg.norm(h.T @ w_inv @ mset.z)
        assert np.linalg.norm(grad) < 1e-6 * scale


def test_unobservable_raises(net30, part30, truth30):
    view = ModelView.for_area(net30, part30, 1)
    # a single flow pair cannot determine 23+ states
    specs = (
        Measurement(0, "p_flow", 0.1, 0.01, branch=(1, 2)),
        Measurement(1, "q_flow", 0.0, 0.01, branch=(1, 2)),
    )
    model = PolarModel(view, specs)
    assert not check_observable(model)
    with pytest.raises(UnobservableError):
        wls_estimate(MeasurementSet(specs), model)


def test_nonconvergence_flagged_not_raised(net30, part30, specs30, truth30, cfg30):
    rng = np.random.default_rng(5)
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 2, rng, cfg30)
    res = wls_estimate(mset, model, tol=1e-14, k_limit=2)
    assert not res.converged and res.iterations == 2


def test_argument_checks(net30, part30, specs30, truth30):
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    with pytest.raises(ValidationError):
        wls_estimate(mset, model, tol=0.0)
    with pytest.raises(ValidationError):
        wls_estimate(MeasurementSet(mset.items[:3]), model)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_non_finite_tolerance_rejected(net30, part30, specs30, truth30, tol):
    view, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    with pytest.raises(ValidationError, match="positive and finite"):
        wls_estimate(mset, model, tol=tol)


def test_one_h_evaluation_per_iteration(net30, part30, specs30, truth30, cfg30, monkeypatch):
    # bundled experiment, trial 0 at seed 0, area 1 (as cli.synth_for_trial)
    from gridstate import wls
    from gridstate.measurement import synthesize

    rng = np.random.default_rng([0, 0])
    mset = synthesize(ModelView.full(net30), truth30, specs30, cfg30.sigma_for, rng)
    scada, pmu = split_measurements(part30, mset)
    anchor = _pmu_ref_anchor(pmu[1], part30.areas[0].ref_bus)
    tse_set = MeasurementSet(tuple(scada[1]) + anchor)
    model = PolarModel(ModelView.for_area(net30, part30, 1), tuple(tse_set), pin_angle=not anchor)

    calls = []
    h_eval = wls.h_eval

    def counted(*args):
        calls.append(1)
        return h_eval(*args)

    monkeypatch.setattr(wls, "h_eval", counted)
    res = wls_estimate(tse_set, model, tol=cfg30.epsilon, k_limit=cfg30.k_limit)
    assert res.converged
    # the start point plus one trial step per iteration, no damping here
    assert (len(calls), res.iterations) == (6, 5)
    assert len(calls) < 2 * res.iterations


class _DomainModel(_LinearModel):
    """Linear model whose h leaves the state domain anywhere but at x0."""

    def __init__(self, a, c, bus_ids, x0):
        super().__init__(a, c, bus_ids)
        self.x0 = x0

    def flat(self):
        return self.x0.copy()

    def h(self, x):
        if not np.array_equal(x, self.x0):
            raise ValidationError("polar state requires positive magnitudes")
        return super().h(x)


def test_accepted_step_outside_domain_raises():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    model = _DomainModel(a, np.zeros(6), (1, 2), np.array([0.0, 0.0, 1.0, 1.0]))
    mset = MeasurementSet(
        tuple(Measurement(k, "pmu_vr", float(rng.standard_normal()), 1.0, bus=1) for k in range(6))
    )
    with pytest.raises(ValidationError, match="positive magnitudes"):
        wls_estimate(mset, model)
