import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from gridstate import wls
from gridstate.errors import NumericalError, UnobservableError, ValidationError
from gridstate.measurement import Measurement, MeasurementSet, ModelView
from gridstate.multiarea import _pmu_ref_anchor, split_measurements
from gridstate.powerflow import StateVector
from gridstate.wls import PolarModel, check_observable, whitener, wls_estimate
from tests.conftest import synth_zero
from tests.test_kernels import _count_calls
from tests.oracles import DenseNormal, objective, polar_h


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
    """Identity-observation linear model with the surface
    ``wls.gauss_newton`` steps: a batch of one whose state domain is
    everywhere."""

    def __init__(self, a, c, bus_ids):
        self.a = a
        self.c = c
        self.bus_ids = bus_ids
        self.n_state = a.shape[1]
        self.parts = ((slice(None), slice(None)),)

    def flat(self):
        x = np.zeros(self.n_state)
        x[self.n_state // 2 :] = 1.0
        return x

    def h(self, x):
        return self.a @ x + self.c

    def outside(self, x):
        return np.array([False])

    def jac(self, x):
        return self.a

    def state(self, x):
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
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    ((x, _, iterations, converged, _, _),) = wls.gauss_newton(
        model, mset.z, whiten, model.flat(), 1e-10, 10, DenseNormal(model.jac, whiten))
    w_inv = np.diag(1.0 / sigmas**2)
    x_ls = np.linalg.solve(a.T @ w_inv @ a, a.T @ w_inv @ (z - c))
    # Gauss-Newton reaches the exact LS solution in one step, plus the
    # convergence-confirming step
    assert converged and iterations == 2
    state = model.state(x)
    got = np.concatenate([state.v2, state.v1])
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
    h = polar_h(model, model.pack(state))
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
        grad = h.T @ w_inv @ (mset.z - polar_h(model, x))
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


@pytest.mark.parametrize("k_limit", [0, -1, 2.5, True])
def test_iteration_limit_must_be_a_positive_integer(net30, part30, specs30, truth30, monkeypatch, k_limit):
    _, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    calls = _count_calls(monkeypatch, wls, "h_eval")
    with pytest.raises(ValidationError, match="iteration limit must be an integer of at least 1"):
        wls_estimate(mset, model, k_limit=k_limit)
    with pytest.raises(ValidationError, match="iteration limit must be an integer of at least 1"):
        wls_estimate([mset], wls.PolarBatch([model]), k_limit=k_limit)
    assert not calls
    assert wls_estimate(mset, model, k_limit=np.int64(1)).iterations == 1


def test_call_forms_must_not_be_mixed(net30, part30, specs30, truth30, monkeypatch):
    """A list of sets over a PolarModel, or one set over a PolarBatch, is
    rejected before any work."""
    _, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    batch = wls.PolarBatch([model])
    calls = [_count_calls(monkeypatch, wls, name) for name in ("h_eval", "StackedView")]
    message = "one measurement set takes a PolarModel, a list of sets a PolarBatch"
    with pytest.raises(ValidationError, match=message):
        wls_estimate([mset], model)
    with pytest.raises(ValidationError, match=message):
        wls_estimate(mset, batch)
    assert calls == [[], []]


def test_solved_models_are_freed_without_the_cycle_collector(net30, part30, specs30, truth30):
    """Neither a model nor a batch refers to itself, so the models of a
    structure rebuilt every trial go as soon as it does."""
    _, mset, model = _area_problem(net30, part30, specs30, truth30, 1)
    batch = wls.PolarBatch([model, PolarModel(model.view, model.specs, model.pin_angle)])
    wls_estimate(mset, model)
    wls_estimate([mset, mset], batch)
    gone = [weakref.ref(model), weakref.ref(batch)]
    gc.disable()
    try:
        del model, batch
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


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


def test_a_rise_of_j_by_rounding_takes_no_marquardt_step(monkeypatch):
    """Started at its least-squares solution, a linear model's Gauss-Newton
    step is rounding, and so is any rise of J it brings: the full step is
    taken with no Marquardt trial, so h runs twice (the start and the
    step).  Some of these seeds do raise J by rounding."""
    damped = _count_calls(monkeypatch, wls, "_damped")
    rises = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((9, 4))
        model = _LinearModel(a, rng.standard_normal(9), (1, 2))
        sigmas = rng.uniform(0.5, 2.0, 9)
        z = rng.standard_normal(9)
        whiten = whitener([sigmas**2], "measurement variances are not positive")
        x0 = np.linalg.lstsq(a / sigmas[:, None], (z - model.c) / sigmas, rcond=None)[0]
        evaluated = []

        def h(x, linear=model.h):
            evaluated.append(linear(x))
            return evaluated[-1]

        model.h = h
        ((_, _, iterations, converged, _, _),) = wls.gauss_newton(
            model, z, whiten, x0, 1e-10, 10, DenseNormal(model.jac, whiten))
        assert converged and iterations == 1
        assert len(evaluated) == 2 and not damped
        j_start, j_step = (float(np.sum(whiten(z - v) ** 2)) for v in evaluated)
        assert j_step <= j_start * (1 + 1e-12)
        rises += j_step > j_start
    assert rises > 0


class _DomainModel(_LinearModel):
    """Linear model whose state domain is x0 alone."""

    def __init__(self, a, c, bus_ids, x0):
        super().__init__(a, c, bus_ids)
        self.x0 = x0

    def flat(self):
        return self.x0.copy()

    def outside(self, x):
        return np.array([not np.array_equal(x, self.x0)])


def test_accepted_step_outside_domain_raises():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    model = _DomainModel(a, np.zeros(6), (1, 2), np.array([0.0, 0.0, 1.0, 1.0]))
    mset = MeasurementSet(
        tuple(Measurement(k, "pmu_vr", float(rng.standard_normal()), 1.0, bus=1) for k in range(6))
    )
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    (out,) = wls.gauss_newton(model, mset.z, whiten, model.flat(), 1e-6, 20, DenseNormal(model.jac, whiten))
    with pytest.raises(ValidationError, match="positive magnitudes"):
        raise out


def _weight_parts(layout, seed):
    """W's diagonal blocks for a drawn layout: variance runs (1-D) and SPD
    blocks (2-D) whose scales span six decades."""
    rng = np.random.default_rng(seed)
    parts = []
    for dense, k in layout:
        evals = 10.0 ** rng.uniform(-6.0, 0.0, k)
        if dense:
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            parts.append((q * evals) @ q.T)
        else:
            parts.append(evals)
    return parts


_layouts = st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(layout=_layouts, seed=st.integers(0, 2**32 - 1))
def test_whitener_is_inverse_root_of_block_diagonal_w(layout, seed):
    parts = _weight_parts(layout, seed)
    w = block_diag(*(np.diag(p) if p.ndim == 1 else p for p in parts))
    m = w.shape[0]
    whiten = whitener(parts, "not positive definite")
    root = whiten(np.eye(m))
    # W^-1 = root' root, checked through W so every block keeps its own scale
    assert np.abs(root.T @ root @ w - np.eye(m)).max() <= 1e-9
    a = np.random.default_rng(seed).standard_normal((m, 3))
    assert np.allclose(whiten(a), root @ a, rtol=1e-12, atol=1e-12 * np.abs(root).max())
    assert np.allclose(whiten(a[:, 0]), root @ a[:, 0], rtol=1e-12, atol=1e-12 * np.abs(root).max())
    assert whiten(np.asfortranarray(a)).flags.f_contiguous
    assert whiten(np.ascontiguousarray(a)).flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(sigmas=st.lists(st.tuples(st.floats(1e-3, 1e-2), st.booleans()), min_size=1, max_size=40))
def test_whitener_of_variances_is_one_over_sigma_bit_for_bit(sigmas):
    # sigmas over the bundled config's range (sigma_pmu to sigma_injection),
    # some scaled as the TSE's reference-angle anchor rows are: wls_estimate
    # weighs its rows by 1 / sigma, whose values the whitener of sigma^2 has
    from gridstate.multiarea import ANCHOR_SIGMA_FACTOR

    sigma = np.array([s * (ANCHOR_SIGMA_FACTOR if anchored else 1.0) for s, anchored in sigmas])
    got = whitener([sigma**2], "measurement variances are not positive")(np.ones(len(sigma)))
    assert np.array_equal(got, 1.0 / sigma)


@settings(max_examples=30, deadline=None)
@given(layout=_layouts, seed=st.integers(0, 2**32 - 1), at=st.integers(0, 5), k=st.integers(1, 4))
def test_whitener_rejects_a_clearly_negative_eigenvalue(layout, seed, at, k):
    parts = _weight_parts(layout, seed)
    scale = max(float(np.linalg.eigvalsh(p)[-1]) if p.ndim == 2 else float(p.max()) for p in parts)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    evals = np.full(k, scale)
    evals[0] = -1e-6 * scale
    parts.insert(min(at, len(parts)), (q * evals) @ q.T)
    with pytest.raises(NumericalError, match="weight block rejected"):
        whitener(parts, "weight block rejected")


@pytest.mark.parametrize("bad", ["short", "long", "all nan", "one inf"])
def test_bad_start_is_rejected_before_any_work(net30, part30, specs30, truth30, monkeypatch, bad):
    _, mset, model = _area_problem(net30, part30, specs30, truth30, 2)
    x0 = model.flat()
    x0 = {"short": x0[:-1], "long": np.append(x0, 1.0), "all nan": np.full_like(x0, np.nan),
          "one inf": np.where(np.arange(len(x0)) == 3, np.inf, x0)}[bad]
    calls = _count_calls(monkeypatch, wls, "h_eval")
    with pytest.raises(ValidationError, match=f"start must hold {model.n_state} finite values"):
        wls_estimate(mset, model, x0=x0)
    assert not calls


def _same_estimate(a, b):
    return (a.iterations == b.iterations and a.converged == b.converged and a.objective == b.objective
            and np.array_equal(a.state.v1, b.state.v1) and np.array_equal(a.state.v2, b.state.v2)
            and np.array_equal(a.covariance, b.covariance) and np.array_equal(a.residuals, b.residuals))


def test_repeat_solve_reuses_the_start_at_the_leaf(net30, part30, specs30, truth30, cfg30, monkeypatch):
    """An IEEE-30 area TSE (at most the kernels' leaf of 64 unknowns) in a
    batch of its own: a repeat solve from the same start and sigmas
    evaluates one h and one H fewer and equals a fresh model's solve bit
    for bit; another sigma recomputes."""
    _, mset, model = _area_problem(net30, part30, specs30, truth30, 1, np.random.default_rng(4), cfg30)
    assert model.n_state <= 64
    batch = wls.PolarBatch([model])
    (first,) = wls_estimate([mset], batch)
    h_calls = _count_calls(monkeypatch, wls, "h_eval")
    jac_calls = _count_calls(monkeypatch, wls, "jacobian_polar")
    (again,) = wls_estimate([mset], batch)
    assert len(h_calls) == len(jac_calls) == again.iterations
    assert _same_estimate(again, first)
    fresh = PolarModel(model.view, model.specs, pin_angle=model.pin_angle)
    assert _same_estimate(again, wls_estimate(mset, fresh))
    sigmas = mset.sigmas.copy()
    sigmas[0] *= 2.0
    other = MeasurementSet(mset.specs, mset.z, sigmas)
    del h_calls[:]
    (got,) = wls_estimate([other], batch)
    assert len(h_calls) == got.iterations + 1
    assert _same_estimate(got, wls_estimate(other, PolarModel(model.view, model.specs, model.pin_angle)))
