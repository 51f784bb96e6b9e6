"""Level 1 in lockstep: the observable areas' traditional estimators run as
one ``wls.PolarBatch`` through one Gauss-Newton loop, and their hybrid
stages as one stacked batch per group of areas of one shape; every member
must come out as it would alone, bit for bit, including where a member
damps its steps, leaves the state domain or fails."""

from dataclasses import replace

import numpy as np
import pytest

from gridstate import hybrid, multiarea, wls
from gridstate.cli import make_delta_sampler, prepare, synth_for_trial
from gridstate.errors import NumericalError, UnobservableError, ValidationError
from gridstate.hybrid import build_hybrid_model
from gridstate.measurement import h_eval, jacobian_polar, rect_to_polar
from gridstate.multiarea import LocalResult, Structure, _split_rows, _tse_inputs, level1_run
from gridstate.netmodel import single_area
from gridstate.wls import (JacobianPattern, PatternNormal, PolarBatch, PolarModel, gauss_newton, whitener,
                           wls_estimate)
from tests.test_kernels import _count_calls, _tiled_workload
from tests.test_wls import _same_estimate


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """experiments(grid, seed, **overrides): the bundled IEEE-30 experiment
    or IEEE-30 tiled twice (6 areas) at a config seed and other config
    overrides."""
    folder = tmp_path_factory.mktemp("lockstep")
    paths = {}
    for role, text in _tiled_workload(2).items():
        paths[role] = str(folder / f"input.{role}")
        with open(paths[role], "w") as fh:
            fh.write(text)

    def make(grid, seed, **overrides):
        overrides["seed"] = seed
        if grid == "ieee30":
            return prepare(config="ieee30.cfg", overrides=overrides)
        return prepare(paths["case"], paths["partition"], paths["plan"], paths["config"], overrides)

    return make


def _level1(exp, trial=0):
    """(structure, its measurement set, the TSE sets and starts level 1 takes)."""
    structure = Structure(exp.net, exp.part, exp.specs)
    mset = synth_for_trial(exp, trial)
    return (structure, mset, *_tse_inputs(structure, mset))


def _alone(exp, sets, starts, models, k_limit=None):
    """Each member solved as a batch of one and as a plain model; the two
    must agree, and the batch of one is returned (or its error)."""
    k_limit = exp.cfg.k_limit if k_limit is None else k_limit
    out = []
    for s, x0, model in zip(sets, starts, models):
        (one,) = wls_estimate([s], PolarBatch([model]), exp.cfg.epsilon, k_limit, [x0])
        try:
            plain = wls_estimate(s, model, exp.cfg.epsilon, k_limit, x0)
        except (NumericalError, ValidationError) as exc:
            plain = exc
        if isinstance(one, Exception):
            assert type(plain) is type(one) and str(plain) == str(one)
        else:
            assert _same_estimate(one, plain)
        out.append(one)
    return out


def _agree(batched, alone):
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert _same_estimate(got, want)


@pytest.mark.parametrize("grid", ["ieee30", "tiled-x2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_member_equals_its_batch_of_one(experiments, grid, seed):
    """State, covariance, iterations, J and residuals of each area are
    those of the area solved alone."""
    exp = experiments(grid, seed)
    structure = Structure(exp.net, exp.part, exp.specs)
    assert len(structure.observable) == (3 if grid == "ieee30" else 6)
    for trial in range(2):
        sets, starts = _tse_inputs(structure, synth_for_trial(exp, trial))
        batched = wls_estimate(sets, structure.tse, exp.cfg.epsilon, exp.cfg.k_limit, starts)
        models = [a.model for a in structure.observable]
        _agree(batched, _alone(exp, sets, starts, models))
        assert all(r.converged for r in batched)


def test_marquardt_fallback_inside_the_batch(experiments, monkeypatch):
    """One area starts at magnitudes of 0.1: its full steps leave the state
    domain or raise J, so it damps inside the batch while the others take
    full steps, and it still ends as it does alone, with as many damped
    solves."""
    exp = experiments("ieee30", 0)
    structure, _, sets, starts = _level1(exp)
    model = structure.observable[1].model
    starts[1][len(model.free_va) :] = 0.1
    damped = _count_calls(monkeypatch, wls, "_damped")
    verdicts = []
    outside = PolarBatch.outside

    def recorded(batch, x):
        verdicts.append(outside(batch, x))
        return verdicts[-1]

    monkeypatch.setattr(PolarBatch, "outside", recorded)
    batched = wls_estimate(sets, structure.tse, exp.cfg.epsilon, exp.cfg.k_limit, starts)
    in_batch = len(damped)
    assert in_batch > 0 and any(v[1] for v in verdicts) and not any(v[0] or v[2] for v in verdicts)
    del damped[:]
    alone = [wls_estimate(s, a.model, exp.cfg.epsilon, exp.cfg.k_limit, x0)
             for s, x0, a in zip(sets, starts, structure.observable)]
    assert len(damped) == in_batch
    _agree(batched, alone)
    assert all(r.converged for r in batched)


def test_a_start_outside_the_domain_fails_its_member_only(experiments):
    exp = experiments("ieee30", 1)
    structure, _, sets, starts = _level1(exp)
    model = structure.observable[1].model
    starts[1][len(model.free_va)] = 0.0
    with pytest.raises(ValidationError, match="polar state requires positive magnitudes"):
        wls_estimate(sets[1], model, exp.cfg.epsilon, exp.cfg.k_limit, starts[1])
    batched = wls_estimate(sets, structure.tse, exp.cfg.epsilon, exp.cfg.k_limit, starts)
    _agree(batched, _alone(exp, sets, starts, [a.model for a in structure.observable]))
    assert str(batched[1]) == "polar state requires positive magnitudes"


def test_a_singular_gain_fails_its_member_only(experiments):
    """An area whose rows leave one magnitude unseen: its gain is singular
    at the start, the batch drops it, the others equal their solo runs."""
    exp = experiments("ieee30", 2)
    structure, _, sets, starts = _level1(exp)
    model = structure.observable[1].model
    h = model.jac(model.flat())
    keep = np.flatnonzero(h[:, len(model.free_va) + 3] == 0.0)
    blind = PolarModel(model.view, [model.specs[k] for k in keep], pin_angle=model.pin_angle)
    sets[1] = sets[1].take(keep)
    models = [structure.observable[0].model, blind, structure.observable[2].model]
    batched = wls_estimate(sets, PolarBatch(models), exp.cfg.epsilon, exp.cfg.k_limit, starts)
    assert isinstance(batched[1], UnobservableError)
    _agree(batched, _alone(exp, sets, starts, models))


@pytest.mark.parametrize("k_limit", [1, 4])
def test_iteration_limit_in_lockstep(experiments, k_limit):
    """At k_limit = 1 every member stops unconverged after one step; at 4
    only area 1, which needs 5 here, does, and areas 2 and 3 converge.
    Each member ends as it does alone, and level 1 reports the areas that
    did not converge, in area order, with the message it always gave."""
    exp = experiments("ieee30", 1)
    structure, mset, sets, starts = _level1(exp)
    full = wls_estimate(sets, structure.tse, exp.cfg.epsilon, exp.cfg.k_limit, starts)
    assert [r.iterations for r in full] == [5, 4, 4]
    batched = wls_estimate(sets, structure.tse, exp.cfg.epsilon, k_limit, starts)
    _agree(batched, _alone(exp, sets, starts, [a.model for a in structure.observable], k_limit=k_limit))
    stopped = [a.area.index for a, r in zip(structure.observable, batched) if not r.converged]
    assert stopped == ([1, 2, 3] if k_limit == 1 else [1])
    assert all(r.iterations == min(k_limit, f.iterations) for r, f in zip(batched, full))
    with pytest.raises(NumericalError) as err:
        level1_run(structure, mset, replace(exp.cfg, k_limit=k_limit))
    assert str(err.value) == "level 1 failed: " + "; ".join(
        f"area {i}: traditional estimator did not converge" for i in stopped)


def test_level1_makes_one_tse_call(experiments, monkeypatch):
    """Per trial, level 1 makes one wls_estimate call for its observable
    areas, with one h and one H evaluation per lockstep step however many
    areas step."""
    from gridstate import multiarea

    exp = experiments("tiled-x2", 0)
    structure, mset, *_ = _level1(exp)
    counts = []
    for _ in range(2):
        calls = _count_calls(monkeypatch, multiarea, "wls_estimate")
        h_calls = _count_calls(monkeypatch, wls, "h_eval")
        jac_calls = _count_calls(monkeypatch, wls, "jacobian_polar")
        locals_ = level1_run(structure, mset, exp.cfg, robust=False)
        counts.append((len(calls), len(h_calls), len(jac_calls)))
        monkeypatch.undo()
    steps = max(lr.tse_iterations for lr in locals_)
    assert sum(lr.tse_iterations for lr in locals_) > 3 * steps
    # the start (remembered on the second run), then one trial per step
    # (no damping here) and one H per step after the first plus the
    # covariances'
    assert counts == [(1, steps + 1, steps + 1), (1, steps, steps)]


class _OwnView:
    """A PolarModel stepped on its own view and its own pattern, nothing
    stacked: what its batch of one must equal bit for bit."""

    def __init__(self, model):
        self.model = model
        self.parts = ((slice(None), slice(None)),)
        col_of = np.full(2 * model.n_bus, -1)
        col_of[model._cols] = np.arange(model.n_state)
        jac_at = model.view.compile(model.specs).jac_at
        self.pattern = JacobianPattern(jac_at, len(model.specs), col_of, model.n_state)

    def h(self, x):
        return h_eval(self.model.view, self.model.unpack(x), self.model.specs)

    def outside(self, x):
        return np.array([np.any(x[self.model._vm] <= 0.0)])

    def jac_values(self, x):
        return jacobian_polar(self.model.view, self.model.unpack(x), self.model.specs, dense=False)


@pytest.mark.parametrize("grid, area", [("ieee30", "central"), ("ieee30", 2), ("tiled-x2", "central")])
def test_a_batch_of_one_equals_its_member_on_its_own_view(experiments, grid, area):
    """h, H's nonzero values and the gain of a batch of one, at its start
    and at points near it, and its estimate, equal those of its member
    evaluated on its own view."""
    exp = experiments(grid, 0)
    part = single_area(exp.net, exp.part.global_ref) if area == "central" else exp.part
    structure = Structure(exp.net, part, exp.specs)
    sets, starts = _tse_inputs(structure, synth_for_trial(exp, 0))
    i = 0 if area == "central" else [a.area.index for a in structure.observable].index(area)
    model, mset, x0 = structure.observable[i].model, sets[i], starts[i]
    batch, own = PolarBatch([model]), _OwnView(model)
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    normal = PatternNormal(own.pattern, own.jac_values, whiten(np.ones(len(mset))))
    rng = np.random.default_rng(5)
    for x in [x0] + [x0 + rng.uniform(-0.02, 0.02, len(x0)) for _ in range(2)]:
        assert np.array_equal(batch.h(x), own.h(x))
        assert np.array_equal(batch.jac_values(x), own.jac_values(x))
        (gain,), (want,) = batch.pattern_normal(whiten).gain_at(x), normal.gain_at(x)
        assert np.array_equal(gain, want)
    (got,) = wls_estimate([mset], batch, exp.cfg.epsilon, exp.cfg.k_limit, [x0])
    ((x, cov, iterations, converged, j, r),) = gauss_newton(
        own, mset.z, whiten, x0, exp.cfg.epsilon, exp.cfg.k_limit, normal)
    assert got.converged and (got.iterations, got.converged, got.objective) == (iterations, converged, j)
    assert np.array_equal(model.pack(got.state), x)
    assert np.array_equal(got.covariance, cov) and np.array_equal(got.residuals, r)


# ---------------------------------------------------------------------------
# the hybrid stages: one stacked batch per group of areas of one shape


def _hybrid_inputs(exp, trial=0):
    """(structure, its measurement set, {area index: traditional estimate})."""
    structure, mset, sets, starts = _level1(exp, trial)
    tses = wls_estimate(sets, structure.tse, exp.cfg.epsilon, exp.cfg.k_limit, starts)
    return structure, mset, {a.area.index: t for a, t in zip(structure.observable, tses)}


def _same_local(got, want):
    """Two LocalResults are equal bit for bit: states, covariances, TSE
    iterations and the robust solution."""
    assert (got.area_index, got.tse_iterations) == (want.area_index, want.tse_iterations)
    for a, b in ((got.state, want.state), (got.tse_state, want.tse_state), (got.hybrid.state, want.hybrid.state)):
        assert np.array_equal(a.v1, b.v1) and np.array_equal(a.v2, b.v2)
    for a, b in ((got.cov, want.cov), (got.hybrid.covariance, want.hybrid.covariance)):
        assert (a is None and b is None) or np.array_equal(a, b)
    r, s = got.hybrid.robust, want.hybrid.robust
    assert (r is None) == (s is None)
    if r is not None:
        assert (r.lam, r.worst_case, r.strategy) == (s.lam, s.worst_case, s.strategy)
        assert np.array_equal(r.x, s.x)


def _area_alone(a, tse, mset, cfg, robust, perturb):
    """One area's hybrid stage through the per-model steps alone:
    build_hybrid_model, the per-model stage and rect_to_polar."""
    hmodel = build_hybrid_model(tse, a.block, mset)
    hres = multiarea._model_stage(hmodel, cfg, robust, perturb, (1, a.area.index), a.cov_read)
    polar, cov = rect_to_polar(hres.state, hres.covariance)
    return LocalResult(a.area.index, polar, cov, tse.state, tse.iterations, hres)


@pytest.mark.parametrize("grid", ["ieee30", "tiled-x2"])
@pytest.mark.parametrize("step", ["plain", "approx", "exact"])
@pytest.mark.parametrize("sampled", [False, True])
def test_every_area_of_the_hybrid_batch_equals_itself_alone(experiments, grid, step, sampled):
    """Each area's LocalResult from level 1 (tiled-x2: three groups of two
    areas; IEEE-30: three groups of one) equals, bit for bit, the same
    area run as a group of one and through the per-model steps: plain, at
    approximate and at exact lambda, with and without the perturbation
    draw."""
    exp = experiments(grid, 1, lambda_strategy="exact" if step == "exact" else "approx")
    structure, mset, tses = _hybrid_inputs(exp)
    assert [len(g) for g in structure.groups] == ([1, 1, 1] if grid == "ieee30" else [2, 2, 2])
    robust = step != "plain"
    perturb = make_delta_sampler(exp.cfg.seed, 0) if sampled else None
    batched = level1_run(structure, mset, exp.cfg, robust, perturb)
    for lr, a in zip(batched, structure.areas):
        tse = tses[a.area.index]
        (one,) = multiarea._estimate_areas([a], [tse], mset, exp.cfg, robust, perturb)
        _same_local(lr, one)
        _same_local(lr, _area_alone(a, tse, mset, exp.cfg, robust, perturb))
        assert lr.hybrid.robust is None or lr.hybrid.robust.strategy == step


def test_parallel_groups_and_group_peers(experiments):
    """With ``parallel`` the thread pool maps the groups, and level 1
    equals the serial run bit for bit.  Corrupting the SCADA values of
    area 1 moves its estimate and leaves its group peer (area 4) and every
    other area bit-identical."""
    exp = experiments("tiled-x2", 0)
    structure, mset, _ = _hybrid_inputs(exp)
    assert [a.area.index for a in structure.groups[0]] == [1, 4]
    perturb = make_delta_sampler(exp.cfg.seed, 0)
    base = level1_run(structure, mset, exp.cfg, True, perturb)
    for got, want in zip(level1_run(structure, mset, exp.cfg, True, perturb, parallel=True), base):
        _same_local(got, want)
    z = mset.z.copy()
    z[_split_rows(exp.part, mset.specs)[0][1]] += 0.05
    alt = level1_run(structure, mset.with_values(z), exp.cfg, True, perturb)
    assert not np.array_equal(alt[0].state.v1, base[0].state.v1)
    for got, want in zip(alt[1:], base[1:]):
        _same_local(got, want)


@pytest.mark.parametrize("robust", [False, True])
def test_a_failing_member_fails_alone(experiments, monkeypatch, robust):
    """Area 4's TSE covariance made negative definite: its hybrid step's
    matrix (S, or A at approximate lambda) is not positive definite, so
    its group's stacked Cholesky raises and the group runs again member
    by member.  Level 1 reports that one failure, with the message it
    has always given, and the group peer (area 1) equals its result in
    a run where nothing fails."""
    exp = experiments("tiled-x2", 0)
    structure, mset, tses = _hybrid_inputs(exp)
    perturb = make_delta_sampler(exp.cfg.seed, 0)
    base = level1_run(structure, mset, exp.cfg, robust, perturb)
    bad = dict(tses)
    bad[4] = replace(tses[4], covariance=-1e4 * tses[4].covariance)
    got = multiarea._estimate_group(structure.groups[0], bad, mset, exp.cfg, robust, perturb)
    _same_local(got[0], base[0])
    assert isinstance(got[1], NumericalError) and str(got[1]) == "hybrid covariance is not positive definite"
    monkeypatch.setattr(multiarea, "wls_estimate", lambda *args: [bad[a.area.index] for a in structure.observable])
    with pytest.raises(NumericalError) as err:
        level1_run(structure, mset, exp.cfg, robust, perturb)
    assert str(err.value) == "level 1 failed: hybrid covariance is not positive definite"


def test_one_stacked_cholesky_per_group(experiments, monkeypatch):
    """Level 1 factors each hybrid matrix once per group, as a stack of the
    group's members, not once per area: on tiled-x2 (three groups of two)
    S alone in a plain run, A and M at approximate lambda."""
    exp = experiments("tiled-x2", 0)
    structure, mset, _ = _hybrid_inputs(exp)
    sizes = []
    original = hybrid._cholesky

    def recorded(a):
        sizes.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(hybrid, "_cholesky", recorded)
    for robust, factors in ((False, 1), (True, 2)):
        del sizes[:]
        level1_run(structure, mset, exp.cfg, robust, make_delta_sampler(exp.cfg.seed, 0))
        assert sizes == [2] * 3 * factors
