"""The level-2 coordinator's normal equations from the physical rows'
nonzero pattern plus the pseudo rows' per-trial gain
(``_CoordinatorModel.pattern_normal``) against the dense whitened products
of ``tests/oracles.py``, on IEEE-30 tiled three times (a coordinator of 80
unknowns, above the kernels' leaf)."""

import numpy as np
import pytest

from gridstate import bdu, multiarea
from gridstate.cli import prepare, synth_for_trial
from gridstate.errors import ValidationError
from gridstate.measurement import jacobian_polar
from gridstate.multiarea import (
    Structure,
    _assemble_coordinator,
    _coordinator_init,
    _CoordinatorModel,
    _solve_coordinator,
    _turned_angles,
    level1_run,
)
from gridstate.wls import gauss_newton, whitener
from tests.oracles import DenseNormal, coordinator_jac
from tests.test_kernels import _count_calls, _tiled_workload


@pytest.fixture(scope="module")
def tiled3(tmp_path_factory):
    """(coordinator problem, pinned model, start, experiment) of trial 0's
    plain run on tiled-x3."""
    folder = tmp_path_factory.mktemp("tiled3")
    paths = {}
    for role, text in _tiled_workload(3).items():
        paths[role] = folder / f"input.{role}"
        paths[role].write_text(text)
    exp = prepare(str(paths["case"]), str(paths["partition"]), str(paths["plan"]), str(paths["config"]))
    structure = Structure(exp.net, exp.part, exp.specs)
    mset = synth_for_trial(exp, 0)
    locals_ = level1_run(structure, mset, exp.cfg, robust=False)
    angles = _turned_angles(locals_)
    prob = _assemble_coordinator(structure.coordinator, locals_, angles, mset)
    model = structure.coordinator.pinned(locals_, angles)
    assert model.n_state == 80 > bdu._LEAF and model.pattern is not None
    return prob, model, _coordinator_init(model, prob), exp


def _whiten(prob):
    return whitener([prob.w_diag, *prob.w_blocks], "coordinator: weight matrix not positive definite")


def _dense_normal(model, whiten):
    """The dense form: products of the whitened m x n Jacobian."""
    return DenseNormal(lambda x: coordinator_jac(model, x), whiten)


def _states(model, x0, seed):
    rng = np.random.default_rng(seed)
    nb = model.n_bnd
    for _ in range(4):
        x = x0.copy()
        x[:nb] += rng.uniform(-0.05, 0.05, nb)
        x[nb : 2 * nb] *= rng.uniform(0.95, 1.05, nb)
        x[2 * nb :] = rng.uniform(-0.1, 0.1, model.r - 1)
        yield x


def test_coordinator_pattern_normal_equations_equal_the_dense_products(tiled3):
    prob, model, x0, _ = tiled3
    whiten = _whiten(prob)
    normal, dense = model.pattern_normal(whiten), _dense_normal(model, whiten)
    for x in _states(model, x0, 5):
        r = prob.z - model.h(x)
        v, h_w = normal.weigh(x), dense.weigh(x)
        (gain,), g = normal.gain(v), normal.grad(v, whiten(r))
        (want_gain,), want_g = dense.gain(h_w), dense.grad(h_w, whiten(r))
        assert np.array_equal(gain, gain.T)
        assert np.abs(gain - want_gain).max() <= 1e-12 * np.abs(want_gain).max()
        assert np.abs(g - want_g).max() <= 1e-12 * np.abs(want_g).max()
        assert np.array_equal(normal.gain_at(x)[0], gain)


def test_column_map_covers_every_physical_nonzero(tiled3):
    """Scattered onto the unknowns, the pattern's merged values are the
    dense physical rows summed by the column map written out here: a
    boundary va/vm in its own column, a pinned angle summed into its
    area's u, and nothing else dropped."""
    prob, model, x0, _ = tiled3
    pattern, m, nb = model.pattern, len(model.physical), model.n_bnd
    at = model.view.compile(model.physical).jac_at
    outside = np.ones(m * 2 * model.n, dtype=bool)
    outside[at] = False
    # the column map, written out: -1 for pinned magnitudes and area 1's
    # pinned angles
    unknown = {}
    for j, b in enumerate(model.bnd_ids):
        k = model.view.pos[b]
        unknown[k], unknown[model.n + k] = j, nb + j
    for area in model.part.areas:
        for b in area.internal:
            unknown[model.view.pos[b]] = 2 * nb + area.index - 2 if area.index >= 2 else -1
            unknown[model.n + model.view.pos[b]] = -1
    entries = set(zip(pattern.row.tolist(), pattern.col.tolist()))
    assert len(pattern.row) < len(pattern.take)  # pinned angles of one row share a u column
    for x in _states(model, x0, 9):
        full = jacobian_polar(model.view, model.unpack(x), model.physical)
        assert not np.any(np.ravel(full, order="F")[outside])
        values = model.jac_values(x)
        assert np.array_equal(values, np.ravel(full, order="F")[at])
        for row, col in zip(*np.nonzero(full)):
            assert unknown[col] < 0 or (row, unknown[col]) in entries
        scattered = np.zeros((m, model.n_state))
        scattered[pattern.row, pattern.col] = pattern.values(values)
        want = np.zeros((m, model.n_state))
        for col, j in unknown.items():
            if j >= 0:
                want[:, j] += full[:, col]
        assert np.abs(scattered - want).max() <= 1e-14 * np.abs(want).max()


def test_coordinator_solve_matches_the_dense_path(tiled3, monkeypatch):
    prob, model, x0, exp = tiled3
    dense = []
    jacobian = multiarea.jacobian_polar

    def recorded(*args, **kwargs):
        dense.append(kwargs.get("dense", True))
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(multiarea, "jacobian_polar", recorded)
    pattern = _count_calls(monkeypatch, _CoordinatorModel, "pattern_normal")
    x, cov, iters = _solve_coordinator(model, prob, x0, exp.cfg.epsilon, exp.cfg.k_limit)
    # no dense physical Jacobian
    assert dense and not any(dense) and len(pattern) == 1
    whiten = _whiten(prob)
    ((x_d, cov_d, iters_d, converged, _, _),) = gauss_newton(
        model, prob.z, whiten, x0, exp.cfg.epsilon, exp.cfg.k_limit, _dense_normal(model, whiten))
    assert converged and iters == iters_d >= 2
    assert np.abs(x - x_d).max() <= 1e-9
    assert np.abs(cov - cov_d).max() <= 1e-9 * np.abs(cov_d).max()


def test_one_physical_h_and_jacobian_per_iteration(tiled3, monkeypatch):
    prob, model, x0, exp = tiled3
    h_calls = _count_calls(monkeypatch, multiarea, "h_eval")
    jac_calls = _count_calls(monkeypatch, multiarea, "jacobian_polar")
    _, _, iters = _solve_coordinator(model, prob, x0, exp.cfg.epsilon, exp.cfg.k_limit)
    assert len(h_calls) == len(jac_calls) == iters + 1


def test_a_trial_point_outside_the_domain_fails_the_coordinator(tiled3, monkeypatch):
    """Every trial point forced outside the state domain: the full step and
    each of the 24 damped ones fail, and the solve raises the domain
    error; the start is never checked."""
    prob, model, x0, exp = tiled3
    verdicts = []
    outside = _CoordinatorModel.outside

    def forced(coordinator, x):
        verdicts.append((x.copy(), outside(coordinator, x)))
        return np.array([True])

    monkeypatch.setattr(_CoordinatorModel, "outside", forced)
    with pytest.raises(ValidationError, match="^polar state requires positive magnitudes$"):
        _solve_coordinator(model, prob, x0, exp.cfg.epsilon, exp.cfg.k_limit)
    assert len(verdicts) == 25
    assert not any(v.any() or np.array_equal(x, x0) for x, v in verdicts)
