"""The traditional estimator's normal equations from the Jacobian's
nonzero pattern (``PolarBatch.pattern_normal``) against the dense whitened
products of ``tests/oracles.py``, and the Gauss-Newton behaviour that must
not change with them, on the central TSE of IEEE-30 tiled twice (above
the kernels' leaf)."""

import numpy as np
import pytest

from gridstate import bdu, wls
from gridstate.cli import prepare, synth_for_trial
from gridstate.errors import UnobservableError
from gridstate.measurement import MeasurementSet, ModelView
from gridstate.multiarea import _START_STEP, Structure
from gridstate.netmodel import single_area
from gridstate.wls import PolarBatch, PolarModel, gauss_newton, whitener, wls_estimate
from tests.oracles import DenseNormal
from tests.test_kernels import _count_calls, _tiled_workload
from tests.test_wls import _same_estimate


@pytest.fixture(scope="module")
def tiled2(tmp_path_factory):
    """(central TSE structure, its measurement set at trial 0, the start
    angle level 1 takes) on tiled-x2."""
    folder = tmp_path_factory.mktemp("tiled2")
    paths = {}
    for role, text in _tiled_workload(2).items():
        paths[role] = folder / f"input.{role}"
        paths[role].write_text(text)
    exp = prepare(str(paths["case"]), str(paths["partition"]), str(paths["plan"]), str(paths["config"]))
    area = Structure(exp.net, single_area(exp.net, exp.part.global_ref), exp.specs).areas[0]
    mset = synth_for_trial(exp, 0)
    tse_set = MeasurementSet(area.model.specs, mset.z[area.tse_rows], mset.sigmas[area.tse_rows] * area.tse_scale)
    va0 = _START_STEP * round(np.arctan2(*mset.z[area.anchor]) / _START_STEP)
    return area, tse_set, va0


def _layouts(area, tse_set):
    """{layout: (model, its measurement set)}: the central TSE as built
    (anchored at the reference PMU) and over its SCADA rows with the
    reference angle pinned."""
    anchored = area.model
    assert not anchored.pin_angle and anchored.n_state > bdu._LEAF
    scada = len(anchored.specs) - len(area.anchor)
    pinned = PolarModel(anchored.view, anchored.specs[:scada], pin_angle=True)
    assert pinned.n_state > bdu._LEAF
    pinned_set = MeasurementSet(pinned.specs, tse_set.z[:scada], tse_set.sigmas[:scada])
    return {"anchored": (anchored, tse_set), "pinned": (pinned, pinned_set)}


def _random_state(model, rng):
    x = model.flat()
    n_va = len(model.free_va)
    x[:n_va] = rng.uniform(-0.3, 0.3, n_va)
    x[n_va:] = rng.uniform(0.9, 1.1, model.n_bus)
    return x


@pytest.mark.parametrize("layout", ["anchored", "pinned"])
def test_pattern_normal_equations_equal_the_dense_products(tiled2, layout):
    model, mset = _layouts(*tiled2[:2])[layout]
    batch = PolarBatch([model])
    whiten = whitener([mset.sigmas**2], "measurement variances are not positive")
    normal = batch.pattern_normal(whiten)
    pattern = batch.pattern
    at = pattern.row + len(mset) * pattern.col  # flat Fortran places in the model's H
    assert len(pattern.row) == len(pattern.take) and len(np.unique(at)) == len(at)
    outside = np.ones(len(mset) * model.n_state, dtype=bool)
    outside[at] = False
    rng = np.random.default_rng(17)
    for _ in range(4):
        x = _random_state(model, rng)
        h = model.jac(x)
        # every nonzero jacobian_polar writes is in the pattern, and the
        # pattern's values are H's there
        assert not np.any(np.ravel(h, order="F")[outside])
        v = normal.weigh(x)
        assert np.array_equal(v, normal.root_row * np.ravel(h, order="F")[at])
        r = mset.z - batch.h(x)
        (gain,), g = normal.gain(v), normal.grad(v, whiten(r))
        h_w = whiten(h)
        want_gain, want_g = h_w.T @ h_w, h_w.T @ whiten(r)
        assert np.array_equal(gain, gain.T)
        assert np.abs(gain - want_gain).max() <= 1e-12 * np.abs(want_gain).max()
        assert np.abs(g - want_g).max() <= 1e-12 * np.abs(want_g).max()
        assert np.array_equal(normal.gain_at(x)[0], gain)


def test_unobservable_bus_raises_above_the_leaf(tiled2, monkeypatch):
    area, tse_set, _ = tiled2
    model = area.model
    # drop every row that sees one bus's magnitude: its column of H is zero
    k = model.n_bus // 2
    h = model.jac(model.flat())
    keep = np.flatnonzero(h[:, len(model.free_va) + k] == 0.0)
    specs = tuple(model.specs[i] for i in keep)
    blind = PolarModel(model.view, specs, pin_angle=False)
    assert blind.n_state > bdu._LEAF and not wls.check_observable(blind)
    calls = _count_calls(monkeypatch, PolarBatch, "pattern_normal")
    with pytest.raises(UnobservableError):
        wls_estimate(MeasurementSet(specs, tse_set.z[keep], tse_set.sigmas[keep]), blind)
    assert len(calls) == 1


def test_marquardt_fallback_matches_the_dense_path(tiled2, monkeypatch):
    """A start far from the anchor with low magnitudes: full steps raise J,
    so damped trials run, on the pattern's gain as on the dense one."""
    area, tse_set, va0 = tiled2
    model = area.model
    x0 = model.flat(va0 + 0.6)
    x0[len(model.free_va) :] = 0.8
    calls = _count_calls(monkeypatch, wls, "h_eval")
    res = wls_estimate(tse_set, model, x0=x0)
    assert res.converged and len(calls) > res.iterations + 1
    whiten = whitener([tse_set.sigmas**2], "measurement variances are not positive")
    # wls_estimate's default tolerance and iteration limit
    ((x, cov, iterations, converged, _, _),) = gauss_newton(
        PolarBatch([model]), tse_set.z, whiten, x0, 1e-6, 20, DenseNormal(model.jac, whiten))
    assert converged and iterations == res.iterations
    assert np.abs(model.pack(res.state) - x).max() <= 1e-9
    assert np.abs(res.covariance - cov).max() <= 1e-9 * np.abs(cov).max()


def test_one_h_and_one_jacobian_per_iteration_above_the_leaf(tiled2, monkeypatch):
    area, tse_set, va0 = tiled2
    model = area.model
    h_calls = _count_calls(monkeypatch, wls, "h_eval")
    jac_calls = _count_calls(monkeypatch, wls, "jacobian_polar")
    res = wls_estimate(tse_set, model, x0=model.flat(va0))
    assert res.converged
    # the start plus one trial step per iteration; one H per step plus
    # the covariance's
    assert len(h_calls) == len(jac_calls) == res.iterations + 1


@pytest.mark.parametrize("layout", ["anchored", "pinned"])
def test_repeat_solve_reuses_the_start(tiled2, layout, monkeypatch):
    """A batch's second solve from the same start with the same sigmas
    evaluates one h and one H fewer, and equals the single-set call's
    solve (a fresh batch) bit for bit."""
    model, mset = _layouts(*tiled2[:2])[layout]
    batch, x0 = PolarBatch([model]), model.flat(tiled2[2] if layout == "anchored" else 0.0)
    counts, results = [], []
    for _ in range(2):
        h_calls = _count_calls(monkeypatch, wls, "h_eval")
        jac_calls = _count_calls(monkeypatch, wls, "jacobian_polar")
        results.extend(wls_estimate([mset], batch, x0=[x0.copy()]))
        counts.append((len(h_calls), len(jac_calls)))
        monkeypatch.undo()
    first, again = results
    assert counts[1] == (counts[0][0] - 1, counts[0][1] - 1)
    assert _same_estimate(again, first)
    assert _same_estimate(again, wls_estimate(mset, model, x0=x0))


def test_a_changed_start_sigma_or_spec_list_recomputes(tiled2, monkeypatch):
    area, tse_set, va0 = tiled2
    model = area.model
    batch = PolarBatch([model])
    x0 = model.flat(va0)
    (base,) = wls_estimate([tse_set], batch, x0=[x0])
    sigmas = tse_set.sigmas.copy()
    sigmas[5] *= 1.5
    cases = {
        "sigma": (MeasurementSet(tse_set.specs, tse_set.z, sigmas), x0),
        "start angle": (tse_set, model.flat(va0 + 0.1)),
        "back": (tse_set, x0),
    }
    for name, (mset, start) in cases.items():
        h_calls = _count_calls(monkeypatch, wls, "h_eval")
        (got,) = wls_estimate([mset], batch, x0=[start])
        assert len(h_calls) >= got.iterations + 1, name
        assert _same_estimate(got, wls_estimate(mset, model, x0=start)), name
        monkeypatch.undo()
    assert _same_estimate(got, base)

    # a mutated copy of the spec list on the same view: its own batch and
    # start, and the first batch's remembered start still holds for its
    # own specs
    specs = list(model.specs)
    specs.reverse()
    mutated = PolarBatch([PolarModel(model.view, specs, pin_angle=False)])
    flipped = MeasurementSet(tuple(specs), tse_set.z[::-1], tse_set.sigmas[::-1])
    fresh_view = ModelView(model.view.net, model.view.bus_ids, model.view.ref_bus)
    want = wls_estimate(flipped, PolarModel(fresh_view, specs, pin_angle=False), x0=x0)
    assert _same_estimate(wls_estimate([flipped], mutated, x0=[x0])[0], want)
    assert _same_estimate(wls_estimate([tse_set], batch, x0=[x0])[0], base)
