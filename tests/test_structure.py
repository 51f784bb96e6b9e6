"""The structure/solve split: one estimation structure per experiment and
partition, built on a spec pool whose sub-tuples it runs by selecting
rows; measurement sets carried as value arrays."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridstate import hybrid, multiarea
from gridstate.cli import make_delta_sampler, prepare, run_trial, synth_for_trial
from gridstate.errors import NumericalError, ValidationError
from gridstate.hybrid import pmu_block, select_block
from gridstate.measurement import (
    ALL_KINDS,
    FLOW_KINDS,
    INJECTION_KINDS,
    PMU_KINDS,
    PMU_VOLTAGE_KINDS,
    CompiledSpecs,
    MeasurementSet,
    ModelView,
    h_eval,
    synthesize,
    wrap_angle,
)
from gridstate.multiarea import _coordinator_rows, run_centralized, run_two_level
from gridstate.netmodel import Branch, boundary_measurement_ownership, single_area
from tests.test_kernels import _count_calls

MODES = ("central-wls", "central-robust", "multiarea-wls", "multiarea-robust")


@pytest.fixture()
def exp():
    return prepare(config="ieee30.cfg")


def _fresh(exp, trial, central, robust):
    """One trial through a structure built for this call alone."""
    mset = synth_for_trial(exp, trial)
    perturb = make_delta_sampler(exp.cfg.seed, trial)
    if central:
        return run_centralized(exp.net, mset, exp.cfg, robust, ref_bus=exp.part.global_ref,
                               perturb=perturb)
    return run_two_level(exp.net, exp.part, mset, exp.cfg, robust, perturb)


def _assert_same(a, b):
    assert np.array_equal(a.vm, b.vm) and np.array_equal(a.va, b.va)
    assert np.array_equal(a.u, b.u)
    assert [lr.tse_iterations for lr in a.locals] == [lr.tse_iterations for lr in b.locals]
    for la, lb in zip(a.locals, b.locals):
        assert np.array_equal(la.tse_state.v1, lb.tse_state.v1)
        assert np.array_equal(la.tse_state.v2, lb.tse_state.v2)
    assert a.coordinator_iterations == b.coordinator_iterations


def _drop_flow_pair(specs, part, net):
    """The specs without the first non-tie FLOW pair."""
    first = next(m for m in specs if m.kind in FLOW_KINDS and not part.is_tie(net.branch(*m.branch)))
    return tuple(m for m in specs
                 if not (m.kind in FLOW_KINDS and (m.branch, m.side) == (first.branch, first.side)))


@pytest.mark.parametrize("mode", MODES)
def test_held_structure_matches_fresh_runs(exp, mode):
    central, robust = mode.startswith("central"), mode.endswith("robust")
    for trial in range(3):
        _assert_same(run_trial(exp, trial, robust, central), _fresh(exp, trial, central, robust))
    assert len(exp.structures) == 1


def test_changed_specs_replace_the_held_structure(exp):
    """Specs that are rows of the held structure's pool keep it; specs
    with a row the pool lacks replace it by one over the pool plus the
    new rows."""
    for central in (False, True):
        run_trial(exp, 0, robust=False, central=central)
    held = {k: v[1] for k, v in exp.structures.items()}
    dropped = replace(exp, specs=_drop_flow_pair(exp.specs, exp.part, exp.net))
    assert len(dropped.specs) == len(exp.specs) - 2
    for central in (False, True):
        for trial in (0, 1):
            _assert_same(run_trial(dropped, trial, True, central), _fresh(dropped, trial, central, True))
    # the copy shares the holder, whose structures still cover the full specs
    assert dropped.structures is exp.structures and len(exp.structures) == 2
    for central, (_, structure) in exp.structures.items():
        assert structure is held[central] and structure.specs is exp.specs

    # held on the dropped specs, the full specs bring the pair back
    exp.structures.clear()
    for central in (False, True):
        run_trial(dropped, 0, robust=False, central=central)
    held = {k: v[1] for k, v in exp.structures.items()}
    for central in (False, True):
        for trial in (0, 1):
            _assert_same(run_trial(exp, trial, True, central), _fresh(exp, trial, central, True))
    pair = tuple(m for m in exp.specs if m not in dropped.specs)
    for central, (_, structure) in exp.structures.items():
        assert structure is not held[central] and structure.specs == dropped.specs + pair


def test_prepare_builds_no_structure(monkeypatch):
    built = []
    init = multiarea.Structure.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiarea.Structure, "__init__", spy)
    exp = prepare(config="ieee30.cfg")
    assert not built and not exp.structures
    for trial in range(3):
        run_trial(exp, trial, robust=True)
    assert len(built) == 1


def test_unobservable_area_raises_on_every_trial(exp):
    owned = set(boundary_measurement_ownership(exp.part, exp.specs)[3])
    blind = replace(exp, specs=tuple(m for m in exp.specs
                                     if m.id not in owned or m.kind.startswith("pmu")))
    messages = []
    for trial in range(3):
        with pytest.raises(NumericalError) as err:
            run_trial(blind, trial, robust=True)
        messages.append(str(err.value))
    assert "area 3: SCADA measurement set does not observe the local state" in messages[0]
    assert messages == [messages[0]] * 3
    with pytest.raises(NumericalError) as err:
        _fresh(blind, 0, False, True)
    assert str(err.value) == messages[0]


def test_structure_rejects_a_set_over_other_specs(exp):
    mset = synth_for_trial(exp, 0)
    structure = multiarea.Structure(exp.net, exp.part, exp.specs[:-2])
    with pytest.raises(ValidationError, match="does not match the structure's specs"):
        structure.run(mset, exp.cfg)


def _groups(specs, keep):
    """The ids of the rows of ``specs`` that ``keep`` accepts, grouped by
    measured quantity (a FLOW or injection pair, a PMU phasor)."""
    out = {}
    for m in specs:
        if keep(m):
            quantity = m.kind[:5] if m.kind in PMU_KINDS else m.kind[2:]  # P and Q together
            out.setdefault((quantity, m.bus, m.branch, m.side), []).append(m.id)
    return [tuple(ids) for ids in out.values()]


def _families(exp):
    """Groups of rows to drop, per family: non-tie and tie FLOW pairs,
    boundary injections, coordinator PMU phasors, and each area's
    reference-bus voltage rows (one at a time: either one unpins it)."""
    net, part, specs = exp.net, exp.part, exp.specs
    bnd = set(part.boundary_buses())
    zpmu = {specs[k].id for k in _coordinator_rows(net, part, specs)[1]}
    refs = {a.ref_bus for a in part.areas}

    def tie(m):
        return m.kind in FLOW_KINDS and part.is_tie(net.branch(*m.branch))

    return {
        "flow": _groups(specs, lambda m: m.kind in FLOW_KINDS and not tie(m)),
        "tie": _groups(specs, tie),
        "boundary injection": _groups(specs, lambda m: m.kind in INJECTION_KINDS and m.bus in bnd),
        "coordinator pmu": _groups(specs, lambda m: m.id in zpmu),
        "anchor": [(m.id,) for m in specs if m.kind in PMU_VOLTAGE_KINDS and m.bus in refs],
    }


@pytest.fixture(scope="module")
def pooled():
    """The bundled experiment with both structures held on its full specs."""
    exp = prepare(config="ieee30.cfg")
    for central in (False, True):
        run_trial(exp, 0, robust=False, central=central)
    return exp, _families(exp)


def _outcome(run, *args):
    try:
        return run(*args)
    except NumericalError as exc:
        return str(exc)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), trial=st.integers(0, 3))
def test_selected_rows_match_a_fresh_build(pooled, data, trial):
    exp, families = pooled
    assert all(len(groups) >= 2 for groups in families.values())
    held = {central: structure for central, (_, structure) in exp.structures.items()}
    drop = set()
    for groups in families.values():
        for ids in data.draw(st.lists(st.sampled_from(groups), max_size=2, unique=True)):
            drop.update(ids)
    dropped = replace(exp, specs=tuple(m for m in exp.specs if m.id not in drop))
    for mode in MODES:
        central, robust = mode.startswith("central"), mode.endswith("robust")
        got = _outcome(run_trial, dropped, trial, robust, central)
        want = _outcome(_fresh, dropped, trial, central, robust)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
        else:
            _assert_same(got, want)
        assert exp.structures[central][1] is held[central]


def test_an_anchor_drop_pins_the_area_angle(pooled):
    exp, _ = pooled
    structure = exp.structures[False][1]
    ref_vr = next(m for m in exp.specs if m.kind == "pmu_vr" and m.bus == exp.part.areas[0].ref_bus)
    area = structure.select(tuple(m for m in exp.specs if m is not ref_vr)).areas[0]
    assert not area.anchor and area.model.pin_angle
    assert structure.areas[0].anchor and not structure.areas[0].model.pin_angle


def test_pool_order_differs_from_the_trial_order(exp):
    pairs = _families(exp)["flow"]
    first, second = ({m for ids in pairs[k : k + 2] for m in ids} for k in (0, 2))
    a = replace(exp, specs=tuple(m for m in exp.specs if m.id not in first))
    b = replace(exp, specs=tuple(m for m in exp.specs if m.id not in second))
    for central in (False, True):
        run_trial(a, 0, robust=False, central=central)
    for mode in MODES:
        central, robust = mode.startswith("central"), mode.endswith("robust")
        _assert_same(run_trial(b, 1, robust, central), _fresh(b, 1, central, robust))
    for _, structure in exp.structures.values():
        # the union: the first trial's rows, then the rows it lacked
        assert structure.specs[: len(a.specs)] == a.specs and len(structure.specs) == len(exp.specs)
        assert structure.specs != exp.specs and structure.select(b.specs) is not None


def test_an_unobservable_selection_raises_as_a_fresh_build(exp):
    run_trial(exp, 0, robust=True)
    held = exp.structures[False][1]
    owned = set(boundary_measurement_ownership(exp.part, exp.specs)[3])
    blind = replace(exp, specs=tuple(m for m in exp.specs
                                     if m.id not in owned or m.kind.startswith("pmu")))
    with pytest.raises(NumericalError) as got:
        run_trial(blind, 1, robust=True)
    with pytest.raises(NumericalError) as want:
        _fresh(blind, 1, False, True)
    assert str(got.value) == str(want.value)
    assert "area 3: SCADA measurement set does not observe the local state" in str(got.value)
    assert exp.structures[False][1] is held


def test_outage_trials_build_few_structures(monkeypatch):
    built = []
    init = multiarea.Structure.__init__

    def spy(self, net, part, specs):
        built.append(part.area_count == 1)
        init(self, net, part, specs)

    monkeypatch.setattr(multiarea.Structure, "__init__", spy)
    exp = prepare(config="ieee30.cfg")
    pairs = _families(exp)["flow"]
    rng = np.random.default_rng(0)
    for trial in range(20):
        drop = {mid for k in rng.choice(len(pairs), 4, replace=False) for mid in pairs[k]}
        outage = replace(exp, specs=tuple(m for m in exp.specs if m.id not in drop))
        for central in (False, True):
            _outcome(run_trial, outage, trial, False, central)
    assert set(built) == {False, True} and max(Counter(built).values()) <= 3


def test_only_the_last_selection_is_held(exp):
    structure = multiarea.Structure(exp.net, exp.part, exp.specs)
    pairs = _families(exp)["flow"]
    a, b = (tuple(m for m in exp.specs if m.id not in ids) for ids in pairs[:2])
    gc.disable()
    try:
        first = structure.select(a)
        assert structure.select(a) is first and structure.select(exp.specs) is structure
        gone = weakref.ref(first)
        del first
        second = structure.select(b)
        # reference counting alone frees the replaced selection: no cycle holds it
        assert gone() is None and structure.select(b) is second
    finally:
        gc.enable()


def test_a_structure_holding_a_selection_is_freed_without_the_cycle_collector(exp):
    """A selection keeps no reference to the structure it was selected
    from, so dropping that structure (as ``cli.run_trial`` does when it
    rebuilds over a larger pool) frees both by reference counting."""
    structure = multiarea.Structure(exp.net, exp.part, exp.specs)
    selected = structure.select(_drop_flow_pair(exp.specs, exp.part, exp.net))
    assert structure._last is selected
    gone = [weakref.ref(structure), weakref.ref(selected)]
    gc.disable()
    try:
        del structure, selected
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


def test_rows_match_by_value_and_copy_by_copy(exp):
    kept = _drop_flow_pair(exp.specs, exp.part, exp.net)
    copies = tuple(replace(m) for m in kept)  # equal specs, other objects
    by_object = multiarea.Structure(exp.net, exp.part, exp.specs).select(kept)
    by_value = multiarea.Structure(exp.net, exp.part, exp.specs).select(copies)
    assert by_value.specs is copies
    for a, b in zip(by_object.areas, by_value.areas):
        assert np.array_equal(a.tse_rows, b.tse_rows) and a.model.specs == b.model.specs
    # a row twice needs a pool that holds it twice
    twice = kept + kept[:1]
    assert multiarea.Structure(exp.net, exp.part, exp.specs).select(twice) is None
    assert multiarea.Structure(exp.net, exp.part, exp.specs + exp.specs[:1]).select(twice) is not None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), area=st.integers(1, 3), whole=st.booleans())
def test_selected_blocks_equal_built_ones(net30, part30, specs30, data, area, whole):
    """``select_block`` equals ``pmu_block`` on random ordered row subsets:
    a block losing rows is built again, and with ``whole`` every PMU row
    stays in its order, which shares the block's H."""
    view = ModelView.for_area(net30, part30, area)
    inside = [m for m in specs30 if m.metered_bus() in view.injection_ok]
    pmu = [k for k, m in enumerate(inside) if m.kind in PMU_KINDS]
    rows = data.draw(st.permutations(range(len(inside))).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: p[:k])))
    if whole:  # the drawn non-PMU rows, then every PMU row in pool order
        rows = [k for k in rows if k not in set(pmu)] + pmu
    block = pmu_block(view, inside, pmu)
    kept = [k for k in rows if k in set(pmu)]
    at = np.full(len(inside), -1)
    at[list(rows)] = np.arange(len(rows))
    specs = tuple(inside[k] for k in rows)
    got = select_block(block, at[block.rows], specs)
    want = pmu_block(view, specs, [at[k] for k in kept])
    assert got.specs == want.specs and np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.h_pmu, want.h_pmu) and got.scale == want.scale
    if whole:
        assert got.h_pmu is block.h_pmu
    elif len(kept) < len(pmu):
        assert got.h_pmu is not block.h_pmu


def test_selections_compute_no_branch_admittances(monkeypatch):
    """Outage selections compile their changed rows on copies of the
    pool's views, which keep every branch end's terminal data: no
    branch's admittances are computed again after the pool build."""
    exp = prepare(config="ieee30.cfg")
    for central in (False, True):
        run_trial(exp, 0, robust=False, central=central)
    held = {central: structure for central, (_, structure) in exp.structures.items()}
    calls = Counter()
    admittances, compile_ = Branch.admittances, CompiledSpecs.__init__

    def count_admittances(self):
        calls["admittances"] += 1
        return admittances(self)

    def count_compiles(self, *args):
        calls["compile"] += 1
        compile_(self, *args)

    monkeypatch.setattr(Branch, "admittances", count_admittances)
    monkeypatch.setattr(CompiledSpecs, "__init__", count_compiles)
    pairs = _families(exp)["flow"]
    rng = np.random.default_rng(0)
    for trial in range(20):
        drop = {mid for k in rng.choice(len(pairs), 4, replace=False) for mid in pairs[k]}
        outage = replace(exp, specs=tuple(m for m in exp.specs if m.id not in drop))
        for central in (False, True):
            _outcome(run_trial, outage, trial, False, central)
            assert exp.structures[central][1] is held[central]
    assert calls["compile"] > 0 and calls["admittances"] == 0
    # a build computes them
    multiarea.Structure(exp.net, exp.part, exp.specs)
    assert calls["admittances"] > 0


def test_outage_selections_build_no_more_parts(monkeypatch):
    """Over 20 seeded outage drop sets, the held structures build no more
    TSE models, observability checks and PMU blocks than when parts were
    shared only with their rows in tuple order: 68, 68 and 0 (a FLOW
    outage leaves every PMU block whole)."""
    exp = prepare(config="ieee30.cfg")
    for central in (False, True):
        run_trial(exp, 0, robust=False, central=central)
    held = {central: structure for central, (_, structure) in exp.structures.items()}
    built = [_count_calls(monkeypatch, owner, name) for owner, name in (
        (multiarea, "PolarModel"), (multiarea, "check_observable"), (multiarea, "pmu_block"),
        (hybrid, "pmu_block"))]  # the last, select_block's
    pairs = _families(exp)["flow"]
    rng = np.random.default_rng(0)
    for trial in range(20):
        drop = {mid for k in rng.choice(len(pairs), 4, replace=False) for mid in pairs[k]}
        outage = replace(exp, specs=tuple(m for m in exp.specs if m.id not in drop))
        for central in (False, True):
            _outcome(run_trial, outage, trial, False, central)
            assert exp.structures[central][1] is held[central]
    models, verdicts, built_blocks, selected_blocks = (len(calls) for calls in built)
    assert models <= 68 and verdicts <= 68 and built_blocks + selected_blocks == 0


_sigmas = st.one_of(st.just(0.0), st.floats(1e-6, 0.5))


@settings(max_examples=40, deadline=None)
@given(table=st.fixed_dictionaries({k: _sigmas for k in ALL_KINDS}),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_array_synthesis_matches_per_row_reference(view30, truth30, specs30, table, seed, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(specs30), max_size=len(specs30)))
    specs = tuple(m for m, k in zip(specs30, keep) if k)
    mset = synthesize(view30, truth30, specs, table.get, np.random.default_rng(seed))

    # the per-row construction: h + sigma * e, one Measurement per row
    truth = h_eval(view30, view30.polar(truth30), specs)
    noise = np.random.default_rng(seed).standard_normal(len(specs))
    ref = tuple(
        replace(m, value=float(h0 + table[m.kind] * e), sigma=table[m.kind] if table[m.kind] > 0.0 else 1.0)
        for m, h0, e in zip(specs, truth, noise)
    )
    assert np.array_equal(mset.z, [m.value for m in ref])
    assert np.array_equal(mset.sigmas, [m.sigma for m in ref])
    assert tuple(mset) == ref
    assert MeasurementSet(ref).z.tobytes() == mset.z.tobytes()


@pytest.mark.parametrize("sigma, message", [
    (float("nan"), "value must be finite"),
    (float("inf"), "sigma must be positive and finite"),
])
def test_synthesis_rejects_non_finite_values(view30, truth30, specs30, sigma, message):
    table = {k: sigma if k == "p_flow" else 0.01 for k in ALL_KINDS}
    with pytest.raises(ValidationError, match=message):
        synthesize(view30, truth30, specs30, table.get, np.random.default_rng(0))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_estimate_does_not_depend_on_measurement_order(exp, mode, seed):
    # every part holds its rows in canonical order, so a shuffled set gives
    # the same estimate bit for bit, with approx and exact lambda, and
    # under the experiment's Delta draw too
    central, robust = mode.startswith("central"), mode.endswith("robust")
    part = single_area(exp.net, exp.part.global_ref) if central else exp.part
    rng = np.random.default_rng(seed)
    mset = synthesize(exp.view, exp.truth, exp.specs, exp.cfg.sigma_for, rng)
    shuffled = mset.take(rng.permutation(len(mset)))
    built = multiarea.Structure(exp.net, part, mset.specs)
    built_shuffled = multiarea.Structure(exp.net, part, shuffled.specs)
    for lambda_strategy in ("approx", "exact"):
        cfg = replace(exp.cfg, lambda_strategy=lambda_strategy)
        for perturb in (None, make_delta_sampler(seed, 0)):
            a = built.run(mset, cfg, robust, perturb)
            b = built_shuffled.run(shuffled, cfg, robust, perturb)
            assert a.bus_ids == b.bus_ids and a.source == b.source
            _assert_same(a, b)


def test_a_permuted_pool_tuple_shares_every_part(exp, monkeypatch):
    """Selecting a permutation of the pool's own tuple keeps every part
    (each area's TSE model, every PMU block's H, the coordinator's
    pattern) and compiles nothing; the estimate is the pool's."""
    structure = multiarea.Structure(exp.net, exp.part, exp.specs)
    permuted = tuple(exp.specs[k] for k in np.random.default_rng(3).permutation(len(exp.specs)))
    built = {name: _count_calls(monkeypatch, owner, "__init__")
             for name, owner in (("view", ModelView), ("compiled", CompiledSpecs))}
    selected = structure.select(permuted)
    assert selected is not structure and not built["view"] and not built["compiled"]
    for got, pool in zip(selected.areas, structure.areas):
        assert got.model is pool.model and got.block.h_pmu is pool.block.h_pmu
    assert selected.bnd_block.h_pmu is structure.bnd_block.h_pmu
    assert selected.coordinator.pattern is structure.coordinator.pattern
    mset = synth_for_trial(exp, 0)
    order = [exp.specs.index(m) for m in permuted]
    _assert_same(structure.run(mset.take(order), exp.cfg), structure.run(mset, exp.cfg))


@pytest.mark.parametrize("s0, e0", [(0.0, 0.0), (0.05, 0.0)])
def test_robust_modes_are_wls_without_a_perturbation_bound(s0, e0):
    # s0 = 0 (no S) or e0 = 0 (no bound on Delta): the min-max problem is
    # plain WLS, so the robust modes return the WLS estimates bit for bit
    exp = prepare(config="ieee30.cfg", overrides={"s0": s0, "e0": e0})
    for central in (True, False):
        for trial in range(3):
            _assert_same(run_trial(exp, trial, True, central), run_trial(exp, trial, False, central))


def _phasor_pairs(specs):
    """(real, imaginary) positions of every PMU phasor in ``specs``."""
    at = {(m.kind, m.bus, m.branch, m.side): k for k, m in enumerate(specs)}
    partner = {"pmu_vr": "pmu_vi", "pmu_ir": "pmu_ii"}
    return np.array([(k, at[(partner[m.kind], m.bus, m.branch, m.side)])
                     for k, m in enumerate(specs) if m.kind in partner]).T


# Gauss-Newton stops on a 1e-6 step; the largest deviation seen over 1000
# drawn (theta, seed) pairs per mode was 1.3e-9
SHIFT_TOL = 1e-7


@pytest.mark.parametrize("mode", ["central-wls", "multiarea-wls"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(theta=st.floats(-np.pi, np.pi, exclude_min=True), seed=st.integers(0, 2**32 - 1))
def test_estimate_follows_a_global_angle_shift(exp, mode, theta, seed):
    # rotating every PMU phasor by theta moves the synchronized frame; SCADA
    # rows do not see it, so angles shift by theta and magnitudes stay
    cfg = replace(exp.cfg, s0=0.0, e0=0.0)
    part = single_area(exp.net, exp.part.global_ref) if mode.startswith("central") else exp.part
    structure = multiarea.Structure(exp.net, part, exp.specs)
    assert all(a.anchor for a in structure.areas)  # every area's TSE is anchored to a PMU
    mset = synthesize(exp.view, exp.truth, exp.specs, cfg.sigma_for, np.random.default_rng(seed))
    re, im = _phasor_pairs(exp.specs)
    z = mset.z.copy()
    z[re] = np.cos(theta) * mset.z[re] - np.sin(theta) * mset.z[im]
    z[im] = np.sin(theta) * mset.z[re] + np.cos(theta) * mset.z[im]
    a = structure.run(mset, cfg, robust=False)
    b = structure.run(MeasurementSet(exp.specs, z, mset.sigmas), cfg, robust=False)
    assert np.abs(b.vm - a.vm).max() <= SHIFT_TOL
    assert np.abs(wrap_angle(b.va - a.va - theta)).max() <= SHIFT_TOL
