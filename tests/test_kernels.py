"""The dense kernels ``bdu.tri_solve`` and ``bdu.spd_inv``: numpy's own call
at or below the leaf, blocked above it, and the leaf contract that keeps
every IEEE-30 system on numpy's call."""

import importlib.util
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstate import bdu, hybrid, multiarea, wls
from gridstate.cli import prepare, run_trial
from tests.oracles import DenseNormal

EPS = np.finfo(float).eps
MODES = ((False, True), (True, True), (False, False), (True, False))  # (robust, central)


def _triangular(rng, n, lower):
    """A triangular matrix with O(1) diagonal of either sign and small
    off-diagonal entries, so its condition stays moderate at n = 200."""
    t = rng.standard_normal((n, n)) / np.sqrt(n)
    t = np.tril(t) if lower else np.triu(t)
    t[np.diag_indices(n)] = rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n))
    return t


def _rhs(rng, n, cols):
    return rng.standard_normal(n) if cols == 0 else rng.standard_normal((n, cols))


def _spd(rng, n, log_cond):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * np.logspace(0.0, log_cond, n)) @ q.T
    return 0.5 * (g + g.T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), lower=st.booleans(), cols=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_tri_solve_matches_scipy_with_a_small_backward_error(n, lower, cols, seed):
    rng = np.random.default_rng(seed)
    t, b = _triangular(rng, n, lower), _rhs(rng, n, cols)
    y = bdu.tri_solve(t, b, lower)
    assert y.shape == b.shape
    if n <= bdu._LEAF:
        assert np.array_equal(y, np.linalg.solve(t, b))
    t_norm = np.linalg.norm(t, 2)
    for yk, bk in zip(y.reshape(n, -1).T, b.reshape(n, -1).T):
        assert np.linalg.norm(t @ yk - bk) <= 4.0 * n * EPS * t_norm * np.linalg.norm(yk)
    oracle = scipy.linalg.solve_triangular(t, b, lower=lower)
    bound = 4.0 * n * EPS * np.linalg.cond(t) * np.linalg.norm(oracle)
    assert np.linalg.norm(y - oracle) <= bound


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), log_cond=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_spd_inv_is_an_inverse(n, log_cond, seed):
    g = _spd(np.random.default_rng(seed), n, log_cond)
    inv = bdu.spd_inv(g)
    if n <= bdu._LEAF:
        assert np.array_equal(inv, np.linalg.inv(g))
    residual = np.linalg.norm(g @ inv - np.eye(n), 2)
    assert residual <= 4.0 * n * EPS * np.linalg.cond(g)


@pytest.mark.parametrize("zero_at", [0, 49, 50, 99])
def test_spd_inv_raises_like_inv_on_an_exactly_singular_matrix(zero_at):
    g = _spd(np.random.default_rng(5), 100, 2.0)
    g[zero_at, :] = 0.0
    g[:, zero_at] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(g)
    with pytest.raises(np.linalg.LinAlgError):
        bdu.spd_inv(g)


def _record_sizes(monkeypatch):
    """Wrap every name the kernels are called by; returns the list of the
    orders of the matrices (or stacks of matrices) they were given."""
    sizes = []

    def wrap(fn):
        def recorded(a, *args):
            sizes.append(a.shape[-1])
            return fn(a, *args)

        return recorded

    for owner in (bdu, wls, hybrid):
        monkeypatch.setattr(owner, "tri_solve", wrap(bdu.tri_solve))
    for owner in (bdu, wls):
        monkeypatch.setattr(owner, "spd_inv", wrap(bdu.spd_inv))
    return sizes


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list its calls append to."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("lambda_strategy", ["approx", "exact"])
def test_every_ieee30_system_stays_at_the_leaf(monkeypatch, lambda_strategy):
    """Every system the bundled experiment solves is at most the leaf's
    order, so it is numpy's own call and rounds as it always did; the
    exact-lambda search sits on a knife edge that any re-rounding moves.
    The largest is the anchored central TSE with 60 unknowns: a leaf below
    60 would re-round it.  The leaf is the kernels' only: every TSE and
    every coordinator (24 unknowns) solve takes its normal equations from
    the Jacobian's pattern, built once per model; a level's area TSEs run
    as one lockstep batch, the owner of their pattern, which holds one
    gain block per area."""
    exp = prepare(config="ieee30.cfg", overrides={"lambda_strategy": lambda_strategy})
    sizes = _record_sizes(monkeypatch)
    tse = _count_calls(monkeypatch, multiarea, "wls_estimate")
    pattern = _count_calls(monkeypatch, wls.PolarBatch, "pattern_normal")
    coordinator = _count_calls(monkeypatch, multiarea._CoordinatorModel, "pattern_normal")
    solves = _count_calls(monkeypatch, multiarea, "_solve_coordinator")
    for trial in range(2):
        for robust, central in MODES:
            run_trial(exp, trial, robust, central)
    assert max(sizes) == 60
    assert max(sizes) <= bdu._LEAF
    assert len(tse) == 8 and len(pattern) == len(tse)  # 2 trials x 4 modes, one batch of 1 or 3 TSEs each
    assert len(solves) == 4 and len(coordinator) == len(solves)
    models = [a.model for _, structure in exp.structures.values() for a in structure.areas]
    assert len(models) == 4 and all(s.tse.pattern is not None for _, s in exp.structures.values())
    for _, structure in exp.structures.values():
        blocks = [k for _, k in structure.tse.pattern.blocks]
        assert blocks == [a.model.n_state for a in structure.areas]
    coordinators = [structure.coordinator for _, structure in exp.structures.values()]
    assert [c.pattern is not None for c in coordinators if c is not None] == [True]


def _perfbench_module(name):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiled_workload(k):
    return _perfbench_module("workloads").tiled_texts(k, seed=1)


@pytest.mark.parametrize("lambda_strategy", ["approx", "exact"])
def test_robust_trials_pass_through_the_traced_names(monkeypatch, lambda_strategy):
    """The perfbench tracer patches each name it times where its caller
    looks it up: every name it lists must exist there, and a robust trial
    must still call the robust step's names, bdu only at exact lambda."""
    spans = _perfbench_module("spans")
    for owner, attr, *_ in spans.SPANS + spans.LEAVES:
        assert attr in owner.__dict__, (owner, attr)
    exp = prepare(config="ieee30.cfg", overrides={"lambda_strategy": lambda_strategy})
    calls = {name: _count_calls(monkeypatch, owner, name)
             for owner, name in ((multiarea, "uncertainty_for_model"), (multiarea, "hybrid_solve_robust"),
                                 (hybrid, "bdu_solve"), (bdu, "min_g"))}
    for central in (True, False):
        run_trial(exp, 0, robust=True, central=central)
    steps = len(calls["hybrid_solve_robust"])
    assert steps == 5  # the central step, three areas and the coordinator
    assert len(calls["uncertainty_for_model"]) == steps
    solves = steps if lambda_strategy == "exact" else 0
    assert len(calls["bdu_solve"]) == len(calls["min_g"]) == solves


def test_blocked_kernels_match_the_leaf_call_on_a_tiled_grid(monkeypatch, tmp_path):
    """On IEEE-30 tiled twice the central TSE (120 unknowns) is the one
    system above the leaf: the blocked kernels and its pattern gain give
    the same estimates as numpy's own calls and its dense gain
    (``tests/oracles.py``) to 1e-9.  The area TSEs (24-36 unknowns) and
    the coordinator (53) are on numpy's calls either way and keep their
    pattern gain here: against the dense gain it moves the
    multiarea-robust estimates by 2.2e-9, rounding the robust step
    amplifies.  The TSE still goes through the names the perfbench tracer
    patches."""
    paths = {}
    for role, text in _tiled_workload(2).items():
        paths[role] = tmp_path / f"input.{role}"
        paths[role].write_text(text)
    exp = prepare(str(paths["case"]), str(paths["partition"]), str(paths["plan"]), str(paths["config"]))
    sizes = _record_sizes(monkeypatch)
    traced = {name: _count_calls(monkeypatch, owner, name)
              for owner, name in ((multiarea, "wls_estimate"), (wls, "h_eval"), (wls, "jacobian_polar"))}
    pattern = _count_calls(monkeypatch, wls.PolarBatch, "pattern_normal")

    def estimates(exp):
        out = []
        for robust, central in MODES:
            res = run_trial(exp, 0, robust, central)
            out.append(np.concatenate([res.vm, res.va, res.u]))
        return out

    blocked = estimates(exp)
    assert max(sizes) > bdu._LEAF
    assert len(pattern) == len(traced["wls_estimate"]) == 4  # 2 central TSEs, 2 batches of 6 area TSEs
    assert all(traced.values())
    pattern_normal, leaf = wls.PolarBatch.pattern_normal, bdu._LEAF

    def dense_above_the_leaf(batch, whiten):
        if len(batch.members) == 1 and batch.members[0].n_state > leaf:
            return DenseNormal(batch.members[0].jac, whiten)
        return pattern_normal(batch, whiten)

    monkeypatch.setattr(wls.PolarBatch, "pattern_normal", dense_above_the_leaf)
    monkeypatch.setattr(bdu, "_LEAF", 10**6)
    # a fresh experiment: the first one's models remember pattern-form starts
    fresh = prepare(str(paths["case"]), str(paths["partition"]), str(paths["plan"]), str(paths["config"]))
    del pattern[:]
    for got, want in zip(blocked, estimates(fresh)):
        assert np.max(np.abs(got - want)) <= 1e-9
    assert len(pattern) == 2  # the area batches only


# the (p, 2n) shapes of the tiled-x4 hybrid groups
GROUP_SHAPES = ((10, 24), (10, 36), (8, 26), (8, 28))


def _members(stacked):
    """The members of a stack, each copied to an array of its own."""
    return [np.array(a) for a in stacked]


@pytest.mark.parametrize("p, n2", GROUP_SHAPES)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_lapack_equals_per_matrix_calls(p, n2, k):
    """Level 1's hybrid batch (``hybrid.HybridGroup``) relies on numpy's
    stacked calls rounding each member as its own call does: Cholesky,
    solve with matrix and vector right-hand sides, the spectral norm by
    svd, and every product in the layouts the hybrid step gives it (a
    transposed view, the symmetric product B'B, a matrix times a vector).
    This is a property of the numpy/BLAS build, pinned here bit for bit."""
    rng = np.random.default_rng(100 * p + 10 * n2 + k)
    h = rng.standard_normal((k, p, n2))
    w = np.array([_spd(rng, n2, 6.0) for _ in range(k)])
    x = rng.standard_normal((k, n2 + p))[:, :n2]  # rows of a wider stack, as z's pseudo part
    wh = w @ h.transpose(0, 2, 1)
    s = h @ wh + np.eye(p)
    for got, hk, wk in zip(wh, h, w):
        assert np.array_equal(got, wk @ hk.T)
    for got, hk, whk in zip(s, h, _members(wh)):
        assert np.array_equal(got, hk @ whk + np.eye(p))
    c = np.linalg.cholesky(s)
    for got, sk in zip(c, _members(s)):
        assert np.array_equal(got, np.linalg.cholesky(sk))
    y = np.linalg.solve(c, (h @ x[..., None])[..., 0][..., None])[..., 0]
    for got, ck, hk, xk in zip(y, c, h, x):
        assert np.array_equal(got, np.linalg.solve(ck, hk @ np.array(xk)))
    b = np.linalg.solve(c, wh.transpose(0, 2, 1))
    for got, ck, whk in zip(b, _members(c), _members(wh)):
        assert np.array_equal(got, np.linalg.solve(ck, whk.T))
    syrk = b.transpose(0, 2, 1) @ b
    for got, bk in zip(syrk, _members(b)):
        assert np.array_equal(got, bk.T @ bk)
    # K diag(sigma^2) K' with K the transpose of a solve's result
    sig = rng.random((k, p))
    kd = (b * sig[:, :, None]).transpose(0, 2, 1) @ b
    for got, bk, sk in zip(kd, _members(b), sig):
        assert np.array_equal(got, (bk.T * sk) @ bk)
    norms = np.linalg.svd(h, compute_uv=False)[:, 0]
    for got, hk in zip(norms, _members(h)):
        assert got == np.linalg.norm(hk, 2)


@pytest.mark.parametrize("n", [24, 36, 64])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_stacked_kernels_at_the_leaf_equal_their_members(n, k):
    """``bdu.tri_solve`` and ``bdu.spd_inv`` on a stack at or below the
    leaf are one numpy call that equals each member's own call; above it
    the stack is solved member by member."""
    rng = np.random.default_rng(n + k)
    t = np.array([_triangular(rng, n, True) for _ in range(k)])
    for rhs in (rng.standard_normal((k, n)), rng.standard_normal((k, n, 10))):
        for tt, lower in ((t, True), (t.transpose(0, 2, 1), False)):
            got = bdu.tri_solve(tt, rhs, lower)
            for g, tk, bk in zip(got, tt, rhs):
                assert np.array_equal(g, bdu.tri_solve(tk, bk, lower))
    g = np.array([_spd(rng, n, 4.0) for _ in range(k)])
    for got, gk in zip(bdu.spd_inv(g), g):
        assert np.array_equal(got, bdu.spd_inv(gk))


def test_stacked_kernels_above_the_leaf_take_the_halves():
    rng = np.random.default_rng(3)
    n = 2 * bdu._LEAF + 6
    t = np.array([_triangular(rng, n, True) for _ in range(2)])
    b = rng.standard_normal((2, n, 3))
    for got, tk, bk in zip(bdu.tri_solve(t, b, True), t, b):
        assert np.array_equal(got, bdu.tri_solve(tk, bk, True))
    g = np.array([_spd(rng, n, 3.0) for _ in range(2)])
    for got, gk in zip(bdu.spd_inv(g), g):
        assert np.array_equal(got, bdu.spd_inv(gk))


def test_stacked_elementwise_transports_equal_their_members():
    """The polar/rectangular transports of a stack equal each member's
    (``measurement.to_rect``/``to_polar`` against the per-state
    conversions)."""
    from gridstate.measurement import to_polar, to_rect

    rng = np.random.default_rng(8)
    k, n = 4, 13
    vm, va = rng.uniform(0.9, 1.1, (k, n)), rng.uniform(-np.pi, np.pi, (k, n))
    cov = np.array([_spd(rng, 2 * n, 3.0) for _ in range(k)])
    vr, vi, c_rect = to_rect(vm, va, cov)
    vm2, va2, c_polar = to_polar(vr, vi, c_rect)
    for j in range(k):
        want = to_rect(vm[j], va[j], cov[j])
        assert all(np.array_equal(g, w) for g, w in zip((vr[j], vi[j], c_rect[j]), want))
        want = to_polar(np.array(vr[j]), np.array(vi[j]), np.array(c_rect[j]))
        assert all(np.array_equal(g, w) for g, w in zip((vm2[j], va2[j], c_polar[j]), want))
