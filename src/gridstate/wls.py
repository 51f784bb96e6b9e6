"""Nonlinear weighted-least-squares estimation by Gauss-Newton.

This is the traditional (SCADA-only) estimator run at step 1 of the hybrid
method: normal-equation steps dx = (H' W^-1 H)^-1 H' W^-1 (z - h(x)),
stopping when max |dx| < epsilon, with the estimate covariance equal to
the inverse gain matrix at the solution.  The areas of one level are
independent problems of this form (Gomez-Exposito et al., "A taxonomy of
multi-area state estimation methods", EPSR 81(4), 2011), so every model
:func:`gauss_newton` steps is a batch of members solved in lockstep, each
as if alone: a :class:`PolarBatch` of :class:`PolarModel` layouts (a
level's areas, or one model alone), or the level-2 coordinator, a batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bdu
from .bdu import spd_inv, tri_solve
from .errors import NumericalError, UnobservableError, ValidationError, is_integer
from .measurement import MeasurementSet, ModelView, StackedView, h_eval, jacobian_polar
from .powerflow import StateVector


_OUTSIDE = "polar state requires positive magnitudes"


class _Polar:
    """A layout of x = [va (free); vm (all)]: x holds the free angles
    (``_va``, at bus positions ``free_va`` of the ``n_bus``) and the
    magnitudes (``_vm``)."""

    def unpack(self, x):
        """(vm, va) at x: the pair :func:`h_eval` takes."""
        va = np.zeros(self.n_bus)
        va[self.free_va] = x[self._va]
        return x[self._vm], va


class PolarModel(_Polar):
    """One area's layout of the estimation vector x = [va (free); vm
    (all)] over a model view and its specs: packs and unpacks x and gives
    the dense H for :func:`check_observable`.  :func:`gauss_newton` steps
    it as a member of a :class:`PolarBatch`.

    With ``pin_angle`` (the default) the reference-bus angle is pinned at
    zero and removed from the unknowns.  When the reference bus
    carries a PMU its angle is estimated instead: pass pin_angle=False and
    include anchor rows in the specs so the gain matrix keeps rank.
    """

    def __init__(self, view: ModelView, specs, pin_angle: bool = True):
        self.view = view
        self.specs = tuple(specs)
        self.pin_angle = bool(pin_angle)
        view.compile(self.specs)  # rejects a row the view cannot evaluate
        self.n_bus = view.n_bus
        if view.ref_bus not in view.pos:
            raise ValidationError(f"reference bus {view.ref_bus} is not in the view")
        if pin_angle:
            self.free_va = np.flatnonzero([bid != view.ref_bus for bid in view.bus_ids])
        else:
            self.free_va = np.arange(self.n_bus)
        self.n_state = len(self.free_va) + self.n_bus
        self._va, self._vm = slice(0, len(self.free_va)), slice(len(self.free_va), self.n_state)
        self._cols = np.concatenate([self.free_va, self.n_bus + np.arange(self.n_bus)])

    def flat(self, va0: float = 0.0) -> np.ndarray:
        """Every free angle at ``va0``, every magnitude 1."""
        x = np.full(self.n_state, float(va0))
        x[self._vm] = 1.0
        return x

    def pack(self, state: StateVector) -> np.ndarray:
        order = [state.index(b) for b in self.view.bus_ids]
        va = state.v2[order]
        vm = state.v1[order]
        return np.concatenate([va[self.free_va], vm])

    def state(self, x) -> StateVector:
        """The polar state at x, on arrays of its own."""
        vm, va = self.unpack(x)
        return StateVector("polar", self.view.bus_ids, np.array(vm), va, ref_bus=self.view.ref_bus)

    def jac(self, x) -> np.ndarray:
        """Dense H over x (for :func:`check_observable`'s rank test); copied
        only to drop a pinned angle."""
        full = jacobian_polar(self.view, self.unpack(x), self.specs)
        return full[:, self._cols] if self.pin_angle else full

    def embed_cov(self, cov_est: np.ndarray) -> np.ndarray:
        """Estimate covariance embedded into the full [va(n); vm(n)] layout
        (zero variance at a pinned reference angle)."""
        n = self.n_bus
        full = np.zeros((2 * n, 2 * n))
        full[np.ix_(self._cols, self._cols)] = cov_est
        return full


class PolarBatch(_Polar):
    """PolarModels that :func:`wls_estimate` solves in lockstep, each as if
    alone, one model included.  x, the rows and the gains are the
    members' side by side (``parts``: per member its rows and its
    unknowns; ``bus_starts``: per member its first bus); one h and one H
    evaluation cover every member, over their views side by side (a
    :class:`gridstate.measurement.StackedView`), and H's nonzero
    ``pattern`` has one gain block per member.  The batch remembers its
    last Gauss-Newton start (:meth:`start`)."""

    def __init__(self, models):
        self.members = tuple(models)
        if not self.members:
            raise ValidationError("a batch needs at least one model")
        rows = np.cumsum([0] + [len(m.specs) for m in self.members])
        unknowns = np.cumsum([0] + [m.n_state for m in self.members])
        bus = np.cumsum([0] + [m.n_bus for m in self.members])
        self.parts = tuple((slice(r0, r1), slice(u0, u1))
                           for r0, r1, u0, u1 in zip(rows, rows[1:], unknowns, unknowns[1:]))
        self.bus_starts, self.n_bus = bus[:-1], int(bus[-1])
        self._start = None  # the last start and its linearization, see start
        self.view = StackedView([m.view for m in self.members], [m.specs for m in self.members])
        self.specs = self.view.specs
        self.free_va = np.concatenate([m.free_va + b for m, b in zip(self.members, bus)])
        self._va = np.concatenate([u + np.arange(len(m.free_va)) for m, u in zip(self.members, unknowns)])
        self._vm = np.concatenate([u + np.arange(len(m.free_va), m.n_state)
                                   for m, u in zip(self.members, unknowns)])
        col_of = np.full(2 * self.n_bus, -1)
        for m, b, u in zip(self.members, bus, unknowns):
            # a member's va (vm) column k is the va (vm) column of its bus k, shifted by b
            cols = np.where(m._cols < m.n_bus, b + m._cols, self.n_bus + b + m._cols - m.n_bus)
            col_of[cols] = u + np.arange(m.n_state)
        jac_at = self.view.compile(self.specs).jac_at
        self.pattern = JacobianPattern(jac_at, len(self.specs), col_of, [m.n_state for m in self.members])

    def h(self, x) -> np.ndarray:
        """Every member's h at x, with no domain check (see :meth:`outside`)."""
        return h_eval(self.view, self.unpack(x), self.specs)

    def outside(self, x) -> np.ndarray:
        """Per member, whether x leaves its state domain (a magnitude that
        is not positive)."""
        return np.logical_or.reduceat(x[self._vm] <= 0.0, self.bus_starts)

    def jac_values(self, x) -> np.ndarray:
        """H's nonzero values at x over [va (all); vm (all)], in
        ``CompiledSpecs.jac_at`` order (see :class:`JacobianPattern`)."""
        return jacobian_polar(self.view, self.unpack(x), self.specs, dense=False)

    def pattern_normal(self, whiten) -> "PatternNormal":
        """:class:`PatternNormal` on H's nonzero pattern under ``whiten``,
        a whitener of variances over the spec rows."""
        return PatternNormal(self.pattern, self.jac_values, whiten(np.ones(len(self.specs))))

    def start(self, normal, x0, weights):
        """:func:`linearize` at ``x0`` under ``normal``, remembered for the
        last start only: reused while x0 and the weight vector equal the
        last ones (every trial starts flat at the same point), recomputed
        for anything else; a start with a singular gain is not kept."""
        memo = self._start
        if not (memo and np.array_equal(memo[0], x0) and np.array_equal(memo[1], weights)):
            memo = (np.array(x0, dtype=float), np.array(weights, dtype=float),
                    linearize(self, normal, x0))
            if not any(isinstance(c, Exception) for c in memo[2][3]):
                self._start = memo
        return memo[2]


@dataclass(frozen=True)
class EstimationResult:
    state: StateVector
    covariance: np.ndarray  # over the model's [va(free); vm] layout
    iterations: int
    converged: bool
    objective: float
    residuals: np.ndarray
    model: PolarModel


def whitener(parts, error: str):
    """W^-1/2 of a block-diagonal W as a function over W's rows.

    ``parts`` are W's diagonal blocks in row order: a 1-D part is a run of
    variances (scaled by 1/sigma), a 2-D part a dense block (whitened by
    its symmetric inverse root, from its own eigh).  Rounding-level
    negative eigenvalues are clipped relative to the scale of the whole W;
    one below -1e-8 of that scale raises NumericalError(error).  The
    function keeps its argument's memory layout, on which the BLAS path
    (and so the rounding) of a product of whitened matrices depends.
    """
    spectra = [(p, None) if p.ndim == 1 else np.linalg.eigh(0.5 * (p + p.T)) for p in parts]
    scale = max([1e-300] + [float(e.max(initial=0.0)) for e, _ in spectra])
    if min(float(e.min(initial=0.0)) for e, _ in spectra) < -1e-8 * scale:
        raise NumericalError(error)
    roots, at = [], 0
    for evals, vecs in spectra:
        root_evals = np.sqrt(np.clip(evals, 1e-14 * scale, None))
        root = 1.0 / root_evals if vecs is None else (vecs / root_evals) @ vecs.T
        roots.append((slice(at, at + len(evals)), root))
        at += len(evals)

    def whiten(a):
        out = np.empty_like(a)
        for rows, root in roots:
            out[rows] = root @ a[rows] if root.ndim == 2 else (root * a[rows].T).T
        return out

    return whiten


def _scaled(root):
    """W^-1/2 = diag(``root``) as a function over W's rows."""
    return lambda a: (root * a.T).T


class JacobianPattern:
    """Where the nonzeros of an m-row Jacobian land among a model's n
    unknowns.

    ``jac_at`` lists, in the order :func:`jacobian_polar` gives its values
    with ``dense=False``, their flat Fortran-order places over N columns;
    ``col_of`` sends each of the N columns to an unknown, or to -1 where
    the model drops it.  Nonzeros that land on one (row, unknown) are
    summed, which is the chain rule of a many-to-one column map.  Entries
    are sorted by (row, unknown); ``entry`` sends each kept nonzero (at
    ``take`` among the values) to its entry.  ``a``, ``b`` list every
    ordered pair of entries in one row and ``ab`` its place in the n x n
    gain.  ``n`` may instead list the orders of consecutive blocks of
    unknowns that no row couples (models side by side): the gain is then
    block diagonal, and ``ab`` places each pair in its block, the blocks
    stored one after another (``blocks``: each one's first place and
    order).
    """

    def __init__(self, jac_at, m, col_of, n):
        sizes = np.atleast_1d(np.asarray(n, dtype=np.intp))
        n = int(sizes.sum())
        self.m, self.n = m, n
        full_col, row = np.divmod(jac_at, m)
        col = col_of[full_col]
        kept = self.take = np.flatnonzero(col >= 0)
        at, self.entry = np.unique(row[kept] * n + col[kept], return_inverse=True)
        self.row, self.col = np.divmod(at, n)
        row = self.row
        per_nz = np.bincount(row, minlength=m)[row]
        self.a = np.repeat(np.arange(len(row)), per_nz)
        first = np.searchsorted(row, row)  # each row's first entry
        self.b = np.arange(len(self.a)) - np.repeat(np.cumsum(per_nz) - per_nz - first, per_nz)
        stored = np.cumsum(sizes**2) - sizes**2
        self.blocks = tuple(zip(stored.tolist(), sizes.tolist()))
        self.gain_size = int(np.sum(sizes**2))
        block = np.repeat(np.arange(len(sizes)), sizes)[self.col]
        local = self.col - (np.cumsum(sizes) - sizes)[block]
        block_a = block[self.a]
        self.ab = stored[block_a] + local[self.a] * sizes[block_a] + local[self.b]

    def values(self, jac_values) -> np.ndarray:
        """The entries' values from the Jacobian's nonzero values: one
        gather, a slot with one nonzero getting 0.0 + v = v exactly."""
        return np.bincount(self.entry, weights=jac_values[self.take], minlength=len(self.row))


class PatternNormal:
    """Normal equations for :func:`gauss_newton` from H's nonzero values
    on a :class:`JacobianPattern`, with W^-1/2 = diag(``root``) on its
    rows: a step's linearization is the whitened entry values v, its gain
    sums v_a v_b over the pairs of entries in one row and its gradient
    H' W^-1 r over the entries, each by one bincount; no dense H is formed.

    ``values(x)`` gives the nonzero values at x.  Rows below the
    pattern's whose Jacobian is constant enter as ``fixed``, their
    whitened Jacobian J_w: its gain J_w' J_w is formed here, once, and
    every step adds it and J_w' r_w over those rows.
    """

    def __init__(self, pattern: JacobianPattern, values, root, fixed=None):
        self.pattern, self.values = pattern, values
        self.root_row = root[pattern.row]
        self.fixed = fixed
        if fixed is not None:
            self.fixed_gain = fixed.T @ fixed

    def weigh(self, x):
        return self.root_row * self.pattern.values(self.values(x))

    def gain(self, v):
        """The gain as the list of its diagonal blocks, one per member
        (``fixed`` rows go with a pattern of one block)."""
        p = self.pattern
        gain = np.bincount(p.ab, weights=v[p.a] * v[p.b], minlength=p.gain_size)
        blocks = [gain[at : at + k * k].reshape(k, k) for at, k in p.blocks]
        return blocks if self.fixed is None else [blocks[0] + self.fixed_gain]

    def grad(self, v, r_w):
        p = self.pattern
        g = np.bincount(p.col, weights=v * r_w[p.row], minlength=p.n)
        return g if self.fixed is None else g + self.fixed.T @ r_w[p.m :]

    def gain_at(self, x):
        return self.gain(self.weigh(x))


_SINGULAR = "gain matrix H' W^-1 H is singular: system unobservable"


def _groups(orders, members):
    """``members`` in groups that share one kernel call: those whose
    matrices have one order at or below ``bdu._LEAF`` together (numpy's
    call on a stack rounds each matrix as its own call), each larger one
    alone."""
    groups = {}
    for i in members:
        groups.setdefault(orders[i] if orders[i] <= bdu._LEAF else -1 - i, []).append(i)
    return list(groups.values())


def _per_member(kernel, mats, groups, error):
    """(``kernel`` of each grouped member's matrix in ``mats``, one call
    per group of :func:`_groups`, as a list over all members;
    {member: UnobservableError(``error``)} where the kernel rejects the
    matrix with LinAlgError, the error also standing in the list)."""
    out, errors = [None] * len(mats), {}
    for group in groups:
        try:
            got = [kernel(mats[group[0]])] if len(group) == 1 else kernel(np.stack([mats[i] for i in group]))
        except np.linalg.LinAlgError:
            if len(group) == 1:
                got = [UnobservableError(error)]
                errors[group[0]] = got[0]
            else:  # one call per member finds the ones rejected
                alone, bad = _per_member(kernel, mats, [[i] for i in group], error)
                got = [alone[i] for i in group]
                errors.update(bad)
        for i, value in zip(group, got):
            out[i] = value
    return out, errors


def _steps(factors, g, parts, groups):
    """Per grouped member its Gauss-Newton step, c'^-1 c^-1 g over its
    unknowns with c its gain's Cholesky factor, one pair of triangular
    solves per group; a list over all members."""
    out = [None] * len(parts)
    for group in groups:
        if len(group) == 1:
            (i,) = group
            out[i] = tri_solve(factors[i].T, tri_solve(factors[i], g[parts[i][1]], True), False)
            continue
        c = np.stack([factors[i] for i in group])
        g_k = np.stack([g[parts[i][1]] for i in group])
        for i, step in zip(group, tri_solve(c.transpose(0, 2, 1), tri_solve(c, g_k, True), False)):
            out[i] = step
    return out


def _damped(gain, g, mu):
    """The Marquardt step (G + mu D)^-1 g, D = diag(G) floored at 1e-8."""
    return np.linalg.solve(gain + mu * np.diag(np.clip(np.diag(gain), 1e-8, None)), g)


def linearize(model, normal, x):
    """(h(x), ``normal``'s linearization at x, the members' gains, per
    member its gain's Cholesky factor or the UnobservableError of a
    singular gain): what a Gauss-Newton step at x needs besides its
    residual."""
    h = model.h(x)
    lin = normal.weigh(x)
    gains = normal.gain(lin)
    groups = _groups([len(gain) for gain in gains], range(len(gains)))
    return h, lin, gains, _per_member(np.linalg.cholesky, gains, groups, _SINGULAR)[0]


def gauss_newton(model, z, whiten, x0, tol, k_limit, normal, start=None):
    """Gauss-Newton WLS on ``model`` from x0, with W^-1/2 applied by
    ``whiten`` (see :func:`whitener`).

    ``model`` is a batch of members (a :class:`PolarBatch`; the
    coordinator is a batch of one): ``parts``
    lists per member its rows and its unknowns, ``h(x)`` evaluates every
    member with no domain check and ``outside(x)`` tells per member
    whether x leaves its state domain.  The members are solved in
    lockstep, each as if alone: one h and one H evaluation per step cover
    them all, and all that rounds per member is done per member: J, the
    Cholesky factor and both triangular solves (one call per group of
    equal order at or below the leaf), the domain check, the Marquardt
    fallback and the convergence test.  A member that fails stops there;
    the others go on.

    ``normal`` (a :class:`PatternNormal`: ``weigh``, ``gain``, ``grad``,
    ``gain_at``) forms the steps' normal equations, gain H' W^-1 H and
    gradient H' W^-1 r; ``start`` is :func:`linearize` at x0 when the
    caller has it.
    Steps solve these normal equations; a full step that raises
    J(x) = ||W^-1/2 (z - h(x))||^2 by more than a relative 1e-12 falls
    back to Marquardt damping.
    Stops when max |dx| < tol.  Returns a list holding per member
    (x, covariance, iterations, converged, J(x), z - h(x)) over its own
    unknowns and rows, the covariance equal to the inverse gain at the
    returned x and converged=False when k_limit is reached, or the error
    it failed with: UnobservableError where its gain matrix is singular,
    ValidationError where an accepted step leaves its state domain.
    """
    parts = model.parts

    def trial(xt, members):
        """(J per member of ``members``, z - h(xt), W^-1/2 (z - h(xt)),
        {member: error}); a member whose part of xt leaves the state
        domain gets J = inf and its error, and is evaluated at x."""
        errors = {}
        outside = model.outside(xt)
        if outside.any():
            for i in members:
                if outside[i]:
                    errors[i] = ValidationError(_OUTSIDE)
                    xt[parts[i][1]] = x[parts[i][1]]
        r_t = z - model.h(xt)
        rw_t = whiten(r_t)
        sq = rw_t**2
        j = [None] * len(parts)
        for i in members:
            j[i] = np.inf if i in errors else float(np.sum(sq[parts[i][0]]))
        return j, r_t, rw_t, errors

    x = np.array(x0, dtype=float)
    h, lin, gains, factors = linearize(model, normal, x) if start is None else start
    failed = {i: c for i, c in enumerate(factors) if isinstance(c, Exception)}
    r = z - h
    r_w = whiten(r)
    sq = r_w**2
    j_here = [float(np.sum(sq[rows])) for rows, _ in parts]
    iterations = [0] * len(parts)
    converged = [False] * len(parts)
    orders = [len(gain) for gain in gains]
    live = [i for i in range(len(parts)) if i not in failed]
    groups = _groups(orders, live)
    for k in range(1, k_limit + 1):
        if not live:
            break
        if k > 1:
            lin = normal.weigh(x)
            gains = normal.gain(lin)
            factors, errors = _per_member(np.linalg.cholesky, gains, groups, _SINGULAR)
            if errors:
                failed.update(errors)
                live = [i for i in live if i not in errors]
                groups = _groups(orders, live)
        g = normal.grad(lin, r_w)
        dx = _steps(factors, g, parts, groups)
        xt = x.copy()
        for i in live:
            xt[parts[i][1]] += dx[i]
        j_next, r_next, rw_next, errors = trial(xt, live)
        # pure Gauss-Newton (Eq-9-style) step whenever it descends; under
        # weak redundancy the full step can overshoot the curved valley of
        # the P/Q-only objective, so fall back to Marquardt damping; a rise
        # by rounding alone (near convergence) is no overshoot, and damping
        # it would move the estimate by far more than rounding
        damped = [i for i in live if j_next[i] > j_here[i] * (1 + 1e-12)]
        mu = 1e-4
        for _ in range(24 if damped else 0):
            steps = {i: _damped(gains[i], g[parts[i][1]], mu) for i in damped}
            xm = x.copy()
            for i in damped:
                xm[parts[i][1]] += steps[i]
            j_mu, r_mu, rw_mu, errors_mu = trial(xm, damped)
            for i in [i for i in damped if j_mu[i] <= j_here[i]]:
                rows = parts[i][0]
                dx[i], j_next[i] = steps[i], j_mu[i]
                r_next[rows], rw_next[rows] = r_mu[rows], rw_mu[rows]
                errors.pop(i, None)
                if i in errors_mu:
                    errors[i] = errors_mu[i]
                damped.remove(i)
            if not damped:
                break
            mu *= 8.0
        # an accepted step that left the state domain stops its member;
        # the accepted trial's residual is the next iterate's
        failed.update(errors)
        still = []
        for i in live:
            if i in errors:
                continue
            x[parts[i][1]] += dx[i]
            j_here[i] = j_next[i]
            iterations[i] = k
            converged[i] = bool(np.max(np.abs(dx[i])) < tol)
            if not converged[i]:
                still.append(i)
        r, r_w = r_next, rw_next
        if len(still) < len(live):
            live, groups = still, _groups(orders, still)

    solved = [i for i in range(len(parts)) if i not in failed]
    if solved:
        covs, errors = _per_member(spd_inv, normal.gain_at(x), _groups(orders, solved),
                                   "gain matrix singular at the solution")
        failed.update(errors)
    return [failed.get(i) or (x[unknowns], covs[i], iterations[i], converged[i], j_here[i], r[rows])
            for i, (rows, unknowns) in enumerate(parts)]


def _start_point(mset: MeasurementSet, model: PolarModel, x0) -> np.ndarray:
    if len(mset) != len(model.specs):
        raise ValidationError("measurement set does not match the model's specs")
    x0 = model.flat() if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.n_state,) or not np.all(np.isfinite(x0)):
        raise ValidationError(f"start must hold {model.n_state} finite values")
    return x0


def wls_estimate(
    mset: MeasurementSet | list[MeasurementSet],
    model: PolarModel | PolarBatch,
    tol: float = 1e-6,
    k_limit: int = 20,
    x0=None,
) -> EstimationResult | list:
    """Gauss-Newton WLS estimate of each member of ``model``
    (:func:`gauss_newton`), from ``x0`` (default: the flat start).

    The normal equations come from H's nonzero pattern
    (:meth:`PolarBatch.pattern_normal`).  The start's linearization is the
    batch's remembered one when x0 and the sigmas repeat
    (:meth:`PolarBatch.start`).

    With one MeasurementSet and a :class:`PolarModel` it steps a batch of
    that model alone, so nothing is remembered across such calls, and
    returns the EstimationResult or raises the error the model failed
    with.  With one set per member of a :class:`PolarBatch`, ``x0`` None
    or one start (or None) per member, it returns a list holding per
    member its EstimationResult or that error.  A start outside the state
    domain fails its member (ValidationError); a gain matrix singular at
    an iterate fails it with UnobservableError.  converged=False (no
    error) when k_limit is reached; a k_limit that is not an integer of
    at least 1, or a set and a model of different call forms, raises
    ValidationError.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError("tolerance must be positive and finite")
    if not is_integer(k_limit) or k_limit < 1:
        raise ValidationError("iteration limit must be an integer of at least 1")
    alone = isinstance(mset, MeasurementSet)
    if not isinstance(model, PolarModel if alone else PolarBatch):
        raise ValidationError("one measurement set takes a PolarModel, a list of sets a PolarBatch")
    if alone:
        sets, starts, model = [mset], [x0], PolarBatch([model])
    else:
        sets = list(mset)
        starts = [None] * len(sets) if x0 is None else list(x0)
    if not len(sets) == len(starts) == len(model.members):
        raise ValidationError("a batch takes one measurement set and one start per member")
    starts = [_start_point(s, m, x) for s, m, x in zip(sets, model.members, starts)]
    # a member starting outside the state domain fails there; the others
    # evaluate it at its flat start
    outside = model.outside(np.concatenate(starts))
    x0 = np.concatenate([m.flat() if out else x for m, x, out in zip(model.members, starts, outside)])
    sigmas = np.concatenate([s.sigmas for s in sets])
    whiten = _scaled(1.0 / sigmas)
    normal = model.pattern_normal(whiten)
    h, lin, gains, factors = model.start(normal, x0, sigmas)
    factors = [ValidationError(_OUTSIDE) if out else c for out, c in zip(outside, factors)]
    out = gauss_newton(model, np.concatenate([s.z for s in sets]), whiten, x0, tol, k_limit, normal,
                       (h, lin, gains, factors))
    out = [res if isinstance(res, Exception) else EstimationResult(m.state(res[0]), *res[1:], m)
           for m, res in zip(model.members, out)]
    if alone and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if alone else out


def check_observable(model: PolarModel) -> bool:
    """Rank check of the Jacobian at the flat start."""
    h = model.jac(model.flat())
    if h.shape[0] < model.n_state:
        return False
    return int(np.linalg.matrix_rank(h)) == model.n_state
