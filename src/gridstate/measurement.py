"""Measurement functions h(x), analytic Jacobians, noisy synthesis, and
polar/rectangular conversions with first-order covariance transport.

Measurement classes:

====================  ===========================================
p_inj / q_inj         bus power injection (active / reactive)
p_flow / q_flow       branch power flow at the metered end
pmu_vr / pmu_vi       PMU bus-voltage phasor, rectangular parts
pmu_ir / pmu_ii       PMU branch-current phasor at the metered end
====================  ===========================================

Flows and PMU currents carry a branch plus a side ('from'/'to') naming the
metered end.  All evaluation routines run against a :class:`ModelView`,
which is either the whole network or one area's [internal, boundary,
external] sub-model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .netmodel import AreaPartition, PowerNetwork, build_ybus
from .powerflow import StateVector, injection_jacobian, ybus_pattern

INJECTION_KINDS = ("p_inj", "q_inj")
FLOW_KINDS = ("p_flow", "q_flow")
PMU_VOLTAGE_KINDS = ("pmu_vr", "pmu_vi")
PMU_CURRENT_KINDS = ("pmu_ir", "pmu_ii")
PMU_KINDS = PMU_VOLTAGE_KINDS + PMU_CURRENT_KINDS
ALL_KINDS = INJECTION_KINDS + FLOW_KINDS + PMU_KINDS


@dataclass(frozen=True)
class Measurement:
    id: int
    kind: str
    value: float
    sigma: float
    bus: int | None = None
    branch: tuple[int, int] | None = None
    side: str = "from"

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown measurement kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(f"measurement {self.id}: sigma must be positive and finite")
        if not math.isfinite(self.value):
            raise ValidationError(f"measurement {self.id}: value must be finite")
        needs_branch = self.kind in FLOW_KINDS + PMU_CURRENT_KINDS
        if needs_branch and self.branch is None:
            raise ValidationError(f"measurement {self.id}: {self.kind} requires a branch")
        if not needs_branch and self.bus is None:
            raise ValidationError(f"measurement {self.id}: {self.kind} requires a bus")
        if self.side not in ("from", "to"):
            raise ValidationError(f"measurement {self.id}: bad side {self.side!r}")

    def metered_bus(self) -> int:
        if self.branch is not None:
            return self.branch[0] if self.side == "from" else self.branch[1]
        return self.bus


def row_key(m: Measurement):
    """A row's place in the canonical row order: by kind, bus, branch,
    side and id."""
    return (m.kind, m.bus, m.branch, m.side, m.id)


class MeasurementSet:
    """Ordered measurements; the order fixes the rows of z, W and H of a
    model built on the set itself.  Inside a
    :class:`gridstate.multiarea.Structure` the canonical order
    (:func:`row_key`) fixes them, and the set's order only where each row's
    value is.

    The set keeps its specs and holds the values (finite, with positive
    finite sigmas) as the arrays ``z`` and ``sigmas``, taken from the specs
    when none are given; iterating builds :class:`Measurement` objects."""

    def __init__(self, specs=(), z=None, sigmas=None):
        self.specs = tuple(specs)
        self._items = None
        if z is None:
            self._items = self.specs
            z, sigmas = [m.value for m in self.specs], [m.sigma for m in self.specs]
        self.z = np.asarray(z, dtype=float)
        self.sigmas = np.asarray(sigmas, dtype=float)
        if self.z.shape != (len(self.specs),) or self.sigmas.shape != self.z.shape:
            raise ValidationError("value vector length mismatch")
        bad_sigma = ~(np.isfinite(self.sigmas) & (self.sigmas > 0.0))
        bad = np.flatnonzero(bad_sigma | ~np.isfinite(self.z))
        if len(bad):
            k = bad[0]
            what = "sigma must be positive and finite" if bad_sigma[k] else "value must be finite"
            raise ValidationError(f"measurement {self.specs[k].id}: {what}")

    @property
    def items(self) -> tuple[Measurement, ...]:
        if self._items is None:
            rows = zip(self.specs, self.z.tolist(), self.sigmas.tolist())
            self._items = tuple(replace(m, value=v, sigma=s) for m, v, s in rows)
        return self._items

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.items)

    def take(self, rows) -> "MeasurementSet":
        """The rows at positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return MeasurementSet(tuple(self.specs[k] for k in rows), self.z[rows], self.sigmas[rows])

    def with_values(self, values) -> "MeasurementSet":
        return MeasurementSet(self.specs, values, self.sigmas)


@dataclass(frozen=True)
class PlanEntry:
    """One line of a measurement plan (pre-expansion)."""

    kind: str  # 'inj' | 'flow' | 'pmu'
    bus: int | None = None
    branch: tuple[int, int] | None = None
    side: str = "from"


@dataclass(frozen=True)
class MeasurementPlan:
    entries: tuple[PlanEntry, ...]

    def pmu_buses(self):
        return tuple(e.bus for e in self.entries if e.kind == "pmu")

    def expand(self, net: PowerNetwork) -> tuple[Measurement, ...]:
        """Expand plan lines into concrete measurement specs (values unset).

        An injection contributes a P/Q pair; a flow a P/Q pair at its
        metered side; a PMU contributes the bus voltage phasor plus the
        current phasors of every incident branch, metered at the PMU bus.
        """
        specs = []
        mid = 0

        def emit(kind, **where):
            nonlocal mid
            specs.append(Measurement(mid, kind, value=0.0, sigma=1.0, **where))
            mid += 1

        for e in self.entries:
            if e.kind == "inj":
                net.bus(e.bus)
                emit("p_inj", bus=e.bus)
                emit("q_inj", bus=e.bus)
            elif e.kind == "flow":
                br = net.branch(*e.branch)
                side = e.side if e.branch == (br.f, br.t) else ("to" if e.side == "from" else "from")
                emit("p_flow", branch=(br.f, br.t), side=side)
                emit("q_flow", branch=(br.f, br.t), side=side)
            elif e.kind == "pmu":
                net.bus(e.bus)
                emit("pmu_vr", bus=e.bus)
                emit("pmu_vi", bus=e.bus)
                for br in net.branches:
                    if e.bus in (br.f, br.t):
                        side = "from" if br.f == e.bus else "to"
                        emit("pmu_ir", branch=(br.f, br.t), side=side)
                        emit("pmu_ii", branch=(br.f, br.t), side=side)
            else:
                raise ValidationError(f"unknown plan entry kind {e.kind!r}")
        return tuple(specs)


class _BusRows(NamedTuple):
    """Rows metering one bus: row indices, imaginary-part flags (``q_inj``,
    ``pmu_vi``) and bus positions in the view."""

    rows: np.ndarray
    imag: np.ndarray
    k: np.ndarray


class _BranchRows(NamedTuple):
    """Rows metering one branch end: row indices, imaginary-part flags
    (``q_flow``, ``pmu_ii``), metered and far bus positions and the
    metered-end admittances (I_m = ymm V_i + ymf V_j)."""

    rows: np.ndarray
    imag: np.ndarray
    i: np.ndarray
    j: np.ndarray
    ymm: np.ndarray
    ymf: np.ndarray


def _columns(entries, dtypes):
    cols = tuple(zip(*entries)) or ((),) * len(dtypes)
    return [np.array(c, dtype=d) for c, d in zip(cols, dtypes)]


_BUS_DTYPES = (np.intp, bool, np.intp)
_BRANCH_DTYPES = (np.intp, bool, np.intp, np.intp, complex, complex)
_IMAG_KINDS = frozenset(("q_inj", "q_flow", "pmu_vi", "pmu_ii"))


class _BlockRows:
    """Ybus rows of stacked views as (rows, bus columns) blocks: ``@``
    multiplies each block by its own view's voltages alone, so each
    product rounds as the view's own ``inj_y @ v``."""

    def __init__(self, blocks):
        self.blocks = blocks

    def __matmul__(self, v):
        return np.concatenate([y @ v[cols] for y, cols in self.blocks])


class CompiledSpecs:
    """A spec list compiled against one view into flat index arrays.

    Every check a row needs (bus inside the view, full neighborhood for
    injections, branch present) runs here, once; evaluation is then pure
    numpy over the row selections of each kind family.  Injection rows
    keep the Ybus rows of their distinct buses (``inj_bus``), which
    ``inj.k`` indexes.
    """

    def __init__(self, view: "ModelView", specs):
        inj, volt, flow, cur = [], [], [], []
        distinct: dict[int, int] = {}  # bus position -> index in inj_bus
        for r, m in enumerate(specs):
            imag = m.kind in _IMAG_KINDS
            if m.kind in INJECTION_KINDS:
                k = view.require(m.bus)
                if m.bus not in view.injection_ok:
                    raise ValidationError(
                        f"injection at bus {m.bus} needs neighbors outside the view"
                    )
                inj.append((r, imag, distinct.setdefault(k, len(distinct))))
            elif m.kind in PMU_VOLTAGE_KINDS:
                volt.append((r, imag, view.require(m.bus)))
            else:
                (flow if m.kind in FLOW_KINDS else cur).append((r, imag) + view.branch_ends(m))
        self.n_rows = len(specs)
        self.inj_bus = np.array(list(distinct), dtype=np.intp)
        self.inj = _BusRows(*_columns(inj, _BUS_DTYPES))
        self.inj_y = view.adm.y[self.inj_bus]
        self.volt = _BusRows(*_columns(volt, _BUS_DTYPES))
        self.flow = _BranchRows(*_columns(flow, _BRANCH_DTYPES))
        self.cur = _BranchRows(*_columns(cur, _BRANCH_DTYPES))
        self.inj_pat = ybus_pattern(self.inj_y, self.inj_bus)
        self._place(view.n_bus)

    @classmethod
    def stack(cls, parts, n_bus) -> "CompiledSpecs":
        """Compiled forms side by side, the k-th over ``n_bus[k]`` buses:
        its rows, buses, injection buses and Ybus pattern entries follow
        those of the forms before.  ``inj_y`` multiplies each form's Ybus
        rows by its own buses' voltages, so every value rounds as in that
        form's own evaluation."""
        out = cls.__new__(cls)
        bus = np.cumsum([0, *n_bus], dtype=np.intp)
        row, inj, entry = (np.cumsum([0, *sizes[:-1]], dtype=np.intp) for sizes in (
            [c.n_rows for c in parts], [len(c.inj_bus) for c in parts], [len(c.inj_pat.row) for c in parts]))

        def cat(field, *shifts):
            """``field``, a tuple of arrays, of every part side by side,
            column i of the k-th part shifted by shifts[i][k] (None: as is)."""
            tuples = [getattr(c, field) for c in parts]
            return type(tuples[0])(*(
                np.concatenate([v if d is None else v + d[k] for k, v in enumerate(col)])
                for col, d in zip(zip(*tuples), shifts)))

        out.n_rows = sum(c.n_rows for c in parts)
        out.inj_bus = np.concatenate([c.inj_bus + b for c, b in zip(parts, bus)])
        out.inj = cat("inj", row, None, inj)
        out.inj_y = _BlockRows([(c.inj_y, slice(a, b))
                                for c, a, b in zip(parts, bus, bus[1:]) if len(c.inj_bus)])
        out.volt = cat("volt", row, None, bus)
        out.flow = cat("flow", row, None, bus, bus, None, None)
        out.cur = cat("cur", row, None, bus, bus, None, None)
        out.inj_pat = cat("inj_pat", bus, bus, None, entry, None)
        out._place(int(bus[-1]))
        return out

    def _place(self, n):
        """The Jacobian's nonzeros over n buses: each injection row takes
        every Ybus pattern entry of its bus (``inj_entry``, real or
        imaginary part by ``inj_imag``); ``jac_at`` holds, in the order
        jacobian_polar lists its values, their flat Fortran-order places
        in [va | vm]."""
        pat = self.inj_pat
        per_row = pat.count[self.inj.k]
        skip = np.repeat(np.cumsum(pat.count)[self.inj.k] - np.cumsum(per_row), per_row)
        self.inj_entry = skip + np.arange(len(skip), dtype=np.intp)
        self.inj_imag = np.repeat(self.inj.imag, per_row)
        inj_rows, inj_col = np.repeat(self.inj.rows, per_row), pat.col[self.inj_entry]
        m = self.n_rows
        f, u, cu = self.flow, self.volt, self.cur
        places = (
            (inj_rows, inj_col), (inj_rows, n + inj_col),
            (f.rows, f.i), (f.rows, f.j), (f.rows, n + f.i), (f.rows, n + f.j),
            (u.rows, n + u.k), (u.rows, u.k),
            (cu.rows, n + cu.i), (cu.rows, cu.i), (cu.rows, n + cu.j), (cu.rows, cu.j),
        )
        self.jac_at = np.concatenate([rows + m * cols for rows, cols in places])


class ModelView:
    """Evaluation context: a bus layout with its induced admittance data.

    For an area view the layout is [internal, boundary, external]; the
    induced Ybus rows are exact for any bus whose whole neighborhood lies
    inside the layout (internal and boundary buses), which is the only
    place injections are evaluated.

    A view keeps the compiled form of the last spec list it evaluated
    (see :meth:`compile`), so repeated evaluation of one list compiles once;
    its copies share each branch end's terminal data (:meth:`branch_ends`).
    """

    def __init__(self, net: PowerNetwork, bus_ids, ref_bus):
        self.net = net
        self.bus_ids = tuple(bus_ids)
        self.ref_bus = ref_bus
        self.pos = {b: k for k, b in enumerate(self.bus_ids)}
        inside = set(self.bus_ids)
        self.branches = tuple(br for br in net.branches if br.f in inside and br.t in inside)
        self.adm = build_ybus(net, self.bus_ids, self.branches)
        adj = net.adjacency()
        self.injection_ok = frozenset(
            b for b in self.bus_ids if all(nb in inside for nb in adj[b])
        )
        self._compiled = None  # (spec tuple, CompiledSpecs)
        self._ends = {}  # (branch, side) -> branch_ends

    @classmethod
    def full(cls, net: PowerNetwork, ref_bus=None) -> "ModelView":
        return cls(net, net.bus_ids, ref_bus if ref_bus is not None else net.slack_bus.id)

    @classmethod
    def for_area(cls, net: PowerNetwork, part: AreaPartition, area_index: int) -> "ModelView":
        area = part.areas[area_index - 1]
        return cls(net, area.layout, area.ref_bus)

    @property
    def n_bus(self):
        return len(self.bus_ids)

    def require(self, bus_id) -> int:
        if bus_id not in self.pos:
            raise ValidationError(f"bus {bus_id} is outside this model view")
        return self.pos[bus_id]

    def branch_ends(self, m: Measurement):
        """(metered index, far index, metered-end admittances) for m's branch."""
        key = (m.branch, m.side)
        ends = self._ends.get(key)
        if ends is None:
            br = self.net.branch(*m.branch)
            yff, yft, ytf, ytt = br.admittances()
            i, j = self.require(br.f), self.require(br.t)
            ends = self._ends[key] = (i, j, yff, yft) if m.side == "from" else (j, i, ytt, ytf)
        return ends

    def compile(self, specs) -> CompiledSpecs:
        """Compiled form of ``specs``; raises ValidationError for a row the
        view cannot evaluate.

        Only the most recent spec list is kept, and it is reused only for
        an equal list, so a list mutated in place is compiled again.
        """
        key = tuple(specs)
        if self._compiled is None or self._compiled[0] != key:
            self._compiled = (key, CompiledSpecs(self, key))
        return self._compiled[1]

    def polar(self, state: StateVector):
        """(vm, va) of a polar state in this view's bus order: the pair
        :func:`h_eval` and :func:`jacobian_polar` take."""
        if state.coord != "polar":
            raise ValidationError("a model view expects a polar state")
        if state.bus_ids == self.bus_ids:
            return state.v1, state.v2
        order = [state.index(b) for b in self.bus_ids]
        return state.v1[order], state.v2[order]


class StackedView:
    """Views side by side, each with its own spec list, for one
    :func:`h_eval` or :func:`jacobian_polar` call over all of them: the
    k-th view's buses and rows follow those of the views before it
    (:meth:`CompiledSpecs.stack`), and every value rounds as in the k-th
    view's own evaluation."""

    def __init__(self, views, spec_lists):
        spec_lists = [tuple(specs) for specs in spec_lists]
        self.specs = tuple(m for specs in spec_lists for m in specs)
        self.n_bus = sum(view.n_bus for view in views)
        parts = [view.compile(specs) for view, specs in zip(views, spec_lists)]
        self._compiled = CompiledSpecs.stack(parts, [view.n_bus for view in views])

    def compile(self, specs) -> CompiledSpecs:
        if specs is not self.specs and tuple(specs) != self.specs:
            raise ValidationError("specs do not match the stacked views' own")
        return self._compiled


def h_eval(view: ModelView, polar, specs) -> np.ndarray:
    """Evaluate the nonlinear measurement functions at ``polar``, the
    (vm, va) pair in the view's bus order (:meth:`ModelView.polar` of a
    :class:`StateVector`).

    Only the measurement families the compiled specs hold are evaluated."""
    vm, va = polar
    c = view.compile(specs)
    v = vm * np.exp(1j * va)
    out = np.empty(c.n_rows)

    if len(c.inj.rows):
        s = (v[c.inj_bus] * np.conj(c.inj_y @ v))[c.inj.k]
        out[c.inj.rows] = np.where(c.inj.imag, s.imag, s.real)

    u = c.volt
    if len(u.rows):
        vmk, vak = vm[u.k], va[u.k]
        out[u.rows] = np.where(u.imag, vmk * np.sin(vak), vmk * np.cos(vak))

    f = c.flow
    if len(f.rows):
        vi = v[f.i]
        s = vi * np.conj(f.ymm * vi + f.ymf * v[f.j])
        out[f.rows] = np.where(f.imag, s.imag, s.real)

    u = c.cur
    if len(u.rows):
        cur = u.ymm * v[u.i] + u.ymf * v[u.j]
        out[u.rows] = np.where(u.imag, cur.imag, cur.real)
    return out


def jacobian_polar(view: ModelView, polar, specs, dense: bool = True) -> np.ndarray:
    """Analytic H = dh/dx at ``polar`` (as :func:`h_eval`'s) for the polar
    layout [va (all); vm (all)].

    Only the places the compiled specs record as structurally nonzero are
    evaluated, and only for the measurement families the specs hold.  H
    is written in Fortran order, the order of the flat places
    ``CompiledSpecs.jac_at`` lists; no gain product reads a dense H, only
    :func:`gridstate.wls.check_observable`'s rank test.  With
    ``dense=False`` the nonzero values alone come back, in that order.
    """
    vm, va = polar
    c = view.compile(specs)
    values = []

    if len(c.inj.rows):
        # only the metered buses' rows of the Ybus
        v = vm * np.exp(1j * va)
        s = v[c.inj_bus] * np.conj(c.inj_y @ v)
        dva_p, dvm_p, dva_q, dvm_q = injection_jacobian(c.inj_pat, vm, va, s.real, s.imag)
        e, im = c.inj_entry, c.inj_imag
        values += [np.where(im, dva_q[e], dva_p[e]), np.where(im, dvm_q[e], dvm_p[e])]

    f = c.flow
    if len(f.rows):
        vi, vj = vm[f.i], vm[f.j]
        g1, b1 = f.ymm.real, f.ymm.imag
        g2, b2 = f.ymf.real, f.ymf.imag
        th = va[f.i] - va[f.j]
        cth, sth = np.cos(th), np.sin(th)
        dth = vi * vj * np.where(f.imag, g2 * cth + b2 * sth, -g2 * sth + b2 * cth)
        values += [
            dth,
            -dth,
            np.where(
                f.imag,
                -2.0 * vi * b1 + vj * (g2 * sth - b2 * cth),
                2.0 * vi * g1 + vj * (g2 * cth + b2 * sth),
            ),
            vi * np.where(f.imag, g2 * sth - b2 * cth, g2 * cth + b2 * sth),
        ]

    u = c.volt
    if len(u.rows):
        vmk, ck, sk = vm[u.k], np.cos(va[u.k]), np.sin(va[u.k])
        values += [np.where(u.imag, sk, ck), np.where(u.imag, vmk * ck, -vmk * sk)]

    u = c.cur
    if len(u.rows):
        for k, y in ((u.i, u.ymm), (u.j, u.ymf)):
            gk, bk = y.real, y.imag
            ck, sk = np.cos(va[k]), np.sin(va[k])
            values += [
                np.where(u.imag, gk * sk + bk * ck, gk * ck - bk * sk),
                vm[k] * np.where(u.imag, gk * ck - bk * sk, -gk * sk - bk * ck),
            ]

    values = np.concatenate(values) if values else np.zeros(0)
    if not dense:
        return values
    out = np.zeros(c.n_rows * 2 * view.n_bus)
    out[c.jac_at] = values
    return out.reshape((c.n_rows, 2 * view.n_bus), order="F")


def jacobian_rect(view: ModelView, specs) -> np.ndarray:
    """Constant H over the rectangular layout [vr (n); vi (n)].

    Only measurement kinds that are linear in rectangular coordinates are
    supported: PMU voltage rows are 0/1 selectors, PMU current rows carry
    branch-admittance coefficients.
    """
    for m in specs:
        if m.kind not in PMU_KINDS:
            raise ValidationError(f"{m.kind} is not linear in rectangular coordinates")
    c = view.compile(specs)
    n = view.n_bus
    h = np.zeros((c.n_rows, 2 * n))
    u = c.volt
    h[u.rows, u.k + n * u.imag] = 1.0
    u = c.cur
    for k, y in ((u.i, u.ymm), (u.j, u.ymf)):
        h[u.rows, k] = np.where(u.imag, y.imag, y.real)
        h[u.rows, n + k] = np.where(u.imag, y.real, -y.imag)
    return h


def synthesize(view: ModelView, true_state: StateVector, specs, sigma_for, rng) -> MeasurementSet:
    """True values plus independent Gaussian noise, deterministic under rng.

    ``sigma_for(kind)`` gives a measurement kind's standard deviation; the
    generator is owned by the caller (a ``sigma_for`` returning 0 gives
    exact h values -- noise is drawn as sigma * N(0,1), so a zero sigma
    reproduces h exactly under any seed).  One h evaluation and one noise
    vector fill the set's value arrays.
    """
    specs = tuple(specs)
    truth = h_eval(view, view.polar(true_state), specs)
    sig = {}
    for m in specs:
        if m.kind not in sig:
            sig[m.kind] = float(sigma_for(m.kind))
    scale = np.array([sig[m.kind] for m in specs])
    z = truth + scale * rng.standard_normal(len(specs))
    return MeasurementSet(specs, z, np.where(scale > 0.0, scale, 1.0))


# ---------------------------------------------------------------------------
# polar <-> rectangular conversion with covariance transport


def _transport(cov, j11, j12, j21, j22):
    """J C J^T for J = [[diag(j11), diag(j12)], [diag(j21), diag(j22)]]:
    each output block is a row- and column-scaled sum of C's blocks."""
    n = len(j11)
    jc = np.vstack([j11[:, None] * cov[:n] + j12[:, None] * cov[n:],
                    j21[:, None] * cov[:n] + j22[:, None] * cov[n:]])
    return np.hstack([jc[:, :n] * j11 + jc[:, n:] * j12, jc[:, :n] * j21 + jc[:, n:] * j22])


def polar_to_rect(state: StateVector, cov=None):
    """(V, theta) -> (V cos theta, V sin theta); covariance transported by
    first-order propagation C_rect = J C_polar J^T.

    ``cov``, when given, must be over the full [va; vm] layout (use
    :meth:`gridstate.wls.PolarModel.embed_cov` for pinned-reference
    estimates).
    """
    if state.coord != "polar":
        raise ValidationError("polar_to_rect expects a polar state")
    vm, va = state.v1, state.v2
    rect = StateVector(
        "rect", state.bus_ids, vm * np.cos(va), vm * np.sin(va), ref_bus=state.ref_bus
    )
    if cov is None:
        return rect, None
    c, s = np.cos(va), np.sin(va)
    # d(vr, vi)/d(va, vm)
    return rect, _transport(cov, -vm * s, c, vm * c, s)


def rect_to_polar(state: StateVector, cov=None):
    """Inverse conversion; angles in (-pi, pi].  Covariance over [vr; vi]
    comes back over the full [va; vm] layout."""
    if state.coord != "rect":
        raise ValidationError("rect_to_polar expects a rectangular state")
    vr, vi = state.v1, state.v2
    vm = np.hypot(vr, vi)
    if np.any(vm <= 0.0):
        raise ValidationError("cannot convert zero phasor to polar")
    va = np.arctan2(vi, vr)
    polar = StateVector("polar", state.bus_ids, vm, va, ref_bus=state.ref_bus)
    if cov is None:
        return polar, None
    # d(va, vm)/d(vr, vi)
    return polar, _transport(cov, -vi / vm**2, vr / vm**2, vr / vm, vi / vm)


def wrap_angle(delta):
    """Wrap angle differences into (-pi, pi]."""
    return -np.mod(-np.asarray(delta) + np.pi, 2.0 * np.pi) + np.pi


# ---------------------------------------------------------------------------
# redundancy bookkeeping


def redundancy(net: PowerNetwork, part: AreaPartition, plan: MeasurementPlan):
    """Per-area (measurement count, state dimension, eta = m/n) for the
    level-1 SCADA models; warnings for any area below eta = 1.0."""
    specs = plan.expand(net)
    from .netmodel import boundary_measurement_ownership

    scada = [m for m in specs if m.kind in INJECTION_KINDS + FLOW_KINDS]
    owned = boundary_measurement_ownership(part, scada)
    report = {}
    warnings = []
    for area in part.areas:
        m_count = len(owned[area.index])
        n_state = 2 * len(area.layout) - 1
        eta = m_count / n_state
        report[area.index] = (m_count, n_state, eta)
        if eta < 1.0:
            warnings.append(
                f"area {area.index}: eta = {eta:.3f} < 1.0 "
                f"({m_count} measurements for {n_state} states); likely unobservable"
            )
    return report, warnings
