"""Power-network model, admittance matrix, and multi-area decomposition.

All quantities are per-unit on the network's MVA base; angles are radians.
Every type here is an immutable (frozen) dataclass, safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError, ValidationError

SLACK = "slack"
GENERATOR = "generator"
LOAD = "load"

BUS_KINDS = (SLACK, GENERATOR, LOAD)


@dataclass(frozen=True)
class Bus:
    """One network bus.

    ``p`` and ``q`` are the scheduled net injections (generation minus
    demand); ``gs``/``bs`` the shunt admittance connected at the bus.
    """

    id: int
    kind: str
    vm: float = 1.0
    va: float = 0.0
    p: float = 0.0
    q: float = 0.0
    gs: float = 0.0
    bs: float = 0.0

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValidationError(f"bus {self.id}: unknown kind {self.kind!r}")
        if self.vm <= 0.0:
            raise ValidationError(f"bus {self.id}: non-positive voltage setpoint")


@dataclass(frozen=True)
class Branch:
    """Pi-model branch with optional off-nominal tap (from side) and phase shift."""

    f: int
    t: int
    r: float
    x: float
    b: float = 0.0
    tap: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.f == self.t:
            raise ValidationError(f"branch {self.f}-{self.t}: endpoints coincide")
        if self.r == 0.0 and self.x == 0.0:
            raise ValidationError(f"branch {self.f}-{self.t}: zero series impedance")
        if self.tap <= 0.0:
            raise ValidationError(f"branch {self.f}-{self.t}: non-positive tap")

    def admittances(self):
        """Terminal admittances (yff, yft, ytf, ytt) of the pi model.

        Metered-end current is I_f = yff*Vf + yft*Vt (and symmetrically
        I_t = ytf*Vf + ytt*Vt); these same four values stamp the Ybus.
        """
        ys = 1.0 / complex(self.r, self.x)
        bc = 0.5j * self.b
        a = self.tap * np.exp(1j * self.shift)
        yff = (ys + bc) / (self.tap * self.tap)
        yft = -ys / np.conj(a)
        ytf = -ys / a
        ytt = ys + bc
        return yff, yft, ytf, ytt


@dataclass(frozen=True)
class PowerNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise StructureError(f"duplicate bus ids: {dup}")
        slacks = [b.id for b in self.buses if b.kind == SLACK]
        if len(slacks) != 1:
            raise StructureError(f"expected exactly one slack bus, found {slacks}")
        known = set(ids)
        for br in self.branches:
            if br.f not in known or br.t not in known:
                raise StructureError(f"branch {br.f}-{br.t} references unknown bus")
        if self.buses and not self._connected():
            raise StructureError("bus-connectivity graph is not connected")
        # lookup tables; a parallel branch keeps the first entry in
        # ``branches`` order for either orientation
        ends: dict[tuple[int, int], Branch] = {}
        for br in self.branches:
            ends.setdefault((br.f, br.t), br)
            ends.setdefault((br.t, br.f), br)
        object.__setattr__(self, "_by_id", {b.id: b for b in self.buses})
        object.__setattr__(self, "_by_ends", ends)

    def _connected(self):
        adj = self.adjacency()
        start = self.buses[0].id
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def bus_ids(self):
        return tuple(b.id for b in self.buses)

    def bus(self, bus_id: int) -> Bus:
        try:
            return self._by_id[bus_id]
        except KeyError:
            raise ValidationError(f"unknown bus id {bus_id}") from None

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind == SLACK)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.f].add(br.t)
            adj[br.t].add(br.f)
        return adj

    def branch(self, f: int, t: int) -> Branch:
        """Branch between f and t, either orientation; the first in
        ``branches`` order when several are parallel."""
        try:
            return self._by_ends[(f, t)]
        except KeyError:
            raise ValidationError(f"no branch between buses {f} and {t}") from None


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense bus admittance matrix over a fixed bus ordering."""

    bus_ids: tuple[int, ...]
    y: np.ndarray

    @property
    def g(self):
        return self.y.real

    @property
    def b(self):
        return self.y.imag

    def index(self, bus_id: int) -> int:
        return self.bus_ids.index(bus_id)


def build_ybus(net: PowerNetwork, bus_ids=None, branches=None) -> AdmittanceMatrix:
    """Assemble the bus admittance matrix from branch pi-model stamps and shunts.

    ``bus_ids``/``branches`` restrict the assembly to an induced sub-model
    (used for per-area measurement models); by default the full network.
    """
    if bus_ids is None:
        bus_ids = net.bus_ids
    if branches is None:
        ids = set(bus_ids)
        branches = [br for br in net.branches if br.f in ids and br.t in ids]
    pos = {bid: k for k, bid in enumerate(bus_ids)}
    n = len(bus_ids)
    y = np.zeros((n, n), dtype=complex)
    for br in branches:
        yff, yft, ytf, ytt = br.admittances()
        i, j = pos[br.f], pos[br.t]
        y[i, i] += yff
        y[i, j] += yft
        y[j, i] += ytf
        y[j, j] += ytt
    for bid in bus_ids:
        bus = net.bus(bid)
        y[pos[bid], pos[bid]] += complex(bus.gs, bus.bs)
    return AdmittanceMatrix(tuple(bus_ids), y)


@dataclass(frozen=True)
class Area:
    """One area of a partition with its bus classification.

    ``layout`` fixes the state-vector bus order: internal, then boundary,
    then external, each ascending by bus id.
    """

    index: int
    internal: tuple[int, ...]
    boundary: tuple[int, ...]
    external: tuple[int, ...]
    ref_bus: int

    @property
    def own(self):
        """Buses assigned to this area (internal + boundary)."""
        return self.internal + self.boundary

    @property
    def layout(self):
        return self.internal + self.boundary + self.external


@dataclass(frozen=True)
class AreaPartition:
    area_count: int
    assignment: dict[int, int] = field(compare=False)
    areas: tuple[Area, ...] = ()
    tie_lines: tuple[Branch, ...] = ()

    @property
    def global_ref(self) -> int:
        return self.areas[0].ref_bus

    def area_of(self, bus_id: int) -> int:
        return self.assignment[bus_id]

    def is_tie(self, branch: Branch) -> bool:
        return self.assignment[branch.f] != self.assignment[branch.t]

    def boundary_buses(self) -> tuple[int, ...]:
        out = []
        for a in self.areas:
            out.extend(a.boundary)
        return tuple(sorted(out))


def partition(net: PowerNetwork, assignment: dict[int, int], local_refs: dict[int, int]) -> AreaPartition:
    """Classify every bus of every area as internal/boundary/external.

    ``assignment`` maps bus id -> 1-based area index and must cover all
    buses; ``local_refs`` maps area index -> its reference bus.  A bus is
    boundary for its own area when it has at least one neighbor in another
    area; it is external to area i when it lies in another area and is
    adjacent to one of area i's boundary buses.
    """
    for b in net.buses:
        if b.id not in assignment:
            raise ValidationError(f"bus {b.id} missing from area assignment")
    for bid in assignment:
        net.bus(bid)
    indices = sorted(set(assignment.values()))
    if indices != list(range(1, len(indices) + 1)):
        raise ValidationError(f"area indices must be 1..r, got {indices}")
    r = len(indices)
    if sorted(local_refs) != indices:
        raise ValidationError("local_refs must name exactly one bus per area")

    adj = net.adjacency()
    areas = []
    for i in indices:
        own = sorted(bid for bid, a in assignment.items() if a == i)
        boundary = tuple(b for b in own if any(assignment[nb] != i for nb in adj[b]))
        internal = tuple(b for b in own if b not in boundary)
        ext = sorted({nb for b in boundary for nb in adj[b] if assignment[nb] != i})
        ref = local_refs[i]
        if assignment.get(ref) != i:
            raise ValidationError(f"reference bus {ref} is not assigned to area {i}")
        areas.append(Area(i, internal, boundary, tuple(ext), ref))

    ties = tuple(br for br in net.branches if assignment[br.f] != assignment[br.t])
    return AreaPartition(r, dict(assignment), tuple(areas), ties)


def single_area(net: PowerNetwork, ref_bus=None) -> AreaPartition:
    """Degenerate one-area partition covering the whole network."""
    if ref_bus is None:
        ref_bus = net.slack_bus.id
    return partition(net, {b.id: 1 for b in net.buses}, {1: ref_bus})


def boundary_measurement_ownership(part: AreaPartition, measurements) -> dict[int, list[int]]:
    """Assign every measurement to exactly one area.

    Injections belong to the bus's area; flows and PMU rows to the area of
    the metered bus.  Returns {area index: [measurement ids]}.
    """
    owned: dict[int, list[int]] = {a.index: [] for a in part.areas}
    for m in measurements:
        owned[owning_area(part, m)].append(m.id)
    return owned


def owning_area(part: AreaPartition, m) -> int:
    """The index of the area that owns measurement ``m``: the area of its
    metered bus."""
    bus = m.metered_bus()
    if bus not in part.assignment:
        raise ValidationError(f"measurement {m.id} references unknown bus {bus}")
    return part.assignment[bus]
