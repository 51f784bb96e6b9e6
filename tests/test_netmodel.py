import numpy as np
import pytest

from gridstate.errors import StructureError, ValidationError
from gridstate.netmodel import (
    Branch,
    Bus,
    PowerNetwork,
    boundary_measurement_ownership,
    build_ybus,
    partition,
    single_area,
)


def test_two_bus_series_reactance_ybus():
    net = PowerNetwork((Bus(1, "slack"), Bus(2, "load")), (Branch(1, 2, 0.0, 0.1),))
    y = build_ybus(net).y
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y, expected, atol=1e-12)


def test_shunt_only_submodel_ybus():
    # shunt at bus 1, branch excluded from the stamped set
    net = PowerNetwork(
        (Bus(1, "slack", bs=0.05), Bus(2, "load")), (Branch(1, 2, 0.0, 0.1),)
    )
    y = build_ybus(net, bus_ids=(1, 2), branches=()).y
    assert np.allclose(y, np.diag([0.05j, 0.0]), atol=1e-15)


def test_ieee30_ybus_against_independent_stamping(net30):
    adm = build_ybus(net30)
    # independent oracle: accumulate every branch's four terminal stamps by
    # scanning buses pairwise, plus shunts
    ids = list(net30.bus_ids)
    n = len(ids)
    oracle = np.zeros((n, n), dtype=complex)
    for br in net30.branches:
        ys = 1.0 / complex(br.r, br.x)
        a = br.tap * np.exp(1j * br.shift)
        i, j = ids.index(br.f), ids.index(br.t)
        oracle[i, i] += (ys + 0.5j * br.b) / abs(a) ** 2
        oracle[j, j] += ys + 0.5j * br.b
        oracle[i, j] += -ys / np.conj(a)
        oracle[j, i] += -ys / a
    for k, bid in enumerate(ids):
        b = net30.bus(bid)
        oracle[k, k] += complex(b.gs, b.bs)
    assert np.abs(adm.y - oracle).max() < 1e-12


def test_ybus_linear_in_branch_stamps(net30):
    rng = np.random.default_rng(4)
    picks = rng.random(len(net30.branches)) < 0.5
    part_a = tuple(br for br, p in zip(net30.branches, picks) if p)
    part_b = tuple(br for br, p in zip(net30.branches, picks) if not p)
    ids = net30.bus_ids
    ya = build_ybus(net30, ids, part_a).y
    yb = build_ybus(net30, ids, part_b).y
    yfull = build_ybus(net30, ids, net30.branches).y
    shunts = np.diag([complex(net30.bus(b).gs, net30.bus(b).bs) for b in ids])
    assert np.abs(ya + yb - shunts - yfull).max() < 1e-12


def test_invalid_branch_and_structure_errors():
    with pytest.raises(ValidationError):
        Branch(1, 2, 0.0, 0.0)
    with pytest.raises(ValidationError):
        Branch(1, 1, 0.0, 0.1)
    with pytest.raises(StructureError):
        PowerNetwork((Bus(1, "slack"), Bus(1, "load")), ())
    with pytest.raises(StructureError):
        PowerNetwork((Bus(1, "slack"), Bus(2, "load")), ())  # disconnected
    with pytest.raises(StructureError):
        PowerNetwork((Bus(1, "load"), Bus(2, "load")), (Branch(1, 2, 0.0, 0.1),))
    with pytest.raises(StructureError):
        PowerNetwork(
            (Bus(1, "slack"), Bus(2, "load")),
            (Branch(1, 3, 0.0, 0.1),),
        )


def test_partition_reproduces_paper_table(net30, part30):
    counts = [(len(a.internal), len(a.boundary), len(a.external)) for a in part30.areas]
    assert counts == [(5, 3, 4), (9, 5, 4), (5, 3, 4)]
    listed = {4, 6, 9, 10, 12, 15, 22, 23, 24, 28}
    assert listed <= set(part30.boundary_buses())
    assert part30.global_ref == 4
    assert [a.ref_bus for a in part30.areas] == [4, 15, 24]
    assert len(part30.tie_lines) == 7


def test_partition_layout_and_consistency(net30, part30):
    adj = net30.adjacency()
    all_own = []
    for a in part30.areas:
        assert a.layout == a.internal + a.boundary + a.external
        assert list(a.internal) == sorted(a.internal)
        assert not set(a.internal) & set(a.boundary)
        all_own.extend(a.own)
        # external set definition
        expected_ext = {
            nb for b in a.boundary for nb in adj[b] if part30.area_of(nb) != a.index
        }
        assert set(a.external) == expected_ext
    assert sorted(all_own) == sorted(net30.bus_ids)


def test_single_area_partition(net30):
    part = single_area(net30)
    a = part.areas[0]
    assert len(a.internal) == 30 and not a.boundary and not a.external
    assert not part.tie_lines


def test_two_bus_two_areas():
    net = PowerNetwork((Bus(1, "slack"), Bus(2, "load")), (Branch(1, 2, 0.0, 0.1),))
    part = partition(net, {1: 1, 2: 2}, {1: 1, 2: 2})
    assert part.areas[0].boundary == (1,)
    assert part.areas[0].external == (2,)
    assert part.areas[1].boundary == (2,)
    assert part.areas[1].external == (1,)
    assert len(part.tie_lines) == 1


def test_partition_errors(net30):
    full = {b.id: 1 for b in net30.buses}
    with pytest.raises(ValidationError):
        partition(net30, {k: v for k, v in full.items() if k != 7}, {1: 1})
    with pytest.raises(ValidationError):
        partition(net30, full, {1: 999})
    two = dict(full)
    two[30] = 2
    with pytest.raises(ValidationError):
        partition(net30, two, {1: 1, 2: 1})  # ref 1 not in area 2... wrong refs
    # disconnected area indices
    bad = dict(full)
    bad[30] = 5
    with pytest.raises(ValidationError):
        partition(net30, bad, {1: 1, 5: 30})


def test_classification_permutation_equivariance(net30, part30):
    # relabel every bus id through a fixed bijection and re-partition
    ids = sorted(net30.bus_ids)
    rng = np.random.default_rng(11)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    relabel = dict(zip(ids, shuffled))
    buses = tuple(
        Bus(relabel[b.id], b.kind, b.vm, b.va, b.p, b.q, b.gs, b.bs) for b in net30.buses
    )
    branches = tuple(
        Branch(relabel[br.f], relabel[br.t], br.r, br.x, br.b, br.tap, br.shift)
        for br in net30.branches
    )
    net2 = PowerNetwork(buses, branches, net30.base_mva)
    assign2 = {relabel[b]: part30.area_of(b) for b in ids}
    refs2 = {a.index: relabel[a.ref_bus] for a in part30.areas}
    part2 = partition(net2, assign2, refs2)
    for a1, a2 in zip(part30.areas, part2.areas):
        assert sorted(relabel[b] for b in a1.internal) == list(a2.internal)
        assert sorted(relabel[b] for b in a1.boundary) == list(a2.boundary)
        assert sorted(relabel[b] for b in a1.external) == list(a2.external)


def test_measurement_ownership_rules(net30, part30, plan30):
    specs = plan30.expand(net30)
    owned = boundary_measurement_ownership(part30, specs)
    assert sum(len(v) for v in owned.values()) == len(specs)
    by_id = {m.id: m for m in specs}
    # injection at a boundary bus of area 1 belongs to area 1 only
    inj6 = [m.id for m in specs if m.kind == "p_inj" and m.bus == 6]
    assert inj6 and all(i in owned[1] and i not in owned[2] for i in inj6)
    # internal flow owned by the enclosing area
    internal = [m.id for m in specs if m.kind == "p_flow" and m.branch == (12, 13)]
    assert internal and all(i in owned[2] for i in internal)
    # tie-line flow follows the metered side
    for m in specs:
        if m.kind in ("p_flow", "q_flow") and m.branch == (6, 9):
            expected = 1 if m.side == "from" else 2
            assert m.id in owned[expected]
    # every measurement in exactly one area
    seen = [i for v in owned.values() for i in v]
    assert len(seen) == len(set(seen)) == len(by_id)


def test_branch_lookup_orientation_parallel_and_unknown():
    buses = (Bus(1, "slack"), Bus(2, "load"), Bus(3, "load"))
    first, second, other = Branch(2, 1, 0.01, 0.1), Branch(1, 2, 0.02, 0.2), Branch(2, 3, 0.0, 0.1)
    net = PowerNetwork(buses, (first, second, other))
    # either orientation finds the first of the two parallel branches
    assert net.branch(2, 1) is first
    assert net.branch(1, 2) is first
    assert net.branch(3, 2) is other
    swapped = PowerNetwork(buses, (second, first, other))
    assert swapped.branch(2, 1) is second and swapped.branch(1, 2) is second
    with pytest.raises(ValidationError):
        net.branch(1, 3)
    with pytest.raises(ValidationError):
        net.branch(1, 99)


def test_bus_lookup(net30):
    assert all(net30.bus(b.id) is b for b in net30.buses)
    with pytest.raises(ValidationError):
        net30.bus(999)
