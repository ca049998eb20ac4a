from __future__ import annotations

import cmath
import math
import random

import pytest

from faultlab import network
from faultlab.abc_oracle import solve_abc
from faultlab.harness import solve_scenario
from faultlab.network import (
    GROUND,
    BusReading,
    FaultCategory,
    FaultSpec,
    FaultType,
    InjectionElement,
    NetworkModel,
    Placement,
    RelayTap,
    SEQUENCES,
    SeriesElement,
    SingularNetworkError,
    SourceElement,
    solve_fault,
    solve_fault_boundary,
    solve_linear,
    TheveninEquivalent,
)
from faultlab.phasors import ALPHA, SequenceTriple, from_polar, fortescue
from faultlab.presets import PRESETS, preset_scenario_overrides
from faultlab.scenario import _clear_memos, build_scenario
from test_sources import _has_negative_zero, _newton_matrix


def _radial_net(z_src: complex, z_line: complex, z0_src: complex | None = None) -> NetworkModel:
    """Source behind z_src feeding one series branch to the fault node."""
    z0 = z0_src if z0_src is not None else z_src
    return NetworkModel(
        elements=(
            SourceElement("src", "s", e1=1.0 + 0j, z1=z_src, z2=z_src, z0=z0),
            SeriesElement("ln", "s", "f", z_line, z_line, z_line),
        ),
        fault_node="f",
        source_node="s",
        z_base_fault_ohm=1.0,
        relay_taps={"s": RelayTap("s", "ln", +1.0)},
    )


def test_thevenin_of_series_branches() -> None:
    net = _radial_net(0.2j, 0.3j)
    th = solve_fault(net, FaultSpec()).thevenin
    assert th.z1 == pytest.approx(0.5j, abs=1e-12)
    assert th.z2 == pytest.approx(0.5j, abs=1e-12)
    # no load current flows in the healthy radial network
    assert th.e_f == pytest.approx(1.0 + 0j, abs=1e-12)
    assert abs(th.e_f2) < 1e-12 and abs(th.e_f0) < 1e-12


@pytest.mark.parametrize("placement", ["forward", "reverse"])
def test_thevenin_probes_match_full_three_sequence_solves(placement: str) -> None:
    """The probe and base columns of one build equal separate direct solves."""
    scenario = build_scenario({"source.kind": "sg", "fault.placement": placement, "fault.m": 0.3})
    net = scenario.net.with_elements(
        SourceElement("src", scenario.net.source_node, e1=1.05 + 0.1j, z1=0.2j, z2=0.2j, z0=0.1j)
    )
    th = solve_fault(net, scenario.fault).thevenin
    for seq, z in ((1, th.z1), (2, th.z2), (0, th.z0)):
        probe = solve_linear(
            net, zero_sources=True, extra_injections={seq: (net.fault_node, 1.0 + 0j)}
        )
        assert z == probe.v[seq][net.fault_node]
    base = solve_linear(net)
    assert th.e_f == base.v[1][net.fault_node]
    assert th.e_f2 == base.v[2][net.fault_node]
    assert th.e_f0 == base.v[0][net.fault_node]


def test_positive_sequence_only_solve_matches_the_full_solve() -> None:
    net = _radial_net(0.2j, 0.3j).with_elements(
        SourceElement("far", "f", e1=0.9 - 0.1j, z1=0.4j, z2=0.4j, z0=None)
    )
    full = solve_linear(net)
    pos = solve_linear(net, sequences=(1,))
    assert pos.v[1] == full.v[1]
    for eid in ("src", "ln", "far"):
        assert pos.current(1, eid) == full.current(1, eid)
    with pytest.raises(KeyError):
        pos.voltage("s")


def test_reading_an_unknown_element_raises_key_error() -> None:
    sol = solve_linear(_radial_net(0.2j, 0.3j))
    with pytest.raises(KeyError):
        sol.current(1, "nowhere")
    with pytest.raises(KeyError):
        sol.reading(RelayTap("s", "nowhere", +1.0))


@pytest.mark.parametrize("seq", SEQUENCES)
def test_reading_the_current_of_an_injection_or_an_unknown_eid_raises_key_error(seq) -> None:
    """An injection has no branch to read a current off: no plan entry, as
    for an eid the network does not hold. The last element of an eid wins,
    so an injection named like an earlier branch hides that branch."""
    net = _radial_net(0.2j, 0.3j)
    net = net.with_elements(
        InjectionElement("inj", "f", 0.1 + 0j, 0.05j), InjectionElement("ln", "f", 0j, 0j)
    )
    sol = solve_linear(net)
    for eid in ("inj", "ln", "nowhere"):
        with pytest.raises(KeyError):
            sol.current(seq, eid)
        with pytest.raises(KeyError):
            sol.series_current(eid)
    # the source is still read through its own entry: its emf less its node's voltage
    emf = 1.0 + 0j if seq == 1 else 0j
    assert sol.current(seq, "src") == (emf - sol.v[seq]["s"]) / 0.2j


def test_boundary_three_phase_bolted() -> None:
    th = TheveninEquivalent(z1=0.5j, z2=0.5j, z0=0.2j, e_f=1.0 + 0j)
    i = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.ABC), z_base_ohm=1.0)
    assert i.pos == pytest.approx(-2.0j, abs=1e-12)  # 2 at -90 degrees
    assert abs(i.neg) < 1e-12 and abs(i.zero) < 1e-12


def test_boundary_single_line_ground_frozen_and_abc_oracle() -> None:
    # series interconnection of the three networks: 1 / (j0.5 + j0.5 + j0.2)
    th = TheveninEquivalent(z1=0.5j, z2=0.5j, z0=0.2j, e_f=1.0 + 0j)
    i = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.AG), z_base_ohm=1.0)
    expected = 1.0 / 1.2j
    for part in (i.pos, i.neg, i.zero):
        assert part == pytest.approx(expected, abs=1e-12)
    assert abs(i.pos) == pytest.approx(0.833333, abs=1e-6)

    # same circuit as explicit elements, solved in phase coordinates: the
    # source delivers exactly the fault current into the faulted node
    net = NetworkModel(
        elements=(SourceElement("src", "f", e1=1.0 + 0j, z1=0.5j, z2=0.5j, z0=0.2j),),
        fault_node="f",
        source_node="f",
        z_base_fault_ohm=1.0,
    )
    seq_i = solve_fault(net, FaultSpec(fault_type=FaultType.AG)).i_fault
    abc = solve_abc(net, FaultSpec(fault_type=FaultType.AG))
    from_phases = fortescue(abc.source_current("src"))
    assert (seq_i - from_phases).max_abs() < 1e-10
    assert seq_i.pos == pytest.approx(expected, abs=1e-12)


def test_boundary_double_line_ground_divider_geometry() -> None:
    # equal negative and zero impedances split the return path evenly:
    # i2 and i0 in phase with each other, together opposing i1
    th = TheveninEquivalent(z1=0.3j, z2=0.3j, z0=0.3j, e_f=1.0 + 0j)
    i = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.BCG), z_base_ohm=1.0)
    assert cmath.phase(i.neg / i.zero) == pytest.approx(0.0, abs=1e-12)
    assert abs(math.degrees(cmath.phase(i.neg / i.pos))) == pytest.approx(180.0, abs=1e-9)
    # and the three currents sum to the (zero) phase-a fault current
    assert abs(i.pos + i.neg + i.zero) < 1e-12


def test_boundary_against_classical_llg_formula() -> None:
    z1, z2, z0 = 0.1 + 0.4j, 0.12 + 0.35j, 0.3 + 1.0j
    e = from_polar(1.02, 4.0)
    r_ohm, z_base = 5.0, 242.0
    r = r_ohm / z_base
    th = TheveninEquivalent(z1=z1, z2=z2, z0=z0, e_f=e)
    i = solve_fault_boundary(
        th, FaultSpec(fault_type=FaultType.BCG, r_g_ohm=r_ohm), z_base_ohm=z_base
    )
    # classical current-divider form, written independently
    zg = z0 + 3.0 * r
    i1 = e / (z1 + z2 * zg / (z2 + zg))
    i2 = -i1 * zg / (z2 + zg)
    i0 = -i1 * z2 / (z2 + zg)
    assert i.pos == pytest.approx(i1, rel=1e-12)
    assert i.neg == pytest.approx(i2, rel=1e-12)
    assert i.zero == pytest.approx(i0, rel=1e-12)


@pytest.mark.parametrize("fault_type", [FaultType.AG, FaultType.BC, FaultType.BCG, FaultType.ABC])
def test_bolted_boundary_on_zero_impedances_is_singular(fault_type: FaultType) -> None:
    th = TheveninEquivalent(z1=0j, z2=0j, z0=0j, e_f=1.0 + 0j)
    message = f"^{fault_type.value} fault boundary is singular: z1 = 0"
    with pytest.raises(SingularNetworkError, match=message):
        solve_fault_boundary(th, FaultSpec(fault_type=fault_type), z_base_ohm=1.0)


def test_boundary_rotation_rule() -> None:
    th = TheveninEquivalent(z1=0.2 + 0.5j, z2=0.1 + 0.45j, z0=0.05 + 0.8j, e_f=1.0 + 0j)
    ag = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.AG), 1.0)
    bg = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.BG), 1.0)
    cg = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.CG), 1.0)
    assert bg.pos == pytest.approx(ag.pos, rel=1e-12)
    assert bg.neg == pytest.approx(ag.neg * ALPHA, rel=1e-12)
    assert bg.zero == pytest.approx(ag.zero * ALPHA**2, rel=1e-12)
    assert cg.neg == pytest.approx(ag.neg * ALPHA**2, rel=1e-12)
    assert cg.zero == pytest.approx(ag.zero * ALPHA**4, rel=1e-12)

    bc = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.BC), 1.0)
    ca = solve_fault_boundary(th, FaultSpec(fault_type=FaultType.CA), 1.0)
    assert ca.pos == pytest.approx(bc.pos, rel=1e-12)
    assert ca.neg == pytest.approx(bc.neg * ALPHA, rel=1e-12)


def test_fault_type_shape_table() -> None:
    assert FaultType.AG.category is FaultCategory.SLG
    assert FaultType.BC.category is FaultCategory.LL
    assert FaultType.CAG.category is FaultCategory.LLG
    assert FaultType.ABC.category is FaultCategory.SYM
    assert (FaultType.AG.shift, FaultType.BG.shift, FaultType.CG.shift) == (0, 1, 2)
    assert (FaultType.BC.shift, FaultType.CA.shift, FaultType.AB.shift) == (0, 1, 2)
    assert FaultType.BCG.phases == ("b", "c")
    # value strings double as config tokens
    assert FaultType("bcg") is FaultType.BCG


@pytest.mark.parametrize("kind", ["ag", "bc", "bcg", "abc", "cg", "abg", "ca"])
def test_unbalanced_base_network_matches_phase_oracle(kind: str) -> None:
    """An injection leaving negative-sequence voltage at the fault node.

    The base network is then unbalanced before the fault is even applied,
    which exercises the hatted open-circuit terms of the boundary formulas.
    The phase-coordinate route knows nothing of those formulas.
    """
    scenario = build_scenario(
        {"source.kind": "gfm", "fault.kind": kind, "fault.m": 0.4, "fault.r_g_ohm": 8.0}
    )
    inj = InjectionElement("inj", "poc", i1=from_polar(0.9, -10.0), i2=from_polar(0.3, 70.0))
    net = scenario.net.with_elements(inj)

    seq_total = solve_fault(net, scenario.fault).total
    abc = solve_abc(net, scenario.fault)
    worst = 0.0
    for tap in net.relay_taps.values():
        mine = seq_total.reading(tap)
        v_abc, i_abc = abc.reading(tap)
        worst = max(worst, (mine.v - fortescue(v_abc)).max_abs())
        worst = max(worst, (mine.i - fortescue(i_abc)).max_abs())
    assert worst < 1e-8


def test_sequence_absence_for_ungrounded_faults() -> None:
    """A fault that does not reach ground draws no zero-sequence current:
    every zero-sequence reading is exactly 0j, and its Thevenin z0 is the
    grounded fault's at the same point, for the network is the same."""
    base = build_scenario({"source.kind": "sg"})
    src = SourceElement("src", "sgt", e1=from_polar(1.0, 10.0), z1=0.2j, z2=0.2j, z0=0.1j)
    net = base.net.with_elements(src)
    grounded = solve_fault(net, FaultSpec(fault_type=FaultType.BCG, m=0.5))
    for kind in (FaultType.AB, FaultType.BC, FaultType.CA, FaultType.ABC):
        sol = solve_fault(net, FaultSpec(fault_type=kind, m=0.5))
        assert repr(sol.thevenin.z0) == repr(grounded.thevenin.z0)
        assert sol.i_fault.zero == 0
        for part in (sol.base, sol.pure, sol.total):
            for node in net.nodes():
                assert part.voltage(node).zero == 0j
        for tap in net.relay_taps.values():
            reading = sol.total.reading(tap)
            assert reading.v.zero == 0j and reading.i.zero == 0j
            if kind is FaultType.ABC:
                assert abs(reading.i.neg) < 1e-9


def test_kcl_at_the_fault_node() -> None:
    scenario = build_scenario({"source.kind": "sg", "fault.kind": "bcg", "fault.m": 0.5})
    net = scenario.net.with_elements(
        SourceElement("src", "sgt", e1=from_polar(1.0, 8.0), z1=0.2j, z2=0.2j, z0=0.1j)
    )
    sol = solve_fault(net, scenario.fault)
    i_a = sol.total.series_current("line_a")  # bus1 -> flt
    i_b = sol.total.series_current("line_b")  # flt -> bus2
    into_fault = i_a - i_b
    assert (into_fault - sol.i_fault).max_abs() < 1e-9


def test_pure_fault_solution_is_the_back_distributed_fault_current() -> None:
    """The pure-fault solution is the passive network with i_f drawn out at the fault."""
    for kind in ("ag", "bc", "bcg", "abc"):
        scenario = build_scenario({"source.kind": "sg", "fault.kind": kind, "fault.r_g_ohm": 5.0})
        net = scenario.net.with_elements(
            SourceElement("src", "sgt", e1=from_polar(1.02, 7.0), z1=0.2j, z2=0.2j, z0=0.1j)
        )
        sol = solve_fault(net, scenario.fault)
        pulls = {1: sol.i_fault.pos, 2: sol.i_fault.neg, 0: sol.i_fault.zero}
        direct = solve_linear(
            net,
            zero_sources=True,
            extra_injections={seq: (net.fault_node, -i_f) for seq, i_f in pulls.items()},
        )
        assert sol.i_fault.max_abs() > 0.1
        for seq in (1, 2, 0):
            for node, v in direct.v[seq].items():
                assert abs(sol.pure.v[seq][node] - v) < 1e-12
            for e in net.elements:
                if isinstance(e, SeriesElement):
                    assert abs(sol.pure.current(seq, e.eid) - direct.current(seq, e.eid)) < 1e-12


def test_fault_node_collapse_at_endpoints() -> None:
    at_bus1 = build_scenario({"source.kind": "sg", "fault.m": 0.0})
    assert at_bus1.net.fault_node == "bus1"
    at_bus2 = build_scenario({"source.kind": "sg", "fault.m": 1.0})
    assert at_bus2.net.fault_node == "bus2"
    # no zero-length stubs: the line stays one element
    eids = [e.eid for e in at_bus1.net.elements]
    assert "line" in eids and "line_a" not in eids


def test_fault_spec_validation() -> None:
    with pytest.raises(ValueError):
        FaultSpec(m=1.5)
    with pytest.raises(ValueError):
        FaultSpec(m=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(r_g_ohm=-1.0)
    # boundaries are legal
    FaultSpec(m=0.0)
    FaultSpec(m=1.0)


def test_missing_injection_node_is_singular() -> None:
    net = _radial_net(0.2j, 0.3j)
    with pytest.raises(SingularNetworkError):
        solve_linear(net, extra_injections={1: ("nowhere", 1.0 + 0j)})


def test_nodes_listing_skips_ground() -> None:
    scenario = build_scenario({"source.kind": "gfm"})
    nodes = scenario.net.nodes()
    assert "gnd" not in nodes
    assert {"bus1", "bus2", "flt", "poc"} <= set(nodes)


def test_placement_reverse_moves_fault_behind_bus1() -> None:
    fwd = build_scenario({"source.kind": "sg", "fault.placement": "forward"})
    rev = build_scenario({"source.kind": "sg", "fault.placement": "reverse"})
    assert fwd.fault.placement is Placement.FORWARD
    assert rev.fault.placement is Placement.REVERSE
    # reverse fault splits the collection branch, not the monitored line
    assert {"col_a", "col_b"} <= {e.eid for e in rev.net.elements}
    assert {"line_a", "line_b"} <= {e.eid for e in fwd.net.elements}


# every faulted network shape the workloads solve; a reverse fault at m = 1
# would sit at the converter terminal, which is not a valid scenario
FAULT_SHAPES = [
    (kind, placement, m)
    for kind in ("sg", "gfm")
    for placement in ("forward", "reverse")
    for m in (0.0, 0.05, 0.5, 0.95, 1.0)
    if not (kind == "gfm" and placement == "reverse" and m == 1.0)
]


def _fault_network(kind: str, placement: str, m: float) -> tuple[NetworkModel, str]:
    """A faulted network and its port: the generator on its node, or the
    converter's terminal as the port."""
    scenario = build_scenario({"source.kind": kind, "fault.placement": placement, "fault.m": m})
    net = scenario.net
    if kind == "sg":
        return net.with_elements(scenario.source.source_element(net.source_node, 1.02 + 0.1j)), ""
    return net, net.source_node


def _counted_fault_builds(monkeypatch, net: NetworkModel, port: str) -> tuple[dict, list[int]]:
    """The builds a fault solve reads, and the sequences it requested."""
    calls = []
    real = network._solve_one_sequence

    def counting(net, seq):
        calls.append(seq)
        return real(net, seq)

    monkeypatch.setattr(network, "_solve_one_sequence", counting)
    return solve_fault(net, FaultSpec(), port).builds, calls


@pytest.mark.parametrize(("kind", "placement", "m"), FAULT_SHAPES)
def test_negative_sequence_reuses_the_positive_build_exactly(
    kind: str, placement: str, m: float
) -> None:
    """z2 = z1 everywhere and no negative-sequence injection: the negative
    sequence is the positive one with its sources dead (Anderson, Analysis
    of Faulted Power Systems, ch. 3). Built on its own, its node columns
    are the positive build's bits and its base column is zero at every
    node, so building it apart from the positive sequence moves no output."""
    net, port = _fault_network(kind, placement, m)
    builds = solve_fault(net, FaultSpec(), port).builds
    pos, neg = builds[1], builds[2]
    # a column for every node the build holds, the base column beside them
    assert set(pos) == {None, *pos[None]}
    assert list(neg) == list(pos)
    assert list(neg[None]) == list(pos[None])
    assert all(v == 0 for v in neg[None].values())
    for node in pos[None]:
        assert repr(list(neg[node].items())) == repr(list(pos[node].items()))


@pytest.mark.parametrize(("kind", "placement", "m"), FAULT_SHAPES)
def test_a_memo_hit_is_the_fresh_build(kind: str, placement: str, m: float) -> None:
    """An equal config, built anew, holds the same network object, and a
    generator's fault network is the same object too. The builds they
    share still hold a fresh build's bits, those of an equal network
    object that no one has solved, after a fault solve has read them."""
    config = {"source.kind": kind, "fault.placement": placement, "fault.m": m}
    _clear_memos()
    scenario = build_scenario(config)
    op, sol = solve_scenario(scenario)
    assert sol.fault.total.readings and op.healthy.readings
    twin = build_scenario(dict(config))
    assert twin is not scenario and twin.net is scenario.net
    assert solve_scenario(twin)[1].fault.net is sol.fault.net
    for seq in SEQUENCES:
        held = sol.fault.builds[seq]
        assert network._solve_one_sequence(sol.fault.net, seq) is held
        fresh = network._solve_stamped(NetworkModel(*sol.fault.net), seq)
        assert repr(held) == repr(fresh), seq


@pytest.mark.parametrize(("kind", "placement", "m"), FAULT_SHAPES)
def test_every_node_column_is_the_oracle_unit_probe(kind: str, placement: str, m: float) -> None:
    """Each node's column of a build is the bus impedance column of that
    node: the phase-domain oracle, with a unit current of the same sequence
    injected there and the sources dead, reads it at every node. Transfer
    impedances, which the converter port is made of, are checked with the
    driving points. A node the sequence does not reach has no column."""
    net, _ = _fault_network(kind, placement, m)
    for seq in SEQUENCES:
        build = network._solve_one_sequence(net, seq)
        for node in net.nodes():
            if node not in build:
                with pytest.raises(SingularNetworkError):
                    build[node]
                continue
            column = build[node]
            probe = solve_abc(net, zero_sources=True, probe=(node, seq))
            size = max(abs(v) for v in column.values())
            assert size > 0, (seq, node)
            for other in net.nodes():
                oracle = fortescue(probe.voltage(other))
                expected = (oracle.zero, oracle.pos, oracle.neg)[seq]
                assert abs(column.get(other, 0j) - expected) <= 1e-10 * size, (seq, node, other)


@pytest.mark.parametrize(("kind", "placement", "m"), FAULT_SHAPES)
def test_node_columns_are_reciprocal(kind: str, placement: str, m: float) -> None:
    """The nodal matrix is symmetric, so is its inverse: the voltage at b for
    a unit current at a is the voltage at a for a unit current at b."""
    net, _ = _fault_network(kind, placement, m)
    for seq in SEQUENCES:
        build = network._solve_one_sequence(net, seq)
        nodes = [node for node in build if node is not None]
        for a in nodes:
            for b in nodes:
                z_ab, z_ba = build[a][b], build[b][a]
                assert abs(z_ab - z_ba) <= 1e-12 * max(abs(z_ab), abs(z_ba)), (seq, a, b)


def _ideal_source_network(e1: complex, z_line: complex) -> NetworkModel:
    """An ideal source pinning node a, a line to b, a load at b."""
    return NetworkModel((
        SourceElement("src", "a", e1=e1, z1=0j, z2=0j, z0=0j),
        SeriesElement("line", "a", "b", z_line, z_line, z_line),
        SeriesElement("load", "b", "gnd", 1.0 + 0.5j, 1.0 + 0.5j, 2.0 + 1.0j),
    ), fault_node="b")


@pytest.mark.parametrize(
    ("first", "second"),
    [
        # the emfs differ only in the sign of a zero part: column 0 holds each verbatim
        ((complex(1.0, 0.0), 0.1j), (complex(1.0, -0.0), 0.1j)),
        ((complex(-0.0, 1.0), 0.1j), (complex(0.0, 1.0), 0.1j)),
        # the impedances differ only in the sign of a zero part: the same system
        ((1.0 + 0j, complex(0.0, 0.1)), (1.0 + 0j, complex(-0.0, 0.1))),
        # equal values of another type
        ((1.0 + 0j, 0.1), (1.0 + 0j, 0.1 + 0j)),
        ((1.0, 0.1j), (1.0 + 0j, 0.1j)),
    ],
)
def test_builds_of_equal_inputs_keep_their_own_bits(first, second) -> None:
    """Each of two equal networks has the bits of a fresh build of its own
    inputs, whichever was built first. A memo keyed by `==` alone would
    hand the second emf the first's sign of zero."""
    for seq in SEQUENCES:
        fresh = [repr(network._solve_stamped(_ideal_source_network(*pair), seq))
                 for pair in (first, second)]
        for order in ((first, second), (second, first)):
            nets = [_ideal_source_network(*pair) for pair in order]
            warm = [repr(network._solve_one_sequence(net, seq)) for net in nets]
            expected = fresh if order[0] is first else fresh[::-1]
            assert warm == expected, (seq, first, second)
    pinned = network._solve_one_sequence(_ideal_source_network(*second), 1)[None]["a"]
    assert repr(pinned) == repr(complex(second[0]))


def test_memo_keys_are_equal_only_bit_for_bit() -> None:
    key = (0.5, complex(0.0, -0.25), 3, FaultType.AG, "poc")
    assert network._bitwise(*key) == network._bitwise(*(float("0.5"), complex(0, -0.25), *key[2:]))
    pairs = [(0.0, -0.0), (1.0, 1), (1.0, 1 + 0j), (0j, complex(0.0, -0.0)), (0j, complex(-0.0, 0.0))]
    for a, b in pairs:
        assert a == b and network._bitwise(a) != network._bitwise(b), (a, b)
        assert network._bitwise(0.5, a) != network._bitwise(0.5, b), (a, b)


def test_a_pinned_node_has_a_zero_column() -> None:
    """A unit current into a node an ideal source pins changes no voltage."""
    net = _ideal_source_network(1.0 + 0j, 0.1j)
    for seq in SEQUENCES:
        build = network._solve_one_sequence(net, seq)
        assert list(build["a"]) == list(build[None]) == ["gnd", "a", "b"]
        assert all(v == 0 for v in build["a"].values())
        assert build["b"]["b"] != 0


def test_negative_sequence_injection_takes_the_full_build(monkeypatch) -> None:
    scenario = build_scenario({"source.kind": "gfm", "fault.m": 0.4})
    inj = InjectionElement("inj", "poc", i1=from_polar(0.9, -10.0), i2=from_polar(0.3, 70.0))
    builds, calls = _counted_fault_builds(monkeypatch, scenario.net.with_elements(inj), "")
    assert calls == [1, 2, 0]
    assert abs(builds[2][None]["poc"]) > 0.01
    # a positive-sequence injection alone leaves the negative sequence dead
    balanced = scenario.net.with_elements(inj._replace(i2=0j))
    builds, calls = _counted_fault_builds(monkeypatch, balanced, "")
    assert calls == [1, 2, 0]
    assert all(v == 0 for v in builds[2][None].values())


def test_unequal_negative_sequence_impedance_takes_the_full_build(monkeypatch) -> None:
    scenario = build_scenario({"source.kind": "sg", "sg.x2_pu": 0.3})
    net = scenario.net.with_elements(
        scenario.source.source_element(scenario.net.source_node, 1.0 + 0j)
    )
    builds, calls = _counted_fault_builds(monkeypatch, net, "")
    assert calls == [1, 2, 0]
    node = net.fault_node
    assert builds[2][node][node] != builds[1][node][node]


def test_element_lookup_by_id() -> None:
    net = build_scenario({"source.kind": "sg"}).net
    assert net.element("grid") is net.elements[0]
    with pytest.raises(KeyError):
        net.element("src")
    # a network with more elements finds them by scanning its own element list
    src = SourceElement("src", "sgt", e1=1.0 + 0j, z1=0.2j, z2=0.2j, z0=0.1j)
    assert net.with_elements(src).element("src") is src
    with pytest.raises(KeyError):
        net.element("src")


def _per_sequence_current(sol, eid: str, sign: float = 1.0):
    """The tap current one sequence at a time, as `current` reads it."""
    return SequenceTriple(*(sign * sol.current(seq, eid) for seq in (1, 2, 0)))


def _assert_readings_take_the_per_sequence_route(sol, label: object) -> None:
    """Each tap's `reading`, and `readings` through the element plan, are the
    per-sequence route's, bit for bit."""
    assert list(sol.readings) == list(sol.net.relay_taps)
    for name, tap in sol.net.relay_taps.items():
        expected = BusReading(
            tap.bus, sol.voltage(tap.bus), _per_sequence_current(sol, tap.eid, tap.sign)
        )
        assert repr(sol.reading(tap)) == repr(expected), (label, tap)
        assert repr(sol.readings[name]) == repr(expected), (label, tap)


def test_readings_equal_the_per_sequence_route_on_every_preset() -> None:
    seen: set[str] = set()
    for name in sorted(PRESETS):
        scenario = build_scenario(preset_scenario_overrides(name))
        op, solved = solve_scenario(scenario)
        for sol in (solved.fault.total, op.healthy):
            _assert_readings_take_the_per_sequence_route(sol, name)
            for e in sol.net.elements:
                if isinstance(e, InjectionElement):
                    continue
                seen.add(e.eid)
                expected_i = _per_sequence_current(sol, e.eid)
                assert repr(sol.series_current(e.eid)) == repr(expected_i), (name, e.eid)
    # the transformer legs are open in one sequence each: xfmr in the zero, xfmr0 in the
    # positive and negative
    assert {"xfmr", "xfmr0", "grid", "src", "line", "line_a", "col_b"} <= seen


@pytest.mark.parametrize(("kind", "placement", "m"), FAULT_SHAPES)
def test_readings_equal_the_per_sequence_route_on_grid_and_generator_cases(
    kind: str, placement: str, m: float
) -> None:
    """A sample of the converter and generator case grids: at m = 0 and
    m = 1 both taps read one element, and a reverse fault splits the
    branch behind bus 1."""
    rng = random.Random(f"{kind}:{placement}:{m}")
    laws = ("circular", "priority", "instantaneous", "virtual_admittance",
            "adaptive_virtual_impedance")
    for fault in rng.sample([t.value for t in FaultType], 4):
        config = {
            "source.kind": kind,
            "fault.kind": fault,
            "fault.placement": placement,
            "fault.m": m,
            "fault.r_g_ohm": rng.choice((0.0, 5.0, 30.0)),
            "source.p_ref": rng.choice((0.0, 0.5, 1.0)),
        }
        if kind == "gfm":
            config["clc.kind"] = rng.choice(laws)
        op, solved = solve_scenario(build_scenario(config))
        if m in (0.0, 1.0):
            assert len({tap.eid for tap in solved.fault.net.relay_taps.values()}) == 1
        for sol in (solved.fault.total, op.healthy):
            _assert_readings_take_the_per_sequence_route(sol, config)


def test_readings_of_a_tap_on_a_source_take_the_source_rule() -> None:
    """A tap on a source reads its emf less its node's voltage, over its
    branch impedance in each sequence, 0j where the branch is open."""
    net = _radial_net(0.1 + 0.5j, 0.2 + 1.0j)
    src, line = net.elements
    net = net._replace(
        # the source open in the zero sequence, which a leg at f grounds
        elements=(src._replace(z0=None), line, SeriesElement("leg", "f", GROUND, None, None, 0.3j)),
        relay_taps={"line": RelayTap("s", "ln", +1.0), "source": RelayTap("s", "src", -1.0)},
    )
    sol = solve_fault(net, FaultSpec(FaultType.AG)).total
    _assert_readings_take_the_per_sequence_route(sol, "source tap")
    assert sol.readings["source"].i.zero == 0j


def test_the_element_plan_is_one_object_per_network_object() -> None:
    _clear_memos()
    scenario = build_scenario({"source.kind": "gfm", "fault.kind": "ag"})
    op, solved = solve_scenario(scenario)
    net = scenario.net
    assert op.healthy.net is net
    op.healthy.readings
    plan = network._SHARED[(id(net), "elements")][1]
    # every series and source element, no injection
    assert list(plan) == [e.eid for e in net.elements if not isinstance(e, InjectionElement)]
    assert {tap.eid for tap in net.relay_taps.values()} <= set(plan)
    # another solution of the same network object reads the same plan, by
    # `readings` and by `current` alike
    twin = build_scenario({"source.kind": "gfm", "fault.kind": "bc", "clc.kind": "priority"})
    assert twin.net is net
    total = solve_scenario(twin)[1].fault.total
    total.readings
    total.series_current("grid")
    assert network._SHARED[(id(net), "elements")][1] is plan
    assert network._shared(net, "elements", network._element_plan, net) is plan
    _clear_memos()
    assert (id(net), "elements") not in network._SHARED
    fresh = network._shared(net, "elements", network._element_plan, net)
    assert fresh is not plan and fresh == plan


def test_a_once_property_computes_once_and_keeps_its_value_in_the_instance() -> None:
    class Probe:
        calls = 0

        @network._once
        def value(self) -> object:
            """A fresh object per computation."""
            Probe.calls += 1
            return object()

    probe = Probe()
    assert "value" not in probe.__dict__
    first = probe.value
    assert probe.__dict__["value"] is first
    assert probe.value is first and Probe.calls == 1
    assert Probe().value is not first and Probe.calls == 2
    # read on the class, it is the descriptor itself
    descriptor = Probe.__dict__["value"]
    assert Probe.value is descriptor and isinstance(descriptor, network._once)
    assert descriptor.__doc__ == "A fresh object per computation."
    # the solutions keep their readings and parts the same way
    op, solved = solve_scenario(build_scenario({}))
    total = solved.fault.total
    assert total.__dict__.get("readings") is None
    assert total.readings is total.__dict__["readings"] is total.readings
    for name in ("thevenin", "i_fault", "total"):
        assert type(getattr(network.FaultSolution, name)) is network._once
        assert solved.fault.__dict__[name] is getattr(solved.fault, name)


def _eliminate_every_row(a: list[list], b: list[list]) -> tuple[list[list] | None, int, int]:
    """`solve_dense` as it was before it skipped rows: every row below the
    pivot is updated, zero multiplier or not. Also returns the row
    exchanges made and the row updates whose multiplier was an exact zero."""
    exchanges = zero_rows = 0
    n = len(a)
    for k in range(n):
        p = k
        for r in range(k + 1, n):
            if abs(a[r][k]) > abs(a[p][k]):
                p = r
        pivot = a[p]
        if pivot[k] == 0:
            return None, exchanges, zero_rows
        if p != k:
            a[k], a[p], b[k], b[p] = pivot, a[k], b[p], b[k]
            exchanges += 1
        bk = b[k]
        for r in range(k + 1, n):
            row, br = a[r], b[r]
            zero_rows += row[k] == 0
            f = row[k] / pivot[k]
            for c in range(k + 1, n):
                row[c] -= f * pivot[c]
            for j, v in enumerate(bk):
                br[j] -= f * v
    for k in reversed(range(n)):
        bk, d = b[k], a[k][k]
        for j, v in enumerate(bk):
            bk[j] = v / d
        for r in range(k):
            br, f = b[r], a[r][k]
            for j, v in enumerate(bk):
                br[j] -= f * v
    x = b if all(cmath.isfinite(v) for row in b for v in row) else None
    return x, exchanges, zero_rows


def _both_eliminations(a: list[list], b: list[list]) -> tuple[str, str, int, int]:
    """repr of solve_dense's and the every-row elimination's results on copies."""
    mine = network.solve_dense([row[:] for row in a], [row[:] for row in b])
    theirs, exchanges, zero_rows = _eliminate_every_row(
        [row[:] for row in a], [row[:] for row in b]
    )
    return repr(mine), repr(theirs), exchanges, zero_rows


def _radial_block_system(rng, nodes: int, complex_entries: bool) -> list[list]:
    """A nodal matrix shaped like the oracle's: 3x3 blocks of a chain of
    nodes, each node coupled to its neighbours only, stamped by adding into
    zeros as the oracle does, with its rows shuffled to force exchanges."""

    def entry():
        if complex_entries:
            return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return rng.uniform(-1.0, 1.0)

    n = 3 * nodes
    zero = 0j if complex_entries else 0.0
    a = [[zero] * n for _ in range(n)]
    for node in range(nodes):
        ends = (node, node + 1) if node + 1 < nodes else (node,)
        block = [[entry() for _ in range(3)] for _ in range(3)]
        for p in range(3):
            block[p][p] += 3.0  # a dominant self-admittance, as a branch's
        for i in ends:
            for j in ends:
                sign = 1.0 if i == j else -1.0
                for p in range(3):
                    for q in range(3):
                        a[3 * i + p][3 * j + q] += sign * block[p][q]
    rng.shuffle(a)
    return a


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_solve_dense_equals_every_row_elimination_bit_for_bit(complex_entries: bool) -> None:
    """Skipping the rows whose multiplier is an exact zero changes no bit."""
    rng = random.Random(17)
    exchanges = zero_rows = 0
    for trial in range(60):
        nodes = rng.choice((3, 4))
        a = _radial_block_system(rng, nodes, complex_entries)
        columns = 1 + trial % 3
        if complex_entries:
            b = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(columns)] for _ in a]
        else:
            b = [[rng.gauss(0, 1) for _ in range(columns)] for _ in a]
        mine, theirs, swapped, skipped = _both_eliminations(a, b)
        assert mine == theirs != "None", (trial, a, b)
        exchanges += swapped
        zero_rows += skipped
    # the shuffled rows take exchanges, and the chain's zero blocks give
    # zero multipliers to skip
    assert exchanges > 100 and zero_rows > 1000


@pytest.mark.parametrize(
    ("a", "b"),
    [
        # a zero below the pivot, an infinite entry right of it in the pivot row
        ([[2.0, math.inf, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]], [[1.0], [1.0], [1.0]]),
        ([[1j, complex(math.inf, 0.0)], [0j, 1.0]], [[1.0], [2j]]),
        # an infinite right-hand side in the pivot row
        ([[2.0, 1.0], [0.0, 1.0]], [[math.inf], [1.0]]),
        # an infinite pivot with a zero below it
        ([[complex(0.0, math.inf), 1.0], [0j, 2j]], [[1j], [1.0]]),
        ([[2.0, 1.0, 0.0], [0.0, math.inf, 1.0], [0.0, 1.0, 1.0]], [[1.0], [1.0], [1.0]]),
    ],
)
def test_solve_dense_skips_a_zero_beside_an_infinite_entry_to_the_same_result(
    a: list[list], b: list[list]
) -> None:
    mine, theirs, _, skipped = _both_eliminations(a, b)
    assert skipped > 0
    assert mine == theirs


def _zero_signs_cleared(x: list[list] | None) -> str:
    """repr of a solution with every -0.0 read as 0.0 (-0.0 + 0.0 is 0.0)."""
    return repr(None if x is None else [[v + 0j for v in row] for row in x])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["newton", "complex"])
def test_solve_dense_differs_from_every_row_elimination_only_in_the_sign_of_a_zero(
    complex_entries: bool,
) -> None:
    """On inputs holding negative zeros a skipped row may keep a -0.0 that
    the full update, -0.0 - (-0.0), would have made +0.0; nothing else
    differs. The real systems are the unrolled Newton systems of
    `test_sources._newton_matrix`, whose -on_im.imag entries and -g
    right-hand sides hold -0.0 wherever a part is zero."""
    rng = random.Random(1717)
    parts = (0.0, -0.0, 0.0, -0.0, 0.5, -1.25, 2.0)

    def value():
        return complex(rng.choice(parts) or rng.choice(parts), rng.choice(parts))

    def signed_zero():
        return complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))

    signed = 0
    for trial in range(300):
        if complex_entries:
            # the chain's zero blocks and a right-hand side of mostly zeros,
            # as a probe column's, with signs drawn at random
            a = _radial_block_system(rng, rng.choice((2, 3)), complex_entries=True)
            for row in a:
                for c, v in enumerate(row):
                    if v == 0:
                        row[c] = signed_zero()
            columns = 1 + trial % 3
            b = [
                [value() if rng.random() < 0.3 else signed_zero() for _ in range(columns)]
                for _ in a
            ]
        else:
            p = [[value() for _ in range(2)] for _ in range(2)]
            q = [[value() for _ in range(2)] for _ in range(2)]
            a = _newton_matrix(p, q)
            b = [[-v] for _ in range(2) for v in (rng.choice(parts), rng.choice(parts))]
        mine = network.solve_dense([row[:] for row in a], [row[:] for row in b])
        theirs = _eliminate_every_row([row[:] for row in a], [row[:] for row in b])[0]
        assert _zero_signs_cleared(mine) == _zero_signs_cleared(theirs), (trial, a, b)
        if repr(mine) != repr(theirs):
            assert _has_negative_zero(a) or _has_negative_zero(b), (trial, a, b)
            signed += 1
    assert signed > 0
    # the smallest case: row 1 is skipped and keeps its -0.0 right-hand side
    assert _both_eliminations([[1.0, 0.0], [0.0, 1.0]], [[-1.0], [-0.0]])[:2] == (
        "[[-1.0], [-0.0]]",
        "[[-1.0], [0.0]]",
    )
