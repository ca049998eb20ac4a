from __future__ import annotations

import cmath
import math

import pytest

from faultlab.abc_oracle import solve_abc
from faultlab.network import (
    FaultCategory,
    FaultSpec,
    FaultType,
    InjectionElement,
    NetworkModel,
    Placement,
    RelayTap,
    SeriesElement,
    SingularNetworkError,
    SourceElement,
    back_distribute,
    solve_fault,
    solve_fault_boundary,
    solve_linear,
    thevenin_at_fault,
    TheveninEquivalent,
)
from faultlab.phasors import ALPHA, SequenceTriple, from_polar, fortescue
from faultlab.scenario import build_scenario


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
    th = thevenin_at_fault(net)
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
    th = thevenin_at_fault(net)
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
    assert pos.source_out[1] == full.source_out[1]
    with pytest.raises(KeyError):
        pos.voltage("s")


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
    assert FaultType.AG.grounded and FaultType.BCG.grounded
    assert not FaultType.BC.grounded and not FaultType.ABC.grounded
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
    base = build_scenario({"source.kind": "sg"})
    src = SourceElement("src", "sgt", e1=from_polar(1.0, 10.0), z1=0.2j, z2=0.2j, z0=0.1j)
    for kind in (FaultType.AB, FaultType.BC, FaultType.CA, FaultType.ABC):
        net = base.net.with_elements(src)
        sol = solve_fault(net, FaultSpec(fault_type=kind, m=0.5))
        for tap in net.relay_taps.values():
            reading = sol.total.reading(tap)
            assert abs(reading.i.zero) < 1e-9
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


def test_back_distribute_zero_current_is_identity() -> None:
    net = _radial_net(0.2j, 0.3j)
    pure = back_distribute(net, SequenceTriple())
    for seq in (1, 2, 0):
        for v in pure.v[seq].values():
            assert abs(v) < 1e-12


def test_fault_node_collapse_at_endpoints() -> None:
    at_bus1 = build_scenario({"source.kind": "sg", "fault.m": 0.0})
    assert at_bus1.net.fault_node == "bus1"
    at_bus2 = build_scenario({"source.kind": "sg", "fault.m": 1.0})
    assert at_bus2.net.fault_node == "bus2"
    # no zero-length stubs: the line stays one element
    eids = [e.eid for e in at_bus1.net.series()]
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
    assert {"col_a", "col_b"} <= {e.eid for e in rev.net.series()}
    assert {"line_a", "line_b"} <= {e.eid for e in fwd.net.series()}
