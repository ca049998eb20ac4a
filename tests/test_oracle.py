from __future__ import annotations

from dataclasses import dataclass

import pytest

from faultlab.abc_oracle import OracleUnsupportedError, solve_abc, thevenin_probe_abc
from faultlab.network import (
    FaultSpec,
    FaultType,
    InjectionElement,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SourceElement,
    solve_fault,
    solve_linear,
)
from faultlab.phasors import fortescue, from_polar
from faultlab.scenario import build_scenario


def _sg_net() -> NetworkModel:
    base = build_scenario({"source.kind": "sg"})
    src = SourceElement("src", "sgt", e1=from_polar(1.01, 6.0), z1=0.2j, z2=0.2j, z0=0.1j)
    return base.net.with_elements(src)


def _gfm_net() -> NetworkModel:
    base = build_scenario({"source.kind": "gfm"})
    inj = InjectionElement("inj", "poc", i1=from_polar(1.0, -5.0), i2=from_polar(0.2, 40.0))
    return base.net.with_elements(inj)


def test_healthy_network_matches_sequence_solution() -> None:
    net = _sg_net()
    abc = solve_abc(net)
    seq = solve_linear(net)
    for node in net.nodes():
        diff = fortescue(abc.voltage(node)) - seq.voltage(node)
        assert diff.max_abs() < 1e-10
    for tap in net.relay_taps.values():
        _, i_abc = abc.reading(tap)
        assert (fortescue(i_abc) - seq.reading(tap).i).max_abs() < 1e-10


def test_single_line_ground_leaves_healthy_phases_dead() -> None:
    # one radial path forces i1 = i2 = i0 through it, so phases b and c
    # carry currents proportional to 1 + alpha + alpha^2 = 0
    net = NetworkModel(
        elements=(
            SourceElement("src", "s", e1=1.0 + 0j, z1=0.2j, z2=0.2j, z0=0.2j),
            SeriesElement("ln", "s", "f", 0.3j, 0.3j, 0.3j),
        ),
        fault_node="f",
        source_node="s",
        z_base_fault_ohm=1.0,
        relay_taps={"s": RelayTap("s", "ln", +1.0)},
    )
    abc = solve_abc(net, FaultSpec(fault_type=FaultType.AG))
    i = abc.series_current("ln")
    assert abs(i.a) > 0.5
    assert abs(i.b) < 1e-12
    assert abs(i.c) < 1e-12


@pytest.mark.parametrize("make_net", [_sg_net, _gfm_net])
def test_driving_point_probe_matches_sequence_thevenin(make_net) -> None:
    net = make_net()
    th = solve_fault(net, FaultSpec()).thevenin
    for seq, expected in ((1, th.z1), (2, th.z2), (0, th.z0)):
        probed = thevenin_probe_abc(net, seq)
        assert probed == pytest.approx(expected, rel=1e-10)


def test_pinned_source_is_unsupported() -> None:
    net = NetworkModel(
        elements=(SourceElement("src", "s", e1=1.0 + 0j, z1=0j, z2=0j, z0=0j),),
        fault_node="s",
        source_node="s",
        z_base_fault_ohm=1.0,
    )
    with pytest.raises(OracleUnsupportedError):
        solve_abc(net)


def test_unknown_element_kind_is_unsupported() -> None:
    @dataclass(frozen=True)
    class Strange:
        eid: str = "odd"
        node: str = "s"

    net = _sg_net().with_elements(Strange())
    with pytest.raises(OracleUnsupportedError):
        solve_abc(net)


def test_zero_floating_node_is_tied_to_reference() -> None:
    # the converter bus has no zero-sequence path (delta winding on its
    # side of the transformer), so the oracle must pin its zero mode
    net = _gfm_net()
    abc = solve_abc(net, FaultSpec(fault_type=FaultType.AG, m=0.5))
    v0 = fortescue(abc.voltage("poc")).zero
    assert abs(v0) < 1e-9
    # the tie carries no current: phase voltages still satisfy the fault
    v_flt = abc.voltage("flt")
    assert abs(v_flt.a) < 1e-9


def test_grid_source_current_balances_injection() -> None:
    # healthy gfm network: whatever the converter injects must return
    # through the grid source, phase by phase
    net = _gfm_net()
    abc = solve_abc(net)
    grid_seq = fortescue(abc.source_current("grid"))
    assert grid_seq.pos == pytest.approx(-from_polar(1.0, -5.0), abs=1e-9)
    assert grid_seq.neg == pytest.approx(-from_polar(0.2, 40.0), abs=1e-9)
    assert abs(grid_seq.zero) < 1e-9
