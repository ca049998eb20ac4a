from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from faultlab.clc import (
    ClcConfig,
    ClcKind,
    instantaneous_two_channel,
    max_phase_current,
    saturate_reference,
)
from faultlab.network import (
    InjectionElement,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SourceElement,
    driving_point,
    solve_fault,
    solve_linear,
)
from faultlab.phasors import from_polar
from faultlab.scenario import build_scenario
from faultlab.sources import (
    SOURCE_EID,
    GfmModel,
    NoConvergenceError,
    OperatingPoint,
    OscillationDetectedError,
    SgModel,
    _dispatch,
    fault_fixed_point,
    incremental_source_impedance,
    prefault_solve,
    terminal_port,
)


def _two_bus_net() -> NetworkModel:
    """Machine node tied through j0.2 to an ideal 1 pu grid bus."""
    return NetworkModel(
        elements=(
            SourceElement("grid", "g", e1=1.0 + 0j, z1=0j, z2=0j, z0=0j),
            SeriesElement("tie", "m", "g", 0.2j, 0.2j, 0.2j),
        ),
        fault_node="g",
        source_node="m",
        z_base_fault_ohm=1.0,
        relay_taps={"m": RelayTap("m", "tie", +1.0)},
    )


def test_prefault_matches_lossless_transfer_formula() -> None:
    net = _two_bus_net()
    sg = SgModel(x1=0.3, x2=0.3, x0=0.15)
    op = prefault_solve(net, sg, p_ref=0.8, q_ref=0.0)
    assert op.p == pytest.approx(0.8, abs=1e-8)
    assert op.q == pytest.approx(0.0, abs=1e-8)
    # lossless chain: the same P crosses every reactance, so
    # P = E * V_grid * sin(theta) / (x1 + x_tie)
    assert op.e_mag * math.sin(op.theta_rad) / 0.5 == pytest.approx(0.8, abs=1e-7)
    s = op.v_attach * op.i_attach.conjugate()
    assert s.real == pytest.approx(op.p, abs=1e-12)
    assert s.imag == pytest.approx(op.q, abs=1e-12)


def test_prefault_zero_flow_is_flat() -> None:
    op = prefault_solve(_two_bus_net(), SgModel(), p_ref=0.0, q_ref=0.0)
    assert abs(op.i_attach) < 1e-8
    assert op.e_mag == pytest.approx(1.0, abs=1e-8)
    assert op.theta_deg == pytest.approx(0.0, abs=1e-6)


def test_prefault_unreachable_power_raises() -> None:
    with pytest.raises(NoConvergenceError):
        prefault_solve(_two_bus_net(), SgModel(), p_ref=50.0)


@pytest.mark.parametrize("kind", ["sg", "circular", "virtual_admittance"])
def test_prefault_jacobian_matches_a_central_difference(kind: str) -> None:
    overrides = {"source.kind": kind} if kind == "sg" else {"source.kind": "gfm", "clc.kind": kind}
    scenario = build_scenario(overrides)
    source = scenario.source
    z = 1j * source.x1 if isinstance(source, SgModel) else source.normal_z()
    v_oc, z_th = driving_point(scenario.net, scenario.net.source_node)
    h = 1e-6

    def power(vec: np.ndarray) -> np.ndarray:
        s = _dispatch(vec, v_oc, z_th, z + z_th)[2]
        return np.array([s.real, s.imag])

    for e_mag, theta in ((1.0, 0.0), (1.07, 0.4), (0.6, -2.5)):
        x = np.array([e_mag, theta])
        jac = _dispatch(x, v_oc, z_th, z + z_th)[3]
        for col in range(2):
            step = np.zeros(2)
            step[col] = h
            central = (power(x + step) - power(x - step)) / (2 * h)
            assert jac[:, col] == pytest.approx(central, rel=1e-7, abs=1e-7), (e_mag, theta, col)


def test_model_validation() -> None:
    with pytest.raises(ValueError):
        SgModel(x1=0.0)
    with pytest.raises(ValueError):
        SgModel(x0=-0.1)
    with pytest.raises(ValueError):
        GfmModel(k_pv=0.0)
    with pytest.raises(ValueError):
        GfmModel(x_f=-0.1)
    with pytest.raises(ValueError):
        GfmModel(clc=ClcConfig(kind=ClcKind.CIRCULAR), filter_in_network=True)
    GfmModel(clc=ClcConfig(kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE), filter_in_network=True)


def test_normal_z_per_strategy() -> None:
    assert GfmModel(clc=ClcConfig(kind=ClcKind.CIRCULAR)).normal_z() == 0j
    assert GfmModel(clc=ClcConfig(kind=ClcKind.PRIORITY)).normal_z() == 0j
    va = GfmModel(clc=ClcConfig(kind=ClcKind.VIRTUAL_ADMITTANCE, r_vn=0.01, x_vn=0.05))
    assert va.normal_z() == pytest.approx(0.01 + 0.05j, abs=1e-15)
    avi_loop = GfmModel(clc=ClcConfig(kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE))
    assert avi_loop.normal_z() == 0j and avi_loop.x_f_network == 0.0
    avi_net = GfmModel(
        clc=ClcConfig(kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE), filter_in_network=True
    )
    assert avi_net.x_f_network == pytest.approx(0.15)
    assert avi_net.normal_z() == pytest.approx(0.15j, abs=1e-15)


def _converged(kind: str, fault_kind: str = "bcg", r_g: float = 0.0):
    scenario = build_scenario(
        {
            "source.kind": "gfm",
            "clc.kind": kind,
            "fault.kind": fault_kind,
            "fault.r_g_ohm": r_g,
            "source.p_ref": 0.3,
        }
    )
    op = prefault_solve(scenario.net, scenario.gfm, scenario.p_ref, scenario.q_ref)
    sol = fault_fixed_point(scenario.net, scenario.gfm, scenario.fault, op)
    return scenario, op, sol


@pytest.mark.parametrize("kind", ["circular", "priority", "instantaneous"])
def test_converged_state_satisfies_the_limiter_law(kind: str) -> None:
    """The delivered current must be the limiter applied to the loop output.

    Rebuilt here from the public limiter primitives, so the check holds no
    matter what path the fixed-point iteration took to get there.
    """
    scenario, op, sol = _converged(kind)
    assert sol.limiter_active
    gfm = scenario.gfm
    cfg = gfm.clc
    ref1 = gfm.k_pv * (op.e_ref1 - sol.v_t.pos) + sol.i_t.pos
    ref2 = gfm.k_pv * (0.0 - sol.v_t.neg) + sol.i_t.neg

    if kind == "circular":
        peak = max_phase_current(ref1, ref2)
        k = min(1.0, cfg.i_lim / peak)
        want1, want2 = ref1 * k, ref2 * k
    elif kind == "priority":
        rot = cmath.exp(-1j * op.theta_rad)
        s1, _ = saturate_reference(cfg, ref1 * rot)
        s2, _ = saturate_reference(cfg, ref2 / rot)
        s1, s2 = s1 / rot, s2 * rot
        k = min(1.0, cfg.i_lim / max_phase_current(s1, s2))
        want1, want2 = s1 * k, s2 * k
    else:
        want1, want2 = instantaneous_two_channel(cfg, ref1, ref2)

    assert abs(sol.i_t.pos - want1) < 1e-8
    assert abs(sol.i_t.neg - want2) < 1e-8
    assert sol.residual < 1e-9


@pytest.mark.parametrize("kind", ["circular", "priority"])
def test_limited_current_respects_the_phase_cap(kind: str) -> None:
    scenario, _, sol = _converged(kind)
    cap = scenario.gfm.clc.i_lim
    assert max_phase_current(sol.i_t.pos, sol.i_t.neg) <= cap * (1.0 + 1e-6)
    assert sol.i_max_phase <= cap * (1.0 + 1e-6)


def test_fixed_point_is_deterministic() -> None:
    _, op1, a = _converged("circular")
    _, op2, b = _converged("circular")
    assert op1 == op2
    assert a.i_t == b.i_t
    assert a.v_t == b.v_t
    assert a.iterations == b.iterations
    assert a.residual == b.residual


def test_mild_fault_leaves_the_limiter_idle() -> None:
    # 400 ohm ground resistance barely disturbs the converter; the result
    # must coincide with the plain stiff-source linear solution
    scenario, op, sol = _converged("circular", fault_kind="ag", r_g=400.0)
    assert not sol.limiter_active
    src = SourceElement(SOURCE_EID, scenario.net.source_node, e1=op.e_ref1, z1=0j, z2=0j, z0=None)
    linear = solve_fault(scenario.net.with_elements(src), scenario.fault)
    for name, tap in scenario.net.relay_taps.items():
        mine = sol.fault.total.reading(tap)
        ref = linear.total.reading(tap)
        assert (mine.v - ref.v).max_abs() < 1e-9, name
        assert (mine.i - ref.i).max_abs() < 1e-9, name


def test_incremental_impedance_reflects_the_virtual_branch() -> None:
    z = incremental_source_impedance(1.0 + 0j, 1.0 + 0j, 0.5j)
    assert z == pytest.approx(-0.5j, abs=1e-15)
    assert incremental_source_impedance(1.0 + 0j, 1e-12 + 0j, 0.5j) is None


def test_operating_point_accessors() -> None:
    op = OperatingPoint(
        e_mag=1.05, theta_deg=12.0, v_attach=1 + 0j, i_attach=0j, p=0.0, q=0.0, iterations=3
    )
    assert op.e_ref1 == pytest.approx(from_polar(1.05, 12.0), abs=1e-15)
    assert op.theta_rad == pytest.approx(math.radians(12.0))


CLC_KINDS = (
    "circular",
    "priority",
    "instantaneous",
    "virtual_admittance",
    "adaptive_virtual_impedance",
)


@pytest.mark.parametrize(
    ("kind", "placement"),
    [(kind, "forward") for kind in CLC_KINDS] + [(kind, "reverse") for kind in CLC_KINDS],
)
def test_port_model_reproduces_the_direct_fault_solve(kind: str, placement: str) -> None:
    """v = v_oc + Z_port i matches a full solve at the converged state and off it."""
    scenario = build_scenario(
        {
            "source.kind": "gfm",
            "clc.kind": kind,
            "fault.kind": "bg",
            "fault.placement": placement,
            "fault.m": 0.5,
            "fault.r_g_ohm": 20.0,
        }
    )
    net, node = scenario.net, scenario.net.source_node
    op = prefault_solve(net, scenario.gfm, scenario.p_ref, scenario.q_ref)
    sol = fault_fixed_point(net, scenario.gfm, scenario.fault, op)
    port = terminal_port(solve_fault(net, scenario.fault, port=node).response)
    assert abs(port.z12) > 1e-3  # an unbalanced fault couples the channels

    direct = sol.fault.total.voltage(node)
    v1, v2 = port.voltage(sol.i_t.pos, sol.i_t.neg)
    assert abs(v1 - direct.pos) < 1e-12
    assert abs(v2 - direct.neg) < 1e-12
    assert abs(v1 - sol.v_t.pos) < 1e-12
    assert abs(v2 - sol.v_t.neg) < 1e-12

    i1, i2 = 0.7 - 0.4j, -0.2 + 0.3j
    off = solve_fault(
        net.with_elements(InjectionElement("probe", node, i1=i1, i2=i2)), scenario.fault
    ).total.voltage(node)
    w1, w2 = port.voltage(i1, i2)
    assert abs(w1 - off.pos) < 1e-12
    assert abs(w2 - off.neg) < 1e-12


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("kind", ("sg",) + CLC_KINDS)
def test_one_port_prefault_matches_the_direct_solve(kind: str, placement: str) -> None:
    """The closed-form one-port equals a network solve with the source attached."""
    source = {"source.kind": "sg"} if kind == "sg" else {"source.kind": "gfm", "clc.kind": kind}
    scenario = build_scenario({**source, "fault.placement": placement, "fault.m": 0.5})
    net, node = scenario.net, scenario.net.source_node
    op = prefault_solve(net, scenario.source, scenario.p_ref, scenario.q_ref)
    if scenario.sg is not None:
        element = scenario.sg.source_element(node, op.e_ref1)
    else:
        z = scenario.gfm.normal_z()
        element = SourceElement(SOURCE_EID, node, e1=op.e_ref1, z1=z, z2=z, z0=None)
    direct = solve_linear(net.with_elements(element), sequences=(1,))
    v, i = direct.v[1][node], direct.source_out[1][SOURCE_EID]
    assert abs(op.v_attach - v) < 1e-12
    assert abs(op.i_attach - i) < 1e-12
    s = v * i.conjugate()
    assert abs(op.p - s.real) < 1e-12 and abs(op.q - s.imag) < 1e-12


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("fault_kind", ["ag", "ca", "bcg", "abc"])
def test_fault_response_matches_a_direct_solve_with_the_injection(
    fault_kind: str, placement: str
) -> None:
    scenario = build_scenario(
        {
            "source.kind": "gfm",
            "fault.kind": fault_kind,
            "fault.placement": placement,
            "fault.m": 0.3,
            "fault.r_g_ohm": 10.0,
        }
    )
    net, node = scenario.net, scenario.net.source_node
    i1, i2 = 0.7 - 0.4j, -0.2 + 0.3j
    mine = solve_fault(net, scenario.fault, port=node).response.at(i1, i2)
    direct = solve_fault(
        net.with_elements(InjectionElement("probe", node, i1=i1, i2=i2)), scenario.fault
    )
    for name, tap in net.relay_taps.items():
        a, b = mine.total.reading(tap), direct.total.reading(tap)
        assert (a.v - b.v).max_abs() < 1e-12, name
        assert (a.i - b.i).max_abs() < 1e-12, name
    assert (mine.i_fault - direct.i_fault).max_abs() < 1e-12
    # without a port there is nowhere to inject
    with pytest.raises(ValueError, match="no port"):
        solve_fault(net, scenario.fault).response.at(i1, i2).total


def _grid_case(kind: str, fault_kind: str, m: float, r_g: float, p_ref: float, **extra):
    """One case of the converter robustness grid, solved at its solver settings."""
    scenario = build_scenario(
        {
            "source.kind": "gfm",
            "clc.kind": kind,
            "fault.kind": fault_kind,
            "fault.m": m,
            "fault.r_g_ohm": r_g,
            "source.p_ref": p_ref,
            **extra,
        }
    )
    op = prefault_solve(scenario.net, scenario.gfm, scenario.p_ref, scenario.q_ref)
    sol = fault_fixed_point(
        scenario.net, scenario.gfm, scenario.fault, op,
        tol=scenario.solver.tol, max_iter=scenario.solver.max_iter,
    )
    return scenario, sol


@pytest.mark.parametrize(
    ("kind", "fault_kind", "m", "r_g", "p_ref"),
    [
        # two phase currents tie at the cap at the fixed point: a Jacobian
        # that lets the largest phase switch between probes stalls near 3e-6
        ("circular", "ab", 0.95, 100.0, 0.0),
        ("priority", "ab", 0.95, 100.0, 0.0),
        ("circular", "ca", 0.95, 100.0, 0.0),
        ("priority", "ca", 0.95, 100.0, 0.0),
        # damped iteration alone contracts too slowly for the budget here
        ("instantaneous", "bg", 0.95, 30.0, 0.5),
        ("instantaneous", "bg", 1.0, 0.0, 0.0),
        ("instantaneous", "ag", 1.0, 100.0, 1.0),
        ("virtual_admittance", "ag", 0.95, 0.0, 0.0),
        ("adaptive_virtual_impedance", "ag", 0.0, 30.0, 0.0),
    ],
)
def test_hard_grid_cases_converge(
    kind: str, fault_kind: str, m: float, r_g: float, p_ref: float
) -> None:
    scenario, sol = _grid_case(kind, fault_kind, m, r_g, p_ref)
    assert sol.residual < scenario.solver.tol
    assert sol.iterations <= scenario.solver.max_iter


def test_limit_cycle_is_diagnosed() -> None:
    # the damping factor halves on every plateau; a plateau at its floor
    # ends the solve with the law, the count, the residual and the factor
    with pytest.raises(OscillationDetectedError) as info:
        _grid_case("priority", "ca", 1.0, 30.0, 0.0, **{"solver.max_iter": 1000.0})
    msg = str(info.value)
    assert msg.startswith("priority: residual ")
    assert "iterations with damping at its floor 0.005: limit cycle" in msg
