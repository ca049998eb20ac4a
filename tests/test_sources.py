from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from faultlab import network
from faultlab.abc_oracle import solve_abc
from faultlab.clc import (
    ClcConfig,
    ClcKind,
    _compose,
    describing_function,
    limit,
    max_phase_current,
    phase_components,
)
from faultlab.network import (
    InjectionElement,
    NetworkModel,
    SEQUENCES,
    RelayTap,
    SequenceSolution,
    SeriesElement,
    SourceElement,
    solve_dense,
    solve_fault,
    solve_linear,
)
from faultlab.phasors import (
    PhaseTriple,
    SequenceTriple,
    fortescue,
    from_polar,
    inverse_fortescue,
)
from faultlab.scenario import build_scenario
from faultlab.sources import (
    SOURCE_EID,
    GfmModel,
    NoConvergenceError,
    OperatingPoint,
    OscillationDetectedError,
    SgModel,
    _drive,
    _newton_point,
    fault_fixed_point,
    incremental_source_impedance,
    prefault_solve,
    solve_sg_fault,
)


def _one_port(net: NetworkModel) -> tuple[complex, complex]:
    """(v_oc, z_th) of the healthy positive-sequence network at the source node."""
    build, node = network._solve_one_sequence(net, 1), net.source_node
    return build[None][node], build[node][node]


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
    with pytest.raises(NoConvergenceError, match="^pre-fault dispatch unreachable: "):
        prefault_solve(_two_bus_net(), SgModel(), p_ref=50.0)


@pytest.mark.parametrize("kind", ["sg", "gfm"])
def test_prefault_without_open_circuit_voltage_meets_only_the_ray_of_z_th(kind: str) -> None:
    # with no voltage at the source node S = z_th |i|^2: the emf angle has no effect
    scenario = build_scenario({"source.kind": kind, "circuit.grid_v_pu": 1e-12})
    net, source = scenario.net, scenario.source
    v_oc, z_th = _one_port(net)
    assert abs(v_oc) == pytest.approx(1e-12)
    with pytest.raises(NoConvergenceError, match="^pre-fault dispatch unreachable: "):
        prefault_solve(net, source, scenario.p_ref, scenario.q_ref)
    off_ray = 0.5 * 1j * z_th / abs(z_th)
    with pytest.raises(NoConvergenceError, match="^pre-fault dispatch unreachable: "):
        prefault_solve(net, source, off_ray.real, off_ray.imag)
    # the zero dispatch and one along z_th are met
    for s_ref in (0j, 0.5 * z_th / abs(z_th)):
        op = prefault_solve(net, source, s_ref.real, s_ref.imag)
        assert abs(complex(op.p, op.q) - s_ref) < 1e-8


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


def test_prefault_keeps_the_open_circuit_voltage_beside_a_huge_thevenin_impedance() -> None:
    # a 1e28 pu transformer reactance at the port puts |z_th| at 1e28 pu:
    # |v_oc|^2 vanishes next to 2 Re(S conj(z_th)) unless the closed form
    # divides the cancellation out
    scenario = build_scenario(
        {"source.kind": "gfm", "gfm.x_t_pu": 1e28, "source.p_ref": 0.0, "source.q_ref": 0.5}
    )
    net = scenario.net
    v_oc, z_th = _one_port(net)
    assert abs(z_th) >= 1e28 and abs(abs(v_oc) - 1.0) <= 1e-12
    op = prefault_solve(net, scenario.source, scenario.p_ref, scenario.q_ref, tol=1e-15)
    assert op.i_attach != 0j
    assert abs(complex(op.p, op.q) - 0.5j) <= 1e-15


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
    op = prefault_solve(scenario.net, scenario.source, scenario.p_ref, scenario.q_ref)
    sol = fault_fixed_point(scenario.net, scenario.source, scenario.fault, op)
    return scenario, op, sol


@pytest.mark.parametrize("kind", ["circular", "priority", "instantaneous"])
def test_converged_state_satisfies_the_limiter_law(kind: str) -> None:
    """The delivered current must be the limiter applied to the loop output.

    Rebuilt here from the limiting laws as stated, not from `clc.limit`, so
    the check holds no matter what path the fixed-point iteration took to
    get there, and does not compare the solver's limiter with itself.
    """
    scenario, op, sol = _converged(kind)
    assert sol.limiter_active
    gfm = scenario.source
    cfg = gfm.clc
    ref1 = gfm.k_pv * (op.e_ref1 - sol.v_t.pos) + sol.i_t.pos
    ref2 = gfm.k_pv * (0.0 - sol.v_t.neg) + sol.i_t.neg

    def clamp_dq(ref_dq: complex) -> complex:
        d = min(cfg.i_lim, max(-cfg.i_lim, ref_dq.real))
        headroom = math.sqrt(max(0.0, cfg.i_lim**2 - d * d))
        return complex(d, min(headroom, max(-headroom, ref_dq.imag)))

    if kind == "circular":
        peak = max_phase_current(ref1, ref2)
        k = min(1.0, cfg.i_lim / peak)
        want1, want2 = ref1 * k, ref2 * k
    elif kind == "priority":
        rot = cmath.exp(-1j * op.theta_rad)
        s1, s2 = clamp_dq(ref1 * rot) / rot, clamp_dq(ref2 / rot) * rot
        k = min(1.0, cfg.i_lim / max_phase_current(s1, s2))
        want1, want2 = s1 * k, s2 * k
    else:
        phases = inverse_fortescue(SequenceTriple(pos=ref1, neg=ref2))
        a, b, c = (
            p * describing_function(abs(p), cfg.clip_level) for p in (phases.a, phases.b, phases.c)
        )
        want = fortescue(PhaseTriple(a, b, c))  # the zero-sequence residue has no path
        want1, want2 = want.pos, want.neg

    assert abs(sol.i_t.pos - want1) < 1e-8
    assert abs(sol.i_t.neg - want2) < 1e-8
    assert sol.residual < 1e-9


@pytest.mark.parametrize(
    ("kind", "fault_kind", "r_g", "active"),
    [
        ("virtual_admittance", "bcg", 0.0, True),
        ("virtual_admittance", "ag", 400.0, False),
        ("adaptive_virtual_impedance", "bcg", 0.0, True),
        ("adaptive_virtual_impedance", "ag", 400.0, False),
    ],
)
def test_converged_state_satisfies_the_shaping_law(
    kind: str, fault_kind: str, r_g: float, active: bool
) -> None:
    """The shaped impedance must be the law applied to the terminal state it produces.

    Rebuilt here from the laws as the `clc` docstrings state them, not by
    calling `clc`: the admittance law from the driving voltage |e - v1| +
    |v2|, the adaptive law from the largest phase current.
    """
    scenario, op, sol = _converged(kind, fault_kind=fault_kind, r_g=r_g)
    assert sol.limiter_active is active
    cfg = scenario.source.clc
    if kind == "virtual_admittance":
        v_drive = abs(op.e_ref1 - sol.v_t.pos) + abs(sol.v_t.neg)
        x_v = max(cfg.x_vn, v_drive / (cfg.i_lim * math.sqrt(1.0 + 1.0 / cfg.n_x_r**2)))
        want = complex(max(cfg.r_vn, x_v / cfg.n_x_r), x_v)
        idle = complex(cfg.r_vn, cfg.x_vn)
    else:
        i_peak = inverse_fortescue(sol.i_t).max_abs()
        x_v = cfg.k_x * (i_peak - cfg.i_th) if i_peak >= cfg.i_th else 0.0
        want = complex(x_v / cfg.n_x_r, x_v)
        idle = 0j
    assert sol.z_v1 == sol.z_v2
    assert abs(sol.z_v1 - want) < 1e-8
    assert sol.residual < scenario.solver.tol
    if not active:
        assert sol.z_v1 == idle


@pytest.mark.parametrize("kind", ["circular", "priority"])
def test_limited_current_respects_the_phase_cap(kind: str) -> None:
    scenario, _, sol = _converged(kind)
    cap = scenario.source.clc.i_lim
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
    net = NetworkModel(elements=())
    healthy = SequenceSolution(v={}, net=net)
    op = OperatingPoint(
        e_mag=1.05, theta_deg=12.0, v_attach=1 + 0j, i_attach=0j, p=0.0, q=0.0, healthy=healthy
    )
    assert op.e_ref1 == pytest.approx(from_polar(1.05, 12.0), abs=1e-15)
    assert op.theta_rad == pytest.approx(math.radians(12.0))


def test_what_a_network_alone_determines_is_one_object_per_input_bit_for_bit() -> None:
    """The dispatch, a generator's fault network and a converter's faulted
    port are made once per network object and inputs: equal bits give the
    same object, and a change in any bit, a zero's sign included, another.
    A generator's fault solution is every call's own."""
    sg_case = build_scenario({"source.kind": "sg"})
    net, sg, spec = sg_case.net, sg_case.source, sg_case.fault
    op = prefault_solve(net, sg, 0.5, 0.0)
    assert prefault_solve(net, SgModel(*sg), float("0.5"), 0.0) is op
    for other in ((sg, 0.5, -0.0), (sg, 0.5, 0), (sg._replace(x1=0.25), 0.5, 0.0)):
        assert prefault_solve(net, *other) is not op, other
    assert prefault_solve(net, sg, 0.5, 0.0, tol=1e-9) is not op
    sol = solve_sg_fault(net, sg, spec, op)
    again = solve_sg_fault(net, SgModel(*sg), spec, op)
    assert again.fault.net is sol.fault.net and again.frozen is sol.frozen
    assert again.fault is not sol.fault and again == sol
    assert solve_sg_fault(net, sg._replace(x0=0.11), spec, op).fault.net is not sol.fault.net
    assert solve_sg_fault(net, sg, spec, prefault_solve(net, sg)).fault.net is not sol.fault.net

    gfm_case = build_scenario({"source.kind": "gfm"})
    net, spec = gfm_case.net, gfm_case.fault
    port = solve_fault(net, spec, port=net.source_node)
    assert solve_fault(net, spec._replace(), port=net.source_node) is port
    for other in (spec._replace(r_g_ohm=-0.0), spec._replace(r_g_ohm=5.0), spec._replace(m=0.4)):
        assert solve_fault(net, other, port=net.source_node) is not port, other
    assert solve_fault(net, spec, port="bus1") is not port
    assert solve_fault(net, spec) is not solve_fault(net, spec)


CLC_KINDS = (
    "circular",
    "priority",
    "instantaneous",
    "virtual_admittance",
    "adaptive_virtual_impedance",
)
FAULT_KINDS = ("ag", "bg", "cg", "ab", "bc", "ca", "abg", "bcg", "cag", "abc")


@pytest.mark.parametrize(
    ("kind", "placement"),
    [(kind, "forward") for kind in CLC_KINDS] + [(kind, "reverse") for kind in CLC_KINDS],
)
def test_port_model_reproduces_the_direct_fault_solve(kind: str, placement: str) -> None:
    """v = v_oc + Z_port i matches a full solve at the converged state and off it.

    `FaultSolution.terminal_port` reads the port off the build columns
    through the fault boundary of the fault's own category, so every
    category is checked against a solve that stamps the currents as an
    injection.
    """
    for fault_kind in ("ag", "bg", "ab", "bcg", "abc"):
        scenario = build_scenario(
            {
                "source.kind": "gfm",
                "clc.kind": kind,
                "fault.kind": fault_kind,
                "fault.placement": placement,
                "fault.m": 0.5,
                "fault.r_g_ohm": 20.0,
            }
        )
        net, node = scenario.net, scenario.net.source_node
        op = prefault_solve(net, scenario.source, scenario.p_ref, scenario.q_ref)
        sol = fault_fixed_point(net, scenario.source, scenario.fault, op)
        port = solve_fault(net, scenario.fault, port=node).terminal_port
        if fault_kind != "abc":  # an unbalanced fault couples the channels
            assert abs(port.z12) > 1e-3, fault_kind

        v1, v2 = port.voltage(sol.i_t.pos, sol.i_t.neg)
        assert abs(v1 - sol.v_t.pos) < 1e-12, fault_kind
        assert abs(v2 - sol.v_t.neg) < 1e-12, fault_kind
        for i1, i2 in ((sol.i_t.pos, sol.i_t.neg), (0.7 - 0.4j, -0.2 + 0.3j)):
            direct = solve_fault(
                net.with_elements(InjectionElement("probe", node, i1=i1, i2=i2)), scenario.fault
            ).total.voltage(node)
            w1, w2 = port.voltage(i1, i2)
            assert abs(w1 - direct.pos) < 1e-12, fault_kind
            assert abs(w2 - direct.neg) < 1e-12, fault_kind


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("kind", ("sg",) + CLC_KINDS)
def test_one_port_prefault_matches_the_direct_solve(kind: str, placement: str) -> None:
    """The closed-form one-port equals a network solve with the source attached."""
    source = {"source.kind": "sg"} if kind == "sg" else {"source.kind": "gfm", "clc.kind": kind}
    scenario = build_scenario({**source, "fault.placement": placement, "fault.m": 0.5})
    net, node = scenario.net, scenario.net.source_node
    op = prefault_solve(net, scenario.source, scenario.p_ref, scenario.q_ref)
    if isinstance(scenario.source, SgModel):
        element = scenario.source.source_element(node, op.e_ref1)
    else:
        z = scenario.source.normal_z()
        element = SourceElement(SOURCE_EID, node, e1=op.e_ref1, z1=z, z2=z, z0=None)
    direct = solve_linear(net.with_elements(element), sequences=(1,))
    if element.z1:
        i = direct.current(1, SOURCE_EID)
    else:  # a pinned source delivers what leaves its node through the series elements
        i = sum(
            ((e.n_from == node) - (e.n_to == node)) * direct.current(1, e.eid)
            for e in net.elements
            if isinstance(e, SeriesElement)
        )
    v = direct.v[1][node]
    assert abs(op.v_attach - v) < 1e-12
    assert abs(op.i_attach - i) < 1e-12
    s = v * i.conjugate()
    assert abs(op.p - s.real) < 1e-12 and abs(op.q - s.imag) < 1e-12


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("fault_kind", FAULT_KINDS)
def test_generator_current_matches_the_phase_domain_solve(fault_kind: str, placement: str) -> None:
    """i_t, read off the generator's own branch, equals the oracle's source current."""
    for m in (0.0, 0.5, 1.0):
        scenario = build_scenario(
            {"source.kind": "sg", "fault.kind": fault_kind, "fault.placement": placement,
             "fault.m": m}
        )
        net = scenario.net
        op = prefault_solve(net, scenario.source, scenario.p_ref, scenario.q_ref)
        sol = solve_sg_fault(net, scenario.source, scenario.fault, op)
        abc = solve_abc(net.with_elements(sol.frozen), scenario.fault)
        assert (sol.i_t - fortescue(abc.source_current(SOURCE_EID))).max_abs() < 1e-9, m


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("kind", ("sg",) + CLC_KINDS)
def test_prefault_closed_form_meets_the_dispatch_on_the_high_voltage_root(
    kind: str, placement: str
) -> None:
    source = {"source.kind": "sg"} if kind == "sg" else {"source.kind": "gfm", "clc.kind": kind}
    scenario = build_scenario({**source, "fault.placement": placement, "fault.m": 0.5})
    net, src = scenario.net, scenario.source
    z = 1j * src.x1 if isinstance(src, SgModel) else src.normal_z()
    v_oc, z_th = _one_port(net)
    # S = lam * s_dir reaches the transfer limit (a double root) at lam_max
    s_dir = cmath.exp(0.3j)
    lam_max = abs(v_oc) ** 2 / (2.0 * (abs(z_th) - (s_dir * z_th.conjugate()).real))
    for s_ref in (1.0 + 0j, 0.8 - 0.4j, -0.5 + 0.3j, 0.999 * lam_max * s_dir):
        op = prefault_solve(net, src, s_ref.real, s_ref.imag, tol=1e-12)
        v, i = op.v_attach, op.i_attach
        assert abs(v * i.conjugate() - s_ref) < 1e-12, s_ref
        assert abs(v - (v_oc + z_th * i)) < 1e-12, s_ref
        assert abs(op.e_ref1 - (v + z * i)) < 1e-12, s_ref
        # the other root of |z_th|^2 t^2 - b t + |S|^2 = 0 has the lower voltage
        b = abs(v_oc) ** 2 + 2.0 * (s_ref * z_th.conjugate()).real
        t_low = (b + math.sqrt(b * b - 4.0 * abs(z_th * s_ref) ** 2)) / (2.0 * abs(z_th) ** 2)
        i_low = ((s_ref - z_th * t_low) / v_oc).conjugate()
        assert abs(v) >= abs(v_oc + z_th * i_low), s_ref
    with pytest.raises(NoConvergenceError, match="^pre-fault dispatch unreachable: "):
        s_ref = 1.001 * lam_max * s_dir
        prefault_solve(net, src, s_ref.real, s_ref.imag)


@pytest.mark.parametrize("placement", ["forward", "reverse"])
@pytest.mark.parametrize("fault_kind", FAULT_KINDS)
def test_fault_response_matches_a_direct_solve_with_the_injection(
    fault_kind: str, placement: str
) -> None:
    """A fault solution at port currents (i1, i2) is the fault solve of the
    network with (i1, i2) stamped as an injection: every part at every node
    in every sequence, the Thevenin view at the fault node and the fault
    current."""
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
    mine = solve_fault(net, scenario.fault, port=node).at(i1, i2)
    direct = solve_fault(
        net.with_elements(InjectionElement("probe", node, i1=i1, i2=i2)), scenario.fault
    )
    for part in ("base", "pure", "total"):
        a, b = getattr(mine, part).v, getattr(direct, part).v
        for seq in SEQUENCES:
            assert a[seq].keys() == b[seq].keys(), (part, seq)
            for bus in a[seq]:
                assert abs(a[seq][bus] - b[seq][bus]) < 1e-12, (part, seq, bus)
    for name, tap in net.relay_taps.items():
        a, b = mine.total.reading(tap), direct.total.reading(tap)
        assert (a.v - b.v).max_abs() < 1e-12, name
        assert (a.i - b.i).max_abs() < 1e-12, name
    assert max(abs(x - y) for x, y in zip(mine.thevenin, direct.thevenin)) < 1e-12
    assert (mine.i_fault - direct.i_fault).max_abs() < 1e-12
    assert mine.pure.v[1][net.fault_node] != 0
    # without a port there is nowhere to inject
    with pytest.raises(ValueError, match="no port"):
        solve_fault(net, scenario.fault).at(i1, i2)


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
    op = prefault_solve(scenario.net, scenario.source, scenario.p_ref, scenario.q_ref)
    sol = fault_fixed_point(
        scenario.net, scenario.source, scenario.fault, op,
        tol=scenario.solver.tol, max_iter=scenario.solver.max_iter,
    )
    return scenario, sol


@pytest.mark.parametrize(
    ("kind", "fault_kind", "m", "r_g", "p_ref"),
    [
        # two phase currents tie at the cap at the fixed point: a Jacobian
        # that is not taken on one branch stalls near 3e-6
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


def test_newton_takes_the_whole_step_on_an_affine_contraction() -> None:
    # G = law - x is affine and its Jacobian exact, so one uncapped Newton
    # step lands on the fixed point
    x_star = (1.0 + 1.0j, -2.0 + 0.5j)
    m = ((0.5, 0.2j), (0.1, -0.3 + 0.1j))

    def law(*x: complex) -> tuple:
        d = [xk - sk for xk, sk in zip(x, x_star)]
        y = tuple(sk + row[0] * d[0] + row[1] * d[1] for sk, row in zip(x_star, m))
        return *y, lambda: (m, ((0j, 0j), (0j, 0j)))

    x, _, res, it = _drive(law, tuple(sk + 40.0 for sk in x_star), tol=1e-9, max_iter=100,
                           name="affine")
    assert it <= 2
    assert res < 1e-9
    assert max(abs(xk - sk) for xk, sk in zip(x, x_star)) < 1e-9


def _piece(cfg: ClcConfig, theta: float, ref1: complex, ref2: complex,
           gap: float = 0.05) -> tuple | None:
    """The smooth piece of the limiter at (ref1, ref2), from the laws as stated.

    instantaneous: whether each phase is clipped. priority: each channel's
    (side_d, side_q), -1, 0 or 1 for the side of its clamp, then whether
    the rescale binds; circular: whether it binds. None when a piece
    boundary is less than gap away."""
    if cfg.kind is ClcKind.INSTANTANEOUS:
        amps = [abs(p) for p in phase_components(ref1, ref2)]
        if not all(abs(a - cfg.clip_level) > gap for a in amps):
            return None
        return tuple(a > cfg.clip_level for a in amps)
    refs, sides = [ref1, ref2], []
    if cfg.kind is ClcKind.PRIORITY:
        rot = cmath.exp(-1j * theta)
        for k, u in enumerate((rot, 1.0 / rot)):
            w = refs[k] * u
            if abs(abs(w.real) - cfg.i_lim) < gap:
                return None
            d, q = max(-cfg.i_lim, min(cfg.i_lim, w.real)), w.imag
            root = math.sqrt(cfg.i_lim**2 - d * d)
            if abs(abs(q) - root) < gap:
                return None
            sides.append(((w.real > cfg.i_lim) - (w.real < -cfg.i_lim), (q > root) - (q < -root)))
            refs[k] = complex(d, max(-root, min(root, q))) / u
    # the phase that sets the rescale is clear of the next, and of the cap
    mags = sorted(abs(p) for p in phase_components(*refs))
    if not (mags[2] - mags[1] > gap and abs(mags[2] - cfg.i_lim) > gap):
        return None
    return (*sides, mags[2] > cfg.i_lim)


def _central_difference(cfg: ClcConfig, theta: float, c: tuple, m: tuple, x: tuple,
                        h: float = 1e-6) -> list[list[float]]:
    """Real 4x4 Jacobian of G(x) = limit(c + M @ x) - x by central differences.

    Its points are clear of the limiter's piece boundaries, so every
    difference stays on one piece."""
    def g(x: tuple) -> list[float]:
        ref = [c[i] + m[i][0] * x[0] + m[i][1] * x[1] for i in range(2)]
        out = limit(cfg, theta, *ref)[:2]
        return [v for o, xk in zip(out, x) for gk in (o - xk,) for v in (gk.real, gk.imag)]

    cols = []
    for col in range(4):
        step = h if col % 2 == 0 else 1j * h
        up = [xk + (step if k == col // 2 else 0) for k, xk in enumerate(x)]
        down = [xk - (step if k == col // 2 else 0) for k, xk in enumerate(x)]
        cols.append([(a - b) / (2.0 * h) for a, b in zip(g(up), g(down))])
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def _newton_matrix(p: tuple, q: tuple) -> list[list[float]]:
    """The real 4x4 Jacobian of G = law - x from the law's CR pair (P, Q).

    Over dx = a + jb the law moves by (P + Q) a + j (P - Q) b; rows and
    columns alternate real and imaginary parts, unknown by unknown, and the
    identity comes off the diagonal. The reference for the driver's
    closed-form step.
    """
    rows = []
    for k, (p_row, q_row) in enumerate(zip(p, q)):
        re, im = [], []
        for pkj, qkj in zip(p_row, q_row):
            on_re, on_im = pkj + qkj, pkj - qkj
            re += (on_re.real, -on_im.imag)
            im += (on_re.imag, on_im.real)
        re[2 * k] -= 1.0
        im[2 * k + 1] -= 1.0
        rows += (re, im)
    return rows


def _branch_points(kind: str, rng: random.Random, count: int) -> tuple[ClcConfig, list]:
    """count seeded (theta, ref, M, x), each ref clear of the limiter's piece
    boundaries, M a random loop map; asserts every piece was sampled."""
    cfg = ClcConfig(kind=ClcKind(kind), i_lim=1.2, clip_level=1.2)
    points, seen = [], set()
    while len(points) < count:
        theta = rng.uniform(-math.pi, math.pi)
        ref = [cmath.rect(rng.uniform(0.0, r_max), rng.uniform(-math.pi, math.pi))
               for r_max in (2.5, 1.5)]
        piece = _piece(cfg, theta, *ref)
        if piece is None:
            continue
        m = tuple(tuple(complex(i == j) - 2.0 * complex(rng.gauss(0, 0.3), rng.gauss(0, 0.3))
                        for j in range(2)) for i in range(2))
        x = (complex(rng.gauss(0, 1), rng.gauss(0, 1)), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        points.append((theta, ref, m, x))
        # clipped and unclipped phases; the clamp sides and the rescale
        seen.update(piece)
    if cfg.kind is ClcKind.PRIORITY:
        # every (side_d, side_q) a channel can take: d clamped leaves q no headroom
        assert seen >= {(0, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    # clipped and unclipped phases, or the rescale binding and idle
    assert {True, False} <= seen
    return cfg, points


@pytest.mark.parametrize("kind", ["circular", "priority", "instantaneous"])
def test_limit_jacobian_matches_central_differences_on_every_branch(kind: str) -> None:
    # seeded random points, kept clear of the piece boundaries; the
    # Jacobian of G = law - x the driver builds from (A @ M, B @ conj(M)),
    # with (A, B) the derivative `limit` returns, must equal a
    # central-difference one
    cfg, points = _branch_points(kind, random.Random(16), 400)
    for theta, ref, m, x in points:
        c = tuple(ref[i] - m[i][0] * x[0] - m[i][1] * x[1] for i in range(2))
        analytic = _newton_matrix(*_compose(limit(cfg, theta, *ref)[2](), m))
        numeric = _central_difference(cfg, theta, c, m, x)
        scale = max(abs(v) for row in numeric for v in row)
        err = max(abs(a - b) for ra, rb in zip(analytic, numeric) for a, b in zip(ra, rb))
        assert err <= 1e-6 * scale, (theta, ref, err)


def _eliminated_step(p: tuple, q: tuple, g: tuple) -> tuple | None:
    """The Newton step on G by elimination of the real 4x4 system, or None."""
    dx = solve_dense(_newton_matrix(p, q), [[-v] for gk in g for v in (gk.real, gk.imag)])
    if dx is None:
        return None
    return complex(dx[0][0], dx[1][0]), complex(dx[2][0], dx[3][0])


def _closed_form_step(p: tuple, q: tuple, g: tuple) -> tuple | None:
    """The driver's Newton step on G from the CR pair (P, Q), or None."""
    return _newton_point((p, q), (0j, 0j), g)


def _has_negative_zero(m: list[list]) -> bool:
    parts = (p for row in m for v in row for p in (complex(v).real, complex(v).imag))
    return any(p == 0 and math.copysign(1.0, p) < 0 for p in parts)


@pytest.mark.parametrize("family", ["random", "priority", "instantaneous", "signed-zeros"])
def test_closed_form_newton_step_equals_the_real_elimination(family: str) -> None:
    """On well-conditioned systems the closed form and elimination of the
    real system agree to 1e-12 of the step. The families: Gaussian (P, Q, g);
    the law's pair on every piece of each driver law; and parts drawn from
    signed zeros and a few binary fractions, so that many entries are -0.0."""
    rng = random.Random(19)

    def gauss() -> complex:
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    def signed() -> complex:
        parts = (0.0, -0.0, 0.0, -0.0, 0.5, -1.25, 2.0)
        return complex(rng.choice(parts), rng.choice(parts))

    if family in ("priority", "instantaneous"):
        cfg, points = _branch_points(family, rng, 400)
        systems = [(*_compose(limit(cfg, theta, *ref)[2](), m), (gauss(), gauss()))
                   for theta, ref, m, _ in points]
    else:
        draw = gauss if family == "random" else signed
        systems = [(((draw(), draw()), (draw(), draw())), ((draw(), draw()), (draw(), draw())),
                    (draw(), draw())) for _ in range(400)]
    compared = signed_zeros = 0
    for p, q, g in systems:
        # 1e-12 is within reach of both only on a well-conditioned system
        if np.linalg.cond(np.array(_newton_matrix(p, q))) > 1e3:
            continue
        expected, step = _eliminated_step(p, q, g), _closed_form_step(p, q, g)
        if step is None:
            # refused though solvable: only where conj(A) = conj(P - I) is singular
            (p11, p12), (p21, p22) = p
            assert (p11 - 1.0) * (p22 - 1.0) - p12 * p21 == 0, (p, q, g)
            continue
        scale = max(abs(v) for v in expected)
        assert max(abs(a - b) for a, b in zip(step, expected)) <= 1e-12 * scale, (p, q, g)
        compared += 1
        signed_zeros += _has_negative_zero([*p, *q, g])
    assert compared >= 300
    if family == "signed-zeros":
        assert signed_zeros >= 200


def test_closed_form_newton_step_refuses_every_singular_real_system() -> None:
    """Three exactly singular families, which elimination of the real system
    refuses: A = B real, so Im dx is free; a channel whose law is the
    identity, so its rows of G's Jacobian are zero; and a channel whose law
    moves with Re dx alone, 0.5 Re dx + j Im dx = 0.75 dx - 0.25 conj(dx)."""
    rng = random.Random(19)

    def gauss() -> complex:
        return complex(rng.gauss(0, 1), rng.gauss(0, 1))

    for trial in range(300):
        family, k = trial % 3, rng.randrange(2)
        if family == 0:
            # quarters, so that A + I - A is I exactly
            a = [[complex(rng.randint(-8, 8) / 4) for _ in range(2)] for _ in range(2)]
            p = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)]
            q = a
        else:
            p = [[gauss(), gauss()], [gauss(), gauss()]]
            q = [[gauss(), gauss()], [gauss(), gauss()]]
            on, off = (1.0, 0.0) if family == 1 else (0.75, -0.25)
            p[k] = [complex(on * (j == k)) for j in range(2)]
            q[k] = [complex(off * (j == k)) for j in range(2)]
        g = (gauss(), gauss())
        assert _eliminated_step(p, q, g) is None, (trial, p, q)
        assert _closed_form_step(p, q, g) is None, (trial, p, q)


@pytest.mark.parametrize("n", [2, 4])
def test_elimination_matches_numpy_on_well_conditioned_systems(n: int) -> None:
    rng = np.random.default_rng(n)
    for _ in range(50):
        # diagonally dominant, so well conditioned; reversing the rows puts
        # the dominant entries off the diagonal, which takes row exchanges
        a = rng.standard_normal((n, n)) + n * np.diag(rng.choice([-1.0, 1.0], n))
        b = rng.standard_normal((n, 1))
        for a_rows, b_rows in ((a, b), (a[::-1], b[::-1])):
            x = solve_dense(a_rows.tolist(), b_rows.tolist())
            assert x is not None
            want = np.linalg.solve(a_rows, b_rows)
            assert np.abs(np.array(x) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [2, 4, 12])
def test_elimination_matches_numpy_on_complex_systems(n: int, k: int) -> None:
    rng = np.random.default_rng(100 * n + k)
    for _ in range(20):
        # diagonally dominant complex systems with k right-hand sides, rows
        # reversed as above so that the pivoting exchanges rows
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a += n * np.diag(np.exp(2j * math.pi * rng.random(n)))
        b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        for a_rows, b_rows in ((a, b), (a[::-1], b[::-1])):
            x = solve_dense(a_rows.tolist(), b_rows.tolist())
            assert x is not None
            want = np.linalg.solve(a_rows, b_rows)
            assert np.abs(np.array(x) - want).max() <= 1e-12 * np.abs(want).max()


def test_elimination_exchanges_rows_at_a_zero_diagonal() -> None:
    assert solve_dense([[0.0, 2.0], [3.0, 0.0]], [[4.0], [3.0]]) == [[1.0], [2.0]]


def test_elimination_refuses_a_singular_matrix() -> None:
    assert solve_dense([[1.0, 2.0], [2.0, 4.0]], [[1.0], [1.0]]) is None
    assert solve_dense([[0.0, 0.0], [0.0, 1.0]], [[1.0], [1.0]]) is None


def test_elimination_refuses_an_infinite_entry() -> None:
    assert solve_dense([[1.0, math.inf], [1.0, 1.0]], [[1.0], [1.0]]) is None
    assert solve_dense([[1j, complex(math.inf, 0.0)], [1.0, 1j]], [[1j, 0j], [1.0, 2.0]]) is None
    # an infinite pivot only divides its unknown away, so the solution stays
    # finite, as LAPACK's does
    assert solve_dense([[2j, 1.0], [1.0, complex(0.0, math.inf)]], [[1j], [1.0]]) == [[0.5], [0.0]]


def test_singular_jacobian_falls_back_to_the_damped_step() -> None:
    # G = (0.5 (1 - Re x1), 0): the second channel's law is the identity and
    # the first ignores Im x1, so the Jacobian is singular, every iteration
    # is the damped step x + G / 2 and the count is the damped recursion's
    def law(x1: complex, x2: complex) -> tuple:
        # d law1 = 0.5 Re(dx1) + j Im(dx1) = 0.75 dx1 - 0.25 conj(dx1)
        pq = ((0.75 + 0j, 0j), (0j, 1 + 0j)), ((-0.25 + 0j, 0j), (0j, 0j))
        return complex(0.5 * x1.real + 0.5, x1.imag), x2, lambda: pq

    x, _, res, it = _drive(law, (0j, 0j), tol=1e-9, max_iter=200, name="singular")
    damped, expected = 0.0, 1
    while abs(g := (0.5 * damped + 0.5) - damped) >= 1e-9:
        damped += 0.5 * g
        expected += 1
    assert it == expected > 3
    assert x == (complex(damped), 0j)
    assert res < 1e-9


def test_priority_fixed_point_is_not_unique() -> None:
    # d clamped at +i_lim in the positive channel and -i_lim in the negative
    # one leaves no q headroom: on that piece the law is constant, and here
    # its constant is a fixed point distinct from the one the driver finds
    scenario, sol = _grid_case("priority", "bg", 0.05, 5.0, 0.5)
    net, gfm = scenario.net, scenario.source
    cfg, k_pv = gfm.clc, gfm.k_pv
    op = prefault_solve(net, gfm, scenario.p_ref, scenario.q_ref)
    port = solve_fault(net, scenario.fault, port=net.source_node).terminal_port

    def free_law_residual(i1: complex, i2: complex) -> float:
        v1, v2 = port.voltage(i1, i2)
        out1, out2, _ = limit(
            cfg, op.theta_rad, k_pv * (op.e_ref1 - v1) + i1, k_pv * (0.0 - v2) + i2
        )
        return max(abs(out1 - i1), abs(out2 - i2))

    along_d = cmath.exp(1j * op.theta_rad)
    piece1, piece2, _ = limit(
        cfg, op.theta_rad, 2.0 * cfg.i_lim * along_d, -2.0 * cfg.i_lim / along_d
    )
    assert abs(piece1 - (0.630 + 0.109j)) < 1e-3 and abs(piece2 - (-0.630 + 0.109j)) < 1e-3
    driven = (sol.i_t.pos, sol.i_t.neg)
    assert free_law_residual(*driven) < scenario.solver.tol
    assert free_law_residual(piece1, piece2) < scenario.solver.tol
    assert max(abs(driven[0] - piece1), abs(driven[1] - piece2)) > 0.1
