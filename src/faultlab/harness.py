"""Scenario execution pipeline and the strategy-by-element matrix.

run_scenario ties the stages together: pre-fault power flow for the source
reference, the linear (generator) or fixed-point (converter) fault solve,
relay evaluation at bus 1 with genuine pre-fault readings for the
incremental quantities, and optionally an independent phase-domain re-solve
of the converged operating point as a numerical cross-check.

The cross-check freezes the converter at its converged terminal currents
and replaces it by an equivalent injection (substitution theorem), because
the phase-domain oracle only stamps Norton-representable elements; the
generator is Norton already and passes through unchanged.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .abc_oracle import solve_abc
from .network import (
    BusReading,
    FaultSolution,
    FaultType,
    InjectionElement,
    SourceElement,
    solve_linear,
)
from .phasors import ZeroPhasorError, angle_deg, fortescue, inverse_fortescue, wrap_angle_deg
from .relay import (
    GROUND_CENTERS,
    Direction,
    directional_incremental,
    directional_negative,
    directional_zero,
    phase_select,
)
from .report import ScenarioReport
from .scenario import (
    DEFAULTS,
    Scenario,
    SourceKind,
    ValidationError,
    build_scenario,
)
from .sources import (
    SOURCE_EID,
    ClcSolution,
    OperatingPoint,
    effective_impedances,
    fault_fixed_point,
    incremental_source_impedance,
    prefault_solve,
    solve_sg_fault,
)

__all__ = [
    "run_scenario",
    "run_sweep",
    "sweep_scenarios",
    "prefault_network_readings",
    "Table1Row",
    "Table1Result",
    "TABLE1_ROWS",
    "TABLE1_ELEMENTS",
    "table1_matrix",
    "format_table1",
]


def _prefault_element(scenario: Scenario, op: OperatingPoint) -> SourceElement:
    if scenario.kind is SourceKind.SG:
        assert scenario.sg is not None
        return scenario.sg.source_element(scenario.net.source_node, op.e_ref1)
    assert scenario.gfm is not None
    z = scenario.gfm.normal_z()
    return SourceElement(
        SOURCE_EID, scenario.net.source_node, e1=op.e_ref1, z1=z, z2=z, z0=None
    )


def prefault_network_readings(
    scenario: Scenario, op: OperatingPoint
) -> dict[str, BusReading]:
    """Relay readings of the healthy network at the found operating point."""
    sol = solve_linear(scenario.net.with_elements(_prefault_element(scenario, op)))
    return {name: sol.reading(tap) for name, tap in scenario.net.relay_taps.items()}


def _ang(x: complex) -> float | None:
    try:
        return angle_deg(x)
    except ZeroPhasorError:
        return None


def _polar(z: complex | None) -> tuple[float | None, float | None]:
    if z is None:
        return None, None
    return abs(z), _ang(z)


def _oracle_residual(
    scenario: Scenario, fault_sol: FaultSolution, clc: ClcSolution | None, op: OperatingPoint
) -> float:
    """Max sequence-component mismatch between the two solution routes."""
    net = scenario.net
    if scenario.kind is SourceKind.SG:
        assert scenario.sg is not None
        frozen = scenario.sg.source_element(net.source_node, op.e_ref1)
    else:
        assert clc is not None
        frozen = InjectionElement("frozen_clc", net.source_node, clc.i_t.pos, clc.i_t.neg)
    seq_sol = fault_sol.total
    abc = solve_abc(net.with_elements(frozen), scenario.fault)
    worst = 0.0
    for name, tap in net.relay_taps.items():
        seq_reading = seq_sol.reading(tap)
        v_abc, i_abc = abc.reading(tap)
        for mine, theirs in (
            (seq_reading.v, fortescue(v_abc)),
            (seq_reading.i, fortescue(i_abc)),
        ):
            worst = max(worst, (mine - theirs).max_abs())
    return worst


def run_scenario(scenario: Scenario, oracle_check: bool = False) -> ScenarioReport:
    """Execute one scenario end to end and assemble its report."""
    net = scenario.net
    op = prefault_solve(
        net,
        scenario.source,
        p_ref=scenario.p_ref,
        q_ref=scenario.q_ref,
        tol=scenario.solver.newton_tol,
        max_iter=scenario.solver.newton_max_iter,
    )

    clc: ClcSolution | None = None
    if scenario.kind is SourceKind.SG:
        assert scenario.sg is not None
        fault_sol = solve_sg_fault(net, scenario.sg, scenario.fault, op)
        iterations, residual, limiter_active = 1, 0.0, False
        i_src = fault_sol.total.source_current(SOURCE_EID)
        i_max_phase = inverse_fortescue(i_src).max_abs()
    else:
        assert scenario.gfm is not None
        clc = fault_fixed_point(
            net,
            scenario.gfm,
            scenario.fault,
            op,
            tol=scenario.solver.tol,
            max_iter=scenario.solver.max_iter,
            damping=scenario.solver.damping,
        )
        fault_sol = clc.fault
        iterations, residual = clc.iterations, clc.residual
        limiter_active = clc.limiter_active
        i_max_phase = clc.i_max_phase

    readings = fault_sol.readings(net)
    pre = prefault_network_readings(scenario, op)
    r1, p1 = readings["bus1"], pre["bus1"]
    r2 = readings["bus2"]

    dir_neg = directional_negative(r1, scenario.dir_cfg)
    dir_zero = directional_zero(r1, scenario.dir_cfg)
    dir_inc = directional_incremental(r1, p1, scenario.dir_cfg)
    selection = phase_select(r1, p1, scenario.sel_cfg)

    if scenario.kind is SourceKind.GFM:
        assert clc is not None and scenario.gfm is not None
        # the transformer is a pure reactance
        z_e1, z_e2, z_e0 = effective_impedances(
            clc.z_v1, clc.z_v2, scenario.gfm.x_f_network,
            scenario.z_side1.imag, scenario.z_side0.imag,
        )
        z_v1, z_v2 = clc.z_v1, clc.z_v2
        sigma1, sigma2 = clc.sigma1, clc.sigma2
        di1 = r1.i.pos - p1.i.pos
        z_ad = (
            None
            if z_v1 is None
            else incremental_source_impedance(r1.i.pos, di1, z_v1)
        )
    else:
        assert scenario.sg is not None
        z_e1 = 1j * scenario.sg.x1 + scenario.z_side1
        z_e2 = 1j * scenario.sg.x2 + scenario.z_side1
        z_e0 = 1j * scenario.sg.x0 + scenario.z_side0
        z_v1 = z_v2 = None
        sigma1 = sigma2 = None
        z_ad = None
        di1 = r1.i.pos - p1.i.pos

    dv1 = r1.v.pos - p1.v.pos
    dvdi1 = dv1 / di1 if abs(di1) > scenario.dir_cfg.floor else None

    oracle_max_err = _oracle_residual(scenario, fault_sol, clc, op) if oracle_check else None

    zv1_mag, zv1_ang = _polar(z_v1)
    zv2_mag, zv2_ang = _polar(z_v2)
    ze1_mag, ze1_ang = _polar(z_e1)
    ze2_mag, ze2_ang = _polar(z_e2)
    ze0_mag, ze0_ang = _polar(z_e0)
    zad_mag, zad_ang = _polar(z_ad)
    dvdi1_mag, dvdi1_ang = _polar(dvdi1)
    sigma1_mag, sigma1_ang = _polar(sigma1)
    sigma2_mag, sigma2_ang = _polar(sigma2)

    return ScenarioReport(
        scenario_id=scenario.scenario_id,
        config_hash=scenario.config_hash,
        source_kind=scenario.kind.value,
        clc_kind=scenario.gfm.clc.kind.value if scenario.kind is SourceKind.GFM else None,
        fault_kind=scenario.fault.fault_type.value,
        fault_m=scenario.fault.m,
        fault_r_g_ohm=scenario.fault.r_g_ohm,
        placement=scenario.fault.placement.value,
        prefault_e_pu=op.e_mag,
        prefault_theta_deg=op.theta_deg,
        prefault_p_pu=op.p,
        prefault_q_pu=op.q,
        v1_bus1_mag=abs(r1.v.pos),
        v1_bus1_ang=_ang(r1.v.pos),
        v2_bus1_mag=abs(r1.v.neg),
        v2_bus1_ang=_ang(r1.v.neg),
        v0_bus1_mag=abs(r1.v.zero),
        v0_bus1_ang=_ang(r1.v.zero),
        i1_bus1_mag=abs(r1.i.pos),
        i1_bus1_ang=_ang(r1.i.pos),
        i2_bus1_mag=abs(r1.i.neg),
        i2_bus1_ang=_ang(r1.i.neg),
        i0_bus1_mag=abs(r1.i.zero),
        i0_bus1_ang=_ang(r1.i.zero),
        v1_bus2_mag=abs(r2.v.pos),
        v1_bus2_ang=_ang(r2.v.pos),
        v2_bus2_mag=abs(r2.v.neg),
        v2_bus2_ang=_ang(r2.v.neg),
        v0_bus2_mag=abs(r2.v.zero),
        v0_bus2_ang=_ang(r2.v.zero),
        i1_bus2_mag=abs(r2.i.pos),
        i1_bus2_ang=_ang(r2.i.pos),
        i2_bus2_mag=abs(r2.i.neg),
        i2_bus2_ang=_ang(r2.i.neg),
        i0_bus2_mag=abs(r2.i.zero),
        i0_bus2_ang=_ang(r2.i.zero),
        phi2_deg=dir_neg.angle_deg,
        phi0_deg=dir_zero.angle_deg,
        dphi1_deg=dir_inc.angle_deg,
        dd21_deg=selection.dd21_deg,
        d20_deg=selection.d20_deg,
        dir_neg=dir_neg.direction.value,
        dir_zero=dir_zero.direction.value,
        dir_inc=dir_inc.direction.value,
        phase_sel=selection.selected.value if selection.selected is not None else "none",
        zv1_mag=zv1_mag,
        zv1_ang=zv1_ang,
        zv2_mag=zv2_mag,
        zv2_ang=zv2_ang,
        ze1_mag=ze1_mag,
        ze1_ang=ze1_ang,
        ze2_mag=ze2_mag,
        ze2_ang=ze2_ang,
        ze0_mag=ze0_mag,
        ze0_ang=ze0_ang,
        zad_mag=zad_mag,
        zad_ang=zad_ang,
        dvdi1_mag=dvdi1_mag,
        dvdi1_ang=dvdi1_ang,
        sigma1_mag=sigma1_mag,
        sigma1_ang=sigma1_ang,
        sigma2_mag=sigma2_mag,
        sigma2_ang=sigma2_ang,
        limiter_active=limiter_active,
        iterations=iterations,
        residual=residual,
        i_max_phase_pu=i_max_phase,
        oracle_max_err=oracle_max_err,
    )


def sweep_scenarios(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
) -> Iterator[tuple[float, Scenario]]:
    """Yield (value, scenario) along one numeric parameter axis, endpoints included."""
    if param not in DEFAULTS:
        raise ValidationError(f"unknown sweep parameter {param!r}")
    default_value = DEFAULTS[param][0]
    if isinstance(default_value, bool) or not isinstance(default_value, float):
        raise ValidationError(f"sweep parameter {param!r} is not numeric")
    if steps < 1:
        raise ValidationError(f"sweep needs at least 1 step, got {steps}")
    if log and (start <= 0.0 or stop <= 0.0):
        raise ValidationError("logarithmic sweep endpoints must be positive")

    for k in range(steps):
        # endpoints stay bit-exact so a 2-step sweep reproduces single runs
        if k == 0:
            value = start
        elif k == steps - 1:
            value = stop
        else:
            t = k / (steps - 1)
            if log:
                value = math.exp(math.log(start) + t * (math.log(stop) - math.log(start)))
            else:
                value = start + t * (stop - start)
        merged = dict(overrides)
        merged[param] = value
        yield value, build_scenario(merged, scenario_id=f"{scenario_id}:{param}={value:.6g}")


def run_sweep(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
    oracle_check: bool = False,
) -> list[tuple[float, ScenarioReport]]:
    """Re-run a scenario along one numeric parameter axis, endpoints included."""
    return [
        (value, run_scenario(scenario, oracle_check=oracle_check))
        for value, scenario in sweep_scenarios(
            overrides, param, start, stop, steps, log=log, scenario_id=scenario_id
        )
    ]


@dataclass(frozen=True)
class Table1Row:
    label: str
    overrides: dict[str, object]
    highly_inductive: bool


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row("circular", {"clc.kind": "circular"}, False),
    Table1Row("priority", {"clc.kind": "priority"}, False),
    Table1Row("instantaneous", {"clc.kind": "instantaneous"}, False),
    Table1Row(
        "virtual-admittance-xr20",
        {"clc.kind": "virtual_admittance", "clc.n_x_r": 20.0},
        True,
    ),
    Table1Row(
        "adaptive-vi-xr20",
        {"clc.kind": "adaptive_virtual_impedance", "clc.n_x_r": 20.0},
        True,
    ),
    Table1Row(
        "adaptive-vi-xr0.1",
        {"clc.kind": "adaptive_virtual_impedance", "clc.n_x_r": 0.1},
        False,
    ),
)

TABLE1_ELEMENTS: tuple[str, ...] = ("phi2", "phi0", "dphi1", "dd21", "d20")
_TABLE1_FAULTS: tuple[FaultType, ...] = (FaultType.AG, FaultType.BCG)


@dataclass(frozen=True)
class Table1Result:
    """Reliability matrix: does each supervising element hold up per strategy?

    A cell passes when the element gives the secure answer for every probed
    fault (forward verdicts for the directionals, the right lattice point
    for the selection angles).
    """

    cells: dict[tuple[str, str], bool]
    rows: tuple[Table1Row, ...]
    elements: tuple[str, ...]
    mismatches: tuple[str, ...]  # deviations from the reference pattern

    @property
    def matches_reference(self) -> bool:
        return not self.mismatches


def _cell_verdicts(row: Table1Row) -> dict[str, bool]:
    verdicts = {element: True for element in TABLE1_ELEMENTS}
    for fault_type in _TABLE1_FAULTS:
        merged: dict[str, object] = {
            "source.kind": "gfm",
            "fault.kind": fault_type.value,
            "fault.m": 0.5,
            "fault.r_g_ohm": 0.0,
            "fault.placement": "forward",
        }
        merged.update(row.overrides)
        scenario = build_scenario(merged, scenario_id=f"table1:{row.label}:{fault_type.value}")
        report = run_scenario(scenario)
        c21, c20 = GROUND_CENTERS[fault_type]
        half21 = scenario.sel_cfg.dd21_half_deg
        half20 = scenario.sel_cfg.d20_half_deg
        verdicts["phi2"] &= report.dir_neg == Direction.FORWARD.value
        verdicts["phi0"] &= report.dir_zero == Direction.FORWARD.value
        verdicts["dphi1"] &= report.dir_inc == Direction.FORWARD.value
        verdicts["dd21"] &= (
            report.dd21_deg is not None
            and abs(wrap_angle_deg(report.dd21_deg - c21)) <= half21
        )
        verdicts["d20"] &= (
            report.d20_deg is not None
            and abs(wrap_angle_deg(report.d20_deg - c20)) <= half20
        )
    return verdicts


def table1_matrix() -> Table1Result:
    """Evaluate every strategy row against the five supervising elements."""
    cells: dict[tuple[str, str], bool] = {}
    for row in TABLE1_ROWS:
        for element, ok in _cell_verdicts(row).items():
            cells[(row.label, element)] = ok

    mismatches: list[str] = []
    for row in TABLE1_ROWS:
        if not cells[(row.label, "phi0")]:
            mismatches.append(f"phi0 failed under {row.label}; it should hold everywhere")
        for element in ("phi2", "d20"):
            got = cells[(row.label, element)]
            if got != row.highly_inductive:
                expected = "pass" if row.highly_inductive else "fail"
                mismatches.append(f"{element} under {row.label}: expected {expected}")
    for element in ("dphi1", "dd21"):
        if all(cells[(row.label, element)] for row in TABLE1_ROWS):
            mismatches.append(f"{element} passed every strategy; it should break somewhere")
    return Table1Result(
        cells=cells,
        rows=TABLE1_ROWS,
        elements=TABLE1_ELEMENTS,
        mismatches=tuple(mismatches),
    )


def format_table1(result: Table1Result) -> str:
    """Plain-text rendering of the reliability matrix."""
    label_width = max(len(row.label) for row in result.rows)
    header = "strategy".ljust(label_width) + "".join(
        f"  {element:>6}" for element in result.elements
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        cells = "".join(
            f"  {'pass' if result.cells[(row.label, element)] else 'FAIL':>6}"
            for element in result.elements
        )
        lines.append(row.label.ljust(label_width) + cells)
    lines.append("")
    if result.matches_reference:
        lines.append("pattern matches the reference reliability matrix")
    else:
        lines.append("pattern DEVIATES from the reference reliability matrix:")
        lines.extend(f"  - {msg}" for msg in result.mismatches)
    return "\n".join(lines)
