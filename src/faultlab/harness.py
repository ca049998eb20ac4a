"""Scenario execution pipeline and the strategy-by-element matrix.

run_scenario ties the stages together: pre-fault power flow for the source
reference, then the fault solve, which is the only step that depends on
the source kind: a linear solve for the generator, the fixed point for the
converter. Both return one `SourceSolution`, and everything after reads
only that: relay evaluation at bus 1 with genuine pre-fault readings for
the incremental quantities, the effective source impedances (the source
branch plus the passive side, `Scenario.z_side1`/`z_side0`), and
optionally an independent phase-domain re-solve of the solved operating
point as a numerical cross-check. The report is assembled from a mapping:
each phasor becomes a `_mag`/`_ang` pair of fields.

The cross-check stamps the source as the solution froze it
(`SourceSolution.frozen`): the generator is Norton already and passes
through unchanged; the converter is replaced by an injection of its
converged terminal currents (substitution theorem), because the
phase-domain oracle only stamps Norton-representable elements.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .abc_oracle import solve_abc
from .network import BusReading, FaultType, solve_linear
from .phasors import (
    SequenceTriple,
    ZeroPhasorError,
    angle_deg,
    fortescue,
    wrap_angle_deg,
)
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
    OperatingPoint,
    SourceSolution,
    fault_fixed_point,
    incremental_source_impedance,
    prefault_solve,
    solve_sg_fault,
)

__all__ = [
    "run_scenario",
    "sweep_scenarios",
    "prefault_network_readings",
    "Table1Row",
    "Table1Result",
    "TABLE1_ROWS",
    "TABLE1_ELEMENTS",
    "table1_matrix",
    "format_table1",
]


def prefault_network_readings(
    scenario: Scenario, op: OperatingPoint
) -> dict[str, BusReading]:
    """Relay readings of the healthy network at the found operating point.

    The source enters as the current it delivers there (substitution
    theorem), so one positive-sequence build gives the readings; the
    negative- and zero-sequence networks carry no source and read zero.
    """
    net = scenario.net
    pos = solve_linear(net, extra_injections={1: (net.source_node, op.i_attach)}, sequences=(1,))
    return {
        name: BusReading(
            bus=tap.bus,
            v=SequenceTriple(pos=pos.v[1].get(tap.bus, 0j)),
            i=SequenceTriple(pos=tap.sign * pos.i_series[1].get(tap.eid, 0j)),
        )
        for name, tap in net.relay_taps.items()
    }


def _polar(z: complex | None) -> tuple[float | None, float | None]:
    """Magnitude and angle; no angle below the magnitude floor, neither for None."""
    if z is None:
        return None, None
    try:
        return abs(z), angle_deg(z)
    except ZeroPhasorError:
        return abs(z), None


def _oracle_residual(scenario: Scenario, sol: SourceSolution) -> float:
    """Max sequence-component mismatch between the two solution routes."""
    net = scenario.net
    abc = solve_abc(net.with_elements(sol.frozen), scenario.fault)
    worst = 0.0
    for tap in net.relay_taps.values():
        seq_reading = sol.fault.total.reading(tap)
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
    if scenario.kind is SourceKind.SG:
        clc_kind = None
        sol = solve_sg_fault(net, scenario.source, scenario.fault, op)
    else:
        assert scenario.gfm is not None
        clc_kind = scenario.gfm.clc.kind.value
        sol = fault_fixed_point(
            net,
            scenario.gfm,
            scenario.fault,
            op,
            tol=scenario.solver.tol,
            max_iter=scenario.solver.max_iter,
            damping=scenario.solver.damping,
        )

    readings = sol.fault.readings(net)
    pre = prefault_network_readings(scenario, op)
    r1, p1 = readings["bus1"], pre["bus1"]
    dir_neg = directional_negative(r1, scenario.dir_cfg)
    dir_zero = directional_zero(r1, scenario.dir_cfg)
    dir_inc = directional_incremental(r1, p1, scenario.dir_cfg)
    selection = phase_select(r1, p1, scenario.sel_cfg)

    di1 = r1.i.pos - p1.i.pos
    dv1 = r1.v.pos - p1.v.pos
    phasors = {
        "zv1": sol.z_v1,
        "zv2": sol.z_v2,
        "zad": None if sol.z_v1 is None else incremental_source_impedance(r1.i.pos, di1, sol.z_v1),
        "dvdi1": dv1 / di1 if abs(di1) > scenario.dir_cfg.floor else None,
        "sigma1": sol.sigma1,
        "sigma2": sol.sigma2,
    }
    # effective source impedance: the source branch plus the passive side
    sides = (scenario.z_side1, scenario.z_side1, scenario.z_side0)
    for digit, z, side in zip("120", sol.z_branch, sides):
        phasors[f"ze{digit}"] = None if z is None else z + side
    for bus in ("bus1", "bus2"):
        for quantity in ("v", "i"):
            triple = getattr(readings[bus], quantity)
            for digit, z in zip("120", (triple.pos, triple.neg, triple.zero)):
                phasors[f"{quantity}{digit}_{bus}"] = z

    fields: dict[str, object] = {}
    for name, z in phasors.items():
        fields[f"{name}_mag"], fields[f"{name}_ang"] = _polar(z)
    return ScenarioReport(
        **fields,
        scenario_id=scenario.scenario_id,
        config_hash=scenario.config_hash,
        source_kind=scenario.kind.value,
        clc_kind=clc_kind,
        fault_kind=scenario.fault.fault_type.value,
        fault_m=scenario.fault.m,
        fault_r_g_ohm=scenario.fault.r_g_ohm,
        placement=scenario.fault.placement.value,
        prefault_e_pu=op.e_mag,
        prefault_theta_deg=op.theta_deg,
        prefault_p_pu=op.p,
        prefault_q_pu=op.q,
        phi2_deg=dir_neg.angle_deg,
        phi0_deg=dir_zero.angle_deg,
        dphi1_deg=dir_inc.angle_deg,
        dd21_deg=selection.dd21_deg,
        d20_deg=selection.d20_deg,
        dir_neg=dir_neg.direction.value,
        dir_zero=dir_zero.direction.value,
        dir_inc=dir_inc.direction.value,
        phase_sel=selection.selected.value if selection.selected is not None else "none",
        limiter_active=sol.limiter_active,
        iterations=sol.iterations,
        residual=sol.residual,
        i_max_phase_pu=sol.i_max_phase,
        oracle_max_err=_oracle_residual(scenario, sol) if oracle_check else None,
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
