"""Scenario execution pipeline and the strategy-by-element matrix.

run_scenario ties two steps together. `solve_scenario` runs the pre-fault
power flow for the source reference, then the fault solve, which is the
only step that depends on the source kind: a linear solve for the
generator, the fixed point for the converter. Both return one
`SourceSolution`, and `report_scenario` reads only that and the operating
point: relay evaluation at bus 1 with genuine pre-fault readings for
the incremental quantities, the effective source impedances (the source
branch plus the passive side, `Scenario.z_side1`/`z_side0`), and
optionally an independent phase-domain re-solve of the solved operating
point as a numerical cross-check. The report is laid out in its column
order, each phasor a `_mag`/`_ang` pair (`_add_polar`), and made by one
`ScenarioReport._make`, which raises `TypeError` unless all 68 columns are
there.

A report interleaves two column sets. The solution columns read the
solution and every setting of the scenario but its relay settings; they
come as three runs of consecutive columns. The relay columns go around and
between them: the scenario id and the config hash before the first run,
the four relay elements (five angles, four verdicts) after it, and
dv1/di1, which reads the sequence floor (`relay.seq_floor_pu`), before the
last.

`sweep_reports` runs a sweep. The relay settings (`relay.*` keys) reach
nothing but the relay columns, so a sweep along one of them builds, solves
and reports its first point; every later point is the first scenario with
its own relay settings (validated as `build_scenario` validates them) and
takes the first point's solution columns, so it evaluates only its relay
elements. Any other axis builds, solves and reports each point.

Fault and pre-fault relay readings take one path,
`SequenceSolution.readings`, which reads each line current off the node
voltages at its ends, once per solution, through the network's element
plan; a report reads the bus-1 pair once, and a `relay.*` sweep once for all
its points. The report calls the four relay elements by their names in
this module, where a span tracer can wrap them; each takes one angle per
operand, by the helper (`phasors.phase_deg`) that `_add_polar` uses for
the report's angles. The text fields are the members' values (`_value_`).

The cross-check stamps the source as the solution froze it
(`SourceSolution.frozen`): the generator is Norton already and passes
through unchanged; the converter is replaced by an injection of its
converged terminal currents (substitution theorem), because the
phase-domain oracle only stamps Norton-representable elements.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .abc_oracle import solve_abc
from .network import BusReading, FaultType
from .network import solve_linear  # noqa: F401  perfbench's tracer wraps it under this name
from .phasors import DEFAULT_MAGNITUDE_FLOOR, fortescue, phase_deg, wrap_angle_deg
from .records import Record
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
    _SG,
    DEFAULTS,
    Scenario,
    ValidationError,
    build_scenario,
    relay_settings,
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
    "solve_scenario",
    "report_scenario",
    "run_scenario",
    "sweep_scenarios",
    "sweep_reports",
    "prefault_network_readings",
    "Table1Row",
    "Table1Result",
    "TABLE1_ROWS",
    "TABLE1_ELEMENTS",
    "table1_scenario",
    "table1_verdicts",
    "table1_matrix",
    "format_table1",
]


def prefault_network_readings(op: OperatingPoint) -> dict[str, BusReading]:
    """Relay readings of the healthy network at the found operating point.

    `op.healthy` is the build the dispatch solved, with the source entering
    as the current it delivers (substitution theorem); it reads zero in the
    negative and zero sequences.
    """
    return op.healthy.readings


def _add_polar(out: list[object], phasors) -> None:
    """Append each phasor's magnitude and angle to `out`.

    `phasors.angle_deg` with one `abs`: no angle below its floor, neither for None.
    """
    append = out.append
    for z in phasors:
        size = None if z is None else abs(z)
        append(size)
        append(None if size is None or size < DEFAULT_MAGNITUDE_FLOOR else phase_deg(z))


def _oracle_residual(scenario: Scenario, sol: SourceSolution) -> float:
    """Max sequence-component mismatch between the two solution routes.

    The oracle solves the fault solution's own network, one object per
    network and source (a generator's ends with its frozen branch), so its
    factored matrix is made once per network object and fault; a
    converter's frozen currents enter as an injection at its port.
    """
    fault = sol.fault
    injections = () if scenario.kind is _SG else (sol.frozen,)
    abc = solve_abc(fault.net, scenario.fault, injections=injections)
    readings = fault.total.readings
    worst = 0.0
    for name, tap in scenario.net.relay_taps.items():
        seq_reading = readings[name]
        v_abc, i_abc = abc.reading(tap)
        for mine, theirs in ((seq_reading.v, fortescue(v_abc)), (seq_reading.i, fortescue(i_abc))):
            worst = max(worst, (mine - theirs).max_abs())
    return worst


def solve_scenario(scenario: Scenario) -> tuple[OperatingPoint, SourceSolution]:
    """The pre-fault operating point and the fault solution of one scenario."""
    net = scenario.net
    op = prefault_solve(
        net,
        scenario.source,
        p_ref=scenario.p_ref,
        q_ref=scenario.q_ref,
        tol=scenario.solver.newton_tol,
    )
    if scenario.kind is _SG:
        return op, solve_sg_fault(net, scenario.source, scenario.fault, op)
    return op, fault_fixed_point(
        net,
        scenario.source,
        scenario.fault,
        op,
        tol=scenario.solver.tol,
        max_iter=scenario.solver.max_iter,
    )


def run_scenario(scenario: Scenario, oracle_check: bool = False) -> ScenarioReport:
    """Execute one scenario end to end and assemble its report."""
    return report_scenario(scenario, *solve_scenario(scenario), oracle_check=oracle_check)


def report_scenario(
    scenario: Scenario, op: OperatingPoint, sol: SourceSolution, oracle_check: bool = False
) -> ScenarioReport:
    """Relay readings, the four relay elements and the report of a solved scenario."""
    return _relay_report(scenario, *_solution_fields(scenario, op, sol, oracle_check))


def _solution_fields(
    scenario: Scenario, op: OperatingPoint, sol: SourceSolution, oracle_check: bool
) -> tuple[BusReading, BusReading, tuple, tuple, tuple]:
    """The bus-1 fault and pre-fault readings, and the report columns no relay setting reaches.

    The columns come in three runs: `source_kind` to `i0_bus2_ang`, `zv1_mag`
    to `zad_ang`, and `sigma1_mag` to `oracle_max_err`.
    """
    fault = scenario.fault
    readings = sol.fault.total.readings
    r1, r2 = readings["bus1"], readings["bus2"]
    p1 = prefault_network_readings(op)["bus1"]
    head = [
        scenario.kind._value_,
        None if scenario.kind is _SG else scenario.source.clc.kind._value_,
        fault.fault_type._value_,
        fault.m,
        fault.r_g_ohm,
        fault.placement._value_,
        op.e_mag, op.theta_deg, op.p, op.q,
    ]
    _add_polar(head, (*r1.v, *r1.i, *r2.v, *r2.i))
    di1 = r1.i.pos - p1.i.pos
    zad = None if sol.z_v1 is None else incremental_source_impedance(r1.i.pos, di1, sol.z_v1)
    # the effective source impedance is the source branch plus the passive side
    sides = (scenario.z_side1, scenario.z_side1, scenario.z_side0)
    z_e = [None if z is None else z + side for z, side in zip(sol.z_source, sides)]
    impedances: list[object] = []
    _add_polar(impedances, (sol.z_v1, sol.z_v2, *z_e, zad))
    tail: list[object] = []
    _add_polar(tail, (sol.sigma1, sol.sigma2))
    tail += (sol.limiter_active, sol.iterations, sol.residual, sol.i_max_phase)
    tail.append(_oracle_residual(scenario, sol) if oracle_check else None)
    return r1, p1, tuple(head), tuple(impedances), tuple(tail)


def _relay_report(
    scenario: Scenario, r1: BusReading, p1: BusReading, head: tuple, impedances: tuple, tail: tuple
) -> ScenarioReport:
    """The report: the solution columns and the columns of the scenario's relay settings."""
    relay = scenario.relay
    dir_neg = directional_negative(r1, relay)
    dir_zero = directional_zero(r1, relay)
    dir_inc = directional_incremental(r1, p1, relay)
    selection = phase_select(r1, p1, relay)
    di1, dv1 = r1.i.pos - p1.i.pos, r1.v.pos - p1.v.pos
    row = [
        scenario.scenario_id,
        scenario.config_hash,
        *head,
        dir_neg.angle_deg,
        dir_zero.angle_deg,
        dir_inc.angle_deg,
        selection.dd21_deg,
        selection.d20_deg,
        dir_neg.direction._value_,
        dir_zero.direction._value_,
        dir_inc.direction._value_,
        "none" if selection.selected is None else selection.selected._value_,
        *impedances,
    ]
    _add_polar(row, (dv1 / di1 if abs(di1) > relay.seq_floor_pu else None,))
    row += tail
    return ScenarioReport._make(row)


def sweep_scenarios(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
) -> Iterator[tuple[float, Scenario]]:
    """Yield (value, scenario) along one numeric parameter axis, endpoints included.

    Every point is the scenario `build_scenario` makes of its config. Along
    a `relay.*` axis only the first point is built: each later one is the
    first with its own relay settings and config (`relay_settings`, which
    validates the point's value with `build_scenario`'s messages).
    """
    if param not in DEFAULTS:
        raise ValidationError(f"unknown sweep parameter {param!r}")
    default_value = DEFAULTS[param][0]
    if isinstance(default_value, bool) or not isinstance(default_value, float):
        raise ValidationError(f"sweep parameter {param!r} is not numeric")
    if steps < 1:
        raise ValidationError(f"sweep needs at least 1 step, got {steps}")
    if log and (start <= 0.0 or stop <= 0.0):
        raise ValidationError("logarithmic sweep endpoints must be positive")

    relay_axis = param.startswith("relay.")
    built = None
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
        point_id = f"{scenario_id}:{param}={value:.6g}"
        if built is None or not relay_axis:
            built = build_scenario({**overrides, param: value}, scenario_id=point_id)
            yield value, built
            continue
        resolved = {**built.resolved, param: value}
        yield value, built._replace(
            scenario_id=point_id,
            relay=relay_settings(resolved),
            resolved=resolved,
            provenance=dict(built.provenance),
        )


def sweep_reports(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
) -> Iterator[tuple[Scenario, ScenarioReport]]:
    """Yield (scenario, report) at every point of `sweep_scenarios`.

    A `relay.*` key only sets the relay settings, which the report reads
    after the solve, so along such an axis the first point's solution, its
    bus-1 readings and its report columns other than the relay columns are
    every point's: the sweep solves and reports them once, and each point
    evaluates only its relay elements.
    """
    solved = None
    for _, scenario in sweep_scenarios(overrides, param, start, stop, steps, log, scenario_id):
        if solved is None or not param.startswith("relay."):
            solved = _solution_fields(scenario, *solve_scenario(scenario), oracle_check=False)
        yield scenario, _relay_report(scenario, *solved)


class Table1Row(Record):
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


class Table1Result(Record):
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


def table1_scenario(
    row: Table1Row, fault_type: FaultType, point: dict[str, object] | None = None
) -> Scenario:
    """One forward fault of the battery under one row.

    The fault sits at the battery's point (m = 0.5, bolted, default
    dispatch) unless `point` sets other config keys; the row's own
    overrides come last.
    """
    merged: dict[str, object] = {
        "source.kind": "gfm",
        "fault.kind": fault_type.value,
        "fault.m": 0.5,
        "fault.r_g_ohm": 0.0,
        "fault.placement": "forward",
    }
    merged.update(point or {})
    merged.update(row.overrides)
    return build_scenario(merged, scenario_id=f"table1:{row.label}:{fault_type.value}")


def table1_verdicts(scenario: Scenario, report: ScenarioReport) -> dict[str, bool]:
    """Whether each supervising element gives the secure answer on one forward fault.

    The verdicts are read off the scenario's report; the selection bands
    come from its relay settings and their centres from its fault type.
    """
    c21, c20 = GROUND_CENTERS[scenario.fault.fault_type]
    half21 = scenario.relay.dd21_half_deg
    half20 = scenario.relay.d20_half_deg
    return {
        "phi2": report.dir_neg == Direction.FORWARD.value,
        "phi0": report.dir_zero == Direction.FORWARD.value,
        "dphi1": report.dir_inc == Direction.FORWARD.value,
        "dd21": (
            report.dd21_deg is not None
            and abs(wrap_angle_deg(report.dd21_deg - c21)) <= half21
        ),
        "d20": (
            report.d20_deg is not None
            and abs(wrap_angle_deg(report.d20_deg - c20)) <= half20
        ),
    }


def table1_matrix() -> Table1Result:
    """Evaluate every strategy row against the five supervising elements."""
    cells: dict[tuple[str, str], bool] = {}
    for row in TABLE1_ROWS:
        scenarios = [table1_scenario(row, fault_type) for fault_type in _TABLE1_FAULTS]
        cases = [table1_verdicts(scenario, run_scenario(scenario)) for scenario in scenarios]
        for element in TABLE1_ELEMENTS:
            cells[(row.label, element)] = all(case[element] for case in cases)

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
