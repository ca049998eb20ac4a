"""Correctness checks of program outputs against the reference results.

The reference (reference/*.json, written by make_reference.py) holds, per
case, the outcome class and the four relay verdicts, plus the preset CSV
rows and the table1 text. Every check returns a list of problems; an empty
list means the output is correct.

Rules:

* verdicts (dir_neg, dir_zero, dir_inc, phase_sel) must equal the reference
  for every case that converged in the reference. A case that failed in the
  reference and converges now is not a mismatch;
* numeric CSV cells must match within the tolerances below. `iterations` is
  solver telemetry and is not compared;
* `oracle_max_err` must stay below ORACLE_BOUND;
* `residual` must stay below `solver.tol` on every converged case.
"""

from __future__ import annotations

import csv
import io
import json
import math

VERDICTS = ("dir_neg", "dir_zero", "dir_inc", "phase_sel")
OK = "ok"
# exceptions the CLI maps to exit 1; anything else is a defect
SOLVER_ERRORS = ("NoConvergenceError", "OscillationDetectedError", "SingularNetworkError")

ORACLE_BOUND = 1e-9
# CSV magnitudes are printed to 1e-6, so a converged state that moved
# within solver.tol can flip the last digit; angles are printed to 0.1 deg.
MAG_ABS_TOL = 2e-6
MAG_REL_TOL = 1e-6
ANGLE_TOL_DEG = 0.2
# the angle of a phasor this small is dominated by solver noise
ANGLE_MAG_FLOOR = 1e-6
# residual cells carry four significant digits
SCI_ROUNDING = 1.0 + 5e-4

CSV_TEXT_COLUMNS = frozenset(
    (
        "scenario_id", "config_hash", "source_kind", "clc_kind", "fault_kind",
        "fault_m", "fault_r_g_ohm", "placement", "limiter_active", *VERDICTS,
    )
)


def reference_entry(outcome: str, fields: dict[str, object] | None) -> list:
    """The stored form of one case: [outcome, dir_neg, dir_zero, dir_inc, phase_sel]."""
    if fields is None:
        return [outcome, None, None, None, None]
    return [outcome, *(fields[v] for v in VERDICTS)]


def check_case(
    outcome: str, fields: dict[str, object] | None, ref: list, tol: float
) -> list[str]:
    """Outcome class, verdicts and residual of one scenario."""
    ref_outcome = ref[0]
    if outcome != OK or fields is None:
        if outcome in SOLVER_ERRORS and ref_outcome != OK:
            return []
        return [f"outcome {outcome}, reference {ref_outcome}"]
    problems = []
    residual = fields["residual"]
    if not (isinstance(residual, float) and residual < tol):
        problems.append(f"residual {residual!r} not below solver.tol {tol:g}")
    if ref_outcome == OK:
        for name, want in zip(VERDICTS, ref[1:]):
            if fields[name] != want:
                problems.append(f"{name} {fields[name]!r}, reference {want!r}")
    return problems


def _numeric_problem(name: str, got: str, want: str) -> str | None:
    if got == "" or want == "":
        return None if got == want else f"{name} {got!r}, reference {want!r}"
    a, b = float(got), float(want)
    if name.endswith(("_ang", "_deg")):
        diff = abs((a - b + 180.0) % 360.0 - 180.0)
        ok = diff <= ANGLE_TOL_DEG
    else:
        ok = math.isclose(a, b, rel_tol=MAG_REL_TOL, abs_tol=MAG_ABS_TOL)
    return None if ok else f"{name} {got}, reference {want}"


def _skip_angle(name: str, got: dict[str, str], want: dict[str, str]) -> bool:
    if not name.endswith("_ang"):
        return False
    mag = name[: -len("_ang")] + "_mag"
    return any(
        row.get(mag, "") != "" and float(row[mag]) < ANGLE_MAG_FLOOR for row in (got, want)
    )


def check_csv(text: str, ref_text: str, tol: float) -> list[str]:
    """One-row CSV output of `replicate --oracle-check` against the reference."""
    got_rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if len(got_rows) != len(ref_rows) or got_rows[0] != ref_rows[0]:
        return ["CSV header or row count differs from the reference"]
    header = ref_rows[0]
    problems: list[str] = []
    for got_cells, ref_cells in zip(got_rows[1:], ref_rows[1:]):
        if len(got_cells) != len(header):
            problems.append(f"row has {len(got_cells)} cells, header {len(header)}")
            continue
        got = dict(zip(header, got_cells))
        want = dict(zip(header, ref_cells))
        for name in header:
            g, w = got[name], want[name]
            if name == "iterations":
                continue
            if name == "residual":
                if not float(g) < tol * SCI_ROUNDING:
                    problems.append(f"residual {g} not below solver.tol {tol:g}")
            elif name == "oracle_max_err":
                if g == "" or not float(g) < ORACLE_BOUND:
                    problems.append(f"oracle_max_err {g!r} not below {ORACLE_BOUND:g}")
            elif name in CSV_TEXT_COLUMNS:
                if g != w:
                    problems.append(f"{name} {g!r}, reference {w!r}")
            elif not _skip_angle(name, got, want):
                problem = _numeric_problem(name, g, w)
                if problem:
                    problems.append(problem)
    return problems


def check_sweep(exit_code: int, text: str, ref: dict) -> tuple[int, list[str]]:
    """A `sweep --format records` call; returns (rows delivered, problems)."""
    points = ref["points"]
    any_failed = any(p[1] != OK for p in points)
    if exit_code == 1:
        return 0, [] if any_failed else ["sweep exited 1; every reference point converged"]
    if exit_code != 0:
        return 0, [f"sweep exited {exit_code}"]
    lines = text.splitlines()
    if len(lines) != len(points):
        return 0, [f"{len(lines)} records, reference {len(points)} points"]
    problems: list[str] = []
    for line, point in zip(lines, points):
        record = json.loads(line)
        config = record["config"]
        if config[ref["param"]] != point[0]:
            problems.append(f"{ref['param']} {config[ref['param']]!r}, reference {point[0]!r}")
        problems += check_case(OK, record, point[1:], float(config["solver.tol"]))
    return len(lines), problems


def check_table1(text: str, ref_text: str) -> list[str]:
    return [] if text == ref_text else ["table1 output differs from the reference"]
