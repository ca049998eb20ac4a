"""Scenario result record and its serializations.

Two formats, both deterministic for a given resolved config:

* csv: fixed column order (CSV_COLUMNS), fixed numeric formatting (angles
  at 0.1 degree, magnitudes at 1e-6, residuals in scientific notation).
  A text cell holding a comma, a double quote, CR or LF is quoted, its
  double quotes doubled (RFC 4180). Two runs of the same scenario produce
  byte-identical output.
* records: one JSON object per line, keys sorted at every level, full
  double precision, carrying the resolved config and per-key provenance so
  the line is self-describing.

A `ScenarioReport` is a NamedTuple (`faultlab.records`) in CSV column
order, so both formats read its columns by position. Every decision that
is the same for all reports is made once, at import: each column's CSV
formatter, chosen from its name and declared type; the sorted order of a
record's keys, as three runs of report columns (names and positions)
around the config and provenance objects; and the `"key":value` member of
every default value and every default provenance tag. Per report, only the
values that are not their default object are formatted, so a record of a
config that overrides a few keys encodes a few config members. A config or
provenance mapping over other keys than the defaults' is encoded whole, its
keys sorted, and the result is the same text either way. The values of a
config are scalars, as `build_scenario` makes them.

Fields that do not apply (converter-only quantities in a generator run,
angles whose operand sat below the magnitude floor) serialize as empty CSV
cells / JSON nulls.
"""

from __future__ import annotations

import json
import re
from bisect import bisect
from collections.abc import Callable
from typing import NamedTuple

from .scenario import (
    DEFAULTS,
    SORTED_DEFAULTS,
    SORTED_KEYS,
    SORTED_PROVENANCE,
    overlay_defaults,
)

__all__ = ["ScenarioReport", "CSV_COLUMNS", "csv_header", "csv_line", "record_line"]


class ScenarioReport(NamedTuple):
    scenario_id: str
    config_hash: str
    source_kind: str
    clc_kind: str | None
    fault_kind: str
    fault_m: float
    fault_r_g_ohm: float
    placement: str

    prefault_e_pu: float
    prefault_theta_deg: float
    prefault_p_pu: float
    prefault_q_pu: float

    # bus sequence readings, magnitude (peak pu) and angle (deg)
    v1_bus1_mag: float
    v1_bus1_ang: float | None
    v2_bus1_mag: float
    v2_bus1_ang: float | None
    v0_bus1_mag: float
    v0_bus1_ang: float | None
    i1_bus1_mag: float
    i1_bus1_ang: float | None
    i2_bus1_mag: float
    i2_bus1_ang: float | None
    i0_bus1_mag: float
    i0_bus1_ang: float | None
    v1_bus2_mag: float
    v1_bus2_ang: float | None
    v2_bus2_mag: float
    v2_bus2_ang: float | None
    v0_bus2_mag: float
    v0_bus2_ang: float | None
    i1_bus2_mag: float
    i1_bus2_ang: float | None
    i2_bus2_mag: float
    i2_bus2_ang: float | None
    i0_bus2_mag: float
    i0_bus2_ang: float | None

    # relay-1 operating angles and verdicts
    phi2_deg: float | None
    phi0_deg: float | None
    dphi1_deg: float | None
    dd21_deg: float | None
    d20_deg: float | None
    dir_neg: str
    dir_zero: str
    dir_inc: str
    phase_sel: str

    # converter state (None for the generator source)
    zv1_mag: float | None
    zv1_ang: float | None
    zv2_mag: float | None
    zv2_ang: float | None
    ze1_mag: float | None
    ze1_ang: float | None
    ze2_mag: float | None
    ze2_ang: float | None
    ze0_mag: float | None
    ze0_ang: float | None
    zad_mag: float | None
    zad_ang: float | None
    dvdi1_mag: float | None
    dvdi1_ang: float | None
    sigma1_mag: float | None
    sigma1_ang: float | None
    sigma2_mag: float | None
    sigma2_ang: float | None

    limiter_active: bool
    iterations: int
    residual: float
    i_max_phase_pu: float
    oracle_max_err: float | None

    @classmethod
    def from_fields(cls, values: dict[str, object]) -> "ScenarioReport":
        """The report of `values`, one per field in any order, built as one tuple."""
        keys = values.keys()
        if keys != _COLUMN_SET:
            missing, extra = sorted(_COLUMN_SET - keys), sorted(keys - _COLUMN_SET)
            raise TypeError(f"report fields missing {missing}, unexpected {extra}")
        return cls._make(map(values.__getitem__, cls._fields))


CSV_COLUMNS: tuple[str, ...] = ScenarioReport._fields
_COLUMN_SET = frozenset(CSV_COLUMNS)

# a text cell holding one of these is quoted, its quotes doubled (RFC 4180)
_QUOTED = re.compile('[,"\r\n]')


def _text_cell(value: str | None) -> str:
    if value is None:
        return ""
    if _QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _flag_cell(value: bool) -> str:
    return "true" if value else "false"


def _count_cell(value: int) -> str:
    return str(int(value))


def _number_cell(spec: str) -> Callable[[float | None], str]:
    def cell(value: float | None) -> str:
        return "" if value is None else format(value, spec)

    return cell


def _csv_cell(name: str, annotation: str) -> Callable[..., str]:
    """The formatter of one column, chosen from its name and declared type.

    `annotation` is the field's type as written in ScenarioReport (this
    module's annotations are not evaluated: the NamedTuple keeps each as a
    `typing.ForwardRef`).
    """
    if annotation == "bool":
        return _flag_cell
    if annotation == "int":
        return _count_cell
    if annotation.startswith("str"):
        return _text_cell
    if name in ("residual", "oracle_max_err"):
        return _number_cell(".3e")
    if name in ("fault_m", "fault_r_g_ohm"):
        return _number_cell(".6g")
    if name.endswith(("_ang", "_deg")):
        return _number_cell(".1f")
    return _number_cell(".6f")


_CSV_CELLS = tuple(
    _csv_cell(name, ref.__forward_arg__) for name, ref in ScenarioReport.__annotations__.items()
)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_line(report: ScenarioReport) -> str:
    return ",".join([cell(value) for cell, value in zip(_CSV_CELLS, report)])


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _member(key: str, value: object) -> str:
    return f"{_ENCODER.encode(key)}:{_ENCODER.encode(value)}"


# a record's top-level keys in sorted order are three runs of report
# columns, with the config object after the first and the provenance
# object after the second; a run is its column names and their positions
_SORTED_COLUMNS = tuple(sorted(CSV_COLUMNS))
_CUT1, _CUT2 = bisect(_SORTED_COLUMNS, "config"), bisect(_SORTED_COLUMNS, "provenance")
_RUNS = tuple(
    (run, tuple(map(CSV_COLUMNS.index, run)))
    for run in (_SORTED_COLUMNS[:_CUT1], _SORTED_COLUMNS[_CUT1:_CUT2], _SORTED_COLUMNS[_CUT2:])
)
_CONFIG_KEY, _PROVENANCE_KEY = _ENCODER.encode("config"), _ENCODER.encode("provenance")
_CONFIG_MEMBERS = tuple(map(_member, SORTED_KEYS, SORTED_DEFAULTS))
_PROVENANCE_MEMBERS = tuple(map(_member, SORTED_KEYS, SORTED_PROVENANCE))


def _run(report: ScenarioReport, names: tuple[str, ...], positions: tuple[int, ...]) -> str:
    """The members of the columns `names`, read at `positions`, in order, without braces."""
    return _ENCODER.encode(dict(zip(names, map(report.__getitem__, positions))))[1:-1]


def _object(
    mapping: dict[str, object], defaults: tuple[object, ...], members: tuple[str, ...]
) -> str:
    """`mapping` as a JSON object with sorted keys."""
    if mapping.keys() != DEFAULTS.keys():
        return json.dumps(mapping, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return "{" + ",".join(overlay_defaults(mapping, defaults, members, _member)) + "}"


def record_line(
    report: ScenarioReport,
    resolved: dict[str, object],
    provenance: dict[str, str],
) -> str:
    head, middle, tail = (_run(report, *run) for run in _RUNS)
    config = _object(resolved, SORTED_DEFAULTS, _CONFIG_MEMBERS)
    tags = _object(provenance, SORTED_PROVENANCE, _PROVENANCE_MEMBERS)
    members = (head, f"{_CONFIG_KEY}:{config}", middle, f"{_PROVENANCE_KEY}:{tags}", tail)
    return "{" + ",".join(filter(None, members)) + "}"
