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

A `ScenarioReport` is a record (`faultlab.records`) in CSV column
order, so both formats read its columns by position. Every decision that
is the same for all reports is made once, at import: each column's CSV
formatter, chosen from its name and declared type; the sorted order of a
record's keys; and each key's `"key":` prefix.

A record is written from the last one. For each place (the report columns
in sorted order, then each key of the config and of the provenance)
`record_line` holds the value the last record had there and its
`"key":value` member. A value that is the held object itself reuses the
held member; any other is formatted. Before the first record the held
config and provenance are the defaults. This is bit-exact: a member is a
function of its value, and only a `float`, `str`, `bool`, `int` or `None`
of exactly that type is held. Those are immutable, and the held reference
keeps the object alive, so its id is not recycled. Any other value (a
list, a float subclass) is encoded on every call and never held. So a
record's text does not depend on the records written before it. Along a
relay-setting sweep, whose points share their solution's objects, a
record formats only the columns the setting moves. A config or provenance
mapping over other keys than the defaults' is encoded whole, its keys
sorted, and neither reads nor changes what is held; a record that raises
leaves it as it was.

Fields that do not apply (converter-only quantities in a generator run,
angles whose operand sat below the magnitude floor) serialize as empty CSV
cells / JSON nulls.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect
from collections.abc import Callable
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import is_not, itemgetter

from .records import Record
from .scenario import DEFAULTS, SORTED_DEFAULTS, SORTED_KEYS, SORTED_PROVENANCE

__all__ = ["ScenarioReport", "CSV_COLUMNS", "csv_header", "csv_line", "record_line"]


class ScenarioReport(Record):
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


def _bool_text(value: bool) -> str:
    # a CSV cell and JSON text alike
    return "true" if value else "false"


def _count_cell(value: int) -> str:
    return str(int(value))


def _number_cell(spec: str) -> Callable[[float | None], str]:
    def cell(value: float | None) -> str:
        return "" if value is None else format(value, spec)

    return cell


def _csv_cell(name: str, annotation: str) -> Callable[..., str]:
    """The formatter of one column, chosen from its name and declared type.

    `annotation` is the field's type as written in ScenarioReport: this
    module's annotations are not evaluated, and a record keeps each as the
    string it is written as.
    """
    if annotation == "bool":
        return _bool_text
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
    _csv_cell(name, annotation) for name, annotation in ScenarioReport.__annotations__.items()
)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_line(report: ScenarioReport) -> str:
    return ",".join([cell(value) for cell, value in zip(_CSV_CELLS, report)])


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _float_text(value: float) -> str:
    # json's own error for nan and inf, with its own message
    return float.__repr__(value) if math.isfinite(value) else _ENCODER.encode(value)


def _null_text(value: None) -> str:
    return "null"


# the JSON text of a value of each immutable type, keyed by the exact type;
# each is the text json writes for it
_TEXTS: dict[type, Callable[..., str]] = {
    float: _float_text,
    str: encode_basestring_ascii,
    bool: _bool_text,
    int: int.__repr__,
    type(None): _null_text,
}

# held in place of a value whose member is not kept: no value is this object
_UNHELD = object()

# the values at some places, and their members
_Held = tuple[tuple[object, ...], list[str]]


def _unheld(n: int) -> _Held:
    """Nothing held at `n` places."""
    return (_UNHELD,) * n, [""] * n


def _members(values: tuple[object, ...], held: _Held, prefixes: tuple[str, ...]) -> _Held:
    """The `"key":value` member of each of `values`, and what to hold for them.

    A value that is the object `held` holds at its place reuses the held
    member; any other is formatted after its `prefixes` entry. A value of a
    type that `_TEXTS` does not name is encoded on every call and held as
    `_UNHELD`.
    """
    held_values, held_texts = held
    texts = list(held_texts)
    unheld = []
    for i in compress(range(len(values)), map(is_not, values, held_values)):
        value = values[i]
        text = _TEXTS.get(type(value))
        if text is None:
            texts[i] = prefixes[i] + _ENCODER.encode(value)
            unheld.append(i)
        else:
            texts[i] = prefixes[i] + text(value)
    if unheld:
        values = tuple(_UNHELD if i in unheld else v for i, v in enumerate(values))
    return values, texts


# a record's top-level keys in sorted order are the report columns with
# the config object after the first _CUT1 and the provenance object after
# the first _CUT2
_SORTED_COLUMNS = tuple(sorted(CSV_COLUMNS))
_CUT1, _CUT2 = bisect(_SORTED_COLUMNS, "config"), bisect(_SORTED_COLUMNS, "provenance")
_sorted_columns = itemgetter(*map(CSV_COLUMNS.index, _SORTED_COLUMNS))
_sorted_values = itemgetter(*SORTED_KEYS)
_COLUMN_PREFIXES = tuple(_ENCODER.encode(name) + ":" for name in _SORTED_COLUMNS)
_KEY_PREFIXES = tuple(_ENCODER.encode(key) + ":" for key in SORTED_KEYS)
_CONFIG_PREFIX, _PROVENANCE_PREFIX = (_ENCODER.encode(k) + ":" for k in ("config", "provenance"))

# what the last record held: its columns', config's and provenance's
# values and members, each in sorted order; before the first record, no
# column and the default config and provenance
_last: tuple[_Held, _Held, _Held] = (
    _unheld(len(CSV_COLUMNS)),
    _members(SORTED_DEFAULTS, _unheld(len(SORTED_KEYS)), _KEY_PREFIXES),
    _members(SORTED_PROVENANCE, _unheld(len(SORTED_KEYS)), _KEY_PREFIXES),
)


def _object(mapping: dict[str, object], held: _Held) -> tuple[_Held, str]:
    """`mapping` as a JSON object with sorted keys, and what to hold for it.

    A mapping over other keys than DEFAULTS' is encoded whole, and `held`
    stays as it was.
    """
    if mapping.keys() != DEFAULTS.keys():
        return held, json.dumps(mapping, sort_keys=True, separators=(",", ":"), allow_nan=False)
    held = _members(_sorted_values(mapping), held, _KEY_PREFIXES)
    return held, "{" + ",".join(held[1]) + "}"


def record_line(
    report: ScenarioReport,
    resolved: dict[str, object],
    provenance: dict[str, str],
) -> str:
    """The report, the resolved config and the provenance as one JSON object, keys sorted."""
    global _last
    last_columns, last_config, last_provenance = _last
    columns = _members(_sorted_columns(report), last_columns, _COLUMN_PREFIXES)
    config, config_text = _object(resolved, last_config)
    tags, tags_text = _object(provenance, last_provenance)
    texts = columns[1]
    line = ",".join(
        [
            *texts[:_CUT1],
            _CONFIG_PREFIX + config_text,
            *texts[_CUT1:_CUT2],
            _PROVENANCE_PREFIX + tags_text,
            *texts[_CUT2:],
        ]
    )
    _last = (columns, config, tags)
    return "{" + line + "}"
