"""Scenario configuration: flat key=value schema, defaults, network building.

A scenario is described by a flat dotted-key config (parsed from text or
passed as a dict). Every key has a default; the resolved config and a
provenance tag per key (study-case, default, preset:<name>, user) travel
with the scenario so reports can state where each number came from.
"study-case" marks values taken from the benchmark study-case equipment
table this laboratory replicates; "default" marks artifact choices.

Topology (node names fixed):

    sg:   src emf -[x_sg]- sgt -[collection line]- bus1 -[line]- bus2 -[z_g]- grid emf
    gfm:  reference -[Z_v (+x_f)]- poc -[x_t]- bus1 -[line]- bus2 -[z_g]- grid emf
          plus the transformer zero-sequence leg: bus1 -[x_t0]- gnd
          (series zero path toward poc open: delta winding)

A scenario holds one source model, the one of its kind (`Scenario.source`).
Relays sit at bus1 and bus2, each measuring its bus voltage and the current
flowing from its bus into the line. The fault's host branch is the line for
a forward fault, and the branch behind bus1 for a reverse one: the
collection line, or the converter transformer together with its
zero-sequence leg. One rule splits it at fraction m from bus1:

    bus1 -[m]- flt -[1 - m]- far      (far: bus2, or the source node)

with the transformer's zero-sequence leg then running from flt to gnd.
m=0 and m=1 put the fault on the branch's end node, bus1 or far, instead
of creating zero-impedance stubs; a reverse fault at m=1 behind a
converter is a config error.

Scenarios with an equal circuit and fault position hold one network
object: `_build_network` looks its network up by the validated values it
reads, bit for bit, in a bounded memo. What `network` and `sources`
compute on a network alone (its builds, dispatches, generator fault
networks and faulted converter ports) is made once per object, so a case
grid over one circuit builds, dispatches and reduces each of its few
networks once. No memo holds what a case's own fault or law gives.

Everything is per-unit on one system MVA base. The zone voltage bases stand
in the transformer's nominal ratio, so impedances refer across it unchanged
and the network carries no explicit ratio. Line constants and the fault
resistance are given in ohms and referred to the high-voltage base,
Z_base = V_LL^2 / S with V_LL the RMS line-line voltage. Voltage bases
follow the study-case convention of quoting line-line amplitudes (peak,
1 pu being the nominal phase peak), converted with V_LL = V_peak / sqrt(2);
circuit.voltages_are_peak=false takes them as RMS. circuit.v_lv_kv,
solver.newton_max_iter and solver.damping are validated and enter the
config hash, but no solve reads them: the pre-fault dispatch is solved in
closed form, solver.newton_tol is the tolerance of its final check, and
the fixed point's damped step always starts at 0.5.

Validation checks the source keys, then one key group at a time (base
impedance, converter, generator, relay, fault, solver, circuit), each but
the fault in the function that builds its part, so an error names the
first invalid key in that order. A value that is its default object is
not checked, and a group of default objects takes the part made of the
defaults at import: no memo, for no case's result is held. Equal copies of
the defaults take every check (guarded in `tests/test_scenario.py`); a
config text's tokens are interned, so one that spells a default text is
the default object. The `relay.*` keys reach only `Scenario.relay`, so
a sweep along one builds its first point and takes every later point's
settings, and their validation, from `relay_settings` alone.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import re
import sys
from enum import Enum
from itertools import compress
from operator import is_not, itemgetter

from .clc import _ADAPTIVE, ClcConfig, ClcKind
from .network import (
    GROUND,
    FaultSpec,
    FaultType,
    NetworkModel,
    Placement,
    RelayTap,
    SeriesElement,
    SourceElement,
    _SHARED,
    _bitwise,
    _keep,
)
from .records import Record
from .relay import RelaySettings
from .sources import GfmModel, SgModel

__all__ = [
    "ConfigError",
    "ParseError",
    "ValidationError",
    "SourceKind",
    "SolverSettings",
    "Scenario",
    "DEFAULTS",
    "SORTED_KEYS",
    "SORTED_DEFAULTS",
    "SORTED_PROVENANCE",
    "parse_config_text",
    "number",
    "build_scenario",
    "relay_settings",
    "canonical_config_lines",
]

PROV_STUDY = "study-case"
PROV_DEFAULT = "default"
PROV_USER = "user"


class ConfigError(Exception):
    """Base for everything wrong with a scenario description."""


class ParseError(ConfigError):
    """The config text is not well-formed key = value lines."""


class ValidationError(ConfigError):
    """The config parsed but a key, type, or value is unacceptable."""


class SourceKind(Enum):
    SG = "sg"
    GFM = "gfm"


# key -> (default value, provenance of the default)
DEFAULTS: dict[str, tuple[object, str]] = {
    "source.kind": ("sg", PROV_DEFAULT),
    "source.p_ref": (1.0, PROV_DEFAULT),
    "source.q_ref": (0.0, PROV_DEFAULT),
    "circuit.s_base_mva": (100.0, PROV_STUDY),
    "circuit.v_hv_kv": (220.0, PROV_STUDY),
    "circuit.v_lv_kv": (33.0, PROV_STUDY),
    "circuit.voltages_are_peak": (True, PROV_STUDY),
    "circuit.line_km": (100.0, PROV_STUDY),
    "circuit.line_r1_ohm_km": (0.03, PROV_STUDY),
    "circuit.line_x1_ohm_km": (0.34, PROV_STUDY),
    "circuit.line_r0_ohm_km": (0.18, PROV_STUDY),
    "circuit.line_x0_ohm_km": (1.19, PROV_STUDY),
    "circuit.grid_scr": (10.0, PROV_DEFAULT),
    "circuit.grid_x_r": (10.0, PROV_DEFAULT),
    "circuit.grid_z0_scale": (3.0, PROV_DEFAULT),
    "circuit.grid_v_pu": (1.0, PROV_DEFAULT),
    "circuit.grid_angle_deg": (0.0, PROV_DEFAULT),
    "sg.x1_pu": (0.2, PROV_DEFAULT),
    "sg.x2_pu": (0.2, PROV_DEFAULT),
    "sg.x0_pu": (0.1, PROV_DEFAULT),
    "sg.collection_km": (10.0, PROV_DEFAULT),
    "gfm.x_f_pu": (0.15, PROV_STUDY),
    "gfm.x_t_pu": (0.1, PROV_STUDY),
    "gfm.x_t0_pu": (0.1, PROV_DEFAULT),
    "gfm.k_pv": (2.0, PROV_DEFAULT),
    # auto: in-network exactly when the shaping impedance acts on the
    # modulation reference (adaptive kind); the other strategies keep the
    # filter inside the current loop where the relay cannot see it.
    "gfm.filter_in_network": ("auto", PROV_DEFAULT),
    "clc.kind": ("circular", PROV_DEFAULT),
    "clc.i_lim_pu": (1.2, PROV_DEFAULT),
    "clc.clip_level_pu": (1.2, PROV_DEFAULT),
    "clc.i_th_pu": (1.1, PROV_DEFAULT),
    "clc.k_x": (10.0, PROV_DEFAULT),
    "clc.n_x_r": (20.0, PROV_DEFAULT),
    "clc.r_vn_pu": (0.01, PROV_DEFAULT),
    "clc.x_vn_pu": (0.05, PROV_DEFAULT),
    "fault.kind": ("bcg", PROV_DEFAULT),
    "fault.m": (0.5, PROV_DEFAULT),
    "fault.r_g_ohm": (0.0, PROV_DEFAULT),
    "fault.placement": ("forward", PROV_DEFAULT),
    "relay.phi_non_deg": (45.0, PROV_DEFAULT),
    "relay.seq_floor_pu": (0.02, PROV_DEFAULT),
    "relay.asym_floor_pu": (0.05, PROV_DEFAULT),
    "relay.dd21_half_deg": (15.0, PROV_DEFAULT),
    "relay.d20_half_deg": (30.0, PROV_DEFAULT),
    "solver.tol": (1e-9, PROV_DEFAULT),
    "solver.max_iter": (100.0, PROV_DEFAULT),
    "solver.damping": ("auto", PROV_DEFAULT),
    "solver.newton_tol": (1e-8, PROV_DEFAULT),
    "solver.newton_max_iter": (50.0, PROV_DEFAULT),
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse flat `key = value` lines; `#` starts a comment."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _coerce_token(value)
    return out


def _coerce_token(token: str) -> object:
    """A bool, a float (see `number`), or the token itself, interned.

    Interned, a token that spells a default text (`clc.kind = circular`)
    is the default object itself, so its config group takes the part made
    of the defaults at import (see `build_scenario`).
    """
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return number(token)
    except ValueError:
        return sys.intern(token)


# a plain ASCII decimal, or a spelling of inf or nan (which a key rejects
# as not finite); `float` alone also reads `1_2` and other scripts' digits
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)", re.A | re.I
)


def number(token: str) -> float:
    """The float that a number token (`_NUMBER`) spells; ValueError for any other token."""
    if _NUMBER.fullmatch(token) is None:
        raise ValueError(f"not a number: {token!r}")
    return float(token)


class SolverSettings(Record):
    tol: float = 1e-9
    max_iter: int = 100
    newton_tol: float = 1e-8


class Scenario(Record):
    """Fully resolved, validated scenario ready for the harness."""

    scenario_id: str
    kind: SourceKind
    p_ref: float
    q_ref: float
    source: SgModel | GfmModel  # the model of `kind`
    fault: FaultSpec
    relay: RelaySettings
    solver: SolverSettings
    net: NetworkModel
    # passive impedance between the source branch and bus 1 (pu; positive
    # and negative, zero sequence): the collection line behind a generator,
    # the transformer behind a converter
    z_side1: complex
    z_side0: complex
    resolved: dict[str, object]  # every key, final value
    provenance: dict[str, str]

    @property
    def config_hash(self) -> str:
        text = "\n".join(canonical_config_lines(self.resolved))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# every key in sorted order, and each key's default value and default
# provenance in that order: the order of the canonical lines and of the
# config and provenance objects of a record
SORTED_KEYS: tuple[str, ...] = tuple(sorted(DEFAULTS))
SORTED_DEFAULTS: tuple[object, ...] = tuple(DEFAULTS[key][0] for key in SORTED_KEYS)
SORTED_PROVENANCE: tuple[str, ...] = tuple(DEFAULTS[key][1] for key in SORTED_KEYS)
_sorted_values = itemgetter(*SORTED_KEYS)


def canonical_config_lines(resolved: dict[str, object]) -> list[str]:
    """One `key=value` line per key, sorted by key.

    A resolved config over the default keys starts from the defaults'
    lines, formatted once at import, and formats the line of every value
    that is not its default object itself; any other config formats every
    line. Either way a line is the same text. A config holds the default
    keys exactly when it holds as many keys and each of them.
    """
    try:
        if len(resolved) != len(SORTED_KEYS):
            raise KeyError
        values = _sorted_values(resolved)
    except KeyError:
        return [_config_line(key, resolved[key]) for key in sorted(resolved)]
    lines = list(_DEFAULT_LINES)
    for i in compress(range(len(values)), map(is_not, values, SORTED_DEFAULTS)):
        lines[i] = _config_line(SORTED_KEYS[i], values[i])
    return lines


def _config_line(key: str, value: object) -> str:
    return f"{key}={_format_value(value)}"


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_DEFAULT_LINES = tuple(map(_config_line, SORTED_KEYS, SORTED_DEFAULTS))
_DEFAULT_VALUES = {key: default for key, (default, _) in DEFAULTS.items()}
_DEFAULT_PROVENANCE = {key: prov for key, (_, prov) in DEFAULTS.items()}
# each choice key's members by their text: a dict read, where an Enum call
# by value costs a Python-level lookup
_SOURCE_KINDS = {kind._value_: kind for kind in SourceKind}
_CLC_KINDS = {kind._value_: kind for kind in ClcKind}
_FAULT_KINDS = {kind._value_: kind for kind in FaultType}
_PLACEMENTS = {placement._value_: placement for placement in Placement}
# by module name, here and in `harness`: a global read per case, not an
# Enum class attribute's
_SG = SourceKind.SG


def _need_float(resolved: dict[str, object], key: str) -> float:
    value = resolved[key]
    if value is not _DEFAULT_VALUES[key]:
        if isinstance(value, bool) or not isinstance(value, float):
            raise ValidationError(f"{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
    return value  # type: ignore[return-value]


def _need_positive(resolved: dict[str, object], key: str) -> float:
    value = resolved[key]
    if value is not _DEFAULT_VALUES[key] and _need_float(resolved, key) <= 0.0:
        raise ValidationError(f"{key} must be positive, got {value}")
    return value


def _need_bool(resolved: dict[str, object], key: str) -> bool:
    value = resolved[key]
    if value is not _DEFAULT_VALUES[key] and not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value  # type: ignore[return-value]


def _need_int(resolved: dict[str, object], key: str) -> int:
    value = _need_float(resolved, key)
    if value != int(value) or value <= 0:
        raise ValidationError(f"{key} must be a positive integer, got {value}")
    return int(value)


def _need_choice(resolved: dict[str, object], key: str, choices: dict[str, Enum]) -> Enum:
    """The member whose text the key's value is."""
    value = resolved[key]
    if value is not _DEFAULT_VALUES[key] and (not isinstance(value, str) or value not in choices):
        raise ValidationError(f"{key} must be one of {', '.join(choices)}; got {value!r}")
    return choices[value]  # type: ignore[index]


def _base_impedance(resolved: dict[str, object]) -> float:
    """The base impedance Z_base = V_LL^2 / S of the high-voltage zone, in ohm."""
    s_base = _need_positive(resolved, "circuit.s_base_mva") * 1e6
    v_hv = _need_positive(resolved, "circuit.v_hv_kv") * 1e3
    _need_positive(resolved, "circuit.v_lv_kv")  # input and hashed; no solve reads it
    if _need_bool(resolved, "circuit.voltages_are_peak"):
        v_hv /= math.sqrt(2.0)
    try:
        return v_hv**2 / s_base
    except OverflowError:
        raise ValidationError(
            f"circuit.v_hv_kv = {resolved['circuit.v_hv_kv']} overflows the base impedance"
        ) from None


def _converter(resolved: dict[str, object]) -> GfmModel:
    """The converter model, of every `clc.*` and `gfm.*` key the network does not read."""
    clc_kind = _need_choice(resolved, "clc.kind", _CLC_KINDS)
    limits = [_need_positive(resolved, key) for key in _CLC_LIMITS]
    r_vn = _need_float(resolved, "clc.r_vn_pu")
    x_vn = _need_float(resolved, "clc.x_vn_pu")
    for key, value in (("clc.r_vn_pu", r_vn), ("clc.x_vn_pu", x_vn)):
        if value < 0.0:
            raise ValidationError(f"{key} must be non-negative, got {value}")
    fin_raw = resolved["gfm.filter_in_network"]
    if isinstance(fin_raw, str):
        if fin_raw != "auto":
            raise ValidationError(
                f"gfm.filter_in_network must be true, false, or 'auto', got {fin_raw!r}"
            )
        filter_in_network = clc_kind is _ADAPTIVE
    else:
        filter_in_network = _need_bool(resolved, "gfm.filter_in_network")
    k_pv = _need_positive(resolved, "gfm.k_pv")
    x_f = _need_float(resolved, "gfm.x_f_pu")
    if x_f < 0.0:
        raise ValidationError(f"gfm.x_f_pu must be non-negative, got {x_f}")
    if filter_in_network and clc_kind is not _ADAPTIVE:
        raise ValidationError(
            "gfm.filter_in_network = true needs clc.kind = adaptive_virtual_impedance, "
            f"got clc.kind = {clc_kind.value}"
        )
    clc = ClcConfig(clc_kind, *limits, r_vn, x_vn)
    return GfmModel(clc=clc, k_pv=k_pv, x_f=x_f, filter_in_network=filter_in_network)


def _generator(resolved: dict[str, object]) -> SgModel:
    return SgModel(*[_need_positive(resolved, key) for key in _SG_REACTANCES])


def relay_settings(resolved: dict[str, object]) -> RelaySettings:
    """The relay settings of a resolved config: all that its `relay.*` keys reach."""
    phi_non = _need_float(resolved, "relay.phi_non_deg")
    seq_floor = _need_positive(resolved, "relay.seq_floor_pu")
    if not 30.0 <= phi_non <= 60.0:
        raise ValidationError(f"relay.phi_non_deg must lie in [30, 60] degrees, got {phi_non}")
    dd21 = _need_positive(resolved, "relay.dd21_half_deg")
    d20 = _need_positive(resolved, "relay.d20_half_deg")
    asym_floor = _need_positive(resolved, "relay.asym_floor_pu")
    for key, value, top in (("relay.dd21_half_deg", dd21, 30), ("relay.d20_half_deg", d20, 60)):
        if value > top:
            raise ValidationError(f"{key} must lie in (0, {top}] degrees, got {value}")
    return RelaySettings(phi_non, seq_floor, asym_floor, dd21, d20)


def _solver(resolved: dict[str, object]) -> SolverSettings:
    damping = resolved["solver.damping"]  # input and hashed; no solve reads it
    if isinstance(damping, str):
        if damping != "auto":
            raise ValidationError(f"solver.damping must be a number or 'auto', got {damping!r}")
    elif not 0.0 < _need_float(resolved, "solver.damping") <= 1.0:
        raise ValidationError(f"solver.damping must lie in (0, 1], got {damping}")
    tol = _need_positive(resolved, "solver.tol")
    max_iter = _need_int(resolved, "solver.max_iter")
    newton_tol = _need_positive(resolved, "solver.newton_tol")
    _need_int(resolved, "solver.newton_max_iter")  # input and hashed; no solve reads it
    return SolverSettings(tol, max_iter, newton_tol)


def _circuit(resolved: dict[str, object], zb_hv: float) -> tuple[complex, complex]:
    """The per-km line impedances (z1, z0) in ohm; checks every circuit key and zb_hv."""
    _need_positive(resolved, "circuit.line_km")
    z1_km = complex(
        _need_float(resolved, "circuit.line_r1_ohm_km"),
        _need_float(resolved, "circuit.line_x1_ohm_km"),
    )
    z0_km = complex(
        _need_float(resolved, "circuit.line_r0_ohm_km"),
        _need_float(resolved, "circuit.line_x0_ohm_km"),
    )
    for z, seq in ((z1_km, 1), (z0_km, 0)):
        if z == 0:
            raise ValidationError(
                f"circuit.line_r{seq}_ohm_km and circuit.line_x{seq}_ohm_km are both zero: "
                "a line needs a nonzero impedance"
            )
    _check_base(resolved, zb_hv)
    _need_positive(resolved, "circuit.grid_scr")
    _need_positive(resolved, "circuit.grid_x_r")
    _need_positive(resolved, "circuit.grid_z0_scale")
    _need_positive(resolved, "circuit.grid_v_pu")
    _need_float(resolved, "circuit.grid_angle_deg")
    # checked for either source kind, though each kind reads only its own
    _need_positive(resolved, "sg.collection_km")
    _need_positive(resolved, "gfm.x_t_pu")
    _need_positive(resolved, "gfm.x_t0_pu")
    return z1_km, z0_km


def _check_base(resolved: dict[str, object], zb_hv: float) -> None:
    if not 0.0 < zb_hv < math.inf:
        raise ValidationError(
            f"circuit.v_hv_kv = {resolved['circuit.v_hv_kv']} and circuit.s_base_mva = "
            f"{resolved['circuit.s_base_mva']} give a base impedance of {zb_hv} ohm; "
            "it must be positive and finite"
        )


_SG_REACTANCES = ("sg.x1_pu", "sg.x2_pu", "sg.x0_pu")
# ClcConfig's fields between its kind and r_vn, in order
_CLC_LIMITS = ("clc.i_lim_pu", "clc.clip_level_pu", "clc.i_th_pu", "clc.k_x", "clc.n_x_r")
# the keys `_circuit` checks: with the base, the source kind, the fault
# position and the generator reactances, the network's
_CIRCUIT_KEYS = (
    *(key for key in DEFAULTS if key.startswith(("circuit.line_", "circuit.grid_"))),
    *("sg.collection_km", "gfm.x_t_pu", "gfm.x_t0_pu"),
)
# each key's config group: its prefix, but `gfm` for the `clc.*` keys,
# `circuit` for those `_circuit` checks and `base` for the other `circuit.*`
_GROUP_OF = {key: key.split(".")[0].replace("clc", "gfm") for key in DEFAULTS}
_GROUP_OF.update(dict.fromkeys((k for k in DEFAULTS if k.startswith("circuit.")), "base"))
_GROUP_OF.update(dict.fromkeys(_CIRCUIT_KEYS, "circuit"))
# each group's part made of the defaults, once: a scenario whose group
# holds only default objects takes it, for a default was valid at import
_DEFAULT_PARTS = {"base": _base_impedance(_DEFAULT_VALUES)}
_DEFAULT_PARTS.update(
    gfm=_converter(_DEFAULT_VALUES),
    sg=_generator(_DEFAULT_VALUES),
    relay=relay_settings(_DEFAULT_VALUES),
    solver=_solver(_DEFAULT_VALUES),
    circuit=_circuit(_DEFAULT_VALUES, _DEFAULT_PARTS["base"]),
)


def build_scenario(
    overrides: dict[str, object] | None = None,
    scenario_id: str = "custom",
    origin: str = PROV_USER,
) -> Scenario:
    """Merge overrides onto the defaults, validate, and build the scenario."""
    overrides = overrides or {}
    unknown = sorted(key for key in overrides if key not in DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")

    # every key in DEFAULTS order, an override replacing its default
    resolved: dict[str, object] = {**_DEFAULT_VALUES, **overrides}
    provenance: dict[str, str] = {**_DEFAULT_PROVENANCE, **dict.fromkeys(overrides, origin)}
    # the groups that hold a value other than its default object; each
    # other group takes its default part
    changed = {_GROUP_OF[k] for k, v in overrides.items() if v is not _DEFAULT_VALUES[k]}

    kind = _need_choice(resolved, "source.kind", _SOURCE_KINDS)
    p_ref = _need_float(resolved, "source.p_ref")
    q_ref = _need_float(resolved, "source.q_ref")
    zb_hv = _base_impedance(resolved) if "base" in changed else _DEFAULT_PARTS["base"]
    gfm = _converter(resolved) if "gfm" in changed else _DEFAULT_PARTS["gfm"]
    sg = _generator(resolved) if "sg" in changed else _DEFAULT_PARTS["sg"]
    relay = relay_settings(resolved) if "relay" in changed else _DEFAULT_PARTS["relay"]
    fault_m = _need_float(resolved, "fault.m")
    if not 0.0 <= fault_m <= 1.0:
        raise ValidationError(f"fault.m must lie in [0, 1], got {fault_m}")
    fault_r = _need_float(resolved, "fault.r_g_ohm")
    if fault_r < 0.0:
        raise ValidationError(f"fault.r_g_ohm must be non-negative, got {fault_r}")
    fault = FaultSpec(
        fault_type=_need_choice(resolved, "fault.kind", _FAULT_KINDS),
        m=fault_m,
        r_g_ohm=fault_r,
        placement=_need_choice(resolved, "fault.placement", _PLACEMENTS),
    )
    solver = _solver(resolved) if "solver" in changed else _DEFAULT_PARTS["solver"]
    if "circuit" in changed:
        z_km = _circuit(resolved, zb_hv)
    else:
        _check_base(resolved, zb_hv)
        z_km = _DEFAULT_PARTS["circuit"]
    net, (z_side1, z_side0) = _build_network(kind, resolved, zb_hv, fault, *z_km)
    source = sg if kind is _SG else gfm
    # every field of a Scenario, in order
    return Scenario(
        scenario_id, kind, p_ref, q_ref, source, fault, relay, solver, net,
        z_side1, z_side0, resolved, provenance,
    )


def _stampable(*zs: complex) -> bool:
    """Whether the network solve can stamp each z as 1/z: z and 1/z nonzero and finite."""
    for z in zs:
        if z == 0 or not (cmath.isfinite(z) and cmath.isfinite(1.0 / z)):
            return False
    return True


def _split(
    eid: str, far: str, m: float, z1: complex, z0: complex
) -> tuple[SeriesElement, SeriesElement]:
    """The fault's host branch of impedances z1 = z2 and z0 as bus1 -[m]- flt -[1 - m]- far."""
    return (
        SeriesElement(eid + "_a", "bus1", "flt", m * z1, m * z1, m * z0),
        SeriesElement(eid + "_b", "flt", far, (1 - m) * z1, (1 - m) * z1, (1 - m) * z0),
    )


_network_values = itemgetter(*_CIRCUIT_KEYS, *_SG_REACTANCES)
# networks by their inputs, bit for bit: at most _NETWORKS_BOUND, the
# oldest dropped first
_NETWORKS: dict[tuple, tuple[NetworkModel, tuple[complex, complex]]] = {}
_NETWORKS_BOUND = 256


def _clear_memos() -> None:
    """Forget every network and all that was computed on one: the next run is cold."""
    _NETWORKS.clear()
    _SHARED.clear()


def _build_network(
    kind: SourceKind, resolved: dict[str, object], zb_hv: float, fault: FaultSpec, *z_km: complex
) -> tuple[NetworkModel, tuple[complex, complex]]:
    """The network, and the passive source-side impedances (z1, z0), of validated keys.

    Looked up by its inputs bit for bit (`network._bitwise`), the generator
    reactances among them for the stamp check, so every scenario with an
    equal circuit and fault position holds the same network object; made by
    `_new_network` when none is held, which raises a config error anew on
    every call.
    """
    key = _bitwise(kind, fault.placement, fault.m, zb_hv, *_network_values(resolved))
    built = _NETWORKS.get(key)
    if built is None:
        made = _new_network(kind, resolved, zb_hv, fault, *z_km)
        built = _keep(_NETWORKS, key, made, _NETWORKS_BOUND)
    return built


def _new_network(
    kind: SourceKind,
    resolved: dict[str, object],
    zb_hv: float,
    fault: FaultSpec,
    z1_km: complex,
    z0_km: complex,
) -> tuple[NetworkModel, tuple[complex, complex]]:
    """`_build_network`'s network, made from the validated keys."""
    km = resolved["circuit.line_km"]
    line_z1, line_z0 = z1_km * km / zb_hv, z0_km * km / zb_hv
    # the grid: |z1| = 1/scr at the given X/R, z0 a multiple of z1
    scr = resolved["circuit.grid_scr"]
    x_r = resolved["circuit.grid_x_r"]
    mag, denom = 1.0 / scr, math.sqrt(1.0 + x_r * x_r)
    grid_z1 = complex(mag / denom, mag * x_r / denom)
    grid_z0 = resolved["circuit.grid_z0_scale"] * grid_z1
    grid_ang = math.radians(resolved["circuit.grid_angle_deg"])
    grid_e = resolved["circuit.grid_v_pu"] * complex(math.cos(grid_ang), math.sin(grid_ang))
    coll_km = resolved["sg.collection_km"]
    x_t = resolved["gfm.x_t_pu"]
    x_t0 = resolved["gfm.x_t0_pu"]

    m = fault.m
    forward = fault.placement is Placement.FORWARD
    if kind is SourceKind.SG:
        source_node = "sgt"
        z_side = (z1_km * coll_km / zb_hv, z0_km * coll_km / zb_hv)
        behind = (SeriesElement("col", "sgt", "bus1", z_side[0], z_side[0], z_side[1]),)
    else:
        if not forward and m == 1.0:
            raise ValidationError(
                "fault.placement=reverse with fault.m=1 puts the fault at the converter "
                "terminal, where the transformer zero-sequence model degenerates; "
                "use m < 1"
            )
        source_node = "poc"
        z_side = (1j * x_t, 1j * x_t0)
        behind = (
            SeriesElement("xfmr", "poc", "bus1", z_side[0], z_side[0], None),
            SeriesElement("xfmr0", "bus1", GROUND, None, None, z_side[1]),
        )
    line = (SeriesElement("line", "bus1", "bus2", line_z1, line_z1, line_z0),)

    # the fault's host branch is the line (forward) or the branch behind
    # bus 1 (reverse); m = 0 and m = 1 put the fault on one of its end
    # nodes, and any other m splits it there
    far = "bus2" if forward else source_node
    fault_node = "bus1" if m == 0.0 else far if m == 1.0 else "flt"
    if fault_node == "flt":
        if forward:
            line = _split("line", far, m, line_z1, line_z0)
        elif kind is SourceKind.SG:
            behind = _split("col", far, m, *z_side)
        else:
            # the delta winding keeps the zero sequence off poc: the
            # transformer's zero-sequence leg runs from flt to ground
            xfmr_a, xfmr_b = _split("xfmr", far, m, *z_side)
            behind = (
                xfmr_a,
                xfmr_b._replace(z0=None),
                SeriesElement("xfmr0", "flt", GROUND, None, None, xfmr_b.z0),
            )
    elements = (
        SourceElement("grid", "bus2", e1=grid_e, z1=grid_z1, z2=grid_z1, z0=grid_z0),
        *line,
        *behind,
    )
    taps = {
        "bus1": RelayTap("bus1", line[0].eid, +1.0),
        "bus2": RelayTap("bus2", line[-1].eid, -1.0),
    }

    # checked after every other key, so that a config with another bad key
    # keeps that key's message. The solve stamps each branch as 1/z, so each
    # per-unit impedance in the network and each generator reactance must
    # pass (z2 is z1 in every branch here).
    stamped = [z for e in elements for z in (e.z1, e.z0) if z is not None]
    if kind is SourceKind.SG:
        stamped += [1j * resolved[key] for key in _SG_REACTANCES]
    if not _stampable(*stamped):
        # the key that gives the impedance, else fault.m, which split it off
        named = [("circuit.line_km", "line", z) for z in (line_z1, line_z0)]
        if kind is SourceKind.SG:
            named += [("sg.collection_km", "line", z) for z in z_side]
            named += [(key, "source", 1j * resolved[key]) for key in _SG_REACTANCES]
        else:
            named.append(("gfm.x_t_pu", "transformer", 1j * x_t))
            named.append(("gfm.x_t0_pu", "transformer", 1j * x_t0))
        named.append(("circuit.grid_scr", "grid", grid_z1))
        named.append(("circuit.grid_z0_scale", "grid", grid_z0))
        named += [("fault.m", "section", z) for z in stamped]
        key, what, z = next(branch for branch in named if not _stampable(branch[2]))
        raise ValidationError(
            f"{key} = {resolved[key]} gives a per-unit {what} impedance of {z}; "
            "it and its admittance 1/z must both be nonzero and finite"
        )

    return NetworkModel(
        elements=elements,
        fault_node=fault_node,
        source_node=source_node,
        z_base_fault_ohm=zb_hv,
        relay_taps=taps,
    ), z_side
