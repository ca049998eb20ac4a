"""Supervising relay elements evaluated on phasor bus readings.

Directional elements compare a sequence voltage to the same-sequence
current at the relay point (current measured from the bus into the
monitored line). For a fault ahead of the relay the mapping v/i equals
minus the impedance behind the relay, so the angle settles near -90 deg on
a predominantly inductive system; behind the relay it equals plus the
impedance ahead, near +90 deg. A non-directional blind band of half-width
phi_non around the +/-90 boundary turns ambiguous angles into an explicit
Indeterminate verdict instead of a guess:

    forward      |angle + 90| <= 90 - phi_non   (mod 360)
    reverse      |angle - 90| <= 90 - phi_non
    otherwise    indeterminate

Three operating quantities are provided: negative sequence v2/i2, zero
sequence v0/i0, and incremental positive sequence (v1 - v1_pre)/(i1 -
i1_pre), the latter needing a genuine pre-fault reading.

Phase selection classifies the fault type from two angle differences at
the relay point,

    dd21 = angle(i2) - angle(di1),    d20 = angle(i2) - angle(i0),

whose resting positions for a strongly inductive source sit on a 60-degree
lattice; each fault type owns a lattice point. Magnitude floors guard the
degenerate cases: no negative sequence means a symmetrical fault, no zero
sequence restricts the choice to the line-line set.

Each element takes each operand's magnitude once, for its floor, and its
angle once, by `phasors.phase_deg` (an operand that cleared its floor
needs no second check); i2's angle enters both dd21 and d20. The bands are
tuples made at import from the centre tables, tested in their order.
"""

from __future__ import annotations

from enum import Enum

from .network import BusReading, FaultType
from .phasors import phase_deg, wrap_angle_deg
from .records import Record

__all__ = [
    "Direction",
    "RelaySettings",
    "DirectionalResult",
    "directional_negative",
    "directional_zero",
    "directional_incremental",
    "PhaseSelectionResult",
    "phase_select",
    "GROUND_CENTERS",
    "LINE_CENTERS",
]


class Direction(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    INDETERMINATE = "indeterminate"


# the members by module name: a global read, not an Enum class attribute's
_FORWARD, _REVERSE, _INDETERMINATE = Direction.FORWARD, Direction.REVERSE, Direction.INDETERMINATE

class RelaySettings(Record):
    """The four elements' settings: one field per `relay.*` key, in config order."""

    phi_non_deg: float = 45.0  # half-width of the band around the 0/180 boundary
    seq_floor_pu: float = 0.02  # peak pu floor of both directional operands, and of dd21's
    asym_floor_pu: float = 0.05  # below it |i2| reads symmetrical, |i0| excludes ground types
    dd21_half_deg: float = 15.0  # the selection bands' half-widths
    d20_half_deg: float = 30.0

    def _check(self) -> None:
        if not 30.0 <= self.phi_non_deg <= 60.0:
            raise ValueError(
                f"phi_non must lie in [30, 60] degrees, got {self.phi_non_deg}"
            )
        for name in ("seq_floor_pu", "asym_floor_pu"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.dd21_half_deg <= 30.0:
            raise ValueError("dd21 band half-width must lie in (0, 30] degrees")
        if not 0.0 < self.d20_half_deg <= 60.0:
            raise ValueError("d20 band half-width must lie in (0, 60] degrees")


class DirectionalResult(Record):
    element: str  # operating quantity tag: "neg", "zero", "inc"
    angle_deg: float | None  # None when an operand sat below the floor
    direction: Direction


def _classify(element: str, v: complex, i: complex, cfg: RelaySettings) -> DirectionalResult:
    """The verdict on angle(v/i), each operand's magnitude and angle taken once."""
    floor = cfg.seq_floor_pu
    if abs(v) < floor or abs(i) < floor:
        return DirectionalResult(element, None, _INDETERMINATE)
    angle = wrap_angle_deg(phase_deg(v) - phase_deg(i))
    half = 90.0 - cfg.phi_non_deg
    if abs(wrap_angle_deg(angle + 90.0)) <= half:
        verdict = _FORWARD
    elif abs(wrap_angle_deg(angle - 90.0)) <= half:
        verdict = _REVERSE
    else:
        verdict = _INDETERMINATE
    return DirectionalResult(element, angle, verdict)


def directional_negative(reading: BusReading, cfg: RelaySettings) -> DirectionalResult:
    """Negative-sequence directional element: angle of v2/i2."""
    return _classify("neg", reading.v.neg, reading.i.neg, cfg)


def directional_zero(reading: BusReading, cfg: RelaySettings) -> DirectionalResult:
    """Zero-sequence directional element: angle of v0/i0."""
    return _classify("zero", reading.v.zero, reading.i.zero, cfg)


def directional_incremental(
    reading: BusReading, prefault: BusReading, cfg: RelaySettings
) -> DirectionalResult:
    """Incremental positive-sequence element: angle of dv1/di1."""
    dv = reading.v.pos - prefault.v.pos
    di = reading.i.pos - prefault.i.pos
    return _classify("inc", dv, di, cfg)


# (dd21, d20) lattice points for ground faults, dd21 points for line-line.
GROUND_CENTERS: dict[FaultType, tuple[float, float]] = {
    FaultType.AG: (0.0, 0.0),
    FaultType.BG: (120.0, -120.0),
    FaultType.CG: (-120.0, 120.0),
    FaultType.BCG: (180.0, 0.0),
    FaultType.CAG: (-60.0, -120.0),
    FaultType.ABG: (60.0, 120.0),
}
LINE_CENTERS: dict[FaultType, float] = {
    FaultType.BC: 180.0,
    FaultType.CA: -60.0,
    FaultType.AB: 60.0,
}
# the same bands in the same order, as tuples: (type, dd21 centre[, d20 centre])
_LINE_BANDS = tuple(LINE_CENTERS.items())
_GROUND_BANDS = tuple((ftype, c21, c20) for ftype, (c21, c20) in GROUND_CENTERS.items())
_ABC = FaultType.ABC


class PhaseSelectionResult(Record):
    selected: FaultType | None  # None: no band matched
    dd21_deg: float | None
    d20_deg: float | None


def phase_select(
    reading: BusReading, prefault: BusReading, cfg: RelaySettings
) -> PhaseSelectionResult:
    """Classify the fault type from the relay-point sequence currents.

    Each operand's magnitude and angle are taken once; i2's angle enters
    both dd21 and d20.
    """
    i2 = reading.i.neg
    i0 = reading.i.zero
    di1 = reading.i.pos - prefault.i.pos
    mag2 = abs(i2)

    if mag2 < cfg.asym_floor_pu:
        return PhaseSelectionResult(_ABC, None, None)

    # dd21 needs both operands over seq_floor_pu, which may exceed asym_floor_pu
    if abs(di1) < cfg.seq_floor_pu or mag2 < cfg.seq_floor_pu:
        return PhaseSelectionResult(None, None, None)
    angle2 = phase_deg(i2)
    dd21 = wrap_angle_deg(angle2 - phase_deg(di1))
    half21 = cfg.dd21_half_deg

    if abs(i0) < cfg.asym_floor_pu:
        for ftype, center in _LINE_BANDS:
            if abs(wrap_angle_deg(dd21 - center)) <= half21:
                return PhaseSelectionResult(ftype, dd21, None)
        return PhaseSelectionResult(None, dd21, None)

    d20 = wrap_angle_deg(angle2 - phase_deg(i0))
    half20 = cfg.d20_half_deg
    for ftype, c21, c20 in _GROUND_BANDS:
        if abs(wrap_angle_deg(dd21 - c21)) <= half21 and abs(wrap_angle_deg(d20 - c20)) <= half20:
            return PhaseSelectionResult(ftype, dd21, d20)
    return PhaseSelectionResult(None, dd21, d20)
