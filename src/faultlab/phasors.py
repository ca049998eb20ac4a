"""Phasor algebra and symmetrical components.

Phasors are plain Python complex numbers holding peak (amplitude-invariant)
per-unit quantities at fundamental frequency. This module supplies the small
amount of structure the solvers need on top of `complex`:

- polar helpers with degrees (`from_polar`, `angle_deg`, `phase_deg`),
- angle wrapping to (-180, +180] and guarded angle-between,
- the symmetrical-component transform and its inverse, with the a-b-c
  positive rotation convention and the operator alpha = 1 at +120 degrees:

      s1 = (a + alpha*b + alpha^2*c) / 3      (positive)
      s2 = (a + alpha^2*b + alpha*c) / 3      (negative)
      s0 = (a + b + c) / 3                    (zero)

  Synthesis is a = s0+s1+s2, b = s0 + alpha^2*s1 + alpha*s2,
  c = s0 + alpha*s1 + alpha^2*s2.

Angles are degrees everywhere in the public surface; radians never leak out.
"""

from __future__ import annotations

import cmath
import math

from .records import Record

__all__ = [
    "ALPHA",
    "ZeroPhasorError",
    "SequenceTriple",
    "PhaseTriple",
    "from_polar",
    "angle_deg",
    "phase_deg",
    "wrap_angle_deg",
    "angle_between",
    "fortescue",
    "inverse_fortescue",
]

# Rotation operator: 1 at +120 degrees. exp form keeps it exact to double precision.
ALPHA: complex = cmath.exp(2j * math.pi / 3.0)
_ALPHA2: complex = ALPHA * ALPHA

# Below this magnitude a phasor has no meaningful angle.
DEFAULT_MAGNITUDE_FLOOR = 1e-9


class ZeroPhasorError(ValueError):
    """Raised when an angle is requested from a phasor below the magnitude floor."""


def from_polar(mag: float, angle_degrees: float) -> complex:
    """Build a phasor from magnitude and angle in degrees."""
    return cmath.rect(mag, math.radians(angle_degrees))


def angle_deg(x: complex, floor: float = DEFAULT_MAGNITUDE_FLOOR) -> float:
    """Phasor angle in degrees, wrapped to (-180, +180].

    Raises ZeroPhasorError below `floor`: the angle of a dead phasor is noise,
    and every caller that can tolerate one handles the exception explicitly.
    """
    if abs(x) < floor:
        raise ZeroPhasorError(f"phasor magnitude {abs(x):.3e} below floor {floor:.3e}")
    return wrap_angle_deg(math.degrees(cmath.phase(x)))


def phase_deg(x: complex) -> float:
    """`angle_deg` of a phasor that has already cleared its magnitude floor.

    Its arithmetic without a second floor check: `cmath.phase` lies in
    [-pi, pi], so of the wrap to (-180, +180] only -180 -> 180 is left.
    """
    angle = math.degrees(cmath.phase(x))
    return 180.0 if angle == -180.0 else angle


def wrap_angle_deg(angle_degrees: float) -> float:
    """Wrap an angle in degrees to the interval (-180, +180]."""
    wrapped = math.fmod(angle_degrees, 360.0)
    if wrapped <= -180.0:
        wrapped += 360.0
    elif wrapped > 180.0:
        wrapped -= 360.0
    return wrapped


def angle_between(x: complex, y: complex, floor: float = DEFAULT_MAGNITUDE_FLOOR) -> float:
    """Angle of x relative to y in degrees: angle(x/y), wrapped to (-180, +180].

    Both operands must clear the magnitude floor. Computed as a difference of
    angles rather than angle(x/y) so that neither the quotient overflow nor its
    rounding enters; the wrap makes the two forms agree.
    """
    return wrap_angle_deg(angle_deg(x, floor) - angle_deg(y, floor))


class SequenceTriple(Record):
    """Positive-, negative-, and zero-sequence components of one quantity."""

    pos: complex = 0j
    neg: complex = 0j
    zero: complex = 0j

    def __add__(self, other: "SequenceTriple") -> "SequenceTriple":
        return SequenceTriple(self.pos + other.pos, self.neg + other.neg, self.zero + other.zero)

    def __sub__(self, other: "SequenceTriple") -> "SequenceTriple":
        return SequenceTriple(self.pos - other.pos, self.neg - other.neg, self.zero - other.zero)

    def scaled(self, k: complex) -> "SequenceTriple":
        return SequenceTriple(k * self.pos, k * self.neg, k * self.zero)

    def max_abs(self) -> float:
        return max(abs(self.pos), abs(self.neg), abs(self.zero))


class PhaseTriple(Record):
    """Phase-domain a, b, c components of one quantity."""

    a: complex = 0j
    b: complex = 0j
    c: complex = 0j

    def __add__(self, other: "PhaseTriple") -> "PhaseTriple":
        return PhaseTriple(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "PhaseTriple") -> "PhaseTriple":
        return PhaseTriple(self.a - other.a, self.b - other.b, self.c - other.c)

    def scaled(self, k: complex) -> "PhaseTriple":
        return PhaseTriple(k * self.a, k * self.b, k * self.c)

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c))


def fortescue(phases: PhaseTriple) -> SequenceTriple:
    """Analyze phase quantities into symmetrical components."""
    a, b, c = phases.a, phases.b, phases.c
    return SequenceTriple(
        pos=(a + ALPHA * b + _ALPHA2 * c) / 3.0,
        neg=(a + _ALPHA2 * b + ALPHA * c) / 3.0,
        zero=(a + b + c) / 3.0,
    )


def inverse_fortescue(seq: SequenceTriple) -> PhaseTriple:
    """Synthesize phase quantities from symmetrical components."""
    s1, s2, s0 = seq.pos, seq.neg, seq.zero
    return PhaseTriple(
        a=s0 + s1 + s2,
        b=s0 + _ALPHA2 * s1 + ALPHA * s2,
        c=s0 + ALPHA * s1 + _ALPHA2 * s2,
    )
