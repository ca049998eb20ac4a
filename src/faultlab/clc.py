"""Current-limiting control laws for the grid-forming source.

Five strategies, two families:

* Reference saturation (circular, priority, instantaneous): the current
  reference from the proportional voltage loop is clipped, which at a fixed
  point is equivalent to an output impedance (1 - sigma) / (K_pv * sigma)
  per sequence channel, with sigma the componentwise complex ratio of
  saturated to unsaturated reference.
* Impedance shaping (virtual admittance, adaptive virtual impedance): the
  source keeps its voltage behind an explicitly computed Z_v.

The phasor solver cannot clip waveforms, so the instantaneous (per-phase)
limiter is represented by its describing function: the fundamental of a
sinusoid of amplitude A hard-clipped at level c keeps the phase and scales by

    N = (2/pi) * (asin(r) + r * sqrt(1 - r^2)),   r = min(1, c / A)

which is exact for the fundamental component and is the declared
approximation of this model. Deep clipping asymptotes to a fundamental of
(4/pi) * c, which is therefore the per-phase cap of that limiter.

All quantities are peak per-unit on the converter base; dq components map a
sequence phasor x as x * exp(-j*theta) for the positive channel and
x * exp(+j*theta) for the negative channel (dual synchronous frames frozen
at the pre-fault internal angle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .phasors import ALPHA

__all__ = [
    "ClcKind",
    "ClcConfig",
    "describing_function",
    "clc_virtual_admittance",
    "clc_adaptive_impedance",
    "saturate_reference",
    "instantaneous_two_channel",
    "phase_components",
    "max_phase_current",
]

_ALPHA2 = ALPHA * ALPHA


class ClcKind(Enum):
    CIRCULAR = "circular"
    PRIORITY = "priority"
    INSTANTANEOUS = "instantaneous"
    VIRTUAL_ADMITTANCE = "virtual_admittance"
    ADAPTIVE_VIRTUAL_IMPEDANCE = "adaptive_virtual_impedance"

    @property
    def is_saturation(self) -> bool:
        return self in (ClcKind.CIRCULAR, ClcKind.PRIORITY, ClcKind.INSTANTANEOUS)


@dataclass(frozen=True)
class ClcConfig:
    """Parameters for one current-limiting strategy.

    Only the fields the chosen kind reads are meaningful; the rest keep
    their defaults so a config can switch kinds without re-specifying.
    """

    kind: ClcKind = ClcKind.CIRCULAR
    i_lim: float = 1.2  # saturation / admittance current limit, peak pu
    clip_level: float = 1.2  # instantaneous per-phase clip level, peak pu
    i_th: float = 1.1  # adaptive-impedance trigger current, peak pu
    # adaptive-impedance gain, pu reactance per pu current of excess;
    # sized so a bolted terminal fault settles below i_lim: the
    # zero-external-impedance equilibrium k_x*i*(i - i_th) = E stays
    # under 1.2 pu for E up to 1.1 pu
    k_x: float = 10.0
    n_x_r: float = 20.0  # X/R ratio of the shaped impedance
    r_vn: float = 0.01  # nominal virtual resistance (admittance mode), pu
    x_vn: float = 0.05  # nominal virtual reactance (admittance mode), pu

    def __post_init__(self) -> None:
        for name in ("i_lim", "clip_level", "i_th", "k_x", "n_x_r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"clc.{name} must be positive, got {getattr(self, name)}")
        if self.r_vn < 0.0 or self.x_vn < 0.0:
            raise ValueError("nominal virtual impedance parts must be non-negative")

    @property
    def phase_current_cap(self) -> float:
        """Hard per-phase fundamental bound enforced by a saturation kind."""
        if self.kind is ClcKind.INSTANTANEOUS:
            return 4.0 * self.clip_level / math.pi
        if self.kind.is_saturation:
            return self.i_lim
        raise ValueError(f"{self.kind.value} is not a hard-capping limiter")


def describing_function(amplitude: float, clip_level: float) -> float:
    """Fundamental scaling of a hard clipper: N(A) in (0, 1].

    For A <= c the clipper is transparent (N = 1); for A > c the fundamental
    of the clipped sinusoid is A * N(A) with N from the asin form above.
    """
    if amplitude <= 0.0:
        return 1.0
    r = min(1.0, clip_level / amplitude)
    return (2.0 / math.pi) * (math.asin(r) + r * math.sqrt(1.0 - r * r))


def clc_virtual_admittance(cfg: ClcConfig, v_drive: float) -> complex:
    """Virtual impedance of the admittance-shaping law.

    The reactance rises with the driving voltage so the branch current stays
    at i_lim once the adaptive term exceeds the nominal value:

        x_v = max(x_vn, v / (i_lim * sqrt(1 + 1/n_x_r^2)))
        r_v = max(r_vn, x_v / n_x_r)

    With both adaptive branches active, |Z_v| = v / i_lim exactly, so a
    stiff bus of voltage v drives exactly i_lim through the branch.
    """
    if v_drive < 0.0:
        raise ValueError(f"driving voltage magnitude {v_drive} is negative")
    x_v = max(cfg.x_vn, v_drive / (cfg.i_lim * math.sqrt(1.0 + 1.0 / cfg.n_x_r**2)))
    r_v = max(cfg.r_vn, x_v / cfg.n_x_r)
    return complex(r_v, x_v)


def clc_adaptive_impedance(cfg: ClcConfig, i_trigger: float) -> complex:
    """Virtual impedance of the adaptive law: zero until the trigger current.

        x_v = k_x * (i - i_th)  for i >= i_th, else 0
        r_v = x_v / n_x_r

    The angle of the inserted impedance is atan(n_x_r) by construction.
    """
    if i_trigger < 0.0:
        raise ValueError(f"trigger current {i_trigger} is negative")
    if i_trigger < cfg.i_th:
        return 0j
    x_v = cfg.k_x * (i_trigger - cfg.i_th)
    return complex(x_v / cfg.n_x_r, x_v)


def saturate_reference(cfg: ClcConfig, i_ref_dq: complex) -> tuple[complex, complex]:
    """Clip one channel's dq current reference; returns (i_sat, sigma).

    sigma is the componentwise ratio i_sat / i_ref (1 when transparent).
    The circular limiter shrinks the vector, preserving its angle; the
    priority limiter clamps the d component first and gives q the remaining
    headroom; the instantaneous limiter acting on a single balanced channel
    reduces to the describing-function scaling of its amplitude.
    """
    if not cfg.kind.is_saturation:
        raise ValueError(f"{cfg.kind.value} has no reference saturation stage")
    mag = abs(i_ref_dq)
    if mag == 0.0:
        return 0j, 1.0 + 0j

    if cfg.kind is ClcKind.CIRCULAR:
        sigma = complex(min(1.0, cfg.i_lim / mag))
        return i_ref_dq * sigma, sigma

    if cfg.kind is ClcKind.PRIORITY:
        d = min(cfg.i_lim, max(-cfg.i_lim, i_ref_dq.real))
        headroom = math.sqrt(max(0.0, cfg.i_lim**2 - d * d))
        q = min(headroom, max(-headroom, i_ref_dq.imag))
        i_sat = complex(d, q)
        return i_sat, i_sat / i_ref_dq

    # instantaneous, single channel: all three phases carry the same amplitude
    scale = describing_function(mag, cfg.clip_level)
    return i_ref_dq * scale, complex(scale)


def phase_components(i1: complex, i2: complex) -> tuple[complex, complex, complex]:
    """Phase reference phasors synthesized from the two sequence channels."""
    return (i1 + i2, _ALPHA2 * i1 + ALPHA * i2, ALPHA * i1 + _ALPHA2 * i2)


def max_phase_current(i1: complex, i2: complex) -> float:
    """Largest phase amplitude of the combined sequence pair."""
    return max(abs(p) for p in phase_components(i1, i2))


def instantaneous_two_channel(
    cfg: ClcConfig, i_ref1: complex, i_ref2: complex
) -> tuple[complex, complex]:
    """Per-phase describing-function clipping of the combined reference.

    Reconstructs the three phase reference phasors, scales each by its own
    N(A), and projects the result back onto the positive/negative pair. The
    per-phase scaling generates a zero-sequence residue; a three-wire
    converter has no path for it, so it is discarded.
    """
    pa, pb, pc = phase_components(i_ref1, i_ref2)
    pa *= describing_function(abs(pa), cfg.clip_level)
    pb *= describing_function(abs(pb), cfg.clip_level)
    pc *= describing_function(abs(pc), cfg.clip_level)
    i1 = (pa + ALPHA * pb + _ALPHA2 * pc) / 3.0
    i2 = (pa + _ALPHA2 * pb + ALPHA * pc) / 3.0
    return i1, i2
