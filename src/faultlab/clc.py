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
(4/pi) * c, which is therefore the per-phase cap of that limiter. Its slope,
for the driver's Jacobian, is

    N'(A) = -(4/pi) * (c / A^2) * sqrt(1 - r^2)

above the clip level and 0 below it.

`limit` returns, with its output, the derivative of the smooth piece the
limiter took, in CR form (K. Kreutz-Delgado, "The complex gradient
operator and the CR-calculus", arXiv:0906.4835):
d out = A @ d ref + B @ conj(d ref), with A and B complex 2x2, since a
clamp or a magnitude is not holomorphic.

All quantities are peak per-unit on the converter base; dq components map a
sequence phasor x as x * exp(-j*theta) for the positive channel and
x * exp(+j*theta) for the negative channel (dual synchronous frames frozen
at the pre-fault internal angle).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from enum import Enum

from .phasors import ALPHA
from .records import Record

__all__ = [
    "ClcKind",
    "ClcConfig",
    "describing_function",
    "clc_virtual_admittance",
    "clc_adaptive_impedance",
    "phase_components",
    "max_phase_current",
    "limit",
]

_ALPHA2 = ALPHA * ALPHA
# Fortescue rows: phase k of the pair (i1, i2) is _ROWS[k][0] * i1 + _ROWS[k][1] * i2
_ROWS = ((1.0, 1.0), (_ALPHA2, ALPHA), (ALPHA, _ALPHA2))

# a complex 2x2 matrix, row by row
Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]
# derivative() -> (A, B), a derivative in CR form: d out = A @ d in + B @ conj(d in)
Derivative = Callable[[], tuple[Mat2, Mat2]]


class ClcKind(Enum):
    CIRCULAR = "circular"
    PRIORITY = "priority"
    INSTANTANEOUS = "instantaneous"
    VIRTUAL_ADMITTANCE = "virtual_admittance"
    ADAPTIVE_VIRTUAL_IMPEDANCE = "adaptive_virtual_impedance"

    @property
    def is_saturation(self) -> bool:
        return self in _SATURATION


# the members by module name, here and in `sources` and `scenario`: a
# global read per law evaluation, not an Enum class attribute's
_CIRCULAR, _PRIORITY, _INSTANTANEOUS = ClcKind.CIRCULAR, ClcKind.PRIORITY, ClcKind.INSTANTANEOUS
_VIRTUAL_ADMITTANCE, _ADAPTIVE = ClcKind.VIRTUAL_ADMITTANCE, ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE
_SATURATION = (_CIRCULAR, _PRIORITY, _INSTANTANEOUS)


class ClcConfig(Record):
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

    def _check(self) -> None:
        for name in ("i_lim", "clip_level", "i_th", "k_x", "n_x_r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"clc.{name} must be positive, got {getattr(self, name)}")
        if self.r_vn < 0.0 or self.x_vn < 0.0:
            raise ValueError("nominal virtual impedance parts must be non-negative")


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


def phase_components(i1: complex, i2: complex) -> tuple[complex, complex, complex]:
    """Phase reference phasors synthesized from the two sequence channels."""
    return (i1 + i2, _ALPHA2 * i1 + ALPHA * i2, ALPHA * i1 + _ALPHA2 * i2)


def max_phase_current(i1: complex, i2: complex) -> float:
    """Largest phase amplitude of the combined sequence pair."""
    return max(abs(p) for p in phase_components(i1, i2))


def _clamp(value: float, bound: float) -> tuple[float, int]:
    """Clamp value to [-bound, bound], with the side (-1, 0 or 1) it took."""
    side = (value > bound) - (value < -bound)
    return (value if side == 0 else side * bound), side


def _priority_clamp(cfg: ClcConfig, ref_dq: complex) -> tuple[complex, tuple[int, int]]:
    """Clamp d to the limit, then q to the headroom d leaves."""
    d, side_d = _clamp(ref_dq.real, cfg.i_lim)
    q, side_q = _clamp(ref_dq.imag, math.sqrt(max(0.0, cfg.i_lim**2 - d * d)))
    return complex(d, q), (side_d, side_q)


def limit(
    cfg: ClcConfig, theta: float, ref1: complex, ref2: complex
) -> tuple[complex, complex, Derivative]:
    """Limiter output (network frame) for the two channel references, and its derivative.

    circular: one real factor shrinks both channels so that no phase
    exceeds i_lim; the largest phase sets it. priority: each channel is
    first clamped in its own synchronous frame at angle theta, d to i_lim
    and q to the headroom d leaves, then shrunk as circular.
    instantaneous: each phase reference is scaled by its own describing
    function and projected back onto the positive/negative pair; the
    zero-sequence residue this leaves has no path in a three-wire
    converter and is discarded.

    derivative() gives (A, B), the derivative of the smooth piece the
    limiter took here: d out = A @ d ref + B @ conj(d ref). It is built,
    only when called, from the phases, clamps, clipper gains and rescale
    of this call.

    instantaneous: phase k is f_k = p_k N(|p_k|), whose slopes are
    alpha_k = N + N' |p_k| / 2 on dp_k and beta_k = N' p_k^2 / (2 |p_k|) on
    conj(dp_k), with N' = 0 up to the clip level. With p = T @ ref and
    out = conj(T)^T @ f / 3 (T the Fortescue rows),
    A = conj(T)^T diag(alpha) T / 3 and B = conj(T)^T diag(beta) conj(T) / 3,
    written out below.

    priority: each channel's clamp is a diagonal CR map (a_k, b_k) in its
    rotated frame, giving the clamped references c. A binding rescale
    out = s * c, s = i_lim / |p| with p = t @ c the phase that sets it, adds
    c * ds, ds = -(s / 2|p|^2) (conj(p) t @ dc + p conj(t) @ conj(dc)): a
    rank-one term on top of s times the clamps. circular is the same
    without the clamps.
    """
    kind = cfg.kind
    if kind is _INSTANTANEOUS:
        clip = cfg.clip_level
        phases = pa, pb, pc = phase_components(ref1, ref2)
        amps = abs(pa), abs(pb), abs(pc)
        gains = na, nb, nc = [describing_function(amp, clip) for amp in amps]
        fa, fb, fc = pa * na, pb * nb, pc * nc

        def clipper() -> tuple[Mat2, Mat2]:
            slopes = []
            for p, amp, n in zip(phases, amps, gains):
                if amp <= clip:
                    slopes.append((1.0, 0j))
                    continue
                r = clip / amp
                half_slope = -(2.0 / math.pi) * (r / amp) * math.sqrt(1.0 - r * r)  # N'(|p|) / 2
                slopes.append((n + half_slope * amp, half_slope * p * p / amp))
            (alpha_a, beta_a), (alpha_b, beta_b), (alpha_c, beta_c) = slopes
            a11 = (alpha_a + alpha_b + alpha_c) / 3.0
            b12 = (beta_a + beta_b + beta_c) / 3.0
            return (
                (a11, (alpha_a + _ALPHA2 * alpha_b + ALPHA * alpha_c) / 3.0),
                ((alpha_a + ALPHA * alpha_b + _ALPHA2 * alpha_c) / 3.0, a11),
            ), (
                ((beta_a + _ALPHA2 * beta_b + ALPHA * beta_c) / 3.0, b12),
                (b12, (beta_a + ALPHA * beta_b + _ALPHA2 * beta_c) / 3.0),
            )

        return (
            (fa + ALPHA * fb + _ALPHA2 * fc) / 3.0, (fa + _ALPHA2 * fb + ALPHA * fc) / 3.0, clipper
        )
    if kind is _PRIORITY:
        rot = cmath.exp(-1j * theta)
        dq1, sides1 = _priority_clamp(cfg, ref1 * rot)
        dq2, sides2 = _priority_clamp(cfg, ref2 / rot)
        c1, c2 = dq1 / rot, dq2 * rot
    elif kind is _CIRCULAR:
        c1, c2 = ref1, ref2
    else:
        raise ValueError(f"{kind.value} has no reference saturation stage")
    phases = phase_components(c1, c2)
    amps = [abs(p) for p in phases]
    peak = amps.index(max(amps))
    binds = amps[peak] > cfg.i_lim
    scale = cfg.i_lim / amps[peak] if binds else 1.0

    def derivative() -> tuple[Mat2, Mat2]:
        if kind is _PRIORITY:
            # a clamped component is constant. The q bound sqrt(i_lim^2 - d^2)
            # moves with a passed d, dq = -side_q * d / sqrt(i_lim^2 - d^2) * dd,
            # a term taken as 0 where the root is 0; with dd = (dw + conj(dw)) / 2
            # and dq = (dw - conj(dw)) / 2j that gives a and b
            slopes = []
            for dq, (side_d, side_q) in ((dq1, sides1), (dq2, sides2)):
                keep_d, keep_q = float(side_d == 0), float(side_q == 0)
                tilt = 0.0
                if side_d == 0 and side_q != 0 and dq.imag != 0.0:
                    tilt = -dq.real / dq.imag  # dq.imag is side_q * sqrt(i_lim^2 - d^2)
                slopes.append(
                    (complex(keep_d + keep_q, tilt) / 2.0, complex(keep_d - keep_q, tilt) / 2.0)
                )
            # channel 1 is clamped at ref1 * rot, channel 2 at ref2 / rot; the
            # frame turn u leaves a on dref and puts conj(u) / u on b
            (a1, b1), (a2, b2) = slopes
            b1, b2 = b1 * rot.conjugate() ** 2, b2 * rot * rot
        else:
            a1, a2, b1, b2 = 1.0, 1.0, 0.0, 0.0
        if not binds:
            return ((a1, 0j), (0j, a2)), ((b1, 0j), (0j, b2))
        t1, t2 = _ROWS[peak]
        p = phases[peak]
        amp2 = p.real * p.real + p.imag * p.imag
        s = cfg.i_lim / math.sqrt(amp2)
        gp, gq = s * p.conjugate() / (2.0 * amp2), s * p / (2.0 * amp2)
        # ds = -(ka1 dref1 + ka2 dref2 + kb1 conj(dref1) + kb2 conj(dref2))
        ka1 = gp * t1 * a1 + gq * (t1 * b1).conjugate()
        ka2 = gp * t2 * a2 + gq * (t2 * b2).conjugate()
        kb1 = gp * t1 * b1 + gq * (t1 * a1).conjugate()
        kb2 = gp * t2 * b2 + gq * (t2 * a2).conjugate()
        return (
            (s * a1 - c1 * ka1, -c1 * ka2),
            (-c2 * ka1, s * a2 - c2 * ka2),
        ), (
            (s * b1 - c1 * kb1, -c1 * kb2),
            (-c2 * kb1, s * b2 - c2 * kb2),
        )

    return c1 * scale, c2 * scale, derivative
