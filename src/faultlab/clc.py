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

Each law is built once per case, with the case's constants bound
(`saturation_law`, `shaping_law`), so that an evaluation is the law's own
arithmetic. A saturation law returns, with its output, the derivative of
the smooth piece the limiter took, in CR form (K. Kreutz-Delgado, "The
complex gradient operator and the CR-calculus", arXiv:0906.4835):
d out = A @ d ref + B @ conj(d ref), with A and B complex 2x2, since a
clamp or a magnitude is not holomorphic. `limit` is that law at one pair
of references.

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
    "saturation_law",
    "shaping_law",
]

_ALPHA2 = ALPHA * ALPHA
# Fortescue rows: phase k of the pair (i1, i2) is _ROWS[k][0] * i1 + _ROWS[k][1] * i2
_ROWS = ((1.0, 1.0), (_ALPHA2, ALPHA), (ALPHA, _ALPHA2))

# a complex 2x2 matrix, row by row
Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]
# derivative() -> (A, B), a derivative in CR form: d out = A @ d in + B @ conj(d in)
Derivative = Callable[[], tuple[Mat2, Mat2]]
# one case's saturation law: law(i1, i2) -> (out1, out2, derivative)
Law = Callable[[complex, complex], tuple[complex, complex, Derivative]]
# (k_pv, e_ref1, the six numbers of a terminal port: v1_oc, v2_oc, z11, z12, z21, z22)
Loop = tuple[float, complex, tuple[complex, complex, complex, complex, complex, complex]]

_TWO_OVER_PI = 2.0 / math.pi


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
    return _TWO_OVER_PI * (math.asin(r) + r * math.sqrt(1.0 - r * r))


def clc_virtual_admittance(cfg: ClcConfig, v_drive: float) -> complex:
    """Virtual impedance of the admittance-shaping law.

    The reactance rises with the driving voltage so the branch current stays
    at i_lim once the adaptive term exceeds the nominal value:

        x_v = max(x_vn, v / (i_lim * sqrt(1 + 1/n_x_r^2)))
        r_v = max(r_vn, x_v / n_x_r)

    With both adaptive branches active, |Z_v| = v / i_lim exactly, so a
    stiff bus of voltage v drives exactly i_lim through the branch.
    """
    return _admittance(cfg)(v_drive)


def clc_adaptive_impedance(cfg: ClcConfig, i_trigger: float) -> complex:
    """Virtual impedance of the adaptive law: zero until the trigger current.

        x_v = k_x * (i - i_th)  for i >= i_th, else 0
        r_v = x_v / n_x_r

    The angle of the inserted impedance is atan(n_x_r) by construction.
    """
    return _adaptive(cfg)(i_trigger)


def shaping_law(cfg: ClcConfig) -> Callable[[float], complex]:
    """The virtual impedance of one case's shaping law, its constants bound.

    It maps the law's drive to Z_v: the driving voltage for
    virtual_admittance (`clc_virtual_admittance`), the trigger current
    for adaptive_virtual_impedance (`clc_adaptive_impedance`).
    """
    if cfg.kind is _VIRTUAL_ADMITTANCE:
        return _admittance(cfg)
    if cfg.kind is _ADAPTIVE:
        return _adaptive(cfg)
    raise ValueError(f"{cfg.kind.value} has no impedance shaping stage")


def _admittance(cfg: ClcConfig) -> Callable[[float], complex]:
    x_vn, r_vn, n_x_r = cfg.x_vn, cfg.r_vn, cfg.n_x_r
    i_lim_v = cfg.i_lim * math.sqrt(1.0 + 1.0 / n_x_r**2)

    def z_v(v_drive: float) -> complex:
        if v_drive < 0.0:
            raise ValueError(f"driving voltage magnitude {v_drive} is negative")
        # each max(floor, value) written as its conditional
        x_v = v_drive / i_lim_v
        x_v = x_v if x_v > x_vn else x_vn
        r_v = x_v / n_x_r
        return complex(r_v if r_v > r_vn else r_vn, x_v)

    return z_v


def _adaptive(cfg: ClcConfig) -> Callable[[float], complex]:
    i_th, k_x, n_x_r = cfg.i_th, cfg.k_x, cfg.n_x_r

    def z_v(i_trigger: float) -> complex:
        if i_trigger < 0.0:
            raise ValueError(f"trigger current {i_trigger} is negative")
        if i_trigger < i_th:
            return 0j
        x_v = k_x * (i_trigger - i_th)
        return complex(x_v / n_x_r, x_v)

    return z_v


def phase_components(i1: complex, i2: complex) -> tuple[complex, complex, complex]:
    """Phase reference phasors synthesized from the two sequence channels."""
    return (i1 + i2, _ALPHA2 * i1 + ALPHA * i2, ALPHA * i1 + _ALPHA2 * i2)


def max_phase_current(i1: complex, i2: complex) -> float:
    """Largest phase amplitude of the combined sequence pair.

    The largest by the rule of the builtin `max`: a later phase is taken
    only where it compares greater, so a nan first phase is kept.
    """
    amp = abs(i1 + i2)
    amp_b = abs(_ALPHA2 * i1 + ALPHA * i2)
    amp_c = abs(ALPHA * i1 + _ALPHA2 * i2)
    if amp_b > amp:
        amp = amp_b
    return amp_c if amp_c > amp else amp


def _priority_clamp(w: complex, i_lim: float, i_lim2: float) -> tuple[complex, int, int]:
    """Clamp d to the limit, then q to the headroom d leaves, with the sides (-1, 0 or 1) taken.

    i_lim2 is i_lim**2.
    """
    d = w.real
    side_d = (d > i_lim) - (d < -i_lim)
    if side_d:
        d = side_d * i_lim
    room = i_lim2 - d * d
    room = math.sqrt(room if room > 0.0 else 0.0)
    q = w.imag
    side_q = (q > room) - (q < -room)
    return complex(d, q if side_q == 0 else side_q * room), side_d, side_q


def _clamp_slopes(dq: complex, side_d: int, side_q: int) -> tuple[complex, complex]:
    """One channel's clamp as a diagonal CR map (a, b) in its rotated frame.

    A clamped component is constant. The q bound sqrt(i_lim^2 - d^2) moves
    with a passed d, dq = -side_q * d / sqrt(i_lim^2 - d^2) * dd, a term
    taken as 0 where the root is 0; with dd = (dw + conj(dw)) / 2 and
    dq = (dw - conj(dw)) / 2j that gives a and b. Without that tilt they
    depend on the sides alone (`_FLAT_SLOPES`).
    """
    if side_d == 0 and side_q != 0 and dq.imag != 0.0:
        # a = b: keep_d + keep_q = keep_d - keep_q = 1
        a = complex(1.0, -dq.real / dq.imag) / 2.0  # dq.imag is side_q * sqrt(i_lim^2 - d^2)
        return a, a
    return _FLAT_SLOPES[side_d, side_q]


# (a, b) of an untilted clamp by its sides: complex(keep_d + keep_q, 0.0) / 2
# and complex(keep_d - keep_q, 0.0) / 2, keep_x = 1.0 where x passes
_FLAT_SLOPES = {
    (side_d, side_q): (
        complex(float(side_d == 0) + float(side_q == 0), 0.0) / 2.0,
        complex(float(side_d == 0) - float(side_q == 0), 0.0) / 2.0,
    )
    for side_d in (-1, 0, 1)
    for side_q in (-1, 0, 1)
}


def _clip_slopes(p: complex, amp: float, n: float, clip: float) -> tuple[complex | float, complex]:
    """The slopes (alpha, beta) of one clipped phase f = p N(|p|), N = n at p."""
    if amp <= clip:
        return 1.0, 0j
    r = clip / amp
    half_slope = -_TWO_OVER_PI * (r / amp) * math.sqrt(1.0 - r * r)  # N'(|p|) / 2
    return n + half_slope * amp, half_slope * p * p / amp


def _compose(ab: tuple[Mat2, Mat2], m: Mat2) -> tuple[Mat2, Mat2]:
    """The CR pair (A @ M, B @ conj(M)) of the map (A, B) after the linear map M."""
    ((a11, a12), (a21, a22)), ((b11, b12), (b21, b22)) = ab
    (m11, m12), (m21, m22) = m
    n11, n12, n21, n22 = m11.conjugate(), m12.conjugate(), m21.conjugate(), m22.conjugate()
    return (
        (a11 * m11 + a12 * m21, a11 * m12 + a12 * m22),
        (a21 * m11 + a22 * m21, a21 * m12 + a22 * m22),
    ), (
        (b11 * n11 + b12 * n21, b11 * n12 + b12 * n22),
        (b21 * n11 + b22 * n21, b21 * n12 + b22 * n22),
    )


def limit(
    cfg: ClcConfig, theta: float, ref1: complex, ref2: complex
) -> tuple[complex, complex, Derivative]:
    """Limiter output (network frame) for the two channel references, and its derivative.

    The saturation law of `cfg` at angle theta, without a loop
    (`saturation_law`), at one pair of references.
    """
    return saturation_law(cfg, theta)(ref1, ref2)


def saturation_law(cfg: ClcConfig, theta: float, loop: Loop | None = None) -> Law:
    """One case's saturation limiter, its constants bound: law(i1, i2) -> (out1, out2, derivative).

    circular: one real factor shrinks both channels so that no phase
    exceeds i_lim; the largest phase sets it. priority: each channel is
    first clamped in its own synchronous frame at angle theta, d to i_lim
    and q to the headroom d leaves, then shrunk as circular.
    instantaneous: each phase reference is scaled by its own describing
    function and projected back onto the positive/negative pair; the
    zero-sequence residue this leaves has no path in a three-wire
    converter and is discarded.

    Without a loop, (i1, i2) are the two channel references. With
    loop = (k_pv, e_ref1, port), port the six numbers (v1_oc, v2_oc, z11,
    z12, z21, z22) of a terminal port, they are the currents injected
    there: the law reads the port voltages v = v_oc + Z_port @ i and limits
    the proportional loop's reference ref = i + k_pv * ((e_ref1, 0) - v).

    derivative() gives (A, B), the derivative of the smooth piece the
    limiter took here: d out = A @ d ref + B @ conj(d ref). It is built,
    only when called, from the phases, clamps, clipper gains and rescale
    of this call. With a loop, ref = c + M @ i is affine in the currents,
    M = I - k_pv * Z_port, and derivative() gives the law's own pair in
    them, (A @ M, B @ conj(M)).

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

    Every constant of the case (the frame turn exp(-j theta), i_lim^2, M)
    is computed here, once; each evaluation is the arithmetic of one law
    on one pair of inputs.
    """
    kind = cfg.kind
    if kind not in _SATURATION:
        raise ValueError(f"{kind.value} has no reference saturation stage")
    priority, clipping = kind is _PRIORITY, kind is _INSTANTANEOUS
    i_lim, clip = cfg.i_lim, cfg.clip_level
    if priority:
        rot = cmath.exp(-1j * theta)
        i_lim2 = i_lim**2
        # channel 1 is clamped at ref1 * rot, channel 2 at ref2 / rot; the
        # frame turn u leaves a on dref and puts conj(u) / u on b
        turn1 = rot.conjugate() ** 2
    if loop is not None:
        k_pv, e_ref1, (v1_oc, v2_oc, z11, z12, z21, z22) = loop
        m = ((1.0 - k_pv * z11, -k_pv * z12), (-k_pv * z21, 1.0 - k_pv * z22))

    def law(i1: complex, i2: complex) -> tuple[complex, complex, Derivative]:
        if loop is None:
            c1, c2 = i1, i2
        else:
            v1 = v1_oc + z11 * i1 + z12 * i2
            v2 = v2_oc + z21 * i1 + z22 * i2
            c1, c2 = k_pv * (e_ref1 - v1) + i1, k_pv * (0.0 - v2) + i2
        if priority:
            dq1, side_d1, side_q1 = _priority_clamp(c1 * rot, i_lim, i_lim2)
            dq2, side_d2, side_q2 = _priority_clamp(c2 / rot, i_lim, i_lim2)
            c1, c2 = dq1 / rot, dq2 * rot
        pa, pb, pc = c1 + c2, _ALPHA2 * c1 + ALPHA * c2, ALPHA * c1 + _ALPHA2 * c2
        amp_a, amp_b, amp_c = abs(pa), abs(pb), abs(pc)

        if clipping:
            # describing_function is 1.0 up to the clip level
            na = describing_function(amp_a, clip) if amp_a > clip else 1.0
            nb = describing_function(amp_b, clip) if amp_b > clip else 1.0
            nc = describing_function(amp_c, clip) if amp_c > clip else 1.0
            fa, fb, fc = pa * na, pb * nb, pc * nc

            def clipper() -> tuple[Mat2, Mat2]:
                alpha_a, beta_a = _clip_slopes(pa, amp_a, na, clip)
                alpha_b, beta_b = _clip_slopes(pb, amp_b, nb, clip)
                alpha_c, beta_c = _clip_slopes(pc, amp_c, nc, clip)
                a11 = (alpha_a + alpha_b + alpha_c) / 3.0
                b12 = (beta_a + beta_b + beta_c) / 3.0
                ab = (
                    (a11, (alpha_a + _ALPHA2 * alpha_b + ALPHA * alpha_c) / 3.0),
                    ((alpha_a + ALPHA * alpha_b + _ALPHA2 * alpha_c) / 3.0, a11),
                ), (
                    ((beta_a + _ALPHA2 * beta_b + ALPHA * beta_c) / 3.0, b12),
                    (b12, (beta_a + ALPHA * beta_b + _ALPHA2 * beta_c) / 3.0),
                )
                return ab if loop is None else _compose(ab, m)

            return (
                (fa + ALPHA * fb + _ALPHA2 * fc) / 3.0,
                (fa + _ALPHA2 * fb + ALPHA * fc) / 3.0,
                clipper,
            )

        # the peak phase by amps.index(max(amps)): the first of a tie, and a
        # nan phase a is kept
        amp, peak = amp_a, 0
        if amp_b > amp:
            amp, peak = amp_b, 1
        if amp_c > amp:
            amp, peak = amp_c, 2
        binds = amp > i_lim
        scale = i_lim / amp if binds else 1.0

        def derivative() -> tuple[Mat2, Mat2]:
            if priority:
                a1, b1 = _clamp_slopes(dq1, side_d1, side_q1)
                a2, b2 = _clamp_slopes(dq2, side_d2, side_q2)
                b1, b2 = b1 * turn1, b2 * rot * rot
            else:
                a1, a2, b1, b2 = 1.0, 1.0, 0.0, 0.0
            if not binds:
                ab = ((a1, 0j), (0j, a2)), ((b1, 0j), (0j, b2))
                return ab if loop is None else _compose(ab, m)
            t1, t2 = _ROWS[peak]
            p = (pa, pb, pc)[peak]
            amp2 = p.real * p.real + p.imag * p.imag
            s = i_lim / math.sqrt(amp2)
            gp, gq = s * p.conjugate() / (2.0 * amp2), s * p / (2.0 * amp2)
            # ds = -(ka1 dref1 + ka2 dref2 + kb1 conj(dref1) + kb2 conj(dref2))
            ka1 = gp * t1 * a1 + gq * (t1 * b1).conjugate()
            ka2 = gp * t2 * a2 + gq * (t2 * b2).conjugate()
            kb1 = gp * t1 * b1 + gq * (t1 * a1).conjugate()
            kb2 = gp * t2 * b2 + gq * (t2 * a2).conjugate()
            ab = (
                (s * a1 - c1 * ka1, -c1 * ka2),
                (-c2 * ka1, s * a2 - c2 * ka2),
            ), (
                (s * b1 - c1 * kb1, -c1 * kb2),
                (-c2 * kb1, s * b2 - c2 * kb2),
            )
            return ab if loop is None else _compose(ab, m)

        return c1 * scale, c2 * scale, derivative

    return law
