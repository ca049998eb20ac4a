from __future__ import annotations

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from faultlab.clc import (
    ClcConfig,
    ClcKind,
    clc_adaptive_impedance,
    clc_virtual_admittance,
    describing_function,
    limit,
    max_phase_current,
    phase_components,
    saturation_law,
)
from faultlab.phasors import ALPHA, PhaseTriple, angle_deg, fortescue


def _fundamental_of_clipped_sine(amplitude: float, clip: float) -> float:
    """Numeric Fourier oracle: fundamental of a hard-clipped sinusoid.

    b1 = (2/pi) * integral of clip(A sin t) * sin t over a half period.
    Written independently of the closed form under test.
    """
    t = np.linspace(0.0, math.pi, 200_001)
    wave = np.clip(amplitude * np.sin(t), -clip, clip)
    return float((2.0 / math.pi) * np.trapezoid(wave * np.sin(t), t))


def test_describing_function_against_fourier_oracle() -> None:
    clip = 1.2
    for amplitude in (0.3, 1.0, 1.2, 1.3, 1.8, 2.4, 5.0, 40.0):
        oracle = _fundamental_of_clipped_sine(amplitude, clip)
        model = amplitude * describing_function(amplitude, clip)
        assert model == pytest.approx(oracle, rel=1e-6, abs=1e-9)


def test_describing_function_transparent_below_clip() -> None:
    assert describing_function(0.9, 1.2) == 1.0
    assert describing_function(1.2, 1.2) == 1.0
    assert describing_function(0.0, 1.2) == 1.0
    assert describing_function(-1.0, 1.2) == 1.0


def test_describing_function_frozen_point() -> None:
    # r = 1/2: (2/pi)(asin 1/2 + (1/2)sqrt(3)/2) = 0.6089978
    assert describing_function(2.4, 1.2) == pytest.approx(0.6089978, abs=1e-7)


def test_describing_function_deep_clip_asymptote() -> None:
    clip = 1.2
    amplitude = 1000.0 * clip
    fundamental = amplitude * describing_function(amplitude, clip)
    assert fundamental == pytest.approx(4.0 * clip / math.pi, rel=1e-5)
    # the fundamental the network sees exceeds the physical clip level
    assert fundamental > clip


def test_virtual_admittance_frozen_point() -> None:
    cfg = ClcConfig(kind=ClcKind.VIRTUAL_ADMITTANCE, i_lim=1.2, n_x_r=20.0)
    z = clc_virtual_admittance(cfg, 0.5)
    assert z.imag == pytest.approx(0.4161468, abs=1e-7)
    assert z.real == pytest.approx(0.0208073, abs=1e-7)
    # both adaptive branches active: |Z| = V / I_lim exactly, the cap identity
    assert abs(z) == pytest.approx(0.5 / 1.2, rel=1e-12)


def test_virtual_admittance_nominal_floor() -> None:
    cfg = ClcConfig(kind=ClcKind.VIRTUAL_ADMITTANCE, r_vn=0.01, x_vn=0.05)
    assert clc_virtual_admittance(cfg, 0.0) == complex(0.01, 0.05)
    # small drive keeps the nominal branch of each max
    assert clc_virtual_admittance(cfg, 0.05) == complex(0.01, 0.05)
    with pytest.raises(ValueError):
        clc_virtual_admittance(cfg, -0.1)


def test_adaptive_impedance_piecewise() -> None:
    cfg = ClcConfig(
        kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE, k_x=1.0, i_th=1.2, n_x_r=20.0
    )
    assert clc_adaptive_impedance(cfg, 1.0) == 0j
    assert clc_adaptive_impedance(cfg, 1.2) == 0j
    z = clc_adaptive_impedance(cfg, 1.5)
    assert z.imag == pytest.approx(0.3, rel=1e-12)
    assert z.real == pytest.approx(0.015, rel=1e-12)
    with pytest.raises(ValueError):
        clc_adaptive_impedance(cfg, -0.5)


@pytest.mark.parametrize("n_x_r", [0.1, 1.0, 5.0, 20.0])
def test_adaptive_impedance_angle_is_parameter_forced(n_x_r: float) -> None:
    cfg = ClcConfig(kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE, k_x=10.0, n_x_r=n_x_r)
    for trigger in (1.11, 1.3, 2.0):
        z = clc_adaptive_impedance(cfg, trigger)
        assert angle_deg(z) == pytest.approx(math.degrees(math.atan(n_x_r)), abs=1e-9)


def _one_channel(cfg: ClcConfig, ref: complex) -> tuple[complex, complex]:
    """The limiter on a positive-sequence reference alone: (output, sigma)."""
    out1, out2, _ = limit(cfg, 0.0, ref, 0j)
    assert abs(out2) < 1e-15
    return out1, out1 / ref


def test_circular_limiter_scaling_and_angle() -> None:
    cfg = ClcConfig(kind=ClcKind.CIRCULAR, i_lim=1.2)
    # unsaturated passthrough
    i_sat, sigma = _one_channel(cfg, 0.5 + 0.5j)
    assert i_sat == 0.5 + 0.5j and sigma == 1.0 + 0j
    # (1, 1) dq shrinks onto the circle at 45 degrees
    i_sat, sigma = _one_channel(cfg, 1.0 + 1.0j)
    assert abs(i_sat) == pytest.approx(1.2, rel=1e-12)
    assert sigma.real == pytest.approx(1.2 / math.sqrt(2.0), rel=1e-12)
    assert sigma.imag == 0.0
    assert angle_deg(i_sat) == pytest.approx(45.0, abs=1e-12)


def test_circular_limiter_preserves_reference_angle() -> None:
    cfg = ClcConfig(kind=ClcKind.CIRCULAR, i_lim=1.2)
    for ref in (3.0 - 1.0j, -2.5 + 0.1j, 1.4j, -5.0 + 0j):
        i_sat, sigma = _one_channel(cfg, ref)
        assert abs(sigma.imag) < 1e-15  # real shrink only
        assert abs(cmath.phase(i_sat) - cmath.phase(ref)) < 1e-12


def test_priority_limiter_clamps_d_first() -> None:
    cfg = ClcConfig(kind=ClcKind.PRIORITY, i_lim=1.2)
    i_sat, sigma = _one_channel(cfg, 1.5 + 0.5j)
    assert i_sat == pytest.approx(1.2 + 0.0j)
    assert sigma == pytest.approx(i_sat / (1.5 + 0.5j))
    # d inside the limit leaves q the remaining headroom
    i_sat, _ = _one_channel(cfg, 0.5 + 1.5j)
    assert i_sat.real == pytest.approx(0.5)
    assert i_sat.imag == pytest.approx(math.sqrt(1.2**2 - 0.25), rel=1e-12)
    # sign symmetric
    i_sat, _ = _one_channel(cfg, -1.5 - 0.5j)
    assert i_sat == pytest.approx(-1.2 + 0.0j)


def test_instantaneous_single_channel_is_describing_function() -> None:
    cfg = ClcConfig(kind=ClcKind.INSTANTANEOUS, clip_level=1.2)
    i_sat, sigma = _one_channel(cfg, 0.8 + 0.3j)
    assert i_sat == pytest.approx(0.8 + 0.3j, rel=1e-15)
    assert sigma == pytest.approx(1.0 + 0j, rel=1e-15)
    ref = 1.5 + 1.0j
    i_sat, sigma = _one_channel(cfg, ref)
    scale = describing_function(abs(ref), 1.2)
    assert i_sat == pytest.approx(ref * scale)
    assert sigma == pytest.approx(complex(scale))


def test_saturate_reference_rejects_shaping_kinds() -> None:
    for kind in (ClcKind.VIRTUAL_ADMITTANCE, ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE):
        with pytest.raises(ValueError, match="no reference saturation stage"):
            limit(ClcConfig(kind=kind), 0.0, 1.0 + 0j, 0j)


def test_max_phase_current_combined_sequences() -> None:
    # i1 = 1, i2 = 0.5: phase a carries 1.5, phases b and c carry
    # |alpha^2 + 0.5 alpha| = sqrt(0.75^2 + 0.433^2) = 0.866
    assert max_phase_current(1.0 + 0j, 0.5 + 0j) == pytest.approx(1.5, rel=1e-12)
    assert max_phase_current(1.0 + 0j, 0j) == pytest.approx(1.0)
    assert max_phase_current(0j, 0j) == 0.0
    # rotating both channels together only relabels the phases
    rot = cmath.exp(0.7j)
    assert max_phase_current(1.0 * rot, 0.5 * rot) == pytest.approx(
        max_phase_current(1.0 + 0j, 0.5 + 0j), rel=1e-9
    )


def test_instantaneous_two_channel_balanced_reduces_to_single() -> None:
    cfg = ClcConfig(kind=ClcKind.INSTANTANEOUS, clip_level=1.2)
    i1 = 2.0 * cmath.exp(-0.4j)
    out1, out2, _ = limit(cfg, 0.0, i1, 0j)
    assert out1 == pytest.approx(i1 * describing_function(2.0, 1.2), rel=1e-12)
    assert abs(out2) < 1e-15


def test_instantaneous_two_channel_drops_zero_sequence_residue() -> None:
    cfg = ClcConfig(kind=ClcKind.INSTANTANEOUS, clip_level=1.2)
    i1, i2 = 1.6 + 0.2j, 0.7 - 0.5j
    out1, out2, _ = limit(cfg, 0.0, i1, i2)

    # independent reconstruction: clip each phase reference by its own
    # describing function, then analyze
    phases = PhaseTriple(
        a=i1 + i2,
        b=ALPHA * ALPHA * i1 + ALPHA * i2,
        c=ALPHA * i1 + ALPHA * ALPHA * i2,
    )
    clipped = PhaseTriple(
        a=phases.a * describing_function(abs(phases.a), 1.2),
        b=phases.b * describing_function(abs(phases.b), 1.2),
        c=phases.c * describing_function(abs(phases.c), 1.2),
    )
    seq = fortescue(clipped)
    assert out1 == pytest.approx(seq.pos, rel=1e-12)
    assert out2 == pytest.approx(seq.neg, rel=1e-12)
    # the per-phase scaling really does create a common-mode residue,
    # so the projection is a discard, not a no-op
    assert abs(seq.zero) > 1e-3


@pytest.mark.parametrize("kind", ["circular", "priority"])
def test_derivative_at_a_rescale_tie_is_one_sides_limit(kind: str) -> None:
    # ref2 = 0.1 e^{j psi} next to ref1 = 2: the phase amplitudes are about
    # 2 + 0.1 cos(psi), 2 + 0.1 cos(psi - 120 deg), 2 + 0.1 cos(psi + 120 deg),
    # so phases a and c tie at psi = -60 deg and set the rescale on either
    # side of it; both channels stay inside the priority clamps (d = 2 is
    # clamped at every psi alike)
    cfg = ClcConfig(kind=ClcKind(kind), i_lim=1.2)

    def derivative(psi_deg: float) -> list[complex]:
        pair = limit(cfg, 0.0, 2.0 + 0j, cmath.rect(0.1, math.radians(psi_deg)))[2]()
        return [v for m in pair for row in m for v in row]

    tie = derivative(-60.0)
    scale = max(abs(v) for v in tie)
    errors = []
    for side in (-1.0, 1.0):
        # the one-sided limit, extrapolated to the tie by a quadratic through
        # the derivatives 0.5, 1 and 1.5 deg off it
        d1, d2, d3 = (derivative(-60.0 + side * 0.5 * k) for k in (1, 2, 3))
        limit_at_tie = [3.0 * a - 3.0 * b + c for a, b, c in zip(d1, d2, d3)]
        errors.append(max(abs(a - b) for a, b in zip(tie, limit_at_tie)) / scale)
    # the tie takes one side's piece, and the two pieces differ there
    assert min(errors) <= 1e-6 and max(errors) > 0.5, errors


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        ClcConfig(i_lim=0.0)
    with pytest.raises(ValueError):
        ClcConfig(n_x_r=-1.0)
    with pytest.raises(ValueError):
        ClcConfig(r_vn=-0.01)


def test_kind_family_split() -> None:
    assert ClcKind.CIRCULAR.is_saturation
    assert ClcKind.PRIORITY.is_saturation
    assert ClcKind.INSTANTANEOUS.is_saturation
    assert not ClcKind.VIRTUAL_ADMITTANCE.is_saturation
    assert not ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE.is_saturation


# The saturation limiter's arithmetic as written before each case bound its
# constants, kept here as the reference the per-case law must equal bit for
# bit: the same operations in the same order, on the same types.
_REF_ALPHA2 = ALPHA * ALPHA
_REF_ROWS = ((1.0, 1.0), (_REF_ALPHA2, ALPHA), (ALPHA, _REF_ALPHA2))


def _ref_describing_function(amplitude: float, clip_level: float) -> float:
    if amplitude <= 0.0:
        return 1.0
    r = min(1.0, clip_level / amplitude)
    return (2.0 / math.pi) * (math.asin(r) + r * math.sqrt(1.0 - r * r))


def _ref_clamp(value: float, bound: float) -> tuple[float, int]:
    side = (value > bound) - (value < -bound)
    return (value if side == 0 else side * bound), side


def _ref_priority_clamp(cfg: ClcConfig, ref_dq: complex) -> tuple[complex, tuple[int, int]]:
    d, side_d = _ref_clamp(ref_dq.real, cfg.i_lim)
    q, side_q = _ref_clamp(ref_dq.imag, math.sqrt(max(0.0, cfg.i_lim**2 - d * d)))
    return complex(d, q), (side_d, side_q)


def _ref_limit(cfg: ClcConfig, theta: float, ref1: complex, ref2: complex) -> tuple:
    kind = cfg.kind
    if kind is ClcKind.INSTANTANEOUS:
        clip = cfg.clip_level
        phases = pa, pb, pc = (
            ref1 + ref2, _REF_ALPHA2 * ref1 + ALPHA * ref2, ALPHA * ref1 + _REF_ALPHA2 * ref2
        )
        amps = abs(pa), abs(pb), abs(pc)
        gains = na, nb, nc = [_ref_describing_function(amp, clip) for amp in amps]
        fa, fb, fc = pa * na, pb * nb, pc * nc

        def clipper() -> tuple:
            slopes = []
            for p, amp, n in zip(phases, amps, gains):
                if amp <= clip:
                    slopes.append((1.0, 0j))
                    continue
                r = clip / amp
                half_slope = -(2.0 / math.pi) * (r / amp) * math.sqrt(1.0 - r * r)
                slopes.append((n + half_slope * amp, half_slope * p * p / amp))
            (alpha_a, beta_a), (alpha_b, beta_b), (alpha_c, beta_c) = slopes
            a11 = (alpha_a + alpha_b + alpha_c) / 3.0
            b12 = (beta_a + beta_b + beta_c) / 3.0
            return (
                (a11, (alpha_a + _REF_ALPHA2 * alpha_b + ALPHA * alpha_c) / 3.0),
                ((alpha_a + ALPHA * alpha_b + _REF_ALPHA2 * alpha_c) / 3.0, a11),
            ), (
                ((beta_a + _REF_ALPHA2 * beta_b + ALPHA * beta_c) / 3.0, b12),
                (b12, (beta_a + ALPHA * beta_b + _REF_ALPHA2 * beta_c) / 3.0),
            )

        return (
            (fa + ALPHA * fb + _REF_ALPHA2 * fc) / 3.0,
            (fa + _REF_ALPHA2 * fb + ALPHA * fc) / 3.0,
            clipper,
        )
    if kind is ClcKind.PRIORITY:
        rot = cmath.exp(-1j * theta)
        dq1, sides1 = _ref_priority_clamp(cfg, ref1 * rot)
        dq2, sides2 = _ref_priority_clamp(cfg, ref2 / rot)
        c1, c2 = dq1 / rot, dq2 * rot
    else:
        c1, c2 = ref1, ref2
    phases = (c1 + c2, _REF_ALPHA2 * c1 + ALPHA * c2, ALPHA * c1 + _REF_ALPHA2 * c2)
    amps = [abs(p) for p in phases]
    peak = amps.index(max(amps))
    binds = amps[peak] > cfg.i_lim
    scale = cfg.i_lim / amps[peak] if binds else 1.0

    def derivative() -> tuple:
        if kind is ClcKind.PRIORITY:
            slopes = []
            for dq, (side_d, side_q) in ((dq1, sides1), (dq2, sides2)):
                keep_d, keep_q = float(side_d == 0), float(side_q == 0)
                tilt = 0.0
                if side_d == 0 and side_q != 0 and dq.imag != 0.0:
                    tilt = -dq.real / dq.imag
                slopes.append(
                    (complex(keep_d + keep_q, tilt) / 2.0, complex(keep_d - keep_q, tilt) / 2.0)
                )
            (a1, b1), (a2, b2) = slopes
            b1, b2 = b1 * rot.conjugate() ** 2, b2 * rot * rot
        else:
            a1, a2, b1, b2 = 1.0, 1.0, 0.0, 0.0
        if not binds:
            return ((a1, 0j), (0j, a2)), ((b1, 0j), (0j, b2))
        t1, t2 = _REF_ROWS[peak]
        p = phases[peak]
        amp2 = p.real * p.real + p.imag * p.imag
        s = cfg.i_lim / math.sqrt(amp2)
        gp, gq = s * p.conjugate() / (2.0 * amp2), s * p / (2.0 * amp2)
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


def _ref_compose(ab: tuple, m: tuple) -> tuple:
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


def _ref_law(cfg: ClcConfig, theta: float, loop: tuple, i1: complex, i2: complex) -> tuple:
    """The law on the port as the fixed point read it: the port voltages, the
    proportional loop's references, the limiter, its derivative after M."""
    k_pv, e_ref1, (v1_oc, v2_oc, z11, z12, z21, z22) = loop
    m = ((1.0 - k_pv * z11, -k_pv * z12), (-k_pv * z21, 1.0 - k_pv * z22))
    v1, v2 = v1_oc + z11 * i1 + z12 * i2, v2_oc + z21 * i1 + z22 * i2
    ref1, ref2 = k_pv * (e_ref1 - v1) + i1, k_pv * (0.0 - v2) + i2
    out1, out2, derivative = _ref_limit(cfg, theta, ref1, ref2)
    return out1, out2, lambda: _ref_compose(derivative(), m)


def _outcome(call) -> tuple[str, str]:
    """repr of the outputs and of the derivative's (A, B), or what each raised."""
    try:
        out1, out2, derivative = call()
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, ""
    try:
        pair = repr(derivative())
    except (ZeroDivisionError, OverflowError) as exc:
        pair = type(exc).__name__
    return repr((out1, out2)), pair


def _edge_refs(i_lim: float, clip: float) -> list[tuple[complex, complex]]:
    """Reference pairs at theta = 0 on the limiter's edges, each in either channel."""
    nan, inf = math.nan, math.inf
    below, above = math.nextafter(i_lim, 0.0), math.nextafter(i_lim, inf)
    one_channel = [
        # each d/q clamp side: d above, below, within; q above, below, within
        complex(1.5 * i_lim, 0.2), complex(-1.5 * i_lim, 0.2), complex(0.4 * i_lim, 0.2),
        complex(0.4 * i_lim, 1.5 * i_lim), complex(0.4 * i_lim, -1.5 * i_lim),
        # zero q headroom: d at the limit, or clamped to it, with q of either sign or zero
        complex(i_lim, 0.5), complex(i_lim, -0.5), complex(-i_lim, 0.0), complex(i_lim, -0.0),
        complex(1.1 * i_lim, 0.5), complex(-1.1 * i_lim, -0.5),
        # just below and just above the limit and the clip level
        complex(below, 0.0), complex(above, 0.0), complex(0.0, below), complex(0.0, above),
        complex(math.nextafter(clip, 0.0), 0.0), complex(math.nextafter(clip, inf), 0.0),
        # signed zeros and non-finite parts
        0j, complex(-0.0, -0.0), complex(nan, 0.0), complex(0.0, nan), complex(inf, 0.0),
        complex(-inf, 1.0), complex(1.0, inf),
    ]
    pairs = [(r, 0j) for r in one_channel] + [(0j, r) for r in one_channel]
    # amplitudes that tie: the two channels at equal and at opposite references
    pairs += [(complex(inf, 0.0), complex(-inf, 0.0)), (complex(nan, nan), 1.0 + 0j)]
    pairs += [(r, r) for r in one_channel[:6]] + [(r, -r) for r in one_channel[:6]]
    pairs += [(r, r.conjugate()) for r in one_channel[:6]]
    return pairs


def _tie_refs(i_lim: float) -> list[tuple[complex, complex]]:
    """Pairs of small binary fractions whose two largest phase amplitudes tie exactly."""
    parts = [k / 4.0 * i_lim for k in range(-4, 5)]
    ties = []
    for re1, im1, re2 in itertools.product(parts, parts, parts):
        for im2 in (0.0, im1, -im1):
            r1, r2 = complex(re1, im1), complex(re2, im2)
            amps = sorted(abs(p) for p in phase_components(r1, r2))
            if amps[2] == amps[1] and amps[2] > 0.0:
                ties.append((r1, r2))
    return ties


@pytest.mark.parametrize("kind", ["circular", "priority", "instantaneous"])
def test_saturation_law_equals_the_reference_limiter_bit_for_bit(kind: str) -> None:
    """The per-case law, with and without its loop, against the reference
    copy above: the repr of its outputs and of its derivative, or the
    exception each raises, on seeded references and on the limiter's edges."""
    rng = random.Random(40)
    cases = []
    sides, headroom, tied = set(), 0, 0
    for i_lim, clip in ((1.2, 1.2), (0.9, 1.5)):
        cfg = ClcConfig(kind=ClcKind(kind), i_lim=i_lim, clip_level=clip)
        edges, ties = _edge_refs(i_lim, clip), _tie_refs(i_lim)
        tied += len(ties)
        cases += [(cfg, 0.0, refs) for refs in edges + ties]
        for ref in (r for refs in edges for r in refs):
            dq, side = _ref_priority_clamp(cfg, ref)
            sides.add(side)
            headroom += side[0] != 0 and side[1] != 0 and dq.imag == 0.0
        for _ in range(300):
            theta = rng.uniform(-math.pi, math.pi)
            refs = tuple(
                cmath.rect(rng.uniform(0.0, r_max), rng.uniform(-math.pi, math.pi))
                for r_max in (3.0 * i_lim, 1.5 * i_lim)
            )
            cases.append((cfg, theta, refs))
    # the edges reach every clamp side and a clamp with no q headroom left
    assert sides >= {(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0), (1, 1), (-1, -1)}
    assert headroom and tied >= 20
    # the zero port with unit gain passes the currents through as the references
    loops = [(1.0, 0j, (0j,) * 6)]
    for _ in range(3):
        parts = [complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(7)]
        loops.append((rng.uniform(0.5, 4.0), parts[0], tuple(parts[1:])))
    for cfg, theta, (r1, r2) in cases:
        mine = _outcome(lambda: limit(cfg, theta, r1, r2))
        assert mine == _outcome(lambda: _ref_limit(cfg, theta, r1, r2)), (cfg, theta, r1, r2)
        for loop in loops:
            law = saturation_law(cfg, theta, loop)
            mine = _outcome(lambda: law(r1, r2))
            assert mine == _outcome(lambda: _ref_law(cfg, theta, loop, r1, r2)), (loop, r1, r2)
