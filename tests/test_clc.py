from __future__ import annotations

import cmath
import math

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
