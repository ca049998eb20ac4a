from __future__ import annotations

import cmath
import math
import random

import pytest

from faultlab.phasors import (
    ALPHA,
    PhaseTriple,
    SequenceTriple,
    ZeroPhasorError,
    angle_between,
    angle_deg,
    fortescue,
    from_polar,
    inverse_fortescue,
    phase_deg,
    wrap_angle_deg,
)


def _close(x: complex, y: complex, tol: float = 1e-12) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _random_triples(n: int) -> list[tuple[complex, complex, complex]]:
    rng = random.Random(20240817)
    out = []
    for _ in range(n):
        out.append(
            tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)
            )
        )
    return out


def test_alpha_is_unit_rotation() -> None:
    assert abs(abs(ALPHA) - 1.0) < 1e-15
    assert abs(angle_deg(ALPHA) - 120.0) < 1e-12
    assert abs(ALPHA**3 - 1.0) < 1e-15
    # 1 + alpha + alpha^2 = 0 keeps the transform columns orthogonal
    assert abs(1.0 + ALPHA + ALPHA * ALPHA) < 1e-15


def test_from_polar_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(200):
        mag = rng.uniform(1e-6, 1e3)
        ang = rng.uniform(-179.999, 180.0)
        x = from_polar(mag, ang)
        assert abs(abs(x) - mag) <= 1e-12 * mag
        assert abs(angle_deg(x) - ang) <= 1e-9


@pytest.mark.parametrize(
    "raw, expected",
    [
        (0.0, 0.0),
        (180.0, 180.0),
        (-180.0, 180.0),
        (340.0, -20.0),
        (-340.0, 20.0),
        (540.0, 180.0),
        (-540.0, 180.0),
        (720.0, 0.0),
        (179.5, 179.5),
        (-179.5, -179.5),
    ],
)
def test_wrap_angle_deg(raw: float, expected: float) -> None:
    got = wrap_angle_deg(raw)
    assert got == pytest.approx(expected, abs=1e-12)
    assert -180.0 < got <= 180.0


def test_angle_deg_floor_raises() -> None:
    with pytest.raises(ZeroPhasorError):
        angle_deg(0j)
    with pytest.raises(ZeroPhasorError):
        angle_deg(1e-10 + 0j)
    # custom floor
    assert angle_deg(1e-10 + 0j, floor=1e-12) == pytest.approx(0.0)


def test_phase_deg_is_angle_deg_without_the_floor_check() -> None:
    rng = random.Random(71)
    edges = [complex(x, y) for x in (1.0, -1.0, 0.0, -0.0) for y in (1.0, -1.0, 0.0, -0.0)]
    points = [from_polar(rng.uniform(1e-3, 10.0), rng.uniform(-180.0, 180.0)) for _ in range(2000)]
    for z in edges + points:
        if abs(z) >= 1e-9:
            assert repr(phase_deg(z)) == repr(angle_deg(z)), z
    # the negative real axis is +180 under either sign of zero
    assert phase_deg(complex(-1.0, -0.0)) == phase_deg(complex(-1.0, 0.0)) == 180.0


def test_angle_between_basic_and_wraparound() -> None:
    assert angle_between(from_polar(1, -92.0), from_polar(1, 0.0)) == pytest.approx(-92.0)
    # 170 - (-170) = 340 wraps to -20
    assert angle_between(from_polar(1, 170.0), from_polar(1, -170.0)) == pytest.approx(-20.0)
    with pytest.raises(ZeroPhasorError):
        angle_between(0j, from_polar(1, 0.0))


def test_angle_between_self_and_antisymmetry() -> None:
    rng = random.Random(11)
    for _ in range(50):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) or 1.0 + 0j
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) or 1j
        assert angle_between(x, x) == 0.0
        fwd = angle_between(x, y)
        rev = angle_between(y, x)
        # antisymmetric except on the +180 boundary, where both sides wrap to +180
        if abs(abs(fwd) - 180.0) > 1e-9:
            assert fwd == pytest.approx(-rev, abs=1e-9)


def test_fortescue_balanced_positive_set() -> None:
    p = PhaseTriple(from_polar(1, 0), from_polar(1, -120), from_polar(1, 120))
    s = fortescue(p)
    assert _close(s.pos, 1.0 + 0j, 1e-12)
    assert abs(s.neg) < 1e-12
    assert abs(s.zero) < 1e-12


def test_fortescue_common_mode_set() -> None:
    p = PhaseTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    s = fortescue(p)
    assert abs(s.pos) < 1e-15
    assert abs(s.neg) < 1e-15
    assert _close(s.zero, 1.0 + 0j, 1e-15)


def test_fortescue_line_line_pattern() -> None:
    # (0, 1@0, 1@180): s1 = (alpha - alpha^2)/3 = j/sqrt(3), s2 its conjugate,
    # zero sum cancels. Frozen from the transform sums evaluated by hand.
    p = PhaseTriple(0j, 1.0 + 0j, -1.0 + 0j)
    s = fortescue(p)
    expected = 1.0 / math.sqrt(3.0)
    assert abs(s.pos) == pytest.approx(expected, abs=1e-12)
    assert angle_deg(s.pos) == pytest.approx(90.0, abs=1e-9)
    assert abs(s.neg) == pytest.approx(expected, abs=1e-12)
    assert angle_deg(s.neg) == pytest.approx(-90.0, abs=1e-9)
    assert abs(s.zero) < 1e-15


def test_inverse_fortescue_unit_sets() -> None:
    p = inverse_fortescue(SequenceTriple(pos=1.0 + 0j))
    assert _close(p.a, 1.0 + 0j) and _close(p.b, from_polar(1, -120)) and _close(
        p.c, from_polar(1, 120)
    )
    p0 = inverse_fortescue(SequenceTriple(zero=1.0 + 0j))
    assert _close(p0.a, 1 + 0j) and _close(p0.b, 1 + 0j) and _close(p0.c, 1 + 0j)


def test_fortescue_round_trips() -> None:
    for a, b, c in _random_triples(100):
        p = PhaseTriple(a, b, c)
        back = inverse_fortescue(fortescue(p))
        assert (back - p).max_abs() < 1e-12
        s = SequenceTriple(a, b, c)
        back_s = fortescue(inverse_fortescue(s))
        assert (back_s - s).max_abs() < 1e-12


def test_fortescue_linearity() -> None:
    lam = 0.7 - 1.3j
    for (a, b, c), (d, e, f) in zip(_random_triples(40), _random_triples(40)[::-1]):
        x = PhaseTriple(a, b, c)
        y = PhaseTriple(d, e, f)
        lhs = fortescue(x + y.scaled(lam))
        rhs = fortescue(x) + fortescue(y).scaled(lam)
        assert (lhs - rhs).max_abs() < 1e-12


def test_triple_arithmetic() -> None:
    s = SequenceTriple(1 + 1j, 2j, -3.0 + 0j)
    t = SequenceTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    assert (s + t).pos == 2 + 1j
    assert (s - t).zero == -4.0 + 0j
    assert s.scaled(2.0).neg == 4j
    assert s.max_abs() == 3.0
    p = PhaseTriple(3 + 4j, 0j, 1j)
    assert p.max_abs() == 5.0
    assert p.scaled(1j).a == cmath.rect(5.0, math.atan2(4, 3) + math.pi / 2)
