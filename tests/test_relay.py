from __future__ import annotations

import cmath
import math
import random

import pytest

from faultlab.network import BusReading, FaultType
from faultlab.phasors import (
    SequenceTriple,
    angle_between,
    angle_deg,
    from_polar,
    wrap_angle_deg,
)
from faultlab.relay import (
    GROUND_CENTERS,
    LINE_CENTERS,
    Direction,
    DirectionalResult,
    PhaseSelectionResult,
    RelaySettings,
    directional_incremental,
    directional_negative,
    directional_zero,
    phase_select,
)
from faultlab.scenario import DEFAULTS

CFG = RelaySettings()


def _neg_reading(v_angle: float, v_mag: float = 1.0, i_mag: float = 1.0) -> BusReading:
    """Negative-sequence pair with i2 at 0 deg, so the ratio angle is v_angle."""
    return BusReading(
        bus="b",
        v=SequenceTriple(neg=from_polar(v_mag, v_angle)),
        i=SequenceTriple(neg=from_polar(i_mag, 0.0)),
    )


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        RelaySettings(phi_non_deg=29.9)
    with pytest.raises(ValueError):
        RelaySettings(phi_non_deg=60.1)
    with pytest.raises(ValueError):
        RelaySettings(seq_floor_pu=0.0)
    RelaySettings(phi_non_deg=30.0)
    RelaySettings(phi_non_deg=60.0)
    with pytest.raises(ValueError):
        RelaySettings(dd21_half_deg=0.0)
    with pytest.raises(ValueError):
        RelaySettings(dd21_half_deg=30.5)
    with pytest.raises(ValueError):
        RelaySettings(d20_half_deg=61.0)
    with pytest.raises(ValueError):
        RelaySettings(asym_floor_pu=0.0)
    with pytest.raises(ValueError):
        RelaySettings(seq_floor_pu=-0.1)


def test_settings_are_the_relay_keys_in_config_order() -> None:
    keys = [key for key in DEFAULTS if key.startswith("relay.")]
    assert [f"relay.{field}" for field in RelaySettings._fields] == keys
    assert RelaySettings() == tuple(DEFAULTS[key][0] for key in keys)


@pytest.mark.parametrize(
    "angle, want",
    [
        (-90.0, Direction.FORWARD),
        (-45.0, Direction.FORWARD),  # boundary belongs to the zone
        (-135.0, Direction.FORWARD),
        (-44.9, Direction.INDETERMINATE),
        (-135.1, Direction.INDETERMINATE),
        (90.0, Direction.REVERSE),
        (45.0, Direction.REVERSE),
        (135.0, Direction.REVERSE),
        (0.0, Direction.INDETERMINATE),
        (180.0, Direction.INDETERMINATE),
        (44.9, Direction.INDETERMINATE),
    ],
)
def test_directional_zones(angle: float, want: Direction) -> None:
    result = directional_negative(_neg_reading(angle), CFG)
    assert result.direction is want
    assert result.angle_deg == pytest.approx(angle, abs=1e-9)
    assert result.element == "neg"


def test_polarity_reversal_mirrors_the_verdict() -> None:
    flip = {
        Direction.FORWARD: Direction.REVERSE,
        Direction.REVERSE: Direction.FORWARD,
        Direction.INDETERMINATE: Direction.INDETERMINATE,
    }
    angle = -179.5
    while angle <= 180.0:
        reading = _neg_reading(angle)
        flipped = BusReading(bus="b", v=reading.v, i=reading.i.scaled(-1.0))
        a = directional_negative(reading, CFG).direction
        b = directional_negative(flipped, CFG).direction
        assert b is flip[a], f"angle {angle}"
        angle += 0.5


def test_magnitude_floor_blocks_the_angle() -> None:
    weak_v = _neg_reading(-90.0, v_mag=0.01)
    res = directional_negative(weak_v, CFG)
    assert res.direction is Direction.INDETERMINATE
    assert res.angle_deg is None
    weak_i = _neg_reading(-90.0, i_mag=0.019)
    assert directional_negative(weak_i, CFG).angle_deg is None


def test_zero_sequence_element_reads_the_zero_channel() -> None:
    reading = BusReading(
        bus="b",
        v=SequenceTriple(zero=from_polar(0.4, -92.0)),
        i=SequenceTriple(zero=from_polar(0.6, 0.0)),
    )
    res = directional_zero(reading, CFG)
    assert res.element == "zero"
    assert res.direction is Direction.FORWARD
    assert res.angle_deg == pytest.approx(-92.0, abs=1e-9)


def test_incremental_element_subtracts_the_prefault_state() -> None:
    pre = BusReading(
        bus="b",
        v=SequenceTriple(pos=from_polar(1.0, 0.0)),
        i=SequenceTriple(pos=from_polar(0.5, -10.0)),
    )
    post = BusReading(
        bus="b",
        v=SequenceTriple(pos=pre.v.pos + from_polar(0.2, -90.0)),
        i=SequenceTriple(pos=pre.i.pos + from_polar(0.2, 0.0)),
    )
    res = directional_incremental(post, pre, CFG)
    assert res.element == "inc"
    assert res.angle_deg == pytest.approx(-90.0, abs=1e-9)
    assert res.direction is Direction.FORWARD
    # the raw (unsubtracted) ratio points elsewhere entirely
    raw = directional_negative(
        BusReading(bus="b", v=SequenceTriple(neg=post.v.pos), i=SequenceTriple(neg=post.i.pos)),
        CFG,
    )
    assert abs(raw.angle_deg - res.angle_deg) > 30.0


def _selection_reading(dd21: float, d20: float | None, i0_mag: float = 1.0) -> BusReading:
    """Currents with di1 at 0 deg, i2 at dd21, i0 placed to give d20."""
    i0 = 0j if d20 is None else from_polar(i0_mag, dd21 - d20)
    return BusReading(
        bus="b",
        v=SequenceTriple(),
        i=SequenceTriple(pos=from_polar(1.0, 0.0), neg=from_polar(1.0, dd21), zero=i0),
    )


_PRE = BusReading(bus="b", v=SequenceTriple(), i=SequenceTriple())


@pytest.mark.parametrize("ftype", list(GROUND_CENTERS))
def test_ground_fault_lattice_points_classify(ftype: FaultType) -> None:
    c21, c20 = GROUND_CENTERS[ftype]
    res = phase_select(_selection_reading(c21, c20), _PRE, CFG)
    assert res.selected is ftype
    assert wrap_angle_deg(res.dd21_deg - c21) == pytest.approx(0.0, abs=1e-9)
    assert wrap_angle_deg(res.d20_deg - c20) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("ftype", list(LINE_CENTERS))
def test_line_fault_lattice_points_classify(ftype: FaultType) -> None:
    center = LINE_CENTERS[ftype]
    res = phase_select(_selection_reading(center, None), _PRE, CFG)
    assert res.selected is ftype
    assert res.d20_deg is None
    assert wrap_angle_deg(res.dd21_deg - center) == pytest.approx(0.0, abs=1e-9)


def test_symmetrical_fault_needs_no_angles() -> None:
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=1.0 + 0j, neg=0.01 + 0j)
    )
    res = phase_select(reading, _PRE, CFG)
    assert res.selected is FaultType.ABC
    assert res.dd21_deg is None and res.d20_deg is None


def test_weak_incremental_current_abstains() -> None:
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=0.01 + 0j, neg=1.0 + 0j)
    )
    res = phase_select(reading, _PRE, CFG)
    assert res.selected is None and res.dd21_deg is None


def test_negative_current_under_the_incremental_floor_abstains() -> None:
    # |i2| clears asym_floor_pu but not seq_floor_pu, so dd21 has no angle to read
    cfg = RelaySettings(seq_floor_pu=0.2, asym_floor_pu=0.001)
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=1.0 + 0j, neg=0.1 + 0j, zero=1.0 + 0j)
    )
    res = phase_select(reading, _PRE, cfg)
    assert res == PhaseSelectionResult(None, None, None)


def test_off_lattice_angles_select_nothing() -> None:
    # 30 deg sits exactly between two dd21 centers, outside both bands
    res = phase_select(_selection_reading(30.0, 0.0), _PRE, CFG)
    assert res.selected is None
    assert res.dd21_deg == pytest.approx(30.0, abs=1e-9)
    res = phase_select(_selection_reading(30.0, None), _PRE, CFG)
    assert res.selected is None


def test_selection_is_scale_invariant() -> None:
    lam = from_polar(0.7, 37.0)
    for dd21, d20 in ((0.0, 0.0), (120.0, -120.0), (180.0, 0.0), (60.0, 120.0)):
        reading = _selection_reading(dd21, d20)
        scaled = BusReading(bus="b", v=reading.v.scaled(lam), i=reading.i.scaled(lam))
        pre_scaled = BusReading(bus="b", v=_PRE.v.scaled(lam), i=_PRE.i.scaled(lam))
        a = phase_select(reading, _PRE, CFG)
        b = phase_select(scaled, pre_scaled, CFG)
        assert a.selected is b.selected
        assert b.dd21_deg == pytest.approx(a.dd21_deg, abs=1e-9)
        assert b.d20_deg == pytest.approx(a.d20_deg, abs=1e-9)


def test_alias_pairs_share_d20_and_oppose_in_dd21() -> None:
    pairs = (
        (FaultType.AG, FaultType.BCG),
        (FaultType.BG, FaultType.CAG),
        (FaultType.CG, FaultType.ABG),
    )
    for slg, llg in pairs:
        (c21_a, c20_a), (c21_b, c20_b) = GROUND_CENTERS[slg], GROUND_CENTERS[llg]
        assert wrap_angle_deg(c20_a - c20_b) == pytest.approx(0.0, abs=1e-12)
        assert abs(wrap_angle_deg(c21_a - c21_b)) == pytest.approx(180.0, abs=1e-12)


def test_dd21_bands_do_not_overlap() -> None:
    centers = sorted(wrap_angle_deg(c) for c, _ in GROUND_CENTERS.values())
    gaps = [centers[k + 1] - centers[k] for k in range(len(centers) - 1)]
    gaps.append(360.0 + centers[0] - centers[-1])
    assert min(gaps) > 2.0 * CFG.dd21_half_deg


def test_direction_values_are_the_report_tokens() -> None:
    assert Direction.FORWARD.value == "forward"
    assert Direction.REVERSE.value == "reverse"
    assert Direction.INDETERMINATE.value == "indeterminate"


# The relay elements as they were first written, kept as the reference for
# the elements that take each operand's magnitude and angle once: the
# `angle_between`/`angle_deg` route, a band test per call, and the band
# dicts iterated in their order.


def _reference_classify(
    element: str, v: complex, i: complex, cfg: RelaySettings
) -> DirectionalResult:
    if abs(v) < cfg.seq_floor_pu or abs(i) < cfg.seq_floor_pu:
        return DirectionalResult(element, None, Direction.INDETERMINATE)
    angle = angle_between(v, i, floor=cfg.seq_floor_pu)
    half = 90.0 - cfg.phi_non_deg
    if abs(wrap_angle_deg(angle + 90.0)) <= half:
        verdict = Direction.FORWARD
    elif abs(wrap_angle_deg(angle - 90.0)) <= half:
        verdict = Direction.REVERSE
    else:
        verdict = Direction.INDETERMINATE
    return DirectionalResult(element, angle, verdict)


def _reference_in_band(angle: float, center: float, half: float) -> bool:
    return abs(wrap_angle_deg(angle - center)) <= half


def _reference_phase_select(
    reading: BusReading, prefault: BusReading, cfg: RelaySettings
) -> PhaseSelectionResult:
    i2 = reading.i.neg
    i0 = reading.i.zero
    di1 = reading.i.pos - prefault.i.pos
    if abs(i2) < cfg.asym_floor_pu:
        return PhaseSelectionResult(FaultType.ABC, None, None)
    if abs(di1) < cfg.seq_floor_pu or abs(i2) < cfg.seq_floor_pu:
        return PhaseSelectionResult(None, None, None)
    dd21 = angle_between(i2, di1, floor=cfg.seq_floor_pu)
    if abs(i0) < cfg.asym_floor_pu:
        for ftype, center in LINE_CENTERS.items():
            if _reference_in_band(dd21, center, cfg.dd21_half_deg):
                return PhaseSelectionResult(ftype, dd21, None)
        return PhaseSelectionResult(None, dd21, None)
    d20 = wrap_angle_deg(angle_deg(i2, cfg.asym_floor_pu) - angle_deg(i0, cfg.asym_floor_pu))
    for ftype, (c21, c20) in GROUND_CENTERS.items():
        if _reference_in_band(dd21, c21, cfg.dd21_half_deg) and _reference_in_band(
            d20, c20, cfg.d20_half_deg
        ):
            return PhaseSelectionResult(ftype, dd21, d20)
    return PhaseSelectionResult(None, dd21, d20)


def _assert_elements_match_the_reference(
    reading: BusReading, prefault: BusReading, cfg: RelaySettings
) -> None:
    dv, di = reading.v.pos - prefault.v.pos, reading.i.pos - prefault.i.pos
    pairs = (
        (directional_negative(reading, cfg),
         _reference_classify("neg", reading.v.neg, reading.i.neg, cfg)),
        (directional_zero(reading, cfg),
         _reference_classify("zero", reading.v.zero, reading.i.zero, cfg)),
        (directional_incremental(reading, prefault, cfg),
         _reference_classify("inc", dv, di, cfg)),
        (phase_select(reading, prefault, cfg),
         _reference_phase_select(reading, prefault, cfg)),
    )
    for mine, reference in pairs:
        assert repr(mine) == repr(reference), (reading, prefault, cfg)


# phasors whose angles are edges: the real and imaginary axes with either
# sign of zero, the negative real axis that `cmath.phase` reads as +-pi,
# and signed zeros
_EDGE_PHASORS = (
    complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
    complex(0.0, 1.0), complex(-0.0, -1.0), complex(0.0, 0.0), complex(-0.0, -0.0),
    complex(0.5, -0.5), complex(-0.5, 0.5),
)


def _random_phasor(rng: random.Random) -> complex:
    if rng.random() < 0.15:
        return rng.choice(_EDGE_PHASORS) * rng.choice((1.0, 0.05, 0.02))
    return from_polar(10.0 ** rng.uniform(-2.5, 0.5), rng.uniform(-180.0, 180.0))


def _random_triple(rng: random.Random) -> SequenceTriple:
    return SequenceTriple(*(_random_phasor(rng) for _ in range(3)))


def _random_settings(rng: random.Random) -> RelaySettings:
    """Settings over their valid ranges."""
    return RelaySettings(
        rng.uniform(30.0, 60.0),
        10.0 ** rng.uniform(-2.5, -0.5),
        10.0 ** rng.uniform(-2.5, -0.5),
        rng.uniform(1.0, 30.0),
        rng.uniform(1.0, 60.0),
    )


def test_elements_equal_the_reference_on_seeded_readings() -> None:
    rng = random.Random(36)
    for _ in range(4000):
        cfg = _random_settings(rng) if rng.random() < 0.8 else CFG
        reading = BusReading("b", _random_triple(rng), _random_triple(rng))
        prefault = BusReading("b", _random_triple(rng), _random_triple(rng))
        if rng.random() < 0.3:
            prefault = _PRE
        _assert_elements_match_the_reference(reading, prefault, cfg)


def test_elements_equal_the_reference_with_an_operand_exactly_at_its_floor() -> None:
    rng = random.Random(360)
    for _ in range(500):
        reading = BusReading("b", _random_triple(rng), _random_triple(rng))
        prefault = BusReading("b", _random_triple(rng), _random_triple(rng))
        dv, di = reading.v.pos - prefault.v.pos, reading.i.pos - prefault.i.pos
        i2, i0 = reading.i.neg, reading.i.zero
        for operand in (reading.v.neg, reading.i.neg, reading.v.zero, reading.i.zero, dv, di):
            if operand:
                cfg = RelaySettings(rng.uniform(30.0, 60.0), abs(operand))
                _assert_elements_match_the_reference(reading, prefault, cfg)
        # each floor of the selection at each current it guards, the
        # other below or above it
        for seq, asym in (
            (0.5 * abs(di), abs(i2)),
            (0.5 * abs(di), abs(i0)),
            (2.0 * abs(di), abs(i0)),
            (abs(di), 0.5 * abs(i2)),
            (abs(i2), 0.5 * abs(i0)),
            (abs(di), abs(i2)),
        ):
            if min(seq, asym) > 0.0:
                cfg = RelaySettings(45.0, seq, asym)
                _assert_elements_match_the_reference(reading, prefault, cfg)


def _phi_non_at_edge(angle: float, offset: float) -> float | None:
    """A phi_non in [30, 60] with |wrap(angle + offset)| == 90 - phi_non exactly, if any."""
    target = abs(wrap_angle_deg(angle + offset))
    lo = hi = 90.0 - target
    for _ in range(8):
        for phi in (lo, hi):
            if 90.0 - phi == target and 30.0 <= phi <= 60.0:
                return phi
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return None


def test_elements_equal_the_reference_on_every_band_edge() -> None:
    rng = random.Random(3600)
    pre = BusReading("b", SequenceTriple(pos=0.3 + 0.1j), SequenceTriple(pos=0.2 - 0.1j))
    edges = 0
    for _ in range(400):
        reading = BusReading("b", _random_triple(rng), _random_triple(rng))
        _assert_elements_match_the_reference(reading, pre, CFG)
        # a directional band edge: phi_non set so that the angle of
        # v2/i2 sits exactly on a forward or reverse edge
        if abs(reading.v.neg) >= CFG.seq_floor_pu and abs(reading.i.neg) >= CFG.seq_floor_pu:
            angle = angle_between(reading.v.neg, reading.i.neg, floor=CFG.seq_floor_pu)
            for offset in (90.0, -90.0):
                phi = _phi_non_at_edge(angle, offset)
                if phi is not None:
                    edges += 1
                    cfg = CFG._replace(phi_non_deg=phi)
                    _assert_elements_match_the_reference(reading, pre, cfg)
        # a selection band edge: a half-width equal to the distance of
        # dd21 (d20) from each lattice centre
        i2, di1, i0 = reading.i.neg, reading.i.pos - pre.i.pos, reading.i.zero
        if min(abs(i2), abs(di1)) < CFG.seq_floor_pu or abs(i2) < CFG.asym_floor_pu:
            continue
        dd21 = angle_between(i2, di1)
        for c21 in (*LINE_CENTERS.values(), *(c for c, _ in GROUND_CENTERS.values())):
            half21 = abs(wrap_angle_deg(dd21 - c21))
            if 0.0 < half21 <= 30.0:
                edges += 1
                _assert_elements_match_the_reference(
                    reading, pre, RelaySettings(dd21_half_deg=half21)
                )
        if abs(i0) >= CFG.asym_floor_pu:
            d20 = wrap_angle_deg(angle_deg(i2) - angle_deg(i0))
            for _, c20 in GROUND_CENTERS.values():
                half20 = abs(wrap_angle_deg(d20 - c20))
                if 0.0 < half20 <= 60.0:
                    edges += 1
                    cfg = RelaySettings(dd21_half_deg=30.0, d20_half_deg=half20)
                    _assert_elements_match_the_reference(reading, pre, cfg)
    assert edges > 400


@pytest.mark.parametrize("phi_non", [30.0, 45.0, 60.0])
def test_elements_equal_the_reference_at_exact_angles(phi_non: float) -> None:
    """v2 at exactly +-(90 - phi_non), +-phi_non, +-(180 - phi_non), 0, +-90
    and 180 degrees from i2, where `cmath.phase` reaches them exactly, and
    the negative real axis under both signs of zero."""
    cfg = RelaySettings(phi_non)
    half = 90.0 - phi_non
    targets = {0.0, 90.0, -90.0, 180.0}
    for t in (half, phi_non, 180.0 - phi_non):
        targets |= {t, -t}
    hits = 0
    for target in sorted(targets):
        v = _at_exact_angle(target)
        if v is None:
            continue
        hits += 1
        for i in (complex(1.0, 0.0), complex(1.0, -0.0), complex(2.0, 0.0)):
            reading = BusReading("b", SequenceTriple(neg=v), SequenceTriple(neg=i))
            _assert_elements_match_the_reference(reading, _PRE, cfg)
    assert hits >= 4
    for v in (complex(-1.0, 0.0), complex(-1.0, -0.0)):
        for i in (complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, -0.0), 0.3 - 0.7j):
            reading = BusReading("b", SequenceTriple(neg=v, zero=v), SequenceTriple(neg=i, zero=v))
            _assert_elements_match_the_reference(reading, _PRE, cfg)


def _at_exact_angle(target: float) -> complex | None:
    """A unit phasor whose angle `angle_deg` reads as exactly target, if one is near."""
    x = math.radians(target)
    lo = hi = x
    for _ in range(64):
        for y in (lo, hi):
            z = cmath.rect(1.0, y)
            if angle_deg(z) == target:
                return z
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return None
