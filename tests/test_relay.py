from __future__ import annotations

import pytest

from faultlab.network import BusReading, FaultType
from faultlab.phasors import SequenceTriple, from_polar, wrap_angle_deg
from faultlab.relay import (
    GROUND_CENTERS,
    LINE_CENTERS,
    Direction,
    DirectionalConfig,
    PhaseSelectionConfig,
    PhaseSelectionResult,
    directional_incremental,
    directional_negative,
    directional_zero,
    phase_select,
)

CFG = DirectionalConfig()
SEL = PhaseSelectionConfig()


def _neg_reading(v_angle: float, v_mag: float = 1.0, i_mag: float = 1.0) -> BusReading:
    """Negative-sequence pair with i2 at 0 deg, so the ratio angle is v_angle."""
    return BusReading(
        bus="b",
        v=SequenceTriple(neg=from_polar(v_mag, v_angle)),
        i=SequenceTriple(neg=from_polar(i_mag, 0.0)),
    )


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        DirectionalConfig(phi_non_deg=29.9)
    with pytest.raises(ValueError):
        DirectionalConfig(phi_non_deg=60.1)
    with pytest.raises(ValueError):
        DirectionalConfig(floor=0.0)
    DirectionalConfig(phi_non_deg=30.0)
    DirectionalConfig(phi_non_deg=60.0)
    with pytest.raises(ValueError):
        PhaseSelectionConfig(dd21_half_deg=0.0)
    with pytest.raises(ValueError):
        PhaseSelectionConfig(dd21_half_deg=30.5)
    with pytest.raises(ValueError):
        PhaseSelectionConfig(d20_half_deg=61.0)
    with pytest.raises(ValueError):
        PhaseSelectionConfig(sym_floor=0.0)
    with pytest.raises(ValueError):
        PhaseSelectionConfig(inc_floor=-0.1)


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
    res = phase_select(_selection_reading(c21, c20), _PRE, SEL)
    assert res.selected is ftype
    assert wrap_angle_deg(res.dd21_deg - c21) == pytest.approx(0.0, abs=1e-9)
    assert wrap_angle_deg(res.d20_deg - c20) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("ftype", list(LINE_CENTERS))
def test_line_fault_lattice_points_classify(ftype: FaultType) -> None:
    center = LINE_CENTERS[ftype]
    res = phase_select(_selection_reading(center, None), _PRE, SEL)
    assert res.selected is ftype
    assert res.d20_deg is None
    assert wrap_angle_deg(res.dd21_deg - center) == pytest.approx(0.0, abs=1e-9)


def test_symmetrical_fault_needs_no_angles() -> None:
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=1.0 + 0j, neg=0.01 + 0j)
    )
    res = phase_select(reading, _PRE, SEL)
    assert res.selected is FaultType.ABC
    assert res.dd21_deg is None and res.d20_deg is None


def test_weak_incremental_current_abstains() -> None:
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=0.01 + 0j, neg=1.0 + 0j)
    )
    res = phase_select(reading, _PRE, SEL)
    assert res.selected is None and res.dd21_deg is None


def test_negative_current_under_the_incremental_floor_abstains() -> None:
    # |i2| clears sym_floor but not inc_floor, so dd21 has no angle to read
    cfg = PhaseSelectionConfig(sym_floor=0.001, ground_floor=0.001, inc_floor=0.2)
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=1.0 + 0j, neg=0.1 + 0j, zero=1.0 + 0j)
    )
    res = phase_select(reading, _PRE, cfg)
    assert res == PhaseSelectionResult(None, None, None)


def test_negative_current_between_the_symmetrical_and_ground_floors_reads_d20() -> None:
    # |i2| clears sym_floor but not ground_floor; |i0| clears ground_floor
    cfg = PhaseSelectionConfig(sym_floor=0.01, ground_floor=0.2)
    reading = BusReading(
        bus="b", v=SequenceTriple(), i=SequenceTriple(pos=1.0 + 0j, neg=0.1 + 0j, zero=1.0 + 0j)
    )
    res = phase_select(reading, _PRE, cfg)
    assert res == PhaseSelectionResult(FaultType.AG, 0.0, 0.0)
    assert res == phase_select(reading, _PRE, PhaseSelectionConfig(sym_floor=0.01, ground_floor=0.01))


def test_off_lattice_angles_select_nothing() -> None:
    # 30 deg sits exactly between two dd21 centers, outside both bands
    res = phase_select(_selection_reading(30.0, 0.0), _PRE, SEL)
    assert res.selected is None
    assert res.dd21_deg == pytest.approx(30.0, abs=1e-9)
    res = phase_select(_selection_reading(30.0, None), _PRE, SEL)
    assert res.selected is None


def test_selection_is_scale_invariant() -> None:
    lam = from_polar(0.7, 37.0)
    for dd21, d20 in ((0.0, 0.0), (120.0, -120.0), (180.0, 0.0), (60.0, 120.0)):
        reading = _selection_reading(dd21, d20)
        scaled = BusReading(bus="b", v=reading.v.scaled(lam), i=reading.i.scaled(lam))
        pre_scaled = BusReading(bus="b", v=_PRE.v.scaled(lam), i=_PRE.i.scaled(lam))
        a = phase_select(reading, _PRE, SEL)
        b = phase_select(scaled, pre_scaled, SEL)
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
    assert min(gaps) > 2.0 * SEL.dd21_half_deg


def test_direction_values_are_the_report_tokens() -> None:
    assert Direction.FORWARD.value == "forward"
    assert Direction.REVERSE.value == "reverse"
    assert Direction.INDETERMINATE.value == "indeterminate"
