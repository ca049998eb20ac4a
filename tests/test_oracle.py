from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import pytest

from faultlab import abc_oracle
from faultlab.abc_oracle import (
    _GROUND_KEY,
    _STAR,
    A_INV,
    A_MATRIX,
    PHASES,
    OracleUnsupportedError,
    _block,
    _fault_stamps,
    _mat_vec,
    _Merge,
    _zero_floating_nodes,
    solve_abc,
    thevenin_probe_abc,
)
from faultlab.harness import solve_scenario
from faultlab.network import (
    GROUND,
    FaultSpec,
    FaultType,
    InjectionElement,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SourceElement,
    solve_dense,
    solve_fault,
    solve_linear,
)
from faultlab.phasors import fortescue, from_polar
from faultlab.presets import PRESETS, preset_scenario_overrides
from faultlab.scenario import build_scenario


def _sg_net() -> NetworkModel:
    base = build_scenario({"source.kind": "sg"})
    src = SourceElement("src", "sgt", e1=from_polar(1.01, 6.0), z1=0.2j, z2=0.2j, z0=0.1j)
    return base.net.with_elements(src)


def _gfm_net() -> NetworkModel:
    base = build_scenario({"source.kind": "gfm"})
    inj = InjectionElement("inj", "poc", i1=from_polar(1.0, -5.0), i2=from_polar(0.2, 40.0))
    return base.net.with_elements(inj)


def test_healthy_network_matches_sequence_solution() -> None:
    net = _sg_net()
    abc = solve_abc(net)
    seq = solve_linear(net)
    for node in net.nodes():
        diff = fortescue(abc.voltage(node)) - seq.voltage(node)
        assert diff.max_abs() < 1e-10
    for tap in net.relay_taps.values():
        _, i_abc = abc.reading(tap)
        assert (fortescue(i_abc) - seq.reading(tap).i).max_abs() < 1e-10


def test_single_line_ground_leaves_healthy_phases_dead() -> None:
    # one radial path forces i1 = i2 = i0 through it, so phases b and c
    # carry currents proportional to 1 + alpha + alpha^2 = 0
    net = NetworkModel(
        elements=(
            SourceElement("src", "s", e1=1.0 + 0j, z1=0.2j, z2=0.2j, z0=0.2j),
            SeriesElement("ln", "s", "f", 0.3j, 0.3j, 0.3j),
        ),
        fault_node="f",
        source_node="s",
        z_base_fault_ohm=1.0,
        relay_taps={"s": RelayTap("s", "ln", +1.0)},
    )
    abc = solve_abc(net, FaultSpec(fault_type=FaultType.AG))
    i = abc.series_current("ln")
    assert abs(i.a) > 0.5
    assert abs(i.b) < 1e-12
    assert abs(i.c) < 1e-12


@pytest.mark.parametrize("make_net", [_sg_net, _gfm_net])
def test_driving_point_probe_matches_sequence_thevenin(make_net) -> None:
    net = make_net()
    th = solve_fault(net, FaultSpec()).thevenin
    for seq, expected in ((1, th.z1), (2, th.z2), (0, th.z0)):
        probed = thevenin_probe_abc(net, seq)
        assert probed == pytest.approx(expected, rel=1e-10)


def test_pinned_source_is_unsupported() -> None:
    net = NetworkModel(
        elements=(SourceElement("src", "s", e1=1.0 + 0j, z1=0j, z2=0j, z0=0j),),
        fault_node="s",
        source_node="s",
        z_base_fault_ohm=1.0,
    )
    with pytest.raises(OracleUnsupportedError):
        solve_abc(net)


def test_unknown_element_kind_is_unsupported() -> None:
    @dataclass(frozen=True)
    class Strange:
        eid: str = "odd"
        node: str = "s"

    net = _sg_net().with_elements(Strange())
    with pytest.raises(OracleUnsupportedError):
        solve_abc(net)


def test_zero_floating_node_is_tied_to_reference() -> None:
    # the converter bus has no zero-sequence path (delta winding on its
    # side of the transformer), so the oracle must pin its zero mode
    net = _gfm_net()
    abc = solve_abc(net, FaultSpec(fault_type=FaultType.AG, m=0.5))
    v0 = fortescue(abc.voltage("poc")).zero
    assert abs(v0) < 1e-9
    # the tie carries no current: phase voltages still satisfy the fault
    v_flt = abc.voltage("flt")
    assert abs(v_flt.a) < 1e-9


def test_grid_source_current_balances_injection() -> None:
    # healthy gfm network: whatever the converter injects must return
    # through the grid source, phase by phase
    net = _gfm_net()
    abc = solve_abc(net)
    grid_seq = fortescue(abc.source_current("grid"))
    assert grid_seq.pos == pytest.approx(-from_polar(1.0, -5.0), abs=1e-9)
    assert grid_seq.neg == pytest.approx(-from_polar(0.2, 40.0), abs=1e-9)
    assert abs(grid_seq.zero) < 1e-9


def _block_by_sum(z1, z2, z0) -> list[list[complex]]:
    """`_block` as `sum` over the modes adds it, open modes as 0j."""
    modes = tuple(0j if z is None else 1.0 / z for z in (z0, z1, z2))
    return [
        [sum(a * m * inv[q] for a, m, inv in zip(row, modes, A_INV)) for q in range(3)]
        for row in A_MATRIX
    ]


def _mat_vec_by_sum(m, v) -> list[complex]:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _impedance(rng: random.Random) -> complex | None:
    """Signed parts, pure and zero ones included, or an open mode."""
    parts = (-2.5, -0.4, -0.0, 0.0, 0.3, 1.7)
    if rng.random() < 0.15:
        return None
    z = complex(rng.choice(parts), rng.choice(parts))
    return z if z != 0 else complex(0.0, -1.0)


def test_unrolled_block_and_mat_vec_equal_the_sum_forms_by_repr() -> None:
    rng = random.Random(17)
    seen_zero_product = False
    for _ in range(400):
        zs = [_impedance(rng) for _ in range(3)]
        blk = _block(*zs)
        assert repr(blk) == repr(_block_by_sum(*zs)), zs
        v = [complex(rng.choice((-1.0, -0.0, 0.0, 2.0)), rng.choice((-0.5, -0.0, 0.0, 1.0)))
             for _ in range(3)]
        for m in (blk, A_MATRIX):
            assert repr(_mat_vec(m, v)) == repr(_mat_vec_by_sum(m, v)), (zs, v)
            seen_zero_product |= any(a * b == 0 for row in m for a, b in zip(row, v))
    assert seen_zero_product
    # open modes, as None or as infinite impedances, whose zero admittances
    # carry signs that only the int 0 start of `sum` clears
    opens = (None, complex(math.inf, 0.0), complex(0.0, -math.inf), complex(-math.inf, math.inf))
    for zs in itertools.product(opens, repeat=3):
        assert repr(_block(*zs)) == repr(_block_by_sum(*zs)), zs


def _amat_by_key(net: NetworkModel, spec: FaultSpec) -> list[list[complex]]:
    """The oracle's matrix as assembled before it stamped by row index: two
    tuple keys and one lookup each for every entry."""
    merge = _Merge()
    r_pu = spec.r_g_ohm / net.z_base_fault_ohm
    stamps = _fault_stamps(spec, net.fault_node, r_pu, merge)
    keys = [(n, p) for n in net.nodes() for p in PHASES]
    if any(other == _STAR for _, other, _ in stamps):
        keys.append(_STAR)
    index: dict = {}
    row_of: dict = {}
    for key in keys:
        root = merge.find(key)
        row_of[key] = None if root == _GROUND_KEY else index.setdefault(root, len(index))
    amat = [[0j] * len(index) for _ in index]

    def add(row, col, val) -> None:
        ri, ci = row_of[row], row_of[col]
        if ri is not None and ci is not None:
            amat[ri][ci] += val

    def stamp_block(nf, nt, blk) -> None:
        for pi, p in enumerate(PHASES):
            for qi, q in enumerate(PHASES):
                y = blk[pi][qi]
                if y == 0:
                    continue
                if nf != GROUND:
                    add((nf, p), (nf, q), y)
                    if nt != GROUND:
                        add((nf, p), (nt, q), -y)
                if nt != GROUND:
                    add((nt, p), (nt, q), y)
                    if nf != GROUND:
                        add((nt, p), (nf, q), -y)

    for elem in net.elements:
        if isinstance(elem, SeriesElement):
            stamp_block(elem.n_from, elem.n_to, _block_by_sum(elem.z1, elem.z2, elem.z0))
        elif isinstance(elem, SourceElement):
            stamp_block(elem.node, GROUND, _block_by_sum(elem.z1, elem.z2, elem.z0))
    for node in _zero_floating_nodes(net, net.nodes(), {net.fault_node}):
        stamp_block(node, GROUND, _block_by_sum(None, None, 1.0))
    for key, other, y in stamps:
        add(key, key, y)
        if other is not None:
            add(other, other, y)
            add(key, other, -y)
            add(other, key, -y)
    return amat


def test_assembled_matrix_of_every_preset_equals_the_per_key_assembly(monkeypatch) -> None:
    solved: list[list[list[complex]]] = []

    def capture(a, b):
        solved.append([row[:] for row in a])
        return solve_dense(a, b)

    monkeypatch.setattr(abc_oracle, "solve_dense", capture)
    for name in sorted(PRESETS):
        scenario = build_scenario(preset_scenario_overrides(name))
        _, sol = solve_scenario(scenario)
        net = scenario.net.with_elements(sol.frozen)
        solve_abc(net, scenario.fault)
        amat = solved.pop()
        reference = _amat_by_key(net, scenario.fault)
        assert len(amat) == len(reference) >= 10, name
        for r, (mine, theirs) in enumerate(zip(amat, reference)):
            for c, (x, y) in enumerate(zip(mine, theirs)):
                assert repr(x) == repr(y), (name, r, c)
