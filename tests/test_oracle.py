from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import pytest

from faultlab import abc_oracle, harness, network
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
    _W,
    _zero_floating_nodes,
    solve_abc,
)
from faultlab.cli import main as cli_main
from faultlab.harness import run_scenario, solve_scenario
from faultlab.network import (
    GROUND,
    FaultSpec,
    FaultType,
    InjectionElement,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SingularNetworkError,
    SourceElement,
    factor_dense,
    solve_fault,
    solve_linear,
)
from faultlab.phasors import fortescue, from_polar
from faultlab.presets import PRESETS, preset_scenario_overrides
from faultlab.scenario import _clear_memos, build_scenario


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


def _thevenin_probe_abc(net: NetworkModel, seq: int) -> complex:
    """Driving-point sequence impedance at the fault node.

    Unit current set of the requested sequence injected with all sources
    dead; the fault node's same-sequence voltage component is the impedance.
    Computed wholly in phase coordinates as a cross-check of the
    sequence-side Thevenin reduction.
    """
    sol = solve_abc(net, spec=None, zero_sources=True, probe=(net.fault_node, seq))
    v = sol.voltage(net.fault_node)
    return {
        0: (v.a + v.b + v.c) / 3.0,
        1: (v.a + _W * v.b + _W**2 * v.c) / 3.0,
        2: (v.a + _W**2 * v.b + _W * v.c) / 3.0,
    }[seq]


@pytest.mark.parametrize("make_net", [_sg_net, _gfm_net])
def test_driving_point_probe_matches_sequence_thevenin(make_net) -> None:
    net = make_net()
    th = solve_fault(net, FaultSpec()).thevenin
    for seq, expected in ((1, th.z1), (2, th.z2), (0, th.z0)):
        probed = _thevenin_probe_abc(net, seq)
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

    def capture(a):
        solved.append([row[:] for row in a])
        return factor_dense(a)

    monkeypatch.setattr(abc_oracle, "factor_dense", capture)
    for name in sorted(PRESETS):
        _clear_memos()  # so that every preset's matrix is assembled
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


def _counting_factor(monkeypatch) -> list[int]:
    """Count the oracle's factorizations, each by its number of unknowns."""
    factored: list[int] = []

    def counting(a):
        factored.append(len(a))
        return factor_dense(a)

    monkeypatch.setattr(abc_oracle, "factor_dense", counting)
    return factored


def _oracle_run(scenario, monkeypatch) -> tuple[str, str]:
    """repr of a run's oracle_max_err and of the v_phase of the oracle solve it made."""
    solutions = []

    def capture(*args, **kwargs):
        solutions.append(solve_abc(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(harness, "solve_abc", capture)
    report = run_scenario(scenario, oracle_check=True)
    monkeypatch.setattr(harness, "solve_abc", solve_abc)
    (abc,) = solutions
    return repr(report.oracle_max_err), repr(abc.v_phase)


def test_every_preset_checks_to_its_cold_bits_with_the_oracle_systems_held(monkeypatch) -> None:
    """Each preset's oracle solve, cold, makes one factorization and gives
    the bits of the frozen source appended to the network. Run again in
    reverse order with every memo held, twice, the presets give their cold
    bits, and the second time factor nothing."""
    factored = _counting_factor(monkeypatch)
    names = sorted(PRESETS)
    cold = {}
    for name in names:
        _clear_memos()
        scenario = build_scenario(preset_scenario_overrides(name))
        cold[name] = _oracle_run(scenario, monkeypatch)
        assert len(factored) == 1, name
        _, sol = solve_scenario(scenario)
        appended = solve_abc(scenario.net.with_elements(sol.frozen), scenario.fault)
        assert repr(appended.v_phase) == cold[name][1], name
        factored.clear()
    _clear_memos()
    for held in (False, True):
        factored.clear()
        for name in reversed(names):
            warm = _oracle_run(build_scenario(preset_scenario_overrides(name)), monkeypatch)
            assert warm == cold[name], (name, held)
        assert bool(factored) is not held


def test_a_warm_oracle_check_from_the_cli_factors_nothing(monkeypatch, capsys) -> None:
    factored = _counting_factor(monkeypatch)
    argv = ["replicate", "--preset", "fig13a", "--oracle-check"]
    _clear_memos()
    assert cli_main(argv) == 0
    cold = capsys.readouterr().out
    assert len(factored) == 1
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == cold
    assert len(factored) == 1


def test_two_converter_cases_on_one_network_and_fault_share_one_factorization(
    monkeypatch,
) -> None:
    """p_ref moves only the dispatch and the frozen currents, so the two
    cases' oracle solves share one network object, fault and factorization,
    and each gives the bits of its own cold solve."""
    factored = _counting_factor(monkeypatch)
    configs = [
        {"source.kind": "gfm", "clc.kind": "circular", "fault.kind": "bcg", "fault.m": 0.5,
         "source.p_ref": p_ref}
        for p_ref in (0.0, 1.0)
    ]
    cold = []
    for config in configs:
        _clear_memos()
        cold.append(_oracle_run(build_scenario(config), monkeypatch))
    factored.clear()
    _clear_memos()
    scenarios = [build_scenario(config) for config in configs]
    assert scenarios[0].net is scenarios[1].net and scenarios[0].fault == scenarios[1].fault
    warm = [_oracle_run(scenario, monkeypatch) for scenario in scenarios]
    assert len(factored) == 1
    assert warm == cold and cold[0] != cold[1]


def test_a_singular_oracle_system_stores_nothing_and_raises_on_every_solve(monkeypatch) -> None:
    # an injection alone at a node: only its zero mode is tied, so the
    # positive and negative rows are zero
    net = NetworkModel(elements=(InjectionElement("inj", "s", 1.0 + 0j, 0j),))
    factored = _counting_factor(monkeypatch)
    for calls in (1, 2):
        with pytest.raises(SingularNetworkError):
            solve_abc(net)
        assert len(factored) == calls
    assert not any(key[0] == id(net) for key in network._SHARED)


def test_injections_are_current_sources_at_nodes_of_the_network() -> None:
    net = _gfm_net()
    inj = InjectionElement("extra", "poc", from_polar(0.3, 10.0), 0j)
    appended = solve_abc(net.with_elements(inj), FaultSpec(fault_type=FaultType.AG, m=0.5))
    injected = solve_abc(net, FaultSpec(fault_type=FaultType.AG, m=0.5), injections=(inj,))
    assert repr(injected.v_phase) == repr(appended.v_phase)
    assert injected.net is net
    with pytest.raises(SingularNetworkError, match="not in the phase network"):
        solve_abc(net, injections=(inj._replace(node="nowhere"),))
