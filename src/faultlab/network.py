"""Sequence-network model and phasor-domain fault solver.

The network is a list of three-sequence elements over named nodes ('gnd' is
the reference). Each element carries its positive-, negative-, and
zero-sequence impedances; `None` means that sequence has no path through the
element (e.g. a delta-wye transformer's series zero-sequence). Because every
solver view, the phase-domain oracle included, is assembled from the same
element list, the two solution routes can only differ through their fault
representations, which is exactly what the equivalence checks exercise.

Fault solving follows the classical decomposition:

1. base solve: the linear network with its sources, no fault current;
2. Thevenin reduction at the fault node (driving-point impedance per
   sequence with sources zeroed, open-circuit voltage from the base solve);
3. boundary conditions for the canonical a-referenced fault of each category,
   then the cyclic phase-shift rule (positive unchanged, negative times
   alpha^k, zero times alpha^2k for a fault reference shifted k phases);
4. back-distribution: each sequence network re-solved with the fault current
   extracted at the fault node, superposed on the base solve.

Sign conventions: relay current is measured from the bus into the monitored
line; fault sequence currents are drawn out of the network into the fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .phasors import ALPHA, SequenceTriple

__all__ = [
    "GROUND",
    "SEQUENCES",
    "SingularNetworkError",
    "FaultCategory",
    "FaultType",
    "Placement",
    "FaultSpec",
    "SeriesElement",
    "SourceElement",
    "InjectionElement",
    "RelayTap",
    "NetworkModel",
    "SequenceSolution",
    "BusReading",
    "TheveninEquivalent",
    "FaultSolution",
    "solve_linear",
    "thevenin_at_fault",
    "solve_fault_boundary",
    "back_distribute",
    "solve_fault",
]

GROUND = "gnd"
SEQUENCES = (1, 2, 0)


class SingularNetworkError(RuntimeError):
    """Raised when a sequence network has no unique solution."""


class FaultCategory(Enum):
    SLG = "single-line-ground"
    LL = "line-line"
    LLG = "double-line-ground"
    SYM = "three-phase"


class FaultType(Enum):
    """Shunt fault types; value strings double as config tokens."""

    AG = "ag"
    BG = "bg"
    CG = "cg"
    AB = "ab"
    BC = "bc"
    CA = "ca"
    ABG = "abg"
    BCG = "bcg"
    CAG = "cag"
    ABC = "abc"

    @property
    def category(self) -> FaultCategory:
        return _FAULT_SHAPE[self][0]

    @property
    def shift(self) -> int:
        """Cyclic phase shift k from the a-referenced canonical fault."""
        return _FAULT_SHAPE[self][1]

    @property
    def phases(self) -> tuple[str, ...]:
        """Phases tied into the fault."""
        return _FAULT_SHAPE[self][2]

    @property
    def grounded(self) -> bool:
        return self.category in (FaultCategory.SLG, FaultCategory.LLG)


# category, shift from canonical fault, faulted phases.
# Canonical (k = 0) faults: ag, bc, bcg, abc. A shift of k relabels the fault
# one phase forward k times (a->b->c), which multiplies the pure-fault
# negative-sequence solution by alpha^k and the zero-sequence by alpha^2k.
_FAULT_SHAPE: dict[FaultType, tuple[FaultCategory, int, tuple[str, ...]]] = {
    FaultType.AG: (FaultCategory.SLG, 0, ("a",)),
    FaultType.BG: (FaultCategory.SLG, 1, ("b",)),
    FaultType.CG: (FaultCategory.SLG, 2, ("c",)),
    FaultType.BC: (FaultCategory.LL, 0, ("b", "c")),
    FaultType.CA: (FaultCategory.LL, 1, ("c", "a")),
    FaultType.AB: (FaultCategory.LL, 2, ("a", "b")),
    FaultType.BCG: (FaultCategory.LLG, 0, ("b", "c")),
    FaultType.CAG: (FaultCategory.LLG, 1, ("c", "a")),
    FaultType.ABG: (FaultCategory.LLG, 2, ("a", "b")),
    FaultType.ABC: (FaultCategory.SYM, 0, ("a", "b", "c")),
}


class Placement(Enum):
    FORWARD = "forward"  # on the monitored line, fraction m from bus 1
    REVERSE = "reverse"  # on the branch behind bus 1, fraction m from bus 1


@dataclass(frozen=True)
class FaultSpec:
    """What fault to apply and where.

    m is the per-unit distance of the fault node from bus 1 along the host
    branch; r_g_ohm is the fault resistance in ohms (ground path for ground
    faults, phase bridge for line-line, per-phase star for three-phase).
    """

    fault_type: FaultType = FaultType.BCG
    m: float = 0.5
    r_g_ohm: float = 0.0
    placement: Placement = Placement.FORWARD

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"fault position m={self.m} outside [0, 1]")
        if self.r_g_ohm < 0.0:
            raise ValueError(f"fault resistance {self.r_g_ohm} ohm is negative")


@dataclass(frozen=True)
class SeriesElement:
    """Series impedance between two nodes, per sequence; None = open."""

    eid: str
    n_from: str
    n_to: str
    z1: complex | None
    z2: complex | None
    z0: complex | None

    def z(self, seq: int) -> complex | None:
        return {1: self.z1, 2: self.z2, 0: self.z0}[seq]


@dataclass(frozen=True)
class SourceElement:
    """Ideal positive-sequence emf behind a per-sequence impedance to gnd.

    z = 0 makes the source ideal in that sequence: the node is pinned at the
    emf (positive sequence) or at zero volts (negative/zero, where the emf
    vanishes and the ideal source is a short). z = None leaves the sequence
    unconnected through this element.
    """

    eid: str
    node: str
    e1: complex
    z1: complex | None
    z2: complex | None
    z0: complex | None

    def z(self, seq: int) -> complex | None:
        return {1: self.z1, 2: self.z2, 0: self.z0}[seq]

    def emf(self, seq: int) -> complex:
        return self.e1 if seq == 1 else 0j


@dataclass(frozen=True)
class InjectionElement:
    """Ideal sequence current sources injecting into a node (zero seq none)."""

    eid: str
    node: str
    i1: complex
    i2: complex

    def current(self, seq: int) -> complex:
        return {1: self.i1, 2: self.i2, 0: 0j}[seq]


@dataclass(frozen=True)
class RelayTap:
    """Where a relay reads: bus voltage plus oriented element current."""

    bus: str
    eid: str
    sign: float  # +1 when the element's from-node is the bus


@dataclass(frozen=True)
class NetworkModel:
    """Element list plus the metadata the fault pipeline needs."""

    elements: tuple
    fault_node: str = ""
    source_node: str = ""
    z_base_fault_ohm: float = 1.0
    relay_taps: dict[str, RelayTap] = field(default_factory=dict)

    def with_elements(self, *extra) -> "NetworkModel":
        return replace(self, elements=self.elements + tuple(extra))

    def series(self) -> list[SeriesElement]:
        return [e for e in self.elements if isinstance(e, SeriesElement)]

    def sources(self) -> list[SourceElement]:
        return [e for e in self.elements if isinstance(e, SourceElement)]

    def injections(self) -> list[InjectionElement]:
        return [e for e in self.elements if isinstance(e, InjectionElement)]

    def nodes(self) -> tuple[str, ...]:
        """All non-ground nodes touched by any element, sorted."""
        found: set[str] = set()
        for e in self.elements:
            if isinstance(e, SeriesElement):
                found.update((e.n_from, e.n_to))
            else:
                found.add(e.node)
        found.discard(GROUND)
        return tuple(sorted(found))


@dataclass(frozen=True)
class SequenceSolution:
    """Node voltages and element currents for the three sequence networks."""

    v: dict[int, dict[str, complex]]
    i_series: dict[int, dict[str, complex]]  # oriented from -> to
    source_out: dict[int, dict[str, complex]]  # current delivered into node

    def voltage(self, node: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.v[1].get(node, 0j),
            neg=self.v[2].get(node, 0j),
            zero=self.v[0].get(node, 0j),
        )

    def series_current(self, eid: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.i_series[1].get(eid, 0j),
            neg=self.i_series[2].get(eid, 0j),
            zero=self.i_series[0].get(eid, 0j),
        )

    def source_current(self, eid: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.source_out[1].get(eid, 0j),
            neg=self.source_out[2].get(eid, 0j),
            zero=self.source_out[0].get(eid, 0j),
        )

    def reading(self, tap: RelayTap) -> "BusReading":
        return BusReading(
            bus=tap.bus,
            v=self.voltage(tap.bus),
            i=self.series_current(tap.eid).scaled(tap.sign),
        )


@dataclass(frozen=True)
class BusReading:
    """Relay-point quantities: bus voltage, current into the monitored line."""

    bus: str
    v: SequenceTriple
    i: SequenceTriple


@dataclass(frozen=True)
class TheveninEquivalent:
    """Reduction of the network to the fault node.

    e_f2/e_f0 are zero for ordinary source mixes; they pick up the
    open-circuit negative/zero-sequence voltage that unbalanced current
    injections (a saturated converter) leave at the fault node.
    """

    z1: complex
    z2: complex
    z0: complex
    e_f: complex  # open-circuit positive-sequence fault-node voltage
    e_f2: complex = 0j
    e_f0: complex = 0j

    def z(self, seq: int) -> complex:
        return {1: self.z1, 2: self.z2, 0: self.z0}[seq]


@dataclass(frozen=True)
class FaultSolution:
    """Base, pure-fault, and total solutions for one applied fault."""

    base: SequenceSolution
    pure: SequenceSolution
    total: SequenceSolution
    thevenin: TheveninEquivalent
    i_fault: SequenceTriple

    def readings(self, net: NetworkModel) -> dict[str, BusReading]:
        return {name: self.total.reading(tap) for name, tap in net.relay_taps.items()}


def _solve_one_sequence(
    net: NetworkModel,
    seq: int,
    zero_sources: bool,
    extra_injection: tuple[str, complex] | None,
) -> tuple[dict[str, complex], dict[str, complex], dict[str, complex]]:
    """Nodal solve of one sequence network.

    Ideal sources pin their node voltage and are eliminated from the unknown
    set; nodes untouched by any element of this sequence are simply absent
    from the result (callers read them as zero).
    """
    series = [e for e in net.series() if e.z(seq) is not None]
    sources = [e for e in net.sources() if e.z(seq) is not None]
    injections = net.injections() if not zero_sources else []

    pinned: dict[str, complex] = {GROUND: 0j}
    for src in sources:
        if src.z(seq) == 0:
            emf = 0j if zero_sources else src.emf(seq)
            pinned[src.node] = emf

    nodes: set[str] = set()
    for e in series:
        nodes.update((e.n_from, e.n_to))
    for src in sources:
        nodes.add(src.node)
    for inj in injections:
        # a zero injection must not drag an otherwise unconnected node
        # (e.g. the converter terminal in the zero sequence) into the system
        if inj.current(seq) != 0:
            nodes.add(inj.node)
    if extra_injection is not None:
        nodes.add(extra_injection[0])
    unknowns = sorted(n for n in nodes if n not in pinned)
    index = {n: k for k, n in enumerate(unknowns)}

    n = len(unknowns)
    y = np.zeros((n, n), dtype=complex)
    j = np.zeros(n, dtype=complex)

    def stamp_admittance(na: str, nb: str, adm: complex) -> None:
        ia = index.get(na)
        ib = index.get(nb)
        if ia is not None:
            y[ia, ia] += adm
            if ib is not None:
                y[ia, ib] -= adm
            else:
                j[ia] += adm * pinned.get(nb, 0j)
        if ib is not None:
            y[ib, ib] += adm
            if ia is not None:
                y[ib, ia] -= adm
            else:
                j[ib] += adm * pinned.get(na, 0j)

    for e in series:
        stamp_admittance(e.n_from, e.n_to, 1.0 / e.z(seq))
    for src in sources:
        z = src.z(seq)
        if z == 0:
            continue  # pinned above
        adm = 1.0 / z
        idx = index.get(src.node)
        if idx is not None:
            y[idx, idx] += adm
            if not zero_sources:
                j[idx] += adm * src.emf(seq)
    for inj in injections:
        idx = index.get(inj.node)
        if idx is not None:
            j[idx] += inj.current(seq)
    if extra_injection is not None:
        node, current = extra_injection
        idx = index.get(node)
        if idx is None and node not in pinned:
            raise SingularNetworkError(
                f"injection node {node!r} not present in sequence-{seq} network"
            )
        if idx is not None:
            j[idx] += current

    if n:
        try:
            sol = np.linalg.solve(y, j)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(f"sequence-{seq} network is singular") from exc
        if not np.all(np.isfinite(sol)):
            raise SingularNetworkError(f"sequence-{seq} solve returned non-finite voltages")
    else:
        sol = np.zeros(0, dtype=complex)

    v = dict(pinned)
    for node, k in index.items():
        v[node] = complex(sol[k])

    i_series: dict[str, complex] = {}
    for e in series:
        i_series[e.eid] = (v[e.n_from] - v[e.n_to]) / e.z(seq)

    # Source delivery by KCL so ideal (pinned) sources are covered too:
    # everything leaving the node through series elements, minus what the
    # injections at the node already supply.
    source_out: dict[str, complex] = {}
    for src in sources:
        out = 0j
        for e in series:
            if e.n_from == src.node:
                out += i_series[e.eid]
            if e.n_to == src.node:
                out -= i_series[e.eid]
        for inj in injections:
            if inj.node == src.node:
                out -= inj.current(seq)
        if extra_injection is not None and extra_injection[0] == src.node:
            out -= extra_injection[1]
        source_out[src.eid] = out

    return v, i_series, source_out


def solve_linear(
    net: NetworkModel,
    zero_sources: bool = False,
    extra_injections: dict[int, tuple[str, complex]] | None = None,
    sequences: tuple[int, ...] = SEQUENCES,
) -> SequenceSolution:
    """Solve the sequence networks as they stand (no fault logic).

    The three sequence networks are independent, so a caller that reads
    only some of them may restrict `sequences`; the others are then absent
    from the solution, and reading them raises KeyError.
    """
    v: dict[int, dict[str, complex]] = {}
    i_series: dict[int, dict[str, complex]] = {}
    source_out: dict[int, dict[str, complex]] = {}
    for seq in sequences:
        extra = extra_injections.get(seq) if extra_injections else None
        v[seq], i_series[seq], source_out[seq] = _solve_one_sequence(
            net, seq, zero_sources, extra
        )
    return SequenceSolution(v=v, i_series=i_series, source_out=source_out)


def thevenin_at_fault(
    net: NetworkModel, base: SequenceSolution | None = None
) -> TheveninEquivalent:
    """Driving-point impedances at the fault node and its open-circuit voltage.

    Impedances come from a unit-current probe with all sources zeroed (ideal
    sources short, Norton admittances kept, injections open), one nodal
    solve of the probed sequence each; e_f is the fault-node voltage of the
    base solve, which is computed here unless the caller passes it.
    """
    if base is None:
        base = solve_linear(net)
    z = {}
    for seq in SEQUENCES:
        v, _, _ = _solve_one_sequence(net, seq, True, (net.fault_node, 1.0 + 0j))
        z[seq] = v.get(net.fault_node, 0j)
    return TheveninEquivalent(
        z1=z[1],
        z2=z[2],
        z0=z[0],
        e_f=base.v[1].get(net.fault_node, 0j),
        e_f2=base.v[2].get(net.fault_node, 0j),
        e_f0=base.v[0].get(net.fault_node, 0j),
    )


def solve_fault_boundary(
    thevenin: TheveninEquivalent, spec: FaultSpec, z_base_ohm: float
) -> SequenceTriple:
    """Sequence fault currents drawn out of the network at the fault node.

    Canonical a-referenced interconnections, with the ground-path resistance
    entering the zero-sequence branch as 3R and phase resistances where the
    category puts them; the cyclic shift rule then rotates the solution onto
    the requested phases. Open-circuit negative/zero-sequence voltages enter
    the same interconnections after being carried into the a-referenced
    frame, so the boundary stays exact when the base network is unbalanced.
    """
    r = spec.r_g_ohm / z_base_ohm
    z1, z2, z0, e_f = thevenin.z1, thevenin.z2, thevenin.z0, thevenin.e_f
    cat = spec.fault_type.category

    k = spec.fault_type.shift
    rot2 = ALPHA**k
    rot0 = ALPHA ** (2 * k)
    e2h = thevenin.e_f2 * rot2.conjugate()
    e0h = thevenin.e_f0 * rot0.conjugate()

    if cat is FaultCategory.SLG:
        i1 = (e_f + e2h + e0h) / (z1 + z2 + z0 + 3.0 * r)
        i2 = i1
        i0 = i1
    elif cat is FaultCategory.LL:
        i1 = (e_f - e2h) / (z1 + z2 + r)
        i2 = -i1
        i0 = 0j
    elif cat is FaultCategory.LLG:
        zg = z0 + 3.0 * r
        vx = (e_f / z1 + e2h / z2 + e0h / zg) / (1.0 / z1 + 1.0 / z2 + 1.0 / zg)
        i1 = (e_f - vx) / z1
        i2 = (e2h - vx) / z2
        i0 = (e0h - vx) / zg
    else:  # SYM: per-phase resistance star, no ground return
        i1 = e_f / (z1 + r)
        i2 = e2h / (z2 + r)
        i0 = 0j

    return SequenceTriple(pos=i1, neg=i2 * rot2, zero=i0 * rot0)


def back_distribute(net: NetworkModel, i_fault: SequenceTriple) -> SequenceSolution:
    """Pure-fault solution: passive network with the fault current extracted."""
    pulls = {1: -i_fault.pos, 2: -i_fault.neg, 0: -i_fault.zero}
    return solve_linear(
        net,
        zero_sources=True,
        extra_injections={seq: (net.fault_node, pulls[seq]) for seq in SEQUENCES},
    )


def _add_solutions(a: SequenceSolution, b: SequenceSolution) -> SequenceSolution:
    v: dict[int, dict[str, complex]] = {}
    i_series: dict[int, dict[str, complex]] = {}
    source_out: dict[int, dict[str, complex]] = {}
    for seq in SEQUENCES:
        v[seq] = {
            n: a.v[seq].get(n, 0j) + b.v[seq].get(n, 0j)
            for n in set(a.v[seq]) | set(b.v[seq])
        }
        i_series[seq] = {
            e: a.i_series[seq].get(e, 0j) + b.i_series[seq].get(e, 0j)
            for e in set(a.i_series[seq]) | set(b.i_series[seq])
        }
        source_out[seq] = {
            e: a.source_out[seq].get(e, 0j) + b.source_out[seq].get(e, 0j)
            for e in set(a.source_out[seq]) | set(b.source_out[seq])
        }
    return SequenceSolution(v=v, i_series=i_series, source_out=source_out)


def solve_fault(net: NetworkModel, spec: FaultSpec) -> FaultSolution:
    """Full linear fault solve: base, Thevenin, boundary, back-distribution."""
    base = solve_linear(net)
    thevenin = thevenin_at_fault(net, base)
    i_fault = solve_fault_boundary(thevenin, spec, net.z_base_fault_ohm)
    pure = back_distribute(net, i_fault)
    total = _add_solutions(base, pure)
    return FaultSolution(base=base, pure=pure, total=total, thevenin=thevenin, i_fault=i_fault)
