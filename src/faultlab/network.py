"""Sequence-network model and phasor-domain fault solver.

The network is a list of three-sequence elements over named nodes ('gnd' is
the reference). Each element carries its positive-, negative-, and
zero-sequence impedances; `None` means that sequence has no path through the
element (e.g. a delta-wye transformer's series zero-sequence). Because every
solver view, the phase-domain oracle included, is assembled from the same
element list, the two solution routes can only differ through their fault
representations, which is exactly what the equivalence checks exercise.

Fault solving follows the classical decomposition:

1. one nodal build per sequence network, solved by `solve_dense` for all its
   right-hand sides: the network with its sources (the base column), and a
   unit current at each node with the sources zeroed (the node's column:
   the bus impedance column of that node). A build depends on the network
   alone, so every caller reads the one build of a sequence network and
   picks the columns it needs: the dispatch the source node's, a fault
   the fault node's and the port's (where a converter injects). Every
   fault builds all three sequences; one that does not reach ground
   (line-line, three-phase) draws no zero-sequence current, and no source
   drives that sequence, so its zero-sequence solution is zero at every
   node. A build is eliminated once per network object: the fault, the
   limiting law and the dispatch enter only the boundary conditions and
   the injected currents, so a case grid repeats a few networks, and
   `scenario` makes one object of equal networks. A bounded memo keyed on
   the network object (`_shared`) holds its builds, its element plan,
   and what `sources`, `solve_fault` and the oracle compute on the network
   alone: its dispatches, its generator fault networks, its faulted
   converter ports and its factored phase-domain systems. Each is made
   once from one object's own bits, so a hit is the very object a fresh
   call would have made bit for bit;
2. Thevenin reduction at the fault node: the driving-point impedance is the
   fault node's column there, the open-circuit voltage the base column (plus
   the port's column times any injected current);
3. boundary conditions for the canonical a-referenced fault of each category,
   then the cyclic phase-shift rule (positive unchanged, negative times
   alpha^k, zero times alpha^2k for a fault reference shifted k phases);
4. back-distribution: the pure-fault solution is minus the fault current
   times the fault node's column, superposed on the base solve. One
   `FaultSolution` holds all of it, affine in the currents injected at its
   port, and `FaultSolution.terminal_port` reduces it to the port. A build
   keeps each column also as a tuple in its one node order, and each part
   is one straight-line sum per node over those tuples (`_superpose`).

A solution is its node voltages only. Every current is read off them by
Ohm's law on the element's own sequence impedance, through the network's
element plan: each series or source element's end nodes and sequence
impedances by eid, resolved once per network object. So the relay
readings of every solution, and the generator's source current, take one
path; each solution reads all its relay taps at once
(`SequenceSolution.readings`). A solution computes its readings and its
parts once, on first read (`_once`, `functools.cached_property` without
its lock).

Sign conventions: relay current is measured from the bus into the monitored
line; fault sequence currents are drawn out of the network into the fault.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Mapping
from enum import Enum
from types import MappingProxyType

from .phasors import ALPHA, SequenceTriple
from .records import Record

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
    "TerminalPort",
    "FaultSolution",
    "solve_dense",
    "factor_dense",
    "solve_factored",
    "solve_linear",
    "solve_fault_boundary",
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
# the categories by module name: a global read per fault, not an Enum class attribute's
_SLG, _LL, _LLG = FaultCategory.SLG, FaultCategory.LL, FaultCategory.LLG
# what `solve_fault_boundary` reads per fault type: its category, alpha^k and
# alpha^2k, and their conjugates, which carry voltages into the a-referenced frame
_BOUNDARY = {
    fault: (cat, rot2, rot0, rot2.conjugate(), rot0.conjugate())
    for fault, (cat, k, _) in _FAULT_SHAPE.items()
    for rot2, rot0 in [(ALPHA**k, ALPHA ** (2 * k))]
}


class Placement(Enum):
    FORWARD = "forward"  # on the monitored line, fraction m from bus 1
    REVERSE = "reverse"  # on the branch behind bus 1, fraction m from bus 1


class FaultSpec(Record):
    """What fault to apply and where.

    m is the per-unit distance of the fault node from bus 1 along the host
    branch; r_g_ohm is the fault resistance in ohms (ground path for ground
    faults, phase bridge for line-line, per-phase star for three-phase).
    """

    fault_type: FaultType = FaultType.BCG
    m: float = 0.5
    r_g_ohm: float = 0.0
    placement: Placement = Placement.FORWARD

    def _check(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"fault position m={self.m} outside [0, 1]")
        if self.r_g_ohm < 0.0:
            raise ValueError(f"fault resistance {self.r_g_ohm} ohm is negative")


class SeriesElement(Record):
    """Series impedance between two nodes, per sequence; None = open."""

    eid: str
    n_from: str
    n_to: str
    z1: complex | None
    z2: complex | None
    z0: complex | None

    def z(self, seq: int) -> complex | None:
        return (self.z0, self.z1, self.z2)[seq]


class SourceElement(Record):
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
        return (self.z0, self.z1, self.z2)[seq]

    def emf(self, seq: int) -> complex:
        return self.e1 if seq == 1 else 0j


class InjectionElement(Record):
    """Ideal sequence current sources injecting into a node (zero seq none)."""

    eid: str
    node: str
    i1: complex
    i2: complex

    def current(self, seq: int) -> complex:
        return (0j, self.i1, self.i2)[seq]


class RelayTap(Record):
    """Where a relay reads: bus voltage plus oriented element current."""

    bus: str
    eid: str
    sign: float  # +1 when the element's from-node is the bus


class NetworkModel(Record):
    """Element list plus the metadata the fault pipeline needs."""

    elements: tuple
    fault_node: str = ""
    source_node: str = ""
    z_base_fault_ohm: float = 1.0
    relay_taps: Mapping[str, RelayTap] = MappingProxyType({})

    def with_elements(self, *extra) -> "NetworkModel":
        return self._replace(elements=self.elements + tuple(extra))

    def element(self, eid: str) -> SeriesElement | SourceElement | InjectionElement:
        """The last element named `eid`: a scan, for a network is read a few times."""
        for e in reversed(self.elements):
            if e.eid == eid:
                return e
        raise KeyError(eid)

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


class _once:
    """A property computed on its first read per instance, then kept.

    `functools.cached_property` without its lock (which Python 3.8-3.11
    take on every first read): the value is stored in the instance's
    `__dict__` under the property's name, and as a non-data descriptor
    this one is then never consulted again for that instance. Read on the
    class, it is the descriptor itself.
    """

    def __init__(self, compute: Callable[[object], object]) -> None:
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance: object, owner: type | None = None) -> object:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class SequenceSolution:
    """Node voltages of the three sequence networks of `net`.

    Every current is read off them by Ohm's law on the element's own
    impedance in that sequence: a series element's from -> to, a source's
    delivered through its branch into its node; an element open in a
    sequence carries 0j there. A pinned (z = 0) source has no branch to
    read its current off, and reading it raises ZeroDivisionError; an
    injection or an unknown eid, KeyError. Every read goes through the
    network's element plan (`_element_plan`), made once per network object.
    """

    def __init__(self, v: dict[int, dict[str, complex]], net: NetworkModel) -> None:
        self.v, self.net = v, net

    def __eq__(self, other: object) -> bool:
        if type(other) is not SequenceSolution:
            return NotImplemented
        return (self.v, self.net) == (other.v, other.net)

    def voltage(self, node: str) -> SequenceTriple:
        v = self.v
        return SequenceTriple(v[1].get(node, 0j), v[2].get(node, 0j), v[0].get(node, 0j))

    def current(self, seq: int, eid: str) -> complex:
        front, back, z, fallback = _shared(self.net, "elements", _element_plan, self.net)[eid]
        if z[seq] is None:
            return 0j
        v = self.v[seq]
        return (v.get(front, fallback[seq]) - v.get(back, 0j)) / z[seq]

    def series_current(self, eid: str) -> SequenceTriple:
        """`current` of a series element or a source in each sequence: one plan lookup."""
        net, v = self.net, self.v
        front, back, z, fallback = _shared(net, "elements", _element_plan, net)[eid]
        return SequenceTriple(
            0j if z[1] is None else (v[1].get(front, fallback[1]) - v[1].get(back, 0j)) / z[1],
            0j if z[2] is None else (v[2].get(front, fallback[2]) - v[2].get(back, 0j)) / z[2],
            0j if z[0] is None else (v[0].get(front, fallback[0]) - v[0].get(back, 0j)) / z[0],
        )

    def reading(self, tap: RelayTap) -> "BusReading":
        i = self.series_current(tap.eid).scaled(tap.sign)
        return BusReading(tap.bus, self.voltage(tap.bus), i)

    @_once
    def readings(self) -> dict[str, "BusReading"]:
        """`reading` at every relay tap, once per solution: `current`'s law inline, bit for bit."""
        v1, v2, v0 = self.v[1], self.v[2], self.v[0]
        plan = _shared(self.net, "elements", _element_plan, self.net)
        readings = {}
        for name, (bus, eid, sign) in self.net.relay_taps.items():
            front, back, (z0, z1, z2), (f0, f1, f2) = plan[eid]
            i1 = 0j if z1 is None else (v1.get(front, f1) - v1.get(back, 0j)) / z1
            i2 = 0j if z2 is None else (v2.get(front, f2) - v2.get(back, 0j)) / z2
            i0 = 0j if z0 is None else (v0.get(front, f0) - v0.get(back, 0j)) / z0
            readings[name] = BusReading(
                bus,
                SequenceTriple(v1.get(bus, 0j), v2.get(bus, 0j), v0.get(bus, 0j)),
                SequenceTriple(sign * i1, sign * i2, sign * i0),
            )
        return readings


def _element_plan(net: NetworkModel) -> dict[str, tuple]:
    """Each series and source element of `net` by eid, as `SequenceSolution` reads its current.

    An entry is (front, back, z, fallbacks), the last two indexed by
    sequence: in sequence seq the element carries (v.get(front,
    fallbacks[seq]) - v.get(back, 0j)) / z[seq], 0j where z[seq] is None.
    A series element's front is its from-node and its fallbacks 0j; a
    source's front is None, which no column holds, so its fallbacks are its
    emfs, and its back is its node. The last element of an eid wins, as in
    `NetworkModel.element`, and an injection, having no branch, has none.
    Made once per network object (`_shared`).
    """
    plan = {}
    for e in net.elements:
        if isinstance(e, SeriesElement):
            plan[e.eid] = (e.n_from, e.n_to, (e.z0, e.z1, e.z2), (0j, 0j, 0j))
        elif isinstance(e, SourceElement):
            plan[e.eid] = (None, e.node, (e.z0, e.z1, e.z2), (e.emf(0), e.emf(1), e.emf(2)))
        else:
            plan.pop(e.eid, None)
    return plan


class BusReading(Record):
    """Relay-point quantities: bus voltage, current into the monitored line."""

    bus: str
    v: SequenceTriple
    i: SequenceTriple


class TheveninEquivalent(Record):
    """Reduction of the network to the fault node.

    e_f2/e_f0 are zero for ordinary source mixes; they pick up the
    open-circuit negative/zero-sequence voltage that unbalanced current
    injections (a saturated converter) leave at the fault node. A fault
    that does not reach ground has a z0 too; its boundary conditions do
    not read it.
    """

    z1: complex
    z2: complex
    z0: complex
    e_f: complex  # open-circuit positive-sequence fault-node voltage
    e_f2: complex = 0j
    e_f0: complex = 0j


# one solution column of a sequence network: its node voltages
_Column = dict[str, complex]


class _Columns(dict):
    """Columns by node, None the base column; a node this sequence does not touch raises."""

    def __missing__(self, node: str) -> object:
        raise SingularNetworkError(f"node {node!r} is not in this sequence network")


class _Build(_Columns):
    """One sequence build: the base column under None, then a column per node.

    A pinned node's column is zero. All columns share one key order, which
    the build keeps once as `nodes`; `columns` holds each column again as
    a tuple in that order, and `start` the base column's term of a sum
    with the sources, 0j + 1.0 * value, also in that order.
    """

    __slots__ = ("nodes", "columns", "start")


def solve_dense(a: list[list], b: list[list]) -> list[list] | None:
    """x with a @ x = b by Gaussian elimination with partial pivoting.

    The package's one dense solver, on Python lists: `factor_dense`, then
    `solve_factored`. Its callers are the nodal builds (`_solve_stamped`,
    once per sequence of a network object while its memo entry lives) and
    the oracle's 3x3 mode matrix inverse (`abc_oracle.A_INV`); the oracle's
    nodal system, with up to 12 unknowns, is factored once per network
    object and fault and solved per case (`abc_oracle.solve_abc`). a is n
    rows of n entries and b n rows of right-hand-side columns, real or
    complex; x comes back in b's layout. None on a zero pivot or a
    non-finite solution. Overwrites a with its factors, and b with x.
    """
    lu = factor_dense(a)
    return None if lu is None else solve_factored(lu, b)


# a's eliminated rows (U on and above the diagonal), and for each step its
# pivot row and the (row, multiplier) pairs it applied
_Factors = tuple[list[list], list[tuple[int, list[tuple[int, object]]]]]


def factor_dense(a: list[list]) -> _Factors | None:
    """a's elimination with partial pivoting, kept for `solve_factored`.

    Each step k picks the row of largest magnitude in column k at or below
    row k, exchanges it with row k, and subtracts multiples of it from the
    rows below, keeping the pivot row and each (row, multiplier) it
    applied. None on a zero pivot. Overwrites a: its rows, exchanged, hold
    U on and above the diagonal.

    A row whose entry in the pivot column is already exactly zero is not
    updated. These are the structural zeros of a radial network's nodal
    matrix, which sparse nodal elimination skips (Tinney and Walker, Proc.
    IEEE 55, 1967). The skipped update subtracts zero times a finite pivot
    row, which changes no entry but a negative zero: -0.0 - (-0.0) is +0.0,
    and the skip keeps the -0.0. So on inputs that hold no negative zero
    the result is full elimination's bit for bit, for elimination makes
    none from entries that hold none; the nodal builds and the oracle's
    stamps, sums started from +0.0, hold none. A non-finite entry of the
    pivot row right of the pivot, in a or in b, makes the solution
    non-finite with or without the update, so the result is None either way.
    """
    n = len(a)
    steps: list[tuple[int, list[tuple[int, object]]]] = []
    for k in range(n):
        p, largest = k, abs(a[k][k])
        for r in range(k + 1, n):
            size = abs(a[r][k])
            if size > largest:
                p, largest = r, size
        pivot = a[p]
        d = pivot[k]
        if d == 0:
            return None
        if p != k:
            a[k], a[p] = pivot, a[k]
        updates = []
        for r in range(k + 1, n):
            row = a[r]
            if row[k] == 0:
                continue
            f = row[k] / d
            for c in range(k + 1, n):
                row[c] -= f * pivot[c]
            updates.append((r, f))
        steps.append((p, updates))
    return a, steps


def solve_factored(lu: _Factors, b: list[list]) -> list[list] | None:
    """x with a @ x = b, from `factor_dense(a)`; None if x is not finite.

    Replays the factorization's steps on each column of b, each step its
    exchange and then its row updates, and back-substitutes with U. An
    entry of b is updated from b and the multipliers alone, so each entry
    takes the operations the elimination would have made on it beside a's,
    in the same order: one factorization solves any number of right-hand
    sides, each to the bits of a solve that eliminated a again. Columns
    are independent, so each is solved in turn as a flat list. Overwrites
    b with x, in b's layout.
    """
    u, steps = lu
    n = len(u)
    for j in range(len(b[0]) if n else 0):
        x = [row[j] for row in b]
        for k, (p, updates) in enumerate(steps):
            if p != k:
                x[k], x[p] = x[p], x[k]
            v = x[k]
            for r, f in updates:
                x[r] -= f * v
        for k in reversed(range(n)):
            v = x[k] = x[k] / u[k][k]
            for r in range(k):
                x[r] -= u[r][k] * v
        for row, v in zip(b, x):
            row[j] = v
    return b if all(cmath.isfinite(v) for row in b for v in row) else None


# What a network object alone determines, made once per object: its
# sequence builds, its element plan and its faulted converter ports
# (`solve_fault`) here, in `sources` its dispatches and generator fault
# networks, and in `abc_oracle` its factored phase-domain systems. Keyed
# on (id(net), what); each entry holds its network, so no other object
# takes that id while the entry lives. At most `_SHARED_BOUND` entries,
# the oldest dropped first.
_SHARED: dict[tuple, tuple[NetworkModel, object]] = {}
_SHARED_BOUND = 1024


def _shared(net: NetworkModel, what: object, make: Callable[..., object], *args: object):
    """make(*args), called once per network object and `what` while its entry lives.

    `what` must name everything make reads besides `net`, bit for bit
    (`_bitwise`). A call that raises stores nothing, so an error is raised
    again on every call. Callers must not mutate what they are handed.
    """
    key = (id(net), what)
    held = _SHARED.get(key)
    if held is None:
        held = _keep(_SHARED, key, (net, make(*args)), _SHARED_BOUND)
    return held[1]


def _keep(memo: dict, key: object, value: object, bound: int):
    """Store value under key in a memo of at most `bound` entries, the oldest out first."""
    if len(memo) >= bound:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _bitwise(*values: object) -> tuple:
    """values as a memo key that equal values share only bit for bit.

    `==` matches -0.0 with 0.0, and 1.0 with 1 and with 1 + 0j, which
    arithmetic can tell apart (a product's sign of zero, a complex result).
    So the key holds each value's type, and the signs of each value that is
    zero or complex (equal nonzero floats share their sign bit).
    """
    signs = [_signs(v) for v in values if not v or type(v) is complex]
    return (*values, *map(type, values), *signs)


def _signs(value: object) -> object:
    """Whether each float part of value has its sign bit set."""
    if isinstance(value, complex):
        return math.copysign(1.0, value.real) < 0, math.copysign(1.0, value.imag) < 0
    if isinstance(value, float):
        return math.copysign(1.0, value) < 0
    return None


def _solve_one_sequence(net: NetworkModel, seq: int) -> _Build:
    """Nodal build of one sequence network, solved for all right-hand sides at once.

    The right-hand sides are the network as it stands (the base column) and
    a unit current injected at each node with every source zeroed: ideal
    sources short, Norton admittances kept, injections open (that node's
    column, its bus impedance column). All columns share their keys. Ideal
    sources pin their node voltage and are eliminated from the unknown set;
    nodes untouched by any element of this sequence are absent from the
    columns (callers read them as zero) and have no column of their own.

    Made by `_solve_stamped` once per network object (`_shared`); every
    caller of that object reads the same build, so callers only read it.
    """
    return _shared(net, seq, _solve_stamped, net, seq)


def _solve_stamped(net: NetworkModel, seq: int) -> _Build:
    """The element pass, then stamp, solve and assemble the columns of one build.

    The element pass reads what this sequence connects, as complex values;
    the stamp adds them to sums that start at +0j, the branches first, in
    element order, then the Norton sources, then the injections. A singular
    build raises SingularNetworkError.
    """
    branches: list[tuple[str, str, complex]] = []
    sources: list[tuple[str, complex, complex]] = []  # node, admittance, emf
    injections: list[tuple[str, complex]] = []
    pinned: dict[str, complex] = {GROUND: 0j}
    for e in net.elements:
        if isinstance(e, SeriesElement):
            z = e.z(seq)
            if z is not None:
                branches.append((e.n_from, e.n_to, complex(z)))
        elif isinstance(e, SourceElement):
            z = e.z(seq)
            if z is not None:
                if z == 0:
                    pinned[e.node] = complex(e.emf(seq))
                else:
                    sources.append((e.node, 1.0 / complex(z), complex(e.emf(seq))))
        elif isinstance(e, InjectionElement):
            # a zero injection must not drag an otherwise unconnected node
            # (e.g. the converter terminal in the zero sequence) into the system
            i = e.current(seq)
            if i != 0:
                injections.append((e.node, complex(i)))

    nodes: set[str] = set()
    for na, nb, _ in branches:
        nodes.add(na)
        nodes.add(nb)
    nodes.update(node for node, _, _ in sources)
    nodes.update(node for node, _ in injections)
    unknowns = sorted(n for n in nodes if n not in pinned)
    index = {n: k for k, n in enumerate(unknowns)}

    # stamped and solved as Python lists: a build has 2-4 unknowns, too few
    # for an array library's call overhead to pay off. Column 0 is the
    # base, column 1 + k a unit current at unknowns[k].
    n = len(unknowns)
    y = [[0j] * n for _ in range(n)]
    rhs = [[0j] * (1 + n) for _ in range(n)]

    for na, nb, z in branches:
        adm = 1.0 / z
        ia = index.get(na)
        ib = index.get(nb)
        if ia is not None:
            y[ia][ia] += adm
            if ib is not None:
                y[ia][ib] -= adm
            else:
                rhs[ia][0] += adm * pinned.get(nb, 0j)
        if ib is not None:
            y[ib][ib] += adm
            if ia is not None:
                y[ib][ia] -= adm
            else:
                rhs[ib][0] += adm * pinned.get(na, 0j)
    for node, adm, emf in sources:
        idx = index.get(node)
        if idx is not None:
            y[idx][idx] += adm
            rhs[idx][0] += adm * emf
    for node, i in injections:
        rhs[index[node]][0] += i
    for k in range(n):
        rhs[k][1 + k] = 1.0 + 0j

    x = solve_dense(y, rhs)
    if x is None:
        raise SingularNetworkError(f"sequence-{seq} network is singular or its solve is not finite")
    base, *solved = zip(*x) if n else [()]

    zeros, nodes = (0j,) * len(pinned), (*pinned, *unknowns)
    columns = _Columns.fromkeys(pinned, zeros + (0j,) * n)
    columns[None] = (*pinned.values(), *base)
    columns.update(zip(unknowns, (zeros + values for values in solved)))
    build = _Build((node, dict(zip(nodes, values))) for node, values in columns.items())
    build.nodes, build.columns = nodes, columns
    build.start = tuple(0j + 1.0 * value for value in columns[None])
    return build


def _superpose(build: _Build, sources: bool, *weighted: tuple[str, complex]) -> _Column:
    """The base column if `sources`, plus at most two weighted node columns of one build.

    One straight-line sum per node: 0j, plus 1.0 times the base column's
    value if `sources` (that start is held by the build), plus each
    weighted column's term in the order given. A column at weight zero is
    looked up (a node the sequence does not touch raises) but not summed:
    its signed zeros would change no bit of a sum that is never -0.0.
    """
    columns, nodes, terms = build.columns, build.nodes, ()
    for node, w in weighted:
        column = columns[node]
        if w != 0:
            terms += ((w, column),)
    start = build.start if sources else (0j,) * len(nodes)
    if len(terms) == 2:
        (a, x), (b, y) = terms
        return {k: s + a * p + b * q for k, s, p, q in zip(nodes, start, x, y)}
    if terms:
        ((a, x),) = terms
        return {k: s + a * p for k, s, p in zip(nodes, start, x)}
    return dict(zip(nodes, start))


def solve_linear(
    net: NetworkModel,
    zero_sources: bool = False,
    extra_injections: dict[int, tuple[str, complex]] | None = None,
    sequences: tuple[int, ...] = SEQUENCES,
) -> SequenceSolution:
    """Solve the sequence networks as they stand (no fault logic).

    An extra injection (node, current) in a sequence adds that current at
    the node; zero_sources drops every source, leaving only the extra
    injections. The three sequence networks are independent, so a caller
    that reads only some of them may restrict `sequences`; the others are
    then absent from the solution, and reading them raises KeyError.
    """
    v: dict[int, _Column] = {}
    for seq in sequences:
        extra = extra_injections.get(seq) if extra_injections else None
        build = _solve_one_sequence(net, seq)
        v[seq] = _superpose(build, not zero_sources, *([extra] if extra else ()))
    return SequenceSolution(v, net)


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
    A boundary that divides by an exact zero is a SingularNetworkError.
    """
    r = spec.r_g_ohm / z_base_ohm
    z1, z2, z0, e_f, e_f2, e_f0 = thevenin
    cat, rot2, rot0, back2, back0 = _BOUNDARY[spec.fault_type]
    e2h = e_f2 * back2
    e0h = e_f0 * back0

    try:
        if cat is _SLG:
            i1 = (e_f + e2h + e0h) / (z1 + z2 + z0 + 3.0 * r)
            i2 = i1
            i0 = i1
        elif cat is _LL:
            i1 = (e_f - e2h) / (z1 + z2 + r)
            i2 = -i1
            i0 = 0j
        elif cat is _LLG:
            zg = z0 + 3.0 * r
            vx = (e_f / z1 + e2h / z2 + e0h / zg) / (1.0 / z1 + 1.0 / z2 + 1.0 / zg)
            i1 = (e_f - vx) / z1
            i2 = (e2h - vx) / z2
            i0 = (e0h - vx) / zg
        else:  # SYM: per-phase resistance star, no ground return
            i1 = e_f / (z1 + r)
            i2 = e2h / (z2 + r)
            i0 = 0j
    except ZeroDivisionError:
        why = f"{spec.fault_type.value} fault boundary is singular: z1 = {z1:.6g}, z2 = {z2:.6g}"
        raise SingularNetworkError(f"{why}, z0 = {z0:.6g} pu at the fault node") from None

    return SequenceTriple(i1, i2 * rot2, i0 * rot0)


class TerminalPort(Record):
    """A faulted network reduced to its port, a converter terminal (pu, peak).

    The network is linear and the port carries no zero-sequence current, so
    the port's sequence voltages are affine in the positive- and
    negative-sequence currents injected there:

        [v1, v2] = [v1_oc, v2_oc] + Z_port @ [i1, i2]

    Z_port is the 2x2 port (Kron) reduction of the faulted network; an
    unbalanced fault couples the two channels, so it is not diagonal.
    """

    v1_oc: complex
    v2_oc: complex
    z11: complex
    z12: complex
    z21: complex
    z22: complex

    def voltage(self, i1: complex, i2: complex) -> tuple[complex, complex]:
        """Port voltages for injected channel currents."""
        return (
            self.v1_oc + self.z11 * i1 + self.z12 * i2,
            self.v2_oc + self.z21 * i1 + self.z22 * i2,
        )

    def currents_behind(self, e1: complex) -> Callable[[complex], tuple[complex, complex]]:
        """Channel currents of the emf (e1, 0) behind z_b in both channels, a function of z_b.

        Solves (Z_port + z_b * I) @ i = (e1, 0) - v_oc; z_b = 0 pins the
        port voltage at the emf. What does not depend on z_b is computed
        here, once.
        """
        v1_oc, v2_oc, z11, z12, z21, z22 = self
        z12_z21, r1, r2 = z12 * z21, e1 - v1_oc, -v2_oc

        def currents(z_b: complex) -> tuple[complex, complex]:
            a11, a22 = z11 + z_b, z22 + z_b
            det = a11 * a22 - z12_z21
            if det == 0:
                raise SingularNetworkError("converter terminal port is singular")
            return (a22 * r1 - z12 * r2) / det, (a11 * r2 - z21 * r1) / det

        return currents


class FaultSolution:
    """One faulted network, with the currents (i1, i2) injected at its port.

    It holds the one build of each sequence network. Injecting (i1, i2) at
    the port adds i1 and i2 times the port's columns to the base solution,
    and to the open-circuit voltages at the fault node (`thevenin`); the
    boundary turns those into the fault current (`i_fault`); the pure-fault
    solution is minus that current times the fault node's column. `at`
    reads the same builds at other port currents.

    Each part is computed once, when first read, as one straight-line sum
    per node over the builds' column tuples (`_superpose`): from 0j, the
    base, then the fault node, then the port, a column at weight zero
    skipped. The open-circuit voltages keep every term, zero weights too.
    """

    def __init__(
        self,
        net: NetworkModel,
        spec: FaultSpec,
        port: str,
        builds: dict[int, _Build],
        i1: complex = 0j,
        i2: complex = 0j,
    ) -> None:
        if not port and (i1 or i2):
            raise ValueError("no port to inject at: solve the fault with a port node")
        self.net, self.spec, self.port, self.builds = net, spec, port, builds
        self.i1, self.i2 = i1, i2

    def __eq__(self, other: object) -> bool:
        if type(other) is not FaultSolution:
            return NotImplemented
        mine = (self.net, self.spec, self.port, self.builds, self.i1, self.i2)
        return mine == (other.net, other.spec, other.port, other.builds, other.i1, other.i2)

    def at(self, i1: complex = 0j, i2: complex = 0j) -> FaultSolution:
        """The fault solution with (i1, i2) injected at the port."""
        return FaultSolution(self.net, self.spec, self.port, self.builds, i1, i2)

    def _port_terms(self) -> tuple[tuple, tuple]:
        """The port's column at its current in the positive and negative sequences, if a port."""
        return (((self.port, self.i1),), ((self.port, self.i2),)) if self.port else ((), ())

    @_once
    def thevenin(self) -> TheveninEquivalent:
        """The fault node's own column there (impedances), the base part there (voltages)."""
        node, port, b = self.net.fault_node, self.port, self.builds
        z1, z2, z0 = b[1][node][node], b[2][node][node], b[0][node][node]
        e_f, e_f2 = 0j + 1.0 * b[1][None][node], 0j + 1.0 * b[2][None][node]
        if port:
            e_f += self.i1 * b[1][port][node]
            e_f2 += self.i2 * b[2][port][node]
        return TheveninEquivalent(z1, z2, z0, e_f, e_f2, 0j + 1.0 * b[0][None][node])

    @_once
    def i_fault(self) -> SequenceTriple:
        return solve_fault_boundary(self.thevenin, self.spec, self.net.z_base_fault_ohm)

    @_once
    def base(self) -> SequenceSolution:
        (p1, p2), b = self._port_terms(), self.builds
        v1, v2 = _superpose(b[1], True, *p1), _superpose(b[2], True, *p2)
        return SequenceSolution({1: v1, 2: v2, 0: _superpose(b[0], True)}, self.net)

    @_once
    def pure(self) -> SequenceSolution:
        (f1, f2, f0), node, b = self.i_fault, self.net.fault_node, self.builds
        v1, v2 = _superpose(b[1], False, (node, -f1)), _superpose(b[2], False, (node, -f2))
        return SequenceSolution({1: v1, 2: v2, 0: _superpose(b[0], False, (node, -f0))}, self.net)

    @_once
    def total(self) -> SequenceSolution:
        (f1, f2, f0), node, b = self.i_fault, self.net.fault_node, self.builds
        p1, p2 = self._port_terms()
        v1 = _superpose(b[1], True, (node, -f1), *p1)
        v2 = _superpose(b[2], True, (node, -f2), *p2)
        return SequenceSolution({1: v1, 2: v2, 0: _superpose(b[0], True, (node, -f0))}, self.net)

    @_once
    def terminal_port(self) -> TerminalPort:
        """The faulted network reduced to its port.

        In each channel the faulted port voltage is the base column, plus
        the port column times the injected current, less the fault current
        times the fault column, all read at the port. The boundary
        conditions are linear in the open-circuit voltages at the fault
        node, so the fault current splits the same way: the base columns
        there give v_oc, and each channel's port column there, carried
        through the boundary, gives that channel's column of Z_port.
        """
        pos, neg, zero = (self.builds[seq] for seq in (1, 2, 0))
        node, port = self.net.fault_node, self.port
        z = (pos[node][node], neg[node][node], zero[node][node])

        def fault_current(e_f: complex, e_f2: complex, e_f0: complex) -> tuple[complex, complex]:
            i_f = solve_fault_boundary(
                TheveninEquivalent(*z, e_f, e_f2, e_f0), self.spec, self.net.z_base_fault_ohm
            )
            return i_f.pos * pos[node][port], i_f.neg * neg[node][port]

        oc1, oc2 = fault_current(pos[None][node], neg[None][node], zero[None][node])
        a1, a2 = fault_current(pos[port][node], 0j, 0j)
        b1, b2 = fault_current(0j, neg[port][node], 0j)
        return TerminalPort(
            pos[None][port] - oc1,
            neg[None][port] - oc2,
            z11=pos[port][port] - a1,
            z12=-b1,
            z21=-a2,
            z22=neg[port][port] - b2,
        )


def solve_fault(net: NetworkModel, spec: FaultSpec, port: str = "") -> FaultSolution:
    """Full linear fault solve: one nodal build per sequence, then superposition.

    With a port node named, the solution's `at` gives the fault solution
    for any positive- and negative-sequence currents injected there, and
    its `terminal_port` the port model, without another solve. That
    solution depends on the network, the fault and the port alone, so it
    is one object per network object, port and fault (bit for bit,
    `_bitwise`), and its port model is reduced once (`_shared`). Without
    a port it is a new object on every call.
    """
    if port:
        return _shared(net, ("port", port, _bitwise(*spec)), _fault_solution, net, spec, port)
    return _fault_solution(net, spec, port)


def _fault_solution(net: NetworkModel, spec: FaultSpec, port: str) -> FaultSolution:
    builds = {seq: _solve_one_sequence(net, seq) for seq in SEQUENCES}
    return FaultSolution(net, spec, port, builds)
