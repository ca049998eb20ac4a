"""Source models and the nonlinear fault solve.

Two sources can sit behind bus 1:

* A synchronous generator: constant internal emf behind fixed sequence
  reactances. Faults stay linear; one network solve suffices.
* A grid-forming converter: internal reference behind a current-limiting
  control. Under fault the control state (saturation ratios or shaped
  virtual impedance) depends on the very currents and voltages it produces,
  so the fault solution is a fixed point, found here as a root in one real
  unknown or by semismooth Newton iteration with a damped fallback.

Both fault solves return a `SourceSolution`: the terminal state, the source
branch impedance per sequence and the source frozen at that state, so that
the harness reads either kind the same way.

The fixed point does not solve the network. Seen from the converter
terminal the faulted network is affine in the two channel currents the
converter injects (it is open in the zero sequence):

    v = v_oc + Z_port @ i,    v = (v1, v2), i = (i1, i2)

One linear fault solve with the terminal as its port gives the faulted
network's solution at any (i1, i2) by superposition
(`network.FaultSolution.at`), and its reduction to (v_oc, Z_port)
(`FaultSolution.terminal_port`); every evaluation of a law is then 2x2
complex arithmetic. That solve and its reduction depend on the network and
the fault alone, so scenarios that differ only in the limiting law or the
dispatch share them (`network.solve_fault`).

The fault condition is a fixed point of the limiting law. Three of the
five laws are a source emf (e_ref1, 0) behind a virtual impedance z_b in
both channels, fixed by one real number, so their fixed point is a root in
one real unknown, found by Brent's method on a sign-changing bracket:

* circular: one real factor s shrinks the proportional loop's reference
  ref = i + k_pv * ((e_ref1, 0) - v), so a fixed point i = s * ref is the
  emf behind the real z_b = (1 - s) / (k_pv * s). s = 1 is the idle start,
  the currents that pin the terminal at the reference; if it keeps every
  phase within i_lim it is the answer. Otherwise the root of
  f(s) = max phase current - i_lim lies in (0, 1), since f(0) = -i_lim.
* the shaping laws: Z_v = Z(x) is fixed by its reactance x through the
  law's X/R rule, and h(x) = Im law(Z(x)) - x is the root function. The
  bracket starts at x = 0 (adaptive) or x = x_vn (admittance), where h >= 0,
  and widens by doubling steps, the first of length h there, until h falls
  through zero; for the adaptive law the first step already brackets it,
  [0, k_x * (g(0) - i_th)].

A point counts as the root once the law's own residual there, the largest
|law(x) - x| over the complex state (the currents, or Z_v), is below tol.

`priority` and `instantaneous` are solved on the real (Re, Im) parts of the
two channel currents (i1, i2) by one driver. Their law reads the terminal
voltages off the port for the injected currents, runs the proportional
voltage loop and clips its output. Each iteration tries the whole Newton
step on G(x) = law(x) - x and keeps it only if it halves the residual;
otherwise it takes the damped step x + lam * G, with lam = 0.5 at the
start; lam halves each time the residual plateaus, and a plateau at its
floor of 0.005 is reported as a limit cycle.

The Newton step's Jacobian is exact on the piece the limiter took at the
base point (the phase that sets the common rescale and whether it binds;
priority's d/q clamps). The loop's reference is affine in the state,
ref = c + M @ i with c = k_pv * ((e_ref1, 0) - v_oc) and
M = I - k_pv * Z_port, so only the limiter needs differentiating: the
derivative `clc.limit` returns with its output gives it in CR form,
d out = A @ d ref + B @ conj(d ref), and the law's is (A @ M, B @ conj(M)).
With G's pair (A @ M - I, B @ conj(M)) the Newton step d solves the 2x2
complex widely linear system (A @ M - I) @ d + B @ conj(M) @ conj(d) = -G,
in closed form by its Schur complement (K. Kreutz-Delgado, "The complex
gradient operator and the CR-calculus", arXiv:0906.4835, 2009; see
`_newton_point`). The step is refused, and the damped step taken, where
conj(A @ M - I) or the Schur complement is exactly singular or d is not
finite. As a derivative of one smooth piece of the piecewise-smooth G, it
is an element of G's generalized Jacobian: a semismooth Newton step (L. Qi
and J. Sun, Math. Programming 58, 1993), which converges where two phase
currents tie at the cap. The state is a pair of Python complex numbers.
The driver starts from the idle start above; while the limiter is idle G
is affine and Newton solves it in one step.

The relay readings are the same fault solution at the converged terminal
currents; a shaping law's source branch enters through its terminal
currents (substitution theorem).

For the scalar roots one iteration is one evaluation of the law, the start
included. For the driver one iteration is one update of the state, by the
Newton step or the damped step; the starting state counts as the first,
and the Newton trial that is rejected is not an iteration. solver.max_iter
bounds the iterations of both.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable

from .clc import (
    _CIRCULAR,
    _INSTANTANEOUS,
    _VIRTUAL_ADMITTANCE,
    ClcConfig,
    ClcKind,
    Derivative,
    Mat2,
    clc_adaptive_impedance,
    clc_virtual_admittance,
    limit,
    max_phase_current,
)
from . import network
from .network import (
    FaultSolution,
    FaultSpec,
    InjectionElement,
    NetworkModel,
    SequenceSolution,
    SourceElement,
    solve_fault,
    solve_linear,  # noqa: F401  unused here; perfbench's tracer wraps it under this name
)
from .phasors import SequenceTriple, from_polar, inverse_fortescue
from .records import Record

__all__ = [
    "NoConvergenceError",
    "OscillationDetectedError",
    "SgModel",
    "GfmModel",
    "OperatingPoint",
    "SourceSolution",
    "prefault_solve",
    "solve_sg_fault",
    "fault_fixed_point",
    "incremental_source_impedance",
]

SOURCE_EID = "src"


class NoConvergenceError(RuntimeError):
    """Iteration exhausted its budget with a shrinking but unmet residual."""


class OscillationDetectedError(RuntimeError):
    """Iteration residual stopped decreasing (limit cycle between states)."""


class SgModel(Record):
    """Synchronous generator: emf behind fixed sequence reactances (pu)."""

    x1: float = 0.2
    x2: float = 0.2
    x0: float = 0.1

    def _check(self) -> None:
        if self.x1 <= 0.0 or self.x2 <= 0.0 or self.x0 <= 0.0:
            raise ValueError("generator sequence reactances must be positive")

    def normal_z(self) -> complex:
        """Source-branch impedance during normal operation: the reactance x1."""
        return 1j * self.x1

    def source_element(self, node: str, e1: complex) -> SourceElement:
        return SourceElement(
            SOURCE_EID, node, e1=e1, z1=1j * self.x1, z2=1j * self.x2, z0=1j * self.x0
        )


class GfmModel(Record):
    """Grid-forming converter: reference behind a current-limiting control.

    x_f is the filter reactance. It sits inside the control loop for every
    strategy except the one that shapes impedance directly on the converter
    bridge; only then (filter_in_network=True, adaptive kind) does x_f
    appear as a network branch in series with Z_v.
    """

    clc: ClcConfig = ClcConfig()
    k_pv: float = 2.0
    x_f: float = 0.15
    filter_in_network: bool = False

    def _check(self) -> None:
        if self.k_pv <= 0.0:
            raise ValueError("voltage-loop gain k_pv must be positive")
        if self.x_f < 0.0:
            raise ValueError("filter reactance must be non-negative")
        if self.filter_in_network and self.clc.kind is not ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE:
            raise ValueError(
                "filter_in_network applies only to the adaptive virtual impedance "
                "variant that shapes impedance at the bridge"
            )

    @property
    def x_f_network(self) -> float:
        """Filter reactance as seen by the network (0 when inside the loop)."""
        return self.x_f if self.filter_in_network else 0.0

    def normal_z(self) -> complex:
        """Source-branch impedance during normal (unlimited) operation.

        The admittance mode always keeps its nominal Z_v; the others hold
        the terminal voltage stiffly (zero source impedance apart from a
        network-side filter).
        """
        z = complex(0.0)
        if self.clc.kind is _VIRTUAL_ADMITTANCE:
            z += complex(self.clc.r_vn, self.clc.x_vn)
        z += 1j * self.x_f_network
        return z


class OperatingPoint(Record):
    """Pre-fault internal reference and attachment-node state (pu, peak)."""

    e_mag: float
    theta_deg: float
    v_attach: complex
    i_attach: complex
    p: float
    q: float
    # the healthy positive-sequence network with i_attach delivered at the
    # source node (substitution theorem), for the pre-fault relay readings
    healthy: SequenceSolution

    @property
    def e_ref1(self) -> complex:
        return from_polar(self.e_mag, self.theta_deg)

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)


def prefault_solve(
    net: NetworkModel,
    source: SgModel | GfmModel,
    p_ref: float = 1.0,
    q_ref: float = 0.0,
    tol: float = 1e-8,
) -> OperatingPoint:
    """Closed-form (E, theta) at which the source delivers (p_ref, q_ref) at its node.

    Powers are v * conj(i) in pu on the system base, i the positive-sequence
    current out of the source branch. Only the positive sequence carries the
    dispatch; seen from the source node its healthy network is the one-port
    v = v_oc + z_th * i, read off the positive-sequence build (v_oc from its
    base column, z_th from the source node's column; a converter's fault
    solve reads the same build), and with S = p_ref + j q_ref and t = |i|^2,
    v * conj(i) = S is the two-bus power flow |z_th|^2 t^2 - b t + |S|^2 = 0,
    b = |v_oc|^2 + 2 Re w with w = S conj(z_th). Its small-current
    (high-voltage) root t = 2 |S|^2 / (b + sqrt(disc)) gives
    i = conj((S - z_th t) / v_oc), and the emf behind the branch impedance z
    is e = v + z i; with no real root the dispatch is unreachable. Both are
    evaluated with the cancellation divided out, so that |v_oc|^2 survives
    next to a huge Re w: disc = |v_oc|^2 (|v_oc|^2 + 4 Re w) - 4 (Im w)^2 and
    S - z_th t = S (|v_oc|^2 + 2j Im w + sqrt(disc)) / (b + sqrt(disc)).
    Where |v_oc| <= 1e-9 pu, S = z_th t whatever the angle of i, so the part
    of S along z_th is met with i real. The point must meet (p_ref, q_ref)
    within tol; a closed form that overflows or divides by zero in floating
    point is unreachable too.

    The point depends on the network, the source's normal_z, p_ref, q_ref
    and tol alone, so it is one object per network object and those values
    bit for bit (`network._shared`): a grid of faults at one dispatch
    solves it, and reads its healthy relay readings, once. An unreachable
    dispatch raises on every call.
    """
    z = source.normal_z()
    what = ("dispatch", network._bitwise(z, p_ref, q_ref, tol))
    return network._shared(net, what, _dispatch, net, z, p_ref, q_ref, tol)


def _dispatch(
    net: NetworkModel, z: complex, p_ref: float, q_ref: float, tol: float
) -> OperatingPoint:
    node = net.source_node
    build = network._solve_one_sequence(net, 1)
    v_oc, z_th = build[None][node], build[node][node]
    s_ref = complex(p_ref, q_ref)
    try:
        if abs(v_oc) <= 1e-9:
            t = (s_ref * z_th.conjugate()).real / abs(z_th) ** 2 if z_th else 0.0
            i = complex(math.sqrt(max(t, 0.0)))
        elif s_ref:
            w = s_ref * z_th.conjugate()
            v_oc2 = abs(v_oc) ** 2
            b = v_oc2 + 2.0 * w.real
            disc = v_oc2 * (v_oc2 + 4.0 * w.real) - 4.0 * w.imag**2
            if not (b > 0.0 and disc >= 0.0):
                raise NoConvergenceError(
                    f"pre-fault dispatch unreachable: P + jQ = {s_ref:.6g} pu is beyond the "
                    f"transfer limit of the source node (v_oc = {v_oc:.6g}, z_th = {z_th:.6g} pu)"
                )
            root = math.sqrt(disc)
            i = (s_ref * (v_oc2 + 2j * w.imag + root) / ((b + root) * v_oc)).conjugate()
        else:
            i = 0j
        v = v_oc + z_th * i
        s = v * i.conjugate()
    except (ZeroDivisionError, OverflowError) as exc:
        fails = "overflows" if isinstance(exc, OverflowError) else "divides by zero"
        raise NoConvergenceError(
            f"pre-fault dispatch unreachable: the closed form {fails} in floating point "
            f"(v_oc = {v_oc:.6g}, z_th = {z_th:.6g} pu at the source node)"
        ) from exc
    if not max(abs(s.real - p_ref), abs(s.imag - q_ref)) < tol:
        raise NoConvergenceError(
            f"pre-fault dispatch unreachable: the closed form delivers {s:.6g} pu, not "
            f"{s_ref:.6g} pu within tol={tol:g} (|v_oc| = {abs(v_oc):.3e} pu at the source node)"
        )
    e = v + z * i
    return OperatingPoint(
        e_mag=abs(e),
        theta_deg=math.degrees(cmath.phase(e)),
        v_attach=v,
        i_attach=i,
        p=s.real,
        q=s.imag,
        healthy=SequenceSolution(
            {1: network._superpose(build, [(None, 1.0), (node, i)]), 2: {}, 0: {}}, net
        ),
    )


class SourceSolution(Record):
    """Fault-time state of the source behind bus 1, either kind (pu, peak).

    The generator is linear: one solve, no limiter, no control quantities.
    The converter's state is the converged fixed point of its limiting law.
    """

    v_t: SequenceTriple  # terminal (attachment node) voltage
    i_t: SequenceTriple  # current delivered into the network
    # source branch impedance as the network sees it, per sequence (positive,
    # negative, zero); None where a dead converter channel leaves it undefined
    z_source: tuple[complex | None, complex | None, complex]
    limiter_active: bool
    iterations: int
    residual: float
    fault: FaultSolution
    # the source frozen at this state, for the phase-domain cross-check
    frozen: SourceElement | InjectionElement
    # largest per-phase waveform amplitude the source actually carries.
    # For sinusoidal modes this is the largest phase-phasor magnitude; for
    # the clipper it is the clipped peak, which the fundamental phasor that
    # the network sees may exceed (up to 4/pi of the clip level).
    i_max_phase: float
    z_v1: complex | None = None  # (e_ref1 - v_t1) / i_t1, None if the channel is dead
    z_v2: complex | None = None  # -v_t2 / i_t2
    sigma1: complex | None = None  # saturation ratio per channel, None for shaping modes
    sigma2: complex | None = None


def solve_sg_fault(
    net: NetworkModel, sg: SgModel, spec: FaultSpec, op: OperatingPoint
) -> SourceSolution:
    """Fault solution for the linear (generator) source: one shot.

    The fault network, `net` with the generator's branch behind its emf,
    is one object per network object, generator and emf bit for bit
    (`network._shared`), so its builds and element plan are made once; the
    fault solve on it is this fault's own. Its last element is the branch.
    """
    e1 = op.e_ref1
    what = ("source", network._bitwise(*sg, e1))
    faulted = network._shared(net, what, _with_source, net, sg, e1)
    element = faulted.elements[-1]
    fault = solve_fault(faulted, spec)
    i_t = fault.total.series_current(SOURCE_EID)
    return SourceSolution(
        v_t=fault.total.voltage(net.source_node),
        i_t=i_t,
        z_source=(element.z1, element.z2, element.z0),
        limiter_active=False,
        iterations=1,
        residual=0.0,
        fault=fault,
        frozen=element,
        i_max_phase=inverse_fortescue(i_t).max_abs(),
    )


def _with_source(net: NetworkModel, sg: SgModel, e1: complex) -> NetworkModel:
    return net.with_elements(sg.source_element(net.source_node, e1))


def _ratio(num: complex, den: complex, floor: float = 1e-9) -> complex | None:
    if abs(den) < floor:
        return None
    return num / den


def _plateaued(history: list[float], window: int = 10, shrink: float = 0.95) -> bool:
    """True when the residual has stopped making real progress."""
    if len(history) < 2 * window:
        return False
    recent = history[-window:]
    earlier = history[-2 * window : -window]
    return min(recent) > shrink * min(earlier)


# the damping factor starts at _LAM and halves down to _LAM_FLOOR
_LAM = 0.5
_LAM_FLOOR = 0.005

# law(x) -> (law output, its derivative); x holds the two channel currents,
# and the derivative gives (P, Q), d law = P @ dx + Q @ conj(dx), on the
# piece the law took at x
_Pair = tuple[complex, complex]
_Law = Callable[[_Pair], tuple[_Pair, Derivative]]
# the state of a root in one real unknown: the currents, or (Z_v,)
_State = tuple[complex, ...]


def _newton_point(pq: tuple[Mat2, Mat2], x: _Pair, g: _Pair) -> _Pair | None:
    """x plus the Newton step on G = law - x, or None if singular.

    pq = (P, Q) is the law's exact derivative on the piece it took at x, so
    the step's Jacobian is an element of G's generalized Jacobian even where
    two pieces meet. The step d solves the widely linear system
    A @ d + B @ conj(d) = -g, A = P - I and B = Q. Its conjugate gives
    conj(d) = -conj(A)^-1 @ (conj(g) + conj(B) @ d), so with
    K = B @ conj(A)^-1 and the Schur complement S = A - K @ conj(B),
    S @ d = -g + K @ conj(g). K, S and the right-hand side are formed times
    det(conj(A)), through adj(conj(A)), so that only the last step divides
    and a cancellation that is exact in the system stays exact: a channel
    whose law depends on Re x_k alone gives S an exact zero row. None where
    conj(A) or S is exactly singular or d is not finite.
    """
    ((p11, p12), (p21, p22)), ((b11, b12), (b21, b22)) = pq
    a11, a22 = p11 - 1.0, p22 - 1.0
    det_a = (a11 * a22 - p12 * p21).conjugate()
    if det_a == 0:
        return None
    # adj(conj(A)), and K det_a = B @ adj(conj(A))
    c11, c12, c21, c22 = a22.conjugate(), -p12.conjugate(), -p21.conjugate(), a11.conjugate()
    k11, k12 = b11 * c11 + b12 * c21, b11 * c12 + b12 * c22
    k21, k22 = b21 * c11 + b22 * c21, b21 * c12 + b22 * c22
    n11, n12, n21, n22 = b11.conjugate(), b12.conjugate(), b21.conjugate(), b22.conjugate()
    s11 = det_a * a11 - (k11 * n11 + k12 * n21)
    s12 = det_a * p12 - (k11 * n12 + k12 * n22)
    s21 = det_a * p21 - (k21 * n11 + k22 * n21)
    s22 = det_a * a22 - (k21 * n12 + k22 * n22)
    det_s = s11 * s22 - s12 * s21
    if det_s == 0:
        return None
    g1, g2 = g
    h1, h2 = g1.conjugate(), g2.conjugate()
    r1 = k11 * h1 + k12 * h2 - det_a * g1
    r2 = k21 * h1 + k22 * h2 - det_a * g2
    d1 = (s22 * r1 - s12 * r2) / det_s
    d2 = (s11 * r2 - s21 * r1) / det_s
    if not (cmath.isfinite(d1) and cmath.isfinite(d2)):
        return None
    return x[0] + d1, x[1] + d2


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


def _gap(y: _Pair, x: _Pair) -> tuple[_Pair, float]:
    """G = y - x and the residual max|G|, nan if either |G_k| is nan."""
    g1, g2 = y[0] - x[0], y[1] - x[1]
    m1, m2 = abs(g1), abs(g2)
    return (g1, g2), math.nan if math.isnan(m1) or math.isnan(m2) else max(m1, m2)


def _drive(law: _Law, x: _Pair, tol: float, max_iter: int, name: str) -> tuple[_Pair, float, int]:
    """Solve x = law(x): semismooth Newton with a damped fixed-point fallback.

    law also gives its derivative at x (see `_newton_point`). Each
    iteration tries the Newton step and keeps it if it halves the
    residual max|law(x) - x|; otherwise it takes the damped step
    x + lam * (law(x) - x). lam starts at 0.5 and halves whenever the
    residual plateaus; a plateau at the floor is a limit cycle. Returns
    (x, residual, iterations), the starting point counting as the first
    iteration.
    """
    lam = _LAM
    y, derivative = law(x)
    g, res = _gap(y, x)
    history = [res]
    it = 1
    while res >= tol and it < max_iter:
        it += 1
        x_new = _newton_point(derivative(), x, g)
        if x_new is not None:
            y, new_derivative = law(x_new)
            g_new, res_new = _gap(y, x_new)
        if x_new is None or not res_new <= 0.5 * res:
            x_new = (x[0] + lam * g[0], x[1] + lam * g[1])
            y, new_derivative = law(x_new)
            g_new, res_new = _gap(y, x_new)
        x, derivative, g, res = x_new, new_derivative, g_new, res_new
        history.append(res)
        if res >= tol and _plateaued(history):
            if lam <= _LAM_FLOOR:
                raise OscillationDetectedError(
                    f"{name}: residual {res:.3e} stopped falling after {it} iterations "
                    f"with damping at its floor {lam:g}: limit cycle"
                )
            lam = max(_LAM_FLOOR, 0.5 * lam)
            history = [res]
    if res >= tol:
        raise NoConvergenceError(
            f"{name}: fixed point missed tol={tol:g} after {it} iterations "
            f"(last residual {res:.3e}, damping {lam:g}): slow contraction"
        )
    return x, res, it


class _ScalarLaw:
    """A fixed point in one real unknown, as the root function the bracket search sees.

    fn(x) gives (h(x), the law's residual at x, the state at x). Every call
    is one iteration against max_iter; the last state and residual are
    kept. A point whose residual is below tol reads as h = 0, the root.
    """

    def __init__(
        self,
        fn: Callable[[float], tuple[float, float, _State]],
        tol: float,
        max_iter: int,
        name: str,
    ) -> None:
        self.fn, self.tol, self.max_iter, self.name = fn, tol, max_iter, name
        self.it = 0
        self.res = math.nan
        self.state: _State = ()

    def __call__(self, x: float) -> float:
        if self.it >= self.max_iter:
            raise self.missed(f"budget spent at x = {x:.17g}")
        self.it += 1
        h, self.res, self.state = self.fn(x)
        return 0.0 if self.res < self.tol else h

    def missed(self, why: str) -> NoConvergenceError:
        return NoConvergenceError(
            f"{self.name}: fixed point missed tol={self.tol:g} after {self.it} iterations "
            f"(last residual {self.res:.3e}): {why}"
        )

    def result(self) -> tuple[_State, float, int]:
        """The state at the root, its residual and the iteration count."""
        if not self.res < self.tol:
            raise self.missed("h vanishes off the fixed point")
        return self.state, self.res, self.it


def _brent(h: _ScalarLaw, a: float, fa: float, b: float, fb: float) -> None:
    """Shrink the bracket [a, b] of h until h reads 0 at its last point.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant interpolation
    where it shrinks the bracket fast enough, bisection otherwise. fa and
    fb must differ in sign unless fb is 0 already.
    """
    if fb != 0.0 and (fa > 0.0) == (fb > 0.0):
        raise h.missed(f"no sign change on [{a:.6g}, {b:.6g}]")
    c, fc = a, fa
    d = e = b - a
    while fb != 0.0:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * sys.float_info.epsilon * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            raise h.missed(f"bracket collapsed at x = {b:.17g}")
        interpolated = False
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # take the interpolated step only where it shrinks the bracket fast enough
            interpolated = 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * e * q)
        if interpolated:
            e, d = d, p / q
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = h(b)


def fault_fixed_point(
    net: NetworkModel,
    gfm: GfmModel,
    spec: FaultSpec,
    op: OperatingPoint,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> SourceSolution:
    """Solve the current-limited fault condition on the terminal port model.

    The unknowns are the two channel injections (saturation modes) or the
    shared virtual impedance (shaping modes); the law maps them through the
    port model and the control law to their next value. `circular` and the
    shaping modes solve for one real number by `_brent`, the other two
    modes by `_drive`. The fault solution at the converged terminal
    currents gives the readings. A law that overflows or divides by zero in
    floating point raises NoConvergenceError, as the dispatch's closed form.
    """
    fault = solve_fault(net, spec, port=net.source_node)
    try:
        return _converged(gfm, op, fault, tol, max_iter)
    except (ZeroDivisionError, OverflowError) as exc:
        fails = "overflows" if isinstance(exc, OverflowError) else "divides by zero"
        raise NoConvergenceError(
            f"{gfm.clc.kind._value_}: the limiting law {fails} in floating point"
        ) from exc


def _converged(
    gfm: GfmModel, op: OperatingPoint, fault: FaultSolution, tol: float, max_iter: int
) -> SourceSolution:
    """`fault_fixed_point` on the faulted network with the converter terminal as its port."""
    cfg = gfm.clc
    name = cfg.kind._value_
    e_ref1, theta = op.e_ref1, op.theta_rad
    port = fault.terminal_port
    x_net = 1j * gfm.x_f_network

    if cfg.kind.is_saturation:
        # the reference is affine in the state, ref = c + M @ i with
        # M = I - k_pv * Z_port, so d law = A @ M @ di + B @ conj(M) @ conj(di)
        m = (
            (1.0 - gfm.k_pv * port.z11, -gfm.k_pv * port.z12),
            (-gfm.k_pv * port.z21, 1.0 - gfm.k_pv * port.z22),
        )

        def loop_refs(i1: complex, i2: complex) -> tuple[complex, complex, complex, complex]:
            v1, v2 = port.voltage(i1, i2)
            return v1, v2, gfm.k_pv * (e_ref1 - v1) + i1, gfm.k_pv * (0.0 - v2) + i2

        def sat_law(x: _Pair) -> tuple[_Pair, Derivative]:
            _, _, ref1, ref2 = loop_refs(*x)
            sat1, sat2, derivative = limit(cfg, theta, ref1, ref2)
            return (sat1, sat2), lambda: _compose(derivative(), m)

        if cfg.kind is _CIRCULAR:

            def at_scale(s: float) -> tuple[float, float, _State]:
                # i = s * ref: the emf behind the resistance (1 - s) / (k_pv s)
                x = port.current_behind(e_ref1, (1.0 - s) / (gfm.k_pv * s))
                return max_phase_current(*x) - cfg.i_lim, _gap(sat_law(x)[0], x)[1], x

            law = _ScalarLaw(at_scale, tol, max_iter, name)
            _brent(law, 0.0, -cfg.i_lim, 1.0, law(1.0))
            (i1, i2), res, it = law.result()
        else:
            # start from the currents that pin the terminal at the reference:
            # the fixed point itself when the limiter stays idle
            (i1, i2), res, it = _drive(
                sat_law, port.current_behind(e_ref1, 0j), tol, max_iter, name
            )
        v1, v2, ref1, ref2 = loop_refs(i1, i2)
        sat1, sat2, _ = limit(cfg, theta, ref1, ref2)
        if cfg.kind is _INSTANTANEOUS:
            i_peak = min(max_phase_current(ref1, ref2), cfg.clip_level)
        else:
            i_peak = max_phase_current(i1, i2)
        z_v1, z_v2 = _ratio(e_ref1 - v1, i1), _ratio(-v2, i2)
        # componentwise saturation ratio realized by each converged channel
        sigma1, sigma2 = _ratio(i1, ref1), _ratio(i2, ref2)
        active = any(
            abs(sat - ref) > 1e-12 * max(1.0, abs(ref))
            for sat, ref in ((sat1, ref1), (sat2, ref2))
        )
    else:
        # impedance-shaping modes: shared complex Z_v in both channels,
        # fixed by its reactance x through the law's X/R rule
        admittance = cfg.kind is _VIRTUAL_ADMITTANCE
        r_floor = cfg.r_vn if admittance else 0.0

        def at_reactance(x: float) -> tuple[float, float, _State]:
            z_v = complex(max(r_floor, x / cfg.n_x_r), x)
            z_branch = z_v + x_net
            i1, i2 = port.current_behind(e_ref1, z_branch)
            if admittance:
                v1, v2 = e_ref1 - z_branch * i1, -z_branch * i2
                z_target = clc_virtual_admittance(cfg, abs(e_ref1 - v1) + abs(v2))
            else:
                z_target = clc_adaptive_impedance(cfg, max_phase_current(i1, i2))
            return z_target.imag - x, abs(z_target - z_v), (z_v,)

        law = _ScalarLaw(at_reactance, tol, max_iter, name)
        x_hi = x_lo = cfg.x_vn if admittance else 0.0
        h_hi = h_lo = step = law(x_lo)
        while h_hi > 0.0:  # widen until h falls through zero
            x_lo, h_lo = x_hi, h_hi
            x_hi = x_lo + step
            h_hi = law(x_hi)
            step *= 2.0
        _brent(law, x_lo, h_lo, x_hi, h_hi)
        (z_v,), res, it = law.result()
        # the commanded shaping impedance itself, shared by both channels;
        # the realized -v/i ratio at the source node would fold the
        # in-network filter reactance into it
        z_v1 = z_v2 = z_v
        z_branch = z_v1 + x_net
        i1, i2 = port.current_behind(e_ref1, z_branch)
        v1, v2 = e_ref1 - z_branch * i1, -z_branch * i2
        sigma1 = sigma2 = None
        i_peak = max_phase_current(i1, i2)
        if admittance:
            active = abs(z_v1 - complex(cfg.r_vn, cfg.x_vn)) > 10.0 * tol
        else:
            active = abs(z_v1) > 0.0
    return SourceSolution(
        v_t=SequenceTriple(pos=v1, neg=v2, zero=0j),
        i_t=SequenceTriple(pos=i1, neg=i2, zero=0j),
        # open in the zero sequence: bus 1 sees only the transformer leg there
        z_source=(*(None if z is None else z + x_net for z in (z_v1, z_v2)), 0j),
        limiter_active=active,
        iterations=it,
        residual=res,
        fault=fault.at(i1, i2),
        frozen=InjectionElement("frozen_clc", fault.port, i1, i2),
        i_max_phase=i_peak,
        z_v1=z_v1,
        z_v2=z_v2,
        sigma1=sigma1,
        sigma2=sigma2,
    )


def incremental_source_impedance(
    i1_bus: complex, delta_i1: complex, z_v1: complex
) -> complex | None:
    """Apparent incremental impedance contributed by the control response.

    The pre- to post-fault change of the source branch voltage drop is
    Z_v1 * i1 (the pre-fault virtual impedance being zero), so seen from
    bus 1 the control adds

        Z_ad = -Z_v1 * i1 / delta_i1

    on top of the passive transfer impedance. A resistive or capacitive
    Z_ad is what pulls the incremental directional angle out of its band.
    """
    if abs(delta_i1) < 1e-9:
        return None
    return -z_v1 * i1_bus / delta_i1
