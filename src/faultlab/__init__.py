"""Phasor-domain short-circuit laboratory for current-limited grid-forming
sources and the protective relay elements that supervise them.

Layers, bottom up: phasors (symmetrical components and angle arithmetic),
network (sequence elements and the linear fault solve), abc_oracle
(independent phase-coordinate re-solve), clc (current-limiting laws and the
one saturation limiter), sources (generator and converter models, the
prefault dispatch, the fault fixed point), relay (directional and
phase-selection elements), scenario/presets (configuration and per-unit
bases), harness/report/cli (execution and output).
"""

from .clc import ClcConfig, ClcKind
from .network import FaultSpec, FaultType, NetworkModel, Placement
from .phasors import PhaseTriple, SequenceTriple, fortescue, inverse_fortescue
from .relay import Direction, RelaySettings
from .scenario import ConfigError, ParseError, Scenario, ValidationError, build_scenario
from .sources import GfmModel, NoConvergenceError, OscillationDetectedError, SgModel

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ClcConfig",
    "ClcKind",
    "FaultSpec",
    "FaultType",
    "NetworkModel",
    "Placement",
    "PhaseTriple",
    "SequenceTriple",
    "fortescue",
    "inverse_fortescue",
    "Direction",
    "RelaySettings",
    "ConfigError",
    "ParseError",
    "Scenario",
    "ValidationError",
    "build_scenario",
    "GfmModel",
    "NoConvergenceError",
    "OscillationDetectedError",
    "SgModel",
]
