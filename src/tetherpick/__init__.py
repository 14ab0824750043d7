"""Planning and simulation toolkit for cable-suspended aerial pickup."""

from .cable import CableProperties, corridor_bounds_batch
from .errors import (
    DegenerateThrust,
    NoConvergence,
    OutOfDomain,
    ParseError,
    SingularSystem,
    TetherpickError,
    ValidationError,
)
from .optimizer import (
    CostBreakdown,
    Limits,
    ObstaclePlane,
    OptimizeResult,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
    corridor_profile,
    corridor_violation,
    initial_guess,
    optimize,
    total_cost,
)
from .scenario import RetrievalSpec, Scenario, load_scenario, parse_scenario
from .simulation import (
    DroneParams,
    TelemetryLog,
    simulate_pickup,
    simulate_retrieval,
)
from .trajectory import BoundaryState, Trajectory, construct

__version__ = "0.1.0"

__all__ = [
    "BoundaryState",
    "CableProperties",
    "CostBreakdown",
    "DegenerateThrust",
    "DroneParams",
    "Limits",
    "NoConvergence",
    "ObstaclePlane",
    "OptimizeResult",
    "OutOfDomain",
    "ParseError",
    "PenaltyWeights",
    "PlanningScenario",
    "RetrievalSpec",
    "Scenario",
    "SingularSystem",
    "TelemetryLog",
    "TetherpickError",
    "Trajectory",
    "ValidationError",
    "WinchSchedule",
    "construct",
    "corridor_bounds_batch",
    "corridor_profile",
    "corridor_violation",
    "initial_guess",
    "load_scenario",
    "optimize",
    "parse_scenario",
    "simulate_pickup",
    "simulate_retrieval",
    "total_cost",
    "__version__",
]
