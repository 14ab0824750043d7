"""Scenario files.

A scenario is a YAML document with nested sections::

    name: pickup_level
    scenario:
      start_position_m: [0, 0, 0]
      goal_position_m: [2, 0, 0]
      anchor_position_m: [-2, 0, 3]
      segment_count: 6
    cable:
      sag_limit_m: 0.1
      unit_weight_g_per_m: 0.14
    winch:
      initial_length_m: 3.7
      payout_speed_m_s: 0.2
    limits: { ... }
    weights: { ... }
    obstacles:
      - point_m: [0, 0, 0]
        normal: [0, 0, 1]
    sim: { ... }

Every physical quantity carries its SI unit in the key name; the single
exception is the cable's ``unit_weight_g_per_m`` convenience key (grams per
meter, the way cable stock is labelled), which is converted to kg/m on load
and is mutually exclusive with ``mass_per_length_kg_per_m``.  Each other
key maps to one dataclass field (``_KEYS``); a key left out takes that
field's default, and ``cable.gravity_m_s2`` is the one gravity that both the
planner and the simulator use.  Every number must be finite.  Unknown keys
are rejected rather than ignored so a typo cannot silently fall back to a
default.  Malformed values raise :class:`~tetherpick.errors.ParseError`
naming the offending field; structurally sound values that violate a domain
invariant raise :class:`~tetherpick.errors.ValidationError`.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np
import yaml

from .cable import CableProperties, corridor_bounds_batch
from .errors import NoConvergence, ParseError, ValidationError
from .optimizer import (
    Limits,
    ObstaclePlane,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
)
from .simulation import DEFAULT_TIMESTEP, DroneParams
from .trajectory import BoundaryState

# libyaml's parser when PyYAML was built with it, about 8x faster than the
# pure-Python one; both build only plain YAML types
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_REQUIRED = object()
_REST = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RetrievalSpec:
    """Parameters for the winch-up phase after the payload is hooked."""

    attach_mass: float
    stow_length: float = 0.2

    def __post_init__(self):
        if not (self.attach_mass > 0.0 and math.isfinite(self.attach_mass)):
            raise ValidationError(
                "retrieval attach_mass must be positive and finite")
        if not (self.stow_length >= 0.0 and math.isfinite(self.stow_length)):
            raise ValidationError(
                "retrieval stow_length must be nonnegative and finite")


@dataclass(frozen=True)
class Scenario:
    """A named planning problem plus the simulation knobs that go with it."""

    name: str
    planning: PlanningScenario
    drone: DroneParams = DroneParams()
    timestep: float = DEFAULT_TIMESTEP
    retrieval: Optional[RetrievalSpec] = None

    def __post_init__(self):
        if not (self.timestep > 0.0 and math.isfinite(self.timestep)):
            raise ValidationError("sim timestep must be positive and finite")


# YAML key -> field, for each dataclass the loader builds with _build; a
# (field, reader) pair names a reader other than _Section.number.  The
# cable's unit_weight_g_per_m is converted by _parse_cable on top of this.
_KEYS = {
    PlanningScenario: {
        "goal_position_m": ("goal_position", "vector"),
        "anchor_position_m": ("anchor_position", "vector"),
        "segment_count": ("segment_count", "integer"), "yaw_rad": "yaw"},
    CableProperties: {
        "mass_per_length_kg_per_m": "mass_per_length",
        "gravity_m_s2": "gravity", "sag_limit_m": "sag_limit",
        "attachment_offset_m": "attachment_offset"},
    WinchSchedule: {
        "initial_length_m": "initial_length",
        "payout_speed_m_s": "payout_speed", "capacity_m": "capacity"},
    Limits: {
        "v_max_m_s": "v_max", "a_max_m_s2": "a_max", "j_max_m_s3": "j_max",
        "tau_min_m_s2": "tau_min", "tau_max_m_s2": "tau_max",
        "samples": ("samples", "integer"),
        "obstacle_margin_m": "obstacle_margin",
        "time_weight": "time_weight", "corridor_margin_m": "corridor_margin"},
    PenaltyWeights: {
        key: key
        for key in ("velocity", "accel_jerk", "thrust", "cable", "obstacle")},
    DroneParams: {
        "drone_mass_kg": "mass", "position_gain": "kp",
        "velocity_gain": "kd"},
    RetrievalSpec: {
        "attach_mass_kg": "attach_mass", "stow_length_m": "stow_length"},
    Scenario: {"timestep_s": "timestep"},
}


class _Section:
    """One mapping in the document, addressed by a dotted path."""

    def __init__(self, mapping, path: str):
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise ParseError(f"{path or 'document'} must be a mapping")
        self.mapping = mapping
        self.path = path
        self.seen = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def has(self, key: str) -> bool:
        self.seen.add(key)
        return key in self.mapping

    def child(self, key: str) -> "_Section":
        self.seen.add(key)
        return _Section(self.mapping.get(key), self._at(key))

    def raw(self, key: str, default=None):
        self.seen.add(key)
        return self.mapping.get(key, default)

    def _value(self, key: str, default=_REQUIRED):
        self.seen.add(key)
        if key in self.mapping:
            return self.mapping[key]
        if default is _REQUIRED:
            raise ParseError(f"missing required field {self._at(key)}")
        return default

    def number(self, key: str) -> float:
        return _as_number(self._value(key), self._at(key))

    def integer(self, key: str) -> int:
        value = self.number(key)
        if value != int(value):
            raise ParseError(f"{self._at(key)} must be an integer")
        return int(value)

    def vector(self, key: str, default=_REQUIRED) -> np.ndarray:
        value = self._value(key, default)
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ParseError(f"{self._at(key)} must be a list of 3 numbers")
        return np.array([_as_number(v, f"{self._at(key)}[{i}]")
                         for i, v in enumerate(value)])

    def text(self, key: str, default=_REQUIRED) -> str:
        value = self._value(key, default)
        if not isinstance(value, str):
            raise ParseError(f"{self._at(key)} must be a string")
        return value

    def finish(self) -> None:
        unknown = sorted(set(self.mapping) - self.seen)
        if unknown:
            raise ValidationError(
                f"unknown key {self._at(unknown[0])} "
                f"(known keys: {', '.join(sorted(self.seen))})")


def _as_number(value, where: str) -> float:
    """The one reader of scenario numbers: finite floats only."""
    # YAML 1.1 reads bare "1e4" as a string, so accept numeric strings too;
    # bools are ints in Python and must not sneak through
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"{where} must be a number")
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"{where} must be a number, got {value!r}") \
            from None
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where} must be finite")
    return number


def _build(cls, section: _Section, **given):
    """``cls`` from ``given`` plus the keys of ``_KEYS[cls]`` in ``section``.

    A key the file leaves out leaves its field at the dataclass default; the
    key of a field without a default is required.
    """
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for key, spec in _KEYS[cls].items():
        name, reader = spec if isinstance(spec, tuple) else (spec, "number")
        if section.has(key) or name in required:
            given[name] = getattr(section, reader)(key)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValidationError(f"{section.path}: {exc}") from None


def _parse_cable(section: _Section) -> CableProperties:
    if not section.has("unit_weight_g_per_m"):
        return _build(CableProperties, section)
    if section.has("mass_per_length_kg_per_m"):
        raise ValidationError(
            "cable: give unit_weight_g_per_m or mass_per_length_kg_per_m, "
            "not both")
    grams = section.number("unit_weight_g_per_m")
    return _build(CableProperties, section, mass_per_length=grams * 1e-3)


def _parse_obstacles(raw, path: str) -> Sequence[ObstaclePlane]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ParseError(f"{path} must be a list of planes")
    planes = []
    for i, entry in enumerate(raw):
        section = _Section(entry, f"{path}[{i}]")
        point = section.vector("point_m")
        normal = section.vector("normal")
        section.finish()
        # the math type insists on unit normals; scale hand-written ones
        norm = float(np.linalg.norm(normal))
        if norm <= 0.0:
            raise ValidationError(f"{path}[{i}].normal must be nonzero")
        planes.append(ObstaclePlane(point, normal / norm))
    return tuple(planes)


def _travel_time_bound(planning: PlanningScenario) -> float:
    """Least time to cover the start-to-goal distance with speed at most
    v_max and acceleration at most a_max, from the start speed."""
    v_max, a_max = planning.limits.v_max, planning.limits.a_max
    distance = float(np.linalg.norm(planning.goal_position
                                    - planning.start_state.position))
    v0 = min(float(np.linalg.norm(planning.start_state.velocity)), v_max)
    if distance < (v_max * v_max - v0 * v0) / (2.0 * a_max):
        return (math.sqrt(v0 * v0 + 2.0 * a_max * distance) - v0) / a_max
    return distance / v_max + (v_max - v0) ** 2 / (2.0 * a_max * v_max)


def _warn_if_unreachable(planning: PlanningScenario) -> None:
    """Emit a warning when the released length can never enter the goal's
    corridor less its margin (the arrival window), or leaves it before the
    droid can get there."""
    l_min, l_max = (float(edge[0]) for edge in corridor_bounds_batch(
        planning.goal_position[None, :], planning.anchor_position,
        planning.cable))
    if not math.isfinite(l_max):
        raise NoConvergence(
            f"sag-limited length solve failed at the goal: l_max = {l_max!r}")
    margin = planning.limits.corridor_margin
    low, high = l_min + margin, l_max - margin
    winch = planning.winch
    start, speed = winch.initial_length, winch.payout_speed
    if speed > 0.0:
        reachable = (start, winch.capacity)
    elif speed < 0.0:
        reachable = (0.0, start)
    else:
        reachable = (start, start)
    if reachable[1] < low or reachable[0] > high:
        warnings.warn(
            f"goal corridor less its margin [{low:.3f}, {high:.3f}] m is "
            f"outside the achievable released lengths "
            f"[{reachable[0]:.3f}, {reachable[1]:.3f}] m",
            stacklevel=3)
        return
    # the released length leaves the window through the edge it pays out
    # towards, unless the winch stops short of that edge
    if speed > 0.0 and high < winch.capacity:
        closes = (high - start) / speed
    elif speed < 0.0 and low > 0.0:
        closes = (low - start) / speed
    else:
        return
    travel = _travel_time_bound(planning)
    if closes < travel:
        warnings.warn(
            f"the released length leaves the goal corridor less its margin "
            f"at {closes:.3f} s, before the droid can get there (at least "
            f"{travel:.3f} s at v_max and a_max)", stacklevel=3)


def parse_scenario(document, name_fallback: str = "scenario") -> Scenario:
    """Build a validated Scenario from an already-loaded YAML mapping."""
    root = _Section(document, "")
    name = root.text("name", name_fallback)

    core = root.child("scenario")
    start_state = BoundaryState(
        position=core.vector("start_position_m"),
        velocity=core.vector("start_velocity_m_s", _REST),
        acceleration=core.vector("start_acceleration_m_s2", _REST),
        jerk=core.vector("start_jerk_m_s3", _REST),
    )
    goal_velocity = core.vector("goal_velocity_m_s", _REST)
    cable = root.child("cable")
    winch = root.child("winch")
    limits = root.child("limits")
    weights = root.child("weights")
    planning = _build(
        PlanningScenario, core, start_state=start_state,
        goal_velocity=goal_velocity, cable=_parse_cable(cable),
        winch=_build(WinchSchedule, winch), limits=_build(Limits, limits),
        weights=_build(PenaltyWeights, weights),
        obstacles=_parse_obstacles(root.raw("obstacles"), "obstacles"))

    sim = root.child("sim")
    retrieval = None
    if sim.has("retrieval"):
        sub = sim.child("retrieval")
        retrieval = _build(RetrievalSpec, sub)
        sub.finish()
    scenario = _build(Scenario, sim, name=name, planning=planning,
                      drone=_build(DroneParams, sim), retrieval=retrieval)
    for section in (core, cable, winch, limits, weights, sim, root):
        section.finish()
    _warn_if_unreachable(planning)
    return scenario


def load_document(path):
    """Read a scenario file into its raw mapping, without validation.

    Used directly by parameter sweeps, which patch the mapping before
    handing it to :func:`parse_scenario`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ParseError(f"invalid YAML in {path}{where}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    document = load_document(path)
    fallback = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario(document, name_fallback=fallback)
