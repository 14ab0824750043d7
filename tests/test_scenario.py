"""Scenario file parsing and validation."""

import math
import re
import warnings
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tetherpick import scenario
from tetherpick.cable import CableProperties
from tetherpick.errors import NoConvergence, ParseError, ValidationError
from tetherpick.optimizer import (
    Limits,
    ObstaclePlane,
    PenaltyWeights,
    PlanningScenario,
    WinchSchedule,
)
from tetherpick.scenario import (
    _KEYS,
    RetrievalSpec,
    Scenario,
    _travel_time_bound,
    load_document,
    load_scenario,
    parse_scenario,
)
from tetherpick.simulation import DEFAULT_TIMESTEP, DroneParams


def minimal_document(**extra):
    doc = {
        "scenario": {
            "start_position_m": [0.0, 0.0, 0.0],
            "goal_position_m": [1.0, 0.0, 0.0],
            "anchor_position_m": [0.0, 0.0, 2.0],
        },
        "winch": {"initial_length_m": 2.0, "payout_speed_m_s": 0.2},
    }
    doc.update(extra)
    return doc


def parse_quiet(doc, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_scenario(doc, **kw)


class TestMinimalDocument:
    def test_everything_else_defaults(self):
        sc = parse_quiet(minimal_document())
        assert sc.name == "scenario"
        assert sc.planning.segment_count == 6
        assert sc.planning.yaw == 0.0
        assert sc.planning.cable == CableProperties()
        assert sc.planning.winch == WinchSchedule(2.0, 0.2)
        # no capacity_m means an unbounded winch
        assert sc.planning.winch.capacity == math.inf
        assert sc.planning.limits == Limits()
        assert sc.planning.weights == PenaltyWeights()
        assert sc.planning.obstacles == ()
        assert sc.drone == DroneParams()
        assert sc.timestep == DEFAULT_TIMESTEP
        assert sc.retrieval is None

    def test_name_fallback_is_overridable(self):
        sc = parse_quiet(minimal_document(), name_fallback="from_file")
        assert sc.name == "from_file"
        sc = parse_quiet(minimal_document(name="explicit"))
        assert sc.name == "explicit"

    def test_start_derivatives_default_to_rest(self):
        sc = parse_quiet(minimal_document())
        np.testing.assert_array_equal(sc.planning.start_state.velocity, 0.0)
        np.testing.assert_array_equal(
            sc.planning.start_state.acceleration, 0.0)
        np.testing.assert_array_equal(sc.planning.start_state.jerk, 0.0)
        np.testing.assert_array_equal(sc.planning.goal_velocity, 0.0)


class TestFullDocument:
    def document(self):
        return {
            "name": "loaded",
            "scenario": {
                "start_position_m": [0, 0, 0],
                "goal_position_m": [2, 0, 1],
                "goal_velocity_m_s": [0.1, 0, 0],
                "anchor_position_m": [-2, 0, 3],
                "segment_count": 4,
                "yaw_rad": 0.3,
            },
            "cable": {
                "sag_limit_m": 0.1,
                "unit_weight_g_per_m": 0.14,
                "attachment_offset_m": -0.05,
            },
            "winch": {
                "initial_length_m": 3.7,
                "payout_speed_m_s": 0.2,
                "capacity_m": 10.0,
            },
            "limits": {
                "v_max_m_s": 2.5,
                "a_max_m_s2": 5.0,
                "samples": 24,
                "corridor_margin_m": 0.02,
            },
            "weights": {"cable": 3.0e7},
            "obstacles": [
                {"point_m": [0, 0, -0.1], "normal": [0, 0, 2.0]},
            ],
            "sim": {
                "timestep_s": 0.002,
                "drone_mass_kg": 0.75,
                "retrieval": {"attach_mass_kg": 2.0, "stow_length_m": 0.3},
            },
        }

    def test_all_sections_land(self):
        sc = parse_quiet(self.document())
        assert sc.name == "loaded"
        planning = sc.planning
        assert planning.segment_count == 4
        assert planning.yaw == pytest.approx(0.3)
        # 0.14 g/m converts to kg/m, and the derived weight picks up gravity
        assert planning.cable.mass_per_length == pytest.approx(1.4e-4)
        assert planning.cable.weight_per_length == pytest.approx(1.3734e-3)
        assert planning.cable.attachment_offset == pytest.approx(-0.05)
        assert planning.winch.capacity == pytest.approx(10.0)
        assert planning.limits.v_max == pytest.approx(2.5)
        assert planning.limits.samples == 24
        assert planning.limits.corridor_margin == pytest.approx(0.02)
        # unset limits keep their defaults alongside the overridden ones
        assert planning.limits.j_max == pytest.approx(30.0)
        assert planning.weights.cable == pytest.approx(3.0e7)
        assert planning.weights.thrust == pytest.approx(1e4)
        assert len(planning.obstacles) == 1
        np.testing.assert_allclose(planning.obstacles[0].normal, [0, 0, 1])
        assert sc.drone.mass == pytest.approx(0.75)
        assert sc.timestep == pytest.approx(0.002)
        assert sc.retrieval == RetrievalSpec(attach_mass=2.0, stow_length=0.3)

    def test_numeric_strings_accepted(self):
        # bare scientific notation reads as a string under YAML 1.1 rules
        doc = self.document()
        doc["weights"]["cable"] = "3e7"
        sc = parse_quiet(doc)
        assert sc.planning.weights.cable == pytest.approx(3e7)


class TestRejection:
    def test_missing_required_field_named(self):
        for field in ("scenario.anchor_position_m", "winch.initial_length_m",
                      "sim.retrieval.attach_mass_kg"):
            doc = full_document()
            path, key = field.rsplit(".", 1)
            del section_at(doc, path)[key]
            with pytest.raises(ParseError, match=f"missing required field "
                                                 f"{re.escape(field)}$"):
                parse_scenario(doc)

    def test_malformed_component_named_with_index(self):
        doc = minimal_document()
        doc["scenario"]["goal_position_m"] = [2.0, 0.0, "wat"]
        with pytest.raises(ParseError, match=r"goal_position_m\[2\]"):
            parse_scenario(doc)

    def test_vector_must_have_three_components(self):
        doc = minimal_document()
        doc["scenario"]["goal_position_m"] = [2.0, 0.0]
        with pytest.raises(ParseError, match="list of 3"):
            parse_scenario(doc)

    def test_bool_is_not_a_number(self):
        doc = minimal_document()
        doc["winch"]["payout_speed_m_s"] = True
        with pytest.raises(ParseError, match="payout_speed_m_s"):
            parse_scenario(doc)

    def test_segment_count_must_be_integral(self):
        doc = minimal_document()
        doc["scenario"]["segment_count"] = 2.5
        with pytest.raises(ParseError, match="must be an integer"):
            parse_scenario(doc)

    def test_unknown_key_rejected_not_ignored(self):
        doc = minimal_document()
        doc["scenario"]["goal_positionn_m"] = [1, 2, 3]
        with pytest.raises(ValidationError, match="goal_positionn_m"):
            parse_scenario(doc)

    def test_gravity_is_the_cables_alone(self):
        doc = minimal_document(sim={"gravity_m_s2": 9.81})
        with pytest.raises(ValidationError,
                           match="unknown key sim.gravity_m_s2"):
            parse_scenario(doc)

    def test_unknown_section_rejected(self):
        doc = minimal_document(winches={"initial_length_m": 2.0})
        with pytest.raises(ValidationError, match="winches"):
            parse_scenario(doc)

    def test_mass_keys_are_mutually_exclusive(self):
        doc = minimal_document(cable={
            "unit_weight_g_per_m": 0.14,
            "mass_per_length_kg_per_m": 1.4e-4,
        })
        with pytest.raises(ValidationError, match="not both"):
            parse_scenario(doc)

    def test_domain_violation_wrapped_with_section(self):
        doc = minimal_document(cable={"sag_limit_m": -0.1})
        with pytest.raises(ValidationError, match="^cable:"):
            parse_scenario(doc)

    def test_obstacles_must_be_a_list(self):
        doc = minimal_document(obstacles={"point_m": [0, 0, 0]})
        with pytest.raises(ParseError, match="obstacles"):
            parse_scenario(doc)

    def test_obstacle_errors_carry_their_index(self):
        doc = minimal_document(obstacles=[
            {"point_m": [0, 0, 0], "normal": [0, 0, 1]},
            {"point_m": [0, 0, 0]},
        ])
        with pytest.raises(ParseError, match=r"obstacles\[1\].normal"):
            parse_scenario(doc)

    def test_retrieval_mass_must_be_positive(self):
        doc = minimal_document(sim={"retrieval": {"attach_mass_kg": 0.0}})
        with pytest.raises(ValidationError, match="attach_mass"):
            parse_scenario(doc)

    def test_timestep_must_be_positive(self):
        doc = minimal_document(sim={"timestep_s": 0.0})
        with pytest.raises(ValidationError, match="timestep"):
            parse_scenario(doc)

    def test_document_must_be_a_mapping(self):
        with pytest.raises(ParseError, match="document"):
            parse_scenario(["not", "a", "mapping"])

    # the loader refuses every non-finite number before any of these is
    # built; built directly, each must refuse it too
    @pytest.mark.parametrize("build", [
        lambda: DroneParams(mass=math.nan),
        lambda: DroneParams(mass=math.inf),
        lambda: DroneParams(kp=math.nan),
        lambda: DroneParams(kd=math.inf),
        lambda: PenaltyWeights(cable=math.nan),
        lambda: PenaltyWeights(cable=math.inf),
        lambda: PenaltyWeights(velocity=-math.inf),
        lambda: Limits(corridor_margin=math.nan),
        lambda: Limits(corridor_margin=math.inf),
        lambda: Limits(v_max=math.inf),
        lambda: Limits(time_weight=math.nan),
        lambda: Limits(tau_max=math.inf),
        lambda: ObstaclePlane(point=[math.nan, 0, 0], normal=[0, 0, 1]),
        lambda: ObstaclePlane(point=[0, 0, -math.inf], normal=[0, 0, 1]),
        lambda: RetrievalSpec(attach_mass=math.inf),
        lambda: RetrievalSpec(attach_mass=1.0, stow_length=math.inf),
        lambda: Scenario("s", parse_quiet(minimal_document()).planning,
                         timestep=math.inf),
    ], ids=["mass-nan", "mass-inf", "kp-nan", "kd-inf", "cable-nan",
            "cable-inf", "velocity-neg-inf", "margin-nan", "margin-inf",
            "v_max-inf", "time_weight-nan", "tau_max-inf", "point-nan",
            "point-inf", "attach_mass-inf", "stow_length-inf",
            "timestep-inf"])
    def test_public_types_refuse_non_finite_values(self, build):
        with pytest.raises(ValidationError, match="finite"):
            build()


# where the loader reads each dataclass's keys
SECTION_OF = {
    PlanningScenario: "scenario", CableProperties: "cable",
    WinchSchedule: "winch", Limits: "limits", PenaltyWeights: "weights",
    DroneParams: "sim", RetrievalSpec: "sim.retrieval", Scenario: "sim",
}
# fields the loader fills from a section, a loader default or the file name
# rather than from one key of the dataclass's own section
FILLED_ELSEWHERE = {
    PlanningScenario: {"start_state", "goal_velocity", "winch", "cable",
                       "obstacles", "limits", "weights"},
    Scenario: {"name", "planning", "drone", "retrieval"},
}
VECTOR_KEYS = [
    *(("scenario", key) for key in (
        "start_position_m", "start_velocity_m_s", "start_acceleration_m_s2",
        "start_jerk_m_s3", "goal_position_m", "goal_velocity_m_s",
        "anchor_position_m")),
    ("obstacles[0]", "point_m"), ("obstacles[0]", "normal"),
]
NUMBER_KEYS = [
    *((SECTION_OF[cls], key) for cls, keys in _KEYS.items() for key in keys
      if (SECTION_OF[cls], key) not in VECTOR_KEYS),
    ("cable", "unit_weight_g_per_m"),
]
NON_FINITE = [math.nan, math.inf, -math.inf, "nan", "-inf", "1e999", 10 ** 400]


def field_readers(cls):
    """_KEYS[cls] as {field: reader name}, spelling out the number default."""
    return dict(spec if isinstance(spec, tuple) else (spec, "number")
                for spec in _KEYS[cls].values())


def full_document():
    return minimal_document(
        obstacles=[{"point_m": [0.0, 0.0, -1.0], "normal": [0.0, 0.0, 1.0]}],
        sim={"retrieval": {"attach_mass_kg": 2.0}})


def section_at(doc, path):
    for name in path.split("."):
        if name == "obstacles[0]":
            doc = doc["obstacles"][0]
        else:
            doc = doc.setdefault(name, {})
    return doc


class TestSchema:
    @pytest.mark.parametrize("cls", list(_KEYS), ids=lambda c: c.__name__)
    def test_every_field_is_reachable_from_a_key(self, cls):
        names = {f.name for f in fields(cls)}
        reached = set(field_readers(cls)) | FILLED_ELSEWHERE.get(cls, set())
        assert names == reached

    @pytest.mark.parametrize("cls", list(_KEYS), ids=lambda c: c.__name__)
    def test_every_field_gets_the_reader_of_its_type(self, cls):
        # resolved hints, so the guard holds whether or not the defining
        # module keeps its annotations as strings
        expected = {int: "integer", np.ndarray: "vector", float: "number"}
        hints = get_type_hints(cls)
        assert {name: expected[hints[name]]
                for name in field_readers(cls)} == field_readers(cls)

    @pytest.mark.parametrize("path, key", NUMBER_KEYS + VECTOR_KEYS)
    @given(bad=st.sampled_from(NON_FINITE), component=st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_non_finite_numbers_are_rejected_by_key(self, path, key, bad,
                                                    component):
        doc = full_document()
        section = section_at(doc, path)
        where = f"{path}.{key}"
        if (path, key) in VECTOR_KEYS:
            section[key] = [0.0, 0.0, 0.0]
            section[key][component] = bad
            where += f"[{component}]"
        else:
            section[key] = bad
        with pytest.raises((ParseError, ValidationError),
                           match=re.escape(where)):
            parse_scenario(doc)


class TestReachabilityWarning:
    def test_static_winch_below_corridor_warns(self):
        doc = minimal_document()
        doc["winch"] = {"initial_length_m": 1.0}
        with pytest.warns(UserWarning, match="outside the achievable"):
            parse_scenario(doc)

    def test_paying_out_from_short_start_is_fine(self):
        # chord at the goal is sqrt(5) and the winch can pay out past it
        parse_quiet(minimal_document())

    def test_reeling_in_from_long_start_is_fine(self):
        doc = minimal_document()
        doc["winch"] = {"initial_length_m": 5.0, "payout_speed_m_s": -0.2}
        parse_quiet(doc)

    def test_capacity_can_block_the_corridor(self):
        doc = minimal_document()
        doc["winch"] = {"initial_length_m": 1.0, "payout_speed_m_s": 0.2,
                        "capacity_m": 2.0}
        with pytest.warns(UserWarning, match="outside the achievable"):
            parse_scenario(doc)

    def test_capacity_short_of_the_margin_warns(self, shipped_scenario_dir):
        # the goal's chord is 5 m and its margin 0.02 m: a winch that stops
        # at 5.01 m never enters the window, and the plan ends with its
        # cable hinge open
        doc = load_document(shipped_scenario_dir / "pickup_level.yaml")
        doc["winch"]["capacity_m"] = 5.01
        with pytest.warns(UserWarning, match=r"less its margin \[5.020, "):
            parse_scenario(doc)

    def test_window_closing_before_arrival_warns(self, shipped_scenario_dir):
        """The released length is inside the goal's corridor less its margin
        only for T in [0.607, 1.225] s; covering the 2.33 m at 2 m/s takes
        1.164 s, and reaching 2 m/s from rest at 6 m/s^2 adds 0.167 s."""
        doc = load_document(shipped_scenario_dir / "pickup_high.yaml")
        doc["scenario"]["goal_position_m"] = [1.577, -0.012, 1.713]
        doc["cable"]["sag_limit_m"] = 0.066
        with pytest.warns(UserWarning, match="at 1.225 s, before the droid "
                                             r"can get there \(at least 1.331 s"):
            parse_scenario(doc)

    def test_moving_start_shortens_the_travel_bound(self,
                                                    shipped_scenario_dir):
        # moving at about v_max towards the goal, the droid can cover the
        # 2.33 m in 1.165 s, inside the window that closes at 1.225 s
        doc = load_document(shipped_scenario_dir / "pickup_high.yaml")
        doc["scenario"]["goal_position_m"] = [1.577, -0.012, 1.713]
        doc["scenario"]["start_velocity_m_s"] = [1.355, -0.01, 1.47]
        doc["cable"]["sag_limit_m"] = 0.066
        parse_quiet(doc)

    @pytest.mark.parametrize("goal_x, speed, want", [
        (0.2, 0.0, math.sqrt(2 * 0.2 / 6.0)),   # never reaches v_max
        (3.0, 0.0, 3.0 / 2.0 + 2.0 / 12.0),     # accelerates, then cruises
        (3.0, 2.0, 3.0 / 2.0),                  # cruises from the start
        (0.2, 1.0, (math.sqrt(1.0 + 2 * 6.0 * 0.2) - 1.0) / 6.0),
    ])
    def test_travel_time_bound(self, goal_x, speed, want):
        doc = minimal_document()
        doc["scenario"]["goal_position_m"] = [goal_x, 0.0, 0.0]
        doc["scenario"]["start_velocity_m_s"] = [speed, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            planning = parse_scenario(doc).planning
        assert _travel_time_bound(planning) == pytest.approx(want, rel=1e-12)

    def test_reeling_in_past_the_window_warns(self):
        # reeling in at 2 m/s, the released length reaches the goal's chord
        # sqrt(5) m after 0.38 s; the 1 m hop takes at least 0.667 s
        doc = minimal_document()
        doc["winch"] = {"initial_length_m": 3.0, "payout_speed_m_s": -2.0}
        with pytest.warns(UserWarning, match="at 0.382 s, before the droid"):
            parse_scenario(doc)

    @pytest.mark.parametrize("goal_z", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("sag", [0.05, 0.2])
    def test_benchmark_grid_points_load_clean(self, goal_z, sag,
                                              shipped_scenario_dir):
        """The benchmark's sweep grid over pickup_level plans clean, so
        none of its points may warn."""
        doc = load_document(shipped_scenario_dir / "pickup_level.yaml")
        doc["scenario"]["goal_position_m"][2] = goal_z
        doc["cable"]["sag_limit_m"] = sag
        parse_quiet(doc)

    def test_non_finite_goal_corridor_raises(self):
        doc = minimal_document(cable={"sag_limit_m": 0.1})
        doc["scenario"]["goal_position_m"] = [1e308, 0.0, -1e308]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                pytest.raises(NoConvergence):
            parse_scenario(doc)


class TestLoadScenario:
    def test_round_trip_and_name_fallback(self, tmp_path):
        path = tmp_path / "hop_across.yaml"
        path.write_text(
            "scenario:\n"
            "  start_position_m: [0, 0, 0]\n"
            "  goal_position_m: [1, 0, 0]\n"
            "  anchor_position_m: [0, 0, 2]\n"
            "winch:\n"
            "  initial_length_m: 2.0\n"
            "  payout_speed_m_s: 0.2\n")
        sc = load_scenario(path)
        assert sc.name == "hop_across"
        np.testing.assert_allclose(sc.planning.goal_position, [1, 0, 0])

    def test_invalid_yaml_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario:\n  start_position_m: [0, 0, 0\n")
        with pytest.raises(ParseError, match="line"):
            load_scenario(path)

    LOADERS = [yaml.SafeLoader] + (
        [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

    @pytest.mark.parametrize("loader", LOADERS)
    def test_malformed_file_names_its_line_under_either_loader(
            self, monkeypatch, tmp_path, loader):
        monkeypatch.setattr(scenario, "_LOADER", loader)
        path = tmp_path / "broken.yaml"
        path.write_text("scenario:\n  start_position_m: [0, 0, 0]\n"
                        "  goal_position_m: [1, 0\n  segment_count: 4\n")
        with pytest.raises(ParseError, match="at line 4"):
            load_scenario(path)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_python_tags_are_refused_under_either_loader(
            self, monkeypatch, tmp_path, loader):
        monkeypatch.setattr(scenario, "_LOADER", loader)
        path = tmp_path / "tagged.yaml"
        path.write_text("name: !!python/object/apply:os.getcwd []\n")
        with pytest.raises(ParseError, match="invalid YAML"):
            load_document(path)

    @pytest.mark.parametrize("name", [
        "pickup_level", "pickup_mid", "pickup_high"])
    def test_shipped_files_parse_equal_under_either_loader(
            self, name, shipped_scenario_dir):
        path = shipped_scenario_dir / f"{name}.yaml"
        text = path.read_text(encoding="utf-8")
        document = load_document(path)
        for loader in self.LOADERS:
            assert yaml.load(text, Loader=loader) == document

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(tmp_path / "nope.yaml")


class TestShippedScenarios:
    @pytest.mark.parametrize("name", [
        "pickup_level", "pickup_mid", "pickup_high"])
    def test_loads_clean(self, name, shipped_scenario_dir):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = load_scenario(shipped_scenario_dir / f"{name}.yaml")
        assert sc.name == name
        assert sc.retrieval is not None
        assert sc.planning.limits.corridor_margin > 0.0
