"""End-to-end harness tests driving the CLI in process.

What a verb imports is checked in a fresh interpreter instead, because the
test process has imported scipy, a test-only oracle, long before.
"""

import concurrent.futures
import csv
import dataclasses
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tetherpick import cli, scenario
from tetherpick.cli import (
    COEFFICIENT_HEADER,
    _apply_override,
    _parse_grid,
    _write_csv,
    _write_matrix,
    read_trajectory_artifact,
    run,
    write_trajectory_artifact,
)
from tetherpick.errors import ParseError
from tetherpick.optimizer import corridor_profile
from tetherpick.simulation import TELEMETRY_COLUMNS
from tetherpick.trajectory import BoundaryState, Trajectory, construct

# trimmed segment/sample counts keep each plan under a second
FAST_SCENARIO = """\
scenario:
  start_position_m: [0, 0, 0]
  goal_position_m: [2, 0, 0]
  anchor_position_m: [-2, 0, 3]
  segment_count: 4
cable:
  sag_limit_m: 0.1
  unit_weight_g_per_m: 0.14
winch:
  initial_length_m: 3.7
  payout_speed_m_s: 0.2
  capacity_m: 10.0
limits:
  samples: 16
  corridor_margin_m: 0.02
weights:
  cable: 3.0e7
sim:
  timestep_s: 0.002
  retrieval:
    attach_mass_kg: 1.5
    stow_length_m: 0.6
"""


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def rows_without_wall_time(path):
    rows = read_rows(path)
    drop = rows[0].index("wall_time_s")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_run(script, *argv):
    """Run ``script`` with ``argv`` in a new interpreter that imports
    tetherpick from this checkout, and return the JSON of its last line."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r})\n{script}", *argv],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture()
def fast_scenario(tmp_path):
    path = tmp_path / "hop.yaml"
    path.write_text(FAST_SCENARIO)
    return path


@pytest.fixture()
def planned_dir(fast_scenario, tmp_path):
    out = tmp_path / "out"
    assert run(["plan", "--scenario", str(fast_scenario),
                "--out", str(out)]) == 0
    return out


class TestPlan:
    def test_writes_all_four_artifacts(self, planned_dir):
        for suffix in ("trajectory", "corridor", "coefficients", "breakdown"):
            assert (planned_dir / f"hop_{suffix}.csv").exists()

    def test_corridor_rows_stay_ordered(self, planned_dir):
        rows = read_rows(planned_dir / "hop_corridor.csv")
        assert rows[0] == ["t", "L_min", "L_now", "L_max"]
        data = np.array(rows[1:], dtype=float)
        assert np.all(data[:, 1] <= data[:, 2] + 1e-12)
        assert np.all(data[:, 2] <= data[:, 3] + 1e-12)

    def test_trajectory_csv_header(self, planned_dir):
        rows = read_rows(planned_dir / "hop_trajectory.csv")
        assert rows[0] == ["t", "x", "y", "z",
                           "vx", "vy", "vz", "ax", "ay", "az"]
        # dense grid: factor 10 of the 16 planning samples, plus both ends
        assert len(rows) == 1 + 161

    def test_reruns_are_byte_identical(self, fast_scenario, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run(["plan", "--scenario", str(fast_scenario),
                        "--out", str(out), "--seed", "7"]) == 0
        for suffix in ("trajectory", "corridor", "coefficients", "breakdown"):
            a = (first / f"hop_{suffix}.csv").read_bytes()
            b = (second / f"hop_{suffix}.csv").read_bytes()
            assert a == b, suffix

    def test_fixed_duration_is_respected(self, fast_scenario, tmp_path):
        out = tmp_path / "fixed"
        assert run(["plan", "--scenario", str(fast_scenario),
                    "--out", str(out), "--fixed-duration", "6.6"]) == 0
        rows = dict(read_rows(out / "hop_breakdown.csv")[1:])
        assert float(rows["duration_s"]) == pytest.approx(6.6)

    def test_breakdown_records_why_the_plan_ended(self, planned_dir):
        rows = read_rows(planned_dir / "hop_breakdown.csv")
        names = [row[0] for row in rows]
        at = names.index("status")
        assert names[at + 1] == "message"
        assert rows[at][1] == "converged"
        assert rows[at + 1][1] in ("gradient below gtol",
                                   "relative reduction of J below ftol")

    def test_blocked_corridor_exits_four(self, tmp_path, recwarn):
        # capacity pins the released length below the chord at the goal, so
        # the dense re-check must fail and the exit code must say corridor
        text = FAST_SCENARIO.replace("capacity_m: 10.0", "capacity_m: 4.5")
        path = tmp_path / "blocked.yaml"
        path.write_text(text)
        assert run(["plan", "--scenario", str(path),
                    "--out", str(tmp_path / "o")]) == 4

    def test_invalid_scenario_exits_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario:\n  start_position_m: [0, 0]\n")
        assert run(["plan", "--scenario", str(path),
                    "--out", str(tmp_path)]) == 2

    def test_non_finite_scenario_value_exits_two_naming_the_key(
            self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(FAST_SCENARIO.replace(
            "start_position_m: [0, 0, 0]", "start_position_m: [.inf, 0, 0]"))
        assert run(["plan", "--scenario", str(path),
                    "--out", str(tmp_path)]) == 2
        assert "scenario.start_position_m[0]" in capsys.readouterr().err

    def test_winch_beyond_its_capacity_exits_two_naming_the_key(
            self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(FAST_SCENARIO.replace("capacity_m: 10.0",
                                              "capacity_m: 3.0"))
        assert run(["plan", "--scenario", str(path),
                    "--out", str(tmp_path)]) == 2
        assert "winch initial_length must not exceed its capacity" \
            in capsys.readouterr().err

    def test_non_finite_fixed_duration_exits_two(self, fast_scenario,
                                                 tmp_path, capsys):
        assert run(["plan", "--scenario", str(fast_scenario),
                    "--out", str(tmp_path), "--fixed-duration", "inf"]) == 2
        assert "fixed duration" in capsys.readouterr().err

    def test_dense_check_factor_below_one_exits_two(self, fast_scenario,
                                                    tmp_path, capsys):
        out = tmp_path / "plan"
        assert run(["plan", "--scenario", str(fast_scenario),
                    "--out", str(out), "--dense-check-factor", "0"]) == 2
        assert "--dense-check-factor" in capsys.readouterr().err
        assert not out.exists()


class TestTrajectoryArtifact:
    def make_traj(self):
        start = BoundaryState.at_rest([0.0, 0.0, 0.0])
        waypoints = [[0.4, 0.1, 0.2], [0.9, -0.1, 0.3]]
        return construct(waypoints, 2.7, start, [1.5, 0.0, 0.5],
                         [0.0, 0.0, 0.0])

    def test_round_trip_within_format_precision(self, tmp_path):
        # the artifact stores 9 significant digits, so the round trip is
        # close rather than bit-exact
        traj = self.make_traj()
        path = tmp_path / "traj.csv"
        write_trajectory_artifact(path, traj)
        back = read_trajectory_artifact(path)
        np.testing.assert_allclose(back.coefficients, traj.coefficients,
                                   rtol=1e-8, atol=1e-12)
        assert back.segment_duration == pytest.approx(traj.segment_duration,
                                                      rel=1e-8)

    def test_header_is_stable(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_artifact(path, self.make_traj())
        rows = read_rows(path)
        assert tuple(rows[0]) == COEFFICIENT_HEADER
        assert len(rows) == 1 + 3 * 3  # three segments, three axes

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_trajectory_artifact(tmp_path / "absent.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="not a trajectory artifact"):
            read_trajectory_artifact(path)

    def test_missing_rows_rejected(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "traj.csv"
        write_trajectory_artifact(path, traj)
        rows = read_rows(path)
        path.write_text("\n".join(",".join(r) for r in rows[:-1]) + "\n")
        with pytest.raises(ParseError, match="missing segment/axis"):
            read_trajectory_artifact(path)

    def edited_artifact(self, tmp_path, edit):
        """An artifact of make_traj whose body rows went through ``edit``."""
        path = tmp_path / "traj.csv"
        write_trajectory_artifact(path, self.make_traj())
        header, *body = read_rows(path)
        rows = [header, *edit(body)]
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        return path

    def test_segment_outside_range_rejected(self, tmp_path):
        # an extra segment -1 would overwrite the last segment's row
        path = self.edited_artifact(
            tmp_path, lambda body: body + [["-1", *body[-1][1:]]])
        with pytest.raises(ParseError, match=r"segment -1 outside \[0, 3\)"):
            read_trajectory_artifact(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = self.edited_artifact(tmp_path, lambda body: body + [body[4]])
        with pytest.raises(ParseError, match="repeats segment 1 axis y"):
            read_trajectory_artifact(path)

    def test_segment_count_below_one_rejected(self, tmp_path):
        path = self.edited_artifact(
            tmp_path, lambda body: [[*row[:9], "0"] for row in body])
        with pytest.raises(ParseError, match="N >= 1"):
            read_trajectory_artifact(path)

    def test_huge_segment_count_exits_two_before_allocating(
            self, fast_scenario, tmp_path, capsys):
        # one body row claiming 1e15 segments would ask numpy for 128 PiB
        path = self.edited_artifact(
            tmp_path, lambda body: [[*body[0][:9], "1000000000000000"]])
        code = run(["simulate", "--scenario", str(fast_scenario),
                    "--trajectory", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "missing segment/axis rows" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_coefficient_rejected(self, tmp_path, value):
        path = self.edited_artifact(
            tmp_path, lambda body: [body[0][:4] + [value] + body[0][5:],
                                    *body[1:]])
        with pytest.raises(ParseError, match="non-finite coefficients"):
            read_trajectory_artifact(path)

    @pytest.mark.parametrize("dt", ["0", "inf", "-0.5", "nan"])
    def test_bad_segment_duration_exits_two(self, fast_scenario, tmp_path,
                                            capsys, dt):
        path = self.edited_artifact(
            tmp_path, lambda body: [[*row[:8], dt, row[9]] for row in body])
        code = run(["simulate", "--scenario", str(fast_scenario),
                    "--trajectory", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "finite dT > 0" in capsys.readouterr().err


class TestSimulate:
    def test_flies_the_planned_artifact(self, fast_scenario, planned_dir,
                                        capsys):
        code = run(["simulate", "--scenario", str(fast_scenario),
                    "--out", str(planned_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "max tracking error" in printed
        assert "peak tether tension" in printed
        rows = read_rows(planned_dir / "hop_telemetry.csv")
        assert tuple(rows[0]) == TELEMETRY_COLUMNS
        t = np.array([float(r[0]) for r in rows[1:]])
        assert np.all(np.diff(t) > 0.0)

    def test_attachment_offset_reaches_the_telemetry_corridor(self,
                                                             tmp_path):
        """With the hook 5 cm above the droid, the flight's corridor columns
        are the planner's corridor_profile at the flown positions."""
        path = tmp_path / "hop.yaml"
        path.write_text(FAST_SCENARIO.replace(
            "  sag_limit_m: 0.1\n",
            "  sag_limit_m: 0.1\n  attachment_offset_m: 0.05\n"))
        out = tmp_path / "out"
        assert run(["plan", "--scenario", str(path), "--out", str(out)]) == 0
        assert run(["simulate", "--scenario", str(path),
                    "--out", str(out)]) == 0
        rows = read_rows(out / "hop_telemetry.csv")
        table = np.array(rows[1:], dtype=float)
        column = {name: table[:, rows[0].index(name)]
                  for name in ("x", "y", "z", "l_min", "l_max")}
        flown = np.column_stack([column["x"], column["y"], column["z"]])
        # the piecewise-linear path through the flown positions, one
        # segment per step, so corridor_profile samples exactly those
        steps = flown.shape[0] - 1
        coefficients = np.zeros((steps, 6, 3))
        coefficients[:, 0] = flown[:-1]
        coefficients[:, 1] = np.diff(flown, axis=0)
        path_traj = Trajectory(coefficients, 1.0)
        planning = scenario.load_scenario(path).planning
        assert planning.cable.attachment_offset == 0.05
        _, l_min, _, l_max = corridor_profile(path_traj, planning, steps)
        np.testing.assert_allclose(column["l_min"], l_min, rtol=2e-8)
        np.testing.assert_allclose(column["l_max"], l_max, rtol=2e-8)
        hookless = dataclasses.replace(
            planning, cable=dataclasses.replace(planning.cable,
                                                attachment_offset=0.0))
        _, l_min_0, _, _ = corridor_profile(path_traj, hookless, steps)
        assert np.min(np.abs(l_min_0 - l_min)) > 1e-3

    def test_reruns_are_byte_identical(self, fast_scenario, planned_dir,
                                       tmp_path):
        artifact = planned_dir / "hop_coefficients.csv"
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run(["simulate", "--scenario", str(fast_scenario),
                        "--out", str(out), "--trajectory", str(artifact),
                        "--retrieve"]) == 0
        for suffix in ("telemetry", "retrieval"):
            a = (first / f"hop_{suffix}.csv").read_bytes()
            b = (second / f"hop_{suffix}.csv").read_bytes()
            assert a == b, suffix

    def test_missing_artifact_exits_two(self, fast_scenario, tmp_path):
        assert run(["simulate", "--scenario", str(fast_scenario),
                    "--out", str(tmp_path / "empty")]) == 2

    def test_retrieve_only_duration_matches_reel_rate(self, fast_scenario,
                                                      tmp_path):
        out = tmp_path / "retrieval"
        assert run(["simulate", "--scenario", str(fast_scenario),
                    "--out", str(out), "--retrieve-only"]) == 0
        rows = read_rows(out / "hop_retrieval.csv")
        assert tuple(rows[0]) == TELEMETRY_COLUMNS
        # 3.7 m released, stow at 0.6 m, reeling at the scenario's 0.2 m/s
        final_t = float(rows[-1][0])
        assert final_t == pytest.approx((3.7 - 0.6) / 0.2, abs=0.01)

    def test_timed_out_retrieval_is_not_reported_as_stowed(
            self, fast_scenario, tmp_path, capsys, monkeypatch):
        # 3.7 m released, stow at 0.6 m, reeling at 0.2 m/s needs 15.5 s
        monkeypatch.setattr(cli, "simulate_retrieval", functools.partial(
            cli.simulate_retrieval, max_time=1.0))
        out = tmp_path / "retrieval"
        assert run(["simulate", "--scenario", str(fast_scenario),
                    "--out", str(out), "--retrieve-only"]) == 0
        rows = read_rows(out / "hop_retrieval.csv")
        last = dict(zip(rows[0], rows[-1]))
        assert float(last["t"]) == pytest.approx(1.0)
        assert float(last["l_now"]) == pytest.approx(3.5)
        printed = capsys.readouterr().out
        assert "to reach stow length" not in printed
        assert "stopped at 1.000 s with 3.5 m released, short of stow " \
            "length 0.6 m" in printed

    @pytest.mark.parametrize("mass", ["nan", "inf"])
    def test_non_finite_attach_mass_exits_two(self, fast_scenario, tmp_path,
                                              capsys, mass):
        assert run(["simulate", "--scenario", str(fast_scenario),
                    "--out", str(tmp_path), "--retrieve-only",
                    "--attach-mass", mass]) == 2
        assert "attach mass" in capsys.readouterr().err

    def test_retrieval_needs_a_mass(self, tmp_path):
        text = FAST_SCENARIO[:FAST_SCENARIO.index("  retrieval:")]
        path = tmp_path / "no_mass.yaml"
        path.write_text(text)
        assert run(["simulate", "--scenario", str(path),
                    "--out", str(tmp_path / "o"), "--retrieve-only"]) == 2


class TestSweep:
    def test_two_point_grid(self, fast_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out),
                    "--grid", "scenario.goal_position_m[2]=0.25,0.5"])
        assert code == 0
        rows = read_rows(out / "hop_sweep.csv")
        assert rows[0][0] == "scenario.goal_position_m[2]"
        assert rows[0][1:4] == ["success", "status", "iterations"]
        assert "wall_time_s" in rows[0]
        assert len(rows) == 3
        assert [r[1] for r in rows[1:]] == ["1", "1"]
        assert "2/2" in capsys.readouterr().out

    def test_failures_are_recorded_not_fatal(self, fast_scenario, tmp_path):
        out = tmp_path / "sweep"
        code = run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out),
                    "--grid", "cable.sag_limit_m=-0.1,0.1"])
        assert code == 0
        rows = read_rows(out / "hop_sweep.csv")
        header = rows[0]
        bad = dict(zip(header, rows[1]))
        good = dict(zip(header, rows[2]))
        assert bad["success"] == "0" and "sag" in bad["error"]
        assert good["success"] == "1" and good["error"] == ""

    def test_reads_the_scenario_file_once(self, fast_scenario, tmp_path,
                                          monkeypatch):
        reads = []
        real = scenario.load_document

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(scenario, "load_document", counting)
        monkeypatch.setattr(cli, "load_document", counting)
        out = tmp_path / "sweep"
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out), "--grid", "cable.sag_limit_m=-0.1"]) \
            == 0
        assert reads == [str(fast_scenario)]
        assert (out / "hop_sweep.csv").exists()

    def test_requires_a_grid(self, fast_scenario, tmp_path):
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(tmp_path)]) == 2

    def test_non_finite_fixed_duration_is_a_usage_error(
            self, fast_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out), "--fixed-duration", "inf",
                    "--grid", "scenario.goal_position_m[2]=0.25"]) == 2
        assert "--fixed-duration" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_check_factor_below_one_is_a_usage_error(
            self, fast_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out), "--dense-check-factor", "-1",
                    "--grid", "scenario.goal_position_m[2]=0.25"]) == 2
        assert "--dense-check-factor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, fast_scenario, tmp_path,
                                             capsys, jobs):
        out = tmp_path / "sweep"
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(out), "--jobs", jobs,
                    "--grid", "scenario.goal_position_m[2]=0.25"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, points, workers",
                             [(8, 2, 2), (2, 3, 2), (4, 1, None)])
    def test_pool_is_sized_by_jobs_and_points(self, fast_scenario, tmp_path,
                                              monkeypatch, jobs, points,
                                              workers):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        values = ",".join(str(0.25 * (i + 1)) for i in range(points))
        assert run(["sweep", "--scenario", str(fast_scenario),
                    "--out", str(tmp_path), "--jobs", str(jobs),
                    "--grid", f"scenario.goal_position_m[2]={values}"]) == 0
        assert pools == ([] if workers is None else [workers])
        assert len(read_rows(tmp_path / "hop_sweep.csv")) == points + 1

    def test_parallel_matches_serial_except_wall_time(self, fast_scenario,
                                                      tmp_path):
        outs = {}
        for jobs, key in ((1, "serial"), (2, "parallel")):
            out = tmp_path / key
            assert run(["sweep", "--scenario", str(fast_scenario),
                        "--out", str(out), "--jobs", str(jobs),
                        "--grid", "scenario.goal_position_m[2]=0.25,0.5"]) \
                == 0
            outs[key] = rows_without_wall_time(out / "hop_sweep.csv")
        assert outs["serial"] == outs["parallel"]


class TestImports:
    """The CLI loads numpy.random and the process pool only in the verbs
    that use them, and no verb loads scipy: the runtime is numpy and PyYAML
    alone."""

    LAZY = ("scipy", "numpy.random", "concurrent.futures.process")

    def test_importing_the_cli_loads_none_of_the_lazy_modules(self):
        loaded = fresh_run(
            "import json\nimport tetherpick.cli\n"
            f"print(json.dumps([m for m in {self.LAZY!r} "
            "if m in sys.modules]))")
        assert loaded == []

    VERB = """
import json
from tetherpick import cli
code = cli.run(sys.argv[1:])
print(json.dumps([code, "scipy" in sys.modules]))
"""

    def test_plan_never_loads_scipy(self, fast_scenario, tmp_path):
        code, scipy_loaded = fresh_run(self.VERB, "plan", "--scenario",
                                       str(fast_scenario), "--out",
                                       str(tmp_path))
        assert code == 0 and not scipy_loaded

    def test_parallel_sweep_never_loads_scipy(self, fast_scenario,
                                              tmp_path):
        """Neither before the pool forks its workers nor after they are
        done does the parent hold a scipy module."""
        script = """
import concurrent.futures, json
from tetherpick import cli
RealPool = concurrent.futures.ProcessPoolExecutor
seen = []
class RecordingPool(RealPool):
    def __init__(self, *args, **kwargs):
        seen.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        super().__init__(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = RecordingPool
code = cli.run(sys.argv[1:])
print(json.dumps([code, seen, "scipy" in sys.modules]))
"""
        code, seen, scipy_loaded = fresh_run(
            script, "sweep", "--scenario", str(fast_scenario), "--out",
            str(tmp_path), "--jobs", "2",
            "--grid", "scenario.goal_position_m[2]=0.25,0.5")
        assert code == 0 and seen == [[]] and not scipy_loaded

    def test_plan_runs_without_scipy(self, fast_scenario, tmp_path):
        """With scipy made unimportable, plan still succeeds."""
        script = 'sys.modules["scipy"] = None\n' + self.VERB
        code, _ = fresh_run(script, "plan", "--scenario", str(fast_scenario),
                            "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "hop_breakdown.csv").exists()

    def test_check_never_loads_scipy(self, tmp_path):
        code, scipy_loaded = fresh_run(self.VERB, "check", "--out",
                                       str(tmp_path))
        assert code == 0 and not scipy_loaded

    def test_retrieval_never_loads_scipy(self, shipped_scenario_dir,
                                         tmp_path):
        code, scipy_loaded = fresh_run(
            self.VERB, "simulate", "--scenario",
            str(shipped_scenario_dir / "pickup_level.yaml"),
            "--out", str(tmp_path), "--retrieve-only")
        assert code == 0 and not scipy_loaded
        assert (tmp_path / "pickup_level_retrieval.csv").exists()

    def test_flight_and_retrieval_never_load_scipy(self, planned_dir,
                                                   fast_scenario):
        code, scipy_loaded = fresh_run(
            self.VERB, "simulate", "--scenario", str(fast_scenario),
            "--out", str(planned_dir), "--retrieve")
        assert code == 0 and not scipy_loaded
        assert (planned_dir / "hop_telemetry.csv").exists()
        assert (planned_dir / "hop_retrieval.csv").exists()


class TestGridParsing:
    def test_inclusive_range(self):
        path, values = _parse_grid("scenario.goal_position_m[2]=0:2:0.25")
        assert path == "scenario.goal_position_m[2]"
        assert len(values) == 9
        assert values[0] == 0.0 and values[-1] == pytest.approx(2.0)

    def test_comma_list_mixes_types(self):
        _, values = _parse_grid("weights.cable=1e4,3e7")
        assert values == [1e4, 3e7]

    def test_rejects_empty_values(self):
        with pytest.raises(ParseError):
            _parse_grid("weights.cable=")
        with pytest.raises(ParseError):
            _parse_grid("weights.cable")

    def test_rejects_descending_range(self):
        with pytest.raises(ParseError, match="ascend"):
            _parse_grid("x=2:0:0.5")

    def test_override_walks_sections_and_indices(self):
        doc = {"scenario": {"goal_position_m": [1.0, 0.0, 0.0]}}
        _apply_override(doc, "scenario.goal_position_m[2]", 1.5)
        _apply_override(doc, "weights.cable", 3e7)
        assert doc["scenario"]["goal_position_m"][2] == 1.5
        assert doc["weights"]["cable"] == 3e7

    def test_override_rejects_missing_index(self):
        with pytest.raises(ParseError, match="no element"):
            _apply_override({"scenario": {}}, "scenario.goal_position_m[2]",
                            1.0)


class TestCheckVerb:
    def test_passes_by_default(self, capsys):
        assert run(["check"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 5

    def test_reads_kappa_from_scenario(self, fast_scenario, capsys):
        assert run(["check", "--scenario", str(fast_scenario)]) == 0
        assert "loads and validates" in capsys.readouterr().out


EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
               2.2250738585072014e-308, -1.5e-310, 1e300, -1e300,
               1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789.0,
               0.1, 1.0 / 3.0, 2.0 ** 53, 123456789.5, 1e-5]


def _matrix_and_csv_bytes(tmp_path, matrix):
    header = tuple(f"c{i}" for i in range(matrix.shape[1]))
    _write_matrix(tmp_path / "matrix.csv", header, matrix)
    _write_csv(tmp_path / "rows.csv", header, matrix.tolist())
    return ((tmp_path / "matrix.csv").read_bytes(),
            (tmp_path / "rows.csv").read_bytes())


def test_matrix_writer_bytes_equal_row_writer_on_edge_floats(tmp_path):
    values = np.array(EDGE_FLOATS)
    matrix = np.stack([np.roll(values, k) for k in range(values.size)])
    written, expected = _matrix_and_csv_bytes(tmp_path, matrix)
    assert written == expected
    assert b"-0," in written and b"inf" in written and b"nan" in written


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 8).flatmap(lambda width: st.lists(
    st.lists(st.floats(width=64), min_size=width, max_size=width),
    min_size=1, max_size=6)))
def test_matrix_writer_bytes_equal_row_writer_on_any_floats(tmp_path, rows):
    written, expected = _matrix_and_csv_bytes(tmp_path, np.array(rows))
    assert written == expected


# values a telemetry column can repeat on every row: signed zeros, nan,
# infinities, subnormals, and any float
REPEATED = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(width=64))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)),
       columns=st.lists(st.one_of(st.none(), REPEATED), min_size=1,
                        max_size=8),
       signed_zeros_at=st.integers(0, 8), data=st.data())
def test_matrix_writer_bytes_equal_row_writer_with_repeated_columns(
        tmp_path, n, columns, signed_zeros_at, data):
    """Free columns (None) mixed with columns of one repeated value, and
    one column of alternating -0.0 and 0.0, which compare equal."""
    free = st.lists(st.floats(width=64), min_size=n, max_size=n)
    cols = [data.draw(free) if value is None else [value] * n
            for value in columns]
    cols.insert(signed_zeros_at % (len(cols) + 1),
                [(-0.0, 0.0)[i % 2] for i in range(n)])
    matrix = np.array(cols, dtype=float).T
    assert matrix.shape == (n, len(cols))
    written, expected = _matrix_and_csv_bytes(tmp_path, matrix)
    assert written == expected
