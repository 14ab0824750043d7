"""Self-time arithmetic and missing-name handling of the benchmark tracer."""

import types

import pytest

import layers
from tracer import Profile, Tracer, self_times


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ("root", -1, 0, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("b", 0, 0, 3.0, 6.0),      # overlaps a: [3, 4] is covered once
        ("a.inner", 1, 0, 2.0, 3.0),
        ("c", 0, 0, 9.0, 12.0),     # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_profile_totals_and_parent_counts():
    spans = [
        ("minimize", -1, 0, 0.0, 5.0),
        ("total_cost", 0, 0, 0.5, 1.5),
        ("total_cost", 0, 0, 2.0, 3.0),
        ("total_cost", -1, 0, 6.0, 6.5),
    ]
    profile = Profile(spans)
    assert profile.count["total_cost"] == 3
    assert profile.under[("total_cost", "minimize")] == 2
    assert profile.mean("total_cost") == pytest.approx(2.5 / 3)
    assert profile.self_mean("minimize") == pytest.approx(3.0)
    assert profile.mean("never_called") is None


def test_wrappers_record_nested_spans_and_uninstall_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.outer
    tracer = Tracer()
    assert tracer.install(module, "outer", "m.outer")
    assert tracer.install(module, "inner", "m.inner")
    with tracer.verb("plan") as verb:
        assert module.outer(1) == 4
    tracer.uninstall()
    assert module.outer is original
    names = [(name, parent, v) for name, parent, v, _, _ in tracer.spans]
    assert names == [("plan", -1, verb), ("m.outer", 0, verb),
                     ("m.inner", 1, verb)]


def test_missing_name_is_reported_absent_not_fatal():
    tracer = Tracer()
    assert not tracer.install(types.SimpleNamespace(), "jerk_energy",
                              "optimizer.jerk_energy")
    assert tracer.missing == {"optimizer.jerk_energy"}
    out = layers.layer_metrics(Profile([]), {}, tracer.missing)
    value, unit, note = out["trajectory.jerk_energy_us"]
    assert value is None and unit == "us" and note.startswith("absent")
    value, _, note = out["trajectory.construct_us"]
    assert value is None and note == "not run"
