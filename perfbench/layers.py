"""Which tetherpick names the traced run wraps, and the per-layer metrics
computed from their spans and from the CSVs the verbs write.

A span is named ``<module>.<attr>`` after the attribute that was wrapped:
``optimizer.construct`` is ``trajectory.construct`` as the optimizer calls
it, ``simulation.corridor_bounds_batch`` is the simulator's corridor
post-check.  README.md maps every metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

# (module, attribute) pairs; the module is a submodule of tetherpick
WRAPPED = (
    ("cli", "cmd_plan"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_sweep"),
    ("cli", "load_scenario"),
    ("cli", "optimize"),
    ("cli", "corridor_profile"),
    ("cli", "simulate_pickup"),
    ("cli", "simulate_retrieval"),
    ("optimizer", "minimize"),
    ("optimizer", "total_cost"),
    ("optimizer", "construct"),
    ("optimizer", "propagate_gradients"),
    ("optimizer", "jerk_energy"),
    ("optimizer", "jerk_energy_gradient"),
    ("optimizer", "cable_penalty"),
    ("optimizer", "corridor_bounds_batch"),
    ("optimizer", "sag_length_gradient_batch"),
    ("simulation", "tether_force"),
    ("simulation", "solve_catenary"),
    ("simulation", "flat_to_inputs"),
    ("simulation", "step"),
    ("simulation", "corridor_bounds_batch"),
)

SIMULATE = ("cli.simulate_pickup", "cli.simulate_retrieval")
SCALE = {"ms": 1e3, "us": 1e6}


def _per_call(profile, names, scale):
    """Summed duration of ``names`` per call of the first of them."""
    calls = profile.count.get(names[0], 0)
    if not calls:
        return None
    return scale * sum(profile.total[n] for n in names) / calls


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def _mean(values):
    return sum(values) / len(values) if values else None


def _evaluations(p):
    """Objective evaluations L-BFGS asked for, per plan."""
    return _ratio(p.under[("optimizer.total_cost", "optimizer.minimize")],
                  p.count.get("optimizer.minimize", 0))


def _eval_ms(p):
    evaluations = p.under[("optimizer.total_cost", "optimizer.minimize")]
    inside = p.total["optimizer.minimize"] - p.self_total["optimizer.minimize"]
    return _ratio(1e3 * inside, evaluations)


def _simulate_total(p, field):
    return sum(getattr(p, field)[n] for n in SIMULATE)


def _simulate_calls(p):
    return sum(p.count.get(n, 0) for n in SIMULATE)


def _step_us(p):
    busy = _simulate_total(p, "total") \
        - p.total["simulation.corridor_bounds_batch"]
    return _ratio(1e6 * busy, p.count.get("simulation.step", 0))


def _loop_self_us(p):
    return _ratio(1e6 * _simulate_total(p, "self_total"),
                  p.count.get("simulation.step", 0))


def _scaled(value, unit):
    return None if value is None else SCALE[unit] * value


def mean_of(name, unit):
    """Mean duration per call of one span name."""
    return unit, (name,), lambda p, f: _scaled(p.mean(name), unit)


def self_of(name, unit):
    """Mean self time per call of one span name."""
    return unit, (name,), lambda p, f: _scaled(p.self_mean(name), unit)


def from_csv(unit, compute):
    return unit, (), compute


# what the correctness checks read from the CSVs, as lists over verb calls
FACTS = ("plan_iterations", "plan_status", "sweep_point_s",
         "sweep_iterations", "sweep_status")

# name -> (unit, span names it needs, function of (profile, facts))
METRICS = {
    "optimizer.iterations": from_csv(
        "count", lambda p, f: _mean(f["plan_iterations"])),
    "optimizer.evaluations": (
        "count", ("optimizer.minimize", "optimizer.total_cost"),
        lambda p, f: _evaluations(p)),
    "optimizer.converged_share": from_csv(
        "ratio", lambda p, f: _mean([s == "converged" for s in
                                     f["plan_status"] + f["sweep_status"]])),
    "optimizer.eval_ms": (
        "ms", ("optimizer.minimize", "optimizer.total_cost"),
        lambda p, f: _eval_ms(p)),
    "optimizer.total_cost_self_ms": self_of("optimizer.total_cost", "ms"),
    "optimizer.cable_penalty_self_ms": self_of("optimizer.cable_penalty",
                                               "ms"),
    "optimizer.lbfgs_self_ms": self_of("optimizer.minimize", "ms"),
    "trajectory.construct_us": mean_of("optimizer.construct", "us"),
    "trajectory.propagate_us": mean_of("optimizer.propagate_gradients", "us"),
    "trajectory.jerk_energy_us": (
        "us", ("optimizer.jerk_energy", "optimizer.jerk_energy_gradient"),
        lambda p, f: _per_call(p, ("optimizer.jerk_energy",
                                   "optimizer.jerk_energy_gradient"), 1e6)),
    "cable.corridor_bounds_us": mean_of("optimizer.corridor_bounds_batch",
                                        "us"),
    "cable.sag_gradient_us": mean_of("optimizer.sag_length_gradient_batch",
                                     "us"),
    "cable.solve_catenary_us": mean_of("simulation.solve_catenary", "us"),
    "cable.solve_catenary_calls": (
        "count", ("simulation.solve_catenary",) + SIMULATE,
        lambda p, f: _ratio(p.count.get("simulation.solve_catenary", 0),
                            _simulate_calls(p))),
    "simulation.tether_force_self_us": self_of("simulation.tether_force",
                                               "us"),
    "simulation.slack_share": (
        "ratio", ("simulation.solve_catenary", "simulation.tether_force"),
        lambda p, f: _ratio(p.count.get("simulation.solve_catenary", 0),
                            p.count.get("simulation.tether_force", 0))),
    "simulation.steps": (
        "count", ("simulation.step",) + SIMULATE,
        lambda p, f: _ratio(p.count.get("simulation.step", 0),
                            _simulate_calls(p))),
    "simulation.step_us": (
        "us", ("simulation.step", "simulation.corridor_bounds_batch")
        + SIMULATE,
        lambda p, f: _step_us(p)),
    "simulation.flat_to_inputs_us": mean_of("simulation.flat_to_inputs",
                                            "us"),
    "simulation.integrate_us": mean_of("simulation.step", "us"),
    "simulation.loop_self_us": (
        "us", ("simulation.step",) + SIMULATE,
        lambda p, f: _loop_self_us(p)),
    "simulation.post_check_ms": mean_of("simulation.corridor_bounds_batch",
                                        "ms"),
    "cli.plan_self_ms": self_of("cli.cmd_plan", "ms"),
    "cli.dense_check_ms": mean_of("cli.corridor_profile", "ms"),
    "scenario.load_ms": mean_of("cli.load_scenario", "ms"),
    "sweep.point_s": from_csv("s", lambda p, f: _mean(f["sweep_point_s"])),
    "sweep.iterations": from_csv(
        "count", lambda p, f: _mean(f["sweep_iterations"])),
}


def layer_metrics(profile, facts, missing):
    """name -> (value or None, unit, note); the note says why a value is
    None: a wrapped name that no longer exists, or a layer that did not run
    on this workload."""
    facts = {key: facts.get(key, []) for key in FACTS}
    out = {}
    for name, (unit, needs, compute) in METRICS.items():
        gone = [n for n in needs if n in missing]
        if gone:
            out[name] = (None, unit, "absent: " + ", ".join(gone) + " gone")
            continue
        value = compute(profile, facts)
        out[name] = (value, unit, "" if value is not None else "not run")
    return out
