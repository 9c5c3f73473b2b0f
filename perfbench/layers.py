"""Per-layer metrics of one traced pass, computed from its spans."""

from __future__ import annotations

from collections import defaultdict

# runners of cavityswap.experiments.RUNNERS, in a fixed order for the report
RUNNERS = ("splitting", "chevron", "power_sweep", "store_retrieve",
           "phase_sweep", "custom_sequence")
_CHECKED = ("dynamics.integrate_checked", "sequences.run_sequence_checked")
_RUNNER_PREFIX = "experiments.runner."

# name -> unit of every per-layer metric, in report order
UNITS = {
    "units.parse_calls": "count", "units.parse_s": "s",
    "fluxmap.calibrate_s": "s", "fluxmap.coupling_rate_calls": "count",
    "fluxmap.busy_s": "s",
    "dynamics.integrate_calls": "count", "dynamics.rk4_steps": "count",
    "dynamics.rhs_evals": "count", "dynamics.busy_s": "s",
    "dynamics.steps_per_s": "1/s", "dynamics.halfstep_share": "ratio",
    "dynamics.reflection_probes": "count", "dynamics.reflection_s": "s",
    "dynamics.csv_read_s": "s",
    "sequences.run_calls": "count", "sequences.segments": "count",
    "sequences.self_s": "s", "sequences.calibrate_calls": "count",
    "sequences.calibrate_evals": "count", "sequences.calibrate_s": "s",
    "sequences.parse_s": "s", "sequences.emit_s": "s",
    "sequences.demodulate_s": "s",
    "analysis.fft_calls": "count", "analysis.fft_samples": "count",
    "analysis.fft_s": "s", "analysis.decay_fit_s": "s",
    "analysis.phase_fit_s": "s", "analysis.dwell_s": "s",
    **{f"experiments.runner_s.{r}": "s" for r in RUNNERS},
    "experiments.self_s": "s", "experiments.write_s": "s",
    "experiments.bytes_written": "B", "experiments.write_bytes_per_s": "B/s",
    "experiments.parallel_eff": "ratio", "experiments.oracle_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{f"counters.{r}.{k}": "count" for r in RUNNERS
       for k in ("integrate_calls", "rk4_steps", "rhs_evals")},
}


def _ancestor(span, names):
    """(nearest ancestor named in `names`, its child on the path to span)."""
    child, node = span, span.parent
    while node is not None:
        if node.name in names:
            return node, child
        child, node = node, node.parent
    return None, None


def _runner_of(span):
    node = span
    while node is not None:
        if node.name.startswith(_RUNNER_PREFIX):
            return node.name[len(_RUNNER_PREFIX):]
        node = node.parent
    return None


def pass_metrics(spans) -> dict:
    """Per-layer metrics of the spans recorded during one pass. Counters
    that need the whole run (calibrate_s, bytes, parallel_eff,
    oracle_ratio, overhead) are filled in by the caller."""
    m = dict.fromkeys(UNITS, 0.0)
    child_s = defaultdict(float)
    runner_child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] += s.duration
            if s.name.startswith(_RUNNER_PREFIX):
                runner_child_s[id(s.parent)] += s.duration

    def add(key, value=1.0):
        m[key] += value

    for s in spans:
        name, dur = s.name, s.duration
        self_s = dur - child_s[id(s)]
        layer = name.split(".", 1)[0]
        if layer == "sequences":
            add("sequences.self_s", self_s)
        if layer == "fluxmap" and not (s.parent and s.parent.name.startswith("fluxmap.")):
            add("fluxmap.busy_s", dur)
        if name == "units.parse":
            add("units.parse_calls")
            add("units.parse_s", dur)
        elif name == "fluxmap.coupling_rate":
            add("fluxmap.coupling_rate_calls")
        elif name == "dynamics.integrate":
            steps = s.info["steps"]
            add("dynamics.integrate_calls")
            add("dynamics.rk4_steps", steps)
            add("dynamics.busy_s", dur)
            checked, child = _ancestor(s, _CHECKED)
            if checked is not None and child.index == 1:
                add("dynamics.halfstep_share", steps)  # normalised below
            if _ancestor(s, ("sequences.calibrate_swap_time",))[0] is not None:
                add("sequences.calibrate_evals")
            runner = _runner_of(s)
            if runner is not None:
                add(f"counters.{runner}.integrate_calls")
                add(f"counters.{runner}.rk4_steps", steps)
        elif name == "dynamics.reflection_spectrum":
            add("dynamics.reflection_probes", s.info["probes"])
            add("dynamics.reflection_s", dur)
        elif name == "dynamics.from_csv":
            add("dynamics.csv_read_s", dur)
        elif name == "sequences.run_sequence":
            add("sequences.run_calls")
            add("sequences.segments", s.info["segments"])
        elif name == "sequences.calibrate_swap_time":
            add("sequences.calibrate_calls")
            add("sequences.calibrate_s", dur)
        elif name == "sequences.parse":
            add("sequences.parse_s", dur)
        elif name == "sequences.emit":
            add("sequences.emit_s", dur)
        elif name == "sequences.demodulate":
            add("sequences.demodulate_s", dur)
        elif name == "analysis.fft":
            add("analysis.fft_calls")
            add("analysis.fft_samples", s.info["samples"])
            add("analysis.fft_s", dur)
        elif name in ("analysis.decay_fit", "analysis.phase_fit", "analysis.dwell"):
            add(f"{name}_s", dur)
        elif name.startswith(_RUNNER_PREFIX):
            add(f"experiments.runner_s.{name[len(_RUNNER_PREFIX):]}", dur)
            add("experiments.self_s", self_s)
        elif name == "experiments.write" and not (
                s.parent and s.parent.name == "experiments.write"):
            add("experiments.write_s", dur)
        elif name == "cli.main":
            add("cli.self_s", dur - runner_child_s[id(s)])

    steps = m["dynamics.rk4_steps"]
    m["dynamics.rhs_evals"] = 4.0 * steps
    m["dynamics.halfstep_share"] = m["dynamics.halfstep_share"] / steps if steps else 0.0
    m["dynamics.steps_per_s"] = steps / m["dynamics.busy_s"] if m["dynamics.busy_s"] else 0.0
    for r in RUNNERS:
        m[f"counters.{r}.rhs_evals"] = 4.0 * m[f"counters.{r}.rk4_steps"]
    m["trace.spans"] = float(len(spans))
    return m


def apply_a_priori(m: dict, a_priori: dict) -> None:
    """Replace traced work counts by arithmetic ones, for runs whose
    integrations happen in pool workers the tracer cannot see."""
    calls = steps = check = 0
    for runner, work in a_priori.items():
        for key, value in work.as_dict().items():
            m[f"counters.{runner}.{key}"] = float(value)
        calls += work.calls
        steps += work.steps
        check += work.check_steps
    m["dynamics.integrate_calls"] = float(calls)
    m["dynamics.rk4_steps"] = float(steps)
    m["dynamics.rhs_evals"] = 4.0 * steps
    m["dynamics.halfstep_share"] = check / steps if steps else 0.0
