"""cavityswap benchmark: seeded workloads driven through ``cavityswap.cli``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload rk4_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client runs workload passes back to back in this process (a closed
loop). ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. ``--workload all`` runs every workload, each in
its own process, with and without tracing. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and what each metric
is expected to move.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import tracer as tracing
import workloads

SETUP_PROBES = 5
MIN_PASSES = 2
OUT_DIR = ".perfbench_out"
# Time of reference_kernel() on the machine the benchmark was designed on
# (2-core Xeon VM, Python 3.11, numpy 2.4); pass times are reported at
# that machine speed.
REFERENCE_KERNEL_S = 0.0635

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
              "points_per_s": "1/s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: import, first resolve_config, and the cold
# (lru-cached) flux calibration, each timed.
_SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import cavityswap, cavityswap.cli
from cavityswap import experiments, fluxmap
t1 = time.perf_counter()
experiments.resolve_config("chevron")
t2 = time.perf_counter()
fluxmap.calibrated_curves()
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                  "calibrate_s": t3 - t2, "file": cavityswap.__file__}))
"""


def _under(path, root):
    return os.path.realpath(path).startswith(os.path.realpath(root) + os.sep)


def reference_kernel() -> float:
    """Wall time of a fixed computation that does not use cavityswap:
    complex arithmetic in a Python loop, an FFT, and float formatting,
    the mix of the workloads."""
    t0 = time.perf_counter()
    a, b, w = 1.0 + 0.0j, 0.0j, 0.01
    for k in range(60_000):
        ph = cmath.exp(1j * w * k)
        a, b = a - 1e-4j * ph * b, b - 1e-4j * ph.conjugate() * a
    x = np.linspace(0.0, 1.0, 200_000)
    y = np.abs(np.fft.rfft(np.sin(50.0 * x) * np.hanning(x.size)))
    ",".join(f"{v:.17g}" for v in y[:20_000])
    return time.perf_counter() - t0


def measure_setup(src):
    """Medians over SETUP_PROBES fresh interpreters. Like pass times,
    set-up times are scaled to the reference machine speed, measured by
    the reference kernel just before and after each probe."""
    env = dict(os.environ, PYTHONPATH=src)
    probes = []
    before = reference_kernel()
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        after = reference_kernel()
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if not _under(probe["file"], src):
            raise RuntimeError(f"probe imported cavityswap from {probe['file']}")
        probe["speed"] = REFERENCE_KERNEL_S / (0.5 * (before + after))
        before = after
        probes.append(probe)
    setup = {k: statistics.median(p[k] * p["speed"] for p in probes)
             for k in ("setup_s", "import_s", "calibrate_s")}
    setup["as_measured_s"] = statistics.median(p["setup_s"] for p in probes)
    return setup


def environment(root, seed):
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "seed": seed}


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def invoke(cs, runner, config, out, jobs):
    """One CLI invocation; (exit code or None, captured stdout, error)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cs.cli.main([runner, "--config", config, "--out", out,
                              "--jobs", str(jobs)])
    except Exception as exc:  # counted as a failed invocation, run goes on
        return None, stdout.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, stdout.getvalue(), stderr.getvalue().strip()


def parse_results(stdout):
    results = {}
    for line in stdout.splitlines():
        key, eq, val = line.partition(" = ")
        if eq:
            try:
                results[key] = float(val)
            except ValueError:
                results[key] = val
    return results


class Runner:
    """Runs passes of one plan and checks every output."""

    def __init__(self, cs, plan, tracer):
        self.cs = cs
        self.plan = plan
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.worst = {}  # gate -> worst ratio seen

    def warm_up(self, workdir):
        """Load every code path once, on tiny inputs, before timing."""
        for call in self.plan.calls:
            config = call.config
            if call.runner in workloads.WARMUP:
                config = os.path.join(workdir, f"warmup_{call.runner}.cfg")
                workloads.write_config(config, dict(workloads.WARMUP[call.runner],
                                                    jobs=str(call.jobs)))
            invoke(self.cs, call.runner, config, os.path.join(workdir, "warmup_out"),
                   call.jobs)

    def one_pass(self):
        """Run the plan once; returns (wall s, cpu s). Outputs are checked
        after the clock stops."""
        plan, cs, tracer = self.plan, self.cs, self.tracer
        t0, c0 = time.perf_counter(), cpu_seconds()
        outcomes = [invoke(cs, c.runner, c.config, c.out, c.jobs) for c in plan.calls]
        traces = {}
        if plan.readback:
            for k, call in enumerate(plan.calls):
                if call.runner == "custom_sequence":
                    with tracer.span("dynamics.from_csv"):
                        traces[k] = cs.dynamics.TraceRecord.from_csv(
                            os.path.join(call.out, "trace.csv"))
        trips = []
        for path in plan.round_trips:
            with open(path) as fh:
                text = fh.read()
            try:
                trips.append((path, workloads.round_trip_fixed_point(cs, text)))
            except Exception as exc:  # counted as a failed round trip
                trips.append((path, exc))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self._check(outcomes, traces, trips)
        return wall, cpu

    def _fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _check(self, outcomes, traces, trips):
        cs = self.cs
        for k, (call, (rc, stdout, err)) in enumerate(zip(self.plan.calls, outcomes)):
            self.attempted += 1
            if rc != 0:
                self._fail(f"{call.runner}: exit {rc} {err}")
                continue
            try:
                trace = traces.get(k)
                if trace is None and call.runner == "custom_sequence":
                    trace = cs.dynamics.TraceRecord.from_csv(
                        os.path.join(call.out, "trace.csv"))
                checks = workloads.gates(call, parse_results(stdout), trace)
            except (KeyError, OSError, ValueError) as exc:
                self._fail(f"{call.runner}: output unreadable ({exc!r})")
                continue
            for name, ratio in checks:
                self.worst[name] = max(self.worst.get(name, 0.0), ratio)
            bad = [f"{name}: error/tolerance = {ratio:.3g}"
                   for name, ratio in checks if not ratio <= 1.0]
            if bad:
                self._fail("; ".join(bad))
        for path, trip in trips:
            self.attempted += 1
            if isinstance(trip, Exception) or trip[0] != trip[1]:
                self._fail(f"round trip of {os.path.basename(path)}: {trip!r:.200}")

    def outputs(self):
        """(bytes written by one pass, sha256 of every output file)."""
        size, digests = 0, {}
        for call in self.plan.calls:
            for name in sorted(os.listdir(call.out)):
                with open(os.path.join(call.out, name), "rb") as fh:
                    data = fh.read()
                size += len(data)
                digests[f"{os.path.basename(call.out)}/{name}"] = \
                    hashlib.sha256(data).hexdigest()
        return size, digests


def timed_passes(runner, seconds, trace):
    """Passes back to back until `seconds` would be exceeded (at least
    MIN_PASSES). With tracing, passes alternate untraced / traced.

    The machine this runs on changes speed by 20-40% over minutes (other
    tenants), more than any bound worth setting. So the reference kernel
    runs before the first pass and after every pass, and each pass gets
    the speed factor REFERENCE_KERNEL_S / (mean of the kernel times on
    either side). Returns per pass (wall s, cpu s, speed factor)."""
    plain, traced, spans_of = [], [], []
    t_start = time.perf_counter()
    before = reference_kernel()
    while True:
        on = trace and len(plain) > len(traced)
        runner.tracer.enabled = on
        first = len(runner.tracer.spans)
        wall, cpu = runner.one_pass()
        runner.tracer.enabled = False
        after = reference_kernel()
        record = (wall, cpu, REFERENCE_KERNEL_S / (0.5 * (before + after)))
        before = after
        if on:
            traced.append(record)
            spans_of.append(runner.tracer.spans[first:])
        else:
            plain.append(record)
        done = len(plain) + len(traced)
        typical = statistics.median(r[0] + after for r in plain + traced)
        if done >= MIN_PASSES and time.perf_counter() - t_start + typical > seconds:
            return plain, traced, spans_of


def at_reference_speed(passes, column):
    """Median over passes of wall (column 0) or cpu (1) time, scaled to
    the reference machine speed."""
    return statistics.median(p[column] * p[2] for p in passes)


def run_one(args, root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cavityswap", "__init__.py")):
        print(f"error: no cavityswap sources under {src}; run from the root "
              "of a cavityswap checkout", file=sys.stderr)
        return 2
    setup = measure_setup(src)
    sys.path.insert(0, src)
    import cavityswap as cs
    import cavityswap.cli  # noqa: F401  (loads experiments too)
    if not _under(cs.__file__, src):
        print(f"error: imported cavityswap from {cs.__file__}", file=sys.stderr)
        return 2

    env = environment(root, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(root, OUT_DIR, tag)
    plan = workloads.WORKLOADS[args.workload](cs, args.seed, workdir)
    tr = tracing.Tracer()
    if args.trace:
        tracing.install(tr, cs)
    runner = Runner(cs, plan, tr)
    try:
        runner.warm_up(workdir)
        plain, traced, spans_of = timed_passes(runner, args.seconds, args.trace)
        written, hashes = runner.outputs()
    finally:
        tr.restore()

    run_s = at_reference_speed(plain, 0)
    cpu_s = at_reference_speed(plain, 1)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = {"setup_s": setup["setup_s"], "run_s": run_s, "cpu_s": cpu_s,
           "points_per_s": plan.points / run_s, "peak_rss_mb": usage / 1024.0}
    attempted, failed = runner.attempted, runner.failed
    oracle_ratio = max(runner.worst.values(), default=0.0)

    print(f"workload {plan.name}: {len(plain)} untraced and {len(traced)} traced "
          f"passes of {plan.points} sweep points; jobs={plan.jobs}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in sorted(hashes.items()):
        print(f"sha256 {name} {value}")
    for name, work in plan.a_priori.items():
        print(f"arithmetic {name} " + json.dumps(work.as_dict()))
    for what in runner.failures:
        print(f"FAILED {what}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"as measured: setup_s = {setup['as_measured_s']:.6g} s, "
          f"run_s = {statistics.median(p[0] for p in plain):.6g} s, "
          f"cpu_s = {statistics.median(p[1] for p in plain):.6g} s; "
          f"speed factor = {statistics.median(p[2] for p in plain):.4g}")

    if args.trace:
        per_pass = [layers.pass_metrics(s) for s in spans_of]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in layers.UNITS}
        if plan.jobs > 1:
            layers.apply_a_priori(metrics, plan.a_priori)
        traced_s = at_reference_speed(traced, 0)
        metrics.update({
            "fluxmap.calibrate_s": setup["calibrate_s"],
            "experiments.bytes_written": float(written),
            "experiments.write_bytes_per_s": (written / metrics["experiments.write_s"]
                                              if metrics["experiments.write_s"] else 0.0),
            "experiments.parallel_eff": cpu_s / (plan.jobs * run_s),
            "experiments.oracle_ratio": min(oracle_ratio, 1e9),
            "trace.overhead_s": traced_s - run_s,
        })
        units = layers.UNITS
        print(f"untraced run_s = {run_s:.6g} s; traced run_s = {traced_s:.6g} s")
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        tr.dump(os.path.join(root, OUT_DIR, f"{tag}.spans.tsv"))
    else:
        metrics, units = e2e, END_TO_END
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = dict(result, workload=plan.name, environment=env, setup=setup,
                  end_to_end=e2e, passes={"untraced": plain, "traced": traced},
                  gates_worst_ratio=runner.worst, sha256=hashes,
                  failures=runner.failures)
    with open(os.path.join(root, OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                return out.returncode
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            summary.setdefault(name, {}).update(result["metrics"])
    path = os.path.join(OUT_DIR, f"summary-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"wrote {path}")
    print(json.dumps({"correct": ok, "workloads": sorted(summary)}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
