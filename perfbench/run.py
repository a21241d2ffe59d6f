#!/usr/bin/env python3
"""cope-sim benchmark, measured from outside the program.

    python3 perfbench/run.py --workload sweep-linear --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

A run builds its inputs from ``--seed``, repeats one unit of the workload
until ``--seconds`` are used, checks every output, and prints one metric a
line followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced units and reports the per-layer ones.
The program is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2, printing no result, when it is missing.  The run is
serial: one process, ``n_workers=1``, and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One process on one core: numpy's OpenBLAS otherwise starts a thread per
# core, which on a 2-vCPU VM bought no wall time but spun the second core
# and made the run depend on anything else running on it.  Set before numpy
# is imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sweep-linear", "sweep-quadratic", "verify-oracles",
             "general-cost")
SETUP_PROBES = 5
#: a sum of self times may differ from the traced wall time by rounding only
SUM_TOL = 1e-9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("agent_trials_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

VERIFY_LABELS = ("cubic", "monotonicity", "bic.linear", "bic.quadratic",
                 "bir.linear", "bir.quadratic", "closed-forms")
MECHANISM_KINDS = ("cope-linear", "cope-quadratic", "cope-general",
                   "centralized", "homogeneous")
LAYERS = ("rng", "model", "costs", "mechanism", "agents", "benchmarks",
          "engine", "verify", "cli")
SELF_TIMED = ("model.ppf", "costs.cost", "mechanism.quadratic_components_batch",
              "mechanism.payment_rule_general",
              "benchmarks.homogeneous_response_batch",
              "benchmarks.homogeneous_contract",
              "benchmarks.homogeneous_fallback", "agents.best_response_type",
              "agents.best_response_effort", "agents.interim_payoff",
              "agents.information_rent")
#: kernels reported as calls, computed element count, self time and ns per
#: element: (span, element-count suffix)
KERNELS = (("mechanism.cubic_root", "elements"),
           ("mechanism.quadratic_pi_tail_gl", "nodes"),
           ("agents.reward_effort_quadratic", "elements"))

#: timed by the benchmark around its own calls, in the untraced units
SITES = ([f"verify.{label}.s" for label in VERIFY_LABELS]
         + ["cli.write_results_csv.s"]
         + [f"engine.ns_per_agent_trial.{kind}" for kind in MECHANISM_KINDS])

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("rng.words", "count"), ("rng.ns_per_word", "ns")]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [m for name, what in KERNELS
       for m in ((f"{name}.calls", "count"), (f"{name}.{what}", "count"),
                 (f"{name}.ns_per_{what[:-1]}", "ns"))]
    + [("mechanism.payment_rule_quadratic.calls", "count"),
       ("mechanism.payment_rule_quadratic.self_s", "s"),
       ("mechanism.effort_general.calls", "count"),
       ("mechanism.effort_general.self_s", "s"),
       ("mechanism.effort_general.s_per_call", "s"),
       ("mechanism.effort_general.starts_per_solve", "count"),
       ("mechanism.minimize.calls", "count"), ("mechanism.quad.calls", "count")]
    + [(f"{name}.self_s", "s") for name, _ in KERNELS]
    + [(name, "ns" if name.startswith("engine.") else "s") for name in SITES]
    + [("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
       ("trace.overhead_frac", "ratio")])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import copesim from src/ of this checkout and the workloads on top."""
    init = os.path.join(SRC, "copesim", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: {init} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import copesim
    import tracing
    import workloads
    if os.path.dirname(os.path.abspath(copesim.__file__)) != \
            os.path.dirname(init):
        print(f"error: copesim imported from {copesim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return copesim, tracing, workloads


def setup_time(args) -> float:
    """Median wall time of fresh interpreters that import the program and
    build this run's inputs, up to the point the first timed call would
    start."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            print("error: set-up probe failed", file=sys.stderr)
            sys.exit(2)
        samples.append(t1 - t0)
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    import scipy
    sha = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def run_units(run_one, budget: float) -> list:
    """Repeat run_one, at least once, until the next unit would overrun the
    budget."""
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(run_one())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(u.wall_s for u in units) > budget:
            return units


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced unit."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    layer_self = tracer.layer_self()
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    words = counts["rng.words"]
    m["rng.words"] = words
    m["rng.ns_per_word"] = _ratio(1e9 * sum(
        self_s[f"rng.{f}"] for f in ("raw_words", "uniforms", "normals")),
        words)
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s[name]
    for name, what in KERNELS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.{what}"] = counts[f"{name}.{what}"]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.ns_per_{what[:-1]}"] = _ratio(1e9 * self_s[name],
                                                 counts[f"{name}.{what}"])
    m["mechanism.payment_rule_quadratic.calls"] = \
        calls["mechanism.payment_rule_quadratic"]
    m["mechanism.payment_rule_quadratic.self_s"] = \
        self_s["mechanism.payment_rule_quadratic"]
    solves = calls["mechanism.effort_general"]
    m["mechanism.effort_general.calls"] = solves
    m["mechanism.effort_general.self_s"] = self_s["mechanism.effort_general"]
    m["mechanism.effort_general.s_per_call"] = _ratio(
        self_s["mechanism.effort_general"], solves)
    m["mechanism.minimize.calls"] = counts["mechanism.minimize"]
    m["mechanism.quad.calls"] = counts["mechanism.quad"]
    m["mechanism.effort_general.starts_per_solve"] = _ratio(
        counts["mechanism.minimize"], solves)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - tracer.root_time()
    return m


def measure(args, copesim, tracing, wl, inp):
    """The timed passes.  Returns (metrics, units, extra checks, spans)."""
    run_one = lambda: wl.unit(inp)
    if not args.trace:
        units = run_units(run_one, args.seconds)
        metrics = {
            "wall_s": statistics.median(u.wall_s for u in units),
            "agent_trials_per_s": statistics.median(
                _ratio(u.agent_trials, u.work_s) for u in units),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        return metrics, units, [], None

    # alternate untraced and traced units so that drift in the machine's
    # speed falls on both sides of the overhead ratio
    plain, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run_one())
        tracers.append(tracing.Tracer())
        with tracers[-1].installed(copesim):
            traced.append(run_one())
        elapsed = time.perf_counter() - t0
        pair = statistics.median(p.wall_s + t.wall_s
                                 for p, t in zip(plain, traced))
        if len(traced) >= 2 and elapsed + pair > args.seconds:
            break
    per_unit = [layer_metrics(t, u.wall_s) for t, u in zip(tracers, traced)]
    metrics = {name: statistics.fmean(m[name] for m in per_unit)
               for name in per_unit[0]}
    for name in SITES:
        metrics[name] = statistics.fmean(u.sites.get(name, 0.0)
                                         for u in plain)
    metrics["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in plain) - 1.0)
    checks = [("computed counts repeat exactly across traced units",
               all(t.count_signature() == tracers[0].count_signature()
                   for t in tracers))]
    for i, m in enumerate(per_unit):
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS) \
            + m["trace.unattributed_s"]
        checks.append((f"traced unit {i}: self times + unattributed = wall",
                       abs(total - m["trace.wall_s"])
                       <= SUM_TOL * max(1.0, m["trace.wall_s"])))
    spans = dict(tracers[-1].spans(), counts=tracers[-1].count_signature())
    return metrics, plain + traced, checks, spans


def run_workload(args) -> int:
    if args.setup_probe:
        _, _, workloads = import_program()
        workloads.WORKLOADS[args.workload].build(args.seed, OUT)
        print("ready", flush=True)
        return 0
    setup_s = None if args.trace else setup_time(args)
    copesim, tracing, workloads = import_program()
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.build(args.seed, OUT)
    metrics, units, checks, spans = measure(args, copesim, tracing, wl, inp)
    if setup_s is not None:
        metrics["setup_s"] = setup_s

    baseline_path = os.path.join(HERE, "baseline.json")
    baseline = {}
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    for unit in units:
        checks += wl.unit_checks(unit)
    run_checks, info = wl.run_checks(units, args.seed, baseline)
    checks += run_checks
    failures = [f for u in units for f in u.failures] + \
        [name for name, ok in checks if not ok]
    attempted = sum(u.ops for u in units) + len(checks)

    env = environment()
    if spans is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(environment=env, workload=args.workload,
                           seed=args.seed, metrics=metrics, spans=spans), fh)
    units_spec = PER_LAYER if args.trace else END_TO_END
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units_spec}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"unit walls (s): {' '.join(f'{u.wall_s:.3f}' for u in units)}")
    for key, value in {**env, **info}.items():
        print(f"  {key}: {value}")
    for name, m in result.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one table of metrics."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name}:")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"  failed_frac = {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']})")
    print(json.dumps({name: res for name, res in rows}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
