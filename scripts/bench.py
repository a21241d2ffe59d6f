#!/usr/bin/env python3
"""Record one checkout's performance trajectory point as BENCH_<label>.json.

Runs, in the checkout at --root (default: the one this script sits in):

- ``perfbench/run.py --workload all --trace 0``: the end-to-end metrics of
  every perfbench workload, with its correct / failed / attempted counts, at
  the run length perfbench itself sets;
- ``perfbench/run.py --workload all --trace 1``: the exact work counts
  (``rng.words``, the ``cubic_root`` and ``reward_effort_quadratic``
  elements, the rent-tail elements = ``quadratic_pi_tail_gl.nodes`` / 48,
  the ``effort_general`` and ``quad`` calls), and the oracle times of each
  workload: every ``verify.<suite>.s`` suite time and every
  ``agents.*self_s`` self time;
- ``scripts/reproduce_figures.py -w 1``, serial: the wall time of each cost
  family (its manifest's ``elapsed_s``) and the SHA-256 of both
  ``results.csv`` files;
- the Tier-1 test suite: its wall time and summary line.

It also records the code it measured: the line count of each module of
``src/copesim`` and their total, and a SHA-256 over those modules' names and
contents, which names the code even when the tree has uncommitted changes.
With them goes what ``copesim run`` records in its manifest,
``copesim.cli.environment`` of the measured checkout: its git SHA (and
whether the tree has uncommitted changes), the platform, the Python, numpy
and scipy versions and ``os.cpu_count()``.  Wall times drift between runs on
a shared machine; the work counts and hashes do not.  Usage:
``python3 scripts/bench.py LABEL [--root DIR] [--out DIR]``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from copesim.cli import environment  # noqa: E402

#: the work counts quoted from the traced pass, by perfbench metric name
WORK_COUNTS = ("rng.words", "mechanism.cubic_root.elements",
               "agents.reward_effort_quadratic.elements",
               "mechanism.quadratic_pi_tail_gl.nodes",
               "mechanism.effort_general.calls", "mechanism.quad.calls")
#: quadratic_pi_tail_gl.nodes counts 48 nodes per tail element
TAIL_NODES_PER_ELEMENT = 48


def _run(cmd, root, env=None):
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def perfbench(root, trace: int) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", "all",
                "--trace", str(trace)], root)
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(runs: dict) -> dict:
    return {name: dict(correct=res["correct"], failed=res["failed"],
                       attempted=res["attempted"],
                       **{m: v["value"] for m, v in res["metrics"].items()})
            for name, res in runs.items()}


def work_counts(runs: dict) -> dict:
    counts = {}
    for name, res in runs.items():
        values = {m: res["metrics"][m]["value"] for m in WORK_COUNTS}
        values["tail.elements"] = values[
            "mechanism.quadratic_pi_tail_gl.nodes"] / TAIL_NODES_PER_ELEMENT
        counts[name] = dict(correct=res["correct"], failed=res["failed"],
                            **values)
    return counts


def oracle_times(runs: dict) -> dict:
    """Each workload's agents-layer self times and the times of the verify
    suites it runs (perfbench reports 0 for a suite a workload does not
    run)."""
    times = {}
    for name, res in runs.items():
        values = {m: v["value"] for m, v in res["metrics"].items()}
        times[name] = {m: v for m, v in values.items()
                       if m.startswith("agents.") and m.endswith("self_s")
                       or m.startswith("verify.") and m != "verify.self_s"
                       and v}
    return times


def headline(root) -> dict:
    """Both cost families of the headline reproduction, serially."""
    with tempfile.TemporaryDirectory() as out:
        _run([sys.executable, "scripts/reproduce_figures.py", "-w", "1",
              "-o", out], root)
        families = {}
        for cost in ("linear", "quadratic"):
            with open(os.path.join(out, cost, "manifest.json"),
                      encoding="utf-8") as fh:
                elapsed = json.load(fh)["elapsed_s"]
            with open(os.path.join(out, cost, "results.csv"), "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
            families[cost] = dict(elapsed_s=elapsed, results_csv_sha256=sha)
    return families


def tier1(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=root,
                          capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return dict(wall_s=wall, exit_code=proc.returncode,
                summary=lines[-1] if lines else "")


def source(root) -> dict:
    """Line counts of the src/copesim modules and a SHA-256 over their
    names and contents, in name order."""
    lines, digest = {}, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "copesim",
                                              "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        name = os.path.basename(path)
        lines[name] = data.count(b"\n")
        digest.update(name.encode() + b"\0" + data)
    return dict(src_lines=dict(lines, total=sum(lines.values())),
                src_sha256=digest.hexdigest())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label", help="names the file BENCH_<label>.json")
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout to measure")
    ap.add_argument("--out", default=None,
                    help="directory for the file (default: --root)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        print(f"error: {root} has no perfbench/run.py", file=sys.stderr)
        return 2
    record = dict(label=args.label, environment=environment(root),
                  source=source(root))
    traced = perfbench(root, 1)
    record["work_counts"] = work_counts(traced)
    record["oracle_times"] = oracle_times(traced)
    record["end_to_end"] = end_to_end(perfbench(root, 0))
    record["headline"] = headline(root)
    record["tier1"] = tier1(root)
    path = os.path.join(os.path.abspath(args.out or root),
                        f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
