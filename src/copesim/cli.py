"""Command-line front end: run experiments, verify invariants, emit plot data.

Exit codes: 0 success; 2 unusable input (config or CSV); 3 solver abort
during a run; 1 failed verification.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Tuple

from . import __version__, engine, verify
from .config import ExperimentConfig, load_config
from .mechanism import SolverError

CSV_HEADER = ("mechanism", "cost", "N", "theta_dagger", "metric", "mean",
              "se", "n_trials")


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _result_rows(results) -> List[Tuple]:
    rows = []
    for r in results:
        td = "" if r.theta_dagger is None else _g17(r.theta_dagger)
        for metric in engine.METRICS:
            s = r.stats[metric]
            rows.append((r.mechanism, r.cost, r.n_agents, td, metric,
                         _g17(s.mean), _g17(s.se), r.n_trials))
    rows.sort(key=lambda row: (row[0], row[3], row[2], row[4]))
    return rows


def write_results_csv(results, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(_result_rows(results))


def environment(root: Optional[str] = None) -> Dict:
    """Platform, Python, numpy, scipy, CPU count, and the git commit of root
    (default: this package) and if it is dirty, None outside git."""
    import numpy
    import scipy
    root = root or os.path.dirname(__file__)

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return dict(git_sha=git("rev-parse", "HEAD"),
                git_dirty=None if status is None else bool(status),
                platform=platform.platform(), python=platform.python_version(),
                numpy=numpy.__version__, scipy=scipy.__version__,
                cpu_count=os.cpu_count())


def cmd_run(args) -> int:
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = ExperimentConfig().validate()
        if args.output is not None:
            cfg = replace(cfg, output_path=args.output).validate()
        workers = (engine.default_workers() if args.workers is None
                   else args.workers)
        if workers < 1:
            raise ValueError(f"--workers must be >= 1, got {workers}")
        out_dir = cfg.output_path
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings = engine.EngineSettings(tie_break=cfg.tie_break,
                                     hom_denominator=cfg.hom_denominator)
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.monotonic()

    def progress(done, total, res):
        print(f"[{done}/{total}] {res.mechanism} cost={res.cost} "
              f"N={res.n_agents}", file=sys.stderr)

    try:
        results = engine.run_experiment(
            cfg.prior(), cfg.type_dist(), cfg.cost_model(),
            cfg.n_agents_list, cfg.mechanisms(), cfg.n_trials,
            cfg.master_seed, n_workers=workers, settings=settings,
            progress=progress if not args.quiet else None)
    except SolverError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True), file=sys.stderr)
        return 3
    elapsed = time.monotonic() - t0
    csv_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results, csv_path)
    manifest = {
        "config": asdict(cfg),
        "seed": cfg.master_seed,
        "version": __version__,
        "started_at": started_at,
        "elapsed_s": round(elapsed, 3),
        "environment": environment(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(csv_path)
    return 0


def cmd_verify(args) -> int:
    kwargs = {"seed": args.seed}
    if args.suite in ("bic", "bir"):
        kwargs.update(cost_kind=args.cost, n_instances=args.instances)
        if args.mc is not None:
            kwargs["n_mc"] = args.mc
    try:
        checks = verify.run_suite(args.suite, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(verify.format_report(args.suite, checks))
    return 0 if verify.suite_passed(checks) else 1


FIGURES = (
    ("figure2a", "linear", "principal_payoff", False),
    ("figure2b", "quadratic", "principal_payoff", False),
    ("figure3a", "linear", "network_profit", True),
    ("figure3b", "quadratic", "network_profit", True),
)


def _read_results_csv(path: str) -> List[Dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV")
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for raw in reader:
            row = dict(zip(CSV_HEADER, raw))
            try:
                if len(raw) != len(CSV_HEADER):
                    raise ValueError
                int(row["N"]), float(row["mean"]), float(row["se"])
            except ValueError:
                raise ValueError(f"malformed CSV row: {raw}") from None
            rows.append(row)
    if not rows:
        raise ValueError("CSV has no data rows")
    return rows


def cmd_figures(args) -> int:
    out_dir = args.output or os.path.dirname(os.path.abspath(args.results))
    try:
        rows = _read_results_csv(args.results)
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, cost, metric, want_centralized in FIGURES:
        sel = [r for r in rows if r["cost"] == cost and r["metric"] == metric]
        if not want_centralized:
            sel = [r for r in sel if r["mechanism"] != "centralized"]
        elif not any(r["mechanism"] == "centralized" for r in sel):
            print(f"warning: {name}: no centralized rows, plot will have a gap",
                  file=sys.stderr)
        sel.sort(key=lambda r: (r["mechanism"], r["theta_dagger"], int(r["N"])))
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("N", "mechanism", "theta_dagger", "mean", "se"))
            for r in sel:
                writer.writerow((r["N"], r["mechanism"], r["theta_dagger"],
                                 r["mean"], r["se"]))
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copesim",
        description="Simulate data-acquisition mechanisms for Gaussian "
                    "prediction and verify their incentive properties.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment sweep")
    p_run.add_argument("-c", "--config", default=None,
                       help="INI config file (defaults run the headline "
                            "sweep at cost=linear)")
    p_run.add_argument("-o", "--output", default=None,
                       help="output directory (overrides config)")
    p_run.add_argument("-w", "--workers", type=int, default=None,
                       help="worker processes (default: COPE_SIM_WORKERS or 1)")
    p_run.add_argument("-q", "--quiet", action="store_true",
                       help="suppress the per-cell progress counter")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run a numeric verification suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES))
    p_ver.add_argument("--cost", choices=("linear", "quadratic"),
                       default="linear", help="cost family for bic/bir")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--instances", type=int, default=20,
                       help="instance count for bic/bir")
    p_ver.add_argument("--mc", type=int, default=None,
                       help="Monte-Carlo draws per oracle call for bic/bir "
                       "(default: bic 10000, bir 20000)")
    p_ver.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figures",
                           help="emit tidy per-figure CSV files from results")
    p_fig.add_argument("results", help="results.csv written by `run`")
    p_fig.add_argument("-o", "--output", default=None,
                       help="output directory (default: alongside results)")
    p_fig.set_defaults(func=cmd_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
