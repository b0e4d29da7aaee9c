"""Command-line entry points.

Three subcommands: ``run`` executes a scenario in VPP or no-coordination
mode, through the session ``--sessions`` names or the whole calendar, and
writes the report file set; ``sweep`` finds the largest payment at which
a demand profile is still selected; ``validate`` checks a scenario file
and prints its diagnostics.

Exit codes: 0 success, 2 usage or input errors (a bad scenario file, a
bad flag value such as ``--step 0`` or a ``--sessions`` key the day does
not have, or an output path that cannot be written, caught before the
first solve; or a model built from a valid scenario that has a
non-finite number or that HiGHS refuses), 3 an infeasible session, 4 a
solver failure (``time_limit`` when the time limit ends a solve before
any incumbent), a verification violation or check finding, or
recomputed profits that drift from the solver's by more than
``MAX_PROFIT_DRIFT``. A stdout closed by its reader changes no
exit code (:func:`_say`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from vppopt import dam as dam_mod
from vppopt.milp import ModelError, SolveOptions, dump_lp
from vppopt.orchestrator import run, sweep_profile_costs, through
from vppopt.report import build_report, emit_report, emit_thresholds
from vppopt.scenario import ScenarioError, ScenarioValidationError, load_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

MAX_PROFIT_DRIFT = 1e-6  # EUR, solver profits against their recomputation


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vppopt",
        description="Day-ahead and intraday market scheduling for renewable "
                    "virtual power plants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario and write report files")
    p_run.add_argument("--scenario", required=True, help="scenario JSON path")
    p_run.add_argument("--mode", choices=("vpp", "nocoord"), default="vpp")
    p_run.add_argument("--sessions", default=None, metavar="KEY",
                       help="run the sessions up to and including this one, e.g. idm3")
    p_run.add_argument("--out", default=None, help="report directory")
    p_run.add_argument("--gap", type=_non_negative, default=1e-6, help="relative MIP gap")
    p_run.add_argument("--time-limit", type=_positive, default=60.0, help="seconds per solve")
    p_run.add_argument("--dump-model", default=None,
                       help="write the coordinated day-ahead model in LP format to this path")

    p_sweep = sub.add_parser("sweep", help="find a profile's cost threshold")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--demand", required=True, help="demand asset id")
    p_sweep.add_argument("--profile", required=True, help="non-default profile id")
    p_sweep.add_argument("--max", type=_positive, required=True,
                         help="largest payment considered")
    p_sweep.add_argument("--step", type=_positive, default=1.0,
                         help="resolution: the threshold is reported half a step "
                              "below the break-even payment")
    p_sweep.add_argument("--out", default=None, help="directory for thresholds.csv")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    return parser


def _say(line: str) -> None:
    """Print a line on stdout. Once the reader has closed stdout (``| head
    -1``), fd 1 is pointed at ``os.devnull``: the rest of the command then
    prints nowhere, and still writes stderr and returns its exit code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load(path: str):
    try:
        return load_scenario(path)
    except ScenarioValidationError as exc:
        print(f"invalid scenario {path}:", file=sys.stderr)
        for diag in exc.diagnostics:
            print(f"  {diag}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (ScenarioError, OSError) as exc:
        print(f"cannot load scenario {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextmanager
def _exit_2_on(error: type[Exception], what: str):
    """Turn ``error`` into one ``what: <error>`` line on stderr and exit 2."""
    try:
        yield
    except error as exc:
        print(f"{what}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_writing = partial(_exit_2_on, OSError, "cannot write output")
_building = partial(_exit_2_on, ModelError, "cannot build model")


@contextmanager
def _output_dir(path: Path):
    """Create the output directory up front, so an unwritable path exits 2
    before any solve. A command that ends with nothing written removes the
    directories it created; a directory that existed before is kept."""
    created = [d for d in (path, *path.parents) if not d.exists()]  # deepest first
    with _writing():
        path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    finally:
        for d in created:
            try:
                d.rmdir()  # refuses a directory that is no longer empty
            except OSError:
                break


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if args.sessions is not None:
        try:
            scenario = through(scenario, args.sessions)
        except ValueError as exc:
            print(f"bad --sessions: {exc}", file=sys.stderr)
            return EXIT_USAGE

    out_dir = args.out or f"{Path(args.scenario).stem}-{args.mode}-report"
    with _output_dir(Path(out_dir)):
        if args.dump_model:
            with _building():
                model, _ = dam_mod.assemble_dam(scenario)
                model.validate()
            with _writing():
                dump_lp(model, args.dump_model)
            _say(f"model written to {args.dump_model}")

        options = SolveOptions(gap_tol=args.gap, time_limit=args.time_limit)
        with _building():
            result = run(scenario, args.mode, options)

        report = build_report(scenario, result)
        with _writing():
            emit_report(report, out_dir)

    for sess in result.sessions:
        objective = "-" if sess.objective is None else f"{sess.objective:.2f}"
        gap = "-" if sess.abs_gap is None else f"{sess.abs_gap:.2g}"
        _say(f"{sess.key}: {sess.status} objective={objective} "
             f"({sess.runtime_s:.2f}s, {sess.nodes} nodes, "
             f"{sess.lp_iterations} LP iterations, absGap {gap}, "
             f"{len(sess.violations)} violations)")
    _say(f"total profit: {result.total_profit:.2f}")
    unproven = [r for r in result.sessions if r.status == "feasible"]
    if unproven:
        gaps = [r.abs_gap for r in unproven]
        worst = "-" if None in gaps else f"{max(gaps):.2g}"
        _say(f"unproven: {len(unproven)} of {len(result.sessions)} sessions ended "
             f"feasible, worst absGap {worst}; see verify.json")
    _say(f"report written to {out_dir}")

    if not result.ok:
        failed = result.sessions[-1]
        print(f"run stopped at {failed.key}: {failed.status}", file=sys.stderr)
        return EXIT_INFEASIBLE if failed.status == "infeasible" else EXIT_SOLVER
    if report.verifier_summary():
        print("verification found violations; see verify.json", file=sys.stderr)
        return EXIT_SOLVER
    drift = result.max_recompute_drift()
    if drift > MAX_PROFIT_DRIFT:
        print(f"recomputed profits drift {drift:.3e} EUR from the solver's "
              f"(limit {MAX_PROFIT_DRIFT:g})", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    out_dir = args.out or f"{Path(args.scenario).stem}-sweep"
    with _output_dir(Path(out_dir)):
        try:
            with _building():
                entries = sweep_profile_costs(scenario, demand_id=args.demand,
                                              profile_id=args.profile, max_cost=args.max,
                                              resolution=args.step)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)  # str() would quote it
            return EXIT_USAGE
        except RuntimeError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        with _writing():
            path = emit_thresholds(entries, out_dir)
    for e in entries:
        if e.status == "threshold":
            _say(f"{e.demand_id}/{e.profile_id}: threshold {e.threshold:.2f} EUR "
                 f"(resolution {e.resolution:g})")
        else:
            _say(f"{e.demand_id}/{e.profile_id}: {e.status}")
    _say(f"thresholds written to {path}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    _load(args.scenario)  # exits 2 with diagnostics when invalid
    _say(f"{args.scenario}: ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
