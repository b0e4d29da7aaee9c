"""End-to-end benchmark of vppopt's user operations.

Run from the root of a checkout:

    python3 vppbench/run.py --workload vpp-clear --seed 0 --seconds 10 --trace 0

One operation is one ``vppopt run`` or ``vppopt sweep`` invocation,
performed in-process through ``vppopt.cli.main`` exactly as the console
script performs it, report files included. A run repeats the workload's
operation for about ``--seconds`` (at least once), checks every
operation's outputs (``gate``), and prints one JSON object as its last
line; ``failed`` counts the operations the gate rejected.

Interleaved with each operation the run times a fixed reference solve,
a small 0-1 MIP that depends neither on vppopt nor on the seed, handed to
the same HiGHS build (``Pacer``); the operation's own times leave those
solves out. On a shared host the CPU's speed changes by up to 1.7x
within seconds and drifts over minutes, so raw seconds spread too widely
between runs of the same code. An operation's time divided by the mean
time of the reference solves run alongside it spreads far less, and a
change to vppopt moves it exactly as it moves the operation's own time.

With ``--trace 0`` the metrics are the end-to-end ones: the median over
the run's operations of that ratio, for wall and for CPU time
(``wall_norm``, ``cpu_norm``, unit ``x-ref``), the set-up time of a
fresh interpreter (import vppopt, load and validate the scenario; median
of several), and the peak resident memory of this process. The raw seconds are printed in the
table above the result line. With ``--trace 1`` the same operation also
runs under the tracer in ``tracing.py`` and the metrics are the per-layer
ones, together with the raw seconds of the untraced operations.

Inputs come from ``--seed``: seed 0 is the shipped scenario file byte for
byte; any other seed renames every entity of it (see ``write_input``).
``--price-jitter F`` also scales each price by a factor within 1 +- F, for
re-checking a claim on instances it was not tuned on. HiGHS's run time
changes by up to several fold between such instances (a 1% jitter moved
the sweep from 11 s to 85 s), so jittered timings compare only between
runs at the same seed. Everything runs sequentially in one process, with
HiGHS single-threaded as scipy ships it.
``--workload all`` runs the four workloads in turn and prints each table.
BENCHMARK.json lists only ``vpp-clear`` and ``nocoord-clear``: a run of
``vpp-cloudy`` (about 20 s per operation) or ``sweep-clear`` (about 30 s)
holds one operation, too few for a steady median.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / "_work"

GAP = 1e-6
TIME_LIMIT = 60.0
SETUP_REPEATS = 7
REF_SHARE = 0.4  # reference solves take about this share of a run
PACE_S = 0.5  # operation time between two rounds of reference solves
REF_SEED = 7  # the reference problem is the same at every --seed
REF_OBJECTIVE = -445.0
PROFIT_RTOL = 1e-6
DRIFT_TOL = 1e-6

END_TO_END: dict[str, str] = {
    "wall_norm": "x-ref",
    "cpu_norm": "x-ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# raw seconds, reported next to the per-layer metrics
RAW_SECONDS: dict[str, str] = {
    "op.wall_s": "s",
    "op.cpu_s": "s",
    "ref.wall_s": "s",
}

SETUP_CODE = ("import sys\n"
              "import vppopt.cli\n"
              "from vppopt.scenario import load_scenario\n"
              "load_scenario(sys.argv[1])\n")


@dataclass(frozen=True)
class Sweep:
    demand: str
    profile: str
    max_cost: float
    step: float


@dataclass(frozen=True)
class Workload:
    name: str
    source: Path  # base scenario file; seed 0 uses it byte for byte
    mode: str = "vpp"  # for ``run``; ignored by a sweep
    reference_profit: float | None = None  # total profit of the base scenario
    sweep: Sweep | None = None

    def cli_args(self, seed: int) -> list[str]:
        if self.sweep is None:
            return ["run", "--mode", self.mode, "--gap", repr(GAP),
                    "--time-limit", repr(TIME_LIMIT)]
        return ["sweep", "--demand", relabel(seed, self.sweep.demand),
                "--profile", relabel(seed, self.sweep.profile),
                "--max", f"{self.sweep.max_cost:g}", "--step", f"{self.sweep.step:g}"]


def relabel(seed: int, ident: str) -> str:
    """The name an entity of the base scenario carries at ``seed``. The
    common prefix keeps every id's sort order, so the model is unchanged."""
    return ident if seed == 0 else f"s{seed}-{ident}"


def _renamed(node, names: dict[str, str]):
    if isinstance(node, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, names) for v in node]
    return names.get(node, node) if isinstance(node, str) else node


def _jittered(values, rng: random.Random, fraction: float):
    if isinstance(values, list):
        return [_jittered(v, rng, fraction) for v in values]
    return round(values * (1.0 + fraction * rng.uniform(-1.0, 1.0)), 2)


def write_input(source: Path, seed: int, dest: Path, price_jitter: float = 0.0) -> None:
    """Scenario file for ``seed``.

    Seed 0 copies the base file. Any other seed renames every bus, line,
    asset and profile and the scenario itself, so id handling, validation
    and the report files see new inputs while HiGHS receives the same
    model. ``price_jitter`` > 0 also scales each day-ahead and intraday
    price by its own factor drawn from [1 - price_jitter, 1 + price_jitter].
    """
    if seed == 0:
        shutil.copyfile(source, dest)
        return
    doc = json.loads(source.read_text())
    ids = list(doc["network"]["buses"]) + [line["id"] for line in doc["network"]["lines"]]
    for group in ("dres", "ndres", "stu", "demands"):
        ids += [a["id"] for a in doc[group]]
    ids += [p["id"] for d in doc["demands"] for p in d["profiles"]]
    doc = _renamed(doc, {i: relabel(seed, i) for i in ids})
    doc["name"] = relabel(seed, doc.get("name", source.stem))
    if price_jitter > 0:
        rng = random.Random(seed)
        calendar = doc["calendar"]
        calendar["damPrices"] = _jittered(calendar["damPrices"], rng, price_jitter)
        for session in calendar["sessions"]:
            session["prices"] = _jittered(session["prices"], rng, price_jitter)
    dest.write_text(json.dumps(doc, indent=2) + "\n")


@dataclass(frozen=True)
class Inputs:
    """One workload's inputs at one seed, and what its outputs must show."""

    scenario: Path
    argv: list[str]
    reference: float | None  # total profit, checked when given
    threshold: tuple[float, float] | None  # exact sweep threshold, tolerance


def prepare(workload: Workload, seed: int, work: Path, price_jitter: float = 0.0) -> Inputs:
    scenario = work / "scenario.json"
    write_input(workload.source, seed, scenario, price_jitter)
    threshold = None
    if workload.sweep is not None:
        threshold = exact_threshold(scenario, relabel(seed, workload.sweep.demand),
                                    relabel(seed, workload.sweep.profile))
    reference = workload.reference_profit if price_jitter == 0 else None
    return Inputs(scenario, workload.cli_args(seed) + ["--scenario", str(scenario)],
                  reference, threshold)


SCENARIOS = ROOT / "scenarios"
WORKLOADS = {w.name: w for w in (
    Workload("vpp-clear", SCENARIOS / "clear.json", "vpp", reference_profit=35057.069660),
    Workload("vpp-cloudy", SCENARIOS / "cloudy.json", "vpp", reference_profit=7032.207469),
    Workload("nocoord-clear", SCENARIOS / "clear.json", "nocoord",
             reference_profit=30473.354660),
    Workload("sweep-clear", SCENARIOS / "clear.json",
             sweep=Sweep("industrial", "night_shift", 1200.0, 1.0)),
)}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def exact_threshold(scenario_path: Path, demand: str, profile: str) -> tuple[float, float]:
    """V_ch - V_def from two day-ahead solves, the demand held to the
    challenger alone (at zero payment) and to its default alone.

    Returns the threshold and the absolute tolerance the two solves'
    relative gap allows on it.
    """
    from vppopt import dam
    from vppopt.milp import SolveOptions, solve
    from vppopt.scenario import load_scenario

    s = load_scenario(scenario_path)
    demands = []
    for d in s.demands:
        if d.id == demand:
            d = replace(d, profiles=tuple(replace(p, cost=0.0) if p.id == profile else p
                                          for p in d.profiles))
        demands.append(d)
    s = replace(s, demands=tuple(demands))
    default = next(d for d in s.demands if d.id == demand).default_profile().id

    def held_to(profile_id: str) -> float:
        model, reg = dam.assemble_dam(s)
        model.set_bounds(reg.id(dam.DEM_U, f"{demand}/{profile_id}"), lb=1.0)
        sol = solve(model, SolveOptions(gap_tol=GAP, time_limit=TIME_LIMIT))
        if sol.status != "optimal":
            raise RuntimeError(f"reference solve for {profile_id} ended {sol.status}")
        return float(sol.objective)

    v_ch, v_def = held_to(profile), held_to(default)
    return v_ch - v_def, GAP * (abs(v_ch) + abs(v_def))


def gate(out_dir: Path, exit_code: int, workload: Workload,
         inputs: Inputs) -> tuple[list[str], float]:
    """Problems found in one operation's outputs, and its profit drift.

    A ``run`` passes when it exited 0, ``verify.json`` lists no violation
    and no post-hoc finding, the recomputed profits match the solver's to
    ``DRIFT_TOL`` and the total matches the reference (when given) to
    ``PROFIT_RTOL``. A ``sweep`` passes when it exited 0 and its threshold
    lies within one step below the exact one.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if workload.sweep is not None:
        rows = (out_dir / "thresholds.csv").read_text().splitlines()[1:]
        exact, tol = inputs.threshold
        fields = rows[0].split(",") if len(rows) == 1 else ["", "", "missing", ""]
        status = fields[2]
        if status == "threshold":
            ok = exact - workload.sweep.step - tol <= float(fields[3]) <= exact + tol
        else:  # not picked even for free, or still picked at the largest cost
            ok = (status == "never" and exact <= tol
                  or status == "above_max" and exact >= workload.sweep.max_cost - tol)
        if not ok:
            problems.append(f"thresholds.csv says {rows}; the exact threshold is {exact:.6f}")
        return problems, 0.0

    verify_doc = json.loads((out_dir / "verify.json").read_text())
    if verify_doc["summary"]:
        problems.append(f"verify.json summary: {verify_doc['summary'][:3]}")
    for session in verify_doc["sessions"]:
        if session["violations"] or session["status"] != "optimal":
            problems.append(f"session {session['key']}: {session['status']}, "
                            f"{len(session['violations'])} violations")
    for name, findings in verify_doc["checks"].items():
        if findings:
            problems.append(f"check {name}: {findings[:3]}")
    profit = json.loads((out_dir / "profit.json").read_text())
    keys = set(profit["sessions"]) | set(profit["recomputed"])
    drift = max((abs(profit["sessions"].get(k, 0.0) - profit["recomputed"].get(k, 0.0))
                 for k in keys), default=0.0)
    if drift > DRIFT_TOL:
        problems.append(f"recomputed profit drift {drift:.3e}")
    reference = inputs.reference
    if reference is not None and abs(profit["total"] - reference) > PROFIT_RTOL * abs(reference):
        problems.append(f"total profit {profit['total']:.6f} != reference {reference:.6f}")
    return problems, drift


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def environment(seed: int, price_jitter: float) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core
        highs = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                 f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs = "unknown"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "highs": highs,
            "gap": GAP, "time_limit_s": TIME_LIMIT, "seed": seed, "price_jitter": price_jitter,
            "execution": "sequential, single process, HiGHS single-threaded",
            "reference_solve": f"0-1 multi-knapsack, 20 items x 10 rows, rng seed {REF_SEED}"}


def setup_seconds(scenario_path: Path) -> float:
    """Median wall time of a fresh interpreter importing vppopt and
    loading the scenario."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario_path)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def warm_up() -> None:
    """Solve a tiny model so the backend's lazy loading is not timed."""
    import numpy as np

    from vppopt import dam
    from vppopt.milp import solve
    from vppopt.synth import random_seller_scenario

    model, _ = dam.assemble_dam(random_seller_scenario(np.random.default_rng(0), 3))
    solve(model)


def reference_problem() -> dict:
    """Arguments of ``scipy.optimize.milp`` for the reference solve: a 0-1
    multi-knapsack with 20 items and 10 rows (28 B&B nodes, about 0.2 s
    with HiGHS 1.12.0 on a 2-core Xeon)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint

    rng = np.random.default_rng(REF_SEED)
    n, m = 20, 10
    c = -rng.integers(10, 100, n).astype(float)
    a = rng.integers(1, 50, (m, n)).astype(float)
    return {"c": c, "constraints": LinearConstraint(a, -np.inf, 0.3 * a.sum(axis=1)),
            "integrality": np.ones(n), "bounds": Bounds(0, 1),
            "options": {"mip_rel_gap": 1e-9}}


class Pacer:
    """Times the reference solve side by side with the operations.

    While installed it wraps ``scipy.optimize.milp``, where vppopt's
    adapter looks it up. When one of the program's own calls returns and
    at least ``PACE_S`` of operation time has passed since the last round,
    it runs a round of reference solves lasting about ``REF_SHARE`` of that
    time, and keeps their wall and CPU time apart so that ``run_op`` can
    take it out of the operation's. ``run_op`` runs one more round for the
    tail of an operation after its timing has ended.
    """

    def __init__(self):
        from scipy.optimize import milp

        self._milp = milp
        self._problem = reference_problem()
        self.samples: list[tuple[float, float]] = []  # wall, cpu of each solve
        self.inside: list[tuple[float, float]] = []  # the solves within this operation
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def installed(self):
        import scipy.optimize

        original = scipy.optimize.milp

        @functools.wraps(original)
        def paced(*args, **kwargs):
            result = original(*args, **kwargs)
            if time.perf_counter() - self._mark >= PACE_S:
                self.catch_up()
            return result

        scipy.optimize.milp = paced
        try:
            yield self
        finally:
            scipy.optimize.milp = original

    def start(self) -> None:
        self.inside = []
        self._mark = time.perf_counter()

    def catch_up(self) -> None:
        """Reference solves for ``REF_SHARE`` of the time since the last
        round (at least one), added to ``inside``."""
        budget = REF_SHARE * (time.perf_counter() - self._mark)
        spent = 0.0
        while spent == 0.0 or spent < budget:
            c0, t0 = time.process_time(), time.perf_counter()
            res = self._milp(**self._problem)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if res.status != 0 or abs(res.fun - REF_OBJECTIVE) > 1e-9:
                raise RuntimeError(f"reference solve ended {res.status} at {res.fun}")
            self.samples.append((wall, cpu))
            self.inside.append((wall, cpu))
            spent += wall
        self._mark = time.perf_counter()


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    problems: list[str]
    drift: float
    refs: list[tuple[float, float]]  # wall, cpu of the reference solves run alongside


def run_op(workload: Workload, inputs: Inputs, out_dir: Path, tracer=None,
           pacer: Pacer | None = None) -> Op:
    """One operation, gated. With a pacer installed, the reference solves
    it runs inside the operation are not counted in its times."""
    from vppopt.cli import main

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = inputs.argv + ["--out", str(out_dir)]
    sink = io.StringIO()
    root = tracer.open("op") if tracer is not None else None
    if pacer is not None:
        pacer.start()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        code = 1
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    refs: list[tuple[float, float]] = []
    if pacer is not None:
        wall -= sum(w for w, _ in pacer.inside)
        cpu -= sum(c for _, c in pacer.inside)
        pacer.catch_up()  # a round for the operation's tail, untimed
        refs = pacer.inside
    if tracer is not None:
        tracer.close(root)
    try:
        problems, drift = gate(out_dir, code, workload, inputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, drift = [f"unreadable outputs: {exc!r}"], 0.0
    if problems:
        print(f"{workload.name}: operation failed the gate: {problems}\n{sink.getvalue()}",
              file=sys.stderr)
    return Op(wall, cpu, problems, drift, refs)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, price_jitter: float = 0.0) -> dict:
    """Measure one workload; returns the result record."""
    from tracing import LAYER_METRICS, Tracer

    work.mkdir(parents=True, exist_ok=True)
    inputs = prepare(workload, seed, work, price_jitter)
    warm_up()

    pacer = Pacer()

    def repeat(budget: float, tracer=None) -> list[Op]:
        """Operations for about ``budget`` seconds: the last one starts
        only if it is expected to end less than half a lap past it."""
        ops: list[Op] = []
        laps: list[float] = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start + statistics.median(laps) / 2 < budget:
            lap = time.perf_counter()
            if tracer is not None:
                tracer.op = len(ops)
                ops.append(run_op(workload, inputs, work / "out", tracer))
            else:
                with pacer.installed():
                    ops.append(run_op(workload, inputs, work / "out", pacer=pacer))
            laps.append(time.perf_counter() - lap)
        return ops

    plain = repeat(seconds / 2 if trace else seconds)
    refs = pacer.samples
    traced: list[Op] = []
    tracer = Tracer()
    if trace:
        tracer.install()
        try:
            traced = repeat(seconds / 2, tracer)
        finally:
            tracer.uninstall()
    ops = plain + traced
    failed = sum(1 for op in ops if op.problems)

    wall = statistics.median(op.wall_s for op in plain)
    cpu = statistics.median(op.cpu_s for op in plain)
    ref_wall = statistics.median(wall for wall, _ in refs)
    if trace:
        per_op = [tracer.layer_metrics(i) for i in range(len(traced))]
        values = {name: statistics.median(m[name] for m in per_op) for name in LAYER_METRICS}
        values["trace.overhead_s"] = statistics.median(op.wall_s for op in traced) - wall
        values["orchestrator.recompute_drift"] = max(op.drift for op in traced)
        values.update({"op.wall_s": wall, "op.cpu_s": cpu, "ref.wall_s": ref_wall})
        units = {**LAYER_METRICS, **RAW_SECONDS}
    else:
        # each operation against the reference solves run alongside it
        values = {"wall_norm": statistics.median(
                      op.wall_s / statistics.fmean(w for w, _ in op.refs) for op in plain),
                  "cpu_norm": statistics.median(
                      op.cpu_s / statistics.fmean(c for _, c in op.refs) for op in plain),
                  "setup_s": setup_seconds(inputs.scenario),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    record = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "environment": environment(seed, price_jitter),
        "ops": [{"wall_s": op.wall_s, "cpu_s": op.cpu_s, "traced": i >= len(plain),
                 "problems": op.problems, "ref_wall_s": [w for w, _ in op.refs]}
                for i, op in enumerate(ops)],
        "reference_solves": [{"wall_s": w, "cpu_s": c} for w, c in refs],
        "failed_ops": failed / len(ops),
        "result": {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                   "metrics": {name: {"value": values[name], "unit": units[name]}
                               for name in units}},
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        (work / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    shutil.rmtree(work / "out", ignore_errors=True)
    return record


def print_table(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"ops={result['attempted']}")
    print("environment: " + json.dumps(record["environment"]))
    print("op wall_s: " + " ".join(f"{op['wall_s']:.4f}" for op in record["ops"]))
    plain = [op for op in record["ops"] if not op["traced"]]
    for what, samples in (("op", plain), ("reference solve", record["reference_solves"])):
        for key in ("wall_s", "cpu_s"):
            values = [s[key] for s in samples]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"  {what + ' ' + key:34s} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"of {len(values)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  {'failed_ops':34s} {record['failed_ops']:14.6f} share")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--price-jitter", type=float, default=0.0,
                        help="also scale each price by a factor within 1 +- this (seed != 0)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vppopt" / "__init__.py").is_file():
        print(f"vppopt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        work = WORK_DIR / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
        records.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), work, args.price_jitter))
        print_table(records[-1])

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
