"""The benchmark's own check, on tiny seeded ``synth`` instances.

Run from the root of a checkout; it takes about ten seconds:

    python3 vppbench/selfcheck.py

It checks that
1. every metric named in BENCHMARK.json is printed with its unit, with
   tracing off and on;
2. a wrong reference profit, a tampered ``verify.json`` and a tampered
   ``thresholds.csv`` each fail the correctness gate, so ``failed`` counts
   them;
3. the exact counts of a traced run (calls, B&B nodes, model sizes)
   repeat between two runs;
4. a price-jittered instance (``--price-jitter``) solves and passes the
   gate without the stored reference;
5. an operation run under the ``Pacer`` passes the gate, has reference
   solves alongside it, and ``scipy.optimize.milp`` is restored after.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import run as bench

EXACT_COUNTS = ("dam.assemble_calls", "idm.assemble_calls", "milp.solve_calls",
                "highs.mip_calls", "highs.mip_nodes", "highs.lp_calls", "model.vars",
                "model.rows", "model.binaries", "model.nnz", "orchestrator.sweep_probes",
                "session.dam.nodes", "session.idm1.nodes")


SEED = 3  # benchmark seed: the checks run on relabelled inputs
SYNTH_SEED = 4  # a seller instance whose profile threshold lies inside (0, 100)


def main_result(name: str, trace: int) -> dict:
    """Run the benchmark's command line on a registered workload; returns
    the result object its last line of output holds."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        bench.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                    "--trace", str(trace)])
    return json.loads(sink.getvalue().strip().splitlines()[-1])


def main() -> int:
    if not (bench.ROOT / "src" / "vppopt" / "__init__.py").is_file():
        print("vppopt sources not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.ROOT / "src"))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.SETUP_REPEATS = 1
    work = bench.WORK_DIR / f"selfcheck-{os.getpid()}"
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    import numpy as np

    from vppopt.scenario import save_scenario
    from vppopt.synth import random_seller_scenario

    work.mkdir(parents=True, exist_ok=True)
    source = work / "synth.json"
    save_scenario(random_seller_scenario(np.random.default_rng(SYNTH_SEED), n_periods=6), source)
    out = work / "out"

    # reference profit of the synth instance
    vpp = bench.Workload("synth-vpp", source, "vpp")
    inputs = bench.prepare(vpp, SEED, work)
    op = bench.run_op(vpp, inputs, out)
    expect(not op.problems, f"synth run passes the gate ({op.problems})")
    total = json.loads((out / "profit.json").read_text())["total"]

    # 1. names and units, as printed
    bench.WORKLOADS["synth-vpp"] = replace(vpp, reference_profit=total)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = main_result("synth-vpp", trace)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        expect(printed == wanted, f"--trace {trace} prints every {key} metric with its unit")
        expect(result["correct"] and result["failed"] == 0, f"--trace {trace} run is correct")

    # 2. the gate fails what it must
    bench.WORKLOADS["synth-vpp"] = replace(vpp, reference_profit=total + 1.0)
    result = main_result("synth-vpp", 0)
    expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
           "a wrong reference profit counts every operation as failed")

    bench.run_op(vpp, inputs, out)
    doc = json.loads((out / "verify.json").read_text())
    doc["summary"].append("dam: constraint tampered: residual 1.000e+00")
    (out / "verify.json").write_text(json.dumps(doc))
    problems, _ = bench.gate(out, 0, vpp, inputs)
    expect(bool(problems), "a tampered verify.json fails the gate")

    (work / "jitter").mkdir(exist_ok=True)
    jittered = bench.prepare(vpp, SEED, work / "jitter", price_jitter=0.01)
    op = bench.run_op(vpp, jittered, out)
    expect(jittered.reference is None and not op.problems
           and json.loads((out / "profit.json").read_text())["total"] != total,
           "a price-jittered instance solves, passes the gate and changes the profit")

    sweeper = bench.Workload("synth-sweep", source,
                             sweep=bench.Sweep("load", "shifted", 100.0, 1.0))
    inputs = bench.prepare(sweeper, SEED, work)
    op = bench.run_op(sweeper, inputs, out)
    expect(not op.problems, f"synth sweep passes the gate ({op.problems}, "
                            f"exact {inputs.threshold})")
    exact, tol = inputs.threshold
    problems, _ = bench.gate(out, 0, sweeper, replace(inputs, threshold=(exact - 5.0, tol)))
    expect(bool(problems), "a threshold five steps off the exact one fails the gate")

    # 5. the pacer
    import scipy.optimize

    original = scipy.optimize.milp
    pacer = bench.Pacer()
    with pacer.installed():
        op = bench.run_op(vpp, bench.prepare(vpp, SEED, work), out, pacer=pacer)
    expect(not op.problems and op.refs and op.wall_s > 0 and scipy.optimize.milp is original,
           "a paced operation passes, runs reference solves alongside and restores milp")

    # 3. exact counts repeat
    bench.WORKLOADS["synth-vpp"] = replace(vpp, reference_profit=total)
    first, second = (main_result("synth-vpp", 1)["metrics"] for _ in range(2))
    same = all(first[k]["value"] == second[k]["value"] for k in EXACT_COUNTS)
    expect(same and first["milp.solve_calls"]["value"] == 2,
           "exact counts repeat between two traced runs")

    print("selfcheck " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
