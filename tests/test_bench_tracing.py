"""The benchmark's tracer still finds every vppopt name it wraps, and its
notes still read the arguments they expect.

``vppbench/tracing.py`` replaces functions at the names their callers look
up, so renaming or deleting one of them would only show as a crash of
``vppbench/run.py --trace 1``. So would a changed signature that a note
reads, such as ``assemble_idm``'s session number, its third argument.
These tests install the tracer, run the CLI under it, and take it out
again.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import scipy.optimize

from conftest import toy_doc
from vppopt import cli, dam, milp, orchestrator, report

TRACING = Path(__file__).resolve().parents[1] / "vppbench" / "tracing.py"
WRAPPED_OWNERS = (cli, dam, milp, orchestrator, report, milp.ScipyMilpAdapter,
                  scipy.optimize)


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("vppbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name(tracing):
    def names():
        return [dict(vars(owner)) for owner in WRAPPED_OWNERS]

    before = names()
    tracer = tracing.Tracer()
    tracer.install()  # raises AttributeError on a name vppopt no longer has
    try:
        assert names() != before
    finally:
        tracer.uninstall()
    assert names() == before


def test_traced_run_records_every_layer_it_calls(tracing, tmp_path):
    scenario = tmp_path / "toy.json"
    scenario.write_text(json.dumps(toy_doc()))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--scenario", str(scenario), "--sessions", "idm1",
                         "--out", str(tmp_path / "r")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    # the toy day has no SOS-2 set and vppopt reaches HiGHS through its
    # binding, so "milp.reformulate" and "highs" stay silent
    assert {span.name for span in tracer.spans} == {
        "scenario.load", "orchestrator.run", "dam.assemble", "idm.assemble",
        "milp.solve", "milp.adapter", "milp.verify", "idm.ledger",
        "orchestrator.recompute", "report.build", "orchestrator.checks", "report.emit"}
    assert [span.attrs for span in tracer.spans if span.name == "idm.assemble"] == [{"k": 1}]
    metrics = tracer.layer_metrics(0)  # names each session by the note's k
    assert (metrics["dam.assemble_calls"], metrics["idm.assemble_calls"]) == (1, 1)
