"""The benchmark's tracer still finds every vppopt name it wraps.

``vppbench/tracing.py`` replaces functions at the names their callers look
up, so renaming or deleting one of them would only show as a crash of
``vppbench/run.py --trace 1``. This test installs the tracer and takes it
out again, and fails on such a rename instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import scipy.optimize

from vppopt import cli, dam, milp, orchestrator, report

TRACING = Path(__file__).resolve().parents[1] / "vppbench" / "tracing.py"
WRAPPED_OWNERS = (cli, dam, milp, orchestrator, report, milp.ScipyMilpAdapter,
                  scipy.optimize)


def test_tracer_installs_and_restores_every_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("vppbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)

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
