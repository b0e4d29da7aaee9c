"""MILP container, the scipy/HiGHS backend, SOS-2 handling and the verifier."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SCENARIO_DIR,
    Sos2EnumerationAdapter,
    recompute_objective,
    record_highs_runs,
)
from vppopt import milp
from vppopt.dam import assemble_dam
from vppopt.milp import (
    MilpModel,
    ModelError,
    ScipyMilpAdapter,
    Solution,
    SolveOptions,
    dump_lp,
    highs_options,
    reformulate_sos2_as_binary,
    solve,
    verify,
)
from vppopt.orchestrator import single_asset_scenario
from vppopt.scenario import load_scenario
from vppopt.synth import random_piecewise_model, random_stu_scenario

ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that finds vppopt; return stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _printing_model() -> MilpModel:
    """An instance on which HiGHS 1.12 prints a MIP debug line to the
    process's stdout, whatever its output options say."""
    return assemble_dam(random_stu_scenario(np.random.default_rng(18)))[0]


PRINTING_OBJECTIVE = 10563.923564

class TestSolveBasics:
    def test_trivial_lp(self):
        m = MilpModel("tiny")
        x = m.add_continuous("x", lb=0.0, ub=10.0)
        m.set_objective({x: 3.0})
        sol = solve(m)
        assert sol.status == "optimal"
        assert np.isclose(sol.objective, 30.0)
        assert np.isclose(sol.values[x], 10.0)

    def test_binary_cannot_sit_at_fraction(self):
        # the LP relaxation would pick z = 0.5 for +2.5; integrality forces 0
        m = MilpModel()
        z = m.add_binary("z")
        m.add_constraint({z: 2.0}, "<=", 1.0, "half")
        m.set_objective({z: 5.0})
        sol = solve(m)
        assert sol.status == "optimal"
        assert np.isclose(sol.objective, 0.0)
        assert np.isclose(sol.values[z], 0.0)

    @pytest.mark.parametrize("with_binary", [False, True], ids=["lp", "mip"])
    def test_empty_domain_is_infeasible(self, with_binary):
        m = MilpModel()
        x = m.add_continuous("x", lb=5.0, ub=1.0)
        objective = {x: 1.0}
        if with_binary:
            b = m.add_binary("b")
            m.add_constraint({x: 1.0, b: 1.0}, "<=", 10.0)
            objective[b] = -1.0
        m.set_objective(objective)
        sol = solve(m)
        assert sol.status == "infeasible"

    def test_time_limit_without_incumbent(self):
        model, _ = assemble_dam(load_scenario(SCENARIO_DIR / "clear.json"))
        sol = solve(model, SolveOptions(time_limit=1e-9))
        assert (sol.status, sol.values) == ("time_limit", None)

    def test_unbounded_reported(self):
        m = MilpModel()
        x = m.add_continuous("x")
        m.set_objective({x: 1.0})
        assert solve(m).status == "unbounded"

    def test_scipy_adapter_solves_sos2(self):
        # f over breakpoints x = 0, 1, 2 is 0, 0, 2; at x = 1 the SOS-2 set
        # leaves f = 0, where weights of 1/2 on both ends would reach f = 1
        m = MilpModel()
        w = [m.add_continuous(f"w{i}", ub=1.0) for i in range(3)]
        x = m.add_continuous("x", ub=2.0)
        m.add_constraint(dict.fromkeys(w, 1.0), "==", 1.0, "convex")
        m.add_constraint({w[1]: 1.0, w[2]: 2.0, x: -1.0}, "==", 0.0, "x_def")
        m.add_constraint({x: 1.0}, "==", 1.0, "at_one")
        m.add_sos2(w, "curve")
        m.set_objective({w[2]: 2.0})
        sol = ScipyMilpAdapter().solve(m, SolveOptions())
        reference = solve(m)
        assert (sol.status, sol.objective) == (reference.status, reference.objective)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.values == reference.values
        assert len(sol.values) == m.n_vars  # projected onto the original columns
        assert sol.values[w[1]] == pytest.approx(1.0) and verify(m, sol) == []

    def test_integers_come_back_exact(self):
        # assignments are polished: integers land exactly on integers and
        # the continuous part is refit around them, so identities that
        # amplify integrality noise stay tight downstream
        m = MilpModel()
        u = m.add_binary("u")
        y = m.add_continuous("y", ub=10.0)
        m.add_constraint({y: 1.0, u: -10.0}, "<=", 0.0, "cap")
        m.set_objective({y: 3.0, u: -2.0})
        sol = solve(m)
        assert sol.status == "optimal"
        assert float(sol.values[u]) == 1.0
        assert np.allclose(sol.values[y], 10.0, atol=1e-9)
        assert np.isclose(sol.objective, 28.0, atol=1e-9)

    def test_highs_takes_the_heuristic_options_silently(self):
        # the backend switches off HiGHS's RINS/RENS sub-MIPs through
        # options it sets one by one on the HiGHS instance; a renamed or
        # dropped option surfaces here as a backend error or an escaping
        # warning
        m = MilpModel()
        u = m.add_binary("u")
        v = m.add_binary("v")
        y = m.add_continuous("y", ub=10.0)
        m.add_constraint({y: 1.0, u: -6.0, v: -4.0}, "<=", 0.0, "cap")
        m.add_constraint({u: 1.0, v: 1.0}, "<=", 1.0, "one")
        m.set_objective({y: 3.0, u: -2.0, v: -1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            sol = ScipyMilpAdapter().solve(m, SolveOptions())
            assert warnings.filters == filters
        assert sol.status == "optimal", sol.message
        assert np.isclose(sol.objective, 16.0, atol=1e-9)


def _two_binaries() -> MilpModel:
    m = MilpModel()
    u = m.add_binary("u")
    v = m.add_binary("v")
    y = m.add_continuous("y", ub=10.0)
    m.add_constraint({y: 1.0, u: -6.0, v: -4.0}, "<=", 0.0, "cap")
    m.add_constraint({u: 1.0, v: 1.0}, "<=", 1.0, "one")
    m.set_objective({y: 3.0, u: -2.0, v: -1.0})
    return m


class TestHighsBinding:
    """The backend calls HiGHS through scipy's private binding; a release
    that moves or renames it, or drops an option, fails here first."""

    def test_binding_takes_every_option(self):
        from scipy.optimize._highspy._core import HighsStatus, _Highs

        highs = _Highs()
        options = highs_options(SolveOptions(gap_tol=1e-4, time_limit=5))
        # HiGHS's default, which a solve given a start turns off
        assert options["mip_heuristic_run_root_reduced_cost"] is True
        for name, value in [*options.items(), ("mip_heuristic_run_root_reduced_cost", False)]:
            assert highs.setOptionValue(name, value) == HighsStatus.kOk, name
            assert highs.getOptionValue(name) == (HighsStatus.kOk, value), name

    def test_unknown_option_raises(self, monkeypatch):
        options = highs_options(SolveOptions())
        monkeypatch.setattr(milp, "highs_options",
                            lambda _: {**options, "no_such_option": 1})
        with pytest.raises(ValueError, match="no_such_option"):
            ScipyMilpAdapter().solve(_two_binaries(), SolveOptions())

    def test_feasibility_jump_is_off(self):
        assert highs_options(SolveOptions())["mip_heuristic_run_feasibility_jump"] is False

    def test_search_statistics(self):
        sol = solve(_two_binaries())
        assert sol.status == "optimal"
        assert sol.nodes >= 0 and sol.lp_iterations >= 0
        assert sol.dual_bound == pytest.approx(16.0, abs=1e-6)
        lp = MilpModel()
        x = lp.add_continuous("x", ub=4.0)
        lp.add_constraint({x: 1.0}, "<=", 3.0, "cap")
        lp.set_objective({x: 2.0})
        sol = solve(lp)
        assert (sol.objective, sol.dual_bound, sol.nodes) == (6.0, 6.0, 0)
        assert sol.lp_iterations >= 0
        free = MilpModel()
        free.set_objective({free.add_continuous("x"): 1.0})
        assert solve(free).dual_bound is None  # unbounded

    def test_instance_prints_without_the_redirect(self):
        # keeps the two tests below honest: were the instance silent, they
        # would pass with no redirect at all
        out = _python("import contextlib\nimport numpy as np\nfrom vppopt import milp\n"
                      "from vppopt.dam import assemble_dam\n"
                      "from vppopt.synth import random_stu_scenario\n"
                      "milp._stdout_to_stderr = contextlib.nullcontext\n"
                      "model, _ = assemble_dam(random_stu_scenario(np.random.default_rng(18)))\n"
                      "print(milp.solve(model).objective)")
        *printed, objective = out.splitlines()
        assert any("HighsMipSolverData" in line for line in printed)
        assert abs(float(objective) - PRINTING_OBJECTIVE) <= 1e-6 * PRINTING_OBJECTIVE

    def test_highs_does_not_write_to_stdout(self, capfd):
        sol = solve(_printing_model())
        assert capfd.readouterr().out == ""
        assert abs(sol.objective - PRINTING_OBJECTIVE) <= 1e-6 * PRINTING_OBJECTIVE

    def test_concurrent_solves_keep_stdout(self, capfd):
        # two threads share the redirect of fd 1; a save/restore pair per
        # solve would interleave and could leave fd 1 on stderr
        models = [_printing_model() for _ in range(2)]
        before = os.fstat(1)
        open_fds = len(os.listdir("/proc/self/fd"))
        with ThreadPoolExecutor(2) as pool:
            solutions = list(pool.map(solve, models))
        after = os.fstat(1)
        assert capfd.readouterr().out == ""
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        for sol in solutions:
            assert abs(sol.objective - PRINTING_OBJECTIVE) <= 1e-6 * PRINTING_OBJECTIVE

    def test_redirect_holds_while_threads_overlap(self):
        def identity(fd):
            stat = os.fstat(fd)
            return stat.st_dev, stat.st_ino

        stdout, stderr = identity(1), identity(2)
        open_fds = len(os.listdir("/proc/self/fd"))
        strays = []

        def solver():
            for _ in range(200):
                with milp._stdout_to_stderr():
                    if identity(1) != stderr:
                        strays.append(identity(1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solver) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert strays == []
        assert identity(1) == stdout
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_import_loads_no_scipy_package(self):
        # vppopt loads the binding from its file: no scipy.optimize init;
        # the thread pool's package waits for the first pool
        loaded = set(_python("import sys, vppopt.cli\nprint(*sys.modules)").split())
        assert milp._HIGHS_MODULE in loaded
        assert not loaded & {"scipy.optimize", "scipy.sparse", "scipy.linalg",
                             "concurrent.futures", "logging"}

    def test_start_up_and_validate_load_no_numpy(self):
        code = """
import sys
import vppopt.cli
from vppopt.scenario import load_scenario
load_scenario(sys.argv[1])
loaded = "numpy" in sys.modules
vppopt.cli.main(["validate", "--scenario", sys.argv[1]])
print(loaded, "numpy" in sys.modules)
"""
        out = _python(code, str(SCENARIO_DIR / "clear.json"))
        assert out.splitlines()[-1] == "False False"

    def test_import_adds_no_import_hook(self):
        code = """
import sys
before = list(sys.meta_path)
import vppopt.cli
print(sys.meta_path == before)
"""
        assert _python(code).split() == ["True"]

    def test_missing_extension_names_the_directory(self, monkeypatch):
        monkeypatch.delitem(sys.modules, milp._HIGHS_MODULE)
        monkeypatch.setattr(milp.importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"missing from .*scipy.optimize._highspy"):
            milp._load_highs()

    @pytest.mark.parametrize("first", ["vppopt", "scipy"])
    def test_scipy_and_vppopt_share_the_binding(self, first):
        code = """
import importlib
import sys
if sys.argv[1] == "scipy":
    import scipy.optimize
from vppopt.milp import MilpModel, _h, solve
import numpy as np
import scipy.optimize
import scipy.optimize._highspy._core as _named
from scipy.optimize._highspy import _core
from scipy.optimize._highspy._core import HighsLp
assert _h is sys.modules["scipy.optimize._highspy._core"] is _core is _named
assert _h is importlib.import_module("scipy.optimize._highspy._core")
assert HighsLp is _h.HighsLp
# 0-1 knapsack: take items 0 and 2 (weight 3 of 4) for 8
ref = scipy.optimize.milp(c=[-5, -4, -3], integrality=[1, 1, 1],
                          bounds=scipy.optimize.Bounds(0, 1),
                          constraints=scipy.optimize.LinearConstraint([[2, 3, 1]], -np.inf, 4))
# x + 2y with x + y <= 3 and both in [0, 2]: x = 1, y = 2 for 5
lp = scipy.optimize.linprog(c=[-1, -2], A_ub=[[1, 1]], b_ub=[3], bounds=(0, 2), method="highs")
m = MilpModel()
u, v, y = m.add_binary("u"), m.add_binary("v"), m.add_continuous("y", ub=10.0)
m.add_constraint({y: 1.0, u: -6.0, v: -4.0}, "<=", 0.0, "cap")
m.add_constraint({u: 1.0, v: 1.0}, "<=", 1.0, "one")
m.set_objective({y: 3.0, u: -2.0, v: -1.0})
print(ref.status, ref.fun, lp.status, lp.fun, solve(m).objective)
"""
        status, ref, lp_status, lp, ours = _python(code, first).split()
        assert int(status) == 0 and float(ref) == pytest.approx(-8.0, abs=1e-9)
        assert int(lp_status) == 0 and float(lp) == pytest.approx(-5.0, abs=1e-9)
        assert float(ours) == pytest.approx(16.0, abs=1e-9)


class TestFeasibilityJumpOff:
    """Feasibility jump is off because it never steers the search here: on
    the lone solar-thermal day-ahead of the clear day, HiGHS returns the
    same incumbent after the same nodes and LP iterations with and without
    it, so its root work is pure overhead. If a HiGHS release lets it find
    something the rest of the search does not, this fails and the option
    needs a new measurement."""

    def test_same_search_with_and_without_it(self, monkeypatch):
        scenario = single_asset_scenario(load_scenario(SCENARIO_DIR / "clear.json"), "csp")
        model, _ = assemble_dam(scenario)
        off = solve(model)
        options = highs_options
        monkeypatch.setattr(milp, "highs_options", lambda o: {
            **options(o), "mip_heuristic_run_feasibility_jump": True})
        on = solve(model)
        assert off.status == on.status == "optimal"
        assert off.nodes > 0 and off.lp_iterations > 0
        assert (off.nodes, off.lp_iterations) == (on.nodes, on.lp_iterations)
        assert off.values == on.values


class TestStart:
    """A start is used only when it names every integer column of the
    model HiGHS receives with an integer value inside the column's bounds.
    Any other start solves as no start does: the same search, the same
    answer. A used start changes only the search path."""

    @pytest.fixture(scope="class")
    def csp(self):
        """The lone solar-thermal day-ahead of the clear day, solved cold."""
        scenario = single_asset_scenario(load_scenario(SCENARIO_DIR / "clear.json"), "csp")
        model, _ = assemble_dam(scenario)
        return model, solve(model)

    def test_the_assignment_names_every_integer_column(self, csp):
        model, cold = csp
        assert cold.start_objective is None
        sos_free = reformulate_sos2_as_binary(model)
        assert set(cold.integers) == {sos_free.var_name(j) for j, kind
                                      in enumerate(sos_free.kind) if kind == "binary"}
        assert any(name.endswith("_seg0") for name in cold.integers)
        assert set(cold.integers.values()) == {0.0, 1.0}

    def test_a_feasible_start_reaches_the_same_optimum(self, csp):
        model, cold = csp
        warm = solve(model, start=cold.integers)
        assert warm.status == "optimal" and verify(model, warm) == []
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        # the optimum's own plan: the start LP is its polish LP
        assert warm.start_objective == pytest.approx(cold.objective, rel=1e-9)

    @staticmethod
    def _spy(monkeypatch) -> tuple[list[bool], list[tuple[float, ...] | None]]:
        """Record each HiGHS run (True for a MIP) and each refit's result:
        the start LP's completed start first when a start is used, then the
        polish LP's vector when one runs."""
        refits = []
        refit = ScipyMilpAdapter._refit

        def recorded(*args):
            refits.append(refit(*args))
            return refits[-1]

        monkeypatch.setattr(ScipyMilpAdapter, "_refit", staticmethod(recorded))
        return record_highs_runs(monkeypatch), refits

    def test_a_kept_start_is_the_answer_without_a_polish_lp(self, csp, monkeypatch):
        """The MIP keeps the start's integers, so the polish LP would
        repeat the start LP: the completed start is the answer, after the
        start LP and the MIP only."""
        model, cold = csp
        runs, refits = self._spy(monkeypatch)
        warm = solve(model, start=cold.integers)
        (kept,) = refits
        assert runs == [False, True]
        assert warm.values == kept[:model.n_vars]
        assert warm.integers == cold.integers
        assert warm.objective == warm.start_objective

    @staticmethod
    def _improvable() -> MilpModel:
        """max x + y with x <= 1 and y binary: from y = 0 the start LP is
        worth 1, the MIP moves to y = 1 and 2."""
        m = MilpModel()
        x, y = m.add_continuous("x", ub=1.0), m.add_binary("y")
        m.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0, "cap")
        m.set_objective({x: 1.0, y: 1.0})
        return m

    def test_a_start_the_mip_improves_on_is_polished(self, monkeypatch):
        m = self._improvable()
        runs, refits = self._spy(monkeypatch)
        sol = solve(m, start={"y": 0.0})
        assert refits == [(1.0, 0.0), (1.0, 1.0)]  # the completed start, the polish
        assert runs == [False, True, False]  # start LP, MIP, polish LP
        assert (sol.objective, sol.start_objective, sol.values) == (2.0, 1.0, (1.0, 1.0))

    def test_a_polish_that_is_not_optimal_keeps_the_mip_incumbent(self, monkeypatch):
        """The polish refit fails only through backend numerics; the answer
        is then the MIP's own incumbent, under the MIP's status."""
        m = self._improvable()
        polished = solve(m, start={"y": 0.0})
        refits, incumbents = [], []
        refit, run_highs = ScipyMilpAdapter._refit, ScipyMilpAdapter._run

        def refit_then_fail(*args):
            refits.append(refit(*args))
            return refits[-1] if len(refits) == 1 else None  # the polish fails

        def recorded(low, lower, upper, integer, *rest):
            highs, status = run_highs(low, lower, upper, integer, *rest)
            if any(integer):
                incumbents.append(tuple(highs.getSolution().col_value))
            return highs, status

        monkeypatch.setattr(ScipyMilpAdapter, "_refit", staticmethod(refit_then_fail))
        monkeypatch.setattr(ScipyMilpAdapter, "_run", staticmethod(recorded))
        sol = solve(m, start={"y": 0.0})
        (incumbent,) = incumbents
        assert len(refits) == 2  # the start LP, then the polish LP
        assert sol.values == incumbent[:m.n_vars]
        assert sol.objective == pytest.approx(sum(incumbent))
        assert sol.status == polished.status == "optimal"
        assert sol.start_objective == 1.0

    @pytest.mark.parametrize("spoil", ["outside_bounds", "missing", "fractional"])
    def test_a_refused_start_solves_as_without_one(self, csp, spoil):
        model, cold = csp
        start = dict(cold.integers)
        name = next(iter(start))
        if spoil == "missing":
            del start[name]
        else:
            start[name] = 2.0 if spoil == "outside_bounds" else 0.5
        refused = solve(model, start=start)
        assert refused.start_objective is None
        assert (refused.nodes, refused.lp_iterations) == (cold.nodes, cold.lp_iterations)
        assert refused.values == cold.values

    def test_a_plan_that_does_not_fit_is_refused(self):
        m = MilpModel()
        x, y = m.add_continuous("x", ub=1.0), m.add_binary("y")
        m.add_constraint({x: 1.0, y: -1.0}, ">=", 0.5, "needs_y_off")
        m.set_objective({x: 1.0, y: 1.0})
        sol = solve(m, start={"y": 1.0})
        assert (sol.status, sol.objective, sol.start_objective) == ("optimal", 1.0, None)

    def test_an_lp_is_its_own_start(self):
        m = MilpModel()
        x = m.add_continuous("x", ub=4.0)
        m.set_objective({x: 2.0})
        assert solve(m).start_objective is None
        sol = solve(m, start={})
        assert (sol.objective, sol.start_objective, sol.integers) == (8.0, 8.0, {})


def _csc_reference(model: MilpModel):
    """The column-wise matrix as scipy.sparse builds it from the rows."""
    import scipy.sparse

    rows, cols, data = [], [], []
    for r, (coeffs, _, _, _) in enumerate(model.constraints):
        rows.extend([r] * len(coeffs))
        cols.extend(coeffs)
        data.extend(coeffs.values())
    return scipy.sparse.csc_array((np.array(data, dtype=float), (rows, cols)),
                                  shape=(model.n_constraints, model.n_vars))


def _shipped_day_ahead(day: str) -> MilpModel:
    """A shipped day-ahead model as HiGHS receives it."""
    model, _ = assemble_dam(load_scenario(SCENARIO_DIR / f"{day}.json"))
    return reformulate_sos2_as_binary(model)


def _edge_model() -> MilpModel:
    m = MilpModel()
    x, y = m.add_continuous("x", ub=1.0), m.add_binary("y")
    m.add_continuous("unused")  # a column in no row
    m.add_constraint({y: 2.0, x: 1.0}, "<=", 2.0, "reversed")
    m.add_constraint({}, "<=", 1.0, "empty")  # a row with no coefficients
    m.add_constraint({x: 0.0, y: -1.0}, ">=", -1.0, "zero")  # an explicit 0.0
    m.set_objective({x: 1.0, y: 1.5})
    return m


def _no_rows() -> MilpModel:
    m = MilpModel()
    m.set_objective({m.add_continuous("x", ub=2.0): 1.0, m.add_binary("y"): 1.0})
    return m


class TestLowering:
    """``_lower`` builds HiGHS's column-wise arrays in one pass over the
    rows; they must equal scipy.sparse's, the layout ``scipy.optimize.milp``
    passes."""

    @pytest.mark.parametrize("build", [
        lambda: _shipped_day_ahead("clear"),
        lambda: _shipped_day_ahead("cloudy"),
        _edge_model,
        _no_rows,
    ], ids=["clear-dam", "cloudy-dam", "edges", "no-rows"])
    def test_arrays_equal_scipy_sparse(self, build):
        model = build()
        lp, ref = milp._lower(model), _csc_reference(model)
        assert np.array_equal(lp.a_matrix_.start_, ref.indptr)
        assert np.array_equal(lp.a_matrix_.index_, ref.indices)
        assert np.array_equal(lp.a_matrix_.value_, ref.data)
        assert len(lp.col_cost_) == model.n_vars and len(lp.row_lower_) == model.n_constraints

    def test_edge_model_solves(self):
        sol = solve(_edge_model())
        assert sol.status == "optimal" and sol.objective == pytest.approx(1.5, abs=1e-9)
        assert (sol.n_binaries, sol.n_nonzeros) == (1, 4)


class TestValidation:
    def test_constraint_names_unknown_variable(self):
        m = MilpModel()
        m.add_continuous("x")
        m.add_constraint({5: 1.0}, "<=", 1.0, "dangling")
        with pytest.raises(ValueError, match="dangling"):
            m.validate()

    def test_non_finite_rhs(self):
        m = MilpModel()
        x = m.add_continuous("x")
        m.add_constraint({x: 1.0}, "<=", math.inf, "open")
        with pytest.raises(ValueError, match="non-finite"):
            m.validate()

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient(self, coef):
        m = MilpModel()
        x = m.add_continuous("x", ub=1.0)
        y = m.add_continuous("y", ub=2.0)
        m.add_constraint({x: coef, y: 1.0}, "<=", 2.0, "odd")
        m.set_objective({x: 1.0, y: 1.0})
        with pytest.raises(ModelError,
                           match="odd has non-finite coefficient .* on x"):
            m.validate()
        # refused before HiGHS, which drops a NaN and calls an inf a model error
        with pytest.raises(ModelError):
            solve(m)

    def test_non_finite_objective_coefficient(self):
        m = MilpModel()
        x = m.add_continuous("x", ub=1.0)
        m.set_objective({x: -math.inf})
        with pytest.raises(ModelError, match="objective has non-finite"):
            solve(m)

    def test_coefficient_highs_refuses(self):
        m = MilpModel()
        x = m.add_continuous("x", ub=1.0)
        m.add_constraint({x: 1e16}, "<=", 1.0, "huge")  # above large_matrix_value
        m.set_objective({x: 1.0})
        m.validate()
        with pytest.raises(ModelError, match=r"HiGHS refused the model .*1e\+16"):
            solve(m)

    def test_validation_errors_are_value_errors(self):
        assert issubclass(ModelError, ValueError)

    def test_unknown_sense(self):
        m = MilpModel()
        x = m.add_continuous("x")
        with pytest.raises(ValueError, match="unknown sense"):
            m.add_constraint({x: 1.0}, "<", 1.0)

    def test_sos2_needs_two_members(self):
        m = MilpModel()
        a = m.add_continuous("a", ub=1.0)
        m.add_sos2([a], "lonely")
        with pytest.raises(ValueError, match="at least 2"):
            m.validate()

    def test_sos2_rejects_repeats_and_binaries(self):
        m = MilpModel()
        a = m.add_continuous("a", ub=1.0)
        m.add_sos2([a, a], "twice")
        with pytest.raises(ValueError, match="repeats"):
            m.validate()

        m2 = MilpModel()
        b = m2.add_continuous("b", ub=1.0)
        z = m2.add_binary("z")
        m2.add_sos2([b, z], "mixed")
        with pytest.raises(ValueError, match="must be continuous"):
            m2.validate()

    def test_binary_bounds_kept_inside_unit_box(self):
        m = MilpModel()
        z = m.add_binary("z")
        m.set_bounds(z, ub=2.0)
        with pytest.raises(ValueError, match="outside"):
            m.validate()

    def test_solution_requires_consistent_assignment(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Solution(status="optimal", objective=1.0)
        with pytest.raises(ValueError, match="inconsistent"):
            Solution(status="infeasible", values=np.zeros(1))


class TestVerify:
    def _one_var_solution(self, value: float) -> tuple[MilpModel, Solution]:
        m = MilpModel()
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint({x: 1.0}, "<=", 0.5, "cap")
        return m, Solution(status="optimal", objective=value,
                           values=np.array([value]))

    def test_clean_assignment_passes(self):
        m, sol = self._one_var_solution(0.5)
        assert verify(m, sol) == []

    def test_constraint_violation_carries_residual(self):
        m, sol = self._one_var_solution(0.9)
        (v,) = verify(m, sol)
        assert (v.kind, v.name) == ("constraint", "cap")
        assert np.isclose(v.residual, 0.4)

    def test_bound_violation(self):
        m, sol = self._one_var_solution(-0.25)
        kinds = {(v.kind, v.name) for v in verify(m, sol)}
        assert ("bound", "x") in kinds

    def test_integrality_violation(self):
        m = MilpModel()
        z = m.add_binary("z")
        sol = Solution(status="optimal", objective=0.0, values=np.array([0.4]))
        (v,) = verify(m, sol)
        assert v.kind == "integrality"
        assert np.isclose(v.residual, 0.4)

    def test_sos2_nonadjacent_pair_flagged(self):
        m = MilpModel()
        ws = [m.add_continuous(f"w{i}", ub=1.0) for i in range(3)]
        m.add_sos2(ws, "curve")
        sol = Solution(status="optimal", objective=0.0,
                       values=np.array([0.5, 0.0, 0.5]))
        (v,) = verify(m, sol)
        assert v.kind == "sos2"
        assert "curve" in v.name

    def test_sos2_three_nonzeros_flagged(self):
        m = MilpModel()
        ws = [m.add_continuous(f"w{i}", ub=1.0) for i in range(3)]
        m.add_sos2(ws, "curve")
        sol = Solution(status="optimal", objective=0.0,
                       values=np.array([1.0, 0.5, 0.25]))
        (v,) = verify(m, sol)
        assert v.kind == "sos2"
        assert np.isclose(v.residual, 0.25)

    def test_adjacent_pair_passes(self):
        m = MilpModel()
        ws = [m.add_continuous(f"w{i}", ub=1.0) for i in range(3)]
        m.add_sos2(ws, "curve")
        sol = Solution(status="optimal", objective=0.0,
                       values=np.array([0.0, 0.4, 0.6]))
        assert verify(m, sol) == []

    def test_wrong_length_assignment_rejected(self):
        m, _ = self._one_var_solution(0.5)
        bad = Solution(status="optimal", objective=0.0, values=np.zeros(3))
        with pytest.raises(ValueError, match="3 values"):
            verify(m, bad)

    def test_statuses_without_assignment_rejected(self):
        m, _ = self._one_var_solution(0.5)
        with pytest.raises(ValueError, match="no assignment"):
            verify(m, Solution(status="infeasible"))


class TestSos2Reformulation:
    def _curve_model(self, n_weights: int) -> MilpModel:
        m = MilpModel()
        ws = [m.add_continuous(f"w{i}", ub=1.0) for i in range(n_weights)]
        m.add_constraint({w: 1.0 for w in ws}, "==", 1.0, "fill")
        m.add_sos2(ws, "curve")
        m.set_objective({ws[-1]: 1.0})
        return m

    def test_bookkeeping_three_weights(self):
        m = self._curve_model(3)
        r = reformulate_sos2_as_binary(m)
        assert r.n_vars == m.n_vars + 2           # one binary per segment
        assert r.n_constraints == m.n_constraints + 4  # selection + one link per weight
        assert r.sos2_sets == []
        assert r.kind.count("binary") == 2

    def test_bookkeeping_five_weights(self):
        m = self._curve_model(5)
        r = reformulate_sos2_as_binary(m)
        assert r.n_vars == m.n_vars + 4
        assert r.n_constraints == m.n_constraints + 6

    def test_infinite_upper_bound_rejected(self):
        m = MilpModel()
        a = m.add_continuous("a", ub=1.0)
        b = m.add_continuous("b")  # open above
        m.add_sos2([a, b], "open")
        with pytest.raises(ValueError, match="finite upper bound"):
            reformulate_sos2_as_binary(m)

    def test_solution_projected_back(self):
        m = self._curve_model(4)
        sol = solve(m)
        assert sol.status == "optimal"
        assert len(sol.values) == m.n_vars
        assert verify(m, sol) == []

    def test_original_model_untouched(self):
        m = self._curve_model(3)
        before = (m.n_vars, m.n_constraints, len(m.sos2_sets))
        reformulate_sos2_as_binary(m)
        assert (m.n_vars, m.n_constraints, len(m.sos2_sets)) == before


class TestEnumerationAdapter:
    def test_agrees_with_reformulation_on_random_curves(self):
        rng = np.random.default_rng(7)
        enum = Sos2EnumerationAdapter()
        for _ in range(20):
            m = random_piecewise_model(rng)
            a = solve(m)                       # reformulation route
            b = enum.solve(m, SolveOptions())  # segment enumeration route
            assert a.status == b.status == "optimal"
            assert abs(a.objective - b.objective) <= 1e-6
            assert verify(m, a) == []
            assert verify(m, b) == []
            assert abs(recompute_objective(m, a.values) - a.objective) <= 1e-6

    def test_positive_lower_bound_rejected(self):
        m = MilpModel()
        a = m.add_continuous("a", lb=0.1, ub=1.0)
        b = m.add_continuous("b", ub=1.0)
        m.add_sos2([a, b], "pinned")
        m.set_objective({a: 1.0})
        with pytest.raises(ValueError, match="positive lower bound"):
            Sos2EnumerationAdapter().solve(m, SolveOptions())

    def test_combination_limit_enforced(self):
        m = MilpModel()
        for s in range(4):
            ws = [m.add_continuous(f"w{s}_{i}", ub=1.0) for i in range(5)]
            m.add_sos2(ws, f"set{s}")
        m.set_objective({0: 1.0})
        with pytest.raises(ValueError, match="enumeration limit"):
            Sos2EnumerationAdapter(combo_limit=100).solve(m, SolveOptions())

    def test_infeasible_when_every_segment_fails(self):
        m = MilpModel()
        ws = [m.add_continuous(f"w{i}", ub=1.0) for i in range(3)]
        m.add_sos2(ws, "curve")
        # demands weight mass on both extreme points at once
        m.add_constraint({ws[0]: 1.0}, ">=", 0.6, "left")
        m.add_constraint({ws[2]: 1.0}, ">=", 0.6, "right")
        m.set_objective({ws[1]: 1.0})
        sol = Sos2EnumerationAdapter().solve(m, SolveOptions())
        assert sol.status == "infeasible"


class TestDumpLp:
    def test_sections_and_file_output(self, tmp_path):
        m = MilpModel("demo")
        x = m.add_continuous("flow rate", lb=-2.0, ub=2.0)
        z = m.add_binary("on")
        w = [m.add_continuous(f"w{i}", ub=1.0) for i in range(2)]
        m.add_constraint({x: 1.0, z: -2.0}, "<=", 0.0, "couple")
        m.add_sos2(w, "curve")
        m.set_objective({x: 1.5, z: -0.5})
        path = tmp_path / "model.lp"
        text = dump_lp(m, path)
        assert path.read_text() == text
        for section in ("Maximize", "Subject To", "Bounds", "Binary", "SOS", "End"):
            assert section in text
        assert "flow_rate" in text          # names sanitized to LP charset
        assert "S2::" in text
