"""MILP container, the HiGHS backend, and a verifier.

A :class:`MilpModel` holds variables, linear constraints, SOS-2 sets and a
maximization objective. :func:`solve` hands it to HiGHS, which takes no
SOS-2 sets: they go in as segment binaries. :func:`verify` re-checks any
assignment against the model independently of the backend, so every run
can self-certify feasibility.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Mapping, Sequence

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs() -> ModuleType:
    """Load scipy's HiGHS extension from its file, without importing
    ``scipy`` or ``scipy.optimize``, whose package init (linalg, sparse,
    special and more, none of which vppopt calls) was most of each
    process's start-up.

    The module goes into ``sys.modules`` under its own dotted name before
    it runs, so a later ``import scipy.optimize`` (or of the extension by
    name) finds it there and reuses this module object: pybind11 registers
    the extension's types once per process and refuses a second load.
    When ``scipy.optimize`` came first, its module is returned as it is.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError(f"cannot load {_HIGHS_MODULE}: scipy is not installed")
    where = Path(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
    candidates = [where / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in candidates if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS extension _core is missing from {where}")
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_h = _load_highs()

CONTINUOUS = "continuous"
BINARY = "binary"

_SENSES = ("<=", ">=", "==")

FEAS_TOL = 1e-6  # absolute tolerance of verify()


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-6
    time_limit: float = 60.0


@dataclass(frozen=True)
class Solution:
    """Solver outcome. An assignment is present exactly when the status is
    optimal or feasible."""

    # optimal | feasible (an unproven incumbent, found when a limit was
    # reached) | infeasible | unbounded | time_limit (the time limit was
    # reached before any incumbent) | error
    status: str
    objective: float | None = None
    values: tuple[float, ...] | None = None
    runtime_s: float = 0.0
    message: str = ""
    nodes: int = 0  # branch-and-bound nodes
    lp_iterations: int = 0  # simplex iterations
    dual_bound: float | None = None  # proven upper bound on the objective
    # size of the model HiGHS received, after the SOS-2 reformulation
    n_binaries: int = 0
    n_nonzeros: int = 0  # constraint coefficients
    # the integer columns of that model by name, SOS-2 segment binaries
    # included: a start for the next model (None without an assignment)
    integers: Mapping[str, float] | None = None
    # objective of the start completed by one LP; None without a start or
    # when the start did not fit the model
    start_objective: float | None = None

    def __post_init__(self):
        has_assignment = self.values is not None
        if has_assignment != (self.status in ("optimal", "feasible")):
            raise ValueError(
                f"status {self.status!r} inconsistent with assignment presence {has_assignment}")


class ModelError(ValueError):
    """A model that cannot go to a solver, from :meth:`MilpModel.validate`
    or from HiGHS refusing it."""


@dataclass(frozen=True)
class Violation:
    kind: str  # constraint | bound | integrality | sos2
    name: str
    residual: float

    def __str__(self) -> str:
        return f"{self.kind} {self.name}: residual {self.residual:.3e}"


class MilpModel:
    """Mutable builder for a mixed-integer linear program (maximize).

    Its fields are the model: per column ``kind``, ``lb``, ``ub`` and
    ``var_names``; per row one ``(coeffs, sense, rhs, name)`` tuple in
    ``constraints``, never changed once added; the objective ``obj``."""

    def __init__(self, name: str = ""):
        self.name = name
        self.kind: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.var_names: list[str] = []
        self.constraints: list[tuple[dict[int, float], str, float, str]] = []
        self.sos2_sets: list[tuple[tuple[int, ...], str]] = []
        self.obj: dict[int, float] = {}

    # -- construction -------------------------------------------------

    def add_continuous(self, name: str = "", lb: float = 0.0, ub: float = math.inf) -> int:
        return self._add_var(CONTINUOUS, name, lb, ub)

    def add_binary(self, name: str = "") -> int:
        return self._add_var(BINARY, name, 0.0, 1.0)

    def _add_var(self, kind: str, name: str, lb: float, ub: float) -> int:
        self.kind.append(kind)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.var_names.append(name)
        return len(self.kind) - 1

    def add_constraint(self, coeffs: Mapping[int, float], sense: str, rhs: float,
                       name: str = "") -> int:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append((dict(coeffs), sense, float(rhs), name))
        return len(self.constraints) - 1

    def add_sos2(self, members: Sequence[int], name: str = "") -> None:
        self.sos2_sets.append((tuple(members), name))

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        self.obj = dict(coeffs)

    def set_bounds(self, var_id: int, lb: float | None = None, ub: float | None = None) -> None:
        if lb is not None:
            self.lb[var_id] = float(lb)
        if ub is not None:
            self.ub[var_id] = float(ub)

    # -- inspection ---------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.kind)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def var_name(self, var_id: int) -> str:
        return self.var_names[var_id] or f"x{var_id}"

    def constraint_name(self, row: int) -> str:
        return self.constraints[row][3] or f"c{row}"

    def validate(self) -> None:
        """Raise :class:`ModelError` on any structural defect."""
        n = self.n_vars
        for i, (coeffs, sense, rhs, name) in enumerate(self.constraints):
            for v, coef in coeffs.items():
                if not 0 <= v < n:
                    raise ModelError(f"constraint {name or i} references unknown variable {v}")
                if not math.isfinite(coef):
                    raise ModelError(f"constraint {name or i} has non-finite coefficient "
                                     f"{coef} on {self.var_name(v)}")
            if not math.isfinite(rhs):
                raise ModelError(f"constraint {name or i} has non-finite rhs {rhs}")
        for v, coef in self.obj.items():
            if not 0 <= v < n:
                raise ModelError(f"objective references unknown variable {v}")
            if not math.isfinite(coef):
                raise ModelError(f"objective has non-finite coefficient {coef} on "
                                 f"{self.var_name(v)}")
        for members, name in self.sos2_sets:
            if len(members) < 2:
                raise ModelError(f"SOS-2 set {name!r} needs at least 2 members")
            if len(set(members)) != len(members):
                raise ModelError(f"SOS-2 set {name!r} repeats a member")
            for m in members:
                if not 0 <= m < n:
                    raise ModelError(f"SOS-2 set {name!r} references unknown variable {m}")
                if self.kind[m] != CONTINUOUS:
                    raise ModelError(f"SOS-2 set {name!r} member {m} must be continuous")
        for i, (kind, lb, ub) in enumerate(zip(self.kind, self.lb, self.ub)):
            if kind == BINARY and not (0 <= lb and ub <= 1):
                raise ModelError(f"binary variable {self.var_name(i)} has bounds outside [0,1]")
            if math.isnan(lb) or math.isnan(ub):
                raise ModelError(f"variable {self.var_name(i)} has NaN bounds")


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

def highs_options(options: SolveOptions) -> dict[str, object]:
    """Every HiGHS option the backend sets, by HiGHS's own option names."""
    return {
        "output_flag": False,
        "presolve": "on",
        "time_limit": float(options.time_limit),
        "mip_rel_gap": float(options.gap_tol),
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_rens": False,
        "mip_heuristic_run_feasibility_jump": False,
        "mip_allow_restart": False,
        # HiGHS's default; off for a solve given a start (ScipyMilpAdapter)
        "mip_heuristic_run_root_reduced_cost": True,
    }


@dataclass(frozen=True)
class _Lowered:
    """A model as HiGHS takes it: minimize ``sum(cost[j] * x[j])`` subject to
    ``row_lower <= A x <= row_upper`` and ``lower <= x <= upper``, with
    ``A`` column-wise: column ``j`` holds ``value[start[j]:start[j+1]]``
    in the rows ``index[start[j]:start[j+1]]``, rows ascending (the
    compressed sparse column layout)."""

    cost: list[float]
    lower: list[float]
    upper: list[float]
    start: list[int]
    index: list[int]
    value: list[float]
    row_lower: list[float]
    row_upper: list[float]
    integer: list[bool]  # mask of the binaries


def _lower(model: MilpModel) -> _Lowered:
    n = model.n_vars
    cost = [0.0] * n
    for v, coef in model.obj.items():
        cost[v] = -coef  # HiGHS minimizes
    # walking the rows in order leaves every column's entries row-ascending
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_values: list[list[float]] = [[] for _ in range(n)]
    row_lower: list[float] = []
    row_upper: list[float] = []
    for r, (coeffs, sense, rhs, _) in enumerate(model.constraints):
        for v, coef in coeffs.items():
            col_rows[v].append(r)
            col_values[v].append(coef)
        row_lower.append(-math.inf if sense == "<=" else rhs)
        row_upper.append(math.inf if sense == ">=" else rhs)
    return _Lowered(cost, list(model.lb), list(model.ub),
                    [0, *itertools.accumulate(map(len, col_rows))],
                    list(itertools.chain.from_iterable(col_rows)),
                    list(itertools.chain.from_iterable(col_values)),
                    row_lower, row_upper, [kind == BINARY for kind in model.kind])


_redirect_lock = threading.Lock()
_redirect_depth = 0  # solves inside _stdout_to_stderr
_saved_stdout = -1  # a duplicate of the original fd 1 while depth > 0


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at stderr. HiGHS prints some MIP debug
    lines straight to the process's stdout even with ``output_flag`` off.

    File descriptors belong to the process, so solves on several threads
    share one redirect: the first solve in saves fd 1 and points it at
    stderr, the last one out restores it."""
    global _redirect_depth, _saved_stdout
    with _redirect_lock:
        if _redirect_depth == 0:
            saved = os.dup(1)
            try:
                os.dup2(2, 1)
            except BaseException:
                os.close(saved)
                raise
            _saved_stdout = saved
        _redirect_depth += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_depth -= 1
            if _redirect_depth == 0:
                os.dup2(_saved_stdout, 1)
                os.close(_saved_stdout)


class ScipyMilpAdapter:
    """HiGHS backend, called through the HiGHS binding that scipy bundles
    rather than ``scipy.optimize.milp``: only the binding reaches every
    option of :func:`highs_options` (README "Installation" says why each
    is set). An option HiGHS rejects raises ``ValueError`` before any
    solve.

    Integer variables come back from the backend only to within its
    integrality tolerance; downstream identities (piecewise conversion,
    storage telescoping) amplify that noise. Assignments with integers are
    therefore polished: the integers are rounded and fixed through their
    column bounds, and the continuous variables are refit by one LP solve,
    on a fresh HiGHS instance built from the same lowered arrays.

    A MIP may be given a start: an integer assignment by column name, such
    as the previous intraday session's :attr:`Solution.integers`. The
    start is used only when it names every integer column with an integer
    value inside the column's bounds and its LP, the other columns refit
    with those integers fixed, is optimal. HiGHS then gets that LP's
    vector as its incumbent and runs without its root reduced-cost
    sub-MIP, which would only search for one; otherwise the MIP is solved
    as without a start. The answer is the start LP's vector when the MIP's
    rounded integers are the start's (no polish LP runs), else the polish
    LP's, else (the polish LP not optimal) the MIP's own incumbent.
    :attr:`Solution.start_objective` is the start LP's objective; an LP
    given a start has no integers to keep and is its own start LP.
    """

    def solve(self, model: MilpModel, options: SolveOptions,
              start: Mapping[str, float] | None = None) -> Solution:
        """Solve ``model``; its SOS-2 sets go in as segment binaries, and the
        assignment comes back on the model's own columns.

        HiGHS runs once for an LP and up to three times for a MIP: the
        start LP when given a start, the MIP, and the polish LP unless the
        MIP kept the checked start's integers."""
        sos_free = reformulate_sos2_as_binary(model) if model.sos2_sets else model
        t0 = time.perf_counter()
        low = _lower(sos_free)
        integers = [j for j, is_int in enumerate(low.integer) if is_int]
        is_mip = bool(integers)
        size = {"n_binaries": len(integers), "n_nonzeros": len(low.value)}
        names = [sos_free.var_name(j) for j in range(len(low.cost))] if is_mip else []
        kept = None  # the completed start
        if is_mip and start is not None:
            fixed = {j: start.get(names[j]) for j in integers}
            if all(v is not None and v == round(v, 0) and low.lower[j] <= v <= low.upper[j]
                   for j, v in fixed.items()):
                # None when the plan no longer fits the model
                kept = self._refit(low, fixed, options)
        highs, status = self._run(low, low.lower, low.upper, low.integer, options, kept)
        info = highs.getInfo()
        stats = {"nodes": max(int(info.mip_node_count), 0) if is_mip else 0,
                 "lp_iterations": max(int(info.simplex_iteration_count), 0), **size}
        message = highs.modelStatusToString(status)
        incumbent = status == _h.HighsModelStatus.kOptimal or (
            is_mip and status in _LIMITS and info.objective_function_value != _h.kHighsInf)
        if not incumbent:
            return Solution(status=_FAILED.get(status, "error"), message=message,
                            runtime_s=time.perf_counter() - t0, **stats)
        values = tuple(highs.getSolution().col_value)
        bound = info.mip_dual_bound if is_mip else info.objective_function_value
        if is_mip:
            snapped = {j: min(max(round(values[j], 0), low.lower[j]), low.upper[j])  # half to even
                       for j in integers}
            if kept is not None and all(kept[j] == v for j, v in snapped.items()):
                # the polish LP would be the start LP again, on a fresh
                # instance over the same arrays: the same vector up to the
                # sign of a zero in an integer column
                values = kept
            else:
                # on a fresh instance: reusing the MIP's can return another
                # optimal vertex, and the storage's alternate optima would
                # move the next session and the run's profit
                refit = self._refit(low, snapped, options)
                # the refit fails only through backend numerics (the rounded
                # point is feasible whenever the incumbent met the
                # integrality tolerance); the incumbent then stands
                values = values if refit is None else refit
        objective = _objective(low, values)
        start_objective = (_objective(low, kept) if kept is not None
                           else objective if start is not None and not is_mip else None)
        return Solution(
            status="optimal" if status == _h.HighsModelStatus.kOptimal else "feasible",
            objective=objective, values=values[:model.n_vars],
            runtime_s=time.perf_counter() - t0, message=message, dual_bound=-float(bound),
            integers={names[j]: values[j] for j in integers},
            start_objective=start_objective, **stats)

    @staticmethod
    def _run(low: _Lowered, lower: list[float], upper: list[float], integer: list[bool],
             options: SolveOptions, incumbent: tuple[float, ...] | None = None):
        """Run a fresh HiGHS instance over the lowered model with these
        column bounds and integer columns, from ``incumbent`` when given
        (with the root reduced-cost sub-MIP off). Returns the instance and
        its model status, ``kSolveError`` when the run fails. Raises
        :class:`ModelError` when HiGHS does not take the model, for
        instance a coefficient beyond its ``large_matrix_value`` (1e15)."""
        highs = _h._Highs()
        settings = highs_options(options)
        if incumbent is not None:
            settings["mip_heuristic_run_root_reduced_cost"] = False
        for name, value in settings.items():
            if highs.setOptionValue(name, value) != _h.HighsStatus.kOk:
                raise ValueError(f"HiGHS rejected option {name}={value!r}")
        lp = _h.HighsLp()
        lp.num_col_, lp.num_row_ = len(low.cost), len(low.row_lower)
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = low.cost, lower, upper
        lp.row_lower_, lp.row_upper_ = low.row_lower, low.row_upper
        lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = lp.num_col_, lp.num_row_
        lp.a_matrix_.start_ = low.start
        lp.a_matrix_.index_ = low.index
        lp.a_matrix_.value_ = low.value
        lp.integrality_ = [_INTEGER if i else _CONTINUOUS for i in integer]
        if highs.passModel(lp) == _h.HighsStatus.kError:
            largest = max(map(abs, low.value), default=0.0)
            raise ModelError(f"HiGHS refused the model (largest |coefficient| {largest:g})")
        if incumbent is not None:
            given = _h.HighsSolution()
            given.col_value, given.value_valid = list(incumbent), True
            highs.setSolution(given)
        with _stdout_to_stderr():
            if highs.run() == _h.HighsStatus.kError:
                return highs, _h.HighsModelStatus.kSolveError
        return highs, highs.getModelStatus()

    @classmethod
    def _refit(cls, low: _Lowered, fixed: dict[int, float],
               options: SolveOptions) -> tuple[float, ...] | None:
        """The optimum of the LP over the columns outside ``fixed``, those
        held at their values, on a fresh instance; None unless optimal."""
        lower = [fixed.get(j, lb) for j, lb in enumerate(low.lower)]
        upper = [fixed.get(j, ub) for j, ub in enumerate(low.upper)]
        highs, status = cls._run(low, lower, upper, [False] * len(lower), options)
        if status != _h.HighsModelStatus.kOptimal:
            return None
        return tuple(fixed.get(j, v) for j, v in enumerate(highs.getSolution().col_value))


def _objective(low: _Lowered, x: Sequence[float]) -> float:
    """The maximization objective of a vector over the lowered columns;
    ``0.0 - `` keeps an optimum of zero from reading ``-0.0``."""
    return 0.0 - math.fsum(map(operator.mul, low.cost, x))


_INTEGER = _h.HighsVarType.kInteger
_CONTINUOUS = _h.HighsVarType.kContinuous
_LIMITS = (_h.HighsModelStatus.kTimeLimit, _h.HighsModelStatus.kIterationLimit)
# model statuses without an assignment; the rest end as "error". A time
# limit reached before any incumbent ends "time_limit".
_FAILED = {_h.HighsModelStatus.kInfeasible: "infeasible",
           _h.HighsModelStatus.kUnbounded: "unbounded",
           _h.HighsModelStatus.kTimeLimit: "time_limit"}


# ---------------------------------------------------------------------------
# Solving, reformulation, verification
# ---------------------------------------------------------------------------

def solve(model: MilpModel, options: SolveOptions | None = None,
          start: Mapping[str, float] | None = None) -> Solution:
    """Validate a model and solve it with HiGHS (:class:`ScipyMilpAdapter`),
    from ``start`` when given."""
    model.validate()
    return ScipyMilpAdapter().solve(model, options or SolveOptions(), start)


def reformulate_sos2_as_binary(model: MilpModel) -> MilpModel:
    """Replace each SOS-2 set by segment-selection binaries.

    A set of n weights gains n-1 binaries, one per adjacent pair; exactly
    one segment is active and each weight is capped at its upper bound
    times the activity of the segments it belongs to. Projecting the new
    feasible set onto the original variables reproduces the SOS-2 set
    exactly. Members must have finite upper bounds.

    The result extends a shallow copy: new column and row lists, which
    share the model's row tuples (no row changes once added).
    """
    out = MilpModel(model.name)
    out.kind, out.lb, out.ub = list(model.kind), list(model.lb), list(model.ub)
    out.var_names, out.constraints = list(model.var_names), list(model.constraints)
    out.obj = dict(model.obj)
    for members, name in model.sos2_sets:
        label = name or f"sos{len(out.sos2_sets)}"
        for m in members:
            if not math.isfinite(model.ub[m]):
                raise ValueError(
                    f"SOS-2 set {name!r} member {m} needs a finite upper bound "
                    "for the binary reformulation")
        z = [out.add_binary(f"{label}_seg{j}") for j in range(len(members) - 1)]
        out.add_constraint({v: 1.0 for v in z}, "==", 1.0, f"{label}_one_segment")
        for i, m in enumerate(members):
            ub = model.ub[m]
            coeffs = {m: 1.0}
            if i > 0:
                coeffs[z[i - 1]] = -ub
            if i < len(members) - 1:
                coeffs[z[i]] = coeffs.get(z[i], 0.0) - ub
            out.add_constraint(coeffs, "<=", 0.0, f"{label}_link{i}")
    return out


def verify(model: MilpModel, solution: Solution) -> list[Violation]:
    """Independently re-check an assignment against the model.

    Returns one violation per failed constraint, bound, integrality or
    SOS-2 condition; an empty list certifies feasibility within
    ``FEAS_TOL``.
    """
    if solution.values is None:
        raise ValueError(f"solution with status {solution.status!r} has no assignment")
    x = solution.values
    if len(x) != model.n_vars:
        raise ValueError(f"assignment has {len(x)} values, model has {model.n_vars} variables")
    out: list[Violation] = []

    for r, (coeffs, sense, rhs, _) in enumerate(model.constraints):
        act = sum(coef * x[v] for v, coef in coeffs.items())
        if sense == "<=":
            residual = act - rhs
        elif sense == ">=":
            residual = rhs - act
        else:
            residual = abs(act - rhs)
        if residual > FEAS_TOL:
            out.append(Violation("constraint", model.constraint_name(r), float(residual)))

    for i, (kind, lb, ub, xi) in enumerate(zip(model.kind, model.lb, model.ub, x)):
        if xi < lb - FEAS_TOL:
            out.append(Violation("bound", model.var_name(i), float(lb - xi)))
        elif xi > ub + FEAS_TOL:
            out.append(Violation("bound", model.var_name(i), float(xi - ub)))
        if kind == BINARY:
            drift = abs(xi - round(xi))
            if drift > FEAS_TOL:
                out.append(Violation("integrality", model.var_name(i), float(drift)))

    for members, name in model.sos2_sets:
        nz = [m for m in members if abs(x[m]) > FEAS_TOL]
        label = (name or "sos2") + " adjacency"
        if len(nz) > 2:
            # everything beyond the largest adjacent pair must vanish
            residual = sorted((abs(x[m]) for m in nz), reverse=True)[2]
            out.append(Violation("sos2", label, float(residual)))
        elif len(nz) == 2:
            i, j = (members.index(nz[0]), members.index(nz[1]))
            if abs(i - j) != 1:
                out.append(Violation("sos2", label, float(min(abs(x[m]) for m in nz))))
    return out


# ---------------------------------------------------------------------------
# LP-format dump
# ---------------------------------------------------------------------------

_NAME_OK = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _sanitize(raw: str, fallback: str, taken: set[str]) -> str:
    name = re.sub(r"[^A-Za-z0-9_.]", "_", raw) if raw else fallback
    if not _NAME_OK.match(name) or name[0] in "eE" and name[1:2].isdigit():
        name = f"v_{name}"
    if name in taken:
        name = f"{name}_{fallback}"
    taken.add(name)
    return name


def _coef_str(coef: float, name: str, first: bool) -> str:
    mag = abs(coef)
    body = name if mag == 1 else f"{mag:.12g} {name}"
    if first:
        return f"-{body}" if coef < 0 else body
    return f"- {body}" if coef < 0 else f"+ {body}"


def dump_lp(model: MilpModel, path: str | Path | None = None) -> str:
    """Render the model in LP-format-compatible text (with an SOS section).

    Names are sanitized to the LP character set.
    """
    taken: set[str] = set()
    vnames = [_sanitize(model.var_name(i), f"x{i}", taken) for i in range(model.n_vars)]
    cnames = [_sanitize(model.constraint_name(r), f"c{r}", taken)
              for r in range(model.n_constraints)]

    def terms(coeffs: Mapping[int, float]) -> str:
        parts = []
        for v in sorted(coeffs):
            if coeffs[v] == 0:
                continue
            parts.append(_coef_str(coeffs[v], vnames[v], first=not parts))
        return " ".join(parts) if parts else "0 " + (vnames[0] if vnames else "x0")

    lines = []
    if model.name:
        lines.append(f"\\ {model.name}")
    lines.append("Maximize")
    lines.append(f" obj: {terms(model.obj)}")
    lines.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    for cname, (coeffs, sense, rhs, _) in zip(cnames, model.constraints):
        lines.append(f" {cname}: {terms(coeffs)} {sense_txt[sense]} {rhs:.12g}")
    lines.append("Bounds")
    for i, (kind, lb, ub) in enumerate(zip(model.kind, model.lb, model.ub)):
        if kind == BINARY and lb == 0 and ub == 1:
            continue
        if lb == ub:
            lines.append(f" {vnames[i]} = {lb:.12g}")
        elif lb == -math.inf and ub == math.inf:
            lines.append(f" {vnames[i]} free")
        else:
            lo = "-inf" if lb == -math.inf else f"{lb:.12g}"
            hi = "+inf" if ub == math.inf else f"{ub:.12g}"
            lines.append(f" {lo} <= {vnames[i]} <= {hi}")
    binaries = [v for v, kind in zip(vnames, model.kind) if kind == BINARY]
    if binaries:
        lines.append("Binary")
        lines.extend(f" {b}" for b in binaries)
    if model.sos2_sets:
        lines.append("SOS")
        sos_taken: set[str] = set()
        for idx, (members, name) in enumerate(model.sos2_sets):
            sname = _sanitize(name, f"s{idx}", sos_taken)
            weights = " ".join(f"{vnames[m]}:{j + 1}" for j, m in enumerate(members))
            lines.append(f" {sname}: S2:: {weights}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
