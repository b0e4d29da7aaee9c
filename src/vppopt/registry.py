"""Map from the domain meaning of model variables to their columns.

Every variable a formulation creates is registered under a
``(role, entity, period)`` key: role is the variable family (``"dres_p"``,
``"angle"``, ...), entity the asset, bus or line id, and period the
1-based delivery period (``None`` for non-temporal variables such as
profile selectors). Each key names one fresh column, which is what lets
reports and intraday ledgers read solutions back by meaning rather than
by raw column index.
"""

from __future__ import annotations

import math

from vppopt.milp import MilpModel

Key = tuple[str, str, "int | None"]


class VariableRegistry:
    def __init__(self) -> None:
        self._by_key: dict[Key, int] = {}

    def new(self, model: MilpModel, role: str, entity: str, t: int | None,
            kind: str = "continuous", lb: float = 0.0, ub: float = math.inf) -> int:
        """Create a model variable and register it under its key."""
        key = (role, entity, t)
        if key in self._by_key:
            raise KeyError(f"variable key {key} already registered")
        name = f"{role}.{entity}" + (f".t{t}" if t is not None else "")
        if kind == "binary":
            var = model.add_binary(name)
        else:
            var = model.add_continuous(name, lb, ub)
        self._by_key[key] = var
        return var

    def id(self, role: str, entity: str, t: int | None = None) -> int:
        return self._by_key[(role, entity, t)]
