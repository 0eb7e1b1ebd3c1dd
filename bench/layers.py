"""Per-layer timing of ioequil from outside the program.

``Tracer.install`` wraps each public function named in ``TRACED`` and
rebinds the wrapper under every ``ioequil`` module attribute that holds the
original, because modules import these functions by name (``from .core
import matrix_rank``). Each wrapper keeps, per function, the inclusive time,
the self time (inclusive minus the time of nested traced calls), the number
of calls and the number that raised. For ``qp.solve_min_excess`` it also
adds up ``QPResult.iterations``. Calls are also counted per CLI command,
named by the caller through ``Tracer.command``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TRACED = (
    "real_economy.loads_table",
    "real_economy.analyze",
    "core.matrix_rank",
    "core.spectral_radius",
    "core.is_productive",
    "core.is_indecomposable",
    "qp.solve_min_excess",
    "equilibrium.min_excess_qp",
    "equilibrium.assemble_equilibrium",
    "equilibrium.prices_from_consumption",
    "equilibrium.prices_on_support",
    "sustainability.check_sustainable",
    "balance.balanced_eigenvector",
    "taxation.tax_family",
    "taxation.tax_bounds",
    "taxation.value_added_tax",
    "aggregation.aggregate",
    "aggregation.relative_prices",
    "reporting.canonical_json",
)
QP = "qp.solve_min_excess"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for f in TRACED:
        names += [(f"{f}.s", "s"), (f"{f}.self_s", "s"), (f"{f}.calls", "count"),
                  (f"{f}.raised", "count")]
    names.append((f"{QP}.iterations", "count"))
    return names


class _Stat:
    __slots__ = ("inclusive", "self_time", "calls", "raised")

    def __init__(self):
        self.inclusive = self.self_time = 0.0
        self.calls = self.raised = 0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in TRACED}
        self.qp_iterations = 0
        self.command = ""                   # CLI command being run, set by the caller
        self.command_calls: dict[str, dict[str, int]] = {}
        self._children: list[float] = []   # nested traced time, one slot per open call

    def install(self) -> None:
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"ioequil.{module_name}"), attr)
            wrapper = self._wrap(name, original)
            holders = [m for key, m in list(sys.modules.items())
                       if key == "ioequil" or key.startswith("ioequil.")]
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                nested = children.pop()
                stat.inclusive += elapsed
                stat.self_time += elapsed - nested
                stat.calls += 1
                per_command = self.command_calls.setdefault(self.command, {})
                per_command[name] = per_command.get(name, 0) + 1
                if children:
                    children[-1] += elapsed
            if name == QP:
                self.qp_iterations += result.iterations
            return result

        return wrapper

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round over the workload's tables."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.s"] = stat.inclusive / rounds
            out[f"{name}.self_s"] = stat.self_time / rounds
            out[f"{name}.calls"] = stat.calls / rounds
            out[f"{name}.raised"] = stat.raised / rounds
        out[f"{QP}.iterations"] = self.qp_iterations / rounds
        return out
