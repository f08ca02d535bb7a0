"""Spans around the public functions of eisenkit's layers, recorded from outside.

``Tracer.install`` wraps every public callable defined in a layer module
(Python functions and compiled ones alike; classes are left alone) and
rebinds every module attribute in the loaded ``eisenkit`` package that refers
to it (``eisenstein.bessel_k`` and ``special_functions.bessel_k`` alike), so
calls made through any import path are seen.  ``restore`` puts every original
back.  Spans (name, start, end, parent, op id, work argument) stay in memory
until the run ends; ``summary`` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "eisenkit"
LAYERS = ("special_functions", "eisenstein", "_kernels", "euler_products", "root_systems", "_arith", "cli")

# work counted at the call boundary, from the arguments: name -> f(args, kwargs)
_WORK = {
    "_kernels.bessel_k_trapezoid": lambda a, k: a[4] + 1,  # nodes: f(0) and nsteps more
    "_kernels.lattice_sum": lambda a, k: a[4],  # radius
    "_kernels.lattice_sum_batch": lambda a, k: (len(a[0]), a[4]),  # x nodes, radius
}


def _layer_of(module_name: str):
    parts = module_name.split(".")
    if parts[0] == PACKAGE and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.work: list = []
        self.results: list = []  # return value of euler_products.partial_l spans, for factor counts
        self.op_id = -1
        self._stack: list = []
        self._patched: list = []
        self.wrapped: set = set()  # span names of every wrapped callable

    # -------------------------------------------------------------- patching

    def install(self) -> int:
        """Wrap every public layer callable; returns the number of rebinds."""
        modules = [m for n, m in list(sys.modules.items()) if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m]
        wrappers = {}
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (
                    callable(fn)
                    and hasattr(fn, "__name__")
                    and not isinstance(fn, type)
                    and not attr.startswith("_")
                    and _layer_of(getattr(fn, "__module__", None) or "") == layer
                    and id(fn) not in wrappers
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    self.wrapped.add(wrapper.span_name)
                    setattr(module, attr, wrapper)
        return len(self._patched)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        work = _WORK.get(name)
        keep_result = name == "euler_products.partial_l"
        clock = time.perf_counter
        names, starts, ends, parents, ops, works, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.work, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            works.append(work(args, kwargs) if work else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    works[idx] = result.factor_count
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.span_name = name
        return wrapper

    # -------------------------------------------------------------- analysis

    def summary(self) -> dict:
        """Per span name: calls, busy (outermost spans of that name), self time,
        and the op ids and work figures of each span."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i in range(n):
            name = self.names[i]
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "spans": []})
            duration = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not self.has_ancestor_named(i, name):
                entry["busy_s"] += duration
            entry["spans"].append(i)
        return out

    def has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def children_named(self, i: int, name: str) -> int:
        """Direct or indirect descendants of span i with the given name."""
        count = 0
        for j in range(i + 1, len(self.names)):
            if self.starts[j] >= self.ends[i]:
                break
            if self.names[j] == name:
                count += 1
        return count
