"""In-process tracing of the h1loc layers, installed from outside the package.

``Tracer.install`` wraps every module-level function of the six layer
modules and every method, static method included, of the classes they
define, except the generator functions and the hot accessors in
``UNTRACED``.  It replaces each reference to an original: in the defining
module or class, in every module that imported the name, in the package
namespace, and in module-level dicts such as the construction report
registry.  ``Tracer.remove`` puts every original back.  The time of an
unwrapped function falls into the span of its caller, whatever layer that
is in.

A span is (name, start, end, parent, invocation id), kept in flat arrays and
written out only by ``write_spans``.  A layer's self time is the sum, over
its spans, of the span's duration minus the durations of its direct child
spans.  A function's time (``<metric>.s``) counts only the outermost of any
nested calls of that function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("zmod", "groups", "cohomology", "constructions", "classify", "cli")

# Inner-loop accessors, each called 15,000 to 10^6 times by one invocation
# of the benchmark: a span there would cost more than the call it measures.
UNTRACED = {
    "groups._mul4",
    "groups.FiniteMatrixGroup.mult",
    "zmod.ModulusContext.valuation",
    "zmod.ModulusContext.unit_inverse",
    "zmod.ModVector.__len__",
    "zmod.ModMatrix.__post_init__",
    "zmod.ModMatrix.entry",
    "zmod.ModMatrix.row",
    "zmod.SubmoduleBasis.from_raw",
    "cohomology.GModule.action_entries",
}

# metric -> ("calls" | "time", span name) or ("count", counter name).
SPAN_METRICS = {
    "zmod.howell.calls": ("calls", "zmod._howell_raw"),
    "zmod.howell.rows_in": ("count", "zmod.howell.rows_in"),
    "zmod.howell.s": ("time", "zmod._howell_raw"),
    "zmod.kernel.calls": ("calls", "zmod._kernel_raw"),
    "zmod.kernel.s": ("time", "zmod._kernel_raw"),
    "zmod.solve.calls": ("calls", "zmod.solve_linear"),
    "zmod.solve.s": ("time", "zmod.solve_linear"),
    "zmod.quotient_structure.s": ("time", "zmod.quotient_structure"),
    "groups.close.calls": ("calls", "groups.close_group"),
    "groups.close.elements": ("count", "groups.close.elements"),
    "groups.close.s": ("time", "groups.close_group"),
    "groups.quotient.s": ("time", "groups.quotient_group"),
    "cohomology.system.builds": ("calls", "cohomology.CocycleSystem.__init__"),
    "cohomology.system.harvest_rows": ("count", "cohomology.system.harvest_rows"),
    "cohomology.system.build_s": ("time", "cohomology.CocycleSystem.__init__"),
    "cohomology.z1.s": ("time", "cohomology.CocycleSystem.z1"),
    "cohomology.b1.s": ("time", "cohomology.CocycleSystem.b1"),
    "cohomology.z1_local.s": ("time", "cohomology.CocycleSystem.z1_local"),
    "cohomology.local_rows.s": ("time", "cohomology.CocycleSystem.local_constraint_rows"),
    "cohomology.local_table.calls": ("calls", "cohomology.CocycleSystem.is_local_table"),
    "cohomology.local_table.s": ("time", "cohomology.CocycleSystem.is_local_table"),
    "cohomology.verify_cocycle.calls": ("calls", "cohomology.verify_cocycle"),
    "cohomology.verify_cocycle.s": ("time", "cohomology.verify_cocycle"),
    "cohomology.is_coboundary.s": ("time", "cohomology.is_coboundary"),
    "constructions.report.s3-quotient.s": ("time", "constructions.report_s3_quotient"),
    "constructions.report.cyclic-quotient.s": ("time", "constructions.report_cyclic_quotient"),
    "constructions.report.borel-shared.s": ("time", "constructions.report_borel_shared"),
    "constructions.report.borel-shared-index2.s": ("time", "constructions.report_borel_index2"),
    "constructions.report.borel-disjoint.s": ("time", "constructions.report_borel_disjoint"),
    "classify.scan.s": ("time", "classify.scan_prime_to_p_subgroups"),
    "classify.classify.s": ("time", "classify.classify_mod_p_group"),
    "classify.filter.s": ("time", "classify.necessary_shape_filter"),
}
SELF_METRICS = {f"{layer}.self_s": layer for layer in LAYERS}
# Every per-layer metric of a traced run, in report order; trace.overhead_s
# is traced minus untraced wall time of a pass (see run.py).
METRICS = tuple(SELF_METRICS) + tuple(SPAN_METRICS) + ("trace.overhead_s",)


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def _count_harvest_rows(args, _result):
    return "cohomology.system.harvest_rows", len(args[0].constraints)


# span name -> what its call adds to a counter.
_COUNTERS = {
    "zmod._howell_raw": lambda args, _result: ("zmod.howell.rows_in", len(args[0])),
    "groups.close_group": lambda _args, result: ("groups.close.elements", len(result)),
    "cohomology.CocycleSystem.__init__": _count_harvest_rows,
}


def defined_classes(mod) -> list[type]:
    return [obj for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__]


def _traceable(name: str, obj, mod) -> bool:
    """A function written in ``mod``'s source: not one a decorator such as
    ``dataclass`` generated, nor a generator, nor one of UNTRACED."""
    return (inspect.isfunction(obj) and obj.__code__.co_filename == mod.__file__
            and not inspect.isgeneratorfunction(obj) and name not in UNTRACED)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.nested = array("b")  # 1 when a call of the same function encloses it
        self.counters: Counter = Counter()
        self.invocation_id = 0
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"h1loc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if _traceable(f"{layer}.{attr}", obj, mod):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls in defined_classes(mod):
                for attr, obj in list(vars(cls).items()):
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if isinstance(obj, staticmethod) and _traceable(name, obj.__func__, mod):
                        self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
                    elif _traceable(name, obj, mod):
                        self._set(cls, attr, self._wrap(name, obj))
        namespaces = [importlib.import_module("h1loc"), *modules.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]
        missing = {name for kind, name in SPAN_METRICS.values() if kind != "count"} - set(self.names)
        if missing:
            self.remove()
            raise RuntimeError(f"traced functions not found in h1loc: {sorted(missing)}")

    def remove(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def _set(self, target, attr: str, value) -> None:
        # getattr_static: a class's staticmethod object, not its function.
        self._patches.append((target, attr, inspect.getattr_static(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        count = _COUNTERS.get(name)
        stack, active = self._stack, self._active
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        invocation, nested, counters = self.invocation, self.nested, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            invocation.append(self.invocation_id)
            nested.append(1 if active[nid] else 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if count is not None:
                key, amount = count(args, result)
                counters[key] += amount
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = Counter()
        time_s = Counter()
        for i in range(n):
            nid = self.span_name[i]
            self_s[layer_of[nid]] += dur[i] - child[i]
            calls[nid] += 1
            if not self.nested[i]:
                time_s[nid] += dur[i]
        ids = {name: nid for nid, name in enumerate(self.names)}
        out = {metric: self_s[layer] for metric, layer in SELF_METRICS.items()}
        for metric, (kind, name) in SPAN_METRICS.items():
            if kind == "count":
                out[metric] = self.counters[name]
            else:
                out[metric] = (calls if kind == "calls" else time_s)[ids[name]]
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, invocation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tinvocation\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.invocation[i]}\n")
