"""In-memory span recorder that wraps public library functions from outside.

``Tracer.install()`` replaces each traced function or method with a thin
wrapper and rebinds every module-level alias of it across ``cmperiods.*``
(``from .hodge import critical_range`` copies the name into the importing
module, so patching the defining module alone would miss those calls).
Spans are kept in flat arrays, one entry per call: name, parent span,
start and end.  ``summary()`` computes each span's self time as its
duration minus that of its direct children and aggregates per layer
group; ``write()`` dumps the raw spans once the traced work is over.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# Functions traced one by one, as "module:qualname".
NAMED = [
    "cli:main",
    "scenario:parse_scenario",
    "scenario:run_checks",
    "scenario:emit_report",
    "sweeps:random_instance",
    "periods:equivalent_mod",
    "periods:standard_relations",
    "periods:mono_mul",
    "periods:mono_inv",
    "periods:mono_pow",
    "periods:mono",
    "periods:compare_automorphic_motivic",
    "periods:normalizing_factor_closed",
    "periods:normalizing_factor_product",
    "lattice:IntegerLattice.add",
    "lattice:IntegerLattice.reduce",
    "hodge:hodge_from_arch_params",
    "hodge:hodge_of_character",
    "hodge:tensor_hodge",
    "hodge:hodge_exponents",
    "hodge:critical_range",
    "hodge:signature_from_arch",
    "hodge:signature_from_hodge",
    "hodge:split_indices",
    "hodge:critical_points_satisfy_bounds",
    "hodge:doubling_bounds_check",
]

# Modules whose every public module-level function is traced, so that a
# module-wide group counts all of the module's entry points.
WHOLE_MODULES = ["weights", "hecke", "cmfield", "basechange"]

# Layer groups: metric prefix -> traced functions whose spans it sums.
# A group naming a whole module is filled in by ``install``.
GROUPS = {
    "cli.main": ["cli:main"],
    "scenario.parse_scenario": ["scenario:parse_scenario"],
    "scenario.run_checks": ["scenario:run_checks"],
    "scenario.emit_report": ["scenario:emit_report"],
    "sweeps.random_instance": ["sweeps:random_instance"],
    "periods.equivalent_mod": ["periods:equivalent_mod"],
    "periods.standard_relations": ["periods:standard_relations"],
    "periods.monomial": ["periods:mono_mul", "periods:mono_inv", "periods:mono_pow", "periods:mono"],
    "periods.compare_automorphic_motivic": ["periods:compare_automorphic_motivic"],
    "periods.normalizing_factor": ["periods:normalizing_factor_closed", "periods:normalizing_factor_product"],
    "lattice.add": ["lattice:IntegerLattice.add"],
    "lattice.reduce": ["lattice:IntegerLattice.reduce"],
    "hodge.chain": [
        "hodge:hodge_from_arch_params",
        "hodge:hodge_of_character",
        "hodge:tensor_hodge",
        "hodge:hodge_exponents",
        "hodge:critical_range",
    ],
    "hodge.critical_range": ["hodge:critical_range"],
    "hodge.signature": ["hodge:signature_from_arch", "hodge:signature_from_hodge", "hodge:split_indices"],
    "hodge.bounds": ["hodge:critical_points_satisfy_bounds", "hodge:doubling_bounds_check"],
    "basechange.commutativity_check": ["basechange:commutativity_check"],
    "basechange.weyl_equivalent": ["basechange:weyl_equivalent"],
    "weights": ["weights"],
    "hecke": ["hecke"],
    "cmfield": ["cmfield"],
    "basechange": ["basechange"],
}

PACKAGE = "cmperiods"


class TraceError(RuntimeError):
    """A traced name is missing, or a group that must be exercised recorded no call."""


def _traceable(obj, modname: str) -> bool:
    if inspect.isclass(obj) or getattr(obj, "__module__", None) != modname:
        return False
    if inspect.isgeneratorfunction(obj):
        return False  # a span would close before the generator runs
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")  # plain or lru_cache-wrapped


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.call_id = -1
        self.members: dict[str, list[str]] = {}
        self.rebound = 0

    def _wrap(self, fn, name: str):
        ix = len(self.names)
        self.names.append(name)
        name_ix, parent, call, start, end, stack = (
            self.name_ix, self.parent, self.call, self.start, self.end, self.stack,
        )
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            call.append(tracer.call_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every traced function and rebind its aliases; raise if a name is gone."""
        targets: dict[int, tuple[str, object, object]] = {}  # id(original) -> (name, original, owner)
        for spec in NAMED:
            modname, qual = spec.split(":")
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                raise TraceError(f"traced function {spec} no longer exists")
            targets[id(fn)] = (spec, fn, owner)
        for modname in WHOLE_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            found = [
                f"{modname}:{attr}"
                for attr, obj in sorted(vars(mod).items())
                if not attr.startswith("_") and _traceable(obj, mod.__name__)
            ]
            if not found:
                raise TraceError(f"module {modname} exposes no traceable function")
            self.members[modname] = found
            for spec in found:
                fn = getattr(mod, spec.split(":")[1])
                targets.setdefault(id(fn), (spec, fn, mod))

        wrappers = {key: self._wrap(fn, spec) for key, (spec, fn, _) in targets.items()}
        for key, (spec, fn, owner) in targets.items():
            if inspect.isclass(owner):
                setattr(owner, spec.split(".")[-1], wrappers[key])
        for modname, mod in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][1]:
                    setattr(mod, attr, wrappers[id(value)])
                    self.rebound += 1
                elif type(value) is dict:  # e.g. a registry of model factories
                    for k, v in list(value.items()):
                        if id(v) in wrappers and v is targets[id(v)][1]:
                            value[k] = wrappers[id(v)]
                            self.rebound += 1

    def group_members(self, group: str) -> list[str]:
        out = []
        for spec in GROUPS[group]:
            out.extend(self.members.get(spec, [spec]))
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls and summed self time in seconds."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name_ix[i]
            calls[k] += 1
            self_ns[k] += end[i] - start[i] - child[i]
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def groups(self) -> dict[str, dict[str, float]]:
        per_fn = self.summary()
        out = {}
        for group in GROUPS:
            members = self.group_members(group)
            out[group] = {
                "calls": sum(per_fn[m]["calls"] for m in members),
                "self_s": sum(per_fn[m]["self_s"] for m in members),
            }
        return out

    def write(self, path: str) -> None:
        """Raw spans as gzip'd TSV: span, parent, call, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tcall\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.call[i]}\t{names[self.name_ix[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )

    @property
    def spans(self) -> int:
        return len(self.start)
