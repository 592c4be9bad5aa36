"""Interprocedural function summaries for the SIM1xx rules.

The syntactic rules (SIM001..SIM005) see one expression at a time; the
flow rules need to know what a *callee* does: ``stage()`` is clean in
isolation, but if it calls ``merge()`` which calls ``np.concatenate``,
the byte-moving work must surface at every caller.  This module computes
a conservative **effect summary** per function and propagates it over a
best-effort call graph to a fixpoint.

Facts tracked per function (:class:`FunctionSummary.effects`) — exactly
what SIM103 consumes:

* ``moves_bytes`` — may perform byte-moving work (file/socket IO,
  pickling, numpy materializations); SIM103 demands such functions
  charge the cost model.
* ``charges_metering`` — charges ``TaskCost`` / advances a sim clock /
  opens a metering span somewhere.

Call resolution is deliberately modest — exactly the cases that are
unambiguous from the source text:

* plain names defined in the same module (including nested defs),
* ``from repro.x.y import f`` / ``import repro.x.y as m; m.f(...)``,
* ``self.method(...)`` within the same class,
* ``p.method(...)`` where ``p`` is a parameter annotated with a
  ``repro`` class (``def kcore(graph: Graph, ...)``) — the annotation
  names the receiver type, so the method summary is unambiguous.

Anything else (arbitrary ``obj.method(...)``) resolves to nothing and
contributes no effects: the summaries under-approximate unknown code
rather than drowning callers in speculative taint.  Both effects
propagate from callee to caller (a callee that charges satisfies the
caller's metering obligation at the call node).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.rules import (
    _OS_IO,
    _OS_PATH_IO,
    _dotted,
    _import_aliases,
    _resolve,
)

# Effect names.
MOVES_BYTES = "moves_bytes"
CHARGES_METERING = "charges_metering"

#: numpy array materializations big enough to count as byte-moving work.
_NP_BYTE_MOVERS = {
    "copy", "concatenate", "ascontiguousarray", "frombuffer", "vstack",
    "hstack", "stack", "repeat", "tile", "resize",
}

#: Function/method names whose call charges the cost model or opens a
#: metering span.  Receiver-insensitive on purpose: `clock.advance`,
#: `self.clock.advance`, `tracer.cost_span` all count.
_METERING_CALLS = {
    "advance", "task_span", "cost_span", "clock_span", "metered",
    "charge", "charge_cost", "charge_driver_result",
    "accumulate_sequential",
}

#: Attribute tails whose (aug)assignment charges a TaskCost.
_COST_FIELDS = {"cpu_s", "net_s", "disk_s"}


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function.

    Attributes:
        qualname: ``relpath::Class.name`` (module-unique).
        relpath: package-relative module path.
        name: bare function name.
        effects: resolved effect set (after fixpoint propagation).
        local_effects: effects observed directly in the body.
        calls: resolved callee qualnames.
    """

    qualname: str
    relpath: str
    name: str
    effects: Set[str] = field(default_factory=set)
    local_effects: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# local effect extraction
# ----------------------------------------------------------------------


def _moves_bytes(full: str) -> bool:
    """Whether calling the fully-resolved name ``full`` moves bytes."""
    parts = full.split(".")
    return (
        full in ("open", "io.open")
        or (parts[0] == "os" and len(parts) == 2 and parts[1] in _OS_IO)
        or (parts[0] == "os" and len(parts) == 3 and parts[1] == "path"
            and parts[2] in _OS_PATH_IO)
        or parts[0] in ("shutil", "tempfile")
        or full.startswith("socket.")
        or (parts[0] == "pickle"
            and parts[-1] in ("dumps", "loads", "dump", "load"))
        or (parts[0] == "numpy" and len(parts) == 2
            and parts[1] in _NP_BYTE_MOVERS)
    )


def _module_class_map(relpath: str, tree: ast.AST) -> Dict[str, str]:
    """Top-level class name -> fully-qualified ``repro.`` dotted name."""
    mod = _module_name(relpath)
    return {
        child.name: f"{mod}.{child.name}"
        for child in ast.iter_child_nodes(tree)
        if isinstance(child, ast.ClassDef)
    }


def annotated_param_types(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    aliases: Dict[str, str],
    class_map: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Parameter name -> fully-qualified ``repro`` class, when annotated.

    Only annotations that resolve to a ``repro.`` class (through the
    module's imports, or ``class_map`` for classes defined in the same
    module) are kept — foreign types tell us nothing about summaries.
    """
    out: Dict[str, str] = {}
    args = func.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        if a.annotation is None:
            continue
        dotted = _dotted(a.annotation)
        if dotted is None and isinstance(a.annotation, ast.Constant) \
                and isinstance(a.annotation.value, str):
            dotted = a.annotation.value
        if not dotted:
            continue
        full = _resolve(dotted, aliases)
        if not full.startswith("repro.") and class_map:
            full = class_map.get(full, full)
        if full.startswith("repro."):
            out[a.arg] = full
    return out


class _LocalEffects(ast.NodeVisitor):
    """Collects a function body's direct effects and callee names.

    Nested function definitions are skipped — they are separate summary
    subjects; their effects reach the parent only if the parent *calls*
    them, which the call graph records.
    """

    def __init__(self, aliases: Dict[str, str],
                 param_types: Optional[Dict[str, str]] = None) -> None:
        self.aliases = aliases
        self.param_types = param_types or {}
        self.effects: Set[str] = set()
        #: raw callee expressions for the resolver: ("name", "f") for a
        #: plain call, ("self", "m") for self.m(), ("dotted", "a.b.f")
        #: for alias-qualified calls.
        self.raw_calls: List[Tuple[str, str]] = []
        self._depth = 0

    # -- scope fencing -------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._depth == 0:
            self._depth += 1
            self.generic_visit(node)
            self._depth -= 1
        # nested def: don't descend

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda body runs when called, usually via an RDD op whose
        # executor-side effects the closure rules inspect separately.
        return

    # -- effects -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            full = _resolve(dotted, self.aliases)
            if _moves_bytes(full):
                self.effects.add(MOVES_BYTES)
            tail = full.rsplit(".", 1)[-1]
            if tail in _METERING_CALLS:
                self.effects.add(CHARGES_METERING)
            # record for call-graph resolution
            if isinstance(node.func, ast.Name):
                self.raw_calls.append(("name", node.func.id))
            elif isinstance(node.func, ast.Attribute):
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id == "self":
                    self.raw_calls.append(("self", node.func.attr))
                elif isinstance(recv, ast.Name) \
                        and recv.id in self.param_types:
                    self.raw_calls.append((
                        "dotted",
                        f"{self.param_types[recv.id]}.{node.func.attr}",
                    ))
                else:
                    self.raw_calls.append(("dotted", full))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute) \
                and node.target.attr in _COST_FIELDS:
            self.effects.add(CHARGES_METERING)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            if isinstance(t, ast.Attribute) and t.attr in _COST_FIELDS:
                self.effects.add(CHARGES_METERING)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# program index + fixpoint
# ----------------------------------------------------------------------


def _module_name(relpath: str) -> str:
    """``dataflow/rdd.py`` -> ``repro.dataflow.rdd``."""
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    return "repro." + stem.replace("/", ".") if stem else "repro"


class ProgramIndex:
    """Function summaries for a set of modules, resolved to a fixpoint.

    Build incrementally: feed every module with :meth:`add_module`,
    then call :meth:`resolve`.
    """

    def __init__(self) -> None:
        self.summaries: Dict[str, FunctionSummary] = {}
        #: bare name -> qualnames (cross-module fallback resolution).
        self._by_name: Dict[str, Set[str]] = {}
        #: (relpath, Class.name) and (relpath, name) -> qualname.
        self._by_module: Dict[Tuple[str, str], str] = {}
        self._resolved = False

    # -- construction -------------------------------------------------

    def add_module(self, relpath: str, tree: ast.AST) -> None:
        """Summarize every function in one parsed module."""
        aliases = _import_aliases(tree)
        class_map = _module_class_map(relpath, tree)
        for func, cls in _iter_functions(tree):
            qual = f"{relpath}::{cls + '.' if cls else ''}{func.name}"
            collector = _LocalEffects(
                aliases, annotated_param_types(func, aliases, class_map))
            collector.visit(func)
            summary = FunctionSummary(
                qualname=qual, relpath=relpath, name=func.name,
                local_effects=set(collector.effects),
            )
            summary.calls = self._resolve_raw_calls(
                collector.raw_calls, relpath, cls, aliases)
            self._register(summary, cls)
        self._resolved = False

    def _register(self, summary: FunctionSummary, cls: Optional[str]) -> None:
        # Rebuild effects from local on every (re)registration so a
        # stale propagated set never leaks across resolves.
        summary.effects = set(summary.local_effects)
        self.summaries[summary.qualname] = summary
        self._by_name.setdefault(summary.name, set()).add(summary.qualname)
        key_bare = (summary.relpath, summary.name)
        self._by_module.setdefault(key_bare, summary.qualname)
        if cls:
            self._by_module[(summary.relpath, f"{cls}.{summary.name}")] = \
                summary.qualname

    def _resolve_raw_calls(self, raw: List[Tuple[str, str]], relpath: str,
                           cls: Optional[str],
                           aliases: Dict[str, str]) -> Set[str]:
        """Turn collected call expressions into candidate qualnames.

        Resolution happens lazily against the *final* index at fixpoint
        time for cross-module names, so here we normalize to resolvable
        keys: ``mod:relpath:bare`` / ``cls:relpath:Class.bare`` /
        ``imp:repro.x.y.f`` markers.
        """
        out: Set[str] = set()
        for kind, name in raw:
            if kind == "name":
                full = aliases.get(name)
                if full and full.startswith("repro."):
                    out.add(f"imp:{full}")
                else:
                    out.add(f"mod:{relpath}:{name}")
            elif kind == "self" and cls:
                out.add(f"cls:{relpath}:{cls}.{name}")
            elif kind == "dotted":
                # `m.f(...)` where m aliases a repro module.
                if name.startswith("repro."):
                    out.add(f"imp:{name}")
        return out

    # -- fixpoint -----------------------------------------------------

    def _lookup(self, key: str) -> Optional[FunctionSummary]:
        """Resolve one call key to a summary, if the target is indexed."""
        if key.startswith("mod:") or key.startswith("cls:"):
            _, relpath, bare = key.split(":", 2)
            qual = self._by_module.get((relpath, bare))
            if qual is None and key.startswith("cls:") and "." in bare:
                # fall back to a module-level function of the same name
                qual = self._by_module.get((relpath, bare.split(".", 1)[1]))
            return self.summaries.get(qual) if qual else None
        if key.startswith("imp:"):
            # `repro.a.b.f` -> module a/b.py, function f (possibly a
            # re-export through a package __init__; try both).
            dotted = key[4:]
            mod, _, func = dotted.rpartition(".")
            if not mod.startswith("repro"):
                return None
            sub = mod[len("repro"):].lstrip(".").replace(".", "/")
            for rel in (f"{sub}.py" if sub else "__init__.py",
                        f"{sub}/__init__.py" if sub else "__init__.py"):
                qual = self._by_module.get((rel, func))
                if qual:
                    return self.summaries.get(qual)
            # class-qualified: `repro.a.b.Class.method` -> module a/b.py,
            # entry "Class.method" (annotation-guided receiver calls).
            mod2, _, clsname = mod.rpartition(".")
            if mod2.startswith("repro"):
                sub2 = mod2[len("repro"):].lstrip(".").replace(".", "/")
                for rel in (f"{sub2}.py" if sub2 else "__init__.py",
                            f"{sub2}/__init__.py" if sub2
                            else "__init__.py"):
                    qual = self._by_module.get((rel, f"{clsname}.{func}"))
                    if qual:
                        return self.summaries.get(qual)
            # last resort: unique bare-name match anywhere
            quals = self._by_name.get(func, ())
            if len(quals) == 1:
                return self.summaries[next(iter(quals))]
        return None

    def resolve(self) -> None:
        """Propagate effects over the call graph to a fixpoint."""
        if self._resolved:
            return
        for s in self.summaries.values():
            s.effects = set(s.local_effects)
        changed = True
        while changed:
            changed = False
            for s in self.summaries.values():
                for key in s.calls:
                    callee = self._lookup(key)
                    if callee is None:
                        continue
                    gained = callee.effects - s.effects
                    if gained:
                        s.effects |= gained
                        changed = True
        self._resolved = True

    # -- queries used by the rules ------------------------------------

    def summary_for_call(self, call: ast.Call, relpath: str,
                         cls: Optional[str],
                         aliases: Dict[str, str],
                         param_types: Optional[Dict[str, str]] = None,
                         ) -> Optional[FunctionSummary]:
        """The callee's summary for one call expression, if resolvable.

        ``param_types`` (see :func:`annotated_param_types`) lets calls
        on annotated parameters resolve to the annotated class's
        methods.
        """
        func = call.func
        if isinstance(func, ast.Name):
            full = aliases.get(func.id)
            if full and full.startswith("repro."):
                return self._lookup(f"imp:{full}")
            return self._lookup(f"mod:{relpath}:{func.id}")
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name) and recv.id == "self" and cls:
                return self._lookup(f"cls:{relpath}:{cls}.{func.attr}")
            if isinstance(recv, ast.Name) and param_types \
                    and recv.id in param_types:
                return self._lookup(
                    f"imp:{param_types[recv.id]}.{func.attr}")
            dotted = _dotted(func)
            if dotted is not None:
                full = _resolve(dotted, aliases)
                if full.startswith("repro."):
                    return self._lookup(f"imp:{full}")
        return None


def _iter_functions(tree: ast.AST):
    """Yield (function node, enclosing class name or None), all depths."""
    stack: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                stack.append((child, cls))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, child.name))
            else:
                stack.append((child, cls))


def build_index(modules: Iterable[Tuple[str, ast.AST]]) -> ProgramIndex:
    """Index + fixpoint over ``(relpath, parsed tree)`` pairs."""
    index = ProgramIndex()
    for relpath, tree in modules:
        index.add_module(relpath, tree)
    index.resolve()
    return index
