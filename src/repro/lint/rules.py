"""Simulation-invariant lint rules SIM001 and SIM005.

The registry maps rule ids to singleton rule instances; every rule runs
on every module (no rule is scoped to a path), and a rule's ``check``
yields ``(node, message)`` pairs that the engine turns into
:class:`Violation` s.

The invariants (see ``docs/static-analysis.md`` for the full rationale;
an unseeded generator, uncharged IO or a hash-ordered set of strings
needs no rule, because it moves the sim-time pins or the determinism
ledger — that document's census measured each):

* **SIM001** — code must read :class:`~repro.common.simclock.SimClock` /
  :class:`~repro.common.simclock.TaskCost`, never the wall clock: a
  host-time deadline or branch changes no output at test scale, so no
  sim-time pin can see it.
* **SIM005** — closures shipped into RDD operations must not mutate
  captured driver state (lost on a real cluster, where closures are
  serialized) or sort/reverse partition data in place (aliases shuffled
  records shared with caches).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

#: What a rule's ``check`` yields: the offending node and a message.
Finding = Tuple[ast.AST, str]


@dataclass(frozen=True)
class Violation:
    """One rule hit: where it is and what invariant it breaks."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: RULE message`` (clickable in most editors)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class: a stable id, a short name, a one-line description
    (shown by ``--list-rules``) and one check over a parsed module."""

    id: str = "SIM000"
    name: str = "base"
    description: str = ""

    def check(self, tree: ast.AST) -> Iterator[Finding]:
        """Yield ``(node, message)`` for every violation in one module."""
        raise NotImplementedError


#: Registry of rule id -> singleton instance, in registration order.
RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    inst = cls()
    RULES[inst.id] = inst
    return cls


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted thing they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve(dotted: str, aliases: Dict[str, str]) -> str:
    """Rewrite the head of a dotted chain through the import aliases."""
    head, _, rest = dotted.partition(".")
    full = aliases.get(head)
    if full is None:
        return dotted
    return f"{full}.{rest}" if rest else full


# ----------------------------------------------------------------------
# SIM001 — wall-clock use
# ----------------------------------------------------------------------

#: Fully-qualified callables that read the host clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """SIM001: simulated time must come from SimClock / TaskCost."""

    id = "SIM001"
    name = "wall-clock"
    description = "wall-clock read (time.time / perf_counter / datetime.now)"

    def check(self, tree: ast.AST) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    full = f"{node.module}.{a.name}"
                    if full in _WALL_CLOCK:
                        yield node, (f"imports wall-clock `{full}`; use "
                                     "SimClock.now_s / TaskCost instead")
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                full = _resolve(dotted, aliases)
                if full in _WALL_CLOCK:
                    yield node, (f"wall-clock read `{full}()`; simulated "
                                 "components must read SimClock.now_s / "
                                 "TaskCost")


# ----------------------------------------------------------------------
# Shipped closures (SIM005 and SIM101)
# ----------------------------------------------------------------------

#: RDD methods whose function arguments ship to executors.
_RDD_METHODS = {
    "map", "map_partitions", "foreach_partition", "shuffle_blocks",
}

Closure = ast.Lambda | ast.FunctionDef


def _param_names(func: Closure) -> Set[str]:
    args = func.args
    names = {a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _body(func: Closure) -> List[ast.AST]:
    return func.body if isinstance(func.body, list) else [func.body]


def _bound_names(func: Closure) -> Set[str]:
    """Names bound inside ``func``: parameters plus local assignments."""
    bound = _param_names(func)
    for stmt in _body(func):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.comprehension):
                for t in ast.walk(node.target):
                    if isinstance(t, ast.Name):
                        bound.add(t.id)
    return bound


def _rdd_calls(func: ast.AST) -> List[ast.Call]:
    """Calls to RDD closure-shipping methods inside one function body."""
    return [node for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RDD_METHODS]


def shipped_closures(func: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> Iterator[Tuple[ast.Call, Closure]]:
    """``(call, closure)`` for every function ``func``'s RDD calls ship.

    A closure is a lambda argument or a name that resolves to a def
    local to ``func`` — never to a same-named def elsewhere in the
    module.
    """
    local_defs = {
        n.name: n for n in ast.walk(func)
        if isinstance(n, ast.FunctionDef) and n is not func
    }
    for call in _rdd_calls(func):
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Lambda):
                yield call, arg
            elif isinstance(arg, ast.Name) and arg.id in local_defs:
                yield call, local_defs[arg.id]


def functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every (async) function definition in a module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# SIM005 — RDD closures mutating captured state / aliasing records
# ----------------------------------------------------------------------

#: Method calls that mutate their receiver.
_MUTATORS = {
    "append", "extend", "insert", "remove", "clear", "update",
    "setdefault", "popitem", "add", "discard", "sort", "reverse",
    "pop", "write",
}

#: In-place reorderings: called on a parameter they alias shuffled records.
_INPLACE_REORDER = {"sort", "reverse"}


@register
class ClosureMutationRule(Rule):
    """SIM005: executor closures must be pure w.r.t. captured state."""

    id = "SIM005"
    name = "closure-mutation"
    description = ("RDD closure mutates captured driver state or sorts "
                   "partition data in place (aliases shuffled records)")

    def check(self, tree: ast.AST) -> Iterator[Finding]:
        checked: Set[int] = set()
        for func in functions(tree):
            for _, closure in shipped_closures(func):
                if id(closure) not in checked:
                    checked.add(id(closure))
                    yield from self._check_closure(closure)

    def _check_closure(self, func: Closure) -> Iterator[Finding]:
        bound = _bound_names(func)
        params = _param_names(func)
        for stmt in _body(func):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Nonlocal):
                    yield node, ("closure rebinds captured driver state via "
                                 "`nonlocal`; executors never see the "
                                 "driver's frame on a real cluster")
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for t in targets:
                        base = t
                        while isinstance(base, (ast.Subscript,
                                                ast.Attribute)):
                            base = base.value
                        if isinstance(base, ast.Name) \
                                and base.id not in bound \
                                and not isinstance(t, ast.Name):
                            yield node, (
                                f"closure mutates captured object "
                                f"`{base.id}`; the write is lost when the "
                                "closure runs on a remote executor")
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name):
                    recv = node.func.value.id
                    meth = node.func.attr
                    if meth in _MUTATORS and recv not in bound:
                        yield node, (
                            f"closure calls mutating `{recv}.{meth}(...)` "
                            "on captured driver state; the effect is lost "
                            "on a remote executor")
                    elif meth in _INPLACE_REORDER and recv in params:
                        yield node, (
                            f"closure reorders its input `{recv}` in "
                            f"place (`.{meth}()`); partition data may be "
                            "aliased by caches / shuffle buffers — copy "
                            "before sorting")
