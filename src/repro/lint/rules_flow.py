"""Flow-sensitive lint rule SIM101: closure-capture safety.

Where the SIM0xx rules pattern-match single expressions, SIM101 reasons
over the control-flow graph and reaching definitions of
:mod:`repro.lint.cfg`: a closure shipped to ``map``/``filter``-family
RDD methods must not capture a ``SparkContext``/``PSContext``, an open
resource, or a name that is rebound after the closure is created (the
late-binding trap: a lazy engine runs the closure at the action, not
where it was written).

It finds shipped closures with the same per-function walk as SIM005
(:func:`~repro.lint.rules.shipped_closures`), honours ``# repro-lint:
disable=...`` suppressions, and runs from the same CLI.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.cfg import CFG, EXCEPT, ITER, TEST, WITH, build_cfg
from repro.lint.rules import (
    Closure,
    Finding,
    Rule,
    _body,
    _bound_names,
    _dotted,
    _import_aliases,
    _resolve,
    functions,
    register,
    shipped_closures,
)


# ----------------------------------------------------------------------
# shared walking helpers
# ----------------------------------------------------------------------


def _stmt_contains(stmt: ast.AST, needle: ast.AST) -> bool:
    for sub in ast.walk(stmt):
        if sub is needle:
            return True
    return False


def _node_for(cfg: CFG, needle: ast.AST) -> Optional[int]:
    """The CFG node whose evaluated statement contains ``needle``.

    Compound statements are split by the builder — their test/iter/items
    live on dedicated nodes — so containment is checked against the part
    each node actually evaluates.
    """
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        if node.kind == TEST:
            root: ast.AST = stmt.test  # type: ignore[attr-defined]
        elif node.kind == ITER:
            root = stmt.iter  # type: ignore[attr-defined]
        elif node.kind == WITH and isinstance(stmt, ast.withitem):
            root = stmt.context_expr
        elif node.kind == EXCEPT:
            continue
        elif isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor,
                               ast.With, ast.AsyncWith, ast.Try)):
            continue  # handled via their split nodes
        else:
            root = stmt
        if _stmt_contains(root, needle):
            # Do not attribute a nested function's body to the node that
            # merely defines it — except when the needle IS that def.
            return node.idx
    return None


def _free_names(func: Closure) -> Set[str]:
    """Names the closure reads from the enclosing scope."""
    bound = _bound_names(func)
    free: Set[str] = set()
    for stmt in _body(func):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in bound:
                free.add(node.id)
    return free


#: Driver-context constructors a shipped closure must never capture.
_DRIVER_CONTEXTS = {
    "SparkContext", "PSContext", "GraphContext", "SparkSession",
}

#: Callables whose result is an open handle a shipped closure must never
#: capture.
_RESOURCE_OPENERS = {
    "open", "io.open", "task_span", "cost_span", "clock_span",
    "socket.socket",
}


def _def_value(node_stmt: ast.AST | None, name: str) -> Optional[ast.AST]:
    """The RHS expression a def node binds ``name`` to, when syntactic."""
    if isinstance(node_stmt, ast.Assign):
        for t in node_stmt.targets:
            if isinstance(t, ast.Name) and t.id == name:
                return node_stmt.value
    if isinstance(node_stmt, ast.AnnAssign) \
            and isinstance(node_stmt.target, ast.Name) \
            and node_stmt.target.id == name:
        return node_stmt.value
    return None


def _ctor_name(value: ast.AST | None,
               aliases: Dict[str, str]) -> Optional[str]:
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            return _resolve(dotted, aliases)
    return None


def _annotation_name(func: ast.FunctionDef | ast.AsyncFunctionDef,
                     param: str) -> Optional[str]:
    args = func.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        if a.arg == param and a.annotation is not None:
            dotted = _dotted(a.annotation)
            if dotted:
                return dotted
            if isinstance(a.annotation, ast.Constant) \
                    and isinstance(a.annotation.value, str):
                return a.annotation.value
    return None


# ----------------------------------------------------------------------
# SIM101 — closure-capture safety
# ----------------------------------------------------------------------


@register
class ClosureCaptureRule(Rule):
    """SIM101: RDD closures must capture only stable, shippable values."""

    id = "SIM101"
    name = "closure-capture"
    description = ("RDD closure captures a driver context, an open "
                   "resource, or a name rebound after creation (unsafe "
                   "under lazy evaluation)")

    def check(self, tree: ast.AST) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for func in functions(tree):
            yield from self._check_function(func, aliases)

    def _check_function(self, func: ast.FunctionDef,
                        aliases: Dict[str, str]) -> Iterator[Finding]:
        shipped = list(shipped_closures(func))
        if not shipped:
            return
        cfg = build_cfg(func)
        in_sets = cfg.reaching_definitions()
        gen = cfg.definitions()
        reported: Set[Tuple[int, str, str]] = set()
        for call, closure in shipped:
            node_idx = _node_for(cfg, call)
            if node_idx is None:
                continue
            for name in sorted(_free_names(closure)):
                message = self._check_capture(
                    cfg, in_sets, gen, node_idx, name, func, aliases)
                if message is not None:
                    key = (call.lineno, name, message[:40])
                    if key not in reported:
                        reported.add(key)
                        yield call, message

    def _check_capture(self, cfg: CFG, in_sets, gen, node_idx: int,
                       name: str, func: ast.FunctionDef,
                       aliases: Dict[str, str]) -> Optional[str]:
        """Why capturing ``name`` at the call on ``node_idx`` is unsafe,
        or None."""
        defs = {idx for (n, idx) in in_sets[node_idx] if n == name}
        # (a) capture of a driver context or open resource
        for d in defs:
            stmt = cfg.nodes[d].stmt
            ctor = _ctor_name(_def_value(stmt, name), aliases)
            if ctor is not None:
                bare = ctor.rsplit(".", 1)[-1]
                if bare in _DRIVER_CONTEXTS:
                    return (f"closure captures `{name}`, a {bare} — driver "
                            "contexts hold sockets and scheduler state and "
                            "must never ship to executors")
                if ctor in _RESOURCE_OPENERS:
                    return (f"closure captures `{name}`, an open resource "
                            f"from `{ctor}(...)`; open handles cannot "
                            "cross a task boundary")
            if isinstance(stmt, ast.arguments):
                ann = _annotation_name(func, name)
                if ann and ann.rsplit(".", 1)[-1] in _DRIVER_CONTEXTS:
                    return (f"closure captures parameter `{name}` annotated "
                            f"{ann} — driver contexts must never ship to "
                            "executors")
        # (b) rebinding after closure creation: a definition of the name
        # reachable *from* the call site means some execution order has
        # the closure observe a different value than the one captured
        # here (late binding; tasks run at the action, not at this line).
        all_defs = {
            n.idx for n in cfg.nodes
            if name in gen.get(n.idx, ())
        }
        later = {
            d for d in all_defs
            if d != node_idx and cfg.exists_path(node_idx, d)
        }
        if later:
            line = min(cfg.nodes[d].lineno for d in later)
            return (f"closure captures `{name}` which is rebound afterwards "
                    f"(e.g. line {line}); late binding makes the task read "
                    "whichever value is current when it finally runs — bind "
                    "it via a default argument or a local")
        return None
