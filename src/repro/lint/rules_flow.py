"""Flow-sensitive lint rules SIM101 and SIM103.

Where the SIM0xx rules pattern-match single expressions, this family
reasons over the control-flow graphs of :mod:`repro.lint.cfg` and the
interprocedural summaries of :mod:`repro.lint.dataflow`:

* **SIM101** — closure-capture safety for RDD operations: a closure
  shipped to ``map``/``filter``-family methods must not capture a
  ``SparkContext``/``PSContext``, an open resource, or a name that is
  rebound after the closure is created (the late-binding trap: a lazy
  engine runs the closure at the action, not where it was written).
* **SIM103** — metering contract: inside the sim subsystems, a function
  that moves bytes (file/socket IO, pickling, numpy materializations —
  directly or via a callee) must charge ``TaskCost`` / a sim clock /
  a metering span on **every** path from entry to exit.

Both report through the same :class:`~repro.lint.rules.Violation`
machinery, honour ``# repro-lint: disable=...`` suppressions, and run
from the same CLI; the engine supplies a shared
:class:`~repro.lint.dataflow.ProgramIndex` when linting a whole tree so
summaries cross file boundaries.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.cfg import (
    CFG,
    EXCEPT,
    ITER,
    TEST,
    WITH,
    _walk_same_scope,
    build_cfg,
)
from repro.lint.dataflow import (
    CHARGES_METERING,
    MOVES_BYTES,
    ProgramIndex,
    annotated_param_types,
    _METERING_CALLS,
    _iter_functions,
    _module_class_map,
    _moves_bytes,
    build_index,
)
from repro.lint.rules import (
    Rule,
    SIM_SUBSYSTEMS,
    Violation,
    _RDD_METHODS,
    _bound_names,
    _dotted,
    _import_aliases,
    _resolve,
    register,
)


class FlowRule(Rule):
    """A rule that needs CFGs and (optionally) whole-program summaries.

    The engine calls :meth:`check_flow` with a shared
    :class:`ProgramIndex` covering every linted module; the plain
    :meth:`check` entry point still works for single-file use and
    builds a one-module index on the fly.
    """

    needs_program = True

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        return self.check_flow(tree, relpath, build_index([(relpath, tree)]))

    def check_flow(self, tree: ast.AST, relpath: str,
                   program: ProgramIndex) -> List[Violation]:
        raise NotImplementedError


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


def _free_names(func: ast.Lambda | ast.FunctionDef) -> Set[str]:
    """Names the closure reads from the enclosing scope."""
    bound = _bound_names(func)
    body = func.body if isinstance(func.body, list) else [func.body]
    free: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in bound:
                free.add(node.id)
    return free


def _closure_args(call: ast.Call,
                  local_defs: Dict[str, ast.FunctionDef]
                  ) -> List[ast.Lambda | ast.FunctionDef]:
    """Function-valued arguments of one RDD-method call."""
    out: List[ast.Lambda | ast.FunctionDef] = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Lambda):
            out.append(arg)
        elif isinstance(arg, ast.Name) and arg.id in local_defs:
            out.append(local_defs[arg.id])
    return out


def _rdd_calls(func: ast.AST) -> List[ast.Call]:
    """Calls to RDD closure-shipping methods inside one function body."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _RDD_METHODS:
            out.append(node)
    return out


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
class ClosureCaptureRule(FlowRule):
    """SIM101: RDD closures must capture only stable, shippable values."""

    id = "SIM101"
    name = "closure-capture"
    description = ("RDD closure captures a driver context, an open "
                   "resource, or a name rebound after creation (unsafe "
                   "under lazy evaluation)")

    def check_flow(self, tree: ast.AST, relpath: str,
                   program: ProgramIndex) -> List[Violation]:
        aliases = _import_aliases(tree)
        out: List[Violation] = []
        for func, _cls in _iter_functions(tree):
            out.extend(self._check_function(func, relpath, aliases))
        return out

    def _check_function(self, func: ast.FunctionDef, relpath: str,
                        aliases: Dict[str, str]) -> List[Violation]:
        calls = _rdd_calls(func)
        if not calls:
            return []
        cfg = build_cfg(func)
        in_sets = cfg.reaching_definitions()
        gen = cfg.definitions()
        local_defs = {
            n.name: n for n in ast.walk(func)
            if isinstance(n, ast.FunctionDef) and n is not func
        }
        out: List[Violation] = []
        reported: Set[Tuple[int, str, str]] = set()
        for call in calls:
            node_idx = _node_for(cfg, call)
            if node_idx is None:
                continue
            for closure in _closure_args(call, local_defs):
                for name in sorted(_free_names(closure)):
                    v = self._check_capture(
                        cfg, in_sets, gen, node_idx, call, closure, name,
                        func, relpath, aliases)
                    if v is not None:
                        key = (v.line, name, v.message[:40])
                        if key not in reported:
                            reported.add(key)
                            out.append(v)
        return out

    def _check_capture(self, cfg: CFG, in_sets, gen, node_idx: int,
                       call: ast.Call,
                       closure: ast.Lambda | ast.FunctionDef, name: str,
                       func: ast.FunctionDef, relpath: str,
                       aliases: Dict[str, str]) -> Optional[Violation]:
        defs = {idx for (n, idx) in in_sets[node_idx] if n == name}
        # (a) capture of a driver context or open resource
        for d in defs:
            stmt = cfg.nodes[d].stmt
            ctor = _ctor_name(_def_value(stmt, name), aliases)
            if ctor is not None:
                bare = ctor.rsplit(".", 1)[-1]
                if bare in _DRIVER_CONTEXTS:
                    return self.violation(
                        call,
                        f"closure captures `{name}`, a {bare} — driver "
                        "contexts hold sockets and scheduler state and "
                        "must never ship to executors", relpath)
                if ctor in _RESOURCE_OPENERS:
                    return self.violation(
                        call,
                        f"closure captures `{name}`, an open resource "
                        f"from `{ctor}(...)`; open handles cannot cross "
                        "a task boundary", relpath)
            if isinstance(stmt, ast.arguments):
                ann = _annotation_name(func, name)
                if ann and ann.rsplit(".", 1)[-1] in _DRIVER_CONTEXTS:
                    return self.violation(
                        call,
                        f"closure captures parameter `{name}` annotated "
                        f"{ann} — driver contexts must never ship to "
                        "executors", relpath)
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
            return self.violation(
                call,
                f"closure captures `{name}` which is rebound afterwards "
                f"(e.g. line {line}); late binding makes the task read "
                "whichever value is current when it finally runs — bind "
                "it via a default argument or a local", relpath)
        return None


# ----------------------------------------------------------------------
# SIM103 — metering contract
# ----------------------------------------------------------------------


def _call_full(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    dotted = _dotted(call.func)
    return _resolve(dotted, aliases) if dotted is not None else None


#: Parameter names that identify a cost accumulator / task context.
_COST_PARAMS = {"cost", "tctx", "task_cost", "taskctx"}

#: Annotations that identify metering capability.
_COST_ANNOTATIONS = {"TaskCost", "TaskContext"}


def _has_metering_capability(func: ast.FunctionDef) -> bool:
    """Whether ``func`` is a party to the metering contract.

    A function that receives a cost accumulator / task context, consults
    the cost model, or charges anywhere has opted into the metering
    regime: byte-moving work on an uncharged path is then a broken
    contract.  A pure math helper with no access to any accumulator
    cannot charge — its *callers* hold the obligation, and the
    ``moves_bytes`` effect propagates up to them through the summaries.
    """
    args = func.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        if a.arg in _COST_PARAMS:
            return True
        if a.annotation is not None:
            ann = _dotted(a.annotation)
            if ann and ann.rsplit(".", 1)[-1] in _COST_ANNOTATIONS:
                return True
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue
        if isinstance(node, ast.Name) \
                and node.id in ("cost_model", "tctx", "cost"):
            return True
        if isinstance(node, ast.Attribute) \
                and node.attr in ("cost_model", "cost"):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted and dotted.rsplit(".", 1)[-1] \
                    == "current_task_context":
                return True
    return False


def _passes_cost_accumulator(call: ast.Call) -> bool:
    """Whether a call hands its cost accumulator to the callee.

    ``shuffle.read(..., tctx.cost, ...)`` delegates metering — the
    callee charges on the caller's accumulator — so the call site
    satisfies the contract on its path.
    """
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Name) \
                and (arg.id in ("cost", "tctx")
                     or arg.id.endswith("_cost")):
            return True
        if isinstance(arg, ast.Attribute) and arg.attr == "cost":
            return True
    return False


#: Conventional names for the current task context.
_TCTX_NAMES = {"tctx", "task_ctx", "taskctx"}


def _none_guard_shape(test: ast.AST) -> Tuple[Optional[str], str]:
    """Decompose a None-guard test: (guarded name, vacuous branch label).

    The *vacuous* branch is the one taken when the guarded value is
    None — i.e. when there is no task context to charge.
    """
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None \
            and isinstance(test.left, ast.Name):
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, "true"
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, "false"
    if isinstance(test, ast.Name):
        return test.id, "false"
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            and isinstance(test.operand, ast.Name):
        return test.operand.id, "true"
    return None, ""


def _is_task_context(cfg: CFG, in_sets, idx: int, name: str,
                     aliases: Dict[str, str]) -> bool:
    """Whether ``name`` at node ``idx`` holds the current task context."""
    if name in _TCTX_NAMES:
        return True
    defs = {d for (n, d) in in_sets[idx] if n == name}
    if not defs:
        return False
    for d in defs:
        value = _def_value(cfg.nodes[d].stmt, name)
        if not isinstance(value, ast.Call):
            return False
        full = _call_full(value, aliases)
        if not (full and full.rsplit(".", 1)[-1]
                == "current_task_context"):
            return False
    return True


def _vacuous_guard_edges(cfg: CFG,
                         aliases: Dict[str, str]
                         ) -> Set[Tuple[int, int]]:
    """Edges entering the context-is-None branch of a task-ctx guard.

    ``charge_primitive_compute`` and friends are documented no-ops when
    ``current_task_context()`` is None (driver-side execution, where
    there is no accumulator to charge).  A path through the None branch
    of ``if tctx is not None: <charge>`` is therefore vacuously
    compliant, not an unmetered path — cutting these edges keeps SIM103
    focused on paths where a context exists and is never charged.
    """
    candidates = [
        n for n in cfg.nodes
        if n.kind == TEST and isinstance(n.stmt, ast.If)
        and _none_guard_shape(n.stmt.test)[0] is not None
    ]
    if not candidates:
        return set()
    in_sets = cfg.reaching_definitions()
    cut: Set[Tuple[int, int]] = set()
    for node in candidates:
        name, vacuous = _none_guard_shape(node.stmt.test)
        if not _is_task_context(cfg, in_sets, node.idx, name, aliases):
            continue
        for s in cfg.succ[node.idx]:
            if cfg.edge_labels.get((node.idx, s)) == vacuous:
                cut.add((node.idx, s))
    return cut


@register
class MeteringContractRule(FlowRule):
    """SIM103: byte-moving sim-subsystem code must charge the cost model."""

    id = "SIM103"
    name = "metering-contract"
    description = ("metering-party function moves bytes (IO / pickling / "
                   "numpy materialization) on a path that never charges "
                   "TaskCost, a sim clock, or a metering span")
    scope = SIM_SUBSYSTEMS
    exempt = ("cli.py",)

    def check_flow(self, tree: ast.AST, relpath: str,
                   program: ProgramIndex) -> List[Violation]:
        program.resolve()
        aliases = _import_aliases(tree)
        class_map = _module_class_map(relpath, tree)
        out: List[Violation] = []
        for func, cls in _iter_functions(tree):
            if not _has_metering_capability(func):
                continue
            ptypes = annotated_param_types(func, aliases, class_map)
            out.extend(self._check_function(
                func, cls, relpath, aliases, program, ptypes))
        return out

    def _node_roles(self, cfg: CFG, func_cls: Optional[str], relpath: str,
                    aliases: Dict[str, str], program: ProgramIndex,
                    ptypes: Dict[str, str],
                    ) -> Tuple[Dict[int, str], Set[int]]:
        """Classify nodes: byte movers and metering points."""
        movers: Dict[int, str] = {}
        meters: Set[int] = set()
        for node in cfg.nodes:
            stmt = node.stmt
            if stmt is None or isinstance(stmt, ast.arguments):
                continue
            if node.kind in (TEST, ITER):
                roots: List[ast.AST] = [stmt.test if node.kind == TEST
                                        else stmt.iter]  # type: ignore
            elif node.kind == WITH and isinstance(stmt, ast.withitem):
                roots = [stmt.context_expr]
            elif node.kind == EXCEPT:
                continue
            elif isinstance(stmt, (ast.If, ast.While, ast.For,
                                   ast.AsyncFor, ast.With, ast.AsyncWith,
                                   ast.Try)):
                continue
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                # A def statement only binds a name; its body runs when
                # *called* and is analyzed as its own function.
                continue
            else:
                roots = [stmt]
            charges = False
            moves: Optional[str] = None
            for root in roots:
                for sub in _walk_same_scope(root):
                    if isinstance(sub, (ast.Assign, ast.AugAssign)):
                        targets = (sub.targets
                                   if isinstance(sub, ast.Assign)
                                   else [sub.target])
                        for t in targets:
                            if isinstance(t, ast.Attribute) \
                                    and t.attr in ("cpu_s", "net_s",
                                                   "disk_s"):
                                charges = True
                    if not isinstance(sub, ast.Call):
                        continue
                    full = _call_full(sub, aliases)
                    moves_here = False
                    if full:
                        moves_here = _moves_bytes(full)
                        tail = full.rsplit(".", 1)[-1]
                        if tail in _METERING_CALLS:
                            charges = True
                    if _passes_cost_accumulator(sub):
                        charges = True
                    summary = program.summary_for_call(
                        sub, relpath, func_cls, aliases, ptypes)
                    if summary is not None:
                        if MOVES_BYTES in summary.effects:
                            moves_here = True
                        if CHARGES_METERING in summary.effects:
                            charges = True
                    if moves_here and moves is None:
                        moves = full or "<call>"
            if charges:
                meters.add(node.idx)
            elif moves is not None:
                movers[node.idx] = moves
        return movers, meters

    def _check_function(self, func: ast.FunctionDef, cls: Optional[str],
                        relpath: str, aliases: Dict[str, str],
                        program: ProgramIndex,
                        ptypes: Dict[str, str]) -> List[Violation]:
        cfg = build_cfg(func)
        movers, meters = self._node_roles(cfg, cls, relpath, aliases,
                                          program, ptypes)
        if not movers:
            return []
        out: List[Violation] = []
        # A mover is in violation iff some entry->exit path passes it
        # while touching no metering node at all.  Paths entering the
        # None branch of a task-context guard are vacuously compliant
        # (nothing to charge to) and are cut from the search.
        cut = _vacuous_guard_edges(cfg, aliases)
        fwd = cfg.reachable_from(cfg.entry, meters, cut)
        bwd = cfg.reaches(cfg.exit, meters, cut)
        for idx, what in sorted(movers.items()):
            if idx in fwd and idx in bwd:
                node = cfg.nodes[idx]
                out.append(Violation(
                    self.id, relpath, node.lineno,
                    getattr(node.stmt, "col_offset", 0),
                    f"`{cfg.name}` moves bytes via `{what}(...)` on a "
                    "path that never charges TaskCost / a sim clock / a "
                    "metering span; unmetered work is invisible to the "
                    "cost model",
                ))
        return out
