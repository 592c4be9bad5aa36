"""Per-function control-flow graphs with reaching definitions.

SIM101 (:mod:`repro.lint.rules_flow`) needs more than a syntactic AST
walk: "which definitions may this captured name see at the call", and
"is the name rebound on some path after the closure is created".  This
module provides the pieces those questions reduce to:

* :func:`build_cfg` — a statement-level control-flow graph for one
  function (or lambda), covering branches, ``while``/``for`` loops with
  ``break``/``continue``/``else``, ``try``/``except``/``finally``,
  ``with`` blocks, ``return`` and ``raise``.
* :meth:`CFG.reaching_definitions` — the classic forward may-analysis:
  for every node, the set of definitions (name, node) that may reach it.
* :meth:`CFG.exists_path` — whether one node can reach another.

Design choices, deliberately documented because they bound what the
rule can claim:

* Nodes are *statements* (plus synthetic entry/exit and loop-test
  nodes), not basic blocks.  The functions under analysis are tens of
  statements; simplicity beats constant factors.
* Only **explicit** control flow creates edges.  An arbitrary expression
  may raise, but modelling every call as a potential jump to the
  function exit would fabricate a "path" from every call to the exit
  and drown the path queries in false positives.
  ``try`` bodies are the exception: every statement in a ``try`` gets an
  edge to each handler, because catching is the stated intent.
* ``while True:`` (any constant-true test) has no fall-through exit
  edge; the loop exits only via ``break``/``return``/``raise``.  A
  fabricated zero-iteration path around the body of an intentional
  infinite loop is exactly the kind of noise the previous point avoids.
* ``return``/``raise``/``break``/``continue`` inside a ``try`` with a
  ``finally`` route *through* the finally suite — there is no edge that
  skips it — so a ``finally`` suite dominates early exits the way it
  does at runtime.  The price is a mild over-approximation: the
  finally suite's exits fan out to every pending jump target as well as
  the normal continuation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Kinds of synthetic / classified nodes.
ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
TEST = "test"          # if / while condition
ITER = "iter"          # for-loop iterator evaluation (also the target bind)
WITH = "with"          # with-item enter (binds the `as` name)
EXCEPT = "except"      # except handler head (binds the `as` name)


@dataclass
class CFGNode:
    """One node: a statement (or synthetic point) in the flow graph.

    Attributes:
        idx: dense node id, stable for a given function body.
        kind: :data:`ENTRY`, :data:`EXIT`, :data:`STMT`, :data:`TEST`,
            :data:`ITER`, :data:`WITH` or :data:`EXCEPT`.
        stmt: the AST node this CFG node evaluates (None for entry/exit).
        label: short human-readable description for golden-file dumps.
    """

    idx: int
    kind: str
    stmt: ast.AST | None = None
    label: str = ""

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)


#: A definition site: (variable name, node index where it is bound).
Definition = Tuple[str, int]


class CFG:
    """Statement-level control-flow graph of one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[CFGNode] = []
        self.succ: Dict[int, List[int]] = {}
        self.pred: Dict[int, List[int]] = {}
        self.entry = self._add(ENTRY, None, "ENTRY")
        self.exit = self._add(EXIT, None, "EXIT")

    # -- construction -------------------------------------------------

    def _add(self, kind: str, stmt: ast.AST | None, label: str) -> int:
        idx = len(self.nodes)
        self.nodes.append(CFGNode(idx, kind, stmt, label))
        self.succ[idx] = []
        self.pred[idx] = []
        return idx

    def _edge(self, a: int, b: int) -> None:
        if b not in self.succ[a]:
            self.succ[a].append(b)
            self.pred[b].append(a)

    # -- queries -------------------------------------------------------

    def reachable_from(self, start: int,
                       avoiding: Iterable[int] = ()) -> Set[int]:
        """Node ids reachable from ``start`` without entering ``avoiding``.

        ``start`` itself is included (unless it is avoided); traversal
        never passes *through* an avoided node.
        """
        blocked = set(avoiding)
        if start in blocked:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for s in self.succ[n]:
                if s not in seen and s not in blocked:
                    seen.add(s)
                    stack.append(s)
        return seen

    def exists_path(self, start: int, end: int,
                    avoiding: Iterable[int] = ()) -> bool:
        """Whether a path ``start -> end`` exists whose *interior* avoids
        the given nodes (the endpoints themselves are never blocked)."""
        blocked = set(avoiding) - {start, end}
        return end in self.reachable_from(start, blocked)

    # -- reaching definitions -----------------------------------------

    def definitions(self) -> Dict[int, List[str]]:
        """Names bound at each node (the GEN sets, as name lists)."""
        gen: Dict[int, List[str]] = {}
        for node in self.nodes:
            names = _bound_at(node)
            if names:
                gen[node.idx] = names
        return gen

    def reaching_definitions(self) -> Dict[int, Set[Definition]]:
        """IN sets: definitions that may reach each node's evaluation."""
        gen = self.definitions()
        # OUT[n] = gen[n] + (IN[n] - kill[n]); kill = same-name defs.
        in_sets: Dict[int, Set[Definition]] = {
            n.idx: set() for n in self.nodes
        }
        out_sets: Dict[int, Set[Definition]] = {
            n.idx: set() for n in self.nodes
        }
        order = [n.idx for n in self.nodes]
        changed = True
        while changed:
            changed = False
            for idx in order:
                new_in: Set[Definition] = set()
                for p in self.pred[idx]:
                    new_in |= out_sets[p]
                names_here = set(gen.get(idx, ()))
                new_out = {d for d in new_in if d[0] not in names_here}
                new_out |= {(name, idx) for name in names_here}
                if new_in != in_sets[idx] or new_out != out_sets[idx]:
                    in_sets[idx] = new_in
                    out_sets[idx] = new_out
                    changed = True
        return in_sets

    # -- debugging / golden files -------------------------------------

    def dump(self) -> str:
        """Stable text form, one node per line: ``idx kind label -> succs``."""
        lines = []
        for node in self.nodes:
            succs = ",".join(str(s) for s in sorted(self.succ[node.idx]))
            lines.append(
                f"{node.idx} {node.kind}"
                f"{' ' + node.label if node.label else ''}"
                f" -> [{succs}]"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# name binding per node
# ----------------------------------------------------------------------


def _target_names(target: ast.AST) -> List[str]:
    """Names bound by an assignment target (tuples unpacked)."""
    out: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node.id)
    return out


def _bound_at(node: CFGNode) -> List[str]:
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == ITER and isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _target_names(stmt.target)
    if node.kind == WITH and isinstance(stmt, ast.withitem):
        return _target_names(stmt.optional_vars) if stmt.optional_vars \
            else []
    if node.kind == EXCEPT and isinstance(stmt, ast.ExceptHandler):
        return [stmt.name] if stmt.name else []
    if isinstance(stmt, ast.Assign):
        out: List[str] = []
        for t in stmt.targets:
            out.extend(_target_names(t))
        return out
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(stmt.target, ast.Name):
            return [stmt.target.id]
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        return [a.asname or a.name for a in stmt.names if a.name != "*"]
    if isinstance(stmt, ast.arguments):  # parameter binding at entry
        args = stmt
        names = [a.arg for a in
                 (args.posonlyargs + args.args + args.kwonlyargs)]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names
    return []


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


def _is_const_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


#: A pending jump waiting for an enclosing finally suite:
#: (node id, kind, loop record or None).
_Jump = Tuple[int, str, tuple | None]


class _Builder:
    """Recursive-descent CFG builder for one function body."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: (break-exit list, continue target, finally depth) per loop.
        self.loops: List[tuple] = []
        #: one pending-jump list per enclosing try-with-finally.
        self.fin_pending: List[List[_Jump]] = []
        #: handler-head nodes of enclosing try bodies, for raise edges.
        self.handlers: List[List[int]] = []

    # Every build method takes the node ids that flow *into* the construct
    # and returns the ids that flow *out* of it (its normal exits).

    def body(self, stmts: Sequence[ast.stmt],
             frontier: List[int]) -> List[int]:
        for stmt in stmts:
            frontier = self.stmt(stmt, frontier)
        return frontier

    def _link(self, frontier: List[int], node: int) -> None:
        for f in frontier:
            self.cfg._edge(f, node)

    def _maybe_raise_edges(self, node: int) -> None:
        """Inside a try body, any statement may jump to the handlers."""
        if self.handlers:
            for h in self.handlers[-1]:
                self.cfg._edge(node, h)

    def _dispatch_jump(self, node: int, kind: str, loop: tuple | None,
                       fin_depth_of_target: int) -> None:
        """Route a jump either through a pending finally or to its
        target.  ``fin_depth_of_target``: how many finallys enclose the
        jump's destination (0 for return/raise)."""
        if len(self.fin_pending) > fin_depth_of_target:
            self.fin_pending[-1].append((node, kind, loop))
            return
        cfg = self.cfg
        if kind in ("return", "raise"):
            cfg._edge(node, cfg.exit)
        elif kind == "break" and loop is not None:
            loop[0].append(node)
        elif kind == "continue" and loop is not None:
            cfg._edge(node, loop[1])

    def stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            test = cfg._add(TEST, stmt, f"if L{stmt.lineno}")
            self._link(frontier, test)
            self._maybe_raise_edges(test)
            then_out = self.body(stmt.body, [test])
            else_out = self.body(stmt.orelse, [test]) if stmt.orelse \
                else [test]
            return then_out + else_out

        if isinstance(stmt, ast.While):
            test = cfg._add(TEST, stmt, f"while L{stmt.lineno}")
            self._link(frontier, test)
            self._maybe_raise_edges(test)
            breaks: List[int] = []
            self.loops.append((breaks, test, len(self.fin_pending)))
            body_out = self.body(stmt.body, [test])
            self.loops.pop()
            self._link(body_out, test)  # back edge
            exits: List[int] = list(breaks)
            if not _is_const_true(stmt.test):
                if stmt.orelse:
                    exits += self.body(stmt.orelse, [test])
                else:
                    exits.append(test)
            elif stmt.orelse:
                # `while True: ... else:` — else runs only on normal
                # termination, which a constant-true test never reaches.
                self.body(stmt.orelse, [])
            return exits

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            it = cfg._add(ITER, stmt, f"for L{stmt.lineno}")
            self._link(frontier, it)
            self._maybe_raise_edges(it)
            breaks = []
            self.loops.append((breaks, it, len(self.fin_pending)))
            body_out = self.body(stmt.body, [it])
            self.loops.pop()
            self._link(body_out, it)  # back edge
            exits = list(breaks)
            if stmt.orelse:
                exits += self.body(stmt.orelse, [it])
            else:
                exits.append(it)  # zero-iteration path
            return exits

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                node = cfg._add(
                    WITH, item,
                    f"with L{getattr(item.context_expr, 'lineno', 0)}")
                self._link(frontier, node)
                self._maybe_raise_edges(node)
                frontier = [node]
            return self.body(stmt.body, frontier)

        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)

        # --- simple statements -------------------------------------
        if isinstance(stmt, ast.Return):
            node = cfg._add(STMT, stmt, f"return L{stmt.lineno}")
            self._link(frontier, node)
            self._maybe_raise_edges(node)
            self._dispatch_jump(node, "return", None, 0)
            return []
        if isinstance(stmt, ast.Raise):
            node = cfg._add(STMT, stmt, f"raise L{stmt.lineno}")
            self._link(frontier, node)
            self._maybe_raise_edges(node)
            self._dispatch_jump(node, "raise", None, 0)
            return []
        if isinstance(stmt, ast.Break):
            node = cfg._add(STMT, stmt, f"break L{stmt.lineno}")
            self._link(frontier, node)
            if self.loops:
                loop = self.loops[-1]
                self._dispatch_jump(node, "break", loop, loop[2])
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg._add(STMT, stmt, f"continue L{stmt.lineno}")
            self._link(frontier, node)
            if self.loops:
                loop = self.loops[-1]
                self._dispatch_jump(node, "continue", loop, loop[2])
            return []
        node = cfg._add(STMT, stmt,
                        f"{type(stmt).__name__.lower()} L{stmt.lineno}")
        self._link(frontier, node)
        self._maybe_raise_edges(node)
        return [node]

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        cfg = self.cfg
        has_finally = bool(stmt.finalbody)
        if has_finally:
            self.fin_pending.append([])
        handler_heads: List[int] = []
        handler_nodes: List[Tuple[int, ast.ExceptHandler]] = []
        for handler in stmt.handlers:
            h = cfg._add(EXCEPT, handler, f"except L{handler.lineno}")
            handler_heads.append(h)
            handler_nodes.append((h, handler))
        if handler_heads:
            self.handlers.append(handler_heads)
        try_out = self.body(stmt.body, frontier)
        if handler_heads:
            self.handlers.pop()
            # An exception may also occur before the first body statement
            # evaluates anything observable; connect the frontier too so
            # handlers are never orphaned in an empty-body edge case.
            for h in handler_heads:
                self._link(frontier, h)
        if stmt.orelse:
            else_out = self.body(stmt.orelse, try_out)
        else:
            else_out = try_out
        handler_out: List[int] = []
        for h, handler in handler_nodes:
            handler_out += self.body(handler.body, [h])
        normal_out = else_out + handler_out
        if not has_finally:
            return normal_out
        pending = self.fin_pending.pop()
        fin_head = len(cfg.nodes)  # first node the suite will create
        fin_out = self.body(stmt.finalbody, normal_out)
        for node, kind, loop in pending:
            cfg._edge(node, fin_head)
            # After the finally runs, the jump resumes toward its target
            # (possibly through the next enclosing finally).  The fan-out
            # from fin_out to several targets is the documented
            # over-approximation.
            for f in fin_out:
                self._dispatch_jump(f, kind, loop,
                                    loop[2] if loop else 0)
        return fin_out


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
              name: str | None = None) -> CFG:
    """Build the CFG of one function, lambda included.

    The entry node is followed by a synthetic parameter-binding node (its
    ``stmt`` is the function's ``arguments``), so parameters participate
    in reaching definitions like any other binding.
    """
    if name is None:
        name = getattr(func, "name", "<lambda>")
    cfg = CFG(name)
    params = cfg._add(STMT, func.args, "params")
    cfg._edge(cfg.entry, params)
    builder = _Builder(cfg)
    if isinstance(func.body, list):
        body = func.body
    else:  # lambda
        expr = ast.Expr(value=func.body)
        ast.copy_location(expr, func.body)
        body = [expr]
    out = builder.body(body, [params])
    builder._link(out, cfg.exit)
    return cfg


def cfg_for_source(source: str, func_name: str) -> CFG:
    """Convenience for tests: parse ``source``, build ``func_name``'s CFG."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == func_name:
            return build_cfg(node)
    raise ValueError(f"no function named {func_name!r}")
