"""Simulation-invariant lint rules (SIM001..SIM005).

Each rule is a small AST pass scoped to the package-relative paths where
its invariant must hold.  The registry maps rule ids to singleton rule
instances; :func:`get_rules` resolves ``--enable`` / ``--disable``
selections for the CLI.

The invariants (see ``docs/static-analysis.md`` for the full rationale):

* **SIM001** — simulated components must read :class:`~repro.common.
  simclock.SimClock` / :class:`~repro.common.simclock.TaskCost`, never the
  wall clock, or sim-time results depend on host speed.
* **SIM002** — randomness must come from seeded :mod:`repro.common.rng`
  streams, never the ambient ``random`` / ``numpy.random`` module state
  or a generator constructed without a seed, or runs stop being
  bit-reproducible.
* **SIM003** — simulated subsystems must do IO through the metered
  :mod:`repro.hdfs` / RPC fabric, never the host filesystem, or costs
  leak out of the simulation.
* **SIM004** — iterating a ``set`` feeds hash order into shuffle
  partitioning / PS row ordering, which breaks run-to-run determinism
  under hash randomization.
* **SIM005** — closures shipped into RDD operations must not mutate
  captured driver state (lost on a real cluster, where closures are
  serialized) or sort/reverse partition data in place (aliases shuffled
  records shared with caches).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

#: Package-relative directories that form the simulated cluster: code here
#: must not touch the host filesystem, wall clock or ambient RNG.
SIM_SUBSYSTEMS: Tuple[str, ...] = (
    "dataflow/", "ps/", "hdfs/", "graphx/", "core/", "net/", "yarn/",
)


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
    """Base class: id/description plus path scoping.

    Attributes:
        id: stable rule identifier (``SIM001`` ...).
        name: short human name.
        description: one-line summary shown by ``--list-rules``.
        scope: relpath prefixes the rule applies to; empty = everywhere.
        exempt: relpath prefixes (or exact files) the rule skips.
    """

    id: str = "SIM000"
    name: str = "base"
    description: str = ""
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the module at ``relpath``."""
        if any(relpath == e or relpath.startswith(e) for e in self.exempt):
            return False
        if self.scope:
            return any(relpath.startswith(s) for s in self.scope)
        return True

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        """Return the rule's violations for one parsed module."""
        raise NotImplementedError

    def violation(self, node: ast.AST, message: str,
                  relpath: str) -> Violation:
        """Helper: a violation anchored at ``node``."""
        return Violation(
            self.id, relpath,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            message,
        )


#: Registry of rule id -> singleton instance, in registration order.
RULES: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    inst = cls()
    RULES[inst.id] = inst
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order."""
    return list(RULES.values())


def get_rules(enable: Iterable[str] | None = None,
              disable: Iterable[str] | None = None) -> List[Rule]:
    """Resolve a rule selection.

    Args:
        enable: when given, only these ids run.
        disable: ids to drop (applied after ``enable``).

    Raises:
        KeyError: an id that is not registered.
    """
    chosen = list(RULES)
    if enable:
        wanted = [r.upper() for r in enable]
        for r in wanted:
            if r not in RULES:
                raise KeyError(r)
        chosen = [r for r in chosen if r in wanted]
    if disable:
        dropped = {r.upper() for r in disable}
        for r in dropped:
            if r not in RULES:
                raise KeyError(r)
        chosen = [r for r in chosen if r not in dropped]
    return [RULES[r] for r in chosen]


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
    description = ("wall-clock read (time.time / perf_counter / "
                   "datetime.now) outside the common/ shims")
    exempt = ("common/",)

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        aliases = _import_aliases(tree)
        out: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for a in node.names:
                    full = f"{node.module}.{a.name}"
                    if full in _WALL_CLOCK:
                        out.append(self.violation(
                            node,
                            f"imports wall-clock `{full}`; use "
                            "SimClock.now_s / TaskCost instead", relpath,
                        ))
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                full = _resolve(dotted, aliases)
                if full in _WALL_CLOCK:
                    out.append(self.violation(
                        node,
                        f"wall-clock read `{full}()`; simulated components "
                        "must read SimClock.now_s / TaskCost", relpath,
                    ))
        return out


# ----------------------------------------------------------------------
# SIM002 — ambient randomness
# ----------------------------------------------------------------------

#: numpy.random attributes that are fine: explicit generator construction.
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
}

#: Generator constructors that seed from OS entropy when given no argument.
_NP_SEEDED_CTORS = {"numpy.random.default_rng", "numpy.random.RandomState"}


@register
class AmbientRandomnessRule(Rule):
    """SIM002: randomness must flow through repro.common.rng streams."""

    id = "SIM002"
    name = "ambient-randomness"
    description = ("ambient `random` / module-level `numpy.random` use, "
                   "or a generator constructed without a seed, instead "
                   "of seeded repro.common.rng streams")
    exempt = ("common/rng.py",)

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        aliases = _import_aliases(tree)
        out: List[Violation] = []
        flagged: Set[int] = set()  # attribute nodes already reported
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        out.append(self.violation(
                            node,
                            "imports the ambient `random` module; derive "
                            "a stream via repro.common.rng.make_rng / "
                            "derive_seed", relpath,
                        ))
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random" or (
                        node.module or "").startswith("random."):
                    out.append(self.violation(
                        node,
                        "imports from the ambient `random` module; derive "
                        "a stream via repro.common.rng.make_rng / "
                        "derive_seed", relpath,
                    ))
            elif isinstance(node, (ast.Call, ast.Attribute)):
                target = node.func if isinstance(node, ast.Call) else node
                if id(target) in flagged:
                    continue  # already reported via the enclosing call
                dotted = _dotted(target)
                if dotted is None:
                    continue
                full = _resolve(dotted, aliases)
                parts = full.split(".")
                if len(parts) >= 3 and parts[0] == "numpy" \
                        and parts[1] == "random" \
                        and parts[2] not in _NP_RANDOM_OK:
                    flagged.add(id(target))
                    out.append(self.violation(
                        node,
                        f"module-level `{full}` draws from numpy's global "
                        "state; use repro.common.rng.make_rng(seed)",
                        relpath,
                    ))
                elif isinstance(node, ast.Call) \
                        and full in _NP_SEEDED_CTORS \
                        and not node.args and not node.keywords:
                    out.append(self.violation(
                        node,
                        f"`{full}()` without a seed draws OS entropy; "
                        "use repro.common.rng.make_rng(seed)", relpath,
                    ))
        return out


# ----------------------------------------------------------------------
# SIM003 — direct filesystem IO inside sim subsystems
# ----------------------------------------------------------------------

#: ``os.*`` members that touch the host filesystem / environment.
_OS_IO = {
    "remove", "unlink", "rename", "replace", "rmdir", "removedirs",
    "mkdir", "makedirs", "listdir", "scandir", "stat", "lstat", "walk",
    "open", "system", "popen", "getenv", "putenv", "environ", "chdir",
    "truncate", "symlink", "link", "getcwd",
}

#: ``os.path.*`` members that hit the filesystem (join/basename are pure).
_OS_PATH_IO = {
    "exists", "isfile", "isdir", "islink", "getsize", "getmtime",
    "getatime", "getctime", "samefile", "realpath",
}


@register
class DirectIORule(Rule):
    """SIM003: sim subsystems must do IO via the metered HDFS/RPC fabric."""

    id = "SIM003"
    name = "direct-io"
    description = ("direct filesystem IO (`open`, `os.*`, pathlib, shutil) "
                   "inside a simulated subsystem; use repro.hdfs / RPC")
    scope = SIM_SUBSYSTEMS
    exempt = ("cli.py", "obs/export.py")

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        aliases = _import_aliases(tree)
        out: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                full = _resolve(dotted, aliases)
                parts = full.split(".")
                hit = (
                    full == "open"
                    or full == "io.open"
                    or (parts[0] == "os" and len(parts) == 2
                        and parts[1] in _OS_IO)
                    or (parts[0] == "os" and len(parts) == 3
                        and parts[1] == "path" and parts[2] in _OS_PATH_IO)
                    or parts[0] == "shutil"
                    or parts[0] == "tempfile"
                    or full.startswith("pathlib.")
                )
                if hit:
                    out.append(self.violation(
                        node,
                        f"direct IO `{full}(...)` inside a simulated "
                        "subsystem; route through repro.hdfs (metered) "
                        "or move to the CLI/export layer", relpath,
                    ))
            elif isinstance(node, ast.Attribute):
                if _resolve(_dotted(node) or "", aliases) == "os.environ":
                    out.append(self.violation(
                        node,
                        "reads `os.environ` inside a simulated subsystem; "
                        "thread configuration through ClusterConfig",
                        relpath,
                    ))
        return out


# ----------------------------------------------------------------------
# SIM004 — unordered set iteration on determinism-critical paths
# ----------------------------------------------------------------------

#: Consumers whose result does not depend on iteration order.
_ORDER_INSENSITIVE = {"sorted", "len", "min", "max", "any", "all",
                      "set", "frozenset"}

#: Consumers that materialize the (hash-ordered) iteration sequence.
_ORDER_SENSITIVE = {"iter", "list", "tuple", "enumerate", "reversed"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@register
class UnorderedIterationRule(Rule):
    """SIM004: set iteration order must not feed partitioning/row order."""

    id = "SIM004"
    name = "unordered-iteration"
    description = ("iteration over a set feeds hash order into shuffle "
                   "partitioning / PS row ordering; sort or use "
                   "dict.fromkeys")
    scope = SIM_SUBSYSTEMS

    _MSG = ("iterates a set whose hash order is not deterministic across "
            "runs; wrap in sorted(...) or dedup with dict.fromkeys(...)")

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                out.append(self.violation(node.iter, self._MSG, relpath))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        out.append(self.violation(
                            gen.iter, self._MSG, relpath))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) \
                        and func.id in _ORDER_SENSITIVE:
                    for arg in node.args:
                        if _is_set_expr(arg):
                            out.append(self.violation(
                                arg, self._MSG, relpath))
                for arg in node.args:
                    if isinstance(arg, ast.Starred) \
                            and _is_set_expr(arg.value):
                        out.append(self.violation(
                            arg.value, self._MSG, relpath))
        return out


# ----------------------------------------------------------------------
# SIM005 — RDD closures mutating captured state / aliasing records
# ----------------------------------------------------------------------

#: RDD methods whose function arguments ship to executors.
_RDD_METHODS = {
    "map", "flat_map", "filter", "map_partitions",
    "map_partitions_with_index", "foreach_partition", "shuffle_blocks",
}

#: Method calls that mutate their receiver.
_MUTATORS = {
    "append", "extend", "insert", "remove", "clear", "update",
    "setdefault", "popitem", "add", "discard", "sort", "reverse",
    "pop", "write",
}

#: In-place reorderings: called on a parameter they alias shuffled records.
_INPLACE_REORDER = {"sort", "reverse"}


def _bound_names(func: ast.Lambda | ast.FunctionDef) -> Set[str]:
    """Names bound inside ``func``: parameters plus local assignments."""
    args = func.args
    bound: Set[str] = {
        a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
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


def _param_names(func: ast.Lambda | ast.FunctionDef) -> Set[str]:
    args = func.args
    names = {a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


@register
class ClosureMutationRule(Rule):
    """SIM005: executor closures must be pure w.r.t. captured state."""

    id = "SIM005"
    name = "closure-mutation"
    description = ("RDD closure mutates captured driver state or sorts "
                   "partition data in place (aliases shuffled records)")

    def check(self, tree: ast.AST, relpath: str) -> List[Violation]:
        # Local function definitions, so `rdd.map(fn)` by name resolves.
        defs: Dict[str, ast.FunctionDef] = {
            n.name: n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)
        }
        out: List[Violation] = []
        checked: Set[int] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RDD_METHODS):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                func: ast.Lambda | ast.FunctionDef | None = None
                if isinstance(arg, ast.Lambda):
                    func = arg
                elif isinstance(arg, ast.Name) and arg.id in defs:
                    func = defs[arg.id]
                if func is None or id(func) in checked:
                    continue
                checked.add(id(func))
                out.extend(self._check_closure(func, relpath))
        return out

    def _check_closure(self, func: ast.Lambda | ast.FunctionDef,
                       relpath: str) -> List[Violation]:
        bound = _bound_names(func)
        params = _param_names(func)
        out: List[Violation] = []
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Nonlocal):
                    out.append(self.violation(
                        node,
                        "closure rebinds captured driver state via "
                        "`nonlocal`; executors never see the driver's "
                        "frame on a real cluster", relpath,
                    ))
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
                            out.append(self.violation(
                                node,
                                f"closure mutates captured object "
                                f"`{base.id}`; the write is lost when the "
                                "closure runs on a remote executor",
                                relpath,
                            ))
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name):
                    recv = node.func.value.id
                    meth = node.func.attr
                    if meth in _MUTATORS and recv not in bound:
                        out.append(self.violation(
                            node,
                            f"closure calls mutating `{recv}.{meth}(...)` "
                            "on captured driver state; the effect is lost "
                            "on a remote executor", relpath,
                        ))
                    elif meth in _INPLACE_REORDER and recv in params:
                        out.append(self.violation(
                            node,
                            f"closure reorders its input `{recv}` in "
                            f"place (`.{meth}()`); partition data may be "
                            "aliased by caches / shuffle buffers — copy "
                            "before sorting", relpath,
                        ))
        return out
