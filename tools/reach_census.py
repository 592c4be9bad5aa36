#!/usr/bin/env python3
"""Product-reach census: what in ``src/repro`` only tests reach.

Runs every product entry point of a checkout under a tracing hook, then
the tier-1 suite under the same hook on its own, and prints three tables:

- **functions** — every ``def`` in ``src/repro``: called by an entry
  point, called only by tier-1, or called by nothing;
- **statements** — every statement in a function body: run by an entry
  point, run only under tier-1, or run nowhere (``raise`` counted apart);
- **parameters** — every parameter with a default: how many take one
  value at every entry-point call, and for how many of those the only
  other values come from tier-1;
- **fields** — the same for every dataclass field with a default that
  ``__init__`` takes.  A dataclass's ``__init__`` is generated code with
  no file in ``src/repro``, so the hook keys its calls by the class that
  defines the ``__init__`` (found from ``type(self)``) when that class is
  in ``repro``, and each field by the class that declares it.

The statement, parameter and field passes leave out ``repro.lint``, whose
rules are reached through the fixtures of its own tests.

The hooks live in a ``sitecustomize.py`` written to a temporary directory
put first on ``PYTHONPATH``, so every Python process an entry point starts
is covered.  A ``sys.settrace`` call hook records each ``src/repro`` code
object that runs (the function census) and the arguments of each call
(the parameter and field censuses: a value is keyed by ``type:repr`` for
scalars, short tuples, slices and numpy dtypes, a class by its qualified
name, a small dict of scalars by its items' sorted reprs, and anything
else by its type); its local line hook records every line run (the
statement census).  Each process writes what it saw to one JSON file at
exit.

Usage (stdlib only; about 21 minutes a checkout on two cores)::

    python tools/reach_census.py --change . --parent ../parent-checkout
    python tools/reach_census.py --change . --list    # one checkout, and
                                                      # the names per class

``--out DIR`` keeps the raw hook files; ``--reuse`` reads them back instead
of running again.  The entry points are :func:`entry_points` below.  The
benchmark's harness test runs with ``-k 'not without_the_program'``: that
test copies the benchmark without ``src/`` and expects the run to fail,
but the hook's ``PYTHONPATH`` makes ``repro`` importable there, so under
the hook it fails for a reason that is no product fault.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ALGORITHMS = ["pagerank", "common-neighbor", "fast-unfolding", "kcore",
              "triangle-count", "label-propagation", "connected-components",
              "line", "deepwalk"]

#: The three CI smoke commands (.github/workflows/ci.yml, ``smoke``).
SMOKES = [
    "run pagerank --vertices 400 --edges 3000 --iterations 8 --executors 4 "
    "--servers 2 --chaos examples/chaos-schedule.json --record {tmp}/r1.json",
    "serve --requests 100000 --seed 7 --chaos --record {tmp}/r2.json",
    "stream --vertices 2000 --edges 20000 --windows 4 --adds 12 --removals 8 "
    "--embedding --max-ratio 0.25 --record {tmp}/r3.json",
]

LINT = "src/repro/lint/"

VERDICT_FILES = ["benchmarks/test_bench_figure6.py",
                 "benchmarks/test_bench_table1.py",
                 "benchmarks/test_bench_table2.py",
                 "benchmarks/test_bench_line.py",
                 "benchmarks/test_bench_ablations.py"]


def entry_points(repo: Path, tmp: Path) -> List[Tuple[str, List[str], Path]]:
    """(label, argv, cwd) of every product entry point of ``repo``."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    eps: List[Tuple[str, List[str], Path]] = [
        ("experiments all", repro + ["experiments", "all"], repo),
    ]
    for trace in ("0", "1"):
        eps.append((f"run.py --trace {trace}",
                    [py, "benchmarks/e2e/run.py", "--workload", "all",
                     "--seed", "7", "--seconds", "0", "--trace", trace],
                    repo))
    workloads = subprocess.run(
        repro[:1] + ["-c", "from repro.obs.determinism import WORKLOADS; "
                           "print(*sorted(WORKLOADS))"],
        cwd=repo, env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, check=True).stdout.split()
    eps.append(("lint --dynamic",
                repro + ["lint", "--dynamic", *workloads], repo))
    eps.append(("lint src/repro", repro + ["lint", "src/repro"], repo))
    for algo in ALGORITHMS:
        base = repro + ["run", algo, "--vertices", "300", "--edges", "2000",
                        "--executors", "3", "--servers", "2"]
        eps.append((f"run {algo}", base + [
            "--output", str(tmp / f"{algo}.tsv"),
            "--record", str(tmp / f"{algo}.json")], repo))
        eps.append((f"run {algo} --chaos", base + ["--chaos"], repo))
    for i, smoke in enumerate(SMOKES, 1):
        eps.append((f"smoke {i}", repro + smoke.format(tmp=tmp).split(), repo))
        eps.append((f"report {i}", repro + [
            "report", str(tmp / f"r{i}.json"), "--out",
            str(tmp / f"views{i}")], repo))
    for example in sorted((repo / "examples").glob("*.py")):
        eps.append((f"example {example.name}", [py, str(example)], tmp))
    eps.append(("verdict files", [py, "-m", "pytest", "-q", "-x",
                                  "-p", "no:cacheprovider",
                                  "--benchmark-disable", *VERDICT_FILES],
                repo))
    eps.append(("e2e harness test", [
        py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "benchmarks/e2e/test_bench_e2e.py", "-k", "not without_the_program"],
        repo))
    eps.append(("micro", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "benchmarks/micro"], repo))
    eps.append(("micro runner", [py, "benchmarks/micro/runner.py", "--quick",
                                 "--out", str(tmp / "micro.json")], repo))
    return eps


def tier1(repo: Path) -> List[Tuple[str, List[str], Path]]:
    """The tier-1 suite, as ROADMAP.md runs it."""
    return [("tier-1", [sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider"], repo)]


# ---- what is defined ---------------------------------------------------

class Defs:
    """Functions, function-body statements and defaulted parameters of
    ``src/repro``, from the AST."""

    def __init__(self, src: Path) -> None:
        #: (file, firstlineno) -> (qualname, lines incl. docstring)
        self.functions: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: file -> [(first line, last line, is a raise, last line of a
        #: compound statement's body or 0)]
        self.statements: Dict[str, List[Tuple[int, int, bool, int]]] = {}
        #: (file, firstlineno) -> [(param name, default source)]
        self.params: Dict[Tuple[str, int], List[Tuple[str, str]]] = {}
        #: "module:class qualname" -> (file, [(field name, default source)])
        self.fields: Dict[str, Tuple[str, List[Tuple[str, str]]]] = {}
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src.parent.parent).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            self.statements[rel] = []
            self._module = ".".join(
                path.relative_to(src.parent).with_suffix("").parts
            ).removesuffix(".__init__")
            self._walk(rel, tree, "", False)

    def _walk(self, rel: str, node: ast.AST, prefix: str,
              in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                qual = prefix + child.name
                key = (rel, first)
                self.functions[key] = (qual, child.end_lineno - first + 1)
                self.params[key] = _defaulted(child.args)
                if in_function:
                    self._statement(rel, child)
                body = child.body
                if (body and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                holder = ast.Module(body=body, type_ignores=[])
                self._walk(rel, holder, qual + ".<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                if in_function:
                    self._statement(rel, child)
                qual = prefix + child.name
                if not in_function and _is_dataclass(child):
                    self.fields[f"{self._module}:{qual}"] = (
                        rel, _field_defaults(child))
                self._walk(rel, child, qual + ".", False)
            elif isinstance(child, ast.stmt):
                if in_function:
                    self._statement(rel, child)
                self._walk(rel, child, prefix, in_function)
            elif not isinstance(child, ast.expr):
                self._walk(rel, child, prefix, in_function)

    def _statement(self, rel: str, node: ast.stmt) -> None:
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Pass)):
            return
        inner = [c for c in ast.iter_child_nodes(node)
                 if isinstance(c, ast.stmt)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            self.statements[rel].append((first, node.lineno, False, 0))
            return
        if inner:                   # compound: the header, or any child
            head_end = max(node.lineno, min(c.lineno for c in inner) - 1)
            self.statements[rel].append(
                (node.lineno, head_end, False, node.end_lineno))
        else:
            self.statements[rel].append(
                (node.lineno, node.end_lineno, isinstance(node, ast.Raise),
                 0))


def _defaulted(args: ast.arguments) -> List[Tuple[str, str]]:
    positional = args.posonlyargs + args.args
    out = [(a.arg, ast.unparse(d)) for a, d in
           zip(positional[len(positional) - len(args.defaults):],
               args.defaults)]
    out += [(a.arg, ast.unparse(d)) for a, d in
            zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if ast.unparse(d) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _field_defaults(node: ast.ClassDef) -> List[Tuple[str, str]]:
    """(name, default source) of each field with a default that the
    generated ``__init__`` takes."""
    out = []
    for st in node.body:
        if not (isinstance(st, ast.AnnAssign)
                and isinstance(st.target, ast.Name) and st.value is not None
                and "ClassVar" not in ast.unparse(st.annotation)):
            continue
        v = st.value
        if isinstance(v, ast.Call) and ast.unparse(v.func) in (
                "field", "dataclasses.field"):
            kw = {k.arg: k.value for k in v.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" in kw:
                out.append((st.target.id, ast.unparse(kw["default"])))
            elif "default_factory" in kw:
                out.append((st.target.id,
                            ast.unparse(kw["default_factory"]) + "()"))
        else:
            out.append((st.target.id, ast.unparse(v)))
    return out


# ---- the hooks ---------------------------------------------------------

HOOK = r'''
import atexit, json, os, sys

_SRC = {src!r}
_OUT = {out!r}
_PARAMS = {params!r}
_FIELDS = {fields!r}
_CALLS = set()
_LINES = {{}}
_VALUES = {{}}
_CODES = {{}}
_SCALARS = (type(None), bool, int, float, str, bytes, complex)


def _key(v):
    if isinstance(v, _SCALARS) and len(repr(v)) <= 60:
        return type(v).__name__ + ":" + repr(v)
    if isinstance(v, tuple) and len(v) <= 8 and all(
            isinstance(x, _SCALARS) for x in v):
        return "tuple:" + repr(v)[:80]
    if isinstance(v, type):
        return "type:" + v.__module__ + "." + v.__qualname__
    np = sys.modules.get("numpy")
    if isinstance(v, slice) or (np is not None and isinstance(v, np.dtype)):
        return type(v).__name__ + ":" + repr(v)[:80]
    if isinstance(v, dict) and len(v) <= 8 and all(
            isinstance(x, _SCALARS) for kv in v.items() for x in kv):
        return "dict:" + repr(sorted(map(repr, v.items())))[:120]
    return "<" + type(v).__qualname__ + ">"


def _field_info(code, frame):
    """(None, [(field, key)]) when ``code`` is the generated ``__init__``
    of a ``repro`` dataclass; the class is the one whose ``__init__`` is
    ``code`` on ``type(self)``'s MRO."""
    if code.co_name != "__init__" or not code.co_varnames:
        return None
    mro = type(frame.f_locals.get(code.co_varnames[0])).__mro__
    cls = next((c for c in mro if getattr(
        c.__dict__.get("__init__"), "__code__", None) is code), None)
    if cls is None or "__dataclass_fields__" not in cls.__dict__:
        return None
    out = []
    for name in cls.__dataclass_fields__:
        for c in cls.__mro__:
            if name in c.__dict__.get("__annotations__", {{}}):
                key = c.__module__ + ":" + c.__qualname__ + ":" + name
                if key in _FIELDS:
                    out.append((name, key))
                break
    return (None, out) if out else None


def _info(code, frame):
    fn = code.co_filename
    if not fn.startswith(_SRC):
        info = _CODES[code] = _field_info(code, frame)
        return info
    rel = "src/" + fn[len(_SRC):].lstrip("/")
    rel = rel.replace(os.sep, "/")
    key = rel + ":" + str(code.co_firstlineno)
    lines = _LINES.setdefault(rel, set())
    start = -1
    if code.co_flags & 0x2A0:      # generator / coroutine: its first RESUME
        import dis
        start = next(i.offset for i in dis.get_instructions(code)
                     if i.opname == "RESUME")
    info = (key, lines, _PARAMS.get(key), start)
    _CODES[code] = info
    return info


def _tracer(frame, event, arg):
    code = frame.f_code
    try:
        info = _CODES[code]
    except KeyError:
        info = _info(code, frame)
    if info is None:
        return None
    if info[0] is None:             # a dataclass's generated __init__
        loc = frame.f_locals
        for name, key in info[1]:
            seen = _VALUES.setdefault(key, set())
            if len(seen) < 16:
                seen.add(_key(loc[name]))
        return None
    key, lines, params, start = info
    _CALLS.add(key + ":" + code.co_qualname)
    if params and (start < 0 or frame.f_lasti == start):
        loc = frame.f_locals
        for name in params:
            if name in loc:
                seen = _VALUES.setdefault(key + ":" + name, set())
                if len(seen) < 16:
                    seen.add(_key(loc[name]))
    lines.add(frame.f_lineno)

    def _line(frame, event, arg, _add=lines.add):
        if event == "line":
            _add(frame.f_lineno)
        return _line
    return _line


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "%d-%s.json" % (os.getpid(), os.urandom(4).hex()))
    with open(path, "w") as f:
        json.dump({{"calls": sorted(_CALLS),
                   "lines": {{k: sorted(v) for k, v in _LINES.items()}},
                   "values": {{k: sorted(v) for k, v in _VALUES.items()}}}}, f)


atexit.register(_dump)
sys.settrace(_tracer)
try:
    import threading
    threading.settrace(_tracer)
except Exception:
    pass
'''


def collect(repo: Path, defs: Defs, out: Path,
            eps: List[Tuple[str, List[str], Path]]) -> None:
    """Run ``eps`` of ``repo`` under the hooks, raw files into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    hook_dir = Path(tempfile.mkdtemp(prefix="census-hook-"))
    params = {f"{f}:{line}": [p for p, _d in ps]
              for (f, line), ps in defs.params.items() if ps}
    fields = {f"{cls}:{name}" for cls, (_f, fs) in defs.fields.items()
              for name, _d in fs}
    (hook_dir / "sitecustomize.py").write_text(HOOK.format(
        src=str((repo / "src").resolve()) + "/", out=str(out.resolve()),
        params=params, fields=fields))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(hook_dir),
                                          str((repo / "src").resolve())])}
    status = []
    try:
        for label, argv, cwd in eps:
            print(f"  [{repo.name}] {label}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=cwd, env=env, check=False,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            status.append({"label": label, "returncode": done.returncode})
    finally:
        shutil.rmtree(hook_dir, ignore_errors=True)
    (out / "status.json").write_text(json.dumps(status, indent=1))


def merge(out: Path) -> Tuple[Set[str], Dict[str, Set[int]],
                              Dict[str, Set[str]]]:
    calls: Set[str] = set()
    lines: Dict[str, Set[int]] = defaultdict(set)
    values: Dict[str, Set[str]] = defaultdict(set)
    for path in out.glob("*-*.json"):
        data = json.loads(path.read_text())
        calls.update(data["calls"])
        for k, v in data["lines"].items():
            lines[k].update(v)
        for k, v in data["values"].items():
            values[k].update(v)
    return calls, lines, values


# ---- the census --------------------------------------------------------

class Census:
    """One checkout's definitions and what its hooks recorded."""

    def __init__(self, repo: Path, out: Path, reuse: bool) -> None:
        self.repo = repo
        self.defs = Defs(repo / "src" / "repro")
        ep_dir, t1_dir = out / "entry", out / "tier1"
        if not reuse:
            for d in (ep_dir, t1_dir):
                shutil.rmtree(d, ignore_errors=True)
            with tempfile.TemporaryDirectory(prefix="census-run-") as tmp:
                collect(repo, self.defs, ep_dir,
                        entry_points(repo, Path(tmp)))
            collect(repo, self.defs, t1_dir, tier1(repo))
        self.ep = merge(ep_dir)
        self.t1 = merge(t1_dir)
        self.status = [s for d in (ep_dir, t1_dir)
                       for s in json.loads((d / "status.json").read_text())]

    @staticmethod
    def _called(calls: Set[str]) -> Set[Tuple[str, int]]:
        out = set()
        for c in calls:
            f, line, qual = c.split(":", 2)
            if not qual.rpartition(".")[2].startswith("<"):
                out.add((f, int(line)))
        return out

    def functions(self):
        ep, t1 = self._called(self.ep[0]), self._called(self.t1[0])
        rows = {"entry": [], "tier-only": [], "never": []}
        for key, (qual, n) in self.defs.functions.items():  # lint included
            cls = ("entry" if key in ep else
                   "tier-only" if key in t1 else "never")
            rows[cls].append((key[0], key[1], qual, n))
        names = {(f, q) for f, _l, q, _n in rows["entry"]}
        return rows, names

    def statements(self):
        counts = {"entry": 0, "tier-only": 0, "nowhere": 0}
        raises: List[Tuple[str, int]] = []
        for rel, stmts in self.defs.statements.items():
            if rel.startswith(LINT):
                continue
            e, t = self.ep[1].get(rel, set()), self.t1[1].get(rel, set())
            for first, last, is_raise, span_end in stmts:
                span = range(first, (span_end or last) + 1)
                if any(x in e for x in span):
                    counts["entry"] += 1
                elif any(x in t for x in span):
                    counts["tier-only"] += 1
                else:
                    counts["nowhere"] += 1
                    if is_raise:
                        raises.append((rel, first))
        return counts, raises

    def parameters(self):
        total, one, one_tier = 0, [], []
        for (f, line), ps in self.defs.params.items():
            if f.startswith(LINT):
                continue
            for name, default in ps:
                total += 1
                k = f"{f}:{line}:{name}"
                e = self.ep[2].get(k, set())
                t = self.t1[2].get(k, set())
                if len(e) == 1:
                    qual = self.defs.functions[(f, line)][0]
                    row = (f, qual, name, default, next(iter(e)))
                    one.append(row)
                    if t - e:
                        one_tier.append(row)
        return total, one, one_tier

    def fields(self):
        total, one, one_tier = 0, [], []
        for cls, (f, fs) in self.defs.fields.items():
            if f.startswith(LINT):
                continue
            for name, default in fs:
                total += 1
                k = f"{cls}:{name}"
                e = self.ep[2].get(k, set())
                t = self.t1[2].get(k, set())
                if len(e) == 1:
                    row = (f, cls.partition(":")[2], name, default,
                           next(iter(e)))
                    one.append(row)
                    if t - e:
                        one_tier.append(row)
        return total, one, one_tier


def _lines(rows) -> int:
    return sum(n for *_x, n in rows)


def report(censuses: Dict[str, Census], listing: bool) -> None:
    labels = list(censuses)
    fn = {k: c.functions() for k, c in censuses.items()}
    st = {k: c.statements() for k, c in censuses.items()}
    pa = {k: c.parameters() for k, c in censuses.items()}
    fi = {k: c.fields() for k, c in censuses.items()}

    def table(title, rows):
        print(f"\n{title}")
        print(f"  {'':44}" + "".join(f"{k:>14}" for k in labels))
        for name, vals in rows:
            print(f"  {name:44}" + "".join(f"{v:>14}" for v in vals))

    table("Functions (src/repro)", [
        ("defined", [sum(len(v) for v in fn[k][0].values()) for k in labels]),
        ("called by an entry point", [len(fn[k][0]["entry"]) for k in labels]),
        ("  distinct names", [len(fn[k][1]) for k in labels]),
        ("called only by tier-1", [len(fn[k][0]["tier-only"])
                                   for k in labels]),
        ("  lines", [_lines(fn[k][0]["tier-only"]) for k in labels]),
        ("called by nothing", [len(fn[k][0]["never"]) for k in labels]),
        ("  lines", [_lines(fn[k][0]["never"]) for k in labels]),
    ])
    table("Statements in function bodies", [
        ("statements", [sum(st[k][0].values()) for k in labels]),
        ("run by an entry point", [st[k][0]["entry"] for k in labels]),
        ("run only under tier-1", [st[k][0]["tier-only"] for k in labels]),
        ("run nowhere", [st[k][0]["nowhere"] for k in labels]),
        ("  of which raise", [len(st[k][1]) for k in labels]),
        ("  files with such a raise", [len({f for f, _l in st[k][1]})
                                       for k in labels]),
    ])
    table("Parameters with a default", [
        ("parameters", [pa[k][0] for k in labels]),
        ("one value at every entry point", [len(pa[k][1]) for k in labels]),
        ("  other values only from tier-1", [len(pa[k][2]) for k in labels]),
    ])
    table("Dataclass fields with a default", [
        ("fields", [fi[k][0] for k in labels]),
        ("one value at every entry point", [len(fi[k][1]) for k in labels]),
        ("  other values only from tier-1", [len(fi[k][2]) for k in labels]),
    ])
    if len(labels) == 2:
        a, b = labels
        gone = fn[a][1] - fn[b][1]
        new = fn[b][1] - fn[a][1]
        print(f"\nEntry-point names only at {a}: "
              + (", ".join(sorted(q for _f, q in gone)) or "none"))
        print(f"Entry-point names only at {b}: "
              + (", ".join(sorted(q for _f, q in new)) or "none"))
    for k, c in censuses.items():
        bad = [s for s in c.status if s["returncode"] != 0]
        for s in bad:
            print(f"\n[{k}] exit {s['returncode']}: {s['label']}")
    if not listing:
        return
    k = labels[-1]
    for cls in ("tier-only", "never"):
        print(f"\n[{k}] called {'only by tier-1' if cls == 'tier-only' else 'by nothing'}:")
        for f, line, qual, n in sorted(fn[k][0][cls]):
            print(f"  {f}:{line}  {qual}  ({n} lines)")
    print(f"\n[{k}] raise statements run nowhere:")
    for f, line in sorted(st[k][1]):
        print(f"  {f}:{line}")
    print(f"\n[{k}] parameters at one value at every entry point "
          "(* = tier-1 passes another):")
    tier = {(f, q, n) for f, q, n, _d, _v in pa[k][2]}
    for f, qual, name, default, value in sorted(pa[k][1]):
        mark = "*" if (f, qual, name) in tier else " "
        print(f" {mark} {f}  {qual}({name}={default})  always {value}")
    print(f"\n[{k}] dataclass fields at one value at every entry point "
          "(* = tier-1 passes another):")
    tier = {(f, q, n) for f, q, n, _d, _v in fi[k][2]}
    for f, qual, name, default, value in sorted(fi[k][1]):
        mark = "*" if (f, qual, name) in tier else " "
        print(f" {mark} {f}  {qual}.{name} = {default}  always {value}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", type=Path, default=Path("."),
                    help="the checkout to census (default: .)")
    ap.add_argument("--parent", type=Path, default=None,
                    help="a second checkout to census beside it")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the raw hook files here")
    ap.add_argument("--reuse", action="store_true",
                    help="read the hook files in --out, run nothing")
    ap.add_argument("--list", action="store_true",
                    help="print the names in each class for --change")
    args = ap.parse_args(argv)
    if args.reuse and args.out is None:
        ap.error("--reuse needs --out")
    keep = args.out is not None
    out = args.out or Path(tempfile.mkdtemp(prefix="census-"))
    try:
        censuses: Dict[str, Census] = {}
        if args.parent is not None:
            censuses["parent"] = Census(args.parent.resolve(),
                                        out / "parent", args.reuse)
        censuses["change"] = Census(args.change.resolve(), out / "change",
                                    args.reuse)
        report(censuses, args.list)
    finally:
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
