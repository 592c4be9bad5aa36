"""Golden-file tests for CFG construction plus the queries SIM101 uses.

The dumps pin the graph shape for each structured-control construct;
any builder change that moves an edge shows up as a readable diff of
``CFG.dump()``, not a mystery rule regression three layers up.
"""

import textwrap

import pytest

from repro.lint.cfg import build_cfg, cfg_for_source


def cfg_of(source: str):
    return cfg_for_source(textwrap.dedent(source), "f")


def dump_of(source: str) -> str:
    return cfg_of(source).dump()


# ----------------------------------------------------------------------
# golden dumps
# ----------------------------------------------------------------------

def test_golden_branch():
    assert dump_of("""\
        def f(x):
            if x > 0:
                a = 1
            else:
                a = 2
            return a
    """) == textwrap.dedent("""\
        0 entry ENTRY -> [2]
        1 exit EXIT -> []
        2 stmt params -> [3]
        3 test if L2 -> [4,5]
        4 stmt assign L3 -> [6]
        5 stmt assign L5 -> [6]
        6 stmt return L6 -> [1]""")


def test_golden_loop_with_break():
    assert dump_of("""\
        def f(n):
            i = 0
            while i < n:
                if i == 3:
                    break
                i += 1
            return i
    """) == textwrap.dedent("""\
        0 entry ENTRY -> [2]
        1 exit EXIT -> []
        2 stmt params -> [3]
        3 stmt assign L2 -> [4]
        4 test while L3 -> [5,8]
        5 test if L4 -> [6,7]
        6 stmt break L5 -> [8]
        7 stmt augassign L6 -> [4]
        8 stmt return L7 -> [1]""")


def test_golden_try_finally_routes_return_through_finally():
    # The `return` (node 5) has no edge to EXIT; it flows into the
    # finally suite (node 6), which alone reaches the exit — a release
    # there dominates the early return like it does at runtime.
    assert dump_of("""\
        def f(tracer):
            span = tracer.task_span("load")
            try:
                data = span.read()
                return data
            finally:
                span.close()
    """) == textwrap.dedent("""\
        0 entry ENTRY -> [2]
        1 exit EXIT -> []
        2 stmt params -> [3]
        3 stmt assign L2 -> [4]
        4 stmt assign L4 -> [5]
        5 stmt return L5 -> [6]
        6 stmt expr L7 -> [1]""")


def test_golden_try_except():
    # Every try-body statement gets an edge to the handler head, plus
    # the pre-body frontier (params) so an empty body cannot orphan it.
    assert dump_of("""\
        def f(src):
            try:
                data = src.read()
            except ValueError:
                data = ""
            return data
    """) == textwrap.dedent("""\
        0 entry ENTRY -> [2]
        1 exit EXIT -> []
        2 stmt params -> [3,4]
        3 except except L4 -> [5]
        4 stmt assign L3 -> [3,6]
        5 stmt assign L5 -> [6]
        6 stmt return L6 -> [1]""")


def test_golden_with_block():
    assert dump_of("""\
        def f(tracer):
            with tracer.task_span("load") as span:
                data = span.read()
            return data
    """) == textwrap.dedent("""\
        0 entry ENTRY -> [2]
        1 exit EXIT -> []
        2 stmt params -> [3]
        3 with with L2 -> [4]
        4 stmt assign L3 -> [5]
        5 stmt return L4 -> [1]""")


def test_while_true_has_no_fall_through():
    # A constant-true test must not fabricate a zero-iteration path
    # around the body; the only way out is the break.
    cfg = cfg_of("""\
        def f(q):
            while True:
                item = q.get()
                if item is None:
                    break
    """)
    test_node = next(n for n in cfg.nodes if n.kind == "test"
                     and n.label.startswith("while"))
    assert cfg.exit not in cfg.succ[test_node.idx]
    break_node = next(n for n in cfg.nodes if n.label.startswith("break"))
    assert cfg.succ[break_node.idx] == [cfg.exit]


# ----------------------------------------------------------------------
# path queries
# ----------------------------------------------------------------------

def test_exists_path_respects_interior_avoid_set():
    cfg = cfg_of("""\
        def f(tracer):
            span = tracer.task_span("load")
            try:
                data = span.read()
                return data
            finally:
                span.close()
    """)
    open_idx = next(n.idx for n in cfg.nodes if n.label == "assign L2")
    close_idx = next(n.idx for n in cfg.nodes if n.label == "expr L7")
    # No path from the open to the exit can skip the finally suite.
    assert not cfg.exists_path(open_idx, cfg.exit, avoiding={close_idx})


# ----------------------------------------------------------------------
# reaching definitions
# ----------------------------------------------------------------------

def reaching(cfg, idx: int, name: str) -> set:
    """Node ids of the definitions of ``name`` that may reach ``idx``."""
    return {d for (n, d) in cfg.reaching_definitions()[idx] if n == name}


def test_reaching_definitions_merge_at_join():
    cfg = cfg_of("""\
        def f(x):
            if x > 0:
                a = 1
            else:
                a = 2
            return a
    """)
    ret_idx = next(n.idx for n in cfg.nodes
                   if n.label.startswith("return"))
    # Both branch definitions of `a` may reach the return.
    assert len(reaching(cfg, ret_idx, "a")) == 2


def test_loop_carried_definition_reaches_its_own_test():
    cfg = cfg_of("""\
        def f(n):
            i = 0
            while i < n:
                i += 1
            return i
    """)
    test_idx = next(n.idx for n in cfg.nodes if n.kind == "test")
    # The initial def and the loop-carried one.
    assert len(reaching(cfg, test_idx, "i")) == 2


def test_parameters_bind_like_definitions():
    cfg = cfg_of("""\
        def f(x):
            return x
    """)
    ret_idx = next(n.idx for n in cfg.nodes
                   if n.label.startswith("return"))
    params_idx = next(n.idx for n in cfg.nodes if n.label == "params")
    assert reaching(cfg, ret_idx, "x") == {params_idx}


def test_build_cfg_accepts_lambda():
    import ast

    tree = ast.parse("g = lambda v: v + 1")
    lam = tree.body[0].value
    cfg = build_cfg(lam)
    assert cfg.name == "<lambda>"
    assert cfg.exit in cfg.reachable_from(cfg.entry)


def test_cfg_for_source_unknown_function_raises():
    with pytest.raises(ValueError):
        cfg_for_source("def g(): pass", "f")
