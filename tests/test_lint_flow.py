"""Fixtures for the flow-sensitive SIM1xx rules.

Each known-bad snippet must produce *exactly one* violation of its
target rule under the full flow-rule set — proving both that the rule
fires and that its sibling stays quiet on the pattern.  The negatives
pin the sanctioned alternatives, and the sweep at the bottom asserts the
real package lints clean.
"""

import textwrap
from pathlib import Path

from repro.lint.engine import LintEngine, lint_paths
from repro.lint.rules import get_rules

REPO = Path(__file__).resolve().parent.parent

FLOW_RULES = ["SIM101", "SIM103"]


def lint_flow(source: str, relpath: str = "dataflow/fake.py"):
    engine = LintEngine(get_rules(enable=FLOW_RULES))
    return engine.lint_source(textwrap.dedent(source), relpath, relpath)


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# SIM101 closure-capture safety
# ----------------------------------------------------------------------

def test_sim101_rebound_capture_fires_exactly_once():
    vs = lint_flow("""\
        def driver(rdd):
            factor = 2
            out = rdd.map(lambda x: x * factor)
            factor = 3
            return out
    """)
    assert rule_ids(vs) == ["SIM101"]
    assert "rebound" in vs[0].message


def test_sim101_shuffle_blocks_closure_with_rebound_capture():
    vs = lint_flow("""\
        def driver(rdd, partitioner, bucket):
            width = 2
            out = rdd.shuffle_blocks(partitioner, lambda it: bucket(it, width))
            width = 3
            return out
    """)
    assert rule_ids(vs) == ["SIM101"]


def test_sim101_driver_context_capture():
    vs = lint_flow("""\
        from repro.dataflow.context import SparkContext

        def driver(rdd):
            ctx = SparkContext()
            return rdd.map(lambda x: ctx.parallelize(x))
    """)
    assert rule_ids(vs) == ["SIM101"]
    assert "SparkContext" in vs[0].message


def test_sim101_quiet_when_bound_via_default():
    vs = lint_flow("""\
        def driver(rdd):
            factor = 2
            out = rdd.map(lambda x, k=factor: x * k)
            factor = 3
            return out
    """)
    assert vs == []


def test_sim101_quiet_without_later_rebind():
    vs = lint_flow("""\
        def driver(rdd):
            factor = 2
            return rdd.map(lambda x: x * factor)
    """)
    assert vs == []


# ----------------------------------------------------------------------
# SIM103 metering contract
# ----------------------------------------------------------------------

def test_sim103_unmetered_materialization_fires_exactly_once():
    vs = lint_flow("""\
        import numpy as np

        def gather(tctx, parts):
            out = np.concatenate(parts)
            return out
    """)
    assert rule_ids(vs) == ["SIM103"]
    assert "moves bytes" in vs[0].message


def test_sim103_quiet_when_every_path_charges():
    vs = lint_flow("""\
        import numpy as np

        def gather(tctx, parts):
            out = np.concatenate(parts)
            tctx.cost.cpu_s += out.nbytes * 1e-9
            return out
    """)
    assert vs == []


def test_sim103_flags_the_uncharged_branch_only():
    # The charge sits in one branch; the other reaches the exit
    # unmetered, so the mover is still on a violating path.
    vs = lint_flow("""\
        import numpy as np

        def gather(tctx, parts, fast):
            out = np.concatenate(parts)
            if fast:
                return out
            tctx.cost.cpu_s += out.nbytes * 1e-9
            return out
    """)
    assert rule_ids(vs) == ["SIM103"]


def test_sim103_none_guard_paths_are_vacuously_compliant():
    # `charge_primitive_compute` and friends are no-ops when there is
    # no task context; the None branch of the guard is not an
    # unmetered path, it is driver-side execution.
    vs = lint_flow("""\
        import numpy as np

        def gather(parts):
            tctx = current_task_context()
            out = np.concatenate(parts)
            if tctx is not None:
                tctx.cost.cpu_s += out.nbytes * 1e-9
            return out
    """)
    assert vs == []


def test_sim103_non_context_guard_is_not_vacuous():
    # The same shape around an ordinary flag must NOT be excused.
    vs = lint_flow("""\
        import numpy as np

        def gather(tctx, parts, metered):
            out = np.concatenate(parts)
            if metered is not None:
                tctx.cost.cpu_s += out.nbytes * 1e-9
            return out
    """)
    assert rule_ids(vs) == ["SIM103"]


def test_sim103_callee_charge_satisfies_contract():
    # The callee charges on the caller's accumulator; the summary
    # propagates charges_metering to the call node.
    vs = lint_flow("""\
        import numpy as np

        def charged_concat(tctx, parts):
            out = np.concatenate(parts)
            tctx.cost.cpu_s += out.nbytes * 1e-9
            return out

        def gather(tctx, parts):
            return charged_concat(tctx, parts)
    """)
    assert vs == []


def test_sim103_skips_functions_outside_the_contract():
    # No accumulator in sight: the helper cannot charge; its callers
    # inherit the moves_bytes effect instead.
    vs = lint_flow("""\
        import numpy as np

        def pure_helper(parts):
            return np.concatenate(parts)
    """)
    assert vs == []


# ----------------------------------------------------------------------
# cross-module resolution through the shared program index
# ----------------------------------------------------------------------

def _write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_annotated_receiver_resolves_across_modules(tmp_path):
    _write(tmp_path, "graphx/graph.py", """\
        import numpy as np

        class Graph:
            def collect(self):
                return np.concatenate(self.parts)
    """)
    _write(tmp_path, "graphx/algo.py", """\
        from repro.graphx.graph import Graph

        def kcore(graph: Graph, tctx):
            return graph.collect()
    """)
    vs = lint_paths([tmp_path], get_rules(enable=FLOW_RULES))
    assert rule_ids(vs) == ["SIM103"]
    assert vs[0].path.endswith("algo.py")


def test_imported_callee_effects_cross_modules(tmp_path):
    _write(tmp_path, "dataflow/helper.py", """\
        import numpy as np

        def merge(parts):
            return np.concatenate(parts)
    """)
    _write(tmp_path, "dataflow/stage.py", """\
        from repro.dataflow.helper import merge

        def run(tctx, parts):
            return merge(parts)
    """)
    vs = lint_paths([tmp_path], get_rules(enable=FLOW_RULES))
    assert rule_ids(vs) == ["SIM103"]
    assert vs[0].path.endswith("stage.py")


def test_suppression_comment_silences_flow_rule():
    vs = lint_flow("""\
        import numpy as np

        def gather(tctx, parts):
            out = np.concatenate(parts)  # repro-lint: disable=SIM103
            return out
    """)
    assert vs == []


# ----------------------------------------------------------------------
# no-false-positive sweep over the real package
# ----------------------------------------------------------------------

def test_src_repro_lints_clean():
    violations = lint_paths([REPO / "src" / "repro"])
    assert violations == [], "\n".join(v.format() for v in violations)
