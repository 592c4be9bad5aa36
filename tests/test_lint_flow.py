"""Fixtures for the flow-sensitive rule SIM101.

Each known-bad snippet must produce *exactly one* SIM101 violation; the
negatives pin the sanctioned alternatives, and the sweep at the bottom
asserts the real package lints clean under every rule.
"""

import textwrap
from pathlib import Path

from repro.lint.engine import LintEngine, lint_paths
from repro.lint.rules import RULES

REPO = Path(__file__).resolve().parent.parent


def lint_flow(source: str):
    engine = LintEngine([RULES["SIM101"]])
    return engine.lint_source(textwrap.dedent(source), "fake.py")


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


def test_suppression_comment_silences_flow_rule():
    vs = lint_flow("""\
        def driver(rdd):
            factor = 2
            out = rdd.map(lambda x: x * factor)  # repro-lint: disable=SIM101
            factor = 3
            return out
    """)
    assert vs == []


# ----------------------------------------------------------------------
# no-false-positive sweep over the real package
# ----------------------------------------------------------------------

def test_src_repro_lints_clean():
    violations = lint_paths([REPO / "src" / "repro"])
    assert violations == [], "\n".join(v.format() for v in violations)
