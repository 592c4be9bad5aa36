"""Static rule fixtures: each rule fires on its target pattern, stays
quiet on the sanctioned alternative, and honors suppression comments."""

import textwrap

import pytest

from repro.lint.engine import LintEngine, lint_paths


def lint(source: str):
    """Lint a source snippet under every rule."""
    return LintEngine().lint_source(textwrap.dedent(source), "fake.py")


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# SIM001 wall clock
# ----------------------------------------------------------------------

def test_sim001_flags_time_time():
    vs = lint("""\
        import time
        def f():
            return time.time()
    """)
    assert rule_ids(vs) == ["SIM001"]
    assert vs[0].line == 3


def test_sim001_flags_from_import_and_datetime_now():
    vs = lint("""\
        from time import perf_counter
        import datetime
        t0 = perf_counter()
        now = datetime.datetime.now()
    """)
    # the from-import itself plus both wall-clock reads
    assert rule_ids(vs) == ["SIM001", "SIM001", "SIM001"]
    assert [v.line for v in vs] == [1, 3, 4]


def test_sim001_allows_simclock_and_sleep_free_time_use():
    vs = lint("""\
        from repro.common.simclock import SimClock
        clock = SimClock()
        t = clock.now_s
    """)
    assert vs == []


# ----------------------------------------------------------------------
# SIM005 closure mutation in RDD lambdas
# ----------------------------------------------------------------------

def test_sim005_flags_lambda_mutating_captured_list():
    vs = lint("""\
        def job(rdd):
            seen = []
            rdd.map(lambda x: seen.append(x))
    """)
    assert rule_ids(vs) == ["SIM005"]


def test_sim005_flags_named_function_with_nonlocal():
    vs = lint("""\
        def job(rdd):
            total = 0
            def bump(x):
                nonlocal total
                total += x
                return x
            return rdd.map(bump)
    """)
    assert "SIM005" in rule_ids(vs)


def test_sim005_flags_inplace_reorder_of_parameter():
    vs = lint("""\
        def job(rdd):
            def scramble(part):
                part.sort()
                return part
            return rdd.map_partitions(scramble)
    """)
    assert "SIM005" in rule_ids(vs)


def test_sim005_flags_shuffle_blocks_closure_mutating_captured_list():
    vs = lint("""\
        def job(rdd, partitioner, bucket):
            sizes = []
            def to_block(it):
                block = bucket(it)
                sizes.append(len(block.lens))
                return block
            return rdd.shuffle_blocks(partitioner, to_block)
    """)
    assert rule_ids(vs) == ["SIM005"]


_TWO_STEPS = {
    "a": """\
        def a(rdd):
            seen = []
            def step(it):
                seen.append(1)
                return it
            return rdd.map_partitions(step)
    """,
    "b": """\
        def b(rdd):
            def step(it):
                return it
            return rdd.map_partitions(step)
    """,
}


@pytest.mark.parametrize("order", ["ab", "ba"])
def test_sim005_resolves_closure_names_per_function(order):
    # A same-named clean `step` elsewhere in the module must not hide the
    # mutating one, whichever function comes first.
    vs = lint("\n".join(textwrap.dedent(_TWO_STEPS[k]) for k in order))
    assert rule_ids(vs) == ["SIM005"]
    assert "seen.append" in vs[0].message


def test_sim005_allows_pure_lambdas():
    vs = lint("""\
        def job(rdd):
            k = 3
            return rdd.map(lambda x: x * k).map_partitions(
                lambda it: [x for x in it if x > 0])
    """)
    assert vs == []


def test_sim005_allows_local_mutation_inside_function():
    vs = lint("""\
        def job(rdd):
            def dedupe(part):
                out = []
                for x in part:
                    out.append(x)
                return out
            return rdd.map_partitions(dedupe)
    """)
    assert vs == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------

def test_line_suppression():
    vs = lint("""\
        import time
        t = time.time()  # repro-lint: disable=SIM001
    """)
    assert vs == []


def test_line_suppression_is_rule_specific():
    vs = lint("""\
        import time
        t = time.time()  # repro-lint: disable=SIM005
    """)
    assert rule_ids(vs) == ["SIM001"]


def test_file_suppression():
    vs = lint("""\
        # repro-lint: disable-file=SIM001
        import time
        a = time.time()
        b = time.monotonic()
    """)
    assert vs == []


def test_file_suppression_multiple_rules():
    vs = lint("""\
        # repro-lint: disable-file=SIM001, SIM005
        import time
        def job(rdd):
            seen = []
            return rdd.map(lambda x: seen.append(time.time()))
    """)
    assert vs == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------

def test_syntax_error_reports_sim000():
    vs = lint("def broken(:\n")
    assert rule_ids(vs) == ["SIM000"]


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "repro" / "ps"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    (pkg / "good.py").write_text("x = 1\n")
    vs = lint_paths([str(tmp_path)])
    assert rule_ids(vs) == ["SIM001"]
