"""Static rule fixtures: each rule fires on its target pattern, stays
quiet on the sanctioned alternative, and honors suppression comments."""

import textwrap

import pytest

from repro.lint.engine import LintEngine, lint_paths, module_relpath
from repro.lint.rules import RULES, get_rules


def lint(source: str, relpath: str = "dataflow/fake.py"):
    """Lint a source snippet as if it lived at ``relpath`` in the pkg."""
    engine = LintEngine(get_rules())
    return engine.lint_source(textwrap.dedent(source), relpath, relpath)


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


def test_sim001_exempt_under_common():
    vs = lint("""\
        import time
        t = time.time()
    """, relpath="common/simclock.py")
    assert vs == []


# ----------------------------------------------------------------------
# SIM002 ambient randomness
# ----------------------------------------------------------------------

def test_sim002_flags_import_random():
    vs = lint("""\
        def sample():
            import random
            return random.random()
    """)
    assert "SIM002" in rule_ids(vs)


def test_sim002_flags_np_random_module_functions():
    vs = lint("""\
        import numpy as np
        x = np.random.rand(3)
    """)
    assert rule_ids(vs) == ["SIM002"]


def test_sim002_allows_seeded_generator_api():
    vs = lint("""\
        import numpy as np
        from repro.common.rng import make_rng
        rng = make_rng(7)
        gen = np.random.default_rng(7)
    """)
    assert vs == []


_UNSEEDED_CTORS = """\
    import numpy as np
    from numpy.random import default_rng

    def place(ps, keys):
        rng = np.random.default_rng()
        legacy = np.random.RandomState()
        ps.push(keys, default_rng().random(len(keys)))
"""


def test_sim002_flags_generator_constructed_without_seed():
    vs = lint(_UNSEEDED_CTORS)
    assert rule_ids(vs) == ["SIM002", "SIM002", "SIM002"]
    assert [v.line for v in vs] == [5, 6, 7]
    assert "without a seed" in vs[0].message
    assert lint(_UNSEEDED_CTORS, relpath="common/rng.py") == []


def test_sim002_quiet_on_seeded_generator_forms():
    vs = lint("""\
        import numpy as np

        def place(ps, keys, seed):
            rng = np.random.default_rng(seed)
            legacy = np.random.RandomState(seed=seed)
            seq = np.random.SeedSequence()
            ps.push(keys, rng.random(len(keys)))
    """)
    assert vs == []


@pytest.mark.parametrize("body", [
    """\
        jitter = random.random()
        ps.push(keys, jitter)
    """,
    """\
        raw = random.random()
        scaled = raw * 10.0
        ps.partition_by(scaled)
    """,
    # SIM002 checks sources, not flows: rebinding the name clears nothing
    """\
        jitter = random.random()
        jitter = 0.0
        ps.push(keys, jitter)
    """,
], ids=["into-push", "derived-into-partitioner", "rebound-before-use"])
def test_sim002_flags_ambient_source_whatever_it_feeds(body):
    vs = lint("import random\n\ndef place(ps, keys):\n"
              + textwrap.indent(textwrap.dedent(body), "    "))
    assert rule_ids(vs) == ["SIM002"]
    assert vs[0].line == 1


def test_sim002_exempt_in_rng_shim():
    vs = lint("""\
        import numpy as np
        def make_rng(seed):
            return np.random.default_rng(seed)
    """, relpath="common/rng.py")
    assert vs == []


# ----------------------------------------------------------------------
# SIM003 direct IO inside sim subsystems
# ----------------------------------------------------------------------

def test_sim003_flags_open_and_os_io():
    vs = lint("""\
        import os
        def dump(path, data):
            with open(path, "w") as fh:
                fh.write(data)
            os.remove(path)
    """, relpath="hdfs/filesystem.py")
    assert rule_ids(vs) == ["SIM003", "SIM003"]


def test_sim003_flags_pathlib_and_environ():
    vs = lint("""\
        import os
        import pathlib
        root = pathlib.Path("/tmp")
        home = os.environ["HOME"]
    """, relpath="ps/server.py")
    assert rule_ids(vs) == ["SIM003", "SIM003"]


def test_sim003_ignores_code_outside_sim_subsystems():
    vs = lint("""\
        def read(path):
            with open(path) as fh:
                return fh.read()
    """, relpath="experiments/report.py")
    assert vs == []


def test_sim003_exempt_paths():
    src = """\
        def export(path, payload):
            with open(path, "w") as fh:
                fh.write(payload)
    """
    assert lint(src, relpath="obs/export.py") == []
    assert lint(src, relpath="cli.py") == []


# ----------------------------------------------------------------------
# SIM004 unordered iteration
# ----------------------------------------------------------------------

def test_sim004_flags_set_iteration():
    vs = lint("""\
        def partition(keys):
            out = []
            for k in set(keys):
                out.append(k)
            return out
    """)
    assert rule_ids(vs) == ["SIM004"]


def test_sim004_flags_set_literal_in_comprehension_and_list():
    vs = lint("""\
        pairs = [(k, 1) for k in {"a", "b"}]
        ordered = list({1, 2, 3})
    """)
    assert rule_ids(vs) == ["SIM004", "SIM004"]


def test_sim004_allows_sorted_and_order_insensitive_consumers():
    vs = lint("""\
        def stable(keys):
            n = len(set(keys))
            for k in sorted(set(keys)):
                yield k, n
    """)
    assert vs == []


def test_sim004_only_in_sim_subsystems():
    vs = lint("""\
        for k in {1, 2}:
            print(k)
    """, relpath="datasets/generators.py")
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


def test_sim005_allows_pure_lambdas():
    vs = lint("""\
        def job(rdd):
            k = 3
            return rdd.map(lambda x: x * k).filter(lambda x: x > 0)
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
        t = time.time()  # repro-lint: disable=SIM002
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
        # repro-lint: disable-file=SIM001, SIM004
        import time
        t = time.time()
        for k in {1, 2}:
            pass
    """)
    assert vs == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------

def test_syntax_error_reports_sim000():
    vs = lint("def broken(:\n")
    assert rule_ids(vs) == ["SIM000"]


def test_unknown_rule_raises():
    with pytest.raises(KeyError):
        get_rules(enable=["SIM999"])


def test_disable_filters_ruleset():
    rules = get_rules(disable=["SIM005"])
    assert "SIM005" not in {r.id for r in rules}
    assert len(rules) == len(RULES) - 1


def test_module_relpath_finds_package_root(tmp_path):
    p = tmp_path / "src" / "repro" / "dataflow" / "rdd.py"
    assert module_relpath(p, tmp_path) == "dataflow/rdd.py"


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "repro" / "ps"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    (pkg / "good.py").write_text("x = 1\n")
    vs = lint_paths([str(tmp_path)], get_rules())
    assert rule_ids(vs) == ["SIM001"]
