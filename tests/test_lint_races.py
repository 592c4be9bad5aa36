"""Happens-before race detector on hand-built span/access sequences."""

from repro.obs.races import (
    FENCE_BARRIER,
    FENCE_STAGE,
    PsAccess,
    extract_accesses,
    extract_fences,
    find_races,
    happens_before,
)
from repro.obs.tracer import Tracer


def acc(component, op, matrix, start, end, col=None):
    return PsAccess(component, op, matrix, col, start, end)


# ----------------------------------------------------------------------
# happens_before
# ----------------------------------------------------------------------

def test_same_component_program_order():
    a = acc("executor-0", "push", "m", 0.0, 1.0)
    b = acc("executor-0", "pull", "m", 2.0, 3.0)
    assert happens_before(a, b, [])
    assert not happens_before(b, a, [])


def test_cross_component_needs_fence():
    a = acc("executor-0", "set", "m", 0.0, 1.0)
    b = acc("executor-1", "pull", "m", 2.0, 3.0)
    assert not happens_before(a, b, [])
    assert happens_before(a, b, [1.5])


def test_overlapping_windows_never_ordered():
    a = acc("executor-0", "set", "m", 0.0, 2.0)
    b = acc("executor-1", "pull", "m", 1.0, 3.0)
    # a fence "inside" the overlap cannot order overlapping windows
    assert not happens_before(a, b, [1.5])


def test_fence_on_boundary_counts():
    a = acc("executor-0", "set", "m", 0.0, 1.0)
    b = acc("executor-1", "pull", "m", 1.0, 2.0)
    assert happens_before(a, b, [1.0])


# ----------------------------------------------------------------------
# find_races classification
# ----------------------------------------------------------------------

def test_stale_read_detected():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-1", "pull", "m", 0.5, 1.5),
    ], fences=[])
    assert [r.kind for r in races] == ["stale-read"]
    assert races[0].matrix == "m"


def test_lost_update_detected():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-1", "set", "m", 0.5, 1.5),
    ], fences=[])
    assert [r.kind for r in races] == ["lost-update"]


def test_concurrent_pushes_commute():
    races = find_races(accesses=[
        acc("executor-0", "push", "m", 0.0, 1.0),
        acc("executor-1", "push", "m", 0.5, 1.5),
    ], fences=[])
    assert races == []


def test_push_vs_set_is_lost_update():
    races = find_races(accesses=[
        acc("executor-0", "push", "m", 0.0, 1.0),
        acc("executor-1", "set", "m", 0.5, 1.5),
    ], fences=[])
    assert [r.kind for r in races] == ["lost-update"]


def test_concurrent_reads_are_fine():
    races = find_races(accesses=[
        acc("executor-0", "pull", "m", 0.0, 1.0),
        acc("executor-1", "pull", "m", 0.5, 1.5),
    ], fences=[])
    assert races == []


def test_fence_between_removes_race():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-1", "pull", "m", 2.0, 3.0),
    ], fences=[(1.5, FENCE_STAGE)])
    assert races == []


def test_different_matrices_do_not_conflict():
    races = find_races(accesses=[
        acc("executor-0", "set", "m1", 0.0, 1.0),
        acc("executor-1", "pull", "m2", 0.5, 1.5),
    ], fences=[])
    assert races == []


def test_disjoint_columns_do_not_conflict():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0, col=0),
        acc("executor-1", "set", "m", 0.5, 1.5, col=1),
    ], fences=[])
    assert races == []


def test_unscoped_access_conflicts_with_column_scoped():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-1", "set", "m", 0.5, 1.5, col=1),
    ], fences=[])
    assert len(races) == 1


def test_same_component_never_races_with_itself():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-0", "set", "m", 0.5, 1.5),
    ], fences=[])
    assert races == []


def test_dedup_counts_repeated_patterns():
    races = find_races(accesses=[
        acc("executor-0", "set", "m", 0.0, 1.0),
        acc("executor-1", "set", "m", 0.5, 1.5),
        acc("executor-2", "set", "m", 0.6, 1.6),
    ], fences=[])
    assert len(races) == 1
    assert races[0].count == 3  # the three pairwise windows collapse


# ----------------------------------------------------------------------
# span extraction
# ----------------------------------------------------------------------

def _record_ps_span(tracer, component, op, matrix, start, end, col=None):
    tags = {"matrix": matrix}
    if col is not None:
        tags["col"] = col
    tracer.add(component, "tasks", f"ps.{op}", start, end, tags)


def test_extract_accesses_reads_client_spans_only():
    tracer = Tracer()
    _record_ps_span(tracer, "executor-0", "pull", "m", 0.0, 1.0)
    _record_ps_span(tracer, "executor-1", "set", "m", 0.5, 1.5, col=2)
    # server-side ops track and non-PS spans are ignored
    tracer.add("ps-server-0", "ops", "ps.set", 0.5, 1.5, {"matrix": "m"})
    tracer.add("executor-0", "tasks", "shuffle.write", 0.0, 1.0, {})
    accesses = extract_accesses(tracer.spans())
    assert [(a.component, a.op, a.col) for a in accesses] == [
        ("executor-0", "pull", None),
        ("executor-1", "set", 2),
    ]


def test_extract_fences_stage_ends_and_bsp_marks_only():
    tracer = Tracer()
    tracer.add("driver", "stages", "stage", 0.0, 1.0, {"stage": 0})
    tracer.instant("driver", "iterations", "iter", 2.0, {"mode": "bsp"})
    tracer.instant("driver", "iterations", "iter", 3.0, {"mode": "asp"})
    tracer.add("executor-0", "stages", "stage", 0.0, 4.0, {})
    fences = extract_fences(tracer.spans())
    assert fences == [(1.0, FENCE_STAGE), (2.0, FENCE_BARRIER)]


def test_end_to_end_from_spans():
    tracer = Tracer()
    _record_ps_span(tracer, "executor-0", "set", "w", 0.0, 1.0)
    _record_ps_span(tracer, "executor-1", "pull", "w", 0.5, 1.5)
    spans = tracer.spans()
    races = find_races(extract_accesses(spans), extract_fences(spans))
    assert [r.kind for r in races] == ["stale-read"]
    text = races[0].describe()
    assert "stale-read" in text and "`w`" in text
