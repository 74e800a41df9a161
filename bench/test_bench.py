"""Tests of the benchmark's own statistics and tracer: python3 -m pytest bench -q"""

import types

import pytest

from stats import beyond, failed_frac, latency_summary, percentile, tail_levels
from tracing import Span, Tracer, covered, layer_totals, self_times


def test_percentile_interpolates_between_ranks():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile(range(11), 90.0) == 9.0
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize("count, levels", [
    (0, []), (99, []), (100, [900]), (999, [900]), (1000, [900, 990]),
    (9999, [900, 990]), (10000, [900, 990, 999]),
])
def test_tail_levels_keep_ten_samples_beyond(count, levels):
    assert tail_levels(count) == levels
    assert all(beyond(count, level) >= 10 for level in levels)


def test_latency_summary_reports_count_with_every_percentile():
    assert latency_summary([]) == {"n": 0}
    assert latency_summary([5.0] * 99) == {"n": 99, "p50": 5.0}
    summary = latency_summary([float(i) for i in range(1000)])
    assert set(summary) == {"n", "p50", "p90", "p99"}
    assert summary["p90"] == percentile(range(1000), 90.0)


def test_failed_frac():
    assert failed_frac(0, 7) == 0.0
    assert failed_frac(7, 7) == 1.0
    assert failed_frac(1, 4) == 0.25
    for failed, attempted in [(0, 0), (-1, 3), (4, 3)]:
        with pytest.raises(ValueError):
            failed_frac(failed, attempted)


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0
    assert covered([(0, 10), (5, 15), (20, 25)]) == 20
    assert covered([(0, 10), (2, 3)]) == 10


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, 0, 0)


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span(1, 0, 100),
        _span(2, 10, 30, parent=1),
        _span(3, 20, 50, parent=1),   # overlaps 2: counted once
        _span(4, 90, 120, parent=1),  # runs past its parent: clipped
        _span(5, 12, 14, parent=2),   # grandchild: only its own parent loses it
    ]
    own = self_times(spans)
    assert own == {1: 100 - 40 - 10, 2: 18, 3: 30, 4: 30, 5: 2}


def test_wrap_records_spans_and_restore_puts_originals_back():
    calls = []

    def inner(n):
        calls.append(n)
        return n * 2

    def outer(n):
        return mod.inner(n) + 1

    mod = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(mod, "outer", "mod.outer", new_group=True)
    tracer.wrap(mod, "inner", "mod.inner", size=lambda args, kwargs: args[0])
    assert mod.outer(3) == 7 and mod.outer(4) == 9
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outers, inners = by_name["mod.outer"], by_name["mod.inner"]
    assert [s.group for s in outers] == [1, 2]
    assert [s.parent for s in inners] == [s.span_id for s in outers]
    totals = layer_totals(tracer.spans)
    assert totals["mod.inner"].calls == 2 and totals["mod.inner"].size == 7
    assert totals["mod.outer"].self_ns == (
        totals["mod.outer"].total_ns - totals["mod.inner"].total_ns)


def test_adopt_renumbers_foreign_spans_under_a_parent():
    tracer = Tracer()
    with tracer.span("session") as root:
        pass
    tracer.adopt([(1, "run", 5, 50, None, 0), (2, "phi", 10, 11, 1, 0)], parent=root, group=9)
    run, phi = tracer.spans[1], tracer.spans[2]
    assert run.parent == root and phi.parent == run.span_id
    assert {run.group, phi.group} == {9}
    assert len({s.span_id for s in tracer.spans}) == 3
