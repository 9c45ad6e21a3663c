"""Span tracer: nesting, self time and counts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, aggregate, is_time  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [["a.f", 0.0, 10.0, -1, None, True, True],
             ["b.g", 2.0, 5.0, 0, None, True, True],
             ["b.h", 3.0, 4.0, 1, None, True, False],
             ["a.f", 6.0, 7.0, 0, None, False, False]]
    table = aggregate(spans)
    assert table["a.f"] == {"calls": 2, "s": 10.0, "self_s": 7.0}
    assert table["b.g"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert table["b.*"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert table["a.*"] == {"calls": 2, "s": 10.0, "self_s": 7.0}


def test_wrapper_records_nested_spans_only_when_enabled():
    tracer = Tracer()

    def inner(x):
        return x + 1

    def after(tr, args, result):
        tr.counts["seen"] += result

    inner_w = tracer.wrap("m.inner", inner, after=after)

    def outer(x):
        return inner_w(x) * 2

    outer_w = tracer.wrap("m.outer", outer)
    assert outer_w(1) == 4 and tracer.spans == []
    tracer.enabled = True
    assert outer_w(1) == 4
    names = [(s[0], s[3], s[5], s[6]) for s in tracer.spans]
    assert names == [("m.outer", -1, True, True), ("m.inner", 0, True, False)]
    assert tracer.counts["seen"] == 2
    start, end = tracer.spans[1][1:3]
    assert tracer.spans[0][1] <= start <= end <= tracer.spans[0][2]


def test_units_split_times_from_counts():
    assert is_time("newton.solve_newton.s") and is_time("cli.self_s")
    assert is_time("newton.s_per_iter")
    assert not is_time("linalg.factor.calls")
    assert not is_time("report.emit.bytes_out")


def test_layer_metrics_are_the_declared_per_layer_metrics():
    import json
    from tracer import layer_metrics
    declared = json.loads((Path(__file__).resolve().parents[2]
                           / "BENCHMARK.json").read_text())["per_layer"]
    names = set(layer_metrics([], {"caseio.bytes_in": 0,
                                   "newton.iterations": 0,
                                   "report.emit.bytes_out": 0}))
    assert names | {"trace.overhead_s"} == {m["name"] for m in declared}
