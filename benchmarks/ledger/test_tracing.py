"""Self time on a synthetic span tree: duration minus covered children."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from . import tracing

#            0         10
# root       [----------]            server
#   decode   [-]                     server      0..1
#   submit     [-------]             concurrent  2..9
#     run       [--]                 transactions 3..5
#     apply        [---]             engine      5..8   (touches run's end)
#       check       [-]              constraints 6..7
#     late              [---]        engine      8.5..12 (outlives its parent)
SPANS = [
    (1, None, 1, "root", "server", 0.0, 10.0),
    (2, 1, 1, "decode", "server", 0.0, 1.0),
    (3, 1, 1, "submit", "concurrent", 2.0, 9.0),
    (4, 3, 1, "run", "transactions", 3.0, 5.0),
    (5, 3, 1, "apply", "engine", 5.0, 8.0),
    (6, 5, 1, "check", "constraints", 6.0, 7.0),
    (7, 3, 1, "late", "engine", 8.5, 12.0),
]


def test_self_time_subtracts_only_the_covered_part():
    selfs = tracing.self_times(SPANS)
    assert selfs[1] == pytest.approx(10 - 1 - 7)  # decode + submit
    assert selfs[2] == pytest.approx(1.0)
    # run + apply cover 3..8, the late child only 8.5..9 of the parent
    assert selfs[3] == pytest.approx(7 - 5 - 0.5)
    assert selfs[5] == pytest.approx(3 - 1)
    assert selfs[7] == pytest.approx(3.5)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        (1, None, 1, "batch", "concurrent", 0.0, 10.0),
        (2, 1, 1, "worker-a", "transactions", 1.0, 6.0),
        (3, 1, 1, "worker-b", "transactions", 4.0, 9.0),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10 - 8)


def test_aggregate_sums_to_the_root_when_children_nest():
    nested = SPANS[:6]
    doc = tracing.aggregate(nested)
    assert sum(doc["by_layer"].values()) == pytest.approx(10.0)
    assert doc["by_layer"]["constraints"] == pytest.approx(1.0)
    assert doc["by_name"]["apply"] == {
        "layer": "engine", "count": 1, "total_s": 3.0, "self_s": 2.0}


def test_spans_nest_across_worker_threads():
    rec = tracing.Recorder()
    rec.propagate_context_to_threads()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            rec.begin_root("request", "server", tracing.now())

            def work():
                return rec.call("inner", "engine", lambda: 42)

            assert rec.call("outer", "concurrent",
                            lambda: pool.submit(work).result(timeout=10)) == 42
            rec.end_root(tracing.now())
    finally:
        rec.uninstall()
    by_name = {span[3]: span for span in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent crosses the thread
    assert by_name["outer"][1] == by_name["request"][0]
    assert {span[2] for span in rec.spans} == {by_name["request"][2]}
    assert ThreadPoolExecutor.submit.__name__ == "submit"  # patch removed


def test_wrap_restores_the_original():
    class Target:
        @staticmethod
        def double(x):
            return 2 * x

    rec = tracing.Recorder()
    rec.wrap(Target, "double", "double", "engine")
    assert Target.double(4) == 8 and len(rec.spans) == 1
    rec.uninstall()
    assert Target.double(4) == 8 and len(rec.spans) == 1
