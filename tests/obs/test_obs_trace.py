"""Span tracer: nesting, Chrome-trace schema, SearchResult.trace."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import MicroNN, MicroNNConfig
from repro.obs.trace import Tracer


class TestTracer:
    def test_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        trace = tracer.finish()
        assert [s.name for s in trace.spans] == ["outer"]
        outer = trace.spans[0]
        assert [c.name for c in outer.children] == ["inner"]

    def test_children_within_parent_bounds(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        outer = tracer.finish().spans[0]
        for child in outer.children:
            assert child.start_s >= outer.start_s
            assert (
                child.start_s + child.duration_s
                <= outer.start_s + outer.duration_s + 1e-9
            )
        assert outer.child_duration_s() <= outer.duration_s + 1e-9

    def test_spans_on_other_threads_become_roots(self):
        tracer = Tracer()

        def work() -> None:
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        names = {s.name for s in tracer.finish().spans}
        assert names == {"main", "worker"}

    def test_span_args_and_set(self):
        tracer = Tracer()
        with tracer.span("s", k=10) as span:
            span.set(mode="sq8")
        closed = tracer.finish().spans[0]
        assert dict(closed.args) == {"k": 10, "mode": "sq8"}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        closed = tracer.finish().spans[0]
        assert "ValueError" in dict(closed.args)["error"]

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        ctx = tracer.span("dangling")
        ctx.__enter__()
        trace = tracer.finish()
        assert trace.spans[0].name == "dangling"

    def test_find_walks_depth_first(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        trace = tracer.finish()
        assert trace.find("leaf") is not None
        assert trace.find("absent") is None


class TestChromeTrace:
    def test_schema(self):
        tracer = Tracer()
        with tracer.span("outer", k=3):
            with tracer.span("inner"):
                pass
        payload = tracer.finish().to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "micronn"
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["args"], dict)

    def test_to_json_round_trips(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        payload = json.loads(tracer.finish().to_json())
        assert len(payload["traceEvents"]) == 1


@pytest.fixture
def built_db(rng):
    config = MicroNNConfig(
        dim=16,
        target_cluster_size=20,
        default_nprobe=4,
        attributes={"color": "TEXT"},
    )
    with MicroNN.open(config=config) as db:
        vectors = rng.normal(size=(300, 16)).astype(np.float32)
        db.upsert_batch(
            (f"v-{i:04d}", vectors[i], {"color": "red" if i % 2 else "blue"})
            for i in range(300)
        )
        db.build_index()
        db.refresh_statistics()
        yield db, vectors


class TestSearchTrace:
    def test_untraced_search_has_no_trace(self, built_db):
        db, vectors = built_db
        assert db.search(vectors[0], k=3).trace is None

    def test_ann_trace_structure_and_latency(self, built_db):
        db, vectors = built_db
        result = db.search(vectors[0], k=3, trace=True)
        trace = result.trace
        root = trace.find("search_ann")
        assert root is not None
        child_names = [c.name for c in root.children]
        assert "select_partitions" in child_names
        assert "scan_partitions" in child_names
        assert "finalize" in child_names
        # The acceptance bound: root spans account for the measured
        # query latency to within 10%.
        assert trace.total_s() == pytest.approx(
            result.stats.latency_s, rel=0.10
        )

    def test_exact_trace(self, built_db):
        db, vectors = built_db
        result = db.search(vectors[1], k=3, exact=True, trace=True)
        root = result.trace.find("search_exact")
        assert root is not None
        assert result.trace.find("full_scan") is not None

    def test_filtered_traces_cover_both_plans(self, built_db):
        from repro import Eq, PlanKind

        db, vectors = built_db
        pre = db.search(
            vectors[2],
            k=3,
            filters=Eq("color", "red"),
            plan=PlanKind.PRE_FILTER,
            trace=True,
        )
        assert pre.trace.find("search_prefilter") is not None
        assert pre.trace.find("evaluate_filter") is not None
        post = db.search(
            vectors[2],
            k=3,
            filters=Eq("color", "red"),
            plan=PlanKind.POST_FILTER,
            trace=True,
        )
        # The columnar filter is evaluated partition by partition
        # inside the scan: no span of its own, the scan's says how.
        assert [s.name for s in post.trace.spans] == ["search_ann"]
        assert post.trace.find("evaluate_filter") is None
        scan = post.trace.find("scan_partitions")
        assert dict(scan.args)["filter"] == "columnar(color)"

    def test_sql_fallback_filter_is_inside_the_query_clock(self, rng):
        """A post-filter the scan cannot evaluate (MATCH) runs its SQL
        inside ``search_ann``: one root span, and ``latency_s`` /
        ``bytes_read`` cover it. They used to start after it."""
        from repro import Match, PlanKind

        config = MicroNNConfig(
            dim=16,
            target_cluster_size=50,
            default_nprobe=4,
            attributes={"tags": "TEXT"},
            fts_attributes=("tags",),
        )
        with MicroNN.open(config=config) as db:
            vectors = rng.normal(size=(4000, 16)).astype(np.float32)
            db.upsert_batch(
                (f"v-{i:04d}", vectors[i], {"tags": "cat dog"})
                for i in range(len(vectors))
            )
            db.build_index()
            gaps = []
            for query in vectors[:5]:
                start = time.perf_counter()
                result = db.search(
                    query,
                    k=3,
                    filters=Match("tags", "cat"),
                    plan=PlanKind.POST_FILTER,
                    trace=True,
                )
                wall = time.perf_counter() - start
                gaps.append(abs(wall - result.stats.latency_s) / wall)
                trace = result.trace
                assert [s.name for s in trace.spans] == ["search_ann"]
                children = [c.name for c in trace.spans[0].children]
                assert children[0] == "evaluate_filter"
                assert dict(trace.find("scan_partitions").args)[
                    "filter"
                ] == "sql (Match)"
                assert result.stats.bytes_read > 0
                assert trace.total_s() == pytest.approx(
                    result.stats.latency_s, rel=0.10
                )
            # Best of five: one descheduled call must not fail this.
            assert min(gaps) < 0.10

    def test_chrome_export_of_real_query(self, built_db):
        db, vectors = built_db
        result = db.search(vectors[3], k=3, trace=True)
        events = result.trace.to_chrome_trace()["traceEvents"]
        assert any(e["name"] == "search_ann" for e in events)
        # Spans nest: every child interval sits inside its parent's.
        root = next(e for e in events if e["name"] == "search_ann")
        for event in events:
            if event is root:
                continue
            assert event["ts"] >= root["ts"] - 1e-3
            assert (
                event["ts"] + event["dur"]
                <= root["ts"] + root["dur"] + 1e-3
            )
