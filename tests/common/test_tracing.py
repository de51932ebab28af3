"""Tracer unit tests: arming, span trees, assembly, bounding, adoption."""

import os
import pickle
import threading

import pytest

from repro.common import tracing
from repro.common.tracing import TraceContext, Tracer


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with tracing disarmed and no current span."""
    tracing.disarm()
    tracing._CURRENT.set(None)
    yield
    tracing.disarm()
    tracing._CURRENT.set(None)


class TestArming:
    def test_disarmed_span_is_shared_noop(self):
        first = tracing.span("anything", key="value")
        second = tracing.span("else")
        assert first is second
        assert not first.recording
        assert first.context() is None
        # All hooks are safe no-ops while disarmed.
        with first as sp:
            sp.set_attribute("ignored", 1)
            sp.add_event("ignored")
        tracing.event("ignored")
        assert tracing.current_span() is None
        assert tracing.current_context() is None

    def test_arm_disarm_roundtrip(self):
        tracer = tracing.arm(Tracer())
        assert tracing.active() is tracer
        real = tracing.span("real")
        assert real.recording
        real.finish()
        tracing.disarm()
        assert tracing.active() is None
        assert not tracing.span("gone").recording

    def test_armed_context_manager_restores_previous(self):
        outer = tracing.arm(Tracer())
        with tracing.armed() as inner:
            assert tracing.active() is inner
            assert inner is not outer
        assert tracing.active() is outer

    def test_disarmed_events_do_not_allocate(self):
        with tracing.armed() as tracer:
            with tracing.span("root"):
                pass
        assert tracer.spans_started == 1


class TestSpanTree:
    def test_root_then_children_assemble_one_trace(self):
        with tracing.armed() as tracer:
            with tracing.span("root") as root:
                with tracing.span("child") as child:
                    with tracing.span("grandchild") as grand:
                        pass
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            assert grand.parent_id == child.span_id
            [trace] = tracer.recent()
        assert trace["root"] == "root"
        assert trace["span_count"] == 3
        # Spans are sorted by start; root started first.
        assert trace["spans"][0]["name"] == "root"
        assert trace["spans"][0]["parent_id"] is None

    def test_current_span_follows_nesting(self):
        with tracing.armed():
            assert tracing.current_span() is None
            with tracing.span("a") as a:
                assert tracing.current_span() is a
                with tracing.span("b") as b:
                    assert tracing.current_span() is b
                assert tracing.current_span() is a
            assert tracing.current_span() is None

    def test_exception_sets_error_attribute_and_finishes(self):
        with tracing.armed() as tracer:
            with pytest.raises(RuntimeError):
                with tracing.span("boom"):
                    raise RuntimeError("no")
            [trace] = tracer.recent()
        assert trace["spans"][0]["attributes"]["error"] == "RuntimeError"

    def test_events_attach_to_current_span(self):
        with tracing.armed() as tracer:
            with tracing.span("root"):
                tracing.event("retry", attempt=2)
            [trace] = tracer.recent()
        [event] = trace["spans"][0]["events"]
        assert event["name"] == "retry"
        assert event["attempt"] == 2
        assert event["at_ms"] >= 0.0

    def test_finish_is_idempotent(self):
        with tracing.armed() as tracer:
            sp = tracing.span("once")
            sp.finish()
            sp.finish()
            assert tracer.spans_finished == 1

    def test_exclusive_ms_is_wall_minus_direct_children(self):
        with tracing.armed() as tracer:
            with tracing.span("root"):
                with tracing.span("child"):
                    pass
            [trace] = tracer.recent()
        by_name = {record["name"]: record for record in trace["spans"]}
        root, child = by_name["root"], by_name["child"]
        assert root["exclusive_ms"] == pytest.approx(
            max(0.0, root["wall_ms"] - child["wall_ms"])
        )
        assert child["exclusive_ms"] == pytest.approx(child["wall_ms"])

    def test_using_activates_without_nesting(self):
        with tracing.armed() as tracer:
            with tracing.span("root") as root:
                shard_a = tracer.start_span("shard", activate=False)
                shard_b = tracer.start_span("shard", activate=False)
                # Both parent under root, not under each other.
                assert shard_a.parent_id == root.span_id
                assert shard_b.parent_id == root.span_id
                with tracing.using(shard_a):
                    assert tracing.current_span() is shard_a
                    with tracing.span("inner") as inner:
                        assert inner.parent_id == shard_a.span_id
                assert tracing.current_span() is root
                shard_a.finish()
                shard_b.finish()
            [trace] = tracer.recent()
        assert trace["span_count"] == 4


class TestContextPropagation:
    def test_context_is_frozen_and_picklable(self):
        ctx = TraceContext("t-1", "s-1")
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        with pytest.raises(AttributeError):
            ctx.trace_id = "other"

    def test_wire_roundtrip(self):
        ctx = TraceContext("t-1", "s-1")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize(
        "raw",
        [None, "nope", 7, [], {}, {"trace_id": "t"}, {"trace_id": "", "span_id": "s"},
         {"trace_id": 3, "span_id": "s"}],
    )
    def test_malformed_wire_context_is_none(self, raw):
        assert TraceContext.from_wire(raw) is None

    def test_seeded_context_parents_new_spans(self):
        with tracing.armed():
            ctx = TraceContext("trace-x", "span-x")
            with tracing.seeded(ctx):
                assert tracing.current_context() == ctx
                with tracing.span("child") as child:
                    assert child.trace_id == "trace-x"
                    assert child.parent_id == "span-x"
                    assert not child.root
            assert tracing.current_context() is None

    def test_seeded_none_is_a_noop(self):
        with tracing.armed():
            with tracing.seeded(None):
                assert tracing.current_context() is None

    def test_current_context_from_live_span(self):
        with tracing.armed():
            with tracing.span("root") as root:
                ctx = tracing.current_context()
        assert ctx == TraceContext(root.trace_id, root.span_id)

    def test_span_ids_are_pid_prefixed(self):
        with tracing.armed():
            with tracing.span("root") as root:
                assert root.span_id.startswith(f"{os.getpid():x}-")
                assert root.pid == os.getpid()


class TestBounding:
    def test_recent_ring_is_bounded_newest_first(self):
        with tracing.armed(Tracer(ring_capacity=3)) as tracer:
            for i in range(5):
                with tracing.span("root", i=i):
                    pass
            recent = tracer.recent()
        assert len(recent) == 3
        assert [t["spans"][0]["attributes"]["i"] for t in recent] == [4, 3, 2]

    def test_slowest_keeps_the_slow_ones(self):
        tracer = Tracer(slow_capacity=2)
        with tracing.armed(tracer):
            for wall in (5.0, 1.0, 9.0, 3.0):
                sp = tracer.start_span("root", activate=False)
                sp._finished = True  # freeze wall_ms deterministically
                sp.wall_ms = wall
                tracer._record(sp)
        slowest = tracer.slowest()
        assert [t["duration_ms"] for t in slowest] == [9.0, 5.0]

    def test_live_traces_bounded_with_drop_counter(self):
        tracer = Tracer(max_live=2)
        with tracing.armed(tracer):
            for _ in range(4):
                # Children without a finishing root stay live.
                sp = tracer.start_span("orphan", parent=TraceContext(f"t{_}", "s"))
                sp.finish()
        assert tracer.counters()["traces_live"] == 2
        assert tracer.counters()["traces_dropped"] == 2

    def test_spans_per_trace_bounded(self):
        tracer = Tracer(max_spans=3)
        with tracing.armed(tracer):
            ctx = TraceContext("big", "root")
            for _ in range(5):
                tracer.start_span("leaf", parent=ctx, activate=False).finish()
        assert tracer.counters()["spans_dropped"] == 2

    def test_find_by_trace_id(self):
        with tracing.armed() as tracer:
            with tracing.span("root") as root:
                pass
            assert tracer.find(root.trace_id)["trace_id"] == root.trace_id
            assert tracer.find("missing") is None


class TestSampling:
    def test_default_traces_every_request(self):
        with tracing.armed(Tracer()) as tracer:
            for _ in range(5):
                with tracing.span("serve.request"):
                    pass
        assert tracer.counters()["traces_completed"] == 5
        assert tracer.counters()["traces_sampled_out"] == 0

    def test_one_in_n_roots_recorded_deterministically(self):
        with tracing.armed(Tracer(sample_every=4)) as tracer:
            sampled = []
            for index in range(8):
                with tracing.span("serve.request") as root:
                    with tracing.span("serve.compute") as child:
                        pass
                    if root.recording:
                        sampled.append(index)
                        assert child.recording
                    else:
                        # The whole subtree of an unsampled root is the
                        # shared no-op span.
                        assert child is tracing._NOOP
        # Counter-based head sampling: the first root and every 4th after.
        assert sampled == [0, 4]
        counters = tracer.counters()
        assert counters["traces_completed"] == 2
        assert counters["traces_sampled_out"] == 6
        # Only sampled requests open real spans (2 roots + 2 children).
        assert counters["spans_started"] == 4
        assert counters["traces_live"] == 0

    def test_suppressed_root_restores_context(self):
        with tracing.armed(Tracer(sample_every=2)):
            with tracing.span("sampled"):
                pass
            with tracing.span("unsampled") as root:
                assert not root.recording
                assert tracing.current_span() is None
                assert tracing.current_context() is None
                tracing.event("ignored")  # must not raise or allocate
            assert tracing._CURRENT.get() is None

    def test_remote_parent_bypasses_sampling(self):
        # An upstream tracer already decided to sample this trace; the
        # local tracer must record its part regardless of its own rate.
        with tracing.armed(Tracer(sample_every=1000)) as tracer:
            context = TraceContext(trace_id="t-remote", span_id="s-parent")
            with tracing.seeded(context):
                with tracing.span("worker.execute") as sp:
                    assert sp.recording
                    assert sp.trace_id == "t-remote"
        assert tracer.counters()["spans_started"] == 1
        assert tracer.counters()["traces_sampled_out"] == 0

    def test_sampled_out_response_carries_no_trace_id(self):
        with tracing.armed(Tracer(sample_every=2)):
            first = tracing.span("serve.request")
            first.finish()
            second = tracing.span("serve.request")
            assert first.recording and first.trace_id
            assert not second.recording and second.trace_id == ""
            second.finish()


class TestCollectorAndAdoption:
    def test_collector_drains_records(self):
        collector = Tracer(ring_capacity=0)
        with tracing.armed(collector):
            with tracing.seeded(TraceContext("t-1", "s-1")):
                with tracing.span("worker.execute"):
                    pass
        records = collector.drain()
        assert len(records) == 1
        assert records[0]["trace_id"] == "t-1"
        assert records[0]["parent_id"] == "s-1"
        assert collector.drain() == []  # drained once, cleared

    def test_adopt_folds_records_into_live_trace(self):
        with tracing.armed() as tracer:
            with tracing.span("root") as root:
                tracer.adopt(
                    [
                        {
                            "trace_id": root.trace_id,
                            "span_id": "child-1",
                            "parent_id": root.span_id,
                            "name": "worker.execute",
                            "pid": 99999,
                            "start_unix_s": root.start_unix_s,
                            "wall_ms": 0.5,
                            "attributes": {},
                            "events": [],
                        }
                    ]
                )
            [trace] = tracer.recent()
        assert trace["span_count"] == 2
        names = {record["name"] for record in trace["spans"]}
        assert names == {"root", "worker.execute"}
        assert tracer.counters()["spans_adopted"] == 1

    def test_straggler_records_for_completed_trace_dropped(self):
        with tracing.armed() as tracer:
            with tracing.span("root") as root:
                pass
            tracer.adopt(
                [{"trace_id": root.trace_id, "span_id": "late", "parent_id": root.span_id}]
            )
        assert tracer.counters()["spans_adopted"] == 0
        assert tracer.counters()["spans_dropped"] == 1
        [trace] = tracer.recent()
        assert trace["span_count"] == 1  # assembled trace is immutable

    def test_threaded_span_recording_is_consistent(self):
        tracer = Tracer(ring_capacity=256)
        with tracing.armed(tracer):
            def worker():
                for _ in range(50):
                    with tracing.span("root"):
                        with tracing.span("child"):
                            pass

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        counters = tracer.counters()
        assert counters["traces_completed"] == 200
        assert counters["spans_finished"] == 400
        assert counters["traces_live"] == 0
