"""MicroBatcher: coalescing, flush triggers, error propagation."""

import pytest

from repro.serving.batcher import MicroBatcher


class RecordingFlush:
    """A flush_fn that records every batch it receives."""

    def __init__(self, fail: bool = False, short: bool = False) -> None:
        self.batches: list[list[str]] = []
        self.fail = fail
        self.short = short

    def __call__(self, texts: list[str]) -> list[str]:
        self.batches.append(list(texts))
        if self.fail:
            raise RuntimeError("downstream exploded")
        results = [f"linked:{text}" for text in texts]
        return results[:-1] if self.short else results


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def submit_all(batcher: MicroBatcher, texts: list[str]) -> list:
    """Submit ``texts``, drain the tail with :meth:`MicroBatcher.flush`
    (as the serving facade does) and return the results in order."""
    futures = [batcher.submit(text) for text in texts]
    batcher.flush()
    return [future.result() for future in futures]


class TestCoalescing:
    def test_size_threshold_flushes(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=3, max_delay_s=10.0)
        futures = [batcher.submit(f"t{i}") for i in range(3)]
        # Third submit crossed the size threshold: one downstream call.
        assert flush.batches == [["t0", "t1", "t2"]]
        assert [f.result() for f in futures] == ["linked:t0", "linked:t1", "linked:t2"]
        assert batcher.pending == 0

    def test_partial_batch_waits_for_flush(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=10, max_delay_s=10.0)
        future = batcher.submit("only")
        assert flush.batches == []
        assert batcher.pending == 1
        assert batcher.flush() == 1
        assert future.result() == "linked:only"

    def test_annotate_many_chunks_at_batch_size(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=4, max_delay_s=10.0)
        results = submit_all(batcher, [f"t{i}" for i in range(10)])
        assert results == [f"linked:t{i}" for i in range(10)]
        assert [len(batch) for batch in flush.batches] == [4, 4, 2]

    def test_flush_on_empty_queue_is_noop(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush)
        assert batcher.flush() == 0
        assert flush.batches == []


class TestDeadline:
    def test_stale_backlog_flushes_before_new_submit(self):
        flush = RecordingFlush()
        clock = FakeClock()
        batcher = MicroBatcher(flush, max_batch=100, max_delay_s=0.01, clock=clock)
        first = batcher.submit("old")
        clock.now = 0.02  # beyond the delay threshold
        batcher.submit("new")
        # The stale backlog flushed on its own; the new text starts a batch.
        assert flush.batches == [["old"]]
        assert first.result() == "linked:old"
        assert batcher.pending == 1

    def test_fresh_backlog_keeps_coalescing(self):
        flush = RecordingFlush()
        clock = FakeClock()
        batcher = MicroBatcher(flush, max_batch=100, max_delay_s=0.01, clock=clock)
        batcher.submit("a")
        clock.now = 0.005  # within the window
        batcher.submit("b")
        assert flush.batches == []
        batcher.flush()
        assert flush.batches == [["a", "b"]]


class TestErrors:
    def test_downstream_error_reaches_every_waiter(self):
        batcher = MicroBatcher(RecordingFlush(fail=True), max_batch=2)
        f1 = batcher.submit("a")
        f2 = batcher.submit("b")
        with pytest.raises(RuntimeError, match="downstream exploded"):
            f1.result()
        with pytest.raises(RuntimeError, match="downstream exploded"):
            f2.result()
        # The batcher stays usable after a failed flush.
        assert batcher.pending == 0

    def test_result_count_mismatch_is_an_error(self):
        batcher = MicroBatcher(RecordingFlush(short=True), max_batch=2)
        f1 = batcher.submit("a")
        f2 = batcher.submit("b")
        with pytest.raises(RuntimeError, match="results for"):
            f1.result()
        with pytest.raises(RuntimeError, match="results for"):
            f2.result()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingFlush(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(RecordingFlush(), max_delay_s=-1.0)


class TestMetrics:
    def test_counters(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=2, max_delay_s=10.0)
        submit_all(batcher, ["a", "b", "c"])
        counters = batcher.metrics.counters
        assert counters["batcher.submitted"] == 3
        assert counters["batcher.flushes"] == 2
        assert counters["batcher.size_flushes"] == 1

    def test_flush_latency_histogram(self):
        flush = RecordingFlush()
        batcher = MicroBatcher(flush, max_batch=2, max_delay_s=10.0)
        submit_all(batcher, ["a", "b", "c"])
        histogram = batcher.metrics.histograms["batcher.flush_latency"]
        assert histogram.count == 2  # one full batch + the drained tail
        assert histogram.max >= 0.0
