"""Tests of the benchmark's own helpers (not of the program it measures).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from attribution import attribute, self_times, unexplained_ms
from loadgen import (
    Item,
    Sample,
    error_frac,
    exchange,
    poisson_schedule,
    run_open_loop,
    tail_percentile,
)
from server import Gateway


class _SlowHandler(BaseHTTPRequestHandler):
    """Answers every POST with an ``ok`` envelope after a fixed delay and,
    like a gateway whose forked worker inherited the socket, never closes
    the connection first."""

    protocol_version = "HTTP/1.1"
    delay_s = 0.05

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay_s)
        body = json.dumps({"status": "ok", "store_version": 1, "timings": {"total_ms": 1.0}})
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body.encode())
        self.wfile.flush()
        time.sleep(2.0)  # hold the socket open past the client's patience

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_arrival_schedule_is_deterministic_per_seed():
    first = poisson_schedule(200.0, 500, np.random.default_rng(3))
    again = poisson_schedule(200.0, 500, np.random.default_rng(3))
    other = poisson_schedule(200.0, 500, np.random.default_rng(4))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0)
    assert first[-1] == pytest.approx(500 / 200.0, rel=0.2)


def test_responses_are_framed_by_content_length(slow_server):
    started = time.perf_counter()
    status, body, port, connected = exchange(slow_server, "POST", "/v1/query", b"{}")
    assert status == 200 and json.loads(body)["status"] == "ok"
    assert port > 0 and connected >= started
    # The server holds the socket open for 2 s after answering; reading to
    # EOF would wait that out.
    assert time.perf_counter() - started < 1.0


def test_latency_is_timed_from_the_due_time(slow_server):
    items = [Item(kind="read", family="walk", body=b"{}") for _ in range(4)]
    # All four come due at once; two lanes serve two at a time, so the
    # last pair waits one service time in the generator.
    samples = run_open_loop(slow_server, items, np.zeros(4))
    assert all(sample.ok for sample in samples)
    waited = sorted(samples, key=lambda s: s.sent)[2:]
    for sample in waited:
        round_trip_ms = (sample.done - sample.sent) * 1000.0
        assert sample.latency_ms >= round_trip_ms + 40.0
        assert sample.latency_ms >= 90.0
        # Waiting for a free lane is backlog, not generator lateness.
        assert sample.late_ms < 20.0


def test_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(range(3000))[0] == 0.99
    assert tail_percentile(range(999))[0] == 0.95  # p99 would have 9 beyond
    assert tail_percentile(range(10_000))[0] == 0.999
    assert tail_percentile(range(150))[0] == 0.9
    assert tail_percentile(range(5))[0] == 0.5
    q, value = tail_percentile([float(v) for v in range(1, 3001)])
    assert (q, value) == (0.99, 2970.0)


def test_error_frac_counts_every_status_but_ok():
    statuses = ["ok", "ok", "degraded", "error", "transport", "undecodable"]
    samples = [Sample(kind="read", family="walk", due=0.0, status=s) for s in statuses]
    assert error_frac(samples) == pytest.approx(4 / 6)
    with pytest.raises(ValueError):
        error_frac([])


def test_server_cpu_counts_every_process_of_the_group_but_not_sleep():
    # A group leader that forks a child; each spins ~0.3 s of CPU, then
    # the leader reaps the child and sleeps.
    script = (
        "import os, time\n"
        "def spin():\n"
        "    end = time.process_time() + 0.3\n"
        "    while time.process_time() < end: pass\n"
        "pid = os.fork()\n"
        "spin()\n"
        "if pid == 0: os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print('spun', flush=True)\n"
        "time.sleep(30)\n"
    )
    gateway = Gateway.__new__(Gateway)
    gateway.process = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        assert gateway.process.stdout.readline() == b"spun\n"
        spun = gateway.cpu_s()
        assert spun >= 0.55  # both processes' spin: the reaped child's too
        time.sleep(0.3)
        assert gateway.cpu_s() - spun < 0.05
    finally:
        gateway.process.kill()
        gateway.process.wait()
        gateway.process.stdout.close()


def test_self_times_sum_to_the_window():
    spans = [
        ("gateway.http", 1.0, 9.0),
        ("service.serve", 2.0, 8.0),
        ("worker.wait", 3.0, 7.0),
        ("worker.compute", 4.0, 6.0),
        # Parallel work: charged once, to the deeper layer.
        ("worker.compute", 6.5, 8.5),
    ]
    layers, unattributed = self_times((0.0, 10.0), spans)
    assert layers == pytest.approx(
        {"gateway.http": 1.5, "service.serve": 1.0, "worker.wait": 1.5, "worker.compute": 4.0}
    )
    assert unattributed == pytest.approx(2.0)  # [0, 1) and [9, 10)
    assert sum(layers.values()) + unattributed == pytest.approx(10.0)


def test_traced_layer_sum_is_checked_against_end_to_end():
    sample = Sample(kind="read", family="walk", due=0.0, status="ok",
                    sent=10.0, connected=10.5, done=20.0, port=4242)
    gateway = [
        ("gateway.http", 11.0, 19.0, 4242, None),
        ("protocol.decode", 11.5, 12.0, 4242, None),
        ("gateway.admission", 12.0, 18.0, 4242, None),
        ("service.serve", 12.5, 17.5, None, None),  # untied spans are ignored
        ("worker.submit", 13.0, 13.5, 4242, "WalkRequest(...)"),
        ("gateway.frame", 18.5, 18.6, 4242, None),
    ]
    workers = [("worker.compute", 14.0, 16.0, None, "WalkRequest(...)")]
    lost = Sample(kind="read", family="walk", due=0.0, status="ok",
                  sent=30.0, connected=30.1, done=32.0, port=5151)
    result = attribute([sample, lost], gateway, workers)
    layers = result["layers"]
    assert result["requests"] == 1 and result["unmatched"] == 1
    assert layers["worker.compute"] == pytest.approx(1000.0 * 2.0 / 2)
    assert layers["loadgen.connect"] == pytest.approx(1000.0 * 0.5 / 2)
    assert layers["gateway.accept"] == pytest.approx(1000.0 * 0.5 / 2)
    assert layers["loadgen.receive"] == pytest.approx(1000.0 * 1.4 / 2)
    # Every millisecond is either some layer's or unattributed, and the
    # request the gateway never logged is wholly unattributed.
    assert sum(layers.values()) + result["unattributed_ms"] == pytest.approx(result["window_ms"])
    assert result["unattributed_ms"] == pytest.approx(1000.0 * 2.0 / 2)
    # Work the root span does not hand to a layer is unexplained too:
    # gateway.http self time [11, 11.5) + [18, 18.5) and the accept gap
    # [10.5, 11).
    assert layers["gateway.http"] == pytest.approx(1000.0 * 1.0 / 2)
    assert unexplained_ms(result) == pytest.approx(1000.0 * (2.0 + 1.0 + 0.5) / 2)
