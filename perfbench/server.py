"""Boot, observe and stop the gateway exactly as it is deployed.

The server runs as ``python -m repro.serving.gateway <bundle> --mode
process --workers 1`` (or the benchmark's traced entry point with the
same arguments) in its own process group, so every worker process it
forks can be found — and, if teardown leaves one behind, killed — by
group id.

Teardown sends SIGINT: the gateway turns it into ``KeyboardInterrupt``,
leaves ``asyncio.run`` and closes its service, which shuts the worker
pool down.  SIGTERM would kill the gateway and orphan its process-mode
workers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import TransportError, http_request

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("latin-1")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Gateway:
    """One gateway process (plus its workers) serving ``bundle``."""

    def __init__(
        self,
        checkout: Path,
        bundle: Path,
        log_path: Path,
        *,
        extra_args: list[str] = (),
        entry: list[str] | None = None,
    ) -> None:
        self.checkout = checkout
        self.bundle = bundle
        self.log_path = log_path
        self.peak_rss_kb = 0
        self._peaks: dict[int, int] = {}
        command = entry or ["-m", "repro.serving.gateway"]
        argv = [
            sys.executable,
            *command,
            str(bundle),
            "--mode",
            "process",
            "--workers",
            "1",
            "--port",
            "0",
            *extra_args,
        ]
        child_env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            argv,
            cwd=checkout,
            env=child_env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.port = 0

    def wait_ready(self) -> int:
        """Block until ``/healthz`` answers 200; returns the bound port."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self.port:
            if self.process.poll() is not None:
                raise RuntimeError(f"gateway exited during boot: {self.tail_log()}")
            if time.monotonic() > deadline:
                raise RuntimeError("gateway did not report its port in time")
            for line in self.log_path.read_text(encoding="utf-8", errors="replace").splitlines():
                if '"server.started"' in line:
                    self.port = int(json.loads(line)["port"])
                    break
            else:
                time.sleep(0.01)
        while True:
            try:
                status, _ = http_request(self.port, "GET", "/healthz", timeout=10.0)
            except TransportError:
                status = 0
            if status == 200:
                return self.port
            if time.monotonic() > deadline:
                raise RuntimeError(f"/healthz never answered 200 (last {status})")
            time.sleep(0.01)

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` parsed into ``{series{labels}: value}``."""
        status, body = http_request(self.port, "GET", "/metrics", timeout=30.0)
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return parse_prometheus(body.decode("utf-8"))

    def sample_rss(self) -> None:
        """Record the peak resident set (``VmHWM``) of every live process.

        ``peak_rss_kb`` is the gateway's peak plus the largest worker
        peak: the pool runs one worker, and a generation swap replaces
        it, so the serving tier's footprint is one gateway and one worker.
        """
        for pid in group_pids(self.process.pid):
            self._peaks[pid] = max(self._peaks.get(pid, 0), _status_kb(pid, "VmHWM"))
        gateway = self._peaks.get(self.process.pid, 0)
        workers = [kb for pid, kb in self._peaks.items() if pid != self.process.pid]
        self.peak_rss_kb = gateway + max(workers, default=0)

    def cpu_s(self) -> float:
        """CPU seconds the gateway and its live workers have run so far
        (every thread's ``schedstat`` run time), plus the user + system
        time of the children they reaped.

        The kernel keeps vCPU steal out of these counters, so on a shared
        host they read alike whether or not the hypervisor descheduled
        the server, which wall-clock latency does not.
        """
        total = 0.0
        for pid in group_pids(self.process.pid):
            try:
                with open(f"/proc/{pid}/stat", "rb") as handle:
                    stat = handle.read().decode("latin-1")
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            # cutime and cstime are fields 16 and 17, i.e. 14 and 15 after the command.
            fields = stat[stat.rfind(")") + 2 :].split()
            total += (int(fields[13]) + int(fields[14])) / CLOCK_TICKS
            for tid in tids:
                try:
                    with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="latin-1") as handle:
                        total += int(handle.read().split()[0]) / 1e9
                except OSError:
                    continue
        return total

    def tail_log(self, lines: int = 20) -> str:
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> list[int]:
        """SIGINT the gateway and wait; returns pids that survived it.

        Survivors are killed before returning, so the caller can fail the
        run without leaving processes behind.
        """
        pgid = self.process.pid
        if self.process.poll() is None:
            self.sample_rss()
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        survivors = group_pids(pgid)
        deadline = time.monotonic() + 5.0
        while survivors and time.monotonic() < deadline:
            # Pool shutdown may still be reaping; give it a moment.
            time.sleep(0.05)
            survivors = group_pids(pgid)
        if survivors or self.process.poll() is None:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait(timeout=STOP_TIMEOUT_S)
            for _ in range(100):
                if not group_pids(pgid):
                    break
                time.sleep(0.05)
        self._log.close()
        return survivors


def parse_prometheus(text: str) -> dict[str, float]:
    """Sample lines of a Prometheus text exposition as a flat dict."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out
