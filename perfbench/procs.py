"""Program processes: start, health, accounting, span dumps, stop.

Every run starts fresh processes, so the process-level shared execution
cache starts empty.  Set-up time runs from ``Popen`` to the first
healthy answer; memory is the sum of ``VmHWM`` (peak resident set) read
from ``/proc/<pid>/status`` over a program's processes, forked workers
included.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from typing import Optional

import common

LAUNCH = os.path.join(common.HERE, "launch.py")

#: Service and cache server both announce their URL this way; forked
#: workers share one stdout pipe, so banners are matched per occurrence.
BANNER = re.compile(r"listening on http://([\w.\-]+):(\d+)")

BOOT_TIMEOUT_S = 60.0


class Program:
    """One launched program process and whatever it forks."""

    def __init__(self, args: list[str], log_path: str, trace_dir: Optional[str] = None):
        command = [sys.executable, LAUNCH]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self.started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command + ["--"] + args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=common.child_env(),
            cwd=common.ROOT,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def await_lines(self, pattern, count: int, timeout: float = BOOT_TIMEOUT_S) -> list:
        """The first ``count`` matches of ``pattern`` in the output."""
        found: list = []
        deadline = time.monotonic() + timeout
        while len(found) < count:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise common.BenchError(f"program said {len(found)}/{count} expected lines") from None
            if line is None:
                raise common.BenchError(f"program exited early (rc={self.proc.wait()})")
            found += pattern.findall(line)
        return found[:count]

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    # ------------------------------------------------------------------
    def pids(self) -> list[int]:
        """This process and its direct children (forked workers)."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    stat = handle.read()
            except OSError:
                continue
            # the command name may contain spaces: fields follow the last ')'
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def dump_spans(self, directory: str, timeout: float = 30.0) -> list[str]:
        """Ask every process for its spans; the written file paths."""
        pids = self.pids()
        for pid in pids:
            os.kill(pid, signal.SIGUSR1)
        paths = [os.path.join(directory, f"spans-{pid}.json") for pid in pids]
        deadline = time.monotonic() + timeout
        while not all(os.path.exists(path) for path in paths):
            if time.monotonic() > deadline:
                raise common.BenchError("program processes did not write their spans")
            time.sleep(0.05)
        return paths

    def stop(self, interrupt: bool = True) -> None:
        """Close stdin and interrupt (the servers' graceful path), then
        kill; wait for every process."""
        children = self.pids()[1:] if self.proc.poll() is None else []
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=20)
        for pid in children:
            _reap(pid)
        self._reader.join(timeout=5)
        self._log.close()


def _reap(pid: int) -> None:
    """Make sure a forked worker is gone (its parent normally waits for it)."""
    deadline = time.monotonic() + 10
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        time.sleep(0.05)
    if os.path.exists(f"/proc/{pid}"):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def healthy(host: str, port: int, timeout: float = 10.0) -> None:
    """One ``GET /healthz``; raises unless it answers 200."""
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise common.BenchError(f"{host}:{port} answered {response.status} to /healthz")
    finally:
        connection.close()
