"""SIGINT stops the servers even when the process inherited it ignored.

A shell's ``( ... &)``, ``nohup`` or a supervisor can start ``repro
serve`` / ``repro cache-serve`` with SIGINT set to ``SIG_IGN``.  Both
commands must still take their graceful path on SIGINT: exit 0 within
a few seconds, and leave no forked worker behind.
"""

from __future__ import annotations

import os
import pathlib
import re
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
URL = re.compile(rb"listening on http://([\d.]+):(\d+)")
STOP_WITHIN_S = 5.0


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _spawn(*args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        preexec_fn=_ignore_sigint,
        start_new_session=True,  # one group: cleanup reaches every worker
    )


def _banners(proc: subprocess.Popen, count: int, timeout: float = 60.0) -> list:
    """The (host, port) of the first ``count`` announced listeners.

    Forked workers share the parent's stdout pipe, so banner lines can
    interleave: match the accumulated bytes, not lines.
    """
    seen = b""
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    while len(URL.findall(seen)) < count:
        remaining = deadline - time.monotonic()
        assert remaining > 0 and proc.poll() is None, f"no {count} banners: {seen!r}"
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            seen += os.read(fd, 4096)
    return [(host.decode(), int(port)) for host, port in URL.findall(seen)[:count]]


def _accepts(host: str, port: int) -> bool:
    try:
        with socket.create_connection((host, port), timeout=1.0):
            return True
    except OSError:
        return False


@pytest.mark.parametrize(
    "args, listeners",
    [
        (("cache-serve", "--port", "0"), 1),
        (("serve", "--workers", "2", "--port", "0"), 2),
    ],
    ids=["cache-serve", "serve-2-workers"],
)
def test_sigint_stops_server_started_with_sigint_ignored(tmp_path, args, listeners):
    if args[0] == "cache-serve":
        args = (*args, "--cache-dir", str(tmp_path))  # never ~/.cache
    proc = _spawn(*args)
    try:
        addresses = _banners(proc, listeners)
        assert all(_accepts(*address) for address in addresses)
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=STOP_WITHIN_S)
        except subprocess.TimeoutExpired:
            pytest.fail(f"{args[0]} still running {STOP_WITHIN_S} s after SIGINT")
        assert code == 0, proc.stderr.read().decode(errors="replace")
        # the parent waits for its workers, so none may still listen
        orphans = [address for address in addresses if _accepts(*address)]
        assert orphans == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the server or an orphan
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
