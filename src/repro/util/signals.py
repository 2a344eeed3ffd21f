"""SIGINT handling for the long-running servers.

``repro serve`` and ``repro cache-serve`` stop on ``KeyboardInterrupt``.
A process started with SIGINT ignored (a shell's ``( ... &)``, ``nohup``,
a supervisor that masks it) inherits ``SIG_IGN`` and would never see
one, so the graceful stop — and the cache flush behind it — could only
be reached by a kill.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def interruptible() -> Iterator[None]:
    """SIGINT raises ``KeyboardInterrupt`` inside the block.

    Installs :func:`signal.default_int_handler` whatever handler the
    process inherited, and restores that handler on exit.  Processes
    forked inside the block inherit the default handler too.  Off the
    main thread (tests drive servers in threads) nothing changes:
    Python lets only the main thread set signal handlers.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
