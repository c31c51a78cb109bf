"""Process bookkeeping from ``/proc`` (psutil is not a dependency).

Every process a benchmark run starts inherits ``TOKEN_ENV`` with the run's
token, so the run can find, measure and stop all of them, including Ray
processes that outlive their parent.
"""

from __future__ import annotations

import os
import signal
import threading
import time

TOKEN_ENV = "PERFBENCH_RUN_TOKEN"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _pids() -> "list[int]":
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _ppid(pid: int) -> "int | None":
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return None
    # the command name is parenthesised and may hold spaces
    return int(stat[stat.rindex(b")") + 2 :].split()[1])


def descendants(root: int) -> "list[int]":
    """``root`` and every process below it."""
    children: "dict[int, list[int]]" = {}
    for pid in _pids():
        ppid = _ppid(pid)
        if ppid is not None:
            children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def rss_bytes(pids: "list[int]") -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as f:
                total += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def token_pids(token: str) -> "list[int]":
    """Processes (other than this one) whose environment carries ``token``."""
    needle = f"{TOKEN_ENV}={token}".encode()
    me = os.getpid()
    out = []
    for pid in _pids():
        if pid == me:
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    out.append(pid)
        except OSError:
            continue
    return out


def stop(pids: "list[int]", grace_s: float = 5.0) -> "list[int]":
    """SIGTERM, then SIGKILL after ``grace_s``; wait until every pid is gone.
    Returns the pids still alive after the wait (zombies of other parents)."""
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + wait_s
        while True:
            pids = [p for p in pids if _alive(p)]
            if not pids or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not pids:
            break
    return pids


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2 : stat.rindex(b")") + 3] != b"Z"


class RssSampler:
    """Peak summed RSS of this process and all its descendants, sampled on a
    background thread while the ``with`` block runs."""

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.peak = max(self.peak, rss_bytes(descendants(os.getpid())))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
