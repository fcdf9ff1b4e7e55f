"""CPU time and resident-set readings of a process tree, from ``/proc``.

Only the timed phase of a campaign counts.  :func:`tree_cpu` reads the
CPU time the round process and every process it started have used so
far, so the difference of two readings is the CPU of the interval.
:class:`PeakSampler` resets the resident-set high-water mark of every
workload process when the timed phase begins (``clear_refs``; set-up's
float-model evaluation alone would otherwise dominate the peak) and then
samples the high-water marks until it ends.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")


def children(pid: int) -> list[int]:
    """Direct children of ``pid``."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> list[int]:
    found: list[int] = []
    pending = children(pid)
    while pending:
        child = pending.pop()
        found.append(child)
        pending.extend(children(child))
    return found


def forked_children() -> list[int]:
    """Children of this process running its own command line, i.e. forked
    without exec (multiprocessing's ``fork`` workers, not its helpers)."""
    own = Path("/proc/self/cmdline").read_bytes()
    found = []
    for pid in children(os.getpid()):
        try:
            if Path(f"/proc/{pid}/cmdline").read_bytes() == own:
                found.append(pid)
        except OSError:
            continue
    return found


def cpu_seconds(pid: int) -> float | None:
    """User + system CPU seconds ``pid`` has used so far (None once gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2 :].split()
    # fields[0] is the state (field 3 of stat); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu() -> float:
    """User + system CPU seconds of this process, the children it has
    reaped and the descendants still running (or not yet reaped)."""
    t = os.times()
    live = sum(cpu_seconds(pid) or 0.0 for pid in descendants(os.getpid()))
    return t.user + t.system + t.children_user + t.children_system + live


def reset_peak(pid: int) -> None:
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        pass


def peak_mb(pid: int) -> float | None:
    """``VmHWM`` of ``pid`` in MB (None once gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class PeakSampler:
    """The resident-set peak of every workload process in the timed
    intervals between :meth:`begin` and :meth:`end`.

    A thread keeps reading the high-water marks so the peaks of children
    that exit before :meth:`end` are not lost.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self._pid = os.getpid()
        self._peaks: dict[int, float] = {}
        self._stop: threading.Event | None = None
        self._thread: threading.Thread | None = None

    def begin(self) -> None:
        for pid in [self._pid, *descendants(self._pid)]:
            reset_peak(pid)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_loop, daemon=True)
        self._thread.start()

    def _read_peaks(self) -> None:
        for pid in [self._pid, *descendants(self._pid)]:
            value = peak_mb(pid)
            if value is not None and value > self._peaks.get(pid, 0.0):
                self._peaks[pid] = value

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.period):
            self._read_peaks()

    def end(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
            self._read_peaks()

    def peak(self) -> float:
        """The largest peak of any process (0 when nothing was timed)."""
        return max(self._peaks.values(), default=0.0)

    def peaks_of(self, pids) -> list[float]:
        """The peaks of ``pids`` (those sampled at least once)."""
        return [self._peaks[pid] for pid in pids if pid in self._peaks]
