"""Server processes the benchmark starts, and what ``/proc`` says of them.

A :class:`ServerProcess` is one cold server: spawned, timed until its
first ok ``ping``, measured (CPU and peak memory of the server plus its
pool workers), then stopped with SIGTERM and waited for. Shared-memory
segments a server left behind are unlinked and counted, so no run leaves
``/dev/shm/repro-shm-*`` residue.

:func:`adopt_orphans` makes the benchmark the reaper of everything it
starts, grandchildren included (a server's resource tracker outlives the
server by a moment), and :func:`stop_children` ends and reaps whatever
is still there when the benchmark is done.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm-"


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def cpu_s(pids) -> float:
    """User plus system CPU seconds of ``pids`` (live processes only)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def hwm_mib(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def shm_segments(pids=None) -> list[str]:
    """``repro-shm-*`` segment names, optionally only those of ``pids``."""
    try:
        names = [n for n in os.listdir(_SHM_DIR) if n.startswith(SHM_PREFIX)]
    except OSError:
        return []
    if pids is None:
        return sorted(names)
    owners = {f"{SHM_PREFIX}{p}-" for p in pids}
    return sorted(n for n in names if any(n.startswith(o) for o in owners))


def _kill_all(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _wait_gone(pids, timeout_s: float) -> bool:
    """Wait until none of ``pids`` is alive; ``False`` on timeout."""
    deadline = time.monotonic() + timeout_s
    while any(map(_alive, pids)):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _reap(pids) -> None:
    """Collect the exit status of those of ``pids`` that are our
    children (orphans reparent to us after :func:`adopt_orphans`)."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def adopt_orphans() -> None:
    """Become the child subreaper (Linux ``prctl``), so a descendant whose
    parent exits is reparented to this process, to be waited for here."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    The in-process process pool of a traced run publishes shared memory,
    which starts multiprocessing's resource tracker: a child that would
    otherwise outlive the benchmark by however long it takes to notice
    its parent is gone."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    rest = descendants(os.getpid())[1:]
    if not _wait_gone(rest, 5.0):
        _kill_all(rest)
        _wait_gone(rest, 10.0)
    _reap(rest)


class ServerProcess:
    """One spawned server, from cold start to reaped exit."""

    def __init__(self, argv: list[str], *, root: Path, work: Path, tag: str) -> None:
        self.port_file = work / f"{tag}.port"
        self.log_file = work / f"{tag}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.port_file.unlink(missing_ok=True)
        self._log = open(self.log_file, "wb")
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "--port-file", str(self.port_file)],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.port = 0
        self._pids: list[int] = []
        self.leaked_segments = 0

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Seconds from spawn to the first ok ``ping``."""
        from repro.serve.client import ServeClient

        deadline = self.started_at + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log_file.read_text(errors='replace')[-2000:]}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server not ready within {timeout_s}s")
            try:
                self.port = int(self.port_file.read_text())
            except (OSError, ValueError):
                time.sleep(0.002)
                continue
            with ServeClient("127.0.0.1", self.port) as client:
                if client.ping():
                    return time.perf_counter() - self.started_at

    def pids(self) -> list[int]:
        """The server and its pool workers (remembered, so exited
        processes can still be audited for segments)."""
        live = descendants(self.proc.pid)
        self._pids = sorted(set(self._pids) | set(live))
        return live

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, SIGKILL as a last resort; then
        unlink any segment the server's processes left behind."""
        self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                _kill_all(descendants(self.proc.pid))
                self.proc.wait(timeout=30)
        self._log.close()
        # Pool workers are reaped by the server, and its resource tracker
        # exits once the server is gone; wait for both, then kill.
        if not _wait_gone(self._pids, 10.0):
            _kill_all(p for p in self._pids if _alive(p))
            _wait_gone(self._pids, 10.0)
        _reap(self._pids)
        for name in shm_segments(self._pids or [self.proc.pid]):
            self.leaked_segments += 1
            try:
                (_SHM_DIR / name).unlink()
            except OSError:
                pass
