"""Process and scratch-directory hygiene for one benchmark run.

A run may start worker processes (the HTTP fleet), the multiprocessing
resource tracker (started by the first ``spawn``), and temporary store
directories. :class:`Cleanup` owns all of them: workloads register a
stop callback for each thing they start, the callbacks run in reverse
order in a ``finally`` (also on SIGINT/SIGTERM, which are turned into
exceptions so the ``finally`` runs), and :meth:`Cleanup.leftovers`
reports anything still alive or on disk afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable


class Interrupted(BaseException):
    """Raised in the main thread when SIGTERM arrives."""


def _raise_interrupted(signum: int, _frame) -> None:
    raise Interrupted(f"signal {signum}")


def install_signal_handlers() -> None:
    """SIGTERM raises :class:`Interrupted`; SIGINT keeps raising
    ``KeyboardInterrupt``. Both unwind through every ``finally``."""
    signal.signal(signal.SIGTERM, _raise_interrupted)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


class Cleanup:
    """Owns everything a run starts; see the module docstring."""

    def __init__(self, scratch_root: Path) -> None:
        self.scratch_root = Path(scratch_root)
        self._callbacks: list[tuple[str, Callable[[], None]]] = []
        self._dirs: list[Path] = []
        #: Every child pid the run recorded (workers, resource tracker).
        self.pids: set[int] = set()

    def temp_dir(self, prefix: str) -> Path:
        """A fresh directory under the scratch root, removed at close."""
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch_root))
        self._dirs.append(path)
        return path

    def on_close(self, what: str, callback: Callable[[], None]) -> None:
        """Run ``callback`` at close (last registered runs first)."""
        self._callbacks.append((what, callback))

    def record_pids(self, pids) -> None:
        self.pids.update(int(pid) for pid in pids if pid is not None)

    def close(self) -> None:
        """Stop everything registered, then remove the scratch dirs.

        Every callback runs even if an earlier one fails; failures are
        printed and surface again through :meth:`leftovers`.
        """
        while self._callbacks:
            what, callback = self._callbacks.pop()
            try:
                callback()
            except Exception:  # noqa: BLE001 - keep stopping the rest
                print(f"cleanup: stopping {what} failed", file=sys.stderr)
                traceback.print_exc()
        self._stop_resource_tracker()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        try:
            self.scratch_root.rmdir()
        except OSError:
            pass

    def _stop_resource_tracker(self) -> None:
        # The first spawn()ed process starts multiprocessing's resource
        # tracker as a child of this process; it would otherwise only
        # exit after we do. Stopping it closes its pipe and reaps it.
        tracker = resource_tracker._resource_tracker
        pid = getattr(tracker, "_pid", None)
        if pid is None:
            return
        self.pids.add(pid)
        stop = getattr(tracker, "_stop", None)
        if stop is not None:
            stop()

    def leftovers(self, wait_s: float = 5.0) -> list[str]:
        """Children still alive and scratch dirs still on disk."""
        deadline = time.monotonic() + wait_s
        while True:
            problems = []
            children = multiprocessing.active_children()
            if children:
                problems.append(f"active children: {children}")
            alive = sorted(pid for pid in self.pids if pid_alive(pid))
            if alive:
                problems.append(f"recorded pids still alive: {alive}")
            remaining = [str(path) for path in self._dirs if path.exists()]
            if remaining:
                problems.append(f"scratch dirs left: {remaining}")
            if not problems or time.monotonic() >= deadline:
                return problems
            time.sleep(0.05)
