"""One ``spmm-bench serve --listen`` subprocess with bounded start and stop."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import RunInvalid

#: Seconds a server gets to print its banner after spawning.
START_BOUND_S = 60.0
#: Seconds a server gets to drain and exit after SIGTERM.  Its own drain
#: grace is shorter, so a clean drain always fits; a run that needs longer
#: counts a failure instead of waiting on the client's timeout.
TEARDOWN_BOUND_S = 15.0
DRAIN_GRACE_S = 5.0
#: Seconds an interrupted run waits for its server's drain before SIGKILL.
KILL_GRACE_S = 5.0


def shm_segments() -> int | None:
    """Named shared-memory segments (``psm_*``) on the host, or None."""
    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith("psm_"))
    except OSError:
        return None


class ServerProcess:
    """Spawns the server; with ``inject`` set, through ``inject.py``."""

    def __init__(self, root: Path, backend: str, migration: bool, out_path: Path, inject: str):
        cli = ["serve", "--listen", "127.0.0.1:0", "--backend", backend,
               "--migration" if migration else "--no-migration",
               "--drain-grace", str(DRAIN_GRACE_S), "--out", str(out_path)]
        if inject == "none":
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("inject.py")), inject, *cli]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.out_path = out_path
        self.output: list[str] = []
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        # Its own process group: the process backend's workers are the
        # server's children, and a kill must reach them too.
        self.child = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=root, start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()

    def _drain_stdout(self) -> None:
        for line in self.child.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_port(self) -> int:
        """The bound port, read from the ``serving on HOST:PORT`` banner."""
        deadline = time.perf_counter() + START_BOUND_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RunInvalid(f"server did not start: {''.join(self.output)!r}")
            self.output.append(line)
            if line.startswith("serving on "):
                return int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> bool:
        """SIGTERM and a bounded wait; True when it drained and exited 0.

        A server that outlives the bound, or leaves a worker process
        behind, is killed with its whole group and the stop fails.
        """
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
        try:
            code = self.child.wait(timeout=TEARDOWN_BOUND_S)
        except subprocess.TimeoutExpired:
            if self._group_alive():
                os.killpg(self.child.pid, signal.SIGKILL)
            self.kill()
            return False
        self._reader.join(timeout=5.0)
        deadline = time.perf_counter() + 2.0  # workers exiting just behind it
        while self._group_alive():
            if time.perf_counter() > deadline:
                self.kill()
                return False
            time.sleep(0.05)
        return code == 0

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.child.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def kill(self) -> None:
        """Stop now: SIGTERM and a short wait (the server then unlinks its
        shared memory), then SIGKILL for whatever is left of the group."""
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=KILL_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        if self._group_alive():
            os.killpg(self.child.pid, signal.SIGKILL)
        self.child.wait()
        self._reader.join(timeout=5.0)

    def config(self) -> dict:
        """The server's own ``ServeConfig.describe()`` plus its backend.

        Read from the trajectory the server writes when it drains.
        """
        try:
            return json.loads(self.out_path.read_text()).get("config", {})
        except (OSError, ValueError):
            return {}
