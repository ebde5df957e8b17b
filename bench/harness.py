"""Hermetic process harness: private state directories, timed subprocesses, the server.

Every ``python -m repro`` the benchmark starts gets its own
``REPRO_CACHE_DIR`` and ``REPRO_HISTORY_DIR`` under the run's work
directory (``.bench_work/`` in the checkout), so nothing reads or
writes ``~/.cache/repro-airalo`` and no run sees another's cache.
"""

from __future__ import annotations

import http.client
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: The checkout the benchmark lives in (``bench/`` sits at its root).
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where the program's sources must be.
SRC = ROOT / "src"

#: Fixed program settings: every workload runs at this scale, serially.
SCALE = 0.15
JOBS = 1

#: A subprocess that runs longer than this is killed and counted as failed.
PROCESS_TIMEOUT_S = 150.0

#: SIGTERM-to-exit budget for the server before it is killed.
SHUTDOWN_TIMEOUT_S = 10.0


class HarnessError(RuntimeError):
    """The program could not be started or driven at all."""


def require_program() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'repro'} is missing")


@dataclass
class Proc:
    """One finished subprocess."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    def tail(self) -> str:
        """The last stderr lines, for error messages."""
        return "\n".join(self.stderr.strip().splitlines()[-5:])


class Workspace:
    """The run's private directory under ``.bench_work/``, removed by :meth:`close`."""

    def __init__(self, label: str) -> None:
        self.dir = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._count = 0

    def path(self, name: str) -> pathlib.Path:
        """A fresh, unique path in the work directory (not created)."""
        self._count += 1
        return self.dir / f"{self._count:03d}-{name}"

    def env(
        self, cache: pathlib.Path, src: pathlib.Path = SRC, **extra: str
    ) -> Dict[str, str]:
        env = dict(os.environ)
        for name in ("REPRO_CACHE_DISABLE", "PYTHONDONTWRITEBYTECODE"):
            env.pop(name, None)
        env.update(
            PYTHONPATH=str(src),
            REPRO_CACHE_DIR=str(cache),
            REPRO_HISTORY_DIR=str(self.dir / "history"),
            **extra,
        )
        return env

    def fresh_source(self) -> pathlib.Path:
        """A copy of ``src/repro`` with no bytecode: the next import compiles it."""
        target = self.path("src")
        shutil.copytree(
            SRC / "repro", target / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return target

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def repro_argv(seed: int, *args: str) -> List[str]:
    return [sys.executable, "-m", "repro", "--seed", str(seed), *args]


def compile_sources() -> None:
    """Compile ``src`` once, untimed, so no measured run pays for it by accident."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True, stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S,
    )


def run_timed(
    argv: Sequence[str], env: Dict[str, str], ws: Workspace
) -> Proc:
    """Run ``argv`` to completion; wall time and peak RSS come from ``os.wait4``."""
    out_path, err_path = ws.path("stdout"), ws.path("stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall_s=wall_s,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def http_get(port: int, path: str, timeout_s: float = 5.0) -> Tuple[int, bytes]:
    """One request on a connection of its own, closed before returning."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """``repro serve --port 0`` as a child process.

    The server's "listening on" line is block-buffered on a pipe, so the
    child runs with ``PYTHONUNBUFFERED=1``. :meth:`stop` expects every
    client connection to be closed already: the server joins its
    handler threads on SIGTERM, and a handler idling on a keep-alive
    connection never returns.
    """

    def __init__(self, ws: Workspace, seed: int, cache: pathlib.Path) -> None:
        self._stderr = open(ws.path("server-stderr"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_argv(seed, "serve", "--port", "0", "--scale", f"{SCALE:g}"),
            env=ws.env(cache, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE, stderr=self._stderr, cwd=ROOT, text=True,
        )
        self.port = 0

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        watchdog = threading.Timer(timeout_s, self.proc.kill)  # unblocks readline on a hang
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "http://" not in line:
            self.stop()
            raise HarnessError(f"repro serve did not start (said {line!r})")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            try:
                status, _ = http_get(self.port, "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.started
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise HarnessError("repro serve never became ready")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``: its peak resident set so far."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise HarnessError("VmHWM missing from /proc status")

    def stop(self) -> Tuple[float, bool]:
        """SIGTERM, then SIGKILL after the budget; ``(seconds, exited cleanly)``."""
        started = time.perf_counter()
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                clean = False
        clean = clean and self.proc.returncode == 0
        self.proc.stdout.close()
        self._stderr.close()
        return time.perf_counter() - started, clean
