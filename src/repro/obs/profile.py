"""A sampling wall-clock profiler (collapsed-stack flamegraph output).

``SamplingProfiler`` runs a ticker thread that snapshots every live
thread's Python stack via ``sys._current_frames()`` at a fixed
interval, aggregating identical stacks into counts. The output is the
collapsed-stack format flamegraph tooling standardizes on — one line
per distinct stack, root first, semicolon-separated frames, a space,
and the sample count::

    MainThread;repro.core.runner:run_all;repro.experiments.fig3:compute 412

Wall-clock sampling (py-spy style, in-process): a sample lands
wherever a thread *is*, so blocking I/O and lock waits show up — this
is the profile of the live daemon, not of CPU alone. Overhead is one
``sys._current_frames()`` walk per interval regardless of load, so
the default 10 ms cadence costs well under 1% of a busy process.

Attach points: ``repro profile [--out FILE] -- <subcommand>`` (CLI,
``run-all`` included) and ``GET /profile?seconds=N`` against the live
server (on-demand, serialized by the server).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

#: Default sampling cadence: 10 ms = 100 Hz.
DEFAULT_INTERVAL_S = 0.010

#: Frames deeper than this are truncated (defensive; recursive code).
MAX_STACK_DEPTH = 128


def _frame_label(frame: Any) -> str:
    """One collapsed-stack frame: ``module:qualname``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{name}"


class SamplingProfiler:
    """Samples all threads' stacks on a fixed wall-clock cadence."""

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if not interval_s > 0:  # also refuses NaN
            raise ValueError(f"interval_s must be positive, got {interval_s:g}")
        self.interval_s = interval_s
        self.samples = 0
        self.started_unix = 0.0
        self.wall_s = 0.0
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler is already running")
        self.started_unix = time.time()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.stop()
        return False

    def run_for(
        self,
        seconds: float,
        abort: Optional[threading.Event] = None,
    ) -> "SamplingProfiler":
        """Profile for ``seconds`` (blocking), early-out on ``abort``.

        The ``/profile`` endpoint uses the abort event so an in-flight
        profile never delays a server shutdown by more than one tick.
        """
        self.start()
        deadline = time.monotonic() + seconds
        try:
            while time.monotonic() < deadline:
                if abort is not None and abort.is_set():
                    break
                time.sleep(min(0.05, self.interval_s))
        finally:
            self.stop()
        return self

    # -- the ticker -----------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        started = time.perf_counter()
        while not self._stop.is_set():
            names = {
                thread.ident: thread.name
                for thread in threading.enumerate()
            }
            frames = sys._current_frames()
            stacks: List[Tuple[str, ...]] = []
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < MAX_STACK_DEPTH:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                stack.append(names.get(ident, f"thread-{ident}"))
                stacks.append(tuple(reversed(stack)))
            with self._lock:
                self.samples += 1
                for stack in stacks:
                    self._counts[stack] = self._counts.get(stack, 0) + 1
            self._stop.wait(self.interval_s)
        self.wall_s += time.perf_counter() - started

    # -- output ---------------------------------------------------------------

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """``stack tuple -> sample count`` (root-first, thread name first)."""
        with self._lock:
            return dict(self._counts)

    def collapsed(self) -> str:
        """The collapsed-stack text: ``frame;frame;... count`` lines.

        Lines sort by descending count then stack text, so the hottest
        stack is the first line and output is deterministic for a
        given set of counts.
        """
        rows = sorted(
            self.stacks().items(), key=lambda item: (-item[1], item[0])
        )
        return "\n".join(
            ";".join(stack) + f" {count}" for stack, count in rows
        ) + ("\n" if rows else "")

    def write(self, path: Union[str, Any]) -> str:
        """Write the collapsed stacks to ``path`` atomically; returns the path."""
        from repro.core.cache import atomic_write

        text = self.collapsed()
        atomic_write(path, lambda handle: handle.write(text), mode="w")
        return str(path)

    def summary(self, top: int = 10) -> str:
        """A terminal-friendly digest: hottest stacks with percentages."""
        rows = sorted(
            self.stacks().items(), key=lambda item: (-item[1], item[0])
        )
        total = sum(count for _, count in rows)
        lines = [
            f"profile: {self.samples} ticks, {total} stack samples, "
            f"{len(rows)} distinct stacks "
            f"({self.interval_s * 1000:g} ms interval)",
        ]
        for stack, count in rows[:top]:
            leaf = stack[-1]
            share = count / total if total else 0.0
            lines.append(f"  {share:6.1%} {count:>6}  {leaf}  "
                         f"[{stack[0]}; depth {len(stack) - 1}]")
        return "\n".join(lines)


def profile_call(
    func: Any,
    *args: Any,
    interval_s: float = DEFAULT_INTERVAL_S,
    **kwargs: Any,
) -> Tuple[Any, SamplingProfiler]:
    """Run ``func(*args, **kwargs)`` under a profiler; return both."""
    profiler = SamplingProfiler(interval_s=interval_s)
    with profiler:
        result = func(*args, **kwargs)
    return result, profiler


__all__ = [
    "DEFAULT_INTERVAL_S",
    "MAX_STACK_DEPTH",
    "SamplingProfiler",
    "profile_call",
]
