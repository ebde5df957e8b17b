"""Parallel study runner: shard ``run_all`` across supervised workers.

The 31 artefacts are independent once the shared inputs (world, the two
campaign datasets, the market crawl) exist, so the runner builds those
once in the parent, persists them through :mod:`repro.core.cache`, and
fans the per-artefact analysis out over a ``ProcessPoolExecutor`` (at
``jobs=1``, an inline pool that runs each attempt in the parent)::

    from repro.core import StudyRunner

    report = StudyRunner(seed=2024, jobs=4).run_all(scale=0.15)
    print(report.summary_table())
    report.save("run-report.json")

Every artefact gets its own ledger row (:class:`ArtefactRun`: wall
time, worker id, attempts, cache hits/misses and hit latency, error if
any) and a failure in one artefact never aborts the others.
Determinism is unchanged: workers compute exactly what the serial path
computes, from byte-identical cached inputs, so ``jobs=N`` renders the
same artefacts as ``jobs=1``.

The runner *supervises* its workers instead of trusting them, through
one loop at every ``jobs``:

* ``artefact_timeout_s=`` arms a watchdog at ``jobs>=2`` — an
  artefact that exceeds its deadline has its worker killed, is charged
  an attempt and is retried (final status ``"timeout"`` when the
  budget runs out);
* a dead worker (OOM, signal, ``BrokenProcessPool``; at ``jobs=1`` an
  :class:`~repro.faults.InjectedWorkerCrash`) loses its artefacts, and
  a broken pool is respawned; the lost artefacts retry with the bounded
  :class:`~repro.faults.BackoffPolicy` budget and are *quarantined*
  (status ``"quarantined"``) when they keep dying, so one poisoned
  experiment never sinks the run;
* ``run_all(resume=True)`` serves each result already stored in the
  artifact cache under :func:`result_key` and stores each one it
  computes there as it completes, so a rerun after a crash skips the
  completed work and exports byte-identical results;
* SIGINT/SIGTERM stop the run cleanly: in-flight work is cancelled,
  never-started artefacts get ``status="interrupted"`` rows, and the
  partial report (and history record) is still flushed;
* ``exec_chaos=`` injects seeded worker crashes / hangs / cache
  corruption (:class:`~repro.faults.ExecChaos`) so all of the above is
  exercised deterministically in tests.

Telemetry rides along as a sidecar (see :mod:`repro.obs`): pass
``trace_dir=`` (or install a :class:`~repro.obs.TraceRecorder` before
calling) and every artefact runs under its own span — recorded in the
worker process, exported with the ledger row, and re-parented into the
parent's ``run_all`` trace. Artefact bytes are identical either way;
timestamps live only in the trace file.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import importlib
import json
import os
import pathlib
import random
import resource
import signal
import sys
import threading
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core import cache as cache_mod
from repro.faults import BackoffPolicy, ExecChaos, InjectedWorkerCrash

#: Ledger statuses a supervised run can end an artefact with.
STATUS_OK = "ok"
STATUS_ERROR = "error"  # the artefact itself raised (deterministic: not retried)
STATUS_TIMEOUT = "timeout"  # watchdog killed every attempt
STATUS_QUARANTINED = "quarantined"  # worker died on every attempt
STATUS_INTERRUPTED = "interrupted"  # never ran: the run was stopped first

#: How often the parallel supervision loop wakes to top up workers,
#: collect results and check deadlines.
_POLL_S = 0.05

#: Attempts an artefact may consume on worker deaths and timeouts
#: before it is quarantined. Artefact *errors* (exceptions inside the
#: experiment) are deterministic and never retried.
MAX_ATTEMPTS = 3

#: Retry backoff between attempts on the same artefact. Real (slept)
#: seconds, unlike the campaigns' simulated-time backoff — keep it
#: short: transient worker deaths don't deserve minute-long waits.
DEFAULT_RETRY_BACKOFF = BackoffPolicy(base_s=0.05, factor=2.0, cap_s=2.0, jitter=0.1)


@dataclass
class ArtefactRun:
    """Ledger row for one artefact in one ``run_all``."""

    artefact_id: str
    status: str  # one of the STATUS_* constants
    wall_s: float
    worker: str  # e.g. "pid-12345" ("pid-lost" when the worker died,
    #               "cache" when --resume served a stored result)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_s: float = 0.0  # wall time spent in hitting cache loads
    #: Attempts consumed (0 when --resume served a stored result).
    attempts: int = 1
    error: str = ""
    #: The worker's RSS high-water mark in MB when the artefact's clock
    #: stopped (0 if it did not run): where it rises, the artefact raised it.
    peak_rss_mb: float = 0.0


@dataclass
class RunReport:
    """What a :class:`StudyRunner` run did, artefact by artefact."""

    seed: int
    scale: float
    jobs: int
    total_wall_s: float = 0.0
    warm_wall_s: float = 0.0
    runs: List[ArtefactRun] = field(default_factory=list)
    #: Raw experiment results for the artefacts that succeeded.
    results: Dict[str, Any] = field(default_factory=dict)
    #: Where the JSONL trace was written (None when tracing was off).
    trace_path: Optional[str] = None
    #: History-store run id (None when ``--history`` was off).
    history_run_id: Optional[str] = None
    #: True when SIGINT/SIGTERM (or ``request_stop``) ended the run early.
    interrupted: bool = False

    def ok(self) -> List[ArtefactRun]:
        return [run for run in self.runs if run.status == STATUS_OK]

    def failed(self) -> List[ArtefactRun]:
        return [run for run in self.runs if run.status != STATUS_OK]

    def summary_table(self) -> str:
        """The ledger as fixed-width text (what ``run-all`` prints)."""
        lines = [
            f"{'artefact':9} {'status':12} {'wall':>8} {'worker':>10} "
            f"{'try':>3} {'hit':>4} {'miss':>4} {'hit ms':>7}",
        ]
        for run in self.runs:
            lines.append(
                f"{run.artefact_id:9} {run.status:12} {run.wall_s:7.2f}s "
                f"{run.worker:>10} {run.attempts:3d} "
                f"{run.cache_hits:4d} {run.cache_misses:4d} "
                f"{run.cache_hit_s * 1000:7.1f}"
            )
        # Workers that ran something: not "cache" (served by --resume),
        # "-" (interrupted) or "pid-lost" (a dead worker's unknown pid).
        workers = {
            run.worker for run in self.runs
            if run.worker.startswith("pid-") and run.worker[4:].isdigit()
        }
        lines.append(
            f"{len(self.ok())}/{len(self.runs)} artefacts ok in "
            f"{self.total_wall_s:.2f}s wall "
            f"(warm-up {self.warm_wall_s:.2f}s, jobs={self.jobs}, "
            f"{len(workers)} worker(s), seed={self.seed}, scale={self.scale:g})"
        )
        for run in self.failed():
            first_line = run.error.strip().splitlines()[-1] if run.error else ""
            lines.append(f"  FAILED {run.artefact_id}: {first_line}")
        if self.interrupted:
            lines.append(
                "  run interrupted before completion — with --resume, "
                "a rerun finishes the remaining artefacts"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> Dict[str, Any]:
        """JSON-safe dict (ledger + flattened results)."""
        from repro.experiments.export import jsonable

        return {
            "seed": self.seed,
            "scale": self.scale,
            "jobs": self.jobs,
            "ok": not self.failed(),
            "interrupted": self.interrupted,
            "total_wall_s": self.total_wall_s,
            "warm_wall_s": self.warm_wall_s,
            "trace_path": self.trace_path,
            "history_run_id": self.history_run_id,
            "runs": [jsonable(run) for run in self.runs],
            "results": {key: jsonable(value) for key, value in self.results.items()},
        }

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Atomically write the report via :func:`~repro.core.cache.atomic_write`.

        A crash mid-save can never leave a truncated JSON report under
        the final name.
        """
        payload = json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"
        cache_mod.atomic_write(path, lambda handle: handle.write(payload), mode="w")


# -- worker side -------------------------------------------------------------

@dataclass(frozen=True)
class _Worker:
    """What the worker entry point runs with."""

    study: Any  # a ThickMnaStudy
    trace: bool
    exec_chaos: Optional[ExecChaos]
    in_pool: bool  # False at jobs=1, where attempts run in the parent


#: Set by ``_worker_init`` in a pool worker, by ``_InlinePool`` in the parent.
_WORKER: Optional[_Worker] = None

#: What one attempt ships back: its ledger row, the result payload and
#: the exported telemetry (None when tracing is off).
_Outcome = Tuple[ArtefactRun, Any, Optional[Dict[str, Any]]]


def result_key(artefact_id: str, seed: int, scale: Optional[float]) -> str:
    """Cache key for one artefact's result payload.

    The one construction shared by ``run-all --resume`` and the
    server's ``/artefact`` memo, so the two share cache entries.
    ``scale`` is dropped for artefacts that ignore it.
    """
    import repro
    from repro.experiments import registry

    spec = registry.get_spec(artefact_id)
    return cache_mod.fingerprint(
        "artefact-result", artefact=artefact_id, seed=seed,
        scale=scale if spec.supports_scale else None,
        version=repro.__version__,
    )


def _worker_init(
    seed: int,
    cache_root: Optional[str],
    cache_enabled: bool,
    trace: bool = False,
    exec_chaos: Optional[ExecChaos] = None,
) -> None:
    """Process-pool initializer: point the worker at the parent's cache."""
    from repro.core.study import ThickMnaStudy

    # Workers must stay killable. Forked workers inherit the parent's
    # flag-setting SIGINT/SIGTERM traps, which would swallow the
    # watchdog's ``terminate()`` and leave a process-group Ctrl-C
    # waiting on a hung worker — so SIGTERM reverts to its default
    # (die) and SIGINT is ignored (the parent owns interruption and
    # terminates workers deliberately). A SIGKILLed parent can signal
    # nothing at all, so a daemon thread watches for re-parenting and
    # exits rather than blocking on the call queue forever.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    cache_mod.configure(root=cache_root, enabled=cache_enabled)
    global _WORKER
    _WORKER = _Worker(ThickMnaStudy(seed=seed), trace, exec_chaos, True)


def _exit_when_orphaned(parent_pid: int, poll_s: float = 1.0) -> None:
    """Hard-exit the worker once its supervising parent is gone."""
    while os.getppid() == parent_pid:
        time.sleep(poll_s)
    os._exit(1)


def _run_artefact(
    artefact_id: str, scale: Optional[float], attempt: int = 0
) -> _Outcome:
    """Run one attempt in this process; never raises from the artefact.

    The exec-chaos hook runs *before* the isolation try-block: an
    injected crash must look like a dead worker (``os._exit`` in a pool
    worker, :class:`~repro.faults.InjectedWorkerCrash` inline), not
    like an artefact error the runner would refuse to retry.

    When tracing, the artefact records into its *own*
    :class:`~repro.obs.TraceRecorder` whether it runs in a pool worker
    or inline in the parent — the recorder's export travels back with
    the row and the parent re-parents it under the ``run_all`` root
    span. One code path, both modes.
    """
    from repro.experiments import registry
    from repro.faults import execchaos as execchaos_mod

    worker = _WORKER
    assert worker is not None, "worker used before _worker_init"
    recorder = (
        obs.TraceRecorder(trace_id=f"artefact-{artefact_id}")
        if worker.trace else obs.get_recorder()
    )
    cache = cache_mod.get_default_cache()
    with obs.use_recorder(recorder), obs.span("artefact", id=artefact_id) as span:
        if attempt:
            span.set(attempt=attempt)
        execchaos_mod.inject(
            worker.exec_chaos, artefact_id, attempt,
            cache_root=cache.root, in_subprocess=worker.in_pool,
        )
        stats_before = cache.stats.snapshot()
        started = time.perf_counter()
        try:
            # A global --scale only applies to the scale-aware experiments;
            # the rest run with exactly the parameters their spec declares.
            spec = registry.get_spec(artefact_id)
            result = worker.study.run(
                artefact_id, scale=scale if spec.supports_scale else None
            )
            status, error = STATUS_OK, ""
        except Exception:
            result, status, error = None, STATUS_ERROR, traceback.format_exc()
            span.set(failed=True)
        wall = time.perf_counter() - started
        # ru_maxrss counts KiB on Linux and bytes on macOS.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_rss_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        delta = cache.stats.delta(stats_before)
    run = ArtefactRun(
        artefact_id=artefact_id, status=status, wall_s=wall,
        worker=f"pid-{os.getpid()}", cache_hits=delta.hits,
        cache_misses=delta.misses, cache_hit_s=delta.hit_time_s,
        attempts=attempt + 1, error=error, peak_rss_mb=peak_rss_mb,
    )
    return run, result, recorder.export() if worker.trace else None


class _InlinePool:
    """The ``jobs=1`` pool: each submitted attempt runs in the parent.

    ``submit`` returns a finished future. An injected crash becomes the
    future's exception, so the supervision loop charges, backs off and
    quarantines it as it does a dead pool worker.
    """

    def __init__(self, worker: _Worker) -> None:
        global _WORKER
        _WORKER = worker

    def submit(self, fn: Callable[..., _Outcome], *args: Any) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except InjectedWorkerCrash as crash:
            future.set_exception(crash)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _kill_pool(pool: Union[_InlinePool, concurrent.futures.ProcessPoolExecutor]) -> None:
    """Forcibly stop a pool: terminate every worker, then shut down.

    ``ProcessPoolExecutor`` has no per-task cancellation for running
    work, so the watchdog (and clean shutdown) kill the whole pool and
    the supervisor respawns a fresh one for the remaining shard.
    """
    workers = getattr(pool, "_processes", None) or {}
    processes = list(workers.values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.join(timeout=2.0)
        except Exception:
            pass


# -- parent side -------------------------------------------------------------

class StudyRunner:
    """Runs a study's artefacts with warm shared inputs, optionally sharded.

    ``jobs=1`` runs each artefact in the parent (no subprocess, still
    isolated per artefact); ``jobs=N`` uses a ``ProcessPoolExecutor``.
    Both go through the same supervision loop. Inputs and stored results
    live in the process-default cache
    (:func:`~repro.core.cache.get_default_cache`), which workers open too.

    Supervision knobs:

    ``artefact_timeout_s``
        Watchdog deadline per artefact attempt. An overdue worker is
        killed, the attempt charged, the artefact retried. Refused at
        ``jobs=1`` (``ValueError``): there the attempt runs in the
        parent, which has no worker to kill.
    ``exec_chaos``
        Seeded :class:`~repro.faults.ExecChaos` fault injection for the
        execution layer itself (tests, CI chaos smoke).

    Worker deaths and timeouts are retried after
    :data:`DEFAULT_RETRY_BACKOFF`, up to :data:`MAX_ATTEMPTS` attempts.

    ``trace_dir`` turns telemetry on: the run records into a fresh
    :class:`~repro.obs.TraceRecorder` and writes one JSONL trace file
    into that directory (``report.trace_path``). Alternatively install a
    recorder yourself with :func:`repro.obs.use_recorder` before calling
    ``run_all`` — spans land there and no file is written.

    ``history_dir`` gives runs a memory: every completed ``run_all``
    appends one :class:`~repro.obs.history.RunRecord` — built from the
    very RunReport ledger this runner returns — to the cross-run
    history store in that directory (``report.history_run_id``), where
    ``python -m repro regress`` and ``repro report`` pick it up.
    Interrupted runs are recorded too, with ``status="interrupted"``,
    and the regression engine skips them when building baselines.
    """

    def __init__(
        self,
        seed: int = 2024,
        jobs: int = 1,
        trace_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        history_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        artefact_timeout_s: Optional[float] = None,
        exec_chaos: Optional[ExecChaos] = None,
        handle_signals: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if artefact_timeout_s is not None and not artefact_timeout_s > 0:
            raise ValueError(
                f"artefact_timeout_s must be positive, got {artefact_timeout_s:g}"
            )
        if artefact_timeout_s is not None and jobs == 1:
            raise ValueError(
                "artefact_timeout_s needs jobs >= 2: at jobs=1 each attempt "
                "runs in this process, with no worker to kill"
            )
        self.seed = seed
        self.jobs = jobs
        self.trace_dir = pathlib.Path(trace_dir) if trace_dir is not None else None
        self.history_dir = (
            pathlib.Path(history_dir) if history_dir is not None else None
        )
        self.artefact_timeout_s = artefact_timeout_s
        self.exec_chaos = exec_chaos
        self.handle_signals = handle_signals
        self._stop_requested = False

    # -- interruption --------------------------------------------------------

    def request_stop(self) -> None:
        """Ask a running ``run_all`` to stop cleanly (what SIGINT does)."""
        self._stop_requested = True

    def _trap_signals(self):
        """Install SIGINT/SIGTERM -> clean-stop handlers for one run.

        Returns the ``{signal: previous handler}`` map to restore, or an
        empty map when installation is impossible (non-main thread) or
        disabled (``handle_signals=False``).
        """
        if not self.handle_signals:
            return {}

        def handler(signum, frame):
            self._stop_requested = True
            obs.event("runner.signal", signum=int(signum))

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except ValueError:  # not the main thread: run unsupervised
                break
        return previous

    # -- building blocks -----------------------------------------------------

    def warm_inputs(self, scale: float, artefacts: Sequence[str]) -> float:
        """Build (or load) the shared inputs once, in the parent.

        Each :class:`~repro.experiments.registry.ExperimentSpec` declares
        which inputs its experiment reads, so only the union the shard
        actually needs is built — a subset run of topology tables never
        simulates a campaign. With the disk cache enabled this both
        warms this process's in-memory layer and guarantees every worker
        finds the inputs on disk instead of re-simulating per process.

        It also loads numpy, which no module imports at module level:
        here its import is charged to the warm-up, once, instead of to
        the first artefact's clock, and forked workers inherit it.

        It ends with ``gc.freeze()``: the inputs stay loaded until the
        process exits, so the cyclic collector need not traverse them in
        every later full collection, nor in a forked worker. Frozen
        objects are still freed when their last reference goes; a cycle
        among them waits for ``common.clear_caches()``, which drops the
        inputs and unfreezes.
        """
        from repro.experiments import common, registry

        needed = set()
        for artefact in artefacts:
            needed.update(registry.get_spec(artefact).inputs)
        started = time.perf_counter()
        import numpy  # noqa: F401

        if needed & {"world", "device_dataset", "web_dataset"}:
            common.get_world(self.seed)
        if "device_dataset" in needed:
            common.get_device_dataset(scale, self.seed)
        if "web_dataset" in needed:
            common.get_web_dataset(self.seed)
        if "market" in needed:
            common.get_market()
        gc.freeze()
        return time.perf_counter() - started

    # -- checkpointing -------------------------------------------------------

    def _checkpoint(self, scale: float, run: ArtefactRun, result: Any) -> None:
        """Store one completed result under its key, for a later resume."""
        if run.status == STATUS_OK:
            cache_mod.get_default_cache().store(
                result_key(run.artefact_id, self.seed, scale), result
            )

    # -- the run -------------------------------------------------------------

    def run_all(
        self,
        scale: Optional[float] = None,
        artefacts: Optional[Sequence[str]] = None,
        resume: bool = False,
    ) -> RunReport:
        """Run ``artefacts`` (default: all), return the ledger + results.

        Ids are case-insensitive; an unknown id raises ``KeyError`` and
        a repeated one ``ValueError``, before any work. ``resume=True``
        serves each result already stored under its :func:`result_key`
        as a row that ran nowhere (``worker="cache"``, ``attempts=0``)
        and stores each result it computes there as it completes; with
        the cache disabled it has nowhere to do either, and raises
        ``ValueError`` before any work.
        """
        if resume and not cache_mod.get_default_cache().enabled:
            raise ValueError(
                "resume needs the artifact cache, which is disabled "
                f"(--no-cache or ${cache_mod.ENV_CACHE_DISABLE})"
            )
        recorder: Optional[obs.TraceRecorder] = None
        if self.trace_dir is None:
            report = self._run_all_inner(scale, artefacts, resume)
            active = obs.get_recorder()
            if isinstance(active, obs.TraceRecorder):
                recorder = active  # externally installed: still snapshot
        else:
            recorder = obs.TraceRecorder(trace_id=f"run_all-seed{self.seed}")
            with obs.use_recorder(recorder):
                report = self._run_all_inner(scale, artefacts, resume)
            path = self.trace_dir / (
                f"run_all-seed{report.seed}-scale{report.scale:g}"
                f"-jobs{report.jobs}.jsonl"
            )
            obs.write_trace(
                recorder, path,
                attrs={
                    "seed": report.seed, "scale": report.scale,
                    "jobs": report.jobs,
                },
            )
            report.trace_path = str(path)
        if self.history_dir is not None:
            from repro.obs import history as history_mod

            metrics = (
                {
                    name: float(value)
                    for name, value in recorder.metrics.counters().items()
                }
                if recorder is not None else None
            )
            record = history_mod.record_from_report(report, metrics=metrics)
            history_mod.HistoryStore(self.history_dir).append(record)
            report.history_run_id = record.run_id
        return report

    def _run_all_inner(
        self,
        scale: Optional[float] = None,
        artefacts: Optional[Sequence[str]] = None,
        resume: bool = False,
    ) -> RunReport:
        from repro.experiments import common, registry

        if artefacts is None:
            artefacts = registry.artefact_ids()
        else:
            artefacts = [artefact.upper() for artefact in artefacts]
            for index, artefact in enumerate(artefacts):
                registry.get_spec(artefact)  # fail fast on unknown ids
                if artefact in artefacts[:index]:
                    raise ValueError(f"artefact {artefact} is listed twice")
        # Load each experiment before the clock starts and before
        # warm_inputs freezes the collector: no import lands in an
        # artefact's wall_s, and forked workers inherit the modules.
        for artefact in artefacts:
            importlib.import_module(registry.get_spec(artefact).module)
        effective_scale = scale if scale is not None else common.DEFAULT_SCALE
        report = RunReport(seed=self.seed, scale=effective_scale, jobs=self.jobs)

        recorder = obs.get_recorder()
        self._stop_requested = False
        previous_handlers = self._trap_signals()
        started = time.perf_counter()
        try:
            with obs.span(
                "run_all", seed=self.seed, scale=effective_scale, jobs=self.jobs,
            ) as root:
                # Resume: serve each result already stored under its key;
                # a missing or corrupt one simply reruns.
                rows: List[_Outcome] = []
                todo: List[str] = []
                cache = cache_mod.get_default_cache()
                for artefact in artefacts:
                    result = cache.load(
                        result_key(artefact, self.seed, effective_scale)
                    ) if resume else None
                    if result is None:
                        todo.append(artefact)
                        continue
                    obs.counter("runner.resume_skip").inc()
                    obs.event("runner.resume_skip", artefact=artefact)
                    rows.append((ArtefactRun(
                        artefact, STATUS_OK, 0.0, "cache", attempts=0,
                    ), result, None))

                with obs.span("warm_inputs"):
                    report.warm_wall_s = self.warm_inputs(effective_scale, todo)

                checkpoint = (
                    functools.partial(self._checkpoint, effective_scale)
                    if resume else None
                )
                rows += self._supervise(todo, scale, checkpoint)

                # Anything not finalized (stop requested mid-run) gets an
                # explicit interrupted row so the partial report is honest.
                finalized = {run.artefact_id for run, _result, _telemetry in rows}
                for artefact in artefacts:
                    if artefact not in finalized:
                        rows.append((ArtefactRun(
                            artefact, STATUS_INTERRUPTED, 0.0, "-", attempts=0,
                            error="run interrupted before this artefact completed",
                        ), None, None))
                report.interrupted = self._stop_requested
                if report.interrupted:
                    obs.event("runner.interrupted")

                order = {artefact: index for index, artefact in enumerate(artefacts)}
                for run, result, telemetry in sorted(
                    rows, key=lambda row: order[row[0].artefact_id]
                ):
                    report.runs.append(run)
                    if run.status == STATUS_OK:
                        report.results[run.artefact_id] = result
                    if telemetry is not None and recorder.enabled:
                        recorder.adopt(telemetry, parent_id=root.span_id)
        finally:
            for sig, old in previous_handlers.items():
                signal.signal(sig, old)
        report.total_wall_s = time.perf_counter() - started
        return report

    # -- supervision ---------------------------------------------------------

    def _new_pool(self) -> Union[_InlinePool, concurrent.futures.ProcessPoolExecutor]:
        from repro.core.study import ThickMnaStudy

        if self.jobs == 1:
            study = ThickMnaStudy(seed=self.seed)
            return _InlinePool(_Worker(study, obs.enabled(), self.exec_chaos, False))
        cache = cache_mod.get_default_cache()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=_worker_init,
            initargs=(
                self.seed, str(cache.root), cache.enabled,
                obs.enabled(), self.exec_chaos,
            ),
        )

    def _supervise(
        self,
        artefacts: Sequence[str],
        scale: Optional[float],
        on_done: Optional[Callable[[ArtefactRun, Any], None]],
    ) -> List[_Outcome]:
        """Supervised pool execution: watchdog, retries, pool respawn.

        At most ``jobs`` artefacts are in flight at a time (so submit
        time ≈ start time and the per-artefact deadline is meaningful).
        A broken pool is respawned and the remaining shard continues; an
        overdue artefact's pool is killed, the artefact charged and
        retried, innocent in-flight artefacts resubmitted uncharged.
        At ``jobs=1`` the inline pool finishes each attempt inside
        ``submit``, so nothing is ever overdue, and a crashed artefact
        retries after the rest of the shard, as in a pool.
        """
        pending: List[str] = list(artefacts)
        not_before: Dict[str, float] = {}
        failures: Dict[str, int] = {artefact: 0 for artefact in artefacts}
        rng = random.Random(f"runner-retry:{self.seed}")
        out: List[_Outcome] = []
        # Where a lost attempt ran: a pool worker that is gone, or, at
        # jobs=1, the parent itself.
        lost_worker = f"pid-{os.getpid()}" if self.jobs == 1 else "pid-lost"

        def finalize(outcome: _Outcome) -> None:
            out.append(outcome)
            if on_done is not None:
                on_done(outcome[0], outcome[1])

        def register_failure(artefact: str, kind: str, detail: str) -> None:
            failures[artefact] += 1
            attempts = failures[artefact]
            obs.counter(f"runner.{kind}").inc()
            if attempts >= MAX_ATTEMPTS:
                status = STATUS_TIMEOUT if kind == "timeout" else STATUS_QUARANTINED
                obs.counter("runner.quarantine").inc()
                obs.event(
                    "runner.quarantine", artefact=artefact,
                    attempts=attempts, reason=kind,
                )
                finalize((ArtefactRun(
                    artefact, status, 0.0, lost_worker, attempts=attempts,
                    error=detail,
                ), None, None))
            else:
                delay = DEFAULT_RETRY_BACKOFF.delay_s(attempts - 1, rng)
                not_before[artefact] = time.monotonic() + delay
                pending.append(artefact)
                obs.counter("runner.retry").inc()
                obs.event(
                    "runner.retry", artefact=artefact, attempt=attempts,
                    delay_s=round(delay, 6), reason=kind,
                )

        done_all = False
        while not done_all and not self._stop_requested:
            pool = self._new_pool()
            inflight: Dict[concurrent.futures.Future, Tuple[str, float]] = {}
            respawn = ""  # set to the reason once the pool must be replaced
            try:
                while not self._stop_requested:
                    now = time.monotonic()
                    for artefact in list(pending):
                        if len(inflight) >= self.jobs:
                            break
                        if not_before.get(artefact, 0.0) > now:
                            continue
                        pending.remove(artefact)
                        future = pool.submit(
                            _run_artefact, artefact, scale, failures[artefact]
                        )
                        inflight[future] = (artefact, time.monotonic())
                    if not inflight:
                        if not pending:
                            done_all = True
                            break
                        # Everything left is inside a backoff window.
                        wake = min(not_before[a] for a in pending)
                        time.sleep(max(0.0, min(_POLL_S, wake - now)))
                        continue
                    done, _ = concurrent.futures.wait(
                        list(inflight), timeout=_POLL_S,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        artefact, _started = inflight.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            respawn = "broken-pool"
                            register_failure(
                                artefact, "crash",
                                "worker process died (pool broke); "
                                + traceback.format_exc(),
                            )
                        except Exception:
                            # A worker died (inline: an injected crash) or
                            # the row could not travel back: isolate and
                            # retry like any crash.
                            register_failure(
                                artefact, "crash", traceback.format_exc()
                            )
                        else:
                            finalize(outcome)
                    if respawn:
                        # The pool is dead and every in-flight artefact
                        # went down with it. The culprit is unknowable
                        # from the parent, so each one is charged an
                        # attempt (bounded budgets keep this convergent).
                        for artefact, _started in inflight.values():
                            register_failure(
                                artefact, "crash",
                                "worker pool broke while this artefact "
                                "was in flight",
                            )
                    elif self.artefact_timeout_s is not None:
                        now = time.monotonic()
                        overdue = [
                            future for future, (_artefact, started)
                            in inflight.items()
                            if now - started > self.artefact_timeout_s
                        ]
                        for future in overdue:
                            artefact, started = inflight[future]
                            obs.event(
                                "runner.timeout", artefact=artefact,
                                after_s=round(now - started, 3),
                            )
                            register_failure(
                                artefact, "timeout",
                                f"artefact exceeded its "
                                f"{self.artefact_timeout_s:g}s deadline; "
                                f"worker killed by the watchdog",
                            )
                        if overdue:
                            # No per-task kill exists: kill the pool and
                            # resubmit the innocent in-flight artefacts
                            # without charging them an attempt.
                            for future, (artefact, _started) in inflight.items():
                                if future not in overdue:
                                    pending.insert(0, artefact)
                            respawn = "watchdog"
                    if respawn:
                        inflight.clear()
                        done_all = not pending
                        if not done_all:
                            obs.counter("runner.pool_respawn").inc()
                            obs.event("runner.pool_respawn", reason=respawn)
                        break
            finally:
                if respawn or self._stop_requested:
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
        return out
