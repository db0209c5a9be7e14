"""Subprocess worker isolation with heartbeats, watchdog, and restart.

Thread-based fan-out (:func:`repro.obs.parallel.parallel_map`) shares
one interpreter: a worker that segfaults, leaks unbounded memory, or
spins forever takes the whole sweep with it, and a timed-out thread
can only be abandoned, never reclaimed.  This module provides the
stronger isolation tier behind the same interface —
``parallel_map(..., isolate="process")`` delegates here — where each
worker is a subprocess that can be *killed* and *restarted*:

* **supervisor** (the parent): dispatches tasks over per-worker
  queues, collects results, and doubles as the watchdog;
* **heartbeats**: workers report liveness at dispatch and whenever
  long-running library code calls :func:`task_heartbeat` (the SPICE
  transient loop and the characterization engine do); the supervisor
  tracks the last beat per worker;
* **per-worker upstream pipes**: each worker sends results and beats
  over its *own* one-way pipe, read by a dedicated supervisor thread.
  A shared :class:`multiprocessing.Queue` would hand every worker the
  same write lock — and a worker SIGKILLed mid-``put`` takes the lock
  to its grave, silently wedging every sibling (the reason
  :class:`concurrent.futures.ProcessPoolExecutor` declares the whole
  pool broken on any worker death).  With private pipes a dying
  worker can only corrupt its own stream, which the supervisor
  already treats as a crash;
* **watchdog**: a worker that stops beating past the task's stall
  budget (``task_timeout_s`` / ``REPRO_WORKER_TIMEOUT_S``) or whose
  resident set exceeds ``max_rss_mb`` (``REPRO_WORKER_MAX_RSS_MB``)
  is SIGKILLed; the task fails with :class:`WorkerHungError` /
  :class:`WorkerMemoryError` — both :class:`TransientError`\\ s;
* **restart + retry**: a crashed or killed worker is respawned, and
  its task is re-dispatched up to ``retries`` times (task-raised
  exceptions are *not* auto-retried here — they propagate with their
  own classification for the caller's retry ladder to judge).

Rigged failures for tests: the ``parallel.hang`` fault site is
consulted by the *supervisor* at dispatch time (keeping the decision
deterministic and the counters centralized) and ships a flag that
makes the worker stop making progress, exercising the watchdog
end-to-end.

Caveats: tasks and their arguments/results cross a process boundary,
so ``fn`` must be a module-level callable and values must pickle
(workers pre-pickle results and report unpicklable ones as failures
instead of crashing).

Telemetry (:mod:`repro.obs.telemetry`): when the supervisor has an
active tracer, each dispatched task tells the worker to install a
child tracer around the task body; the worker's completed spans and
raw metrics ride back over the result pipe and are re-parented under
a supervisor-side ``isolation.task`` span carrying the task's label —
so ``--profile`` under ``--isolate process`` shows the same synthesis
tree an in-process run would.  The watchdog's existing RSS polling
additionally records the peak worker resident set as the
``isolation.worker.peak_rss_mb`` gauge.  Spans of a worker that is
killed (hang/RSS watchdog) or crashes are lost with the worker; its
``isolation.task`` span is still recorded with ``status="error"``.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal
import threading
import time
from typing import Any, Callable, Sequence

from .. import obs
from ..obs import telemetry
from . import faults
from .errors import (
    ParallelExecutionError,
    ReproError,
    WorkerCrashError,
    WorkerHungError,
    WorkerMemoryError,
)

#: Supervisor poll interval [s]: bounds watchdog reaction latency.
TICK_S = 0.05

#: Minimum interval between heartbeat messages from one worker [s].
HEARTBEAT_THROTTLE_S = 0.1

#: Default per-task stall budget when none is configured [s].
DEFAULT_TASK_TIMEOUT_S = 300.0

#: Extra stall allowance for a worker that has not sent its ready
#: beat yet: a spawned interpreter pays import costs before it can
#: report anything, and that must not count against a tight task
#: budget.
SPAWN_GRACE_S = 20.0


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


#: Worker start method: ``spawn`` gives every worker a pristine
#: interpreter — no inherited locks mid-acquire, no shared caches, no
#: inherited tracer context — which is the point of the isolation tier.
START_METHOD = "spawn"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Set inside a worker process: this worker's upstream connection.
_worker_heartbeat: Any | None = None
_last_beat_sent = 0.0


def task_heartbeat() -> None:
    """Report liveness from long-running worker code; no-op elsewhere.

    Library code (the SPICE transient loop, per-cell characterization)
    calls this unconditionally: outside an isolated worker it costs
    one ``None`` check.  Inside a worker it posts a throttled beat the
    supervisor's watchdog uses to distinguish *slow* from *stuck*.
    """
    global _last_beat_sent
    if _worker_heartbeat is None:
        return
    now = time.monotonic()
    if now - _last_beat_sent < HEARTBEAT_THROTTLE_S:
        return
    _last_beat_sent = now
    with contextlib.suppress(Exception):
        _worker_heartbeat.send(("beat",))


def _encode_result(value: Any) -> bytes:
    """Pre-pickle a success payload, degrading unpicklable values."""
    try:
        return pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        failure = ReproError(
            f"task result of type {type(value).__name__} does not pickle "
            f"across the process boundary: {exc}"
        )
        return pickle.dumps(("error", failure), protocol=pickle.HIGHEST_PROTOCOL)


def _encode_error(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(("error", exc), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        fallback = ReproError(f"{type(exc).__name__}: {exc}")
        fallback.classification = getattr(exc, "classification", "permanent")
        return pickle.dumps(("error", fallback), protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(worker_id: int, fn: Callable, task_q, conn) -> None:
    """Worker loop: take ``(task_id, item, hang)`` tasks until ``None``.

    SIGINT is ignored — interrupt handling (journal flush, resume
    hint) belongs to the parent, which tears workers down explicitly.
    """
    global _worker_heartbeat
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_heartbeat = conn
    with contextlib.suppress(Exception):
        conn.send(("beat",))  # ready beat: ends the supervisor's spawn grace
    while True:
        task = task_q.get()
        if task is None:
            conn.close()
            return
        task_id, item, hang, trace = task
        if hang:
            # Rigged ``parallel.hang``: stop making progress (no
            # heartbeats, no result) until the watchdog kills us.
            while True:
                time.sleep(TICK_S)
        with contextlib.suppress(Exception):
            conn.send(("beat",))  # task received; the stall clock restarts
        # ``trace`` mirrors "the supervisor has an active tracer": only
        # then is a child tracer worth its bookkeeping — its spans and
        # raw metrics ride home with the result and are re-parented
        # under the dispatching task span (repro.obs.telemetry).
        child = obs.Tracer() if trace else None
        if child is not None:
            child.install()
        try:
            payload = _encode_result(fn(item))
        except BaseException as exc:  # noqa: BLE001 — crossing process boundary
            payload = _encode_error(exc)
        finally:
            if child is not None:
                child.uninstall()
        task_telemetry = telemetry.snapshot(child) if child is not None else None
        conn.send(("result", task_id, payload, task_telemetry))


def _rss_mb(pid: int) -> float | None:
    """Resident set size of a process in MiB (Linux /proc; else None)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        return None


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
class _Task:
    __slots__ = ("index", "item", "label", "attempts", "dispatched_at")

    def __init__(self, index: int, item: Any, label: str):
        self.index = index
        self.item = item
        self.label = label
        self.attempts = 0
        #: Dispatch offset in the supervisor tracer's epoch [s]; used as
        #: the start of this task's ``isolation.task`` span.
        self.dispatched_at = 0.0


class _Worker:
    """Supervisor-side handle: process + dispatch queue + liveness.

    The worker's upstream pipe is drained by a dedicated daemon
    thread that forwards results into the supervisor's (in-process,
    uncorruptible) event queue and stamps beats directly onto this
    handle.  The thread exits on EOF — which is also what a SIGKILLed
    worker's half-written message decays to.
    """

    def __init__(self, ctx, worker_id: int, fn, events_q: _queue.Queue):
        self.id = worker_id
        self.task_q = ctx.SimpleQueue()
        self.conn, send_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, fn, self.task_q, send_conn),
            daemon=True,
        )
        self.process.start()
        send_conn.close()  # child holds the only write end now
        self.task: _Task | None = None
        self.last_beat = time.monotonic()
        self.ready = False  # flipped by the worker's first heartbeat
        self.reader = threading.Thread(
            target=self._read_loop, args=(events_q,), daemon=True
        )
        self.reader.start()

    def _read_loop(self, events_q: _queue.Queue) -> None:
        try:
            while True:
                message = self.conn.recv()
                self.last_beat = time.monotonic()
                self.ready = True
                if message[0] == "result":
                    telemetry_snap = message[3] if len(message) > 3 else None
                    events_q.put((self.id, message[1], message[2], telemetry_snap))
        except Exception:  # noqa: BLE001 — EOF/truncated frame = worker gone
            pass

    def dispatch(self, task: _Task, hang: bool, trace: bool) -> None:
        self.task = task
        self.last_beat = time.monotonic()
        task.attempts += 1
        self.task_q.put((task.index, task.item, hang, trace))

    def kill(self) -> None:
        with contextlib.suppress(Exception):
            self.process.kill()
        with contextlib.suppress(Exception):
            self.process.join(timeout=5.0)
        with contextlib.suppress(Exception):
            self.conn.close()
        with contextlib.suppress(Exception):
            self.task_q.close()


def _annotate(exc: BaseException, index: int, label: str) -> BaseException:
    exc.task_index = index
    exc.task_label = label
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(f"while running isolated task {label!r} (index {index})")
    return exc


def process_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int,
    *,
    labels: Sequence[str] | None = None,
    on_error: str = "fail_fast",
    task_timeout_s: float | None = None,
    max_rss_mb: float | None = None,
    retries: int = 1,
) -> list[Any]:
    """Map ``fn`` over ``items`` in supervised worker subprocesses.

    Same contract as :func:`repro.obs.parallel.parallel_map` (ordered
    results; ``fail_fast`` raises the first failure, ``collect`` runs
    everything and aggregates into :class:`ParallelExecutionError`),
    plus the isolation semantics described in the module docstring.

    ``retries`` applies only to *worker* failures (crash, watchdog
    kill): the task is re-dispatched to a fresh worker that many extra
    times before its :class:`WorkerCrashError` becomes the task's
    result.  Exceptions raised *by* ``fn`` are never auto-retried.
    """
    if on_error not in ("fail_fast", "collect"):
        raise ValueError(f"on_error must be fail_fast|collect, not {on_error!r}")
    items = list(items)
    if not items:
        return []
    if labels is not None and len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} items")
    if task_timeout_s is None:
        task_timeout_s = _env_float("REPRO_WORKER_TIMEOUT_S")
        if task_timeout_s is None:
            task_timeout_s = DEFAULT_TASK_TIMEOUT_S
    if max_rss_mb is None:
        max_rss_mb = _env_float("REPRO_WORKER_MAX_RSS_MB")

    from ..obs.parallel import effective_jobs

    n_workers = max(1, min(effective_jobs(jobs), len(items)))
    ctx = mp.get_context(START_METHOD)
    events_q: _queue.Queue = _queue.Queue()  # fed by per-worker readers
    tracer = obs.current_tracer()  # telemetry forwarding on iff present
    peak_rss_mb = 0.0

    tasks = [
        _Task(i, item, labels[i] if labels is not None else f"task[{i}]")
        for i, item in enumerate(items)
    ]
    queue: list[_Task] = list(tasks)
    results: dict[int, Any] = {}
    failures: dict[int, BaseException] = {}
    next_worker_id = 0
    workers: dict[int, _Worker] = {}

    def spawn() -> _Worker:
        nonlocal next_worker_id
        worker = _Worker(ctx, next_worker_id, fn, events_q)
        workers[worker.id] = worker
        next_worker_id += 1
        return worker

    def dispatch_to(worker: _Worker) -> None:
        task = queue.pop(0)
        hang = faults.should_fire("parallel.hang")
        if tracer is not None:
            task.dispatched_at = tracer.elapsed()
        worker.dispatch(task, hang, tracer is not None)

    def fail_task(worker: _Worker, exc: ReproError) -> None:
        """Handle a worker-level failure: maybe retry, maybe record."""
        task = worker.task
        worker.task = None
        if task is None:
            return
        if tracer is not None:
            # The killed worker's spans died with it; the attempt is
            # still visible as an error-status task span.
            telemetry.record_task(
                tracer,
                parent_record,
                task.label,
                task.dispatched_at,
                tracer.elapsed(),
                status="error",
                worker=worker.id,
                attempt=task.attempts,
                error=type(exc).__name__,
            )
        if task.attempts <= retries:
            obs.count("isolation.task_retry")
            queue.insert(0, task)
        else:
            failures[task.index] = _annotate(exc, task.index, task.label)

    def restart(worker: _Worker) -> None:
        """Replace a dead worker with a fresh subprocess."""
        workers.pop(worker.id, None)
        worker.kill()
        outstanding = len(items) - len(results) - len(failures)
        if outstanding > len(workers):
            obs.count("isolation.worker_restart")
            spawn()

    with obs.span("isolation.process_map", jobs=n_workers, tasks=len(items)) as sp:
        # The dispatching span every forwarded worker tree parents under
        # (None when tracing is disabled — sp is then the shared no-op).
        parent_record = getattr(sp, "record", None)
        for _ in range(n_workers):
            spawn()
        try:
            for worker in list(workers.values()):
                if queue:
                    dispatch_to(worker)
            while len(results) + len(failures) < len(items):
                if on_error == "fail_fast" and failures:
                    break
                # 0. Keep idle workers fed — requeued retries and
                # freshly restarted workers both pick up work here.
                for worker in list(workers.values()):
                    if not queue:
                        break
                    if worker.task is None and worker.process.is_alive():
                        dispatch_to(worker)
                # 1. Collect finished results (bounded wait = the
                # tick; beats never enter this queue — reader threads
                # stamp them straight onto the worker handle).  A
                # result from a worker already torn down, or for a
                # task already requeued elsewhere, is dropped:
                # accepting it could double-account the task.
                try:
                    worker_id, task_id, payload, tele = events_q.get(timeout=TICK_S)
                except _queue.Empty:
                    pass
                else:
                    worker = workers.get(worker_id)
                    if (
                        worker is not None
                        and worker.task is not None
                        and worker.task.index == task_id
                    ):
                        task = worker.task
                        worker.task = None
                        kind, value = pickle.loads(payload)
                        if kind == "ok":
                            results[task_id] = value
                        else:
                            failures[task_id] = _annotate(
                                value, task.index, task.label
                            )
                        if tracer is not None:
                            telemetry.record_task(
                                tracer,
                                parent_record,
                                task.label,
                                task.dispatched_at,
                                tracer.elapsed(),
                                status="ok" if kind == "ok" else "error",
                                telemetry=tele,
                                worker=worker_id,
                                attempt=task.attempts,
                            )
                        if queue:
                            dispatch_to(worker)
                # 2. Watchdog: dead, stalled, or oversized workers.
                now = time.monotonic()
                for worker in list(workers.values()):
                    busy = worker.task is not None
                    if not worker.process.is_alive():
                        obs.count("isolation.worker_crash")
                        if busy:
                            fail_task(
                                worker,
                                WorkerCrashError(
                                    f"worker {worker.id} died "
                                    f"(exit {worker.process.exitcode}) while "
                                    f"running {worker.task.label!r}",
                                    site="parallel.worker",
                                ),
                            )
                        restart(worker)
                        continue
                    grace = 0.0 if worker.ready else SPAWN_GRACE_S
                    if busy and now - worker.last_beat > task_timeout_s + grace:
                        obs.count("isolation.watchdog_kill")
                        obs.count("isolation.watchdog_kill.hang")
                        label = worker.task.label
                        fail_task(
                            worker,
                            WorkerHungError(
                                f"worker {worker.id} made no progress for "
                                f"{task_timeout_s:g}s on {label!r}; killed",
                                site="parallel.hang",
                            ),
                        )
                        worker.kill()
                        restart(worker)
                        continue
                    if busy and (max_rss_mb is not None or tracer is not None):
                        # One /proc read per tick serves both the RSS
                        # cap and the peak-RSS telemetry gauge.
                        rss = _rss_mb(worker.process.pid)
                        if rss is not None:
                            peak_rss_mb = max(peak_rss_mb, rss)
                        if max_rss_mb is not None and rss is not None and rss > max_rss_mb:
                            obs.count("isolation.watchdog_kill")
                            obs.count("isolation.watchdog_kill.memory")
                            label = worker.task.label
                            fail_task(
                                worker,
                                WorkerMemoryError(
                                    f"worker {worker.id} resident set "
                                    f"{rss:.0f} MiB exceeds the "
                                    f"{max_rss_mb:g} MiB cap on {label!r}; "
                                    f"killed",
                                    site="parallel.worker",
                                ),
                            )
                            worker.kill()
                            restart(worker)
        finally:
            if peak_rss_mb > 0.0:
                obs.gauge("isolation.worker.peak_rss_mb", peak_rss_mb)
            for worker in workers.values():
                with contextlib.suppress(Exception):
                    worker.task_q.put(None)
            deadline = time.monotonic() + 2.0
            for worker in workers.values():
                with contextlib.suppress(Exception):
                    worker.process.join(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            for worker in workers.values():
                if worker.process.is_alive():
                    worker.kill()
                with contextlib.suppress(Exception):
                    worker.conn.close()  # unblocks the reader thread

    if failures:
        if on_error == "fail_fast":
            raise failures[min(failures)]
        pairs = sorted(failures.items())
        raise ParallelExecutionError(
            f"{len(pairs)}/{len(items)} isolated tasks failed "
            f"(first: {pairs[0][1]})",
            errors=[(i, tasks[i].label, exc) for i, exc in pairs],
        )
    return [results[i] for i in range(len(items))]

