"""Context-propagating, fail-fast parallel map over worker threads.

This is the one fan-out of the flow (scenarios, signoffs, circuits,
characterization).  The tracer is context-local (:mod:`contextvars`),
so a bare ``ThreadPoolExecutor`` worker would see *no* tracer and
silently drop its spans.  :func:`parallel_map` copies the submitting
context — active tracer *and* active span — per task, so worker spans
land in the same trace, correctly parented under the span that was
open at submission time.  Results preserve input order regardless of
completion order, which is what keeps ``jobs=N`` runs byte-identical
to serial ones.

Failure semantics (see ``docs/ROBUSTNESS.md``): every task failure is
annotated in place with ``task_index`` and ``task_label`` attributes
(and an ``add_note`` on Python >= 3.11) so a worker traceback names
the task.  The first failure cancels queued sibling tasks, *drains*
already-running ones (the pool is shut down with ``wait=True`` — no
thread is abandoned mid-task), then re-raises the original exception.

The ``parallel.worker`` fault-injection site
(:mod:`repro.resilience.faults`) can force a task failure to exercise
this path deterministically.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar, Union

from .tracer import count

T = TypeVar("T")
R = TypeVar("R")

#: Per-task labels: a ready-made sequence or a function of the item.
Labels = Union[Sequence[str], Callable[[T], str], None]


def effective_jobs(jobs: int | None) -> int:
    """Normalize a user-facing ``jobs`` knob (``None``/0 -> serial)."""
    return max(1, jobs or 1)


def _label_for(labels: Labels, fn: Callable, item, index: int) -> str:
    if labels is None:
        return f"{getattr(fn, '__name__', 'task')}[{index}]"
    if callable(labels):
        return str(labels(item))
    return str(labels[index])


def _annotate(exc: BaseException, label: str, index: int) -> BaseException:
    """Attach the failing task's identity to its exception."""
    exc.task_index = index
    exc.task_label = label
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note(f"parallel_map task {index} ({label}) failed")
    return exc


def _run_one(fn: Callable[[T], R], item: T, label: str) -> R:
    # Lazy import: obs must stay importable without triggering the
    # resilience package (which itself imports obs).
    from ..resilience import faults

    if faults.should_fire("parallel.worker"):
        from ..resilience.errors import InjectedFaultError

        raise InjectedFaultError(
            f"injected worker fault in {label}", site="parallel.worker"
        )
    return fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = 1,
    *,
    labels: Labels = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across worker threads.

    With ``jobs <= 1`` (or a single item) tasks run inline — no pool,
    no context copies.  Otherwise tasks run on up to ``jobs`` threads,
    each inside a fresh copy of the caller's :mod:`contextvars`
    context; the result list is ordered by input position.

    ``labels`` names tasks for error annotation (a sequence aligned
    with ``items`` or a callable of the item); the first failure
    propagates after the pool drains (see the module docstring).
    """
    items = list(items)
    jobs = effective_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        results: List[R] = []
        for index, item in enumerate(items):
            label = _label_for(labels, fn, item, index)
            try:
                results.append(_run_one(fn, item, label))
            except Exception as exc:
                _annotate(exc, label, index)
                count("parallel.task_failed")
                raise
        return results

    pool = ThreadPoolExecutor(max_workers=min(jobs, len(items)))
    try:
        tasks = []
        for index, item in enumerate(items):
            label = _label_for(labels, fn, item, index)
            context = contextvars.copy_context()
            tasks.append((pool.submit(context.run, _run_one, fn, item, label), label))
        results = []
        for index, (future, label) in enumerate(tasks):
            try:
                results.append(future.result())
            except Exception as exc:
                _annotate(exc, label, index)
                count("parallel.task_failed")
                raise
    finally:
        # Queued tasks are cancelled, in-flight ones drain.
        pool.shutdown(wait=True, cancel_futures=True)
    return results
