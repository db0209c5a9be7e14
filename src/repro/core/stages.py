"""Declarative pipeline stages and the runner that executes them.

The paper's flow is a fixed three-stage pipeline; this module makes
that shape explicit instead of hard-coding it.  Each step is a
:class:`Stage` with named inputs, one named output, a compute
function, and (when the step is pure) a cache-key function; a
:class:`FlowRunner` executes a stage list over a shared artifact
namespace, consulting the :class:`repro.core.artifacts.ArtifactCache`
before computing anything.

The runner is what generalizes the old hand-rolled
``optimized_cache``/``stage2_power_mode`` sharing in
``run_scenarios``: two scenarios whose stage-2 parameters agree now
produce the *same cache key* and therefore share the computation
automatically — across scenarios, circuits, temperatures, worker
threads, and (with a disk-backed cache) process restarts.

Observability: each stage executes under a ``<prefix>.<name>`` span
(``stage.`` by default; the synthesis flow uses ``flow.``) carrying a
``cache`` attribute (``"hit"``/``"miss"``/``"uncached"``), and the
cache emits the ``cache.hit``/``cache.miss`` counters; see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .. import obs
from ..resilience import guards
from ..resilience.errors import GuardViolation, StageTimeoutError
from .context import DesignContext

#: Signature of a stage body: ``(context, inputs) -> output``.
StageFn = Callable[[DesignContext, Mapping[str, Any]], Any]
#: Signature of a stage cache-key builder: ``(context, inputs) -> key``.
KeyFn = Callable[[DesignContext, Mapping[str, Any]], str]
#: Signature of a stage guard: ``(context, inputs, output) -> violations``.
GuardFn = Callable[[DesignContext, Mapping[str, Any], Any], "list[str]"]


@dataclass(frozen=True)
class Stage:
    """One named, optionally-cacheable pipeline step.

    ``inputs`` name artifacts that must exist in the runner's
    namespace before the stage runs; ``output`` names the artifact the
    stage produces.  A stage with ``cache_key=None`` always computes
    (use for impure or cheap steps); otherwise the key must capture
    *everything* the output depends on — the runner trusts it
    blindly.  ``persist`` additionally allows the on-disk cache tier
    (the output must pickle losslessly).
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    compute: StageFn
    cache_key: KeyFn | None = None
    persist: bool = True
    #: Wall-clock budget for one execution of this stage [s].  ``None``
    #: means unbounded.  On expiry the runner raises
    #: :class:`repro.resilience.errors.StageTimeoutError`; the stage's
    #: worker thread is abandoned (it cannot be killed), so timeouts
    #: are a last-resort guard against hung stages, not flow control.
    timeout_s: float | None = None
    #: Stage-boundary invariant check (see
    #: :mod:`repro.resilience.guards`).  Runs on every cache *miss*,
    #: after ``compute`` but before the value is stored: any violation
    #: vetoes caching (the wrong artifact is quarantined, never
    #: shared), and in ``REPRO_GUARDS=enforce`` mode (the default)
    #: additionally raises :class:`GuardViolation`.  Cache hits are
    #: trusted — they were guarded when first computed.
    guard: GuardFn | None = None


def _run_bounded(stage: Stage, fn: Callable[[], Any], budget_s: float) -> Any:
    """Run a stage body on a worker thread with a wall-clock budget.

    The worker inherits the caller's :mod:`contextvars` context so the
    stage's spans land in the surrounding trace.  A timed-out worker
    thread cannot be killed — it is abandoned to finish in the
    background while the flow fails with :class:`StageTimeoutError`
    (the same caveat as ``parallel_map``'s ``timeout_s``).
    """
    context = contextvars.copy_context()
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        future = pool.submit(context.run, fn)
        try:
            return future.result(timeout=budget_s)
        except _FuturesTimeout:
            obs.count("stage.timeout")
            obs.count(f"stage.timeout.{stage.name}")
            raise StageTimeoutError(
                f"stage {stage.name!r} exceeded its {budget_s:g}s budget",
                site=f"stage.{stage.name}",
                timeout_s=budget_s,
            ) from None
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


class FlowRunner:
    """Execute a stage list over a shared artifact namespace.

    ``deadline_s`` bounds the *whole* run: before each stage starts,
    the runner checks the remaining budget and fails with
    :class:`StageTimeoutError` rather than starting a stage it cannot
    afford.  Per-stage ``timeout_s`` budgets additionally bound each
    individual execution (clipped to the remaining deadline).

    ``journal`` is an optional :class:`repro.resilience.journal.RunJournal`;
    when given, every cacheable stage completion commits a ``stage``
    record (cache key, result digest, hit/miss) and every guard
    rejection commits a ``guard_violation`` record.  Violations that
    do not raise (``REPRO_GUARDS=warn``) accumulate in
    :attr:`guard_violations` for the caller to surface.
    """

    def __init__(
        self,
        context: DesignContext,
        stages: Sequence[Stage],
        span_prefix: str = "stage",
        deadline_s: float | None = None,
        journal=None,
    ):
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.context = context
        self.stages = tuple(stages)
        self.span_prefix = span_prefix
        self.deadline_s = deadline_s
        self.journal = journal
        #: ``"stage: violation"`` strings from guards that did not raise.
        self.guard_violations: list[str] = []

    def _stage_budget(self, stage: Stage, deadline: float | None) -> float | None:
        """Tightest applicable budget for one stage execution [s]."""
        budgets = []
        if stage.timeout_s is not None:
            budgets.append(stage.timeout_s)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                obs.count("stage.deadline_exceeded")
                raise StageTimeoutError(
                    "flow deadline exhausted before "
                    f"stage {stage.name!r}"
                    + (
                        f" (budget {self.deadline_s:g}s)"
                        if self.deadline_s is not None
                        else ""
                    ),
                    site=f"stage.{stage.name}",
                    timeout_s=self.deadline_s,
                )
            budgets.append(remaining)
        return min(budgets) if budgets else None

    def run(self, **initial: Any) -> dict[str, Any]:
        """Run every stage in order; returns the artifact namespace.

        ``initial`` seeds the namespace (e.g. ``aig=...``).  Each
        cacheable stage is looked up before being computed; the
        returned dict maps artifact names (plus the initial seeds) to
        values.  Any stage failure is annotated in place with a
        ``stage`` attribute naming the failing stage and counted as
        ``stage.error.<name>`` before it propagates.
        """
        deadline = (
            None if self.deadline_s is None else time.monotonic() + self.deadline_s
        )
        artifacts: dict[str, Any] = dict(initial)
        for stage in self.stages:
            missing = [name for name in stage.inputs if name not in artifacts]
            if missing:
                raise KeyError(
                    f"stage {stage.name!r} missing inputs {missing}; "
                    f"have {sorted(artifacts)}"
                )
            inputs = {name: artifacts[name] for name in stage.inputs}
            stage_t0 = time.monotonic()
            try:
                with obs.span(f"{self.span_prefix}.{stage.name}") as sp:
                    budget = self._stage_budget(stage, deadline)
                    if stage.cache_key is None:
                        sp.set(cache="uncached")

                        def compute_guarded():
                            value = stage.compute(self.context, inputs)
                            self._apply_guard(stage, inputs, value)
                            return value

                        value = self._execute(stage, compute_guarded, budget)
                    else:
                        key = stage.cache_key(self.context, inputs)

                        def lookup():
                            return self.context.cache.get_or_compute_flagged(
                                key,
                                lambda: stage.compute(self.context, inputs),
                                persist=stage.persist,
                                cache_if=lambda v: self._apply_guard(
                                    stage, inputs, v
                                ),
                            )

                        value, hit = self._execute(stage, lookup, budget)
                        sp.set(cache="hit" if hit else "miss")
                        self._journal_stage(stage, key, value, hit)
            except StageTimeoutError:
                raise
            except Exception as exc:
                exc.stage = stage.name
                if hasattr(exc, "add_note"):  # Python >= 3.11
                    exc.add_note(f"while running flow stage {stage.name!r}")
                obs.count(f"stage.error.{stage.name}")
                raise
            # Histogram (not just the span) so repeated stages across a
            # fan-out yield percentiles, and the run ledger can track
            # per-stage wall time without re-walking the span tree.
            obs.observe(f"stage.wall_s.{stage.name}", time.monotonic() - stage_t0)
            artifacts[stage.output] = value
        return artifacts

    def _execute(self, stage: Stage, fn: Callable[[], Any], budget: float | None):
        if budget is None:
            return fn()
        return _run_bounded(stage, fn, budget)

    def _apply_guard(self, stage: Stage, inputs: Mapping[str, Any], value: Any) -> bool:
        """Check a freshly computed artifact; True means cacheable.

        Runs as the cache's ``cache_if`` predicate, so a violating
        artifact is quarantined (never stored) regardless of mode; in
        ``enforce`` mode the raise additionally fails the stage.
        """
        if stage.guard is None or guards.mode() == "off":
            return True
        violations = stage.guard(self.context, inputs, value)
        if not violations:
            return True
        obs.count("guard.violation")
        obs.count(f"guard.violation.{stage.name}")
        entries = [f"{stage.name}: {v}" for v in violations]
        self.guard_violations.extend(entries)
        if self.journal is not None:
            self.journal.record(
                "guard_violation", stage=stage.name, violations=entries
            )
        if guards.mode() == "enforce":
            raise GuardViolation(
                f"stage {stage.name!r} produced an invalid artifact: "
                + "; ".join(violations),
                site=f"guard.{stage.name}",
                stage=stage.name,
                violations=entries,
            )
        return False

    def _journal_stage(self, stage: Stage, key: str, value: Any, hit: bool) -> None:
        if self.journal is None:
            return
        from ..resilience.journal import artifact_digest

        try:
            digest = artifact_digest(value)
        except Exception:
            digest = None  # unpicklable stage output: record without digest
        self.journal.record(
            "stage", name=stage.name, key=key, digest=digest, cache_hit=hit
        )
