"""Parallel fan-out: determinism and span propagation into workers."""

import pytest

from repro import obs
from repro.benchgen import build_circuit
from repro.charlib import default_library
from repro.core import ArtifactCache, DesignContext, run_scenarios
from repro.core.experiments import (
    figure2ab_cell_distributions,
    figure2c_power_breakdown,
)


class TestParallelMap:
    def test_serial_path_is_plain_map(self):
        assert obs.parallel_map(lambda x: x * 2, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_results_in_input_order(self):
        import time

        def slow_if_small(x):
            time.sleep(0.01 * (3 - x))
            return x * 10

        assert obs.parallel_map(slow_if_small, [0, 1, 2, 3], jobs=4) == [0, 10, 20, 30]

    def test_worker_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("task 2 failed")
            return x

        with pytest.raises(RuntimeError, match="task 2 failed"):
            obs.parallel_map(boom, [1, 2, 3], jobs=3)

    def test_effective_jobs(self):
        assert obs.effective_jobs(None) == 1
        assert obs.effective_jobs(0) == 1
        assert obs.effective_jobs(4) == 4


class TestFailureSemantics:
    @staticmethod
    def _boom(x):
        if x % 2:
            raise RuntimeError(f"task {x} failed")
        return x * 10

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_exception_annotated_with_index_and_label(self, jobs):
        with pytest.raises(RuntimeError) as info:
            obs.parallel_map(self._boom, [0, 1, 2], jobs=jobs)
        assert info.value.task_index == 1
        assert info.value.task_label == "_boom[1]"

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_label_sequence_and_callable(self, jobs):
        with pytest.raises(RuntimeError) as info:
            obs.parallel_map(
                self._boom, [0, 1], jobs=jobs, labels=["even", "odd"]
            )
        assert info.value.task_label == "odd"
        with pytest.raises(RuntimeError) as info:
            obs.parallel_map(
                self._boom, [0, 1], jobs=jobs, labels=lambda x: f"item-{x}"
            )
        assert info.value.task_label == "item-1"

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_task_failed_counter(self, jobs):
        with obs.Tracer() as tracer:
            with pytest.raises(RuntimeError):
                obs.parallel_map(self._boom, [0, 1], jobs=jobs)
        assert tracer.counters["parallel.task_failed"] == 1

    def test_fail_fast_drains_running_siblings(self):
        """fail_fast shuts the pool down with wait=True: started tasks
        run to completion, so no worker is abandoned mid-task."""
        import threading

        started = threading.Event()
        finished = []

        def task(x):
            if x == 0:
                started.wait(2.0)
                raise RuntimeError("fast failure")
            started.set()
            import time

            time.sleep(0.05)
            finished.append(x)
            return x

        with pytest.raises(RuntimeError):
            obs.parallel_map(task, [0, 1], jobs=2)
        assert finished == [1]

    def test_injected_worker_fault(self):
        from repro.resilience import (
            FaultPlan,
            FaultSpec,
            InjectedFaultError,
            injecting,
        )

        plan = FaultPlan([FaultSpec("parallel.worker", first_n=1)])
        with injecting(plan):
            with pytest.raises(InjectedFaultError) as info:
                obs.parallel_map(lambda x: x, [1, 2, 3], jobs=3)
        assert info.value.task_index == 0

    def test_spans_survive_workers(self):
        def work(name):
            with obs.span(f"task.{name}"):
                obs.count("tasks.done")
            return name

        with obs.Tracer() as tracer:
            with obs.span("fanout"):
                obs.parallel_map(work, ["a", "b", "c"], jobs=3)
        names = {s.name for s in tracer.spans}
        assert {"task.a", "task.b", "task.c", "fanout"} <= names
        fanout = next(s for s in tracer.spans if s.name == "fanout")
        for child in tracer.spans:
            if child.name.startswith("task."):
                assert child.parent_id == fanout.span_id
        assert tracer.counters["tasks.done"] == 3


# Serial-vs-threaded equality counts on identical site-check sequences;
# ambient injection assigns fire counters by worker interleaving instead.
@pytest.mark.no_chaos
class TestParallelDeterminism:
    def test_run_scenarios_jobs_invariant(self):
        aig = build_circuit("ctrl", "small")
        library = default_library(10.0)
        serial_ctx = DesignContext.from_library(library, cache=ArtifactCache())
        parallel_ctx = DesignContext.from_library(library, cache=ArtifactCache())
        serial = run_scenarios(aig, context=serial_ctx, vectors=64, jobs=1)
        threaded = run_scenarios(aig, context=parallel_ctx, vectors=64, jobs=4)
        assert sorted(serial) == sorted(threaded)
        for scenario in serial:
            assert serial[scenario].to_dict() == threaded[scenario].to_dict()

    def test_figure2ab_jobs_invariant(self):
        serial = figure2ab_cell_distributions(temperatures=(300.0, 10.0), jobs=1)
        threaded = figure2ab_cell_distributions(temperatures=(300.0, 10.0), jobs=4)
        assert serial == threaded

    def test_figure2c_jobs_invariant(self):
        kwargs = dict(circuits=["ctrl"], preset="small", vectors=64)
        serial = figure2c_power_breakdown(jobs=1, **kwargs)
        threaded = figure2c_power_breakdown(jobs=4, **kwargs)
        assert serial == threaded
