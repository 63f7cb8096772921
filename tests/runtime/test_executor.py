"""Trace executor: ordering, determinism, supervision, serial fallback."""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runtime.executor as executor_mod
from repro.features.extraction import extract_features
from repro.runtime.executor import (
    FailureReport,
    SupervisionPolicy,
    TraceExecutor,
    TraceTask,
    _run_trace_task,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.metrics import RuntimeMetrics
from repro.simulation.scenario import ScenarioConfig

from tests.conftest import small_config


@pytest.fixture
def no_backoff(monkeypatch):
    """Skip real backoff sleeps so retry tests run instantly."""
    waits: list[float] = []
    monkeypatch.setattr(executor_mod, "_sleep", waits.append)
    return waits


def tiny_config(seed: int) -> ScenarioConfig:
    return small_config(n_nodes=6, duration=100.0, max_connections=5, seed=seed)


def trace_fingerprint(trace) -> tuple:
    """Observables that pin down a trace bit-for-bit for our purposes."""
    features = extract_features(trace, monitor=0, periods=(5.0,), warmup=0.0)
    return (
        trace.data_originated,
        trace.data_delivered,
        tuple(trace.tick_times),
        features.X.tobytes(),
    )


class TestExecutor:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            TraceExecutor(jobs=0)

    def test_empty_batch(self):
        assert TraceExecutor(jobs=4).run([]) == []

    def test_results_preserve_task_order(self):
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6, 7)]
        traces = TraceExecutor(jobs=3).run(tasks)
        for task, trace in zip(tasks, traces):
            assert trace.config.seed == task.config.seed

    def test_parallel_matches_serial(self):
        """The acceptance property: jobs=N and jobs=1 agree bit-for-bit."""
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6, 7)]
        serial = TraceExecutor(jobs=1).run(tasks)
        parallel = TraceExecutor(jobs=3).run(tasks)
        for a, b in zip(serial, parallel):
            assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_metrics_record_each_trace(self):
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6)]
        TraceExecutor(jobs=1, metrics=metrics).run(tasks)
        assert metrics.simulations == 2
        assert sorted(label for label, _ in metrics.trace_seconds) == ["t5", "t6"]
        assert all(seconds >= 0 for _, seconds in metrics.trace_seconds)

    def test_falls_back_to_serial_when_pool_unavailable(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", NoPool)
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6)]
        traces = TraceExecutor(jobs=2, metrics=metrics).run(tasks)
        assert [t.config.seed for t in traces] == [5, 6]
        assert metrics.fallbacks == 1
        assert metrics.simulations == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_simulation_errors_surface_as_failure_report(self, jobs, no_backoff):
        """Persistent simulation failures surface as a structured report —
        after retries, and without losing the batch's good results."""
        from repro.attacks import BlackholeAttack

        bad = TraceTask(
            tiny_config(5),
            (BlackholeAttack(attacker=99, sessions=[(10.0, 20.0)]),),  # out of range
            "bad",
        )
        metrics = RuntimeMetrics()
        executor = TraceExecutor(jobs=jobs, metrics=metrics,
                                 policy=SupervisionPolicy(max_retries=1))
        with pytest.raises(FailureReport) as excinfo:
            executor.run([bad, TraceTask(tiny_config(6), (), "ok")])
        report = excinfo.value
        assert "attacker id" in str(report)
        assert report.completed == 1 and report.total == 2
        [failure] = report.task_failures
        assert failure.index == 0
        assert failure.label == "bad"
        assert failure.kind == "error"
        assert failure.attempts == 2  # first attempt + 1 retry
        assert metrics.task_failures == 1
        assert metrics.retries == 1
        assert metrics.simulations == 1  # the good task still completed

    def test_on_result_streams_completions(self):
        """on_result fires once per task, as completions happen."""
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6, 7)]
        flushed: dict[int, object] = {}
        results = TraceExecutor(jobs=1).run(
            tasks, on_result=lambda i, trace: flushed.setdefault(i, trace)
        )
        assert sorted(flushed) == [0, 1, 2]
        for i, trace in flushed.items():
            assert trace is results[i]

    def test_attack_tasks_round_trip(self):
        """Attack compositions survive the (potential) pickle boundary."""
        from repro.attacks import BlackholeAttack

        config = tiny_config(9)
        attacks = (BlackholeAttack(attacker=5, sessions=[(30.0, 60.0)]),)
        serial = TraceExecutor(jobs=1).run([TraceTask(config, attacks, "atk")])
        attacks2 = (BlackholeAttack(attacker=5, sessions=[(30.0, 60.0)]),)
        parallel = TraceExecutor(jobs=2).run(
            [TraceTask(config, attacks2, "atk"), TraceTask(tiny_config(10), (), "n")]
        )
        assert trace_fingerprint(serial[0]) == trace_fingerprint(parallel[0])
        assert serial[0].attack_intervals == [(30.0, 60.0)]


class OneGoodThenBrokenPool:
    """Fake pool: the first submitted task completes, every later future
    breaks — the deterministic skeleton of a worker crash mid-batch."""

    spawned = 0

    def __init__(self, max_workers=None):
        type(self).spawned += 1
        self._first = True

    def submit(self, fn, *args):
        fut = Future()
        if self._first:
            self._first = False
            fut.set_result(fn(*args))
        else:
            fut.set_exception(BrokenProcessPool("worker died"))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class AlwaysBrokenPool(OneGoodThenBrokenPool):
    """Fake pool where every future breaks: nothing parallel ever finishes."""

    def __init__(self, max_workers=None):
        super().__init__(max_workers)
        self._first = False


class TestSupervision:
    def test_pool_break_preserves_completed_results(self, monkeypatch, no_backoff):
        """The double-simulation regression: results computed before the
        pool broke must be reused, never re-simulated (and never counted
        twice as a ``simulated`` event)."""
        OneGoodThenBrokenPool.spawned = 0
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", OneGoodThenBrokenPool)
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6, 7)]
        executor = TraceExecutor(jobs=3, metrics=metrics,
                                 policy=SupervisionPolicy(max_pool_respawns=1))
        traces = executor.run(tasks)
        assert [t.config.seed for t in traces] == [5, 6, 7]
        # Each task simulated exactly once across pool attempts + fallback.
        labels = [label for label, _ in metrics.trace_seconds]
        assert sorted(labels) == ["t5", "t6", "t7"]
        assert metrics.simulations == 3
        assert metrics.respawns == 1            # one respawn attempt...
        assert metrics.fallbacks == 1           # ...then serial for the rest
        assert metrics.pool_failures == 1
        # respawn budget: initial pool + one respawn
        assert OneGoodThenBrokenPool.spawned == 2

    def test_respawn_resubmits_only_unfinished_tasks(self, monkeypatch, no_backoff):
        """Innocent tasks requeued by a crash are not charged retries."""
        AlwaysBrokenPool.spawned = 0
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", AlwaysBrokenPool)
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6)]
        executor = TraceExecutor(jobs=2, metrics=metrics,
                                 policy=SupervisionPolicy(max_pool_respawns=2))
        traces = executor.run(tasks)
        assert [t.config.seed for t in traces] == [5, 6]
        assert metrics.retries == 0             # no task budget charged
        # 2 tasks x (2 respawns + the serial pickup), all uncharged
        assert metrics.requeues == 6
        assert metrics.respawns == 2
        assert metrics.simulations == 2         # all finished serially, once

    def test_transient_fault_is_retried_serially(self, no_backoff):
        """A task that fails once recovers on the retry, bit-identically."""
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6)]
        faulty = TraceExecutor(
            jobs=1, metrics=metrics,
            faults=FaultPlan((FaultSpec("error", 0, (1,)),)),
        )
        traces = faulty.run(tasks)
        clean = TraceExecutor(jobs=1).run(tasks)
        assert metrics.retries == 1
        assert metrics.simulations == 2
        assert no_backoff == [pytest.approx(0.05)]  # one backoff wait
        for a, b in zip(traces, clean):
            assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_retry_budget_exhaustion_fails_with_taxonomy(self, no_backoff):
        """A fault on every submission exhausts the budget and reports."""
        metrics = RuntimeMetrics()
        tasks = [TraceTask(tiny_config(seed), (), f"t{seed}") for seed in (5, 6)]
        executor = TraceExecutor(
            jobs=1, metrics=metrics,
            policy=SupervisionPolicy(max_retries=1),
            faults=FaultPlan((FaultSpec("error", 0, (1, 2, 3, 4)),)),
        )
        with pytest.raises(FailureReport) as excinfo:
            executor.run(tasks)
        report = excinfo.value
        assert report.completed == 1 and report.total == 2
        assert report.task_failures[0].kind == "error"
        assert report.task_failures[0].attempts == 2
        assert "injected task error" in report.task_failures[0].error
        assert metrics.simulations == 1         # the healthy task completed

    def test_exponential_backoff_schedule(self, no_backoff):
        """Backoff doubles per charged attempt, capped by the policy."""
        policy = SupervisionPolicy(max_retries=3, backoff_base=0.1, backoff_cap=0.3)
        executor = TraceExecutor(
            jobs=1, policy=policy,
            faults=FaultPlan((FaultSpec("error", 0, (1, 2, 3)),)),
        )
        executor.run([TraceTask(tiny_config(5), (), "t5")])
        assert no_backoff == [pytest.approx(0.1), pytest.approx(0.2),
                              pytest.approx(0.3)]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_pool_respawns=-1)

    def test_worker_fault_spec_travels_through_pickling(self):
        """Fault specs ride into workers: a serial run of the wrapper with
        a spec behaves like the worker-side trip."""
        import pickle as _pickle

        spec = FaultSpec("error", 0, (1,))
        assert _pickle.loads(_pickle.dumps(spec)) == spec
        with pytest.raises(Exception, match="injected task error"):
            _run_trace_task(TraceTask(tiny_config(5), (), "t5"), spec, False)
