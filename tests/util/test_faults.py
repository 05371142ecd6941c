"""Unit tests for the deterministic fault-injection + retry machinery."""

import json

import pytest

from repro.nexus.h5lite import CorruptFileError, TruncatedFileError
from repro.util import trace as trace_mod
from repro.util.faults import (
    FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    InjectedKernelError,
    RankCrashError,
    RetryExhaustedError,
    RetryPolicy,
    active_plan,
    default_retryable,
    fault_point,
    in_recovery,
    recovery_scope,
    retry_call,
    set_fault_plan,
    use_fault_plan,
)
from repro.util.trace import Tracer, use_tracer
from repro.util.validation import ValidationError


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    """Each test starts and ends with injection disabled."""
    prev = active_plan()
    set_fault_plan(None)
    yield
    set_fault_plan(prev)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="x", kind="gremlins")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="x", kind="io_error", probability=1.5)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValidationError):
            FaultSpec(site="x", kind="io_error", scope="sometimes")

    def test_glob_site_matching(self):
        spec = FaultSpec(site="kernel.*", kind="kernel_error")
        assert spec.matches("kernel.mdnorm", None, None)
        assert spec.matches("kernel.binmd", None, None)
        assert not spec.matches("nexus.read_events", None, None)

    def test_rank_and_run_filters(self):
        spec = FaultSpec(site="run", kind="io_error", ranks=(1,), runs=(3,))
        assert spec.matches("run", 1, 3)
        assert not spec.matches("run", 0, 3)
        assert not spec.matches("run", 1, 2)
        # a filter on rank/run cannot match an anonymous fault point
        assert not spec.matches("run", None, 3)
        assert not spec.matches("run", 1, None)

    def test_json_round_trip(self):
        spec = FaultSpec(site="h5lite.read", kind="corrupt", probability=0.25,
                         max_hits=2, delay_s=0.0, ranks=(0, 2), runs=(1,),
                         scope="recovery")
        again = FaultSpec.from_json(spec.to_json())
        assert again == spec


class TestFaultPlanDeterminism:
    def _drive(self, plan):
        """A fixed injection workload: 3 ranks x 5 runs x 2 sites."""
        with use_fault_plan(plan):
            for rank in range(3):
                for run in range(5):
                    for site in ("nexus.read_events", "kernel.mdnorm"):
                        try:
                            fault_point(site, rank=rank, run=run)
                        except InjectedFault:
                            pass
        return plan.schedule_signature()

    def _specs(self):
        return [
            FaultSpec(site="nexus.read_events", kind="io_error",
                      probability=0.4),
            FaultSpec(site="kernel.*", kind="kernel_error", probability=0.3),
        ]

    @pytest.mark.parametrize("seed", range(50))
    def test_same_seed_same_schedule(self, seed):
        """The core determinism contract, swept over 50 seeds."""
        sig_a = self._drive(FaultPlan(self._specs(), seed=seed))
        sig_b = self._drive(FaultPlan(self._specs(), seed=seed))
        assert sig_a == sig_b

    def test_different_seeds_differ(self):
        sigs = {self._drive(FaultPlan(self._specs(), seed=s))
                for s in range(8)}
        assert len(sigs) > 1

    def test_reset_rewinds_schedule(self):
        plan = FaultPlan(self._specs(), seed=7)
        first = self._drive(plan)
        plan.reset()
        assert plan.stats()["injected"] == 0
        assert self._drive(plan) == first

    def test_rank_streams_independent(self):
        """Injections seen by rank 0 are identical whether or not other
        ranks also draw — the per-(site, rank) stream isolation that
        makes thread interleavings irrelevant."""
        def rank0_events(ranks):
            plan = FaultPlan(self._specs(), seed=13)
            with use_fault_plan(plan):
                for run in range(6):
                    for rank in ranks:
                        try:
                            fault_point("nexus.read_events", rank=rank, run=run)
                        except InjectedFault:
                            pass
            # seq is a per-site global counter, so compare (site, kind, run)
            return [(e["site"], e["kind"], e["run"])
                    for e in plan.events if e["rank"] == 0]

        assert rank0_events([0]) == rank0_events([2, 0, 1])

    def test_max_hits_budget(self):
        plan = FaultPlan(
            [FaultSpec(site="s", kind="io_error", probability=1.0, max_hits=2)],
            seed=1,
        )
        hits = 0
        with use_fault_plan(plan):
            for _ in range(10):
                try:
                    fault_point("s")
                except InjectedIOError:
                    hits += 1
        assert hits == 2
        assert plan.stats() == {"injected": 2, "by_site": {"s": 2},
                                "by_kind": {"io_error": 2}}

    def test_exhausted_spec_still_advances_draws(self):
        """A capped spec keeps consuming draws, so adding max_hits does
        not shift the schedule of later specs at the same site."""
        free = FaultPlan(
            [FaultSpec(site="s", kind="io_error", probability=0.5)], seed=3)
        capped = FaultPlan(
            [FaultSpec(site="s", kind="io_error", probability=0.5, max_hits=1)],
            seed=3,
        )
        def hit_pattern(plan):
            out = []
            with use_fault_plan(plan):
                for _ in range(12):
                    try:
                        fault_point("s")
                        out.append(0)
                    except InjectedIOError:
                        out.append(1)
            return out

        free_hits = hit_pattern(free)
        capped_hits = hit_pattern(capped)
        first = free_hits.index(1)
        assert capped_hits[: first + 1] == free_hits[: first + 1]
        assert sum(capped_hits) == 1


class TestFaultPlanSerialization:
    def test_plan_round_trip(self):
        plan = FaultPlan(
            [FaultSpec(site="a", kind="slow", delay_s=0.01),
             FaultSpec(site="b", kind="corrupt", scope="recovery")],
            seed=99, label="chaos",
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.seed == 99
        assert again.label == "chaos"
        assert again.specs == plan.specs

    def test_from_file_and_label_default(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"schema": 1, "seed": 4,
             "specs": [{"site": "x", "kind": "io_error"}]}))
        plan = FaultPlan.from_file(str(path))
        assert plan.seed == 4
        assert plan.label == "plan.json"

    def test_bad_schema_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json({"schema": 999, "specs": []})

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(FaultError):
            FaultPlan.from_file(str(path))


class TestActivePlanManagement:
    def test_no_plan_is_noop(self):
        fault_point("anything", run=1)  # must not raise

    def test_use_fault_plan_restores(self):
        outer = FaultPlan([], seed=1)
        inner = FaultPlan([], seed=2)
        set_fault_plan(outer)
        with use_fault_plan(inner):
            assert active_plan() is inner
        assert active_plan() is outer

    def test_ambient_env_plan(self, tmp_path, monkeypatch):
        path = tmp_path / "ambient.json"
        path.write_text(json.dumps(
            {"schema": 1, "seed": 0,
             "specs": [{"site": "env.site", "kind": "io_error"}]}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        set_fault_plan(None)
        import repro.util.faults as faults_mod
        faults_mod._active_plan = faults_mod._UNSET  # force lazy re-resolve
        plan = active_plan()
        assert plan is not None and plan.specs[0].site == "env.site"
        with pytest.raises(InjectedIOError):
            fault_point("env.site")
        set_fault_plan(None)


class TestFaultPointKinds:
    def _one_shot(self, kind, **spec_kw):
        return FaultPlan(
            [FaultSpec(site="s", kind=kind, probability=1.0, max_hits=1,
                       **spec_kw)],
            seed=0,
        )

    def test_io_error_is_oserror(self):
        with use_fault_plan(self._one_shot("io_error")):
            with pytest.raises(InjectedIOError) as exc:
                fault_point("s")
        assert isinstance(exc.value, OSError)

    def test_kernel_error(self):
        with use_fault_plan(self._one_shot("kernel_error")):
            with pytest.raises(InjectedKernelError):
                fault_point("s")

    def test_rank_crash(self):
        with use_fault_plan(self._one_shot("rank_crash")):
            with pytest.raises(RankCrashError):
                fault_point("s")

    def test_corrupt_uses_real_taxonomy(self):
        with use_fault_plan(self._one_shot("corrupt")):
            with pytest.raises(CorruptFileError):
                fault_point("s")

    def test_truncate_uses_real_taxonomy(self):
        with use_fault_plan(self._one_shot("truncate")):
            with pytest.raises(TruncatedFileError):
                fault_point("s")

    def test_slow_raises_nothing(self):
        with use_fault_plan(self._one_shot("slow", delay_s=0.0)):
            fault_point("s")

    def test_all_kinds_covered(self):
        assert set(FAULT_KINDS) == {
            "io_error", "corrupt", "truncate", "slow", "kernel_error",
            "rank_crash",
        }

    def test_injection_counts_traced(self):
        tracer = Tracer()
        with use_tracer(tracer), use_fault_plan(self._one_shot("io_error")):
            with pytest.raises(InjectedIOError):
                fault_point("s")
        assert tracer.counters["fault.injected"] == 1
        assert tracer.counters["fault.injected.s.io_error"] == 1

    def test_recovery_scope_gating(self):
        """scope='recovery' specs only fire under retry protection."""
        plan = FaultPlan(
            [FaultSpec(site="s", kind="io_error", probability=1.0,
                       scope="recovery")],
            seed=0,
        )
        with use_fault_plan(plan):
            fault_point("s")  # unprotected: no injection
            assert not in_recovery()
            with recovery_scope():
                assert in_recovery()
                with pytest.raises(InjectedIOError):
                    fault_point("s")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.0)

    def test_delay_shape(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3,
                        jitter=0.0)
        assert p.delay(1, 0.0) == pytest.approx(0.1)
        assert p.delay(2, 0.0) == pytest.approx(0.2)
        assert p.delay(3, 0.0) == pytest.approx(0.3)  # capped
        assert p.delay(9, 0.0) == pytest.approx(0.3)

    def test_jitter_scales_delay(self):
        p = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        assert p.delay(1, 1.0) == pytest.approx(0.15)


class TestRetryCall:
    def test_success_first_try(self):
        calls = []
        out = retry_call(lambda a: calls.append(a) or "ok", site="s")
        assert out == "ok" and calls == [1]

    def test_retries_then_succeeds(self):
        def fn(attempt):
            if attempt < 3:
                raise OSError("flaky")
            return attempt

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        assert retry_call(fn, site="s", policy=policy) == 3

    def test_exhaustion_chains_last_error(self):
        boom = OSError("persistent")

        def fn(attempt):
            raise boom

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(RetryExhaustedError) as exc:
            retry_call(fn, site="unit", policy=policy)
        assert exc.value.attempts == 3
        assert exc.value.last is boom
        assert exc.value.__cause__ is boom

    def test_non_retryable_propagates(self):
        def fn(attempt):
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(fn, site="s")

    def test_rank_crash_never_retried(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise RankCrashError("s", "rank_crash", 1)

        with pytest.raises(RankCrashError):
            retry_call(fn, site="s",
                       policy=RetryPolicy(max_attempts=5, base_delay_s=0.0))
        assert calls == [1]

    def test_on_retry_called_between_attempts(self):
        seen = []

        def fn(attempt):
            if attempt == 1:
                raise OSError("once")
            return "ok"

        retry_call(fn, site="s",
                   policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                   on_retry=lambda exc, a: seen.append((type(exc).__name__, a)))
        assert seen == [("OSError", 1)]

    def test_backoff_schedule_deterministic(self):
        def fn(attempt):
            raise OSError("always")

        policy = RetryPolicy(max_attempts=4, base_delay_s=0.125,
                             multiplier=2.0, max_delay_s=10.0, jitter=0.5)

        def sleeps():
            out = []
            with pytest.raises(RetryExhaustedError):
                retry_call(fn, site="det", policy=policy, sleep=out.append)
            return out

        a, b = sleeps(), sleeps()
        assert a == b                 # jitter stream is seeded by site
        assert len(a) == 3            # no sleep after the final attempt
        assert a[0] < a[1] < a[2]     # exponential growth dominates jitter

    def test_stops_at_first_success_with_attempts_to_spare(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise OSError("flaky")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        assert retry_call(fn, site="s", policy=policy) == "ok"
        assert calls == [1, 2, 3]

    def test_attempts_run_inside_recovery_scope(self):
        flags = []
        retry_call(lambda a: flags.append(in_recovery()), site="s")
        assert flags == [True]
        assert not in_recovery()

    def test_retry_counters_and_spans(self):
        tracer = Tracer()

        def fn(attempt):
            if attempt < 2:
                raise OSError("x")
            return "ok"

        with use_tracer(tracer):
            retry_call(fn, site="unit",
                       policy=RetryPolicy(max_attempts=3, base_delay_s=0.0))
        assert tracer.counters["retry.attempt"] == 1
        assert tracer.counters["retry.attempt.unit"] == 1
        names = [r["name"] for r in tracer.records]
        assert names.count("recover.attempt") == 2

    def test_default_retryable_members(self):
        kinds = default_retryable()
        assert OSError in kinds
        assert InjectedKernelError in kinds
        assert not issubclass(RankCrashError, tuple(kinds))


class TestRetiredRetryOptions:
    """A retry is bounded by ``max_attempts`` and shaped by backoff,
    nothing else: the cancel token, retry deadlines and the retryable
    override are gone."""

    def test_cancel_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.util.cancel  # noqa: F401

    def test_policy_has_no_deadline(self):
        with pytest.raises(TypeError, match="deadline_s"):
            RetryPolicy(deadline_s=1.0)

    @pytest.mark.parametrize("kwarg,value", [
        ("deadline", 1.0), ("clock", lambda: 0.0), ("retryable", (OSError,)),
    ], ids=["deadline", "clock", "retryable"])
    def test_retry_call_refuses_retired_keywords(self, kwarg, value):
        calls = []
        with pytest.raises(TypeError, match=kwarg):
            retry_call(calls.append, site="s", **{kwarg: value})
        assert calls == []
