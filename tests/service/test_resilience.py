"""Unit tests for the resilience layer, all on injected fake clocks.

The circuit breaker, quarantine rule, brownout policy and spool budget
are pure policy objects -- no threads of their own, no wall time -- so every
transition here is driven deterministically: the clock advances only
when a test says so, and jitter comes from a seeded stream.
"""

from __future__ import annotations

import pytest

from repro.observe import MetricsRegistry
from repro.observe.tracer import Tracer
from repro.service.jobs import JobRecord, JobSpec
from repro.service.queue import AdmissionRejected, JobQueue
from repro.service.resilience import (
    BreakerConfig,
    BreakerState,
    BrownoutPolicy,
    CircuitBreaker,
    HealthReport,
    ResilienceConfig,
    SpoolBudget,
    describe_exit,
    post_mortem,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_breaker(**cfg) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    cfg.setdefault("death_threshold", 3)
    cfg.setdefault("window_seconds", 10.0)
    cfg.setdefault("cooldown_seconds", 1.0)
    cfg.setdefault("max_cooldown_seconds", 4.0)
    cfg.setdefault("jitter", 0.0)
    return CircuitBreaker(BreakerConfig(**cfg), clock=clock), clock


class TestBreakerStateMachine:
    def test_closed_grants_normal_permits(self):
        b, _ = make_breaker()
        assert b.state is BreakerState.CLOSED
        assert b.acquire() == "normal"
        assert b.acquire() == "normal"  # no limit while closed

    def test_trips_open_after_threshold_deaths_in_window(self):
        b, clock = make_breaker()
        for _ in range(2):
            b.record_death()
            clock.advance(0.1)
        assert b.state is BreakerState.CLOSED
        b.record_death()
        assert b.state is BreakerState.OPEN
        assert b.acquire() is None
        assert b.trips == 1

    def test_window_slides_old_deaths_out(self):
        b, clock = make_breaker()
        b.record_death()
        b.record_death()
        clock.advance(11.0)  # both deaths age out of the 10 s window
        b.record_death()
        assert b.state is BreakerState.CLOSED

    def test_half_open_grants_exactly_one_canary(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        clock.advance(1.0)  # cooldown elapses
        assert b.state is BreakerState.HALF_OPEN
        assert b.acquire() == "canary"
        assert b.acquire() is None  # only one canary at a time

    def test_surviving_canary_closes_breaker(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        clock.advance(1.0)
        permit = b.acquire()
        b.release(permit, died=False)
        assert b.state is BreakerState.CLOSED
        assert b.canary_successes == 1
        assert b.acquire() == "normal"

    def test_canary_death_reopens_with_doubled_cooldown(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        clock.advance(1.0)
        assert b.acquire() == "canary"
        b.record_death()  # the canary's worker died
        assert b.state is BreakerState.OPEN
        assert b.snapshot()["cooldown_seconds"] == 2.0
        clock.advance(1.0)
        assert b.state is BreakerState.OPEN  # doubled: 1 s is not enough
        clock.advance(1.0)
        assert b.state is BreakerState.HALF_OPEN

    def test_cooldown_doubling_is_capped(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        for _ in range(5):  # kill every canary
            clock.advance(b.snapshot()["cooldown_seconds"])
            assert b.acquire() == "canary"
            b.record_death()
        assert b.snapshot()["cooldown_seconds"] == 4.0  # max_cooldown
        assert b.canary_failures == 5

    def test_abandon_frees_the_canary_slot(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        clock.advance(1.0)
        permit = b.acquire()
        assert b.acquire() is None
        b.abandon(permit)  # queue was empty; nothing probed
        assert b.acquire() == "canary"

    def test_success_after_close_resets_cooldown(self):
        b, clock = make_breaker()
        for _ in range(3):
            b.record_death()
        clock.advance(1.0)
        b.record_death()  # canary-less death in half-open state: no reopen
        assert b.acquire() == "canary"
        b.release("canary", died=False)
        assert b.snapshot()["cooldown_seconds"] == 1.0

    def test_state_gauge_and_tracer_events_published(self):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=True)
        clock = FakeClock()
        b = CircuitBreaker(
            BreakerConfig(death_threshold=2, window_seconds=10.0,
                          cooldown_seconds=1.0, jitter=0.0),
            clock=clock, metrics=metrics, tracer=tracer,
        )
        b.record_death()
        b.record_death()
        assert metrics.gauge("service.breaker_state").value == 2  # open
        clock.advance(1.0)
        assert b.state is BreakerState.HALF_OPEN
        assert metrics.gauge("service.breaker_state").value == 1
        names = [s.name for s in tracer.spans]
        assert "breaker:open" in names
        assert "breaker:half_open" in names
        assert metrics.counter("service.breaker_trips").value == 1


class TestRespawnBackoff:
    def test_deterministic_exponential_when_jitter_zero(self):
        b, _ = make_breaker(respawn_base=0.1, respawn_cap=1.0, jitter=0.0)
        assert b.respawn_backoff(1) == pytest.approx(0.1)
        assert b.respawn_backoff(2) == pytest.approx(0.2)
        assert b.respawn_backoff(3) == pytest.approx(0.4)
        assert b.respawn_backoff(10) == pytest.approx(1.0)  # capped

    def test_jitter_bounded_and_seed_replayable(self):
        cfg = dict(respawn_base=0.1, respawn_cap=5.0, jitter=0.5, seed=7)
        b1, _ = make_breaker(**cfg)
        b2, _ = make_breaker(**cfg)
        seq1 = [b1.respawn_backoff(n) for n in (1, 2, 3, 4)]
        seq2 = [b2.respawn_backoff(n) for n in (1, 2, 3, 4)]
        assert seq1 == seq2  # same seed -> identical jitter stream
        for n, delay in zip((1, 2, 3, 4), seq1):
            full = 0.1 * 2 ** (n - 1)
            assert full * 0.5 <= delay <= full


def died(record: JobRecord, signal: str, cause: str = "worker_death",
         at: float = 0.0) -> JobRecord:
    """Record one worker death on ``record`` the way the pool does."""
    record.attempts += 1
    record.death_events.append({
        "attempt": record.attempts, "signal": signal,
        "cause": cause, "at": at,
    })
    return record


class TestPoisonTracker:
    """Quarantine counts a job's own ``death_events``; the post-mortem
    is built from that record plus one journal read."""

    def test_quarantine_at_threshold(self):
        config = ResilienceConfig(quarantine_threshold=3)
        rec = JobRecord(spec=JobSpec(dataset="d"))
        assert config.quarantines(died(rec, "SIGKILL")) is False
        assert config.quarantines(died(rec, "SIGKILL")) is False
        assert config.quarantines(died(rec, "SIGSEGV")) is True
        with pytest.raises(ValueError):
            ResilienceConfig(quarantine_threshold=0)

    def test_deaths_attributed_per_job(self):
        config = ResilienceConfig(quarantine_threshold=2)
        a = died(JobRecord(spec=JobSpec(dataset="d")), "SIGKILL")
        b = died(JobRecord(spec=JobSpec(dataset="d")), "SIGKILL")
        assert config.quarantines(b) is False  # separate jobs
        assert config.quarantines(died(a, "SIGKILL")) is True

    def test_post_mortem_structure(self, tmp_path):
        from repro.recovery.journal import RunJournal

        rec = JobRecord(spec=JobSpec(dataset="d"))
        died(rec, "SIGKILL", cause="worker_death")
        died(rec, "deadline-kill", cause="deadline", at=5.0)
        journal = tmp_path / "journal.jsonl"
        with RunJournal.create(journal, {"dataset": {}, "options": {}}) as j:
            j.record_milestone("phase1_complete", pairs=12)
        pm = post_mortem(rec, 2, journal_path=journal)
        assert pm == {
            "job_id": rec.id,
            "worker_deaths": 2,
            "threshold": 2,
            "death_signals": ["SIGKILL", "deadline-kill"],
            "deaths": [
                {"attempt": 1, "signal": "SIGKILL",
                 "cause": "worker_death", "at": 0.0},
                {"attempt": 2, "signal": "deadline-kill",
                 "cause": "deadline", "at": 5.0},
            ],
            "last_milestone": "phase1_complete",
            "journaled_pairs": 0,
        }
        assert rec.error_detail()["death_signals"] == [
            "SIGKILL", "deadline-kill"]

    def test_post_mortem_without_journal(self, tmp_path):
        rec = died(JobRecord(spec=JobSpec(dataset="d")), "SIGKILL")
        pm = post_mortem(rec, 1, tmp_path / "never-written.jsonl")
        assert pm["worker_deaths"] == 1
        assert pm["last_milestone"] is None
        assert pm["journaled_pairs"] == 0


class TestDescribeExit:
    @pytest.mark.parametrize("code,name", [
        (-9, "SIGKILL"), (-11, "SIGSEGV"), (0, "exit(0)"),
        (1, "exit(1)"), (None, "unknown"),
    ])
    def test_names(self, code, name):
        assert describe_exit(code) == name


class TestBrownoutPolicy:
    def test_parse_bare_mode(self):
        assert BrownoutPolicy.parse("off").mode == "off"
        assert BrownoutPolicy.parse("degrade").mode == "degrade"

    def test_parse_with_knobs(self):
        p = BrownoutPolicy.parse(
            "degrade:depth=0.9,degraded-depth=0.5,shed-priority=4,ewma-high=20"
        )
        assert p.brownout_depth == 0.9
        assert p.degraded_depth == 0.5
        assert p.shed_priority_brownout == 4
        assert p.ewma_high == 20.0

    @pytest.mark.parametrize("bad", [
        "loud", "shed:depth=2.0", "shed:wat=1", "shed:depth",
        "", ":depth=0.8", "degrade:compose-budget=1048576",
    ])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            BrownoutPolicy.parse(bad)


def assess(policy: BrownoutPolicy, **kw) -> HealthReport:
    kw.setdefault("depth", 0)
    kw.setdefault("max_depth", 10)
    kw.setdefault("workers_alive", 2)
    kw.setdefault("workers_total", 2)
    return policy.assess(**kw)


def record(priority: int = 0) -> JobRecord:
    return JobRecord(spec=JobSpec(dataset="/d", priority=priority))


class TestLoadShedder:
    def test_ok_when_idle(self):
        s = BrownoutPolicy(mode="shed")
        report = assess(s)
        assert report.ok and report.status == "ok" and report.reasons == ()

    def test_degraded_then_browned_out_by_depth(self):
        s = BrownoutPolicy(mode="shed", degraded_depth=0.6,
                           brownout_depth=0.9)
        assert assess(s, depth=6).status == "degraded"
        assert assess(s, depth=9).status == "browned_out"

    def test_no_live_workers_is_brownout(self):
        s = BrownoutPolicy(mode="off")
        report = assess(s, workers_alive=0)
        assert report.status == "browned_out"
        assert any("no live workers" in r for r in report.reasons)

    def test_partial_worker_loss_is_reason_not_brownout(self):
        s = BrownoutPolicy(mode="shed")
        report = assess(s, workers_alive=1, workers_total=2)
        assert report.status == "degraded"

    def test_open_breaker_is_brownout(self):
        s = BrownoutPolicy(mode="shed")
        report = assess(s, breaker_state=BreakerState.OPEN)
        assert report.status == "browned_out"

    def test_ewma_threshold(self):
        s = BrownoutPolicy(mode="shed", ewma_high=30.0)
        assert assess(s, service_ewma=10.0).ok
        assert assess(s, service_ewma=35.0).status == "degraded"

    def test_shed_floor_by_mode_and_status(self):
        degraded = HealthReport("degraded", ("q",))
        browned = HealthReport("browned_out", ("q",))
        off = BrownoutPolicy(mode="off")
        assert off.shed(0, browned) is None
        shed = BrownoutPolicy(
            mode="shed", shed_priority_degraded=2, shed_priority_brownout=5)
        assert shed.shed(0, HealthReport("ok")) is None
        # The floor is the lowest priority admitted: 2 degraded, 5 browned.
        assert shed.shed(1, degraded) is not None
        assert shed.shed(2, degraded) is None
        assert shed.shed(4, browned) is not None
        assert shed.shed(5, browned) is None

    def test_check_admission_sheds_lowest_priority_first(self):
        metrics = MetricsRegistry()
        q = JobQueue(workers=1, metrics=metrics)
        q.note_job_seconds(6.0)  # EWMA hint: 6 s x (depth 0 + 1) = 6 s
        policy = BrownoutPolicy(mode="shed")
        browned = HealthReport("browned_out", ("queue full",))
        with pytest.raises(AdmissionRejected) as exc_info:
            q.admit(record(0), shed=policy.shed(0, browned))
        assert exc_info.value.reason == "shed_load"
        assert exc_info.value.retry_after == 6.0
        assert "shedding priority < 5" in str(exc_info.value)
        # Priority at/above the floor rides through.
        q.admit(record(5), shed=policy.shed(5, browned))
        assert metrics.counter("service.shed_requests").value == 1
        assert q.depth() == 1

    def test_degrade_options_only_in_degrade_mode(self):
        browned = HealthReport("browned_out", ("q",))
        degraded = HealthReport("degraded", ("q",))
        ok = HealthReport("ok")
        assert not BrownoutPolicy(mode="shed").skips_compose(browned)
        d = BrownoutPolicy(mode="degrade")
        assert not d.skips_compose(ok)
        # One tier: only a browned-out service drops work, and only output.
        assert not d.skips_compose(degraded)
        assert d.skips_compose(browned)


class TestSpoolBudget:
    def make(self, tmp_path, max_bytes, **kw):
        clock = FakeClock()
        kw.setdefault("ttl", 1.0)
        return SpoolBudget(tmp_path, max_bytes, clock=clock, **kw), clock

    def test_usage_counts_spool_bytes(self, tmp_path):
        budget, _ = self.make(tmp_path, 1000)
        (tmp_path / "a").write_bytes(b"x" * 100)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b").write_bytes(b"y" * 50)
        assert budget.usage() == 150

    def test_admit_rejects_over_budget(self, tmp_path):
        metrics = MetricsRegistry()
        budget, _ = self.make(tmp_path, 200, per_job_estimate=100,
                              metrics=metrics)
        q = JobQueue(metrics=metrics)
        (tmp_path / "a").write_bytes(b"x" * 150)
        with pytest.raises(AdmissionRejected) as exc_info:
            q.admit(record(), spool=budget)
        assert exc_info.value.reason == "spool_budget"
        assert exc_info.value.retry_after == 30.0
        assert "spool holds 150 bytes of a 200-byte budget" in str(
            exc_info.value)
        assert metrics.counter("service.spool_budget_rejected").value == 1
        assert q.depth() == 0
        assert budget.refusal(estimate=50) is None  # exactly fits

    def test_usage_cached_within_ttl(self, tmp_path):
        budget, clock = self.make(tmp_path, 1000)
        (tmp_path / "a").write_bytes(b"x" * 10)
        assert budget.usage() == 10
        (tmp_path / "b").write_bytes(b"y" * 90)
        assert budget.usage() == 10  # stale but cheap
        clock.advance(2.0)
        assert budget.usage() == 100

    def test_admit_rewalks_before_rejecting(self, tmp_path):
        """A stale over-budget cache must not 429 a fresh disk."""
        budget, _ = self.make(tmp_path, 200, per_job_estimate=100)
        big = tmp_path / "old-job"
        big.write_bytes(b"x" * 180)
        assert budget.usage() == 180
        big.unlink()  # cleanup freed the space; cache still says 180
        assert budget.refusal() is None  # re-walk sees 0 -> admitted

    def test_refresh_publishes_gauge(self, tmp_path):
        metrics = MetricsRegistry()
        budget, _ = self.make(tmp_path, 1000, metrics=metrics)
        (tmp_path / "a").write_bytes(b"x" * 42)
        budget.refresh()
        assert metrics.gauge("service.spool_bytes").value == 42


class TestDegradeSpec:
    """Server-side application of the brownout degradation to job specs."""

    def test_brownout_tier_still_skips_compose(self):
        from repro.service.server import StitchService

        spec = JobSpec(dataset="/d", output="/out/m.tif",
                       options={"memory_budget": 1000})
        new, applied = StitchService._degrade_spec(spec)
        assert applied == ["skip_compose"]
        assert new.output is None
        assert new.options == spec.options  # no option changed
        # A job without output loses nothing, and its record says so.
        bare = JobSpec(dataset="/d")
        assert StitchService._degrade_spec(bare) == (bare, [])
