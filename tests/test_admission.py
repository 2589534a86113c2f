"""Admission control and the circuit breaker (repro.concurrent.admission).

Unit tests drive the controller and breaker directly (fake clock, no
threads); integration tests wire them into a real TransactionManager and
force deterministic overload with the ``on_evaluated`` gate.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpen,
    Database,
    Overloaded,
    RetryPolicy,
    Schema,
    TransactionStatus,
    transaction,
)
from repro.logic import builder as b


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


@pytest.fixture()
def programs():
    x, y = b.atom_var("x"), b.atom_var("y")
    return {
        "put_a": transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A")),
        "put_b": transaction("put-b", (x, y), b.insert(b.mktuple(x, y), "B")),
    }


@pytest.fixture()
def db(schema):
    return Database(schema, window=2)


# ---------------------------------------------------------------------------
# AdmissionController (unit)
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_reject_new_over_capacity(self):
        ctl = AdmissionController(max_pending=2, policy="reject-new")
        ctl.request("t1")
        ctl.request("t2")
        with pytest.raises(Overloaded) as exc:
            ctl.request("t3")
        assert exc.value.depth == 2 and exc.value.limit == 2
        assert exc.value.retry_after > 0
        assert ctl.rejected == 1 and ctl.depth == 2

    def test_begin_frees_a_slot(self):
        ctl = AdmissionController(max_pending=1)
        first = ctl.request("t1")
        assert not ctl.begin(first)
        ctl.request("t2")  # slot freed; admitted
        assert ctl.depth == 1

    def test_drop_oldest_sheds_the_queued_ticket(self):
        ctl = AdmissionController(max_pending=2, policy="drop-oldest")
        t1 = ctl.request("t1")
        t2 = ctl.request("t2")
        t3 = ctl.request("t3")  # admitted; t1 shed
        assert t1.shed and not t2.shed and not t3.shed
        assert isinstance(t1.shed_error, Overloaded)
        assert ctl.shed == 1 and ctl.depth == 2
        # The worker that eventually picks t1 up learns it was shed.
        assert ctl.begin(t1) is True
        assert ctl.begin(t2) is False

    def test_started_tickets_are_not_sheddable(self):
        ctl = AdmissionController(max_pending=1, policy="drop-oldest")
        t1 = ctl.request("t1")
        ctl.begin(t1)  # started: no longer sheddable, and its slot is freed
        t2 = ctl.request("t2")
        ctl.request("t3")  # full again; t2 (queued) is the one shed
        assert t2.shed and not t1.shed

    def test_retry_after_scales_with_depth(self):
        ctl = AdmissionController(max_pending=4, retry_hint_per_item=0.01)
        for i in range(4):
            ctl.request(f"t{i}")
        with pytest.raises(Overloaded) as exc:
            ctl.request("t4")
        assert exc.value.retry_after == pytest.approx(0.04)

    def test_validation_of_config(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(policy="random-drop")

    def test_unbounded_controller_admits_everything(self):
        ctl = AdmissionController(max_pending=None)
        for i in range(100):
            ctl.request(f"t{i}")
        assert ctl.depth == 100 and ctl.rejected == 0


# ---------------------------------------------------------------------------
# CircuitBreaker (unit, fake clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(clock, **kwargs) -> CircuitBreaker:
    defaults = dict(
        window=8, threshold=0.5, min_events=4, cooldown=1.0, probes=1
    )
    defaults.update(kwargs)
    return CircuitBreaker(clock=clock, **defaults)


class TestCircuitBreaker:
    def test_stays_closed_under_clean_traffic(self):
        breaker = make_breaker(FakeClock())
        for _ in range(20):
            breaker.record(True)
        assert breaker.state == "closed"
        assert breaker.admit() is False  # admitted, not a probe

    def test_trips_open_on_conflict_storm(self):
        breaker = make_breaker(FakeClock())
        for _ in range(4):
            breaker.record(False)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen) as exc:
            breaker.admit()
        assert exc.value.retry_after <= 1.0

    def test_needs_min_events_before_tripping(self):
        breaker = make_breaker(FakeClock(), min_events=4)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == "closed"  # 100% conflicts, but only 2 events

    def test_cooldown_then_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(1.5)
        assert breaker.state == "half_open"
        assert breaker.admit() is True  # the probe
        with pytest.raises(CircuitOpen):
            breaker.admit()  # only one probe slot
        breaker.record(True, probe=True)
        assert breaker.state == "closed"
        assert breaker.admit() is False

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(1.5)
        assert breaker.admit() is True
        breaker.record(False, probe=True)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            breaker.admit()

    def test_release_probe_unwedges_half_open(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record(False)
        clock.advance(1.5)
        assert breaker.admit() is True
        breaker.release_probe()  # probe's evaluation failed: no verdict
        assert breaker.admit() is True  # slot is free again

    def test_late_outcomes_ignored_while_open(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record(False)
        breaker.record(True)  # pre-trip straggler: not probe evidence
        assert breaker.state == "open"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=4, min_events=5)
        with pytest.raises(ValueError):
            CircuitBreaker(probes=0)


# ---------------------------------------------------------------------------
# Manager integration
# ---------------------------------------------------------------------------


class TestManagerIntegration:
    def test_reject_new_surfaces_overloaded_from_submit(self, db, programs):
        """One worker is parked inside evaluation; the bounded queue fills
        behind it and the next submit is refused with a typed error."""
        release = threading.Event()
        parked = threading.Event()

        def gate(attempt: int) -> None:
            parked.set()
            assert release.wait(10)

        ctl = AdmissionController(max_pending=2, policy="reject-new")
        with db.concurrent(workers=1, admission=ctl) as mgr:
            holder = mgr.submit(programs["put_a"], 0, 0, on_evaluated=gate)
            assert parked.wait(10)
            queued = [mgr.submit(programs["put_a"], i, i) for i in (1, 2)]
            with pytest.raises(Overloaded) as exc:
                mgr.submit(programs["put_a"], 9, 9)
            assert exc.value.depth == 2
            release.set()
            outcomes = [f.result() for f in (holder, *queued)]
            assert all(o.ok for o in outcomes)
        assert mgr.verify_serializable(outcomes)
        depth = db.metrics.get("repro_admission_depth")
        assert depth is not None and depth.value == 0
        rejected = db.metrics.get("repro_admission_rejected_total")
        assert rejected.value == 1

    def test_drop_oldest_resolves_shed_future_with_typed_outcome(
        self, db, programs
    ):
        release = threading.Event()
        parked = threading.Event()

        def gate(attempt: int) -> None:
            parked.set()
            assert release.wait(10)

        ctl = AdmissionController(max_pending=2, policy="drop-oldest")
        with db.concurrent(workers=1, admission=ctl) as mgr:
            holder = mgr.submit(programs["put_a"], 0, 0, on_evaluated=gate)
            assert parked.wait(10)
            oldest = mgr.submit(programs["put_a"], 1, 1, label="victim")
            newer = mgr.submit(programs["put_a"], 2, 2)
            newest = mgr.submit(programs["put_a"], 3, 3)  # sheds "victim"
            release.set()
            shed_outcome = oldest.result()
            assert shed_outcome.status is TransactionStatus.ABORTED
            assert isinstance(shed_outcome.error, Overloaded)
            assert shed_outcome.attempts == 0  # never evaluated
            outcomes = [f.result() for f in (holder, newer, newest)]
            assert all(o.ok for o in outcomes)
        assert mgr.verify_serializable(outcomes + [shed_outcome])
        assert db.metrics.get("repro_admission_shed_total").value == 1

    def test_breaker_opens_under_injected_conflict_storm(self, db, programs):
        """A chaos stub forces every validation to conflict; the breaker
        must trip and refuse the next submission with CircuitOpen."""

        class AlwaysConflict:
            def validation_conflict(self, label, attempt):
                return frozenset({"<storm>"})

        breaker = CircuitBreaker(
            window=8, threshold=0.5, min_events=4, cooldown=60.0, probes=1
        )
        ctl = AdmissionController(max_pending=None, breaker=breaker)
        from repro.concurrent.scheduler import TransactionManager

        mgr = TransactionManager(
            db,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            admission=ctl,
            chaos=AlwaysConflict(),
        )
        with mgr:
            outcomes = [
                mgr.submit(programs["put_a"], i, i).result()
                for i in range(2)  # 2 conflicted attempts each = 4 events
            ]
            assert all(
                o.status is TransactionStatus.ABORTED for o in outcomes
            )
            assert breaker.state == "open"
            with pytest.raises(CircuitOpen):
                mgr.submit(programs["put_a"], 9, 9)
        state = db.metrics.get("repro_breaker_state", state="open")
        assert state is not None and state.value == 1.0
        transitions = db.metrics.get("repro_breaker_transitions_total", to="open")
        assert transitions.value >= 1

    def test_breaker_recovers_after_storm_passes(self, db, programs):
        class StormUntilCleared:
            def __init__(self):
                self.storming = True

            def validation_conflict(self, label, attempt):
                return frozenset({"<storm>"}) if self.storming else None

        chaos = StormUntilCleared()
        breaker = CircuitBreaker(
            window=8, threshold=0.5, min_events=4, cooldown=0.0, probes=1
        )
        ctl = AdmissionController(max_pending=None, breaker=breaker)
        from repro.concurrent.scheduler import TransactionManager

        mgr = TransactionManager(
            db,
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            admission=ctl,
            chaos=chaos,
        )
        with mgr:
            outcomes = [
                mgr.submit(programs["put_a"], i, i).result() for i in range(3)
            ]
            assert breaker.state in ("open", "half_open")
            chaos.storming = False
            # cooldown=0: the next submission is the half-open probe; its
            # clean commit closes the breaker.
            probe = mgr.submit(programs["put_a"], 10, 10).result()
            assert probe.ok
            assert breaker.state == "closed"
            last = mgr.submit(programs["put_a"], 11, 11).result()
            assert last.ok
        assert mgr.verify_serializable(outcomes + [probe, last])

    def test_admission_adopts_database_metrics(self, db, programs):
        ctl = AdmissionController(max_pending=4)
        with db.concurrent(workers=1, admission=ctl) as mgr:
            mgr.execute(programs["put_a"], 1, 1)
        assert ctl.metrics is db.metrics
