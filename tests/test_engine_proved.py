"""Proved-preserved constraints: proved once, skipped at every commit.

The first time a commit carries a program object, the database proves each
installed constraint against it with the verifier; a ``PROVED`` pair is
then skipped at every commit of that program whose window the constraint
held over.  These tests run the same streams twice in lockstep — once
through ``execute(program)``, once as ``program.run`` then a bare
``apply(after)``, which checks every constraint — and require the same
verdict for every op, the same final state, and a skip for every proved
pair.  Then each exclusion: a window of three or more states, a relation a
history encoding writes, a name without an object, another object under
the same name, and a constraint that does not hold yet.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, Schema, transaction
from repro.constraints.checkability import analyze
from repro.constraints.history import HistoryEncoding
from repro.constraints.model import Constraint
from repro.domains import make_banking_domain
from repro.errors import ConstraintViolation
from repro.logic import builder as b
from repro.storage import state_digest
from repro.verification.verifier import Verdict, Verifier

x, y = b.atom_var("x"), b.atom_var("y")


def proved_skips(record) -> list[str]:
    return [s.constraint.name for s in record.skipped if s.reason.startswith("proved")]


def commit(db: Database, program, args, *, proving: bool) -> str:
    """``commit`` or ``reject:<constraint>``; ``proving`` commits the
    program object, otherwise a bare post-state."""
    try:
        if proving:
            db.execute(program, *args)
        else:
            after = program.run(db.current, *args, interpreter=db.interpreter)
            db.apply(after, label=program.name)
    except ConstraintViolation as violation:
        return f"reject:{violation.constraint_name}"
    return "commit"


def lockstep(build, ops):
    """Run ``ops`` — ``(program name, args)`` — on two databases ``build``
    makes; returns the proving one, its programs, the verdict of each op
    and the (constraint, program) pairs it skipped by proof, counted."""
    proving, programs = build()
    checking, _ = build()
    verdicts, skipped = [], {}
    for name, args in ops:
        program = programs[name]
        verdict = commit(proving, program, args, proving=True)
        assert verdict == commit(checking, program, args, proving=False), (name, args)
        assert not proved_skips(checking.last_record)
        verdicts.append(verdict)
        for constraint in proved_skips(proving.last_record):
            skipped[constraint, name] = skipped.get((constraint, name), 0) + 1
    assert state_digest(proving.current) == state_digest(checking.current)
    return proving, programs, verdicts, skipped


def proved_pairs(db: Database, programs, run: set[str]) -> set[tuple[str, str]]:
    """The (constraint, program) pairs a proof may stand in for, by the
    verifier and the window rule."""
    return {
        (c.name, p.name)
        for c in db.schema.constraints
        if analyze(c).window in (1, 2)
        for p in programs.values()
        if p.name in run and Verifier().verify(c, p).verdict is Verdict.PROVED
    }


@pytest.mark.parametrize("name, ops", [("emp_oltp", 400), ("emp_paper", 300)])
def test_the_emp_streams_agree_with_checking_every_constraint(name, ops):
    """Equal verdicts op for op (the generator's, a rejection naming its
    constraint), equal final digests, and a skip for every proved pair the
    stream ran — ``dept-deletion-precondition`` for every write program."""
    workloads = pytest.importorskip("benchmarks.ledger.workloads")
    workload = workloads.WORKLOADS[name]

    def build():
        built = workload.build(1, None)
        return built.database, {p.name: p for p in built.programs}

    stream = [op for op, _ in zip(workload.stream(1, 0, 1), range(ops))]
    writes = [op for op in stream if op.kind != "query"]
    assert all(op.kind == "execute" for op in writes)
    db, programs, verdicts, skipped = lockstep(
        build, [(op.program, op.args) for op in writes]
    )
    assert verdicts == [op.expect for op in writes]
    assert any(v != "commit" for v in verdicts)
    run = {op.program for op in writes}
    assert len(run) == 9
    expected = proved_pairs(db, programs, run)
    assert {("dept-deletion-precondition", p) for p in run} <= expected
    assert set(skipped) == expected
    assert not any(c == "salary-decrease-needs-dept-change" for c, _ in skipped)


def test_a_banking_stream_agrees_with_checking_every_constraint():
    """A seeded banking stream — duplicate owners and balances the audit
    trail does not explain rejected — under its three window-checkable
    constraints."""
    rng = random.Random(7)
    owners = ["ada", "bob", "cyd", "dan"]
    kinds = ["deposit", "withdraw", "freeze", "unfreeze", "open-account"]
    ops = []
    for _ in range(120):
        kind = rng.choice(kinds)
        args = (rng.choice(owners),)
        if kind in ("deposit", "withdraw"):
            args += (rng.randint(1, 40),)
        ops.append((kind, args))

    def build():
        bank = make_banking_domain()
        for constraint in bank.constraints()[:3]:
            bank.schema.add_constraint(constraint)
        db = Database(bank.schema, window=2, initial=bank.sample_state())
        programs = {
            p.name: p for p in (bank.deposit, bank.withdraw, bank.freeze,
                                bank.unfreeze, bank.open_account)
        }
        return db, programs

    db, programs, verdicts, skipped = lockstep(build, ops)
    assert "commit" in verdicts and len(set(verdicts)) > 1
    assert set(skipped) == proved_pairs(db, programs, {name for name, _ in ops})
    assert skipped


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


put_a = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A"))
put_b = transaction("put-b", (x, y), b.insert(b.mktuple(x, y), "B"))


def b_stays_empty() -> Constraint:
    s, t = b.state_var("s"), b.ftup_var("t", 2)
    return Constraint(
        "b-stays-empty",
        b.forall(s, b.holds(s, b.lnot(b.exists(t, b.member(t, b.rel("B", 2)))))),
        declared_window=1,
    )


def test_a_proved_pair_is_skipped_from_the_second_commit_with_its_reason(schema):
    """The first commit checks every constraint — it is the base the proof
    builds on — and each later commit of the program skips the pair."""
    schema.add_constraint(b_stays_empty())
    db = Database(schema, window=2)
    db.execute(put_a, 1, 1)
    assert [r.constraint.name for r in db.last_record.results] == ["b-stays-empty"]
    for i in range(3):
        db.execute(put_a, i, i)
        assert not db.last_record.results
        (skip,) = db.last_record.skipped
        assert skip.reason == (
            "proved preserved by put-a: frame: regression left the constraint untouched"
        )


def test_the_scheduler_commits_the_program_object(schema):
    """A write through the optimistic scheduler is skipped by proof too."""
    schema.add_constraint(b_stays_empty())
    db = Database(schema, window=2)
    with db.concurrent(workers=1) as mgr:
        first = mgr.execute(put_a, 1, 1)
        second = mgr.execute(put_a, 2, 2)
        bad = mgr.execute(put_b, 1, 1)
    assert first.record.constraint_results == (("b-stays-empty", True),)
    assert second.ok and second.record.constraint_results == ()
    assert not bad.ok and bad.error.constraint_name == "b-stays-empty"


def test_each_pair_is_proved_once_whatever_its_verdict(schema, monkeypatch):
    """Every verdict is kept, UNKNOWN included: no pair is proved twice."""
    schema.add_constraint(b_stays_empty())
    calls = []
    verify = Verifier.verify

    def counting(self, constraint, program, scenarios=()):
        calls.append((constraint.name, program.name))
        return verify(self, constraint, program, scenarios)

    monkeypatch.setattr(Verifier, "verify", counting)
    db = Database(schema, window=2)
    assert calls == []  # nothing is proved at construction
    for i in range(5):
        db.execute(put_a, i, i)
        db.try_execute(put_b, i, i)
    assert sorted(calls) == [("b-stays-empty", "put-a"), ("b-stays-empty", "put-b")]


def test_a_name_is_no_proof(schema):
    """``apply`` with only a program name checks the constraint every time."""
    schema.add_constraint(b_stays_empty())
    db = Database(schema, window=2)
    for i in range(3):
        db.apply(put_a.run(db.current, i, i), program_name="put-a")
        assert [r.constraint.name for r in db.last_record.results] == ["b-stays-empty"]


def test_another_object_under_the_same_name_is_proved_afresh(schema):
    schema.add_constraint(b_stays_empty())
    db = Database(schema, window=2)
    db.execute(put_a, 1, 1)
    db.execute(put_a, 2, 2)
    assert proved_skips(db.last_record) == ["b-stays-empty"]
    impostor = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "B"))
    with pytest.raises(ConstraintViolation) as caught:
        db.execute(impostor, 3, 3)
    assert caught.value.constraint_name == "b-stays-empty"
    assert len(db.current.relation("B")) == 0


def test_a_window_of_three_states_is_never_skipped(schema):
    """The VC stands for one run of the program, not a composition."""
    s, t1, t2, r = (b.state_var("s"), b.trans_var("t1"), b.trans_var("t2"),
                    b.ftup_var("r", 2))
    b_rows_stay = Constraint(
        "b-rows-stay-two-steps",
        b.forall([s, t1, t2, r], b.implies(
            b.holds(s, b.member(r, b.rel("B", 2))),
            b.holds(b.after(b.after(s, t1), t2), b.member(r, b.rel("B", 2))),
        )),
        declared_window=3,
    )
    assert Verifier().verify(b_rows_stay, put_a).verdict is Verdict.PROVED
    schema.add_constraint(b_rows_stay)
    db = Database(schema, window=3)
    for i in range(4):
        db.execute(put_a, i, i)
        assert [r.constraint.name for r in db.last_record.results] == [b_rows_stay.name]


def test_a_relation_an_encoding_writes_keeps_its_constraint_checked(schema):
    """The proof covers the program's body, not the encoding's ``record``
    step: a constraint that reads the log is checked — including one whose
    proof was already in force when the encoding was registered."""
    schema.add_relation("GONE", ("k",))
    encoding = HistoryEncoding(schema.relation("A"), "GONE", "k")
    excludes = encoding.static_constraint()
    assert Verifier().verify(excludes, put_b).verdict is Verdict.PROVED
    schema.add_constraint(excludes)
    db = Database(schema, window=2)
    db.execute(put_b, 1, 1)
    db.execute(put_b, 2, 2)
    assert proved_skips(db.last_record) == [excludes.name]
    db.register_encoding(encoding)
    for i in range(3):
        db.execute(put_b, 3 + i, i)
        assert [r.constraint.name for r in db.last_record.results] == [excludes.name]


def test_a_constraint_that_does_not_hold_yet_is_checked(schema):
    """A proof carries a constraint over a step; it does not establish it.
    A constraint added to a state that violates it is checked — and
    rejects — though the program is proved to preserve it."""
    db = Database(schema, window=2)
    db.execute(put_b, 1, 1)
    db.execute(put_a, 1, 1)
    schema.add_constraint(b_stays_empty())
    for i in range(2):
        with pytest.raises(ConstraintViolation):
            db.execute(put_a, 2 + i, i)
    assert proved_skips(db.last_record) == []
