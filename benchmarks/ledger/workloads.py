"""Seeded workload generators, shadow models, and benchmark-local programs.

A workload is two pure functions of its inputs:

* :meth:`Workload.build` — ``(seed, path)`` → the database the child process
  serves and the programs it registers;
* :meth:`Workload.stream` — ``(seed, connection, connections)`` → an
  infinite op stream, each op carrying the verdict the generator expects
  (commit / named-constraint reject / query value).

Every stream keeps a plain Python-dict *shadow* of the rows it owns.  The
shadow drives stationarity (every insert is paired with a later delete,
hires with fires, so per-op cost does not depend on how far a run has got)
and the correctness gate (final per-relation cardinalities must equal the
shadow).  Connections own disjoint relations or employees, so every verdict
is independent of how the server interleaves them.

The program under test sees only generated inputs: nothing here is
imported by ``src/``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.constraints.model import Constraint
from repro.db.generators import employee_state
from repro.db.schema import RelationSchema, Schema
from repro.db.state import state_from_rows
from repro.domains import make_domain
from repro.engine import Database
from repro.logic import builder as b
from repro.sharding import ShardedDatabase
from repro.sharding.routing import plan_placement
from repro.storage.serialize import canonical_bytes, state_to_doc
from repro.transactions.program import DatabaseProgram, query, transaction

COMMIT = "commit"


def reject(constraint: str) -> str:
    """The expected verdict of a write built to violate ``constraint``."""
    return f"reject:{constraint}"


@dataclass(frozen=True)
class Op:
    """One request with the verdict the generator expects.

    ``cls`` is the latency class the sample is filed under (``write``,
    ``xwrite``, ``read``, ``batch``).  ``expect`` is :data:`COMMIT`, a
    :func:`reject` string, or ``("atom", v)`` / ``("names", frozenset)`` for a
    query.
    """

    kind: str  # "execute" | "query" | "batch"
    cls: str
    program: str
    args: tuple = ()
    expect: object = COMMIT
    items: tuple = ()  # batch only: ((program, *args), ...), all must commit

    def to_doc(self) -> list:
        expect = self.expect
        if isinstance(expect, tuple):
            tag, value = expect
            expect = [tag, sorted(value) if tag == "names" else value]
        return [self.kind, self.program, list(self.args), expect,
                [list(item) for item in self.items]]


@dataclass
class Built:
    """What the child process serves for one workload."""

    database: object  # Database | ShardedDatabase
    programs: list[DatabaseProgram]


def content_digest(state) -> str:
    """SHA-256 of a state's relations without the tuple-id allocator, which
    a sharded recovery legitimately re-bases."""
    relations = state_to_doc(state)["relations"]
    return hashlib.sha256(canonical_bytes(relations)).hexdigest()


class Zipf:
    """Zipf(s) ranks over ``n`` items by inverse-CDF lookup (no numpy)."""

    def __init__(self, n: int, s: float) -> None:
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        self._cdf = list(itertools.accumulate(weights))

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._cdf[-1])


class Pattern:
    """Op kinds in exact proportions: each cycle deals every kind its fixed
    number of slots in a freshly shuffled order, so two seeds run the same
    mix and differ only in order and targets."""

    def __init__(self, rng: random.Random, slots: dict[str, int]) -> None:
        self._rng = rng
        self._cycle = [kind for kind, n in slots.items() for _ in range(n)]
        self._pending: list[str] = []

    def next(self) -> str:
        if not self._pending:
            self._pending = list(self._cycle)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def _rng(workload: str, seed: int, conn: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{conn}")


# ---------------------------------------------------------------------------
# put-family programs (wire_put, durable_put, shard_mix)
# ---------------------------------------------------------------------------

_OLD, _OLDV, _X, _Y = (b.atom_var(v) for v in ("old", "oldv", "x", "y"))


def _row(rel: RelationSchema, key, value):
    pad = tuple(b.atom(0) for _ in range(rel.arity - 2))
    return b.mktuple(key, value, *pad)


def rot_program(rel: RelationSchema) -> DatabaseProgram:
    """``rot-R(old, oldv, new, v)``: delete the row ``(old, oldv, 0, …)``,
    insert ``(new, v, 0, …)``.  The victim is named by value, so the
    interpreter runs two atomic actions and no relation scan of its own;
    every write has this one shape, so write latency has one mode and the
    relation holds its size exactly."""
    return transaction(
        f"rot-{rel.name}", (_OLD, _OLDV, _X, _Y),
        b.seq(b.delete(_row(rel, _OLD, _OLDV), rel.rid()),
              b.insert(_row(rel, _X, _Y), rel.rid())),
    )


def move_program(src: RelationSchema, dst: RelationSchema) -> DatabaseProgram:
    """``move-Ri-Rj(k, oldv, v)``: delete ``(k, oldv, …)`` from ``Ri``,
    insert ``(k, v, …)`` into ``Rj`` — two relations, so two shards when
    they are placed apart (2PC)."""
    return transaction(
        f"move-{src.name}-{dst.name}", (_X, _OLDV, _Y),
        b.seq(b.delete(_row(src, _X, _OLDV), src.rid()),
              b.insert(_row(dst, _X, _Y), dst.rid())),
    )


def count_program(rel: RelationSchema) -> DatabaseProgram:
    return query(f"count-{rel.name}", (), b.size_of(rel.rel()))


def count2_program(r1: RelationSchema, r2: RelationSchema) -> DatabaseProgram:
    """A query over two relations: a global cut when they are on two shards."""
    return query(
        f"count2-{r1.name}-{r2.name}", (),
        b.plus(b.size_of(r1.rel()), b.size_of(r2.rel())),
    )


class _KeyRings:
    """Shadow of the put-family relations one connection owns: the live
    ``(key, value)`` rows of each, oldest first."""

    def __init__(self, owned: list[str], preload: dict[str, list[tuple[int, int]]],
                 first_key: int):
        self.owned = owned
        self.rings = {name: deque(preload[name]) for name in owned}
        self._next_key = first_key

    def rotate(self, name: str, rng: random.Random) -> tuple:
        """Replace the oldest row of ``name`` with a fresh one."""
        row = (self._next_key, rng.randrange(1000))
        self._next_key += 1
        ring = self.rings[name]
        ring.append(row)
        return (f"rot-{name}", *ring.popleft(), *row)

    def counts(self) -> dict[str, int]:
        return {name: len(ring) for name, ring in self.rings.items()}


# ---------------------------------------------------------------------------
# wire_put / durable_put
# ---------------------------------------------------------------------------

PUT_RELATIONS = 64
PUT_ROWS = 16
BATCH_SIZE = 16


def _put_schema() -> Schema:
    schema = Schema()
    for i in range(PUT_RELATIONS):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def _put_preload() -> dict[str, list[tuple[int, int]]]:
    return {f"R{i}": [(k, k) for k in range(PUT_ROWS)] for i in range(PUT_RELATIONS)}


class _PutStream:
    """Round-robin ``rot`` over the owned relations, each held at
    ``PUT_ROWS`` rows.  With ``batch_every``, every that-many-th request
    carries the next ``BATCH_SIZE`` transactions (consecutive turns, hence
    distinct relations) in one BATCH frame."""

    def __init__(self, name: str, seed: int, conn: int, nconn: int, batch_every: int):
        self.rng = _rng(name, seed, conn)
        owned = [f"R{i}" for i in range(PUT_RELATIONS) if i % nconn == conn]
        self.shadow = _KeyRings(owned, _put_preload(), first_key=PUT_ROWS)
        self.batch_every = batch_every
        self._turn = 0
        self._issued = 0

    def _txn(self) -> tuple:
        owned = self.shadow.owned
        name = owned[self._turn % len(owned)]
        self._turn += 1
        return self.shadow.rotate(name, self.rng)

    def __iter__(self) -> "Iterator[Op]":
        return self

    def __next__(self) -> Op:
        self._issued += 1
        if self.batch_every and self._issued % self.batch_every == 0:
            items = tuple(self._txn() for _ in range(BATCH_SIZE))
            return Op("batch", "batch", "batch", items=items)
        program, *args = self._txn()
        return Op("execute", "write", program, tuple(args))

    def counts(self) -> dict[str, int]:
        return self.shadow.counts()


class Workload:
    """Base: the knobs the driver reads.  ``warmup`` is ops per connection
    excluded from timing; ``rss_mark`` is the measured-op index of
    connection 0 at which the child's peak RSS is read (a fixed op count,
    so a faster build is not charged for the extra ops it fits in the
    window)."""

    name = ""
    why = ""
    connections = 2
    warmup = 50
    rss_mark = 200
    durable = False
    sharded = False

    def build(self, seed: int, path: Optional[str]) -> Built:
        raise NotImplementedError

    def stream(self, seed: int, conn: int, nconn: int):
        raise NotImplementedError

    def base_counts(self, seed: int) -> dict[str, int]:
        """Rows no stream owns (static relations)."""
        return {}

    # Durable workloads only: re-open the store the child wrote.

    def reopen(self, path: str) -> tuple[object, int, int]:
        """``(database, journal records recovered, records replayed)``."""
        raise NotImplementedError

    def first_query(self, database) -> None:
        raise NotImplementedError

    def acked_records(self, acked: dict[str, int]) -> int:
        """Journal records the acknowledged commits must have produced."""
        raise NotImplementedError

    def stream_sha256(self, seed: int, conn: int, nconn: int, ops: int = 512) -> str:
        """SHA-256 of the first ``ops`` ops of one connection's stream — two
        runs with equal hashes ran the same inputs."""
        digest = hashlib.sha256()
        for op in itertools.islice(self.stream(seed, conn, nconn), ops):
            digest.update(json.dumps(op.to_doc(), sort_keys=True).encode())
        return digest.hexdigest()


class WirePut(Workload):
    name = "wire_put"
    why = ("Unconstrained in-memory row replacements, 1 request in 16 a BATCH of 16: "
           "measured server 54% + concurrent 20% of the time, interpreter 23%, "
           "storage 0; where a wire, session or scheduler change shows.")
    warmup = 200
    rss_mark = 2000
    batch_every = 16

    def build(self, seed, path):
        schema = _put_schema()
        db = Database(schema, initial=state_from_rows(schema, _put_preload()),
                      record_graph=False)
        if self.durable:
            db.durable(path, sync="commit", checkpoint_every=64)
        programs = []
        for rel in schema.relations.values():
            programs.append(rot_program(rel))
        return Built(db, programs)

    def stream(self, seed, conn, nconn):
        return _PutStream(self.name, seed, conn, nconn, self.batch_every)


class DurablePut(WirePut):
    name = "durable_put"
    why = ("Same puts through durable(sync='commit', checkpoint_every=64): measured "
           "storage 41%, server 38%; group commit, frame codec and checkpoint "
           "changes show here and must not on wire_put.")
    warmup = 100
    rss_mark = 1000
    batch_every = 0
    durable = True

    def reopen(self, path):
        db, recovery = Database.from_store(_put_schema(), path, record_graph=False)
        return db, recovery.seq, len(recovery.replayed)

    def first_query(self, database):
        database.query(count_program(database.schema.relation("R0")))

    def acked_records(self, acked):
        return acked.get("write", 0)


# ---------------------------------------------------------------------------
# shard_mix
# ---------------------------------------------------------------------------

STRIPES = 8
STRIPE_ROWS = 32
SHARDS = 4


def stripe_schema() -> Schema:
    """E18's schema: stripe ``i`` has arity ``2 + i`` (distinct arities keep
    each per-row constraint's footprint on its own stripe) and the per-row
    invariant ``v >= 0``, an O(|Ri|) check on every commit to ``Ri``."""
    schema = Schema()
    s = b.state_var("s")
    for i in range(STRIPES):
        attrs = ("k", "v") + tuple(f"p{j}" for j in range(i))
        rel = schema.add_relation(f"R{i}", attrs)
        t = rel.var("t")
        schema.add_constraint(
            Constraint(
                f"R{i}-values-nonnegative",
                b.forall(s, b.holds(s, b.forall(t, b.implies(
                    b.member(t, rel.rel()),
                    b.le(b.atom(0), rel.attr("v", t)),
                )))),
                description=f"every R{i} value is >= 0",
                declared_window=1,
            )
        )
    return schema


def _stripe_preload() -> dict[str, list[tuple[int, int]]]:
    return {
        f"R{i}": [(i * 1000 + k, k) for k in range(STRIPE_ROWS)] for i in range(STRIPES)
    }


def _stripe_pairs(schema: Schema) -> list[tuple[str, str]]:
    """Ordered stripe pairs placed on different shards."""
    placement = plan_placement(schema, SHARDS).placement
    names = sorted(placement)
    return [(x, y) for x in names for y in names
            if x != y and placement[x] != placement[y]]


class _ShardStream:
    """Per 20 ops: 14 single-shard ``rot``, 2 cross-shard moves, 3 one-shard
    and 1 two-shard query.  Moves go from the fullest owned stripe to the
    emptiest on another shard, so sizes stay within a row of
    ``STRIPE_ROWS``."""

    SLOTS = {"write": 14, "move": 2, "count": 3, "count2": 1}

    def __init__(self, seed: int, conn: int, nconn: int):
        self.rng = _rng("shard_mix", seed, conn)
        schema = stripe_schema()
        self.placement = dict(plan_placement(schema, SHARDS).placement)
        # Deal each shard's stripes round-robin to the connections: every
        # connection writes to every shard, so shard locks are contended.
        by_shard: dict[int, list[str]] = {}
        for name in sorted(self.placement):
            by_shard.setdefault(self.placement[name], []).append(name)
        owned = [n for names in by_shard.values()
                 for j, n in enumerate(names) if j % nconn == conn]
        self.shadow = _KeyRings(
            sorted(owned), _stripe_preload(), first_key=1_000_000 * (conn + 1)
        )
        self._pattern = Pattern(self.rng, self.SLOTS)

    def __iter__(self):
        return self

    def _size(self, name: str) -> int:
        return len(self.shadow.rings[name])

    def _apart(self, name: str) -> list[str]:
        return [n for n in self.shadow.owned
                if self.placement[n] != self.placement[name]]

    def __next__(self) -> Op:
        rng, owned = self.rng, self.shadow.owned
        kind = self._pattern.next()
        if kind == "count":
            name = rng.choice(owned)
            return Op("query", "read", f"count-{name}",
                      expect=("atom", self._size(name)))
        if kind == "count2":
            name = rng.choice(owned)
            first, second = sorted((name, rng.choice(self._apart(name))))
            return Op("query", "read", f"count2-{first}-{second}",
                      expect=("atom", self._size(first) + self._size(second)))
        if kind == "move":
            src = max(owned, key=lambda n: (self._size(n), n))
            dst = min(self._apart(src), key=lambda n: (self._size(n), n))
            key, value = self.shadow.rings[src].popleft()
            moved = (key, rng.randrange(1000))
            self.shadow.rings[dst].append(moved)
            return Op("execute", "xwrite", f"move-{src}-{dst}",
                      (key, value, moved[1]))
        program, *args = self.shadow.rotate(rng.choice(owned), rng)
        return Op("execute", "write", program, tuple(args))

    def counts(self) -> dict[str, int]:
        return self.shadow.counts()


class ShardMix(Workload):
    name = "shard_mix"
    why = ("Durable 4-shard ShardedDatabase, 10% cross-shard moves (2PC), 20% queries: "
           "measured constraints 52% (plain evaluator, shards have no accelerators), "
           "interpreter 23%, sharding 9%, storage 6%.")
    warmup = 50
    rss_mark = 200
    durable = True
    sharded = True

    def build(self, seed, path):
        schema = stripe_schema()
        rows = {n: [row + (0,) * (schema.relation(n).arity - 2) for row in preload]
                for n, preload in _stripe_preload().items()}
        sdb = ShardedDatabase(
            schema, shards=SHARDS, path=path, sync="commit",
            initial=state_from_rows(schema, rows),
        )
        programs = []
        for rel in schema.relations.values():
            programs += [rot_program(rel), count_program(rel)]
        for src, dst in _stripe_pairs(schema):
            programs.append(move_program(schema.relation(src), schema.relation(dst)))
            if src < dst:
                programs.append(
                    count2_program(schema.relation(src), schema.relation(dst)))
        return Built(sdb, programs)

    def stream(self, seed, conn, nconn):
        return _ShardStream(seed, conn, nconn)

    def reopen(self, path):
        sdb, report = ShardedDatabase.recover(stripe_schema(), path)
        return (sdb, sum(r.seq for r in report.shards),
                sum(len(r.replayed) for r in report.shards))

    def first_query(self, database):
        database.query(count_program(database.schema.relation("R0")))

    def acked_records(self, acked):
        # A move is one prepare and one outcome record on each of 2 shards.
        return acked.get("write", 0) + 4 * acked.get("xwrite", 0)


# ---------------------------------------------------------------------------
# employee workloads (emp_oltp, emp_paper, emp_read)
# ---------------------------------------------------------------------------

_STATIC = ("every-employee-allocated", "alloc-references-project",
           "allocation-within-limit")
_TRANSACTION = ("once-married", "skill-retention",
                "salary-decrease-needs-dept-change",
                "dept-deletion-precondition", "project-deletion-cascades")
#: The preloaded rows are the same for every ``--seed``: only the op stream
#: is seeded, so two seeds differ in order and targets, not in how much a
#: constraint check costs.
DATA_SEED = 0
#: A perc no generated allocation uses: adding it to any employee pushes the
#: (set-valued, see README) allocation sum over 100.
_OVER_PERC = 95


def _emp_programs(domain) -> list[DatabaseProgram]:
    """The domain's transactions plus the benchmark-local programs."""
    emp, alloc, skill, proj = domain.emp, domain.alloc, domain.skill, domain.proj
    name, dept, salary, age, status, pname, perc, no, old, new = (
        b.atom_var(v) for v in ("name", "dept", "salary", "age", "status",
                                "pname", "perc", "no", "old", "new"))
    e, a, k, q = emp.var("e"), alloc.var("a"), skill.var("k"), proj.var("q")
    onboard = transaction(
        "onboard", (name, dept, salary, age, status, pname, no),
        b.seq(
            b.insert(b.mktuple(name, dept, salary, age, status), emp.rid()),
            b.insert(b.mktuple(name, pname, b.atom(100)), alloc.rid()),
            b.insert(b.mktuple(name, no), skill.rid()),
        ),
    )
    drop_skill = transaction(
        "drop-skill", (name, no),
        b.foreach(k, b.land(b.member(k, skill.rel()),
                            b.eq(skill.attr("s-emp", k), name),
                            b.eq(skill.attr("s-no", k), no)),
                  b.delete(k, skill.rid())),
    )
    reallocate = transaction(
        "reallocate", (name, old, new, perc),
        b.seq(
            b.foreach(a, b.land(b.member(a, alloc.rel()),
                                b.eq(alloc.attr("a-emp", a), name),
                                b.eq(alloc.attr("a-proj", a), old)),
                      b.delete(a, alloc.rid())),
            b.insert(b.mktuple(name, new, perc), alloc.rid()),
        ),
    )
    x = b.atom_var("x")
    headcount_older = query(
        "headcount-older", (x,),
        b.size_of(b.setformer(e, e, b.land(b.member(e, emp.rel()),
                                           b.gt(emp.attr("age", e), x)))),
    )
    roster = query(
        "roster", (dept,),
        b.setformer(e, e, b.land(b.member(e, emp.rel()),
                                 b.eq(emp.attr("e-dept", e), dept))),
    )
    alloc_sum = query(
        "alloc-sum", (name,),
        b.sum_of(b.setformer(alloc.attr("perc", a), a, b.land(
            b.member(a, alloc.rel()), b.eq(alloc.attr("a-emp", a), name)))),
    )
    staff = query(
        "staff", (pname,),
        b.setformer(a, a, b.land(
            b.member(a, alloc.rel()),
            b.eq(alloc.attr("a-proj", a), pname),
            b.exists(q, b.land(b.member(q, proj.rel()),
                               b.eq(proj.attr("p-name", q),
                                    alloc.attr("a-proj", a)))),
        )),
    )
    return [domain.set_salary, domain.birthday, domain.transfer,
            domain.add_skill, domain.allocate, domain.fire,
            onboard, drop_skill, reallocate,
            headcount_older, roster, alloc_sum, staff]


def _rows(state, relation: str) -> list[tuple]:
    return sorted(t.values for t in state.relation(relation).tuples.values())


class _EmpStream:
    """The employee op mix over the employees one connection owns.

    ``flavour`` is ``oltp`` (85% writes, 5% built-to-fail writes, 10%
    queries), ``paper`` (no queries; ``skill-retention`` installed, so
    dropping a retained skill is a built-to-fail write and skills are only
    added to temps, who lose them when fired) or ``read`` (90% queries over
    four programs, 10% writes that leave every query's answer unchanged but
    invalidate the cache by relation).  :data:`SLOTS` fixes the mix exactly.

    Salaries only rise and temps get fresh names, so no verdict depends on
    what sits in the history window.  Query answers range over every
    employee, so they hold only while this is the one connection that
    writes (``_EmpWorkload.connections`` is 1).
    """

    SLOTS = {
        "oltp": {"query": 10, "over_alloc": 3, "pay_cut": 2, "raise": 21,
                 "birthday": 13, "transfer": 10, "skill": 14, "realloc": 13,
                 "churn": 14},
        "paper": {"over_alloc": 1, "pay_cut": 1, "drop_retained": 1,
                  "raise": 12, "birthday": 7, "transfer": 6, "skill": 8,
                  "realloc": 7, "churn": 7},
        "read": {"query": 90, "raise": 5, "touch_alloc": 5},
    }
    QUERY_SLOTS = {"alloc_sum": 4, "roster": 2, "staff": 2, "headcount_older": 2}
    MAX_TEMPS = 2

    def __init__(self, flavour: str, employees: int, seed: int, conn: int, nconn: int):
        self.flavour = flavour
        self.conn = conn
        self.rng = _rng(f"emp_{flavour}", seed, conn)
        self._pattern = Pattern(self.rng, self.SLOTS[flavour])
        self._queries = Pattern(self.rng, self.QUERY_SLOTS)
        state = employee_state(make_domain(), employees, DATA_SEED)
        self.projects = [p for p, _ in _rows(state, "PROJ")]
        self.depts = sorted({d for d, *_ in _rows(state, "DEPT")})
        self.emp: dict[str, dict] = {}
        for name, dept, salary, age, status in _rows(state, "EMP"):
            self.emp[name] = {"dept": dept, "salary": salary, "age": age,
                              "status": status, "allocs": {}, "skills": set()}
        for name, pname, perc in _rows(state, "ALLOC"):
            self.emp[name]["allocs"][pname] = perc
        for name, no in _rows(state, "SKILL"):
            self.emp[name]["skills"].add(no)
        ordered = [f"emp{i}" for i in range(employees)]
        self.owned = ordered[conn::nconn]
        self.temps: list[str] = []
        self._extras: list[tuple[str, int]] = []  # oltp: (employee, extra skill)
        self._temp_seq = 0
        self._zipf = Zipf(len(self.owned), 0.9)
        ages = sorted({row["age"] for row in self.emp.values()})
        self._age_zipf = Zipf(len(ages), 0.9)
        self._ages = ages
        self._proj_zipf = Zipf(len(self.projects), 0.9)

    def __iter__(self):
        return self

    # -- choice helpers ------------------------------------------------------

    def _pick(self) -> str:
        return self.owned[self._zipf.sample(self.rng)]

    # -- op stream -----------------------------------------------------------

    def __next__(self) -> Op:
        return getattr(self, "_" + self._pattern.next())()

    # -- legit writes --------------------------------------------------------

    def _raise(self) -> Op:
        name = self._pick()
        row = self.emp[name]
        row["salary"] += self.rng.randint(1, 5)
        return Op("execute", "write", "set-salary", (name, row["salary"]))

    def _birthday(self) -> Op:
        name = self._pick()
        self.emp[name]["age"] += 1
        return Op("execute", "write", "birthday", (name,))

    def _transfer(self) -> Op:
        name = self._pick()
        row = self.emp[name]
        row["dept"] = self.rng.choice([d for d in self.depts if d != row["dept"]])
        row["salary"] += self.rng.randint(0, 3)
        return Op("execute", "write", "transfer", (name, row["dept"], row["salary"]))

    def _skill(self) -> Op:
        """Hold the number of extra skills at 1–2 (constraint checks cost
        O(|SKILL|), so a wandering SKILL would be a wandering latency)."""
        if self.flavour == "paper":
            # skill-retention forbids dropping: a temp gains one skill and
            # loses it when fired.
            fresh = [n for n in self.temps if len(self.emp[n]["skills"]) == 1]
            if not fresh:
                return self._raise()
            name = fresh[0]
            no = 100 + self.rng.randrange(50)
            self.emp[name]["skills"].add(no)
            return Op("execute", "write", "add-skill", (name, no))
        if len(self._extras) >= 2:
            name, no = self._extras.pop(0)
            self.emp[name]["skills"].discard(no)
            return Op("execute", "write", "drop-skill", (name, no))
        name, no = self._pick(), 100 + self.rng.randrange(50)
        if any(n == name for n, _ in self._extras):
            return self._raise()
        self._extras.append((name, no))
        self.emp[name]["skills"].add(no)
        return Op("execute", "write", "add-skill", (name, no))

    def _realloc(self) -> Op:
        name = self._pick()
        allocs = self.emp[name]["allocs"]
        free = [p for p in self.projects if p not in allocs]
        if not free:
            return self._raise()
        old = self.rng.choice(sorted(allocs))
        new = self.rng.choice(free)
        allocs[new] = allocs.pop(old)
        return Op("execute", "write", "reallocate", (name, old, new, allocs[new]))

    def _churn(self) -> Op:
        """Fire the oldest temp when there are ``MAX_TEMPS``, else onboard
        one: after the first few ops the headcount moves by one."""
        if len(self.temps) >= self.MAX_TEMPS:
            name = self.temps.pop(0)
            del self.emp[name]
            return Op("execute", "write", "fire", (name,))
        self._temp_seq += 1
        name = f"t{self.conn}-{self._temp_seq}"
        row = {"dept": self.rng.choice(self.depts),
               "salary": 60 + self.rng.randrange(80),
               "age": 22 + self.rng.randrange(40),
               "status": self.rng.choice("SM"),
               "allocs": {self.rng.choice(self.projects): 100},
               "skills": {1 + self.rng.randrange(9)}}
        self.emp[name] = row
        self.temps.append(name)
        (pname,), (no,) = row["allocs"], row["skills"]
        return Op("execute", "write", "onboard",
                  (name, row["dept"], row["salary"], row["age"], row["status"],
                   pname, no))

    # -- built-to-fail writes ------------------------------------------------

    def _over_alloc(self) -> Op:
        return Op("execute", "write", "allocate",
                  (self._pick(), self.rng.choice(self.projects), _OVER_PERC),
                  reject("allocation-within-limit"))

    def _pay_cut(self) -> Op:
        name = self._pick()
        return Op("execute", "write", "set-salary",
                  (name, self.emp[name]["salary"] - 5),
                  reject("salary-decrease-needs-dept-change"))

    def _drop_retained(self) -> Op:
        name = self._pick()
        return Op("execute", "write", "drop-skill",
                  (name, min(self.emp[name]["skills"])), reject("skill-retention"))

    # -- queries -------------------------------------------------------------

    def _query(self) -> Op:
        return getattr(self, "_" + self._queries.next())()

    def _alloc_sum(self) -> Op:
        # The paper's constraint sums a *set* of percs: 50/50 sums to 50.
        name = self._pick()
        total = sum(set(self.emp[name]["allocs"].values()))
        return Op("query", "read", "alloc-sum", (name,), ("atom", total))

    def _names_query(self, program: str, arg, names) -> Op:
        return Op("query", "read", program, (arg,), ("names", frozenset(names)))

    def _roster(self) -> Op:
        dept = self.rng.choice(self.depts)
        return self._names_query(
            "roster", dept, (n for n, r in self.emp.items() if r["dept"] == dept))

    def _staff(self) -> Op:
        pname = self.projects[self._proj_zipf.sample(self.rng)]
        return self._names_query(
            "staff", pname, (n for n, r in self.emp.items() if pname in r["allocs"]))

    def _headcount_older(self) -> Op:
        age = self._ages[self._age_zipf.sample(self.rng)]
        count = sum(1 for r in self.emp.values() if r["age"] > age)
        return Op("query", "read", "headcount-older", (age,), ("atom", count))

    def _touch_alloc(self) -> Op:
        """Delete and re-insert an allocation row as it was: ALLOC is
        written (cached answers over it are invalidated), no answer changes."""
        name = self._pick()
        allocs = self.emp[name]["allocs"]
        pname = self.rng.choice(sorted(allocs))
        return Op("execute", "write", "reallocate",
                  (name, pname, pname, allocs[pname]))

    # -- shadow totals -------------------------------------------------------

    def counts(self) -> dict[str, int]:
        mine = [self.emp[n] for n in self.owned + self.temps]
        return {"EMP": len(mine),
                "ALLOC": sum(len(r["allocs"]) for r in mine),
                "SKILL": sum(len(r["skills"]) for r in mine)}


class _EmpWorkload(Workload):
    # One connection: the accelerators' tables are not thread-safe (two
    # QUERYs on one hot key race in QueryCache's LRU touch and the loser's
    # request dies with a KeyError — see README), and a workload must not
    # fail.  Two writers on EMP never conflicted anyway: a commit holds the
    # scheduler lock that the other writer's snapshot needs.
    connections = 1
    flavour = ""
    employees = 24
    constraints: tuple[str, ...] = ()
    window = 3  # salary-decrease-needs-dept-change needs three states

    def build(self, seed, path):
        domain = make_domain()
        domain.install_constraints(*self.constraints)
        db = Database(
            domain.schema, window=self.window,
            initial=employee_state(domain, self.employees, DATA_SEED),
            record_graph=False,
        )
        db.enable_incremental()
        db.enable_planner()
        db.enable_query_cache()
        return Built(db, _emp_programs(domain))

    def stream(self, seed, conn, nconn):
        return _EmpStream(self.flavour, self.employees, seed, conn, nconn)

    def base_counts(self, seed):
        state = employee_state(make_domain(), self.employees, DATA_SEED)
        return {"DEPT": len(_rows(state, "DEPT")), "PROJ": len(_rows(state, "PROJ"))}


class EmpOltp(_EmpWorkload):
    name = "emp_oltp"
    why = ("Paper schema, 24 employees, 7 constraints (no skill-retention), "
           "planner+incremental+cache, 85% writes: measured constraints 85%, "
           "algebra 13%; the planner-compiled commit path.")
    flavour = "oltp"
    warmup = 6
    rss_mark = 20
    constraints = _STATIC + tuple(c for c in _TRANSACTION if c != "skill-retention")


class EmpPaper(_EmpWorkload):
    name = "emp_paper"
    why = ("All 8 paper constraints incl. unplanned skill-retention, 8 employees: "
           "measured constraints (tree walk) 95%, algebra 4%; where widening the "
           "compiler must show, and emp_oltp must not.")
    flavour = "paper"
    employees = 8
    warmup = 6
    rss_mark = 20
    constraints = _STATIC + _TRANSACTION


class EmpRead(_EmpWorkload):
    name = "emp_read"
    why = ("emp_oltp data, static constraints, 90% QUERY over 4 programs (keys fit the "
           "cache), 10% invalidating writes: measured algebra 41%, server 35%, "
           "constraints 12%, eval 8%; the read side of the cache.")
    flavour = "read"
    warmup = 100
    rss_mark = 500
    constraints = _STATIC
    window = 2


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WirePut(), DurablePut(), EmpOltp(), EmpPaper(),
                        EmpRead(), ShardMix())
}
