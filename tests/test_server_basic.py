"""The transaction server end-to-end: handshake, execute/query/batch,
request validation, and the observability mirror.

Each test drives a real loopback server with the synchronous client; raw
sockets appear only where the client refuses to misbehave (bad protocol
version, requests before the handshake).
"""

from __future__ import annotations

import socket
import time

import pytest

from repro import Client, Database, TransactionServer
from repro.db.values import TupleSet
from repro.errors import (
    ConstraintViolation,
    ExecutabilityError,
    ReproError,
    SortError,
)
from repro.logic import builder as b
from repro.server.protocol import FrameDecoder, encode_message
from repro.transactions.program import query


def make_programs(domain):
    return [
        domain.hire,
        domain.allocate,
        domain.create_project,
        query("headcount", (), b.size_of(b.rel("EMP", 5))),
        query("employees", (), b.rel("EMP", 5)),
    ]


@pytest.fixture()
def served(domain):
    db = Database(domain.schema, initial=domain.sample_state())
    server = TransactionServer(db, make_programs(domain), workers=4)
    server.start()
    yield server
    server.close()


@pytest.fixture()
def client(served):
    with Client(*served.address) as c:
        yield c


def raw_exchange(address, docs, timeout=5.0):
    """Speak raw frames; return (decoded replies, saw_eof)."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        # One write: pipelined frames reach the server together, so "still
        # in flight" cases do not race the first request's completion.
        sock.sendall(b"".join(encode_message(doc) for doc in docs))
        decoder = FrameDecoder()
        replies: list[dict] = []
        saw_eof = False
        while True:
            try:
                data = sock.recv(65536)
            except socket.timeout:
                break
            if not data:
                saw_eof = True
                break
            replies.extend(decoder.feed(data))
        return replies, saw_eof
    finally:
        sock.close()


class TestHandshake:
    def test_welcome_carries_the_catalog(self, client):
        assert client.welcome["type"] == "WELCOME"
        programs = client.programs
        assert programs["hire"]["kind"] == "transaction"
        assert programs["hire"]["params"] == [
            "name", "dept", "salary", "age", "status",
        ]
        assert programs["headcount"]["kind"] == "query"
        assert set(client.relations) == {"EMP", "DEPT", "PROJ", "ALLOC", "SKILL"}
        assert client.relations["PROJ"] == ["p-name", "t-alloc"]

    def test_version_mismatch_is_a_typed_refusal(self, served):
        replies, saw_eof = raw_exchange(
            served.address,
            [{"type": "HELLO", "id": 1, "version": 999, "tenant": "default"}],
        )
        assert saw_eof
        [reply] = replies
        assert reply["type"] == "ERROR"
        assert reply["error"]["kind"] == "protocol-error"
        assert "version" in reply["error"]["message"]

    def test_requests_require_the_handshake_first(self, served):
        replies, saw_eof = raw_exchange(
            served.address,
            [{"type": "EXECUTE", "id": 1, "program": "hire", "args": []}],
        )
        assert saw_eof
        [reply] = replies
        assert reply["error"]["kind"] == "protocol-error"
        assert "handshake" in reply["error"]["message"]


class TestRequests:
    def test_execute_commits_and_queries_see_it(self, client):
        before = client.query("headcount")
        result = client.execute("hire", "erin", "cs", 90, 25, "S")
        assert result.ok and result.seq >= 1
        assert client.query("headcount") == before + 1

    def test_query_returns_typed_values_with_tids(self, client):
        emps = client.query("employees")
        assert isinstance(emps, TupleSet)
        names = {t.values[0] for t in emps}
        assert "alice" in names
        assert all(isinstance(t.tid, int) for t in emps)

    def test_unknown_program_is_typed(self, client):
        with pytest.raises(ExecutabilityError, match="unknown program"):
            client.execute("promote", "alice")

    def test_kind_mismatch_is_typed(self, client):
        with pytest.raises(ExecutabilityError, match="query, not a transaction"):
            client.execute("headcount")
        with pytest.raises(ExecutabilityError, match="transaction, not a query"):
            client.query("hire", "x", "cs", 1, 1, "S")

    def test_non_atom_arguments_are_refused(self, client):
        with pytest.raises(SortError):
            client.execute("hire", "erin", "cs", 90.5, 25, "S")

    def test_batch_reports_per_item_results(self, client):
        results = client.batch(
            [
                ("create-project", "atlas", 100),
                ("create-project", "borei", 100),
                ("promote", "alice"),  # unknown: fails alone
                ("create-project", "ceres", 100),
            ]
        )
        assert len(results) == 4
        assert results[0].ok and results[1].ok and results[3].ok
        assert isinstance(results[2], ExecutabilityError)
        assert len({r.seq for r in results if hasattr(r, "seq")}) == 3

    def test_pipelined_requests_resolve_out_of_order(self, client):
        pendings = [
            client.submit("create-project", f"p{i}", 10) for i in range(4)
        ]
        # Resolve in reverse submission order: correlation is by id.
        results = [p.result() for p in reversed(pendings)]
        assert all(r.ok for r in results)
        assert len({r.seq for r in results}) == 4

    def test_duplicate_request_id_is_a_protocol_error(self, served):
        hello = {"type": "HELLO", "id": 1, "version": 1, "tenant": "default"}
        twice = {"type": "QUERY", "id": 7, "program": "headcount", "args": []}
        replies, _ = raw_exchange(served.address, [hello, twice, twice])
        errors = [r for r in replies if r["type"] == "ERROR"]
        assert any(
            "already in flight" in e["error"]["message"] for e in errors
        )


class TestConstraints:
    def test_violations_come_back_typed_never_partial(self, domain):
        domain.install_constraints("alloc-references-project")
        db = Database(domain.schema, initial=domain.sample_state())
        with TransactionServer(db, make_programs(domain)) as server:
            with Client(*server.address) as c:
                before = c.query("headcount")
                with pytest.raises(ConstraintViolation) as info:
                    c.execute("allocate", "alice", "no-such-project", 10)
                assert info.value.constraint_name == "alloc-references-project"
                # Refused means refused: nothing advanced.
                assert c.query("headcount") == before


class TestObservability:
    def test_server_metrics_mirror_requests(self, served, client):
        client.execute("hire", "erin", "cs", 90, 25, "S")
        client.query("headcount")
        metrics = served.database.metrics
        assert (
            metrics.counter(
                "repro_server_requests_total",
                type="EXECUTE", tenant="default", status="ok",
            ).value >= 1
        )
        assert (
            metrics.counter(
                "repro_server_requests_total",
                type="QUERY", tenant="default", status="ok",
            ).value >= 1
        )
        assert metrics.counter("repro_server_bytes_in_total").value > 0
        assert metrics.counter("repro_server_bytes_out_total").value > 0
        assert (
            metrics.histogram(
                "repro_server_latency_seconds", type="EXECUTE"
            ).count >= 1
        )
        assert metrics.gauge("repro_server_connections").value >= 1

    def test_connection_gauge_returns_to_zero(self, served):
        with Client(*served.address) as c:
            c.query("headcount")
        deadline_gauge = served.database.metrics.gauge(
            "repro_server_connections"
        )
        # The server handles the disconnect asynchronously; poll briefly.
        for _ in range(100):
            if deadline_gauge.value == 0:
                break
            time.sleep(0.01)
        assert deadline_gauge.value == 0

    def test_requests_record_spans_in_the_profile(self, served, client):
        with served.database.profile() as prof:
            client.execute("hire", "frank", "ee", 80, 31, "S")
            client.query("headcount")
        tracer = prof.tracer
        kinds = {(s.kind, s.label) for s in tracer.spans()}
        assert ("request", "execute:hire") in kinds
        assert ("request", "query:headcount") in kinds


class TestRepliesAlwaysArrive:
    """Every request gets a reply frame, whatever the evaluation does."""

    def test_set_of_constructed_tuples_round_trips(self, domain):
        """``{e-name(e) | ...}`` builds tuples with no identifier; encoding
        the set used to sort by ``tid`` and die on ``None < None``."""
        e = domain.emp.var("e")
        names = query(
            "names",
            (),
            b.setformer(
                domain.emp.attr("e-name", e), e, b.member(e, domain.emp.rel())
            ),
        )
        db = Database(domain.schema, initial=domain.sample_state())
        with TransactionServer(db, [names], workers=2) as server:
            with Client(*server.address, timeout=5.0) as c:
                got = c.query("names")
        assert isinstance(got, TupleSet)
        assert all(t.tid is None for t in got)
        assert got == db.query(names)

    def test_unexpected_exception_becomes_an_error_frame(
        self, domain, monkeypatch, caplog
    ):
        """A non-``ReproError`` used to kill the request task with no
        reply, leaving the client blocked for its full timeout."""
        boom = query("boom", (), b.size_of(b.rel("EMP", 5)))
        db = Database(domain.schema, initial=domain.sample_state())

        def explode(program, *args, **kwargs):
            raise ZeroDivisionError("kaboom")

        monkeypatch.setattr(db, "query", explode)
        with TransactionServer(db, [boom], workers=2) as server:
            with Client(*server.address, timeout=5.0) as c:
                with pytest.raises(ReproError, match="ZeroDivisionError: kaboom"):
                    c.query("boom")
                # The session survives and the request is on the books.
                with pytest.raises(ReproError, match="internal error"):
                    c.query("boom")
            counted = server.metrics.counter(
                "repro_server_requests_total",
                "requests served",
                type="QUERY",
                tenant="default",
                status="error",
            ).value
        assert counted == 2
        assert "Traceback" in caplog.text and "kaboom" in caplog.text
