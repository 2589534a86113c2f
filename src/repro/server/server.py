"""The multi-tenant asyncio transaction server.

:class:`TransactionServer` wraps one :class:`~repro.engine.Database` behind
the :mod:`repro.server.protocol` wire format.  The request dataflow is::

    frame → session → tenant admission → scheduler → reply frame

* **Sessions.**  Each connection gets a :class:`Session` after a versioned
  ``HELLO`` handshake naming its tenant.  Requests on one session are
  pipelined: the read loop keeps consuming frames while earlier requests
  evaluate, and replies carry the request's ``id`` so they may return out
  of order.
* **Per-tenant governance.**  The PR 5 primitives are reused unchanged as
  the per-client knobs: every tenant gets its own
  :class:`~repro.concurrent.admission.AdmissionController` (here a ticket
  pool bounding *in-flight requests*), its own circuit-breaker view fed by
  that tenant's validation outcomes only, and its own
  :class:`~repro.transactions.budget.Budget` template stamped onto every
  evaluation.  A tenant over quota receives a wire-level
  :class:`~repro.errors.Overloaded` with a ``retry_after`` hint; other
  tenants keep their tickets and their latency.
* **Batched submission.**  A ``BATCH`` frame fans all of its transactions
  into the optimistic scheduler at once — one syscall carries N
  transactions, and the worker pool evaluates them in parallel — then
  answers with a single ``BATCH_RESULT``.
* **Rejected-transaction semantics.**  A violating program is refused,
  never partially applied: constraint violations, budget aborts, and
  conflicts all come back as structured error frames built from the typed
  taxonomy, and the database state is exactly as if the request had never
  arrived.

Every server event mirrors into the database's
:class:`~repro.obs.metrics.MetricsRegistry` (``repro_server_*``) and each
request records a span in the PR 3 tracer, so ``Database.profile()`` works
end-to-end across the wire.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.concurrent.admission import AdmissionController, CircuitBreaker
from repro.concurrent.retry import RetryPolicy
from repro.concurrent.scheduler import TransactionOutcome
from repro.engine import Database
from repro.errors import (
    ExecutabilityError,
    ProtocolError,
    ReproError,
    ResourceError,
    SchedulerClosed,
    SessionClosed,
    SortError,
)
from repro.server.protocol import (
    MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_message,
    error_to_doc,
    value_to_doc,
)
from repro.transactions.budget import Budget, CancelToken
from repro.transactions.program import DatabaseProgram

_log = logging.getLogger(__name__)

@dataclass(frozen=True)
class TenantConfig:
    """Governance knobs for one tenant — the PR 5 primitives, per client.

    * ``max_inflight`` — the admission ticket pool: how many requests the
      tenant may have in flight at once (``None`` = unbounded).  Overflow
      is answered with a wire-level :class:`~repro.errors.Overloaded`
      carrying a ``retry_after`` hint scaled by ``retry_hint_per_item``.
    * ``budget`` — the evaluation :class:`Budget` template stamped (fresh)
      onto every request, plus an optional ``max_seconds`` per-request
      wall-clock deadline.
    * ``breaker`` — kwargs for this tenant's
      :class:`~repro.concurrent.admission.CircuitBreaker` (``None`` = no
      breaker).  The breaker sees only this tenant's validation outcomes,
      so one tenant's conflict storm trips one tenant's breaker.
    """

    max_inflight: Optional[int] = 64
    retry_hint_per_item: float = 0.005
    budget: Optional[Budget] = None
    max_seconds: Optional[float] = None
    breaker: Optional[dict] = None


class Tenant:
    """One tenant's materialized governance state."""

    def __init__(self, name: str, config: TenantConfig, metrics) -> None:
        self.name = name
        self.config = config
        breaker = (
            CircuitBreaker(**config.breaker)
            if config.breaker is not None
            else None
        )
        self.admission = AdmissionController(
            max_pending=config.max_inflight,
            policy="reject-new",
            breaker=breaker,
            retry_hint_per_item=config.retry_hint_per_item,
            metrics=metrics,
        )

    def budget_for(self, token: CancelToken) -> Budget:
        """A fresh per-request meter from the tenant's template, carrying
        the request's cancel token and deadline."""
        template = self.config.budget
        meter = template.fresh() if template is not None else Budget()
        meter.cancel = token
        if self.config.max_seconds is not None:
            deadline = time.monotonic() + self.config.max_seconds
            meter.deadline_at = (
                deadline
                if meter.deadline_at is None
                else min(meter.deadline_at, deadline)
            )
        return meter


@dataclass
class _Inflight:
    """One request being served: its cancel token and its asyncio task."""

    token: CancelToken
    task: Optional[asyncio.Task] = None
    replied: bool = False


class Session:
    """One connection's server-side state."""

    def __init__(
        self, sid: str, writer: asyncio.StreamWriter, server: "TransactionServer"
    ) -> None:
        self.id = sid
        self.writer = writer
        self.server = server
        self.tenant: Optional[Tenant] = None
        self.inflight: dict[int, _Inflight] = {}
        self.closed = False
        self._write_lock = asyncio.Lock()

    async def send(self, doc: dict) -> None:
        """Write one frame; writes are serialized per connection."""
        if self.closed:
            return
        frame = encode_message(doc)
        try:
            async with self._write_lock:
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            self.closed = True
            return
        self.server._count_bytes_out(len(frame))

    async def send_error(self, request_id, err: BaseException) -> None:
        await self.send(
            {"type": "ERROR", "id": request_id, "error": error_to_doc(err)}
        )

    async def close(self, err: Optional[ReproError] = None) -> list[asyncio.Task]:
        """End the session: resolve every in-flight request with a typed
        error frame, cancel its evaluation, and close the socket.  Returns
        the request tasks still winding down."""
        if self.closed:
            return []
        tasks: list[asyncio.Task] = []
        for request_id, entry in list(self.inflight.items()):
            entry.token.cancel("session closed")
            if err is not None and not entry.replied:
                entry.replied = True
                await self.send_error(request_id, err)
            if entry.task is not None:
                tasks.append(entry.task)
        self.closed = True
        try:
            self.writer.close()
        except (ConnectionError, RuntimeError, OSError):  # pragma: no cover
            pass
        return tasks


class TransactionServer:
    """Serve a :class:`~repro.engine.Database` over a loopback/TCP socket.

    The server owns an optimistic :class:`~repro.concurrent.scheduler.
    TransactionManager` (``workers`` threads) for transactions and a small
    thread pool for queries; the asyncio loop runs in a dedicated
    background thread, so synchronous tests and clients drive it without
    touching asyncio:

    ``programs`` is the set of :class:`DatabaseProgram` values clients may
    invoke by name — the server executes *registered* programs only, it
    never evaluates terms off the wire.  Queries and constraint checks run
    on the database's own interpreter, so a default-constructed
    :class:`~repro.engine.Database` serves them from plans.
    """

    def __init__(
        self,
        database: Database,
        programs: Iterable[DatabaseProgram] = (),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        workers: int = 8,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = MAX_FRAME_PAYLOAD,
    ) -> None:
        self.database = database
        self.programs: dict[str, DatabaseProgram] = {
            p.name: p for p in programs
        }
        self.host = host
        self.port = port
        self.workers = workers
        self.retry = retry
        self.max_frame = max_frame
        self.metrics = database.metrics
        self._tenant_configs = dict(tenants or {})
        self._default_config = default_tenant or TenantConfig()
        self._tenants: dict[str, Tenant] = {}
        self._sessions: set[Session] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._session_seq = 0
        self._manager = None
        self._txn_pool: Optional[ThreadPoolExecutor] = None
        self._query_pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closing = False
        self.address: Optional[tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    def register(self, program: DatabaseProgram) -> None:
        """Expose one more program to clients."""
        self.programs[program.name] = program

    def start(self) -> tuple[str, int]:
        """Boot the server in a background thread; returns ``(host, port)``
        once the socket is bound (``port=0`` picks an ephemeral port)."""
        if self._thread is not None:
            raise ReproError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ReproError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as err:  # pragma: no cover - startup failures
            self._startup_error = err
            self._started.set()

    async def _main(self) -> None:
        # asyncio's selector transport allocates a fresh 256 KiB ``bytes``
        # per socket read.  glibc serves a block that size with mmap/munmap
        # (two syscalls and a run of page faults per read) until a freed
        # mmapped block raises its dynamic mmap threshold; freeing one
        # larger block here does that for the whole process.  Measured on
        # the ledger's ``wire_put``: +10 % requests/s, -25 % page faults.
        bytearray(1 << 20)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if getattr(self.database, "is_sharded", False):
            # A ShardedDatabase is its own scheduler: transactions route by
            # footprint to per-shard locks, so the optimistic manager (and
            # its conflict/retry machinery) would only add overhead.
            self._manager = None
            self._txn_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard-tx"
            )
        else:
            self._manager = self.database.concurrent(
                workers=self.workers, retry=self.retry
            )
            self._txn_pool = None
        self._query_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-query"
        )
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as err:
            self._startup_error = err
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()
            await self._shutdown_sessions()
        if self._manager is not None:
            self._manager.close(wait=True)
        if self._txn_pool is not None:
            self._txn_pool.shutdown(wait=True)
        self._query_pool.shutdown(wait=True)

    async def _shutdown_sessions(self) -> None:
        """Resolve every in-flight request with ``SessionClosed`` — never a
        hang, never a bare connection reset — then wait for the request
        tasks to wind down (their evaluations were cancelled)."""
        tasks: list[asyncio.Task] = []
        for session in list(self._sessions):
            tasks.extend(
                await session.close(SessionClosed("server shutting down"))
            )
        if tasks:
            await asyncio.wait(tasks, timeout=10.0)
        # Closing the writers fed EOF to every read loop; let the handlers
        # unwind on their own so loop teardown has nothing left to cancel.
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=10.0)

    def close(self, timeout: float = 15.0) -> None:
        """Stop serving: in-flight requests resolve with typed
        ``SessionClosed`` errors, sessions close, the scheduler drains.
        Idempotent and thread-safe."""
        if self._thread is None or self._closing:
            return
        self._closing = True
        self._started.wait()
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "TransactionServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants -----------------------------------------------------------

    def _tenant(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            config = self._tenant_configs.get(name, self._default_config)
            tenant = Tenant(name, config, self.metrics)
            self._tenants[name] = tenant
        return tenant

    # -- the connection handler --------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._session_seq += 1
        session = Session(f"s{self._session_seq}", writer, self)
        self._sessions.add(session)
        gauge = self.metrics.gauge(
            "repro_server_connections", "open client connections"
        )
        gauge.inc()
        self.metrics.counter(
            "repro_server_connections_total", "connections ever accepted"
        ).inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        decoder = FrameDecoder(self.max_frame)
        try:
            while not session.closed:
                data = await reader.read(65536)
                if not data:
                    break
                self.metrics.counter(
                    "repro_server_bytes_in_total", "bytes received"
                ).inc(len(data))
                try:
                    messages = decoder.feed(data)
                except ProtocolError as err:
                    # A torn or garbage frame poisons only this connection:
                    # answer with a structured error, then hang up.
                    self.metrics.counter(
                        "repro_server_protocol_errors_total",
                        "connections dropped for malformed frames",
                    ).inc()
                    await session.send_error(None, err)
                    break
                keep_going = True
                for message in messages:
                    keep_going = await self._dispatch(session, message)
                    if not keep_going:
                        break
                if not keep_going:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:  # pragma: no cover - teardown race
            pass
        finally:
            await session.close(SessionClosed("connection lost"))
            self._sessions.discard(session)
            if task is not None:
                self._conn_tasks.discard(task)
            gauge.dec()

    async def _dispatch(self, session: Session, message: dict) -> bool:
        """Route one message; returns False to end the connection."""
        mtype = message["type"]
        mid = message.get("id")
        if mtype == "HELLO":
            return await self._hello(session, message)
        if session.tenant is None:
            await session.send_error(
                mid, ProtocolError("handshake required before any request")
            )
            return False
        if mtype == "CLOSE":
            await session.send({"type": "BYE", "id": mid})
            return False
        if mtype == "CANCEL":
            target = message.get("target")
            entry = session.inflight.get(target)
            if entry is not None:
                entry.token.cancel("cancelled by client")
            await session.send(
                {"type": "RESULT", "id": mid, "cancelled": entry is not None}
            )
            return True
        if mtype in ("EXECUTE", "QUERY", "BATCH"):
            if not isinstance(mid, int):
                await session.send_error(
                    mid, ProtocolError(f"{mtype} requires an integer id")
                )
                return False
            if mid in session.inflight:
                await session.send_error(
                    mid, ProtocolError(f"request id {mid} already in flight")
                )
                return True
            entry = _Inflight(token=CancelToken())
            session.inflight[mid] = entry
            entry.task = asyncio.ensure_future(
                self._serve_request(session, message, entry)
            )
            return True
        await session.send_error(
            mid, ProtocolError(f"unknown message type {mtype!r}")
        )
        return False

    async def _hello(self, session: Session, message: dict) -> bool:
        version = message.get("version")
        mid = message.get("id")
        if version != PROTOCOL_VERSION:
            await session.send_error(
                mid,
                ProtocolError(
                    f"protocol version {version!r} unsupported "
                    f"(server speaks {PROTOCOL_VERSION})"
                ),
            )
            return False
        tenant_name = message.get("tenant") or "default"
        if not isinstance(tenant_name, str):
            await session.send_error(
                mid, ProtocolError("tenant must be a string")
            )
            return False
        session.tenant = self._tenant(tenant_name)
        await session.send(
            {
                "type": "WELCOME",
                "id": mid,
                "version": PROTOCOL_VERSION,
                "session": session.id,
                "tenant": tenant_name,
                "programs": {
                    name: {
                        "params": [p.name for p in program.params],
                        "kind": (
                            "transaction"
                            if program.is_transaction
                            else "query"
                        ),
                    }
                    for name, program in sorted(self.programs.items())
                },
                "relations": {
                    name: list(rs.attributes)
                    for name, rs in sorted(
                        self.database.schema.relations.items()
                    )
                },
            }
        )
        return True

    # -- request serving ---------------------------------------------------

    async def _serve_request(
        self, session: Session, message: dict, entry: _Inflight
    ) -> None:
        mtype = message["type"]
        mid = message["id"]
        tenant = session.tenant
        assert tenant is not None
        label = message.get("label") or message.get("program") or mtype.lower()
        started = time.perf_counter()
        status = "ok"
        reply: Optional[dict] = None
        failure: Optional[BaseException] = None
        try:
            try:
                ticket = tenant.admission.request(str(label))
            except ResourceError as err:
                # Over quota / breaker open: the typed rejection crosses the
                # wire with its retry_after intact.
                status, failure = "rejected", err
            else:
                try:
                    if mtype == "EXECUTE":
                        reply = await self._do_execute(
                            tenant, message, entry, ticket
                        )
                    elif mtype == "QUERY":
                        reply = await self._do_query(tenant, message, entry)
                    else:
                        reply = await self._do_batch(
                            tenant, message, entry, ticket
                        )
                except ReproError as err:
                    status, failure = "error", err
                except Exception as err:
                    # A bug, not a library error — but the client is still
                    # owed a reply, or it blocks for its full timeout.
                    _log.exception("request %s raised unexpectedly", label)
                    status = "error"
                    failure = ReproError(
                        f"internal error: {type(err).__name__}: {err}"
                    )
                finally:
                    tenant.admission.begin(ticket)
                    tenant.admission.finish(ticket)
        finally:
            # Settle the books *before* replying: a client holding the
            # answer can immediately observe its request in the metrics
            # and the profile.
            duration = time.perf_counter() - started
            self.metrics.histogram(
                "repro_server_latency_seconds",
                "request service latency",
                type=mtype,
            ).observe(duration)
            self.metrics.counter(
                "repro_server_requests_total",
                "requests served",
                type=mtype,
                tenant=tenant.name,
                status=status,
            ).inc()
            tracer = self.database.interpreter.tracer
            if tracer is not None and tracer.enabled:
                tracer.record(
                    "request",
                    f"{mtype.lower()}:{label}",
                    (
                        self._manager.version
                        if self._manager is not None
                        else self.database.version
                    ),
                    start=started,
                    duration=duration,
                )
            try:
                if failure is not None:
                    await self._reply_error(session, entry, mid, failure)
                elif reply is not None and not entry.replied and not session.closed:
                    entry.replied = True
                    await session.send(reply)
            finally:
                session.inflight.pop(mid, None)

    async def _reply_error(
        self, session: Session, entry: _Inflight, mid: int, err: BaseException
    ) -> None:
        if not entry.replied and not session.closed:
            entry.replied = True
            await session.send_error(mid, err)

    def _program(self, message: dict, want: str) -> DatabaseProgram:
        name = message.get("program")
        program = self.programs.get(name)
        if program is None:
            raise ExecutabilityError(f"unknown program {name!r}")
        kind = "transaction" if program.is_transaction else "query"
        if kind != want:
            raise ExecutabilityError(f"{name} is a {kind}, not a {want}")
        return program

    @staticmethod
    def _args(message: dict) -> tuple:
        args = message.get("args", [])
        if not isinstance(args, list):
            raise ProtocolError("args must be a list")
        for arg in args:
            if isinstance(arg, bool) or not isinstance(arg, (int, str)):
                raise SortError(f"argument {arg!r} is not an atom")
        return tuple(args)

    async def _do_execute(
        self,
        tenant: Tenant,
        message: dict,
        entry: _Inflight,
        ticket,
    ) -> dict:
        program = self._program(message, "transaction")
        args = self._args(message)
        outcome = await self._submit(
            tenant, program, args, message.get("label"), entry
        )
        self._feed_breaker(tenant, ticket, outcome)
        return self._outcome_doc(message["id"], outcome)

    async def _do_batch(
        self,
        tenant: Tenant,
        message: dict,
        entry: _Inflight,
        ticket,
    ) -> dict:
        items = message.get("items")
        if not isinstance(items, list):
            raise ProtocolError("BATCH requires an items list")
        slots: list = []  # per item: a scheduler request or a typed error
        requests: list = []
        for item in items:
            if not isinstance(item, dict):
                raise ProtocolError("BATCH items must be objects")
            try:
                program = self._program(item, "transaction")
                args = self._args(item)
                request = (
                    program,
                    args,
                    item.get("label"),
                    tenant.budget_for(entry.token),
                )
                slots.append(request)
                requests.append(request)
            except ReproError as err:
                slots.append(err)
        outcomes: list[TransactionOutcome] = []
        if requests:
            # One executor hop runs the whole batch through the scheduler's
            # chunked path: the event loop wakes once per BATCH frame, not
            # once per transaction.
            loop = asyncio.get_running_loop()
            runner = (
                self.database.run_batch
                if self._manager is None
                else self._manager.run_batch
            )
            try:
                outcomes = await loop.run_in_executor(
                    self._query_pool,
                    lambda: runner(requests, retry=self.retry),
                )
            except SchedulerClosed:
                raise SessionClosed("server shutting down") from None
        results: list[dict] = []
        produced = iter(outcomes)
        for slot in slots:
            if isinstance(slot, ReproError):
                results.append({"error": error_to_doc(slot)})
                continue
            outcome = next(produced)
            self._feed_breaker(tenant, ticket, outcome)
            if outcome.ok:
                results.append(
                    {
                        "status": "committed",
                        "attempts": outcome.attempts,
                        "seq": outcome.record.seq,
                    }
                )
            else:
                results.append({"error": error_to_doc(outcome.error)})
        return {"type": "BATCH_RESULT", "id": message["id"], "results": results}

    def _submit(self, tenant, program, args, label, entry):
        """Fan one transaction into the scheduler; returns an awaitable."""
        budget = tenant.budget_for(entry.token)
        if self._manager is None:
            if self._closing or self._txn_pool is None:
                raise SessionClosed("server shutting down")
            future = self._txn_pool.submit(
                self.database.execute_outcome,
                program,
                *args,
                label=label or None,
                budget=budget,
            )
            return asyncio.wrap_future(future)
        try:
            future = self._manager.submit(
                program,
                *args,
                label=label or None,
                budget=budget,
                retry=self.retry,
            )
        except SchedulerClosed:
            raise SessionClosed("server shutting down") from None
        return asyncio.wrap_future(future)

    @staticmethod
    def _feed_breaker(tenant: Tenant, ticket, outcome: TransactionOutcome) -> None:
        """This tenant's validation outcomes feed this tenant's breaker."""
        if outcome.conflicts:
            tenant.admission.record_validation(ticket, False)
        if outcome.ok:
            tenant.admission.record_validation(ticket, True)

    def _outcome_doc(self, mid: int, outcome: TransactionOutcome) -> dict:
        if not outcome.ok:
            return {
                "type": "ERROR",
                "id": mid,
                "error": error_to_doc(outcome.error),
                "attempts": outcome.attempts,
            }
        return {
            "type": "RESULT",
            "id": mid,
            "status": "committed",
            "attempts": outcome.attempts,
            "seq": outcome.record.seq,
        }

    async def _do_query(
        self, tenant: Tenant, message: dict, entry: _Inflight
    ) -> dict:
        program = self._program(message, "query")
        args = self._args(message)
        budget = tenant.budget_for(entry.token)
        loop = asyncio.get_running_loop()
        value = await loop.run_in_executor(
            self._query_pool,
            lambda: self.database.query(program, *args, budget=budget),
        )
        return {
            "type": "RESULT",
            "id": message["id"],
            "result": value_to_doc(value),
        }

    # -- metrics helpers ---------------------------------------------------

    def _count_bytes_out(self, n: int) -> None:
        self.metrics.counter(
            "repro_server_bytes_out_total", "bytes sent"
        ).inc(n)
