"""Closed-loop load generation against the serving child, the correctness
gate, and one measured *phase*.

A phase is: set up (build streams, start the child, connect), warm up, tell
the child to ``mark``, drive the closed loops for the window, collect the
child's final report, and — for durable workloads — re-open the store from
disk.  Each connection is one thread with one ``Client``; a connection sends
its next request when the previous reply arrives.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import ROOT, tracing
from .workloads import COMMIT, WORKLOADS, Op, Workload, content_digest, reject

now = time.perf_counter

#: Durable stores live inside the checkout (the driver forbids writing
#: anywhere else) and are removed when the phase ends.
SCRATCH = ROOT / ".bench_build" / "ledger"

CHILD_START_TIMEOUT = 60.0
CHILD_REPLY_TIMEOUT = 120.0
#: With ``ops_limit`` the op count ends the window; this only stops a hang.
OPS_LIMIT_TIMEOUT = 150.0
FAILOVER_CYCLES = 5
REPLICA_POLL_INTERVAL = 0.1


@functools.lru_cache(maxsize=None)
def _cores() -> tuple[int, ...]:
    """The cores this process was allowed when first asked — before the first
    pin narrows the mask that a later ``sched_getaffinity`` (and every child)
    would see."""
    if not hasattr(os, "sched_getaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def _pin(pid: int, which: int) -> None:
    """Keep the load generator (``which=0``) and the server (``which=-1``)
    on different cores where there are two, so neither migrates nor steals
    the other's core mid-run."""
    cores = _cores()
    if len(cores) >= 2:
        try:
            os.sched_setaffinity(pid, {cores[which]})
        except OSError:
            pass


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found a wrong
    outcome, which is reported through ``correct``/``failed``)."""


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------


class Child:
    """Handle on one serving child: start, command, finish, always reap."""

    def __init__(self, workload: str, seed: int, path: Optional[str],
                 trace: bool, spans: Optional[str]) -> None:
        argv = [sys.executable, "-m", "benchmarks.ledger.child",
                "--workload", workload, "--seed", str(seed)]
        if path is not None:
            argv += ["--path", path]
        if trace:
            argv.append("--trace")
        if spans is not None:
            argv += ["--spans", spans]
        env = dict(os.environ)
        # Hash randomisation reorders every set of relation names from one
        # process to the next; a fixed seed takes that out of the spread.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        _pin(self.proc.pid, -1)
        try:
            hello = self._read(CHILD_START_TIMEOUT)
        except BaseException:
            self.reap()
            raise
        self.address = (hello["host"], hello["port"])

    def _read(self, timeout: float) -> dict:
        box: list = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout)
        if reader.is_alive() or not box or not box[0]:
            raise BenchmarkError(
                f"serving child gave no reply within {timeout:.0f}s "
                f"(exit code {self.proc.poll()})")
        return json.loads(box[0])

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read(CHILD_REPLY_TIMEOUT)

    def peak_rss_kb(self) -> Optional[int]:
        """The child's peak resident set so far (Linux ``VmHWM``)."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    def cpu_seconds(self) -> float:
        """CPU time (user + system) the child has used so far."""
        try:
            with open(f"/proc/{self.proc.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        except (OSError, IndexError, ValueError):
            return 0.0

    def finish(self) -> dict:
        final = self.command("finish")
        self.reap()
        return final

    def reap(self) -> None:
        """Stop the child if it is still running and wait until it has
        ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()  # EOF ends the command loop
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


# ---------------------------------------------------------------------------
# issuing one op and judging its outcome
# ---------------------------------------------------------------------------


def _judge_query(expect, value) -> bool:
    tag, wanted = expect
    if tag == "atom":
        return value == wanted
    return frozenset(t.values[0] for t in value) == wanted


def issue(client, op: Op) -> tuple[bool, int, str]:
    """Send ``op``; returns ``(as expected, transactions done, what
    happened)``."""
    from repro.errors import ConstraintViolation, ReproError

    try:
        if op.kind == "execute":
            client.execute(op.program, *op.args)
            got = COMMIT
        elif op.kind == "query":
            value = client.query(op.program, *op.args)
            ok = _judge_query(op.expect, value)
            return ok, 1, "value" if ok else f"value {value!r}"
        else:
            results = client.batch(op.items)
            bad = [r for r in results if isinstance(r, BaseException)]
            if bad or len(results) != len(op.items):
                return False, len(results) - len(bad), f"batch errors {bad[:2]!r}"
            return True, len(results), COMMIT
    except ConstraintViolation as err:
        got = reject(err.constraint_name)
    except (ReproError, TimeoutError) as err:
        got = f"error:{type(err).__name__}: {err}"
    return got == op.expect, 1, got


# ---------------------------------------------------------------------------
# one phase
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """Everything one phase measured."""

    connections: int
    traced: bool
    setup_s: list[float]
    server_cpu_s: float = 0.0  # child CPU time over the window
    #: per connection: (cls, start, end, ok, transactions)
    samples: list[list[tuple]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: acknowledged committed transactions by latency class (warm-up included)
    acked: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)  # child metrics at mark
    final: dict = field(default_factory=dict)  # child's finish report
    client_spans: Optional[dict] = None
    peak_rss_kb: Optional[int] = None
    counts_ok: bool = True
    reopen: Optional[dict] = None
    replica: Optional[dict] = None
    failover_windows_s: list[float] = field(default_factory=list)
    stream_sha256: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def tally(self, op: Op, ok: bool, got: str, *, warm: bool = False) -> None:
        """Count one judged op (any connection's thread may call this)."""
        with self._lock:
            self.attempted += 1
            if ok and op.kind != "query" and op.expect == COMMIT:
                self.acked[op.cls] = self.acked.get(op.cls, 0) + (len(op.items) or 1)
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(
                        f"{'warm-up ' if warm else ''}{op.kind} {op.program}"
                        f"{op.args!r}: expected {op.expect!r}, got {got}")

    @property
    def ops(self) -> int:
        """Requests issued in the measured window."""
        return sum(len(conn) for conn in self.samples)

    @property
    def correct(self) -> bool:
        reopened = self.reopen is None or (
            self.reopen["digest_ok"] and self.reopen["acked_lost"] == 0)
        return self.failed == 0 and self.counts_ok and reopened


class _Setup:
    """The product of one set-up: streams, child, connected clients."""

    def __init__(self, workload: Workload, seed: int, nconn: int, trace: bool,
                 spans: Optional[str], tag: str) -> None:
        from repro.server.client import Client

        self.path: Optional[str] = None
        self.child: Optional[Child] = None
        self.clients: list = []
        try:
            if workload.durable:
                SCRATCH.mkdir(parents=True, exist_ok=True)
                self.path = str(SCRATCH / f"{workload.name}-{os.getpid()}-{tag}")
                shutil.rmtree(self.path, ignore_errors=True)
                os.makedirs(self.path)
            self.streams = [workload.stream(seed, c, nconn) for c in range(nconn)]
            self.child = Child(workload.name, seed, self.path, trace, spans)
            for _ in range(nconn):
                client = Client(*self.child.address, timeout=60.0)
                client.connect()
                self.clients.append(client)
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - best effort on a dying child
                pass
        self.clients = []
        if self.child is not None:
            self.child.reap()
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


def run_phase(
    name: str,
    seed: int,
    seconds: float,
    *,
    connections: Optional[int] = None,
    traced: bool = False,
    ops_limit: Optional[int] = None,
    setup_repeats: int = 1,
    spans_dir: Optional[str] = None,
) -> Phase:
    """Run one phase of workload ``name``.

    ``traced`` installs the wrappers on both sides and, on a sharded
    workload, adds the diagnostics: a ``Replica`` tailing one shard during
    the window and the kill → auto-promote cycles after it.  ``ops_limit``
    ends the window after that many ops per connection (so counts repeat
    exactly); otherwise it ends after ``seconds``.
    """
    started = now()
    _pin(os.getpid(), 0)
    workload = WORKLOADS[name]
    nconn = connections or workload.connections
    spans_file = None
    if traced and spans_dir is not None:
        os.makedirs(spans_dir, exist_ok=True)
        spans_file = os.path.join(spans_dir, f"{name}.server.spans.json")

    setup_times: list[float] = []
    setup: Optional[_Setup] = None
    recorder: Optional[tracing.Recorder] = None
    try:
        for attempt in range(setup_repeats):
            if setup is not None:
                setup.teardown()
            t0 = now()
            setup = _Setup(workload, seed, nconn, traced, spans_file, str(attempt))
            setup_times.append(now() - t0)
        phase = Phase(nconn, traced, setup_times)
        phase.stream_sha256 = [
            workload.stream_sha256(seed, c, nconn) for c in range(nconn)]
        if traced:
            recorder = tracing.Recorder()
            tracing.install_client_side(recorder)
        _drive(phase, workload, setup, seconds, ops_limit, recorder)
        if recorder is not None and spans_dir is not None:
            recorder.dump(os.path.join(spans_dir, f"{name}.client.spans.json"),
                          workload=name, seed=seed, process="client")
        _check_counts(phase, workload, seed, setup.streams)
        if workload.durable:
            phase.reopen = _reopen(phase, workload, setup.path)
        phase.wall_s = now() - started
        return phase
    finally:
        if recorder is not None:
            recorder.uninstall()
        if setup is not None:
            setup.teardown()


def _drive(phase: Phase, workload: Workload, setup: _Setup, seconds: float,
           ops_limit: Optional[int], recorder) -> None:
    """Warm up, mark, run the closed loops for the window, collect the
    child's report.  The main thread only coordinates: two barriers fence
    the warm-up from the window so that ``mark`` lands between them."""
    nconn = phase.connections
    child = setup.child
    warmed = threading.Barrier(nconn + 1)
    go = threading.Barrier(nconn + 1)
    deadline = [0.0]
    phase.samples = [[] for _ in range(nconn)]
    errors: list[BaseException] = []

    def connection(index: int) -> None:
        client, stream = setup.clients[index], setup.streams[index]
        samples = phase.samples[index]
        try:
            for _ in range(workload.warmup):
                op = next(stream)
                ok, _ntx, got = issue(client, op)
                phase.tally(op, ok, got, warm=True)
            warmed.wait()
            go.wait()
            done = 0
            while now() < deadline[0] and (ops_limit is None or done < ops_limit):
                op = next(stream)
                t0 = now()
                ok, ntx, got = issue(client, op)
                t1 = now()
                samples.append((op.cls, t0, t1, ok, ntx))
                phase.tally(op, ok, got)
                done += 1
                if index == 0 and done == workload.rss_mark:
                    phase.peak_rss_kb = child.peak_rss_kb()
        except BaseException as err:  # noqa: BLE001 - surfaced by the main thread
            errors.append(err)
            warmed.abort()
            go.abort()

    threads = [threading.Thread(target=connection, args=(i,), daemon=True)
               for i in range(nconn)]
    for thread in threads:
        thread.start()
    tail = None
    cpu_start = 0.0
    try:
        warmed.wait(timeout=CHILD_REPLY_TIMEOUT)
        phase.baseline = child.command("mark")["metrics"]
        if recorder is not None:
            recorder.reset()
        if phase.traced and workload.sharded:
            tail = _ReplicaTail(os.path.join(setup.path, "shard-0"))
            tail.start()
        cpu_start = child.cpu_seconds()
        deadline[0] = now() + (seconds if ops_limit is None else OPS_LIMIT_TIMEOUT)
        go.wait(timeout=CHILD_REPLY_TIMEOUT)
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join(timeout=max(seconds, OPS_LIMIT_TIMEOUT) + CHILD_REPLY_TIMEOUT)
    if tail is not None:
        phase.replica = tail.stop()
    if errors:
        raise BenchmarkError(f"load generation failed: {errors[0]!r}") from errors[0]
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkError("a connection did not finish its window")
    phase.server_cpu_s = child.cpu_seconds() - cpu_start
    if recorder is not None:
        phase.client_spans = tracing.aggregate(recorder.spans)
    if phase.traced and workload.sharded:
        phase.failover_windows_s = _failover_cycles(setup, child, phase)
    if phase.peak_rss_kb is None:
        phase.peak_rss_kb = child.peak_rss_kb()
    for client in setup.clients:
        client.close()
    setup.clients = []
    phase.final = child.finish()
    if phase.peak_rss_kb is None:
        phase.peak_rss_kb = phase.final["maxrss_kb"]


class _ReplicaTail:
    """A ``Replica`` tailing one shard's journal from the driver process
    while the traced window runs: how long a poll takes and how far behind
    the replica is each time it looks."""

    def __init__(self, shard_dir: str) -> None:
        from repro.sharding import Replica

        self._replica = Replica(shard_dir)
        self._stop = threading.Event()
        self._polls: list[float] = []
        self._lags: list[int] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(REPLICA_POLL_INTERVAL):
            self._lags.append(self._replica.lag())
            t0 = now()
            self._replica.poll()
            self._polls.append(now() - t0)

    def stop(self) -> dict:
        self._stop.set()
        self._thread.join(timeout=30)
        return {
            "polls": len(self._polls),
            "poll_ms": 1e3 * statistics.mean(self._polls) if self._polls else 0.0,
            "lag_records": statistics.mean(self._lags) if self._lags else 0.0,
        }


def _failover_cycles(setup: _Setup, child: Child, phase: Phase) -> list[float]:
    """Kill one shard's primary and time the gap a client sees: from the
    last commit before the kill to the first commit after auto-promotion
    (the client backs off on ``ShardUnavailable`` and resubmits)."""
    stream, client = setup.streams[0], setup.clients[0]
    child.command("failover")
    stripe = stream.shadow.owned[0]
    victim = stream.placement[stripe]

    def commit(txn: tuple) -> None:
        op = Op("execute", "write", txn[0], tuple(txn[1:]))
        ok, _ntx, got = issue(client, op)
        phase.tally(op, ok, got)

    windows = []
    for _ in range(FAILOVER_CYCLES):
        commit(stream.shadow.rotate(stripe, stream.rng))
        before = now()
        child.command(f"kill {victim}")
        commit(stream.shadow.rotate(stripe, stream.rng))
        windows.append(now() - before)
    return windows


def _check_counts(phase: Phase, workload: Workload, seed: int, streams) -> None:
    """Final per-relation cardinalities must equal the shadow model."""
    expected = Counter(workload.base_counts(seed))
    for stream in streams:
        expected.update(stream.counts())
    got = phase.final["counts"]
    wrong = {name: (n, got.get(name)) for name, n in expected.items()
             if got.get(name) != n}
    if wrong:
        phase.counts_ok = False
        phase.failures.append(f"cardinalities (expected, got): {wrong}")


def _reopen(phase: Phase, workload: Workload, path: str) -> dict:
    """Re-open the store from disk; it must hold exactly the state the
    child served last, which the shadow model already vouched for."""
    t0 = now()
    database, records, replayed = workload.reopen(path)
    t1 = now()
    workload.first_query(database)
    t2 = now()
    digest = content_digest(
        database.combined_state() if workload.sharded else database.current)
    database.close()
    acked = workload.acked_records(phase.acked)
    return {
        "recover_ms": 1e3 * (t1 - t0),
        "recovery_s": t2 - t0,
        "replayed_records": replayed,
        "digest_ok": digest == phase.final["digest"],
        "acked_lost": max(0, acked - records),
        "disk_bytes": _tree_bytes(path),
    }


def _tree_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
