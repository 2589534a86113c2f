"""The ledger's traced run patches named ``src/`` entry points from outside.

``benchmarks/ledger/tracing.py`` wraps engine, planner, storage, sharding,
server and client attributes by name.  A rename or deletion in ``src/``
breaks ``--trace 1`` at install time; this test catches that in tier-1
instead of in a ledger run.  It installs both wrapper sets, checks that
every patched attribute resolves to the wrapper and that a traced query
records spans, then uninstalls and checks every original is back.
"""

from __future__ import annotations

from benchmarks.ledger import tracing
from repro import Database
from repro.domains import make_domain
from repro.logic import builder as b
from repro.transactions.program import query


def raw(owner, attr):
    """The attribute as :meth:`tracing.Recorder.patch` records it."""
    return vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)


def test_wrappers_install_record_and_uninstall():
    server, client = tracing.Recorder(), tracing.Recorder()
    try:
        tracing.install_server_side(server)
        tracing.install_client_side(client)
        patches = server._patches + client._patches
        # The first record of each target is its original (FrameDecoder.feed
        # is patched by both sides, the client over the server).
        originals: dict[tuple[int, str], tuple[object, object]] = {}
        for owner, attr, original in patches:
            originals.setdefault((id(owner), attr), (owner, original))
        for owner, attr, original in patches:
            assert raw(owner, attr) is not original, f"{owner!r}.{attr} not patched"

        domain = make_domain()
        db = Database(domain.schema, initial=domain.sample_state())
        db.enable_planner()
        headcount = query("headcount", (), b.size_of(b.rel("EMP", 5)))
        assert db.query(headcount) == 4
        names = {span[3] for span in server.spans}
        assert {"engine.query", "transactions.query"} <= names
    finally:
        client.uninstall()
        server.uninstall()
    for (_, attr), (owner, original) in originals.items():
        assert raw(owner, attr) is original, f"{owner!r}.{attr} not restored"
