"""Fuzzing the one CRC frame codec through all three of its framings.

The journal, the snapshot file and the wire protocol all frame their
payloads with ``repro.storage.serialize.frame`` and read them back with
``read_frame``.  Whatever bytes a reader is handed — a round trip, a
truncation at any offset, a single flipped bit, random garbage, or (on the
wire) any split of the stream — the only outcomes allowed are:

* journal: a prefix of the written records, with a stop reason;
* snapshot: the written state, or ``None``;
* wire: a prefix of the sent messages, then ``ProtocolError`` or waiting
  for more bytes.

No other exception may escape.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Schema, state_from_rows
from repro.errors import ProtocolError
from repro.server.protocol import FrameDecoder, encode_message
from repro.storage.journal import (
    FILE_MAGIC,
    JournalRecord,
    encode_frame,
    scan_journal,
)
from repro.storage.serialize import frame, read_frame
from repro.storage.snapshot import load_snapshot, write_snapshot

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

atoms = st.one_of(st.integers(0, 2**40), st.text(max_size=8))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), atoms),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)
records = st.builds(
    JournalRecord,
    seq=st.integers(0, 10**6),
    label=st.text(max_size=10),
    program=st.none() | st.text(max_size=6),
    args=st.lists(atoms, max_size=3).map(tuple),
    snapshot_version=st.none() | st.integers(0, 100),
    delta=st.dictionaries(st.text(max_size=5), json_values, max_size=3),
    post_digest=st.text(max_size=16),
    kind=st.sampled_from(["commit", "prepare", "outcome", "decision"]),
    txid=st.none() | st.text(max_size=6),
    epoch=st.none() | st.integers(2, 50),
)
messages = st.builds(
    lambda kind, body: {**body, "type": kind},
    st.sampled_from(["HELLO", "EXECUTE", "RESULT", "ERROR"]),
    st.dictionaries(st.text(max_size=5), json_values, max_size=3),
)


def journal_bytes(recs) -> bytes:
    return FILE_MAGIC + b"".join(encode_frame(r) for r in recs)


def flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def assert_journal_prefix(data: bytes, recs) -> None:
    scan = scan_journal(data)  # must not raise
    assert list(scan.records) == list(recs[: len(scan.records)])
    assert scan.reason
    if not scan.clean:
        assert len(scan.records) < len(recs) or scan.valid_bytes < len(data)


def wire_outcome(decoder: FrameDecoder, chunks) -> list[dict]:
    """Feed ``chunks``; the messages decoded before any ProtocolError."""
    got: list[dict] = []
    for chunk in chunks:
        try:
            got.extend(decoder.feed(chunk))
        except ProtocolError:
            break
    return got


# -- the codec itself ------------------------------------------------------


class TestCodec:
    @FUZZ
    @given(st.binary(max_size=64), st.binary(min_size=1, max_size=10))
    def test_round_trip(self, payload, marker):
        data = frame(marker, payload)
        assert read_frame(data, 0, marker, len(payload)) == (
            payload, len(data)
        )

    @FUZZ
    @given(st.binary(max_size=64), st.data())
    def test_truncation_and_flips_never_yield_a_payload(self, payload, data):
        whole = frame(b"RJ", payload)
        cut = data.draw(st.integers(0, len(whole) - 1))
        assert isinstance(read_frame(whole[:cut], 0, b"RJ", 1 << 10), str)
        bit = data.draw(st.integers(0, len(whole) * 8 - 1))
        assert isinstance(read_frame(flip(whole, bit), 0, b"RJ", 1 << 10), str)

    @FUZZ
    @given(st.binary(max_size=64))
    def test_garbage(self, garbage):
        read = read_frame(garbage, 0, b"RJ", 1 << 10)
        assert isinstance(read, (str, tuple))


# -- the journal -----------------------------------------------------------


class TestJournalFraming:
    @FUZZ
    @given(st.lists(records, max_size=4))
    def test_round_trip(self, recs):
        scan = scan_journal(journal_bytes(recs))
        assert scan.clean and list(scan.records) == recs

    @FUZZ
    @given(st.lists(records, min_size=1, max_size=3))
    def test_truncation_at_every_offset(self, recs):
        data = journal_bytes(recs)
        for cut in range(len(data) + 1):
            assert_journal_prefix(data[:cut], recs)

    @FUZZ
    @given(st.lists(records, min_size=1, max_size=3), st.data())
    def test_single_bit_flips(self, recs, data):
        whole = journal_bytes(recs)
        for _ in range(8):
            bit = data.draw(st.integers(0, len(whole) * 8 - 1))
            assert_journal_prefix(flip(whole, bit), recs)

    @FUZZ
    @given(st.binary(max_size=200), st.booleans())
    def test_garbage(self, garbage, with_header):
        data = (FILE_MAGIC if with_header else b"") + garbage
        scan = scan_journal(data)
        assert scan.reason
        assert scan.valid_bytes <= len(data)


# -- the snapshot file -----------------------------------------------------


def snapshot_state(rows):
    schema = Schema()
    schema.add_relation("R", ("a", "b"))
    return state_from_rows(schema, {"R": rows})


snapshot_rows = st.lists(st.tuples(atoms, atoms), max_size=4, unique=True)


class TestSnapshotFraming:
    @FUZZ
    @given(snapshot_rows, st.integers(0, 10**6))
    def test_round_trip(self, tmp_path, rows, seq):
        path = tmp_path / "snap.ckpt"
        state = snapshot_state(rows)
        write_snapshot(path, seq, state)
        assert load_snapshot(path) == (seq, state)

    @FUZZ
    @given(snapshot_rows, st.data())
    def test_truncation_and_flips_are_refused(self, tmp_path, rows, data):
        path = tmp_path / "snap.ckpt"
        write_snapshot(path, 1, snapshot_state(rows))
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole) - 1))
        bit = data.draw(st.integers(0, len(whole) * 8 - 1))
        for damaged in (whole[:cut], flip(whole, bit), whole + b"\0"):
            path.write_bytes(damaged)
            assert load_snapshot(path) is None

    @FUZZ
    @given(st.binary(max_size=200))
    def test_garbage(self, tmp_path, garbage):
        path = tmp_path / "snap.ckpt"
        path.write_bytes(garbage)
        assert load_snapshot(path) is None


# -- the wire --------------------------------------------------------------


class TestWireFraming:
    @FUZZ
    @given(st.lists(messages, max_size=4), st.data())
    def test_any_split_decodes_the_same_messages(self, msgs, data):
        stream = b"".join(encode_message(m) for m in msgs)
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(stream)), max_size=6))
        )
        bounds = [0, *cuts, len(stream)]
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        decoder = FrameDecoder()
        got = [m for chunk in chunks for m in decoder.feed(chunk)]
        assert got == msgs

    @FUZZ
    @given(st.lists(messages, min_size=1, max_size=3))
    def test_truncation_waits_for_more_bytes(self, msgs):
        stream = b"".join(encode_message(m) for m in msgs)
        for cut in range(len(stream)):
            got = FrameDecoder().feed(stream[:cut])  # never raises
            assert got == msgs[: len(got)] and len(got) < len(msgs)

    @FUZZ
    @given(st.lists(messages, min_size=1, max_size=3), st.data())
    def test_single_bit_flips(self, msgs, data):
        stream = b"".join(encode_message(m) for m in msgs)
        bit = data.draw(st.integers(0, len(stream) * 8 - 1))
        got = wire_outcome(FrameDecoder(), [flip(stream, bit)])
        assert got == msgs[: len(got)] and len(got) < len(msgs)

    @FUZZ
    @given(st.binary(max_size=200), st.integers(1, 16))
    def test_garbage(self, garbage, step):
        chunks = [garbage[i : i + step] for i in range(0, len(garbage), step)]
        wire_outcome(FrameDecoder(), chunks)


@pytest.mark.parametrize("limit", [0, 5])
def test_wire_refuses_frames_over_its_limit(limit):
    decoder = FrameDecoder(max_payload=limit)
    with pytest.raises(ProtocolError, match="implausible frame length"):
        decoder.feed(encode_message({"type": "CLOSE", "id": 1}))
