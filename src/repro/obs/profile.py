"""Profiling: per-transaction flame-style breakdowns over trace spans.

:meth:`Database.profile() <repro.engine.Database.profile>` attaches a
:class:`~repro.obs.trace.Tracer` for the duration of a ``with`` block and
yields a :class:`Profile`.  Afterwards (or during), the profile offers:

* :meth:`Profile.transactions` — one :class:`TransactionProfile` per traced
  transaction, with the span tree, its flame rendering and how many
  attempts the scheduler made;
* :meth:`Profile.breakdown` — aggregate self-time by ``kind:label`` across
  all transactions (where did the time go, over the whole block);
* :meth:`Profile.to_json` / :func:`profile_from_json` — a round-trippable
  document carrying the spans and a metrics snapshot;
* :meth:`Profile.exposition` — the metrics half in Prometheus text form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


@dataclass(frozen=True)
class TransactionProfile:
    """The traced execution of one transaction: the root span of its last
    attempt, and how many attempts it took (a scheduler retries a
    transaction that failed validation)."""

    root: Span
    attempts: int = 1

    @property
    def label(self) -> str:
        return self.root.label

    @property
    def duration(self) -> float:
        return self.root.duration

    def step_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    def touched(self) -> tuple[str, ...]:
        names: set = set()
        for span in self.root.walk():
            names.update(span.touched)
        return tuple(sorted(names))

    def flame(self, *, min_fraction: float = 0.0) -> str:
        """An indented flame-style rendering of the span tree.

        ``min_fraction`` prunes spans below that share of the root's
        duration (0 keeps everything)."""
        total = self.root.duration or 1e-12
        lines: list[str] = []

        def render(span: Span, depth: int) -> None:
            if span.duration / total < min_fraction and depth > 0:
                return
            share = span.duration / total
            touched = f" [{','.join(span.touched)}]" if span.touched else ""
            lines.append(
                f"{'  ' * depth}{span.kind} {span.label}  "
                f"{span.duration * 1e6:.0f}us ({share:.0%}){touched}"
            )
            for child in span.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


class Profile:
    """What one ``Database.profile()`` block observed.

    >>> from repro.domains import make_domain
    >>> from repro.engine import Database
    >>> domain = make_domain()
    >>> db = Database(domain.schema, initial=domain.sample_state())
    >>> with db.profile() as prof:
    ...     _ = db.execute(domain.create_project, "web", 50)
    ...     _ = db.execute(domain.hire, "erin", "cs", 90, 25, "S")
    >>> [t.label for t in prof.transactions()]
    ['create-project', 'hire']
    >>> sorted(prof.transactions()[1].touched())
    ['EMP']
    >>> doc = prof.to_doc()
    >>> sorted(doc)
    ['breakdown', 'metrics', 'trace']
    """

    def __init__(
        self, tracer: Tracer, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics

    # -- per-transaction ---------------------------------------------------

    def transactions(self) -> tuple[TransactionProfile, ...]:
        """One profile per transaction, in the order their first root span
        completed: the root spans one transaction's attempts opened count
        once, as its last attempt; an untagged root is a transaction of its
        own."""
        groups: dict = {}
        for root in self.tracer.roots():
            key = id(root) if root.txn is None else ("txn", root.txn)
            groups.setdefault(key, []).append(root)
        return tuple(
            TransactionProfile(max(roots, key=lambda r: r.attempt), len(roots))
            for roots in groups.values()
        )

    # -- aggregate ---------------------------------------------------------

    def breakdown(self) -> list[tuple[str, float, int]]:
        """Self-time aggregated by ``kind:label`` across every traced
        transaction: ``(key, total_self_seconds, hits)``, hottest first
        (ties break by key so the order is stable)."""
        acc: dict[str, tuple[float, int]] = {}
        for span in self.tracer.spans():
            key = f"{span.kind}:{span.label}"
            total, hits = acc.get(key, (0.0, 0))
            acc[key] = (total + span.self_duration, hits + 1)
        return sorted(
            ((key, total, hits) for key, (total, hits) in acc.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def render(self, *, top: int = 15) -> str:
        """A human-readable summary: the hot breakdown rows plus one line
        per transaction."""
        lines = ["profile breakdown (self time):"]
        for key, total, hits in self.breakdown()[:top]:
            lines.append(f"  {total * 1e3:8.3f} ms  {hits:6d}x  {key}")
        if self.tracer.dropped:
            lines.append(f"  ... {self.tracer.dropped} spans dropped (max_spans)")
        lines.append("transactions:")
        for txn in self.transactions():
            lines.append(
                f"  {txn.label}: {txn.duration * 1e3:.3f} ms, "
                f"{txn.step_count()} steps, touched {list(txn.touched())}"
            )
        return "\n".join(lines)

    # -- export ------------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "trace": self.tracer.to_doc(),
            "metrics": self.metrics.to_doc() if self.metrics else {},
            "breakdown": [
                {"key": key, "self_seconds": total, "hits": hits}
                for key, total, hits in self.breakdown()
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)

    def exposition(self) -> str:
        return self.metrics.exposition() if self.metrics else ""


def profile_from_json(text: str) -> dict:
    """Parse a :meth:`Profile.to_json` document back into a dict whose
    ``trace.roots`` are :class:`Span` objects — the round-trip used by
    external tooling (and the acceptance test)."""
    doc = json.loads(text)
    doc["trace"]["roots"] = [
        Span.from_doc(span) for span in doc["trace"].get("roots", [])
    ]
    return doc
