"""The database evolution graph and maintained histories (paper, Section 1).

The evolution of a database is a directed multigraph whose nodes are states
and whose arcs are transactions.  The paper's three structural properties are
enforced/derivable here:

1. it is **not complete** — only arcs for actually-executed (or declared)
   transactions exist;
2. it is a **multi-graph** — several transactions may connect the same pair
   of states;
3. it is **reflexive and transitive** — every state reaches itself through
   the null transaction ``Λ``, and the concatenation of two transactions is a
   transaction (:meth:`EvolutionGraph.transitions_from` closes over both).

A :class:`History` is the *partial model* the paper's Section 3 discusses:
the window of the most recent ``k`` states (``k = 1``: just the current
state; ``k = None``: the complete history) against which constraints are
checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import CheckabilityError
from repro.db.state import State


@dataclass(frozen=True)
class Transition:
    """One arc of the evolution graph: a composite, applicable transaction.

    ``steps`` is the sequence of (label, source-state, target-state) hops the
    transition is composed of; the empty sequence is the null transaction.
    ``apply`` is only defined at the recorded source state — evolution graphs
    record *executions*, so a transition is a partial mapping.
    """

    steps: tuple[tuple[str, State, State], ...] = ()

    @property
    def is_null(self) -> bool:
        return not self.steps

    @property
    def label(self) -> str:
        if self.is_null:
            return "Λ"
        return " ;; ".join(label for label, _, _ in self.steps)

    def source(self) -> Optional[State]:
        return self.steps[0][1] if self.steps else None

    def target(self) -> Optional[State]:
        return self.steps[-1][2] if self.steps else None

    def apply(self, state: State) -> Optional[State]:
        """The resulting state, or ``None`` when undefined at ``state``."""
        if self.is_null:
            return state
        if self.steps[0][1] != state:
            return None
        return self.steps[-1][2]

    def then(self, other: "Transition") -> Optional["Transition"]:
        """Composition; ``None`` when the endpoints do not meet."""
        if self.is_null:
            return other
        if other.is_null:
            return self
        if self.steps[-1][2] != other.steps[0][1]:
            return None
        return Transition(self.steps + other.steps)

    def __len__(self) -> int:
        return len(self.steps)


class EvolutionGraph:
    """A multigraph of states and executed transactions.

    Nodes are states (content-equal states coincide); parallel arcs with
    different labels model the multigraph property.
    """

    def __init__(self) -> None:
        # state -> its outgoing (target, label) arcs, both in insertion order.
        self._arcs: dict[State, list[tuple[State, str]]] = {}

    # -- construction --------------------------------------------------------

    def add_state(self, state: State) -> State:
        self._arcs.setdefault(state, [])
        return state

    def add_transition(self, source: State, target: State, label: str) -> Transition:
        self.add_state(source)
        self.add_state(target)
        self._arcs[source].append((target, label))
        return Transition(((label, source, target),))

    # -- interrogation --------------------------------------------------------

    def states(self) -> list[State]:
        return list(self._arcs)

    def __len__(self) -> int:
        return len(self._arcs)

    def edge_count(self) -> int:
        return sum(len(arcs) for arcs in self._arcs.values())

    def direct_transitions_from(self, state: State) -> list[Transition]:
        """The single-arc transitions leaving ``state``."""
        return [
            Transition(((label, state, target),))
            for target, label in self._arcs.get(state, ())
        ]

    def transitions_from(
        self, state: State, max_length: int | None = None
    ) -> Iterator[Transition]:
        """All transitions applicable at ``state``: the null transaction,
        every arc, and every composition (transitive closure), optionally
        bounded by ``max_length`` hops.

        Compositions are enumerated breadth-first without revisiting a
        (target, length) pair unboundedly; cyclic graphs need ``max_length``.
        """
        yield Transition(())
        frontier: list[Transition] = self.direct_transitions_from(state)
        length = 1
        while frontier:
            for tr in frontier:
                yield tr
            if max_length is not None and length >= max_length:
                return
            next_frontier: list[Transition] = []
            for tr in frontier:
                tgt = tr.target()
                assert tgt is not None
                for ext in self.direct_transitions_from(tgt):
                    composed = tr.then(ext)
                    if composed is not None:
                        next_frontier.append(composed)
            if max_length is None and length > len(self._arcs):
                raise CheckabilityError(
                    "unbounded transition enumeration over a cyclic evolution "
                    "graph; pass max_length"
                )
            frontier = next_frontier
            length += 1

    def reachable(self, source: State, target: State) -> bool:
        """Is ``target`` reachable from ``source`` (reflexively)?  Both
        must be states of the graph."""
        if source == target:
            return True
        self._arcs_of(target)
        seen = {source}
        frontier = [source]
        while frontier:
            for successor in self.successors(frontier.pop()):
                if successor == target:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False

    def successors(self, state: State) -> list[State]:
        """The distinct states one arc away, in first-arc order."""
        return list(dict.fromkeys(t for t, _ in self._arcs_of(state)))

    def _arcs_of(self, state: State) -> list[tuple[State, str]]:
        try:
            return self._arcs[state]
        except KeyError:
            raise CheckabilityError(
                "state is not in the evolution graph"
            ) from None


@dataclass
class History:
    """A maintained linear history — the partial model for checking.

    ``window`` bounds how many of the most recent states are kept
    (``None`` = complete history).  ``states[-1]`` is the current state.
    """

    window: Optional[int] = None
    states: list[State] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 1:
            raise CheckabilityError("history window must keep at least one state")

    @property
    def current(self) -> State:
        if not self.states:
            raise CheckabilityError("empty history has no current state")
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)

    def advance(self, new_state: State, label: str = "tx") -> None:
        """Record a transition from the current state to ``new_state``."""
        self.states.append(new_state)
        if self.states[:-1]:
            self.labels.append(label)
        if self.window is not None and len(self.states) > self.window:
            drop = len(self.states) - self.window
            self.states = self.states[drop:]
            self.labels = self.labels[drop:]

    def start(self, state: State) -> None:
        if self.states:
            raise CheckabilityError("history already started")
        self.states.append(state)

    def fork(self) -> "History":
        """An independent copy sharing the (immutable) states.

        The engine forks the live history into a *candidate*, advances the
        candidate, checks constraints against it, and adopts its lists on
        commit — the live history is never observed mid-transaction.
        """
        clone = History(window=self.window)
        clone.states = list(self.states)
        clone.labels = list(self.labels)
        return clone

    def pairs(self) -> Iterable[tuple[State, State]]:
        """Reachable ordered pairs within the window ((s_i, s_j), i <= j)."""
        for i, j in itertools.combinations_with_replacement(range(len(self.states)), 2):
            yield self.states[i], self.states[j]

    def to_graph(self) -> EvolutionGraph:
        """The evolution graph induced by the window (a chain)."""
        graph = EvolutionGraph()
        if not self.states:
            return graph
        graph.add_state(self.states[0])
        for i in range(1, len(self.states)):
            label = self.labels[i - 1] if i - 1 < len(self.labels) else f"tx{i}"
            graph.add_transition(self.states[i - 1], self.states[i], label)
        return graph

    def transition_between(self, source: State, target: State) -> Optional[Transition]:
        """The chain transition from ``source`` to ``target``, if forward."""
        try:
            i = self.states.index(source)
            j = self.states.index(target)
        except ValueError:
            return None
        if i > j:
            return None
        steps = tuple(
            (
                self.labels[k] if k < len(self.labels) else f"tx{k}",
                self.states[k],
                self.states[k + 1],
            )
            for k in range(i, j)
        )
        return Transition(steps)


def chain_graph(states: list[State], labels: Optional[list[str]] = None) -> EvolutionGraph:
    """An evolution graph that is a single chain of the given states."""
    graph = EvolutionGraph()
    if not states:
        return graph
    graph.add_state(states[0])
    for i in range(1, len(states)):
        label = labels[i - 1] if labels and i - 1 < len(labels) else f"tx{i}"
        graph.add_transition(states[i - 1], states[i], label)
    return graph
