"""Evolution graphs and histories: the paper's Section 1 properties."""

import pytest

from repro.errors import CheckabilityError
from repro.db import Schema, History, EvolutionGraph, chain_graph, state_from_rows
from repro.db.evolution import Transition


@pytest.fixture()
def states():
    schema = Schema()
    schema.add_relation("R", ("a",))
    return [
        state_from_rows(schema, {"R": [(i,) for i in range(n)]}) for n in (1, 2, 3, 4)
    ]


class TestTransition:
    def test_null_transition_applies_anywhere(self, states):
        null = Transition(())
        assert null.apply(states[0]) == states[0]
        assert null.apply(states[2]) == states[2]
        assert null.is_null and null.label == "Λ"

    def test_transition_partial(self, states):
        tr = Transition((("t", states[0], states[1]),))
        assert tr.apply(states[0]) == states[1]
        assert tr.apply(states[2]) is None

    def test_composition(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        t2 = Transition((("t2", states[1], states[2]),))
        composed = t1.then(t2)
        assert composed is not None
        assert composed.apply(states[0]) == states[2]
        assert len(composed) == 2

    def test_composition_endpoint_mismatch(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        t3 = Transition((("t3", states[2], states[3]),))
        assert t1.then(t3) is None

    def test_null_is_identity_of_composition(self, states):
        t1 = Transition((("t1", states[0], states[1]),))
        null = Transition(())
        assert t1.then(null) == t1
        assert null.then(t1) == t1


class TestEvolutionGraph:
    def test_reflexive(self, states):
        """Property (3): every state reaches itself via Λ."""
        g = chain_graph(states)
        transitions = list(g.transitions_from(states[0]))
        assert any(t.is_null for t in transitions)

    def test_transitive(self, states):
        """Property (3): composite transitions are enumerated."""
        g = chain_graph(states)
        targets = {t.target() for t in g.transitions_from(states[0]) if not t.is_null}
        assert targets == {states[1], states[2], states[3]}

    def test_multigraph(self, states):
        """Property (2): two transactions may connect the same states."""
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "tx-a")
        g.add_transition(states[0], states[1], "tx-b")
        labels = {t.label for t in g.direct_transitions_from(states[0])}
        assert labels == {"tx-a", "tx-b"}

    def test_not_complete(self, states):
        """Property (1): unrelated states are unreachable."""
        g = EvolutionGraph()
        g.add_state(states[0])
        g.add_state(states[2])
        assert not g.reachable(states[0], states[2])
        assert g.reachable(states[0], states[0])  # reflexively

    def test_unknown_state_is_refused(self, states):
        """Asking about a state the graph never saw is an error, not a
        quiet "unreachable"."""
        g = chain_graph(states[:2])
        for ask in (
            lambda: g.reachable(states[0], states[3]),
            lambda: g.reachable(states[3], states[0]),
            lambda: g.successors(states[3]),
        ):
            with pytest.raises(CheckabilityError):
                ask()

    def test_max_length_bounds_enumeration(self, states):
        g = chain_graph(states)
        short = [t for t in g.transitions_from(states[0], max_length=1) if not t.is_null]
        assert {t.target() for t in short} == {states[1]}

    def test_cyclic_graph_requires_bound(self, states):
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "go")
        g.add_transition(states[1], states[0], "back")
        with pytest.raises(CheckabilityError):
            list(g.transitions_from(states[0]))
        bounded = list(g.transitions_from(states[0], max_length=4))
        assert len(bounded) >= 4


class TestHistory:
    def test_window_drops_old_states(self, states):
        h = History(window=2)
        h.start(states[0])
        for s in states[1:]:
            h.advance(s)
        assert h.states == states[-2:]
        assert h.current == states[-1]

    def test_unbounded_keeps_everything(self, states):
        h = History(window=None)
        h.start(states[0])
        for s in states[1:]:
            h.advance(s)
        assert len(h) == 4

    def test_window_must_be_positive(self):
        with pytest.raises(CheckabilityError):
            History(window=0)

    def test_empty_history_has_no_current(self):
        with pytest.raises(CheckabilityError):
            History().current

    def test_double_start_rejected(self, states):
        h = History()
        h.start(states[0])
        with pytest.raises(CheckabilityError):
            h.start(states[1])

    def test_to_graph_is_chain(self, states):
        h = History()
        h.start(states[0])
        h.advance(states[1], "tx1")
        h.advance(states[2], "tx2")
        g = h.to_graph()
        assert len(g) == 3 and g.edge_count() == 2

    def test_transition_between(self, states):
        h = History()
        h.start(states[0])
        h.advance(states[1], "a")
        h.advance(states[2], "b")
        tr = h.transition_between(states[0], states[2])
        assert tr is not None and tr.label == "a ;; b"
        assert h.transition_between(states[2], states[0]) is None

    def test_labels_follow_window(self, states):
        h = History(window=2)
        h.start(states[0])
        h.advance(states[1], "a")
        h.advance(states[2], "b")
        assert h.labels == ["b"]
