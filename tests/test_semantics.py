"""The situational evaluator over partial models: edge cases."""

import pytest

from repro.errors import EvaluationError
from repro.constraints import Evaluator, PartialModel, TransitionInapplicable
from repro.db import EvolutionGraph, chain_graph
from repro.logic import builder as b
from repro.logic.formulas import Eq
from repro.logic.fluents import Seq
from repro.transactions import Env


@pytest.fixture()
def states(domain):
    s0 = domain.sample_state()
    s1 = domain.birthday.run(s0, "alice")
    s2 = domain.birthday.run(s1, "bob")
    return [s0, s1, s2]


@pytest.fixture()
def model(states):
    return PartialModel(chain_graph(states))


class TestStateQuantification:
    def test_forall_states(self, domain, model):
        s = b.state_var("s")
        f = b.forall(s, b.holds(s, domain.employed(b.atom("alice"))))
        assert Evaluator(model).holds(f)

    def test_exists_state(self, domain, model, states):
        s = b.state_var("s")
        age = lambda st: None
        e = domain.emp.var("e")
        # some state where alice's age is the incremented one
        f = b.exists(
            s,
            b.holds(
                s,
                b.exists(
                    e,
                    b.land(
                        b.member(e, domain.emp.rel()),
                        b.eq(domain.emp.attr("e-name", e), b.atom("alice")),
                        b.eq(domain.emp.attr("age", e), b.atom(36)),
                    ),
                ),
            ),
        )
        assert Evaluator(model).holds(f)

    def test_named_state_constants(self, domain, states):
        model = PartialModel(chain_graph(states), constants={"s0": states[0]})
        f = b.holds(b.state_const("s0"), domain.employed(b.atom("alice")))
        assert Evaluator(model).holds(f)

    def test_unknown_constant_reported(self, domain, model):
        f = b.holds(b.state_const("mystery"), b.true())
        with pytest.raises(EvaluationError, match="mystery"):
            Evaluator(model).holds(f)


class TestTransitionSemantics:
    def test_transition_application(self, domain, model, states):
        s = b.state_var("s")
        t = b.trans_var("t")
        # after every transition from the first state, alice is employed
        f = b.forall(
            [s, t], b.holds(b.after(s, t), domain.employed(b.atom("alice")))
        )
        assert Evaluator(model).holds(f)

    def test_inapplicable_vacuous_for_universal(self, domain, states):
        # an isolated extra state: transitions from the chain do not apply
        g = EvolutionGraph()
        g.add_transition(states[0], states[1], "t01")
        g.add_state(states[2])
        model = PartialModel(g)
        s = b.state_var("s")
        t = b.trans_var("t")
        f = b.forall([s, t], b.holds(b.after(s, t), domain.employed(b.atom("alice"))))
        assert Evaluator(model).holds(f)

    def test_transition_equality(self, domain, model, states):
        """δ-style: t = t1 ;; t2 picks out real decompositions."""
        s = b.state_var("s")
        t = b.trans_var("t")
        t1 = b.trans_var("t1")
        t2 = b.trans_var("t2")
        # every 2-hop transition decomposes
        two_hop = b.exists(
            [t1, t2],
            b.land(
                Eq(t, Seq(t1, t2)),
                b.lnot(Eq(t, t1)),
                b.lnot(Eq(t, t2)),
            ),
        )
        evaluator = Evaluator(model)
        from repro.db.evolution import Transition

        long_transitions = [
            tr for tr in model.all_transitions() if len(tr) == 2
        ]
        assert long_transitions
        env = Env({t: long_transitions[0]})
        assert evaluator._formula(two_hop, env)

    def test_concrete_transaction_in_after(self, domain, model, states):
        s = b.state_var("s")
        tx = domain.birthday.instantiate(b.atom("carol"))
        f = b.forall(s, b.holds(b.after(s, tx), domain.employed(b.atom("carol"))))
        assert Evaluator(model).holds(f)


class TestDomains:
    def test_tuple_domain_spans_states(self, domain, model):
        tuples = model.tuple_domain(5)
        # alice appears with age 35 and 36 (same tid, different values);
        # the domain keeps distinct (tid, values) snapshots
        alice_versions = [t for t in tuples if t.values[0] == "alice"]
        assert len(alice_versions) == 2

    def test_atom_domain(self, domain, model):
        atoms = model.atom_domain()
        assert "alice" in atoms and 36 in atoms

    def test_empty_model_rejects_fluent_atoms(self, domain):
        model = PartialModel(EvolutionGraph())
        e = domain.emp.var("e")
        with pytest.raises(EvaluationError):
            Evaluator(model).holds(b.member(e, domain.emp.rel()))


class TestTheWalkDoesNotRepeatItself:
    """The fallback walk: Λ is one transition, and a quantifier's domain is
    computed once per evaluator, not once per enclosing binding."""

    def test_null_transition_is_enumerated_once(self, model):
        transitions = model.all_transitions()
        assert [tr.is_null for tr in transitions].count(True) == 1
        # 3 direct-or-composed arcs of a 3-state chain, plus Λ.
        assert sorted(len(tr) for tr in transitions) == [0, 1, 1, 2]

    def test_each_state_pair_body_is_evaluated_once(self, domain, states):
        from collections import Counter

        from repro.transactions.interpreter import Interpreter

        seen = Counter()

        class Counting(Interpreter):
            def eval_formula(self, state, formula, env=None):
                seen[states.index(state)] += 1
                return super().eval_formula(state, formula, env)

        model = PartialModel(chain_graph(states), Counting())
        s, t = b.state_var("s"), b.trans_var("t")
        f = b.forall(
            [s, t], b.holds(b.after(s, t), domain.employed(b.atom("alice")))
        )
        assert Evaluator(model).holds(f)
        # The applicable (s, s;t) pairs of a 3-state chain, by target state:
        # (0,0) (0,1) (0,2) (1,1) (1,2) (2,2) — each body once.
        assert seen == Counter({0: 1, 1: 2, 2: 3})

    def test_domains_are_computed_once_per_evaluator(self, domain, model, monkeypatch):
        calls = []
        tuple_domain = PartialModel.tuple_domain
        monkeypatch.setattr(
            PartialModel,
            "tuple_domain",
            lambda self, arity: calls.append(arity) or tuple_domain(self, arity),
        )
        assert Evaluator(model).holds(domain.once_married().formula)
        assert calls == [5]
