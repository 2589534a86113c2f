"""Resolution with answer literals — the proof engine.

A given-clause saturation loop with:

* binary resolution and positive factoring over sorted unification;
* ground-literal evaluation (arithmetic/equality atoms decided by
  :mod:`repro.theory.ground` delete or close literals);
* unit paramodulation from positive unit equalities (demodulation);
* weight-ordered clause selection with syntactic subsumption;
* answer literals carried through every inference, so a refutation of
  ``¬∃x φ(x)`` yields witness bindings (constructive proofs — the paper's
  "the synthesis of a transaction involves a constructive proof").
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ProofError, SortError
from repro.logic.formulas import Eq, FalseF, Formula, TrueF
from repro.logic.substitution import Substitution
from repro.logic.terms import Expr, Node, Var
from repro.logic.unify import unify
from repro.prover.clauses import Answer, Clause, Literal
from repro.theory.ground import simplify as ground_simplify


@dataclass
class ProofResult:
    """Outcome of a saturation run."""

    proved: bool
    empty_clause: Optional[Clause] = None
    steps: int = 0
    generated: int = 0
    elapsed: float = 0.0
    reason: str = ""

    @property
    def answers(self) -> list[Answer]:
        return list(self.empty_clause.answers) if self.empty_clause else []

    def witness(self, var_name: str) -> Optional[Expr]:
        """The binding an answer literal recorded for ``var_name``."""
        for answer in self.answers:
            for var, expr in answer.bindings:
                if var.name == var_name:
                    return expr
        return None

    def __str__(self) -> str:
        verdict = "PROVED" if self.proved else f"NOT PROVED ({self.reason})"
        return f"{verdict} in {self.steps} steps / {self.generated} generated"


@dataclass
class Prover:
    """Configurable saturation prover."""

    max_steps: int = 2000
    max_generated: int = 20000
    max_weight: int = 120
    timeout_seconds: float = 10.0

    def refute(self, clauses: Iterable[Clause]) -> ProofResult:
        """Saturate; ``proved`` means the empty clause was derived."""
        start = time.monotonic()
        counter = itertools.count()
        queue: list[tuple[int, int, Clause]] = []
        processed: list[Clause] = []
        generated = 0

        def push(c: Clause) -> None:
            nonlocal generated
            c = _simplify_clause(c)
            if c is None:
                return
            if c.weight() > self.max_weight and not c.is_empty:
                return
            if any(p.subsumes_syntactically(c) for p in processed):
                return
            generated += 1
            heapq.heappush(queue, (c.weight(), next(counter), c))

        for c in clauses:
            push(c)

        steps = 0
        while queue:
            if steps >= self.max_steps:
                return ProofResult(False, None, steps, generated,
                                   time.monotonic() - start, "step limit")
            if generated >= self.max_generated:
                return ProofResult(False, None, steps, generated,
                                   time.monotonic() - start, "clause limit")
            if time.monotonic() - start > self.timeout_seconds:
                return ProofResult(False, None, steps, generated,
                                   time.monotonic() - start, "timeout")
            _, _, given = heapq.heappop(queue)
            if given.is_empty:
                return ProofResult(True, given, steps, generated,
                                   time.monotonic() - start)
            if any(p.subsumes_syntactically(given) for p in processed):
                continue
            steps += 1
            avoid = given.free_vars()
            for other in processed:
                renamed = other.rename_apart_from(avoid)
                for resolvent in _resolve(given, renamed):
                    push(resolvent)
                for para in _paramodulate(given, renamed):
                    push(para)
                for para in _paramodulate(renamed, given):
                    push(para)
            for factored in _factor(given):
                push(factored)
            processed.append(given)

        return ProofResult(False, None, steps, generated,
                           time.monotonic() - start, "saturated")


def _simplify_clause(c: Clause) -> Optional[Clause]:
    """Evaluate ground atoms: a true positive literal (or false negative)
    makes the clause redundant; false positives / true negatives drop out.
    Returns ``None`` for redundant clauses."""
    literals: list[Literal] = []
    for lit in c.literals:
        verdict = ground_simplify(lit.atom)
        if isinstance(verdict, TrueF):
            if lit.positive:
                return None  # clause is valid
            continue  # ~true drops
        if isinstance(verdict, FalseF):
            if lit.positive:
                continue  # false drops
            return None  # ~false is valid
        literals.append(Literal(lit.positive, verdict))
    out = Clause(tuple(literals), c.answers, c.provenance).dedupe()
    return None if out.is_tautology() else out


def _resolve(a: Clause, b: Clause) -> list[Clause]:
    resolvents: list[Clause] = []
    for i, lit_a in enumerate(a.literals):
        for j, lit_b in enumerate(b.literals):
            if lit_a.positive == lit_b.positive:
                continue
            mgu = unify(lit_a.atom, lit_b.atom)
            if mgu is None:
                continue
            merged = Clause(
                tuple(lit.apply(mgu) for lit in (a.without(i) + b.without(j))),
                tuple(ans.apply(mgu) for ans in (a.answers + b.answers)),
                "resolution",
            ).dedupe()
            if not merged.is_tautology():
                resolvents.append(merged)
    return resolvents


def _factor(c: Clause) -> list[Clause]:
    factored: list[Clause] = []
    for i, lit_i in enumerate(c.literals):
        for j in range(i + 1, len(c.literals)):
            lit_j = c.literals[j]
            if lit_i.positive != lit_j.positive:
                continue
            mgu = unify(lit_i.atom, lit_j.atom)
            if mgu is None:
                continue
            merged = c.apply(mgu).dedupe()
            if merged != c:
                factored.append(
                    Clause(merged.literals, merged.answers, "factoring")
                )
    return factored


def _paramodulate(source: Clause, target: Clause) -> list[Clause]:
    """Unit paramodulation: rewrite ``target`` with a positive unit equality
    from ``source`` (demodulation-style, top positions of literal args)."""
    if len(source.literals) != 1 or not source.literals[0].positive:
        return []
    atom = source.literals[0].atom
    if not isinstance(atom, Eq):
        return []
    results: list[Clause] = []
    for lhs, rhs in ((atom.lhs, atom.rhs), (atom.rhs, atom.lhs)):
        if isinstance(lhs, Var):
            continue  # x = t rewrites everything; skip for termination
        for k, lit in enumerate(target.literals):
            for replaced in _rewrite_once(lit.atom, lhs, rhs):
                merged = Clause(
                    target.literals[:k]
                    + (Literal(lit.positive, replaced),)
                    + target.literals[k + 1:],
                    target.answers + source.answers,
                    "paramodulation",
                ).dedupe()
                if not merged.is_tautology():
                    results.append(merged)
    return results


def _rewrite_once(node: Formula, lhs: Expr, rhs: Expr) -> list[Formula]:
    """All single-position rewrites of ``lhs -> rhs`` in ``node`` (by mgu)."""
    results: list[Node] = []

    def walk(current: Node, rebuild) -> None:
        if isinstance(current, Expr):
            mgu = unify(current, lhs)
            if mgu is not None:
                try:
                    results.append(mgu.apply(rebuild(mgu.apply(rhs))))
                except SortError:
                    pass  # an ill-sorted rewrite is not an inference
        for idx, child in enumerate(current.children()):
            if current.bound_vars():
                continue  # no rewriting under binders (soundness)
            def rebuild_child(new_child, idx=idx, current=current, rebuild=rebuild):
                children = list(current.children())
                children[idx] = new_child
                return rebuild(current.with_children(tuple(children)))
            walk(child, rebuild_child)

    walk(node, lambda x: x)
    return [r for r in results if isinstance(r, Formula)]


def prove(
    axioms: Iterable[Formula],
    goal: Formula,
    prover: Optional[Prover] = None,
) -> ProofResult:
    """Prove ``axioms ⊢ goal`` by refuting ``axioms ∪ {¬goal}``."""
    from repro.prover.skolem import clausify, clausify_negated

    engine = prover or Prover()
    clauses: list[Clause] = []
    for axiom in axioms:
        clauses.extend(clausify(axiom, "axiom"))
    clauses.extend(clausify_negated(goal))
    return engine.refute(clauses)


def prove_with_answers(
    axioms: Iterable[Formula],
    existential_goal: Formula,
    prover: Optional[Prover] = None,
) -> ProofResult:
    """Constructive proof: strip outer existentials of the goal, attach an
    answer literal over them, and refute — the empty clause's answers carry
    the synthesized witnesses."""
    from repro.logic.formulas import Exists
    from repro.prover.skolem import clausify, clausify_negated

    witnesses: list[Var] = []
    body = existential_goal
    while isinstance(body, Exists):
        witnesses.append(body.var)
        body = body.body
    if not witnesses:
        raise ProofError("prove_with_answers needs an existential goal")

    engine = prover or Prover()
    clauses: list[Clause] = []
    for axiom in axioms:
        clauses.extend(clausify(axiom, "axiom"))
    # ¬body with the existentials now free: they become clause variables,
    # tracked by an answer literal.
    for c in clausify_negated(body):
        answer = Answer(tuple((v, v) for v in witnesses))
        clauses.append(Clause(c.literals, (answer,), c.provenance))
    return engine.refute(clauses)
