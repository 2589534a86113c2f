"""The algebra compiler: which formulas compile, into what shapes, and
exactly why the rest are refused.

The compilable fragment is deliberately narrow (membership-narrowed
conjunctive chains with trailing quantifier sequences, union
disjunctions, and foreach domains): every relation an accepted shape
reads is named by a membership conjunct, so its read set is computable
from the plan alone — every ``Incompilable`` reason below marks a shape
the executor has no plan form for yet, so the planner silently falls
back instead.
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    Arith,
    ChainQuery,
    Cmp,
    Disj,
    ForallQuery,
    GroupAgg,
    Incompilable,
    RelQuery,
    SetOpQuery,
    compile_exists,
    compile_forall,
    compile_foreach_domain,
    compile_set_expr,
    compile_set_former,
)
from repro.algebra.ir import Col, Lit
from repro.domains import make_domain
from repro.logic import builder as b


@pytest.fixture()
def d():
    return make_domain()


def alloc_of(d, a, name_expr):
    return b.land(
        b.member(a, d.alloc.rel()),
        b.eq(d.alloc.attr("a-emp", a), name_expr),
    )


class TestCompilableShapes:
    def test_single_level_set_former(self, d):
        e = d.emp.var("e")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        q = compile_set_former(former)
        assert isinstance(q, ChainQuery) and q.kind == "setformer"
        assert [(lv.rel, lv.slot) for lv in q.levels] == [("EMP", 0)]
        assert len(q.preds) == 1
        assert q.sub is None
        assert q.result is not None and not q.result.whole
        assert q.result.element_arity == 1

    def test_two_level_join_shares_one_group(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            [e, a],
            b.land(
                b.member(e, d.emp.rel()),
                b.member(a, d.alloc.rel()),
                b.eq(d.alloc.attr("a-emp", a), d.emp.attr("e-name", e)),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP", "ALLOC"]
        assert len(q.preds) == 1

    def test_trailing_exists_flattens_into_its_own_group(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP", "ALLOC"]
        assert [lv.slot for lv in q.levels] == [0, 1]

    def test_trailing_not_exists_becomes_anti_join(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lnot(b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e)))),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP"]
        assert q.sub is not None and q.sub.level.rel == "ALLOC"

    def test_exists_compiles_to_boolean_chain(self, d):
        a = d.alloc.var("a")
        q = compile_exists(b.exists(a, alloc_of(d, a, b.atom("alice"))))
        assert isinstance(q, ChainQuery) and q.kind == "exists"
        assert q.result is None

    def test_guarded_forall_with_exists_body(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        f = b.forall(
            e,
            b.implies(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
            ),
        )
        q = compile_forall(f)
        assert isinstance(q, ForallQuery)
        assert (q.rel, q.arity, q.negated) == ("EMP", 5, False)
        assert q.body_level is not None and q.body_level.rel == "ALLOC"

    def test_arithmetic_predicate_compiles(self, d):
        e = d.emp.var("e")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.le(
                    b.plus(d.emp.attr("salary", e), b.atom(1)), b.atom(100)
                ),
            ),
        )
        q = compile_set_former(former)
        assert len(q.preds) == 1
        p = q.preds[0]
        assert isinstance(p, Cmp) and p.op == "le"
        assert isinstance(p.lhs, Arith) and p.lhs.op == "+"
        # The plan may only run where salary holds integers.
        assert q.checks == (("column", ("EMP", 3)),)

    def test_parameter_operands_become_run_time_checks(self, d):
        e, n = d.emp.var("e"), b.atom_var("n")
        cond = b.land(
            b.member(e, d.emp.rel()),
            b.eq(d.emp.attr("e-dept", e), n),  # equality never raises
            b.lt(d.emp.attr("age", e), n),
        )
        q = compile_exists(b.exists(e, cond))
        assert [need for need, _ in q.checks] == ["column", "int"]

    def test_pure_or_compiles_to_disjunction_predicate(self, d):
        e = d.emp.var("e")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    b.eq(d.emp.attr("e-dept", e), b.atom("math")),
                ),
            ),
        )
        q = compile_set_former(former)
        assert len(q.preds) == 1
        p = q.preds[0]
        assert isinstance(p, Disj) and len(p.branches) == 2
        assert all(isinstance(c, Cmp) for br in p.branches for c in br)

    def test_trailing_or_with_exists_compiles_to_union_branches(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                ),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP"]
        assert q.sub is None and len(q.alts) == 2
        pure, quant = q.alts
        assert pure.level is None and len(pure.preds) == 1
        assert quant.level is not None and quant.level.rel == "ALLOC"
        assert not quant.negated

    def test_union_branch_with_not_exists(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    b.lnot(
                        b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e)))
                    ),
                ),
            ),
        )
        q = compile_set_former(former)
        assert len(q.alts) == 2 and q.alts[1].negated

    def test_multiple_trailing_exists_each_open_a_group(self, d):
        e = d.emp.var("e")
        a, a2 = d.alloc.var("a"), d.alloc.var("a2")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                b.exists(a2, alloc_of(d, a2, d.emp.attr("e-name", e))),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP", "ALLOC", "ALLOC"]
        assert [lv.slot for lv in q.levels] == [0, 1, 2]

    def test_trailing_exists_then_not_exists(self, d):
        e = d.emp.var("e")
        a, a2 = d.alloc.var("a"), d.alloc.var("a2")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                b.lnot(b.exists(a2, alloc_of(d, a2, b.atom("nobody")))),
            ),
        )
        q = compile_set_former(former)
        assert [lv.rel for lv in q.levels] == ["EMP", "ALLOC"]
        assert q.sub is not None and q.sub.level.rel == "ALLOC"
        assert q.sub.level.slot == 2

    def test_foreach_domain_compiles(self, d):
        e = d.emp.var("e")
        fe = b.foreach(
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
            ),
            b.identity(),
        )
        q = compile_foreach_domain(fe)
        assert isinstance(q, ChainQuery) and q.kind == "foreach"
        assert [lv.rel for lv in q.levels] == ["EMP"]
        assert q.result is not None and q.result.whole
        assert q.result.element_arity == e.sort.arity

    def test_relation_and_set_op_children(self, d):
        q = compile_set_expr(b.rel("EMP", 5))
        assert isinstance(q, RelQuery) and (q.rel, q.arity) == ("EMP", 5)
        u = compile_set_expr(b.union(b.rel("SKILL", 2), b.rel("PROJ", 2)))
        assert isinstance(u, SetOpQuery) and u.mode == "union"
        assert isinstance(u.left, RelQuery) and isinstance(u.right, RelQuery)


class TestGroupAggregate:
    """``sum{…} <= 100``: the aggregate lowers to one scalar sub-plan."""

    def limit(self, d, op=b.sum_of, extra=(), result=None):
        e, a = d.emp.var("e"), d.alloc.var("a")
        result = d.alloc.attr("perc", a) if result is None else result(a, e)
        percs = b.setformer(
            result, a, b.land(alloc_of(d, a, d.emp.attr("e-name", e)), *(x(a, e) for x in extra))
        )
        return b.forall(
            e, b.implies(b.member(e, d.emp.rel()), b.le(op(percs), b.atom(100)))
        )

    def test_example_1_3_is_a_forall_over_a_group_by(self, d):
        q = compile_forall(d.allocation_within_limit().formula.body.formula)
        (test,) = q.pre_preds
        agg = test.lhs
        assert isinstance(agg, GroupAgg) and q.aggs == (agg,)
        assert (agg.op, agg.rel, agg.arity, agg.var.name) == ("sum", "ALLOC", 3, "a")
        # perc(a) per group of a-emp(a), correlated with e-name(e) of slot 0.
        assert agg.exprs == (Col(0, 3),) and not agg.whole and agg.local == ()
        assert agg.keys == ((Col(0, 1), Col(0, 1)),)
        assert test == Cmp("le", agg, Lit(100))
        # The walk would add the percs up: the column must hold integers.
        assert ("column", ("ALLOC", 3)) in q.checks

    def test_local_predicates_and_constant_keys_stay_on_the_aggregated_side(self, d):
        big = lambda a, e: b.gt(d.alloc.attr("perc", a), b.atom(10))
        on_db = lambda a, e: b.eq(d.alloc.attr("a-proj", a), b.atom("db"))
        q = compile_forall(self.limit(d, b.size_of, extra=(big, on_db)))
        (agg,) = q.aggs
        assert agg.local == (Cmp("gt", Col(0, 3), Lit(10)), Cmp("eq", Col(0, 2), Lit("db")))
        assert len(agg.keys) == 1
        # ``size`` reads no cell, the local ``>`` does.
        assert q.checks == (("column", ("ALLOC", 3)),)

    def test_what_cannot_be_decorrelated_is_refused(self, d):
        loose = lambda a, e: b.lt(d.alloc.attr("perc", a), d.emp.attr("salary", e))
        outer = lambda a, e: d.emp.attr("salary", e)
        cases = {
            "correlated by more than an equality": self.limit(d, extra=(loose,)),
            "the result reads the enclosing row": self.limit(d, result=outer),
        }
        for reason, formula in cases.items():
            with pytest.raises(Incompilable, match=reason):
                compile_forall(formula)
        two = b.sum_of(b.setformer(
            d.alloc.attr("perc", d.alloc.var("a")),
            [d.alloc.var("a"), d.proj.var("p")],
            b.land(b.member(d.alloc.var("a"), d.alloc.rel()),
                   b.member(d.proj.var("p"), d.proj.rel())),
        ))
        e, a = d.emp.var("e"), d.alloc.var("a")
        with pytest.raises(Incompilable, match="one-variable set former"):
            compile_exists(b.exists(e, b.land(b.member(e, d.emp.rel()), b.le(two, b.atom(1)))))
        total = b.sum_of(b.setformer(
            d.alloc.attr("perc", a), a, alloc_of(d, a, d.emp.attr("e-name", e))
        ))
        with pytest.raises(Incompilable, match="aggregate in a projection"):
            compile_set_former(b.setformer(total, e, b.member(e, d.emp.rel())))

    def test_an_aggregate_over_the_aggregated_row_is_refused(self, d):
        """The inner table would depend on the outer aggregate's row."""
        e, a, k = d.emp.var("e"), d.alloc.var("a"), d.skill.var("k")
        skills = b.size_of(b.setformer(
            k, k, b.land(b.member(k, d.skill.rel()),
                         b.eq(d.skill.attr("s-emp", k), d.alloc.attr("a-emp", a)))
        ))
        percs = b.setformer(
            d.alloc.attr("perc", a), a,
            b.land(alloc_of(d, a, d.emp.attr("e-name", e)), b.eq(skills, b.atom(2))),
        )
        formula = b.forall(
            e, b.implies(b.member(e, d.emp.rel()), b.le(b.sum_of(percs), b.atom(100)))
        )
        with pytest.raises(Incompilable, match="an aggregate over the aggregated row"):
            compile_forall(formula)


class TestIncompilableReasons:
    """Each refusal reason, pinned — these are the fragment's edges."""

    def refuses(self, fn, node, fragment):
        with pytest.raises(Incompilable) as exc:
            fn(node)
        assert fragment in exc.value.reason, exc.value.reason

    def test_constant_that_can_only_raise(self, d):
        """A join would test the comparison on other rows than the nested
        enumeration does; the tree walk decides when it raises."""
        e = d.emp.var("e")

        def over_salary(pred):
            return b.exists(e, b.land(b.member(e, d.emp.rel()), pred))

        salary = d.emp.attr("salary", e)
        self.refuses(
            compile_exists,
            over_salary(b.lt(salary, b.atom("zz"))),
            "where an integer is required",
        )
        self.refuses(
            compile_exists,
            over_salary(b.eq(salary, b.plus(b.atom("x"), b.atom(1)))),
            "where an integer is required",
        )

    def test_bound_variable_not_tuple_sorted(self, d):
        x = b.atom_var("x")
        self.refuses(
            compile_exists,
            b.exists(x, b.eq(x, b.atom(1))),
            "not tuple-sorted",
        )

    def test_missing_membership(self, d):
        e = d.emp.var("e")
        self.refuses(
            compile_exists,
            b.exists(e, b.eq(d.emp.attr("e-dept", e), b.atom("cs"))),
            "exactly one membership",
        )

    def test_ambiguous_double_membership(self, d):
        e = d.emp.var("e")
        self.refuses(
            compile_exists,
            b.exists(
                e, b.land(b.member(e, d.emp.rel()), b.member(e, d.emp.rel()))
            ),
            "exactly one membership",
        )

    def test_membership_over_outer_variable(self, d):
        e, e2 = d.emp.var("e"), d.emp.var("e2")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(e2, b.member(e, d.emp.rel())),
            ),
        )
        self.refuses(compile_set_former, former, "membership")

    def test_quantified_conjunct_must_be_last(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        self.refuses(compile_set_former, former, "not last")

    def test_nested_quantifier_inside_not_exists(self, d):
        e, a, a2 = d.emp.var("e"), d.alloc.var("a"), d.alloc.var("a2")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lnot(
                    b.exists(
                        a,
                        b.land(
                            b.member(a, d.alloc.rel()),
                            b.exists(a2, b.member(a2, d.alloc.rel())),
                        ),
                    )
                ),
            ),
        )
        self.refuses(compile_set_former, former, "not-exists")

    def test_forall_without_guard_implication(self, d):
        e = d.emp.var("e")
        self.refuses(
            compile_forall,
            b.forall(e, b.member(e, d.emp.rel())),
            "not guarded",
        )

    def test_forall_guard_membership_must_come_first(self, d):
        """The tree walk short-circuits the guard conjunction per
        candidate, so a leading value predicate would run (and could
        raise) on candidates outside the guard relation."""
        e, a = d.emp.var("e"), d.alloc.var("a")
        f = b.forall(
            e,
            b.implies(
                b.land(
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    b.member(e, d.emp.rel()),
                ),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
            ),
        )
        self.refuses(compile_forall, f, "first conjunct")

    def test_rebinding_of_a_bound_variable(self, d):
        """A nested exists that re-binds an outer variable shadows it in
        the tree walk; the flat slot model cannot express that."""
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            [e, a],
            b.land(
                b.member(e, d.emp.rel()),
                b.member(a, d.alloc.rel()),
                b.exists(a, b.member(a, d.alloc.rel())),
            ),
        )
        self.refuses(compile_set_former, former, "rebinding")

    def test_union_disjunction_must_be_last(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                ),
                b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        self.refuses(compile_set_former, former, "not the last")

    def test_union_disjunction_after_quantified_conjunct(self, d):
        e, a, a2 = d.emp.var("e"), d.alloc.var("a"), d.alloc.var("a2")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                b.lor(
                    b.exists(a2, alloc_of(d, a2, d.emp.attr("e-name", e))),
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                ),
            ),
        )
        self.refuses(
            compile_set_former, former, "after a quantified conjunct"
        )

    def test_union_branch_quantifier_must_end_its_disjunct(self, d):
        e, a = d.emp.var("e"), d.alloc.var("a")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.land(
                        b.exists(a, alloc_of(d, a, d.emp.attr("e-name", e))),
                        b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    ),
                    b.eq(d.emp.attr("e-dept", e), b.atom("math")),
                ),
            ),
        )
        self.refuses(compile_set_former, former, "not last")

    def test_or_swallowed_membership_falls_back(self, d):
        """``member(e, EMP) or P`` can no longer narrow the domain — the
        tree walk would enumerate the whole arity class, which no plan
        level models, so the compiler refuses."""
        e = d.emp.var("e")
        former = b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.lor(
                b.member(e, d.emp.rel()),
                b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        self.refuses(compile_set_former, former, "exactly one membership")

    def test_non_set_expression(self, d):
        self.refuses(compile_set_expr, b.atom(3), "not a compilable")
