"""Quickstart: a constrained database in twenty lines.

Builds the paper's employee schema, installs the Example 1 integrity
constraints, and runs transactions under enforcement — valid ones advance
the state, invalid ones roll back.

Run:  python examples/quickstart.py
"""

from repro import ConstraintViolation, Database, make_domain


def main() -> None:
    domain = make_domain()
    domain.install_constraints(
        "every-employee-allocated",
        "alloc-references-project",
        "allocation-within-limit",
        "once-married",
    )
    db = Database(domain.schema, window=2, initial=domain.sample_state())

    print("initial EMP:", db.current.relation("EMP"))

    # A valid change: give alice a raise.
    db.execute(domain.set_salary, "alice", 150)
    print("\nafter raise:", db.current.relation("EMP"))

    # An invalid change: hiring erin without any project allocation
    # violates "each employee works for at least one project".
    try:
        db.execute(domain.hire, "erin", "cs", 90, 25, "S")
    except ConstraintViolation as violation:
        print("\nrejected:", violation)
    print("state unchanged:", len(db.current.relation("EMP")), "employees")

    # Over-allocating bob (already at 100%) breaks the 100% ceiling.
    try:
        db.execute(domain.allocate, "bob", "ai", 20)
    except ConstraintViolation as violation:
        print("rejected:", violation)

    # Queries run against the current state.
    from repro.logic import builder as b
    from repro import query

    a = domain.alloc.var("a")
    allocs_of = query(
        "allocs-of",
        (b.atom_var("n"),),
        b.setformer(
            domain.alloc.attr("perc", a),
            a,
            b.land(
                b.member(a, domain.alloc.rel()),
                b.eq(domain.alloc.attr("a-emp", a), b.atom_var("n")),
            ),
        ),
    )
    print("\nalice's allocations:", sorted(db.query(allocs_of, "alice").first_column()))

    # The database keeps the history window (the partial model of
    # Section 3), not the whole run: its evolution graph is a short chain.
    window = db.history.to_graph()
    print(
        f"\nwindow graph: {len(window)} states, "
        f"{window.edge_count()} transition(s), labels {db.history.labels}"
    )


if __name__ == "__main__":
    main()
