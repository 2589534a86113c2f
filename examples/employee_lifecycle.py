"""The paper's Section 4, end to end: Examples 1-4 as running code.

Walks every constraint of the employee database through classification
(Definition 4), checkability analysis (how much history each one needs),
live violation detection, and the Example 4 FIRE-relation history encoding
that turns an un-checkable dynamic constraint into a static one.

Run:  python examples/employee_lifecycle.py
"""

from repro import (
    CheckabilityError,
    ConstraintViolation,
    Database,
    Window,
    analyze,
    check_state,
    check_transition,
    make_domain,
)


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    domain = make_domain()
    s0 = domain.sample_state()

    section("Example 1: static constraints")
    for c in domain.static_constraints:
        result = check_state(c, s0)
        print(f"  {c.name:32s} kind={c.kind.value:12s} {result.ok and 'holds' or 'FAILS'}")
    s_bad = domain.allocate.run(s0, "alice", "ghost", 10)
    print("  after a dangling allocation:",
          check_state(domain.alloc_references_project(), s_bad))

    section("Example 2: once married, never single (two formulations)")
    wrong = domain.once_married_wrong()
    right = domain.once_married()
    print(f"  naive two-state version classifies as: {wrong.kind.value}")
    print(f"  transaction-constraint version:        {right.kind.value}")
    s1 = domain.marry.run(s0, "alice", "S")
    s1 = domain.birthday.run(s1, "alice")
    print("  making married alice single while aging:",
          check_transition(right, s0, s1))

    section("Example 3: checkability windows")
    for c in domain.transaction_constraints:
        report = analyze(c)
        print(f"  {c.name:36s} -> {report.window}")
    print("\n  skill retention over a firing (cascade deletes are legal):")
    s_fire = domain.fire.run(s0, "dan")
    print("   ", check_transition(domain.skill_retention(), s0, s_fire))

    section("Example 4: beyond transaction constraints")
    for c in domain.dynamic_constraints:
        report = analyze(c)
        print(f"  {c.name:24s} -> {report.window}")
        print(f"      {report.justification[:88]}")

    section("Example 4: the FIRE encoding in a running database")
    encoding = domain.fire_encoding()
    db = Database(domain.schema, window=2, initial=s0)
    db.register_encoding(encoding)
    domain.schema.add_constraint(encoding.static_constraint())
    db.execute(domain.fire, "dan")
    print("  FIRE after firing dan:", db.current.relation("FIRE"))
    db.execute(domain.birthday, "alice")
    db.execute(domain.birthday, "bob")  # the firing is far out of the window
    try:
        db.execute(domain.hire, "dan", "ee", 90, 31, "S")
    except ConstraintViolation as violation:
        print("  rehiring dan three transactions later:", violation)

    section("Window enforcement (Section 3's trade-off, operational)")
    domain2 = make_domain()
    domain2.schema.add_constraint(domain2.salary_decrease_needs_dept_change())
    narrow = Database(domain2.schema, window=2, initial=domain2.sample_state(),
                      strict=True)
    try:
        narrow.execute(domain2.set_salary, "alice", 150)
    except CheckabilityError as err:
        print("  window=2, constraint needs 3:", err)
    wide = Database(domain2.schema, window=3, initial=domain2.sample_state())
    wide.execute(domain2.set_salary, "alice", 150)
    print("  window=3: executed and checked;",
          f"{len(wide.last_record.results)} constraint(s) validated")


if __name__ == "__main__":
    main()
