"""A "more knowledgable database system" (the paper's closing sentence).

Two tools from the reproduction's extension layer:

1. the **checkability spectrum** — what window the schema's constraint set
   demands, and where the history encoding buys a cheaper equivalent;
2. **verify-and-trust** — constraints *proved* preserved by a transaction
   are skipped at runtime, trading one offline proof for every future check;
   every ``Database`` does this by itself for the programs it commits.

Run:  python examples/knowledgeable_database.py
"""

from repro import Database, make_domain
from repro.constraints import cheapest_equivalent, spectrum


def main() -> None:
    domain = make_domain()

    print(spectrum(domain.all_constraints))

    reduction = cheapest_equivalent(domain.never_rehire(), domain.fire_encoding())
    print("\ncost reduction available:", reduction)

    print("\n--- verify-and-trust -------------------------------------")
    domain.schema.add_constraint(domain.once_married())
    domain.schema.add_constraint(domain.skill_retention())
    db = Database(domain.schema, window=2, initial=domain.sample_state())

    trusted = db.verify_and_trust(domain.once_married(), domain.add_skill)
    print(f"once-married ⊨ add-skill proved and trusted: {trusted}")
    trusted2 = db.verify_and_trust(domain.skill_retention(), domain.add_skill)
    print(f"skill-retention ⊨ add-skill proved and trusted: {trusted2}")

    db.execute(domain.add_skill, "alice", 7)
    record = db.last_record
    print(
        f"\nexecuting add-skill: {len(record.results)} constraint(s) checked, "
        f"{len(record.skipped)} skipped as verified"
    )
    for skip in record.skipped:
        print(f"  skipped {skip.constraint.name}: {skip.reason}")

    db.execute(domain.birthday, "alice")
    record = db.last_record
    print(
        f"executing birthday (untrusted): {len(record.results)} constraint(s) "
        f"checked, {len(record.skipped)} skipped"
    )

    print("\n--- proved at the first commit, skipped from then on -------")
    db = Database(domain.schema, window=2, initial=domain.sample_state())
    for skill in (8, 9):
        db.execute(domain.add_skill, "bob", skill)
        record = db.last_record
        print(
            f"add-skill: {len(record.results)} checked, "
            f"{len(record.skipped)} skipped by proof"
        )
    for skip in record.skipped:
        print(f"  skipped {skip.constraint.name}: {skip.reason}")


if __name__ == "__main__":
    main()
