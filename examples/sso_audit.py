#!/usr/bin/env python3
"""Decoupling authentication: three SSO designs audited (section 2.2).

"Authentication and authorization ... often create a non-repudiable
record of who used a network service when, how, and even why", and
identity providers are "centralized ... with a view into the uses of a
huge range of services."

One user, two services, three assertion designs:

1. global identifiers (classic OAuth sub claims),
2. pairwise pseudonyms (SAML pairwise ids / passkeys),
3. blind-signed single-use tickets (Privacy Pass style).

Each run derives the knowledge table and the minimal colluding
coalitions; the staircase from "everyone couples" to "nobody can" is
the Decoupling Principle applied to authentication.

Run:  python examples/sso_audit.py
"""

from repro.scenario import run_scenario


def main() -> None:
    for mode, note in (
        ("global", "one identifier everywhere: every party couples alone,\n"
                   "and any two services can join their logs offline"),
        ("pairwise", "per-service pseudonyms: services are fixed, but the\n"
                     "IdP still watches every login everywhere"),
        ("anonymous", "blind tickets: the IdP attests without seeing the\n"
                      "destination; services admit without seeing the account"),
    ):
        run = run_scenario(f"sso-{mode}")
        print("=" * 64)
        print(run.table().render())
        print(run.analyzer.verdict())
        coalitions = run.analyzer.minimal_recoupling_coalitions()
        print(
            "re-coupling coalitions:",
            [sorted(c) for c in coalitions] if coalitions else "none possible",
        )
        for report in run.analyzer.breach_reports():
            status = "breach-proof" if report.breach_proof else "EXPOSED"
            print(f"  breach of {report.organization:<16} -> {status}")
        print(f"({note})\n")


if __name__ == "__main__":
    main()
