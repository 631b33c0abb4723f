#!/usr/bin/env python3
"""Pretty Good Phone Privacy end to end (paper section 3.2.3).

Simulates a small cellular network twice: once traditionally (the core
binds permanent IMSIs to billing identities and logs every handover as
a named location trace) and once with PGPP (billing at an external
gateway, blind-signed attach tokens, rotating IMSIs).  Also
demonstrates the non-collusion caveat: buying tokens over the cellular
data plane gives a colluding core+gateway a linkage handle.

Run:  python examples/phone_privacy.py
"""

from repro.scenario import run_scenario


def main() -> None:
    print("=" * 64)
    print("Traditional cellular: the core's log is a named location trace")
    print("=" * 64)
    baseline = run_scenario("pgpp-baseline", users=3, cells=5, steps=4)
    print(baseline.table().render())
    print(baseline.analyzer.verdict())
    print("\nFirst mobility-log entries (time, imsi, cell):")
    for entry in baseline.core.mobility_log[:5]:
        print(f"  t={entry[0]:.3f}  {entry[1]:<18} {entry[2]}")
    print()

    print("=" * 64)
    print("PGPP: billing at the gateway, tokens at the core")
    print("=" * 64)
    pgpp = run_scenario("pgpp", users=3, cells=5, steps=4, epochs=2)
    print(pgpp.table().render())
    print(pgpp.analyzer.verdict())
    print("\nFirst mobility-log entries (time, imsi, cell):")
    for entry in pgpp.core.mobility_log[:5]:
        print(f"  t={entry[0]:.3f}  {entry[1]:<26} {entry[2]}")
    print(f"\ntokens sold by the gateway: {pgpp.gateway.tokens_sold}")
    print(f"successful attaches at the core: {pgpp.attaches}")
    print()

    print("=" * 64)
    print("The non-collusion assumption (section 4.1)")
    print("=" * 64)
    out_of_band = run_scenario("pgpp", purchase_over_cellular=False)
    over_cellular = run_scenario("pgpp", purchase_over_cellular=True)
    print(
        "token purchase out of band:     re-coupling coalitions =",
        [sorted(c) for c in out_of_band.analyzer.minimal_recoupling_coalitions(max_size=3)]
        or "none possible",
    )
    print(
        "token purchase over cellular:   re-coupling coalitions =",
        [sorted(c) for c in over_cellular.analyzer.minimal_recoupling_coalitions(max_size=3)],
    )
    print(
        "\nRouting the (sealed!) purchase through the core is enough to"
        " let a *colluding* operator+gateway join their logs -- the"
        " knowledge tables alone do not show this; linkage analysis does."
    )


if __name__ == "__main__":
    main()
