#!/usr/bin/env python3
"""A private browsing stack: ODoH resolution + Multi-Party Relay fetch.

The paper's section 2.1 argues privacy must be layered: encrypting DNS
alone leaves the connection path coupled, and relaying connections
alone leaves the resolver coupled.  This example runs the two deployed
systems the paper highlights -- ODoH (section 3.2.2) and an
Apple-Private-Relay-style MPR (section 3.2.4) -- and prints the derived
knowledge tables, collusion sets, and breach reports for each layer.

Run:  python examples/private_browsing.py
"""

from repro.scenario import run_scenario


def main() -> None:
    print("=" * 64)
    print("Layer 0: what a stock recursive resolver learns (baseline)")
    print("=" * 64)
    baseline = run_scenario("plain-dns")
    print(baseline.table().render())
    print(baseline.analyzer.verdict(), "\n")

    print("=" * 64)
    print("Layer 1: name resolution via ODoH (real HPKE on the wire)")
    print("=" * 64)
    odoh = run_scenario("odoh")
    print(odoh.table().render())
    print(odoh.analyzer.verdict())
    print(
        "Re-coupling requires collusion of:",
        [sorted(c) for c in odoh.analyzer.minimal_recoupling_coalitions(max_size=2)],
    )
    for report in odoh.analyzer.breach_reports():
        status = "breach-proof" if report.breach_proof else "EXPOSED"
        print(f"  breach of {report.organization:<14} -> {status}")
    print()

    print("=" * 64)
    print("Layer 2: content fetch via a two-hop Multi-Party Relay")
    print("=" * 64)
    mpr = run_scenario("mpr", relays=2, requests=3)
    print(mpr.table().render())
    print(mpr.analyzer.verdict())
    print(f"Mean request latency through the chain: {mpr.mean_latency * 1000:.1f} ms")
    print(
        "Re-coupling requires collusion of:",
        [sorted(c) for c in mpr.analyzer.minimal_recoupling_coalitions()],
    )
    print()

    print("=" * 64)
    print("Degrees of decoupling (section 4.2): privacy vs. latency")
    print("=" * 64)
    print(f"{'relays':>7} {'collusion resistance':>21} {'latency (ms)':>13}")
    for relays in (1, 2, 3, 4):
        run = run_scenario("mpr", relays=relays, requests=2)
        resistance = run.analyzer.collusion_resistance()
        print(f"{relays:>7} {resistance:>21} {run.mean_latency * 1000:>13.1f}")
    print(
        "\nOne relay is the VPN anti-pattern (resistance 1 = no collusion"
        " needed); each added relay buys resistance at a latency cost."
    )


if __name__ == "__main__":
    main()
