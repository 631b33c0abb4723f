#!/usr/bin/env python3
"""Private aggregate statistics three ways (paper section 3.2.5).

A fleet of clients reports a sensitive boolean ("did the app crash?").
We aggregate it three ways -- naive single server, OHTTP-proxied, and
Prio-style multi-aggregator PPM -- and show how each step of decoupling
changes who learns what, while the computed total stays identical.

Run:  python examples/telemetry_aggregation.py
"""

from repro.scenario import run_scenario


def describe(run) -> None:
    print(run.table().render())
    verdict = run.analyzer.verdict()
    print(verdict)
    print(f"aggregate total: {run.reported_total} (ground truth {run.true_total})")
    individual = run.collector_sees_individual_values()
    print(f"collector sees individual contributions: {'YES' if individual else 'no'}")
    coalitions = run.analyzer.minimal_recoupling_coalitions()
    if coalitions:
        print("re-coupling coalitions:", [sorted(c) for c in coalitions])
    else:
        print("re-coupling coalitions: none possible")
    print()


def main() -> None:
    clients = 8

    print("=" * 64)
    print("1. Naive: every report lands, attributed, on one server")
    print("=" * 64)
    describe(run_scenario("ppm-naive", clients=clients))

    print("=" * 64)
    print("2. OHTTP proxy: identity decoupled, individual values remain")
    print("=" * 64)
    describe(run_scenario("ppm-ohttp", clients=clients))

    print("=" * 64)
    print("3. Prio/PPM: secret-shared, validity-checked, aggregate-only")
    print("=" * 64)
    describe(run_scenario("prio", clients=clients, aggregators=2))

    print("=" * 64)
    print("Degrees of decoupling: aggregators vs. collusion resistance")
    print("=" * 64)
    print(f"{'aggregators':>12} {'collusion resistance':>21} {'messages':>9}")
    for count in (2, 3, 4):
        run = run_scenario("prio", clients=clients, aggregators=count)
        print(
            f"{count:>12} {run.analyzer.collusion_resistance():>21}"
            f" {run.network.messages_delivered:>9}"
        )
    print(
        "\nEvery added aggregator raises the collusion bar by one and"
        " multiplies upload/check traffic -- the paper's cost/benefit"
        " tradeoff in numbers."
    )

    print()
    print("=" * 64)
    print("Bonus: histogram reports (which app version crashed?)")
    print("=" * 64)
    run = run_scenario("prio-histogram", clients=clients, aggregators=2, buckets=4)
    print(f"reported histogram: {run.reported_histogram}")
    print(f"ground truth:       {run.true_histogram}")
    print(
        "one-hot validity (per-entry Beaver checks + sum-to-one) kept"
        " cheating clients out; nobody ever saw an individual's bucket."
    )


if __name__ == "__main__":
    main()
