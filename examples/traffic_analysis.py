#!/usr/bin/env python3
"""Traffic analysis and its countermeasures (paper section 4.3).

"Encryption protects the confidentiality of data, but it does not
protect against other attributes of application data such as the size
and timestamps of data while in transit."

This example plays the passive adversary against a two-mix cascade and
walks through the countermeasure ladder: batching (vs timing), padding
(vs size), and chaff (vs batch-edge counting) -- showing the attack
accuracy and the latency bill at each rung.

Run:  python examples/traffic_analysis.py
"""

import statistics

from repro.adversary import PassiveCorrelator, correlation_accuracy
from repro.scenario import run_scenario


def measure(batch, padding, chaff, seeds=range(6)):
    """Mean (timing accuracy, size accuracy, latency) over seeds."""
    timing, sizes, latency = [], [], []
    for seed in seeds:
        run = run_scenario(
            "mixnet",
            mixes=2,
            senders=8,
            batch_size=batch,
            seed=seed,
            use_padding=padding,
            chaff_per_flush=chaff,
        )
        correlator = PassiveCorrelator(run.network.trace)
        args = (run.mixes[0].address, run.mixes[-1].address, run.receiver.address)
        truth = run.ground_truth()
        timing.append(correlation_accuracy(correlator.fifo_guesses(*args), truth))
        sizes.append(correlation_accuracy(correlator.size_guesses(*args), truth))
        latency.append(run.end_to_end_latency())
    return statistics.mean(timing), statistics.mean(sizes), statistics.mean(latency)


def row(label, batch, padding, chaff):
    timing, size, latency = measure(batch, padding, chaff)
    print(
        f"  {label:<38} timing={timing:5.2f}  size={size:5.2f}"
        f"  latency={latency * 1000:6.1f} ms"
    )


def main() -> None:
    print("The adversary: a passive observer with taps on the cascade's")
    print("entry and exit links, matching egress messages to ingress by")
    print("arrival order (timing) or by size rank (size).\n")

    print("Step 0: an unprotected relay (batch=1)")
    row("no batching, no padding", batch=1, padding=False, chaff=0)
    print("  -> both attacks are perfect; encryption alone is not privacy\n")

    print("Step 1: batch and shuffle (Chaum's fix for timing)")
    row("batch=8, no padding", batch=8, padding=False, chaff=0)
    print("  -> timing falls to ~1/batch, but sizes still betray everything\n")

    print("Step 2: pad to constant-size cells (Tor's fix for size)")
    row("batch=8, padded cells", batch=8, padding=True, chaff=0)
    print("  -> both attacks at chance; note the latency paid for batching\n")

    print("Step 3: chaff where batches are thin (small-batch rescue)")
    row("batch=2, padded, no chaff", batch=2, padding=True, chaff=0)
    row("batch=2, padded, chaff=2", batch=2, padding=True, chaff=2)
    print("  -> dummies absorb the correlator's guesses when real batches")
    print("     are too small to hide in\n")

    print("The cost curve (padded, no chaff):")
    print(f"  {'batch':>5} {'timing':>7} {'latency':>9}")
    for batch in (1, 2, 4, 8):
        timing, _, latency = measure(batch, True, 0)
        print(f"  {batch:>5} {timing:>7.2f} {latency * 1000:>7.1f} ms")
    print(
        "\n'These types of enhancements come at a cost, however, as they"
        "\ndecrease overall system performance' -- section 4.3, measured."
    )


if __name__ == "__main__":
    main()
