"""System tests for the traffic-analysis adversary (D3 substrate)."""

import statistics

import pytest

from repro.adversary import PassiveCorrelator, correlation_accuracy
from repro.scenario import run_scenario


def _attack(run, kind):
    correlator = PassiveCorrelator(run.network.trace)
    entry = run.mixes[0].address
    exit_src = run.mixes[-1].address
    exit_dst = run.receiver.address
    if kind == "fifo":
        guesses = correlator.fifo_guesses(entry, exit_src, exit_dst)
    else:
        guesses = correlator.size_guesses(entry, exit_src, exit_dst)
    return correlation_accuracy(guesses, run.ground_truth())


class TestFifoAttack:
    def test_unbatched_relay_is_fully_correlatable(self):
        run = run_scenario("mixnet", mixes=2, senders=6, batch_size=1)
        assert _attack(run, "fifo") == pytest.approx(1.0)

    def test_batching_destroys_fifo_accuracy(self):
        accuracies = [
            _attack(
                run_scenario("mixnet", mixes=2, senders=8, batch_size=8, seed=seed),
                "fifo",
            )
            for seed in range(5)
        ]
        assert statistics.mean(accuracies) < 0.5

    def test_larger_batches_are_stronger(self):
        small = statistics.mean(
            _attack(
                run_scenario("mixnet", mixes=2, senders=4, batch_size=2, seed=s),
                "fifo",
            )
            for s in range(5)
        )
        large = statistics.mean(
            _attack(
                run_scenario("mixnet", mixes=2, senders=16, batch_size=16, seed=s),
                "fifo",
            )
            for s in range(5)
        )
        assert large < small

    def test_batching_without_shuffling_stays_fully_correlatable(self):
        """Ablation: a batch flushed in arrival order keeps FIFO exact."""

        def accuracy(shuffle):
            return statistics.mean(
                _attack(
                    run_scenario(
                        "mixnet", mixes=2, senders=8, batch_size=8, seed=s,
                        shuffle=shuffle,
                    ),
                    "fifo",
                )
                for s in range(4)
            )

        assert accuracy(False) == 1.0
        assert accuracy(True) < 0.45


class TestSizeAttack:
    def test_size_attack_defeats_batching_without_padding(self):
        run = run_scenario(
            "mixnet", mixes=2, senders=8, batch_size=8, use_padding=False
        )
        assert _attack(run, "size") == pytest.approx(1.0)

    def test_padding_restores_batch_protection(self):
        accuracies = [
            _attack(
                run_scenario(
                    "mixnet", mixes=2, senders=8, batch_size=8, use_padding=True,
                    seed=s,
                ),
                "size",
            )
            for s in range(5)
        ]
        assert statistics.mean(accuracies) < 0.5


class TestApiBehaviour:
    def test_accuracy_of_no_guesses_is_zero(self):
        assert correlation_accuracy([], {}) == 0.0

    def test_guesses_pair_every_message(self):
        run = run_scenario("mixnet", mixes=2, senders=5, batch_size=5)
        correlator = PassiveCorrelator(run.network.trace)
        guesses = correlator.fifo_guesses(
            run.mixes[0].address, run.mixes[-1].address, run.receiver.address
        )
        assert len(guesses) == 5
