"""Tests for mix-generated cover traffic (section 4.3 'chaff')."""

import statistics

import pytest

from repro.adversary import PassiveCorrelator, correlation_accuracy
from repro.mixnet import make_chaff
from repro.scenario import run_scenario


def _fifo_accuracy(chaff: int, seeds=range(8)) -> float:
    values = []
    for seed in seeds:
        run = run_scenario(
            "mixnet",
            mixes=2,
            senders=4,
            batch_size=2,
            seed=seed,
            use_padding=True,
            chaff_per_flush=chaff,
        )
        correlator = PassiveCorrelator(run.network.trace)
        guesses = correlator.fifo_guesses(
            run.mixes[0].address, run.mixes[-1].address, run.receiver.address
        )
        values.append(correlation_accuracy(guesses, run.ground_truth()))
    return statistics.mean(values)


class TestChaffMechanics:
    def test_chaff_is_discarded_by_the_receiver(self):
        run = run_scenario(
            "mixnet", mixes=2, senders=4, batch_size=4, chaff_per_flush=3
        )
        assert len(run.receiver.received) == 4  # real messages only
        assert run.receiver.chaff_dropped == 3
        assert run.mixes[-1].chaff_sent == 3

    def test_only_the_egress_mix_injects(self):
        run = run_scenario(
            "mixnet", mixes=3, senders=4, batch_size=4, chaff_per_flush=2
        )
        assert run.mixes[0].chaff_sent == 0
        assert run.mixes[1].chaff_sent == 0
        assert run.mixes[2].chaff_sent == 2

    def test_chaff_inflates_the_egress_edge(self):
        plain = run_scenario(
            "mixnet", mixes=2, senders=4, batch_size=4, chaff_per_flush=0
        )
        chaffed = run_scenario(
            "mixnet", mixes=2, senders=4, batch_size=4, chaff_per_flush=4
        )
        plain_egress = len(plain.network.trace.between(dst=plain.receiver.address))
        chaffed_egress = len(
            chaffed.network.trace.between(dst=chaffed.receiver.address)
        )
        assert chaffed_egress == plain_egress + 4

    def test_chaff_requires_a_destination(self):
        from repro.core.entities import World
        from repro.mixnet import MixNode
        from repro.net.network import Network

        world, network = World(), Network()
        with pytest.raises(ValueError):
            MixNode(
                network, world.entity("M", "m"), "m", "k", chaff_per_flush=2
            )

    def test_make_chaff_is_opaque_and_sized(self):
        chaff = make_chaff("some-key", size_hint=512)
        assert chaff.description == "chaff"
        assert len(str(chaff.contents[0].payload)) >= 512


class TestChaffDefeatsCorrelation:
    def test_chaff_degrades_fifo_below_small_batch_level(self):
        """At batch 2, shuffling alone leaves 50% accuracy; chaff mixes
        dummies into the egress set and drives it far lower."""
        without = _fifo_accuracy(0)
        with_chaff = _fifo_accuracy(2)
        assert without >= 0.4
        assert with_chaff < without / 2
