"""Tests for free-route mix networks (volunteer-pool topology)."""

import pytest

from repro.core.values import Subject
from repro.scenario import run_scenario


class TestFreeRouting:
    def test_routes_are_sampled_from_the_pool(self):
        run = run_scenario("mixnet", mixes=3, senders=6, batch_size=1, mix_pool=6)
        assert len(run.routes_used) == 6
        for route in run.routes_used:
            assert len(route) == 3
            assert len(set(route)) == 3  # no repeated hop
            assert all(0 <= hop < 6 for hop in route)
        # With a pool larger than the route, senders diverge.
        assert len({tuple(r) for r in run.routes_used}) > 1

    def test_all_messages_still_delivered(self):
        run = run_scenario("mixnet", mixes=2, senders=8, batch_size=1, mix_pool=5)
        assert len(run.receiver.received) == 8

    def test_cascade_routes_are_identical(self):
        run = run_scenario("mixnet", mixes=3, senders=4)
        assert all(route == [0, 1, 2] for route in run.routes_used)

    def test_pool_must_cover_the_route(self):
        with pytest.raises(ValueError):
            run_scenario("mixnet", mixes=4, mix_pool=3)

    def test_tracked_sender_coupling_is_exactly_its_route(self):
        """Free routing scopes the re-coupling coalition per user: only
        the mixes *this* sender used (plus the receiver) can break
        *this* sender's privacy."""
        run = run_scenario("mixnet", mixes=2, senders=5, batch_size=1, mix_pool=5)
        tracked_route = run.routes_used[0]
        expected = frozenset(
            {f"mix-org-{hop + 1}" for hop in tracked_route} | {"receiver-org"}
        )
        alice = Subject("alice")
        assert run.analyzer.coalition_couples(expected, alice)
        # Any same-sized coalition that misses a hop of the route fails.
        unused = [
            f"mix-org-{i + 1}"
            for i in range(5)
            if i not in tracked_route
        ]
        if unused:
            wrong = frozenset(
                {f"mix-org-{tracked_route[0] + 1}", unused[0], "receiver-org"}
            )
            assert not run.analyzer.coalition_couples(wrong, alice)

    def test_free_route_still_decoupled(self):
        run = run_scenario("mixnet", mixes=3, senders=6, batch_size=2, mix_pool=6)
        assert run.analyzer.verdict().decoupled

    def test_ground_truth_covers_free_routes(self):
        run = run_scenario("mixnet", mixes=2, senders=6, batch_size=1, mix_pool=4)
        assert len(run.ground_truth()) == 6
