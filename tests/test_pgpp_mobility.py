"""Tests for mobility models and their effect on tracking."""

import random
import statistics

import pytest

from repro.pgpp import (
    TrajectoryLinker,
    commuter,
    extract_epoch_tracks,
    make_mobility,
    random_walk,
    stationary,
    tracking_accuracy,
)
from repro.scenario import run_scenario


class TestModels:
    def test_walk_stays_in_range_and_moves_locally(self):
        rng = random.Random(1)
        path = random_walk(rng, cells=5, steps=50, user_index=0)
        assert len(path) == 50
        assert all(0 <= cell < 5 for cell in path)
        assert all(abs(a - b) <= 1 for a, b in zip(path, path[1:]))

    def test_commuter_oscillates_between_two_cells(self):
        rng = random.Random(2)
        path = commuter(rng, cells=6, steps=6, user_index=1)
        assert len(set(path)) == 2
        assert path[0] == path[2] == path[4]

    def test_commuter_habit_is_stable_across_calls(self):
        a = commuter(random.Random(3), 6, 4, user_index=2)
        b = commuter(random.Random(99), 6, 4, user_index=2)
        assert a == b  # habit depends on the user, not the rng

    def test_stationary_never_moves(self):
        path = stationary(random.Random(4), cells=4, steps=10, user_index=3)
        assert len(set(path)) == 1

    def test_make_mobility_resolves_and_validates(self):
        assert make_mobility("walk") is random_walk
        with pytest.raises(ValueError):
            make_mobility("teleport")


class TestTrackingByMobility:
    def _accuracy(self, mobility: str) -> float:
        values = []
        for seed in range(5):
            run = run_scenario(
                "pgpp",
                users=8, cells=8, steps=4, epochs=3, seed=seed, mobility=mobility
            )
            chains = TrajectoryLinker().link(
                extract_epoch_tracks(run.core.mobility_log)
            )
            values.append(tracking_accuracy(chains, run.imsi_truth()))
        return statistics.mean(values)

    def test_predictable_mobility_defeats_rotation(self):
        """Stationary users are perfectly trackable despite rotating
        IMSIs; random walkers approach chance -- the PGPP paper's
        anonymity caveat in miniature."""
        walk = self._accuracy("walk")
        fixed = self._accuracy("stationary")
        assert fixed == 1.0
        assert walk < 0.3

    def test_commuters_sit_in_between(self):
        walk = self._accuracy("walk")
        commute = self._accuracy("commuter")
        fixed = self._accuracy("stationary")
        assert walk < commute < fixed

    def test_tables_are_unaffected_by_mobility(self):
        """Knowledge tables are mobility-independent: the leak is in
        trajectory linkage, not labels -- which is why the paper's
        tuple analysis alone cannot capture it."""
        from repro.pgpp import PAPER_TABLE_T5

        for mobility in ("walk", "commuter", "stationary"):
            run = run_scenario("pgpp", users=3, epochs=2, mobility=mobility)
            assert run.table().as_mapping() == PAPER_TABLE_T5
