"""Unit tests for the PGPP location-tracking adversary."""

import pytest

from repro.pgpp import TrajectoryLinker, extract_epoch_tracks, tracking_accuracy
from repro.pgpp.tracking import EpochTrack, _epoch_of
from repro.scenario import run_scenario


class TestEpochParsing:
    def test_rotating_imsi_epochs(self):
        assert _epoch_of("pgpp-imsi-epoch-0-slot-3") == 0
        assert _epoch_of("pgpp-imsi-epoch-7") == 7

    def test_permanent_imsis_have_no_epoch(self):
        assert _epoch_of("imsi-90170-1001") is None


class TestTrackExtraction:
    def test_tracks_group_by_epoch_and_imsi(self):
        log = [
            (0.0, "pgpp-imsi-epoch-0-slot-0", "cell-1"),
            (1.0, "pgpp-imsi-epoch-0-slot-0", "cell-2"),
            (2.0, "pgpp-imsi-epoch-1-slot-0", "cell-2"),
        ]
        tracks = extract_epoch_tracks(log)
        assert len(tracks) == 2
        assert tracks[0].cells == ("cell-1", "cell-2")
        assert tracks[0].first_cell == "cell-1" and tracks[0].last_cell == "cell-2"

    def test_events_sorted_by_time_within_track(self):
        log = [
            (5.0, "pgpp-imsi-epoch-0-slot-0", "cell-3"),
            (1.0, "pgpp-imsi-epoch-0-slot-0", "cell-1"),
        ]
        (track,) = extract_epoch_tracks(log)
        assert track.cells == ("cell-1", "cell-3")


class TestLinker:
    def test_perfect_continuity_is_linked_correctly(self):
        """Two users far apart: the linker must pair them correctly."""
        log = [
            (0.0, "pgpp-imsi-epoch-0-slot-0", "cell-0"),
            (0.0, "pgpp-imsi-epoch-0-slot-1", "cell-9"),
            (1.0, "pgpp-imsi-epoch-1-slot-1", "cell-0"),
            (1.0, "pgpp-imsi-epoch-1-slot-0", "cell-9"),
        ]
        chains = TrajectoryLinker().link(extract_epoch_tracks(log))
        assert chains["pgpp-imsi-epoch-0-slot-0"] == [
            "pgpp-imsi-epoch-0-slot-0",
            "pgpp-imsi-epoch-1-slot-1",
        ]
        assert chains["pgpp-imsi-epoch-0-slot-1"] == [
            "pgpp-imsi-epoch-0-slot-1",
            "pgpp-imsi-epoch-1-slot-0",
        ]

    def test_empty_log(self):
        assert TrajectoryLinker().link([]) == {}


class TestAccuracy:
    def test_perfect_chains_score_one(self):
        truth = {"a0": ["a0", "a1"], "b0": ["b0", "b1"]}
        assert tracking_accuracy(truth, truth) == 1.0

    def test_swapped_chains_score_zero(self):
        truth = {"a0": ["a0", "a1"], "b0": ["b0", "b1"]}
        guess = {"a0": ["a0", "b1"], "b0": ["b0", "a1"]}
        assert tracking_accuracy(guess, truth) == 0.0

    def test_no_links_score_is_vacuous_one(self):
        assert tracking_accuracy({}, {"a0": ["a0"]}) == 1.0


class TestEndToEnd:
    def test_imsi_truth_matches_history_shape(self):
        run = run_scenario("pgpp", users=3, epochs=3)
        truth = run.imsi_truth()
        assert len(truth) == 3
        assert all(len(chain) == 3 for chain in truth.values())

    def test_one_epoch_keeps_every_walk_in_one_track(self):
        """Without rotation there are no cross-epoch links to get wrong:
        the core already holds complete per-pseudonym trajectories."""
        run = run_scenario("pgpp", users=4, cells=6, steps=4, epochs=1)
        tracks = extract_epoch_tracks(run.core.mobility_log)
        assert len(tracks) == 4
        assert all(len(track.cells) == 4 for track in tracks)

    def test_small_population_is_trackable_large_is_not(self):
        import statistics

        def mean_accuracy(users):
            values = []
            for seed in range(4):
                run = run_scenario(
                    "pgpp", users=users, cells=6, steps=4, epochs=3, seed=seed
                )
                chains = TrajectoryLinker().link(
                    extract_epoch_tracks(run.core.mobility_log)
                )
                values.append(tracking_accuracy(chains, run.imsi_truth()))
            return statistics.mean(values)

        assert mean_accuracy(2) > mean_accuracy(12)
