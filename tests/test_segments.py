"""Segment lifecycle: seal, spill, reload, stream, account, clear."""

import os
import shutil
import sys
from array import array

import pytest

from analyzer_reference import ReferenceAnalyzer
from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_HUMAN_IDENTITY,
    NONSENSITIVE_IDENTITY,
    NONSENSITIVE_NETWORK_IDENTITY,
    PARTIAL_SENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_HUMAN_IDENTITY,
    SENSITIVE_IDENTITY,
    SENSITIVE_NETWORK_IDENTITY,
)
from repro.core.ledger import Ledger
from repro.core.serialize import ledger_to_jsonl, observation_to_dict
from repro.core.values import LabeledValue, ShareInfo, Subject, digest
from repro.scenario import all_specs, run_scenario

ALICE = Subject("alice")
BOB = Subject("bob")
ALL_SPEC_IDS = sorted(spec.id for spec in all_specs())


def _fill(ledger: Ledger, rows: int, *, entity="Server", org="org-s") -> None:
    for index in range(rows):
        subject = ALICE if index % 2 == 0 else BOB
        ledger.record(
            entity,
            org,
            LabeledValue(f"v{index}", NONSENSITIVE_DATA, subject, "blob"),
            session=f"s{index % 3}",
        )


class TestSegmentRoll:
    def test_active_segment_rolls_at_configured_rows(self):
        ledger = Ledger()
        ledger.configure_segments(rows=4)
        _fill(ledger, 10)
        assert len(ledger.segments) == 3
        assert [seg.count for seg in ledger.segments] == [4, 4, 2]
        assert [seg.start for seg in ledger.segments] == [0, 4, 8]
        assert len(ledger) == 10

    def test_configure_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError):
            Ledger().configure_segments(rows=0)

    def test_record_fast_batches_never_straddle_segments(self):
        ledger = Ledger()
        ledger.configure_segments(rows=3)
        values = [
            LabeledValue(f"v{i}", NONSENSITIVE_DATA, ALICE, "blob")
            for i in range(5)
        ]
        ledger.record_fast("Server", "org-s", values, session="s1")
        # One batch = one segment-local append: the roll happens after.
        assert ledger.segments[0].count == 5
        ledger.record("Server", "org-s", values[0], session="s2")
        assert len(ledger.segments) == 2
        assert ledger.segments[1].count == 1

    def test_version_bumps_once_per_batch(self):
        ledger = Ledger()
        before = ledger.version
        values = [
            LabeledValue(f"v{i}", NONSENSITIVE_DATA, ALICE, "blob")
            for i in range(4)
        ]
        ledger.record_fast("Server", "org-s", values, session="s1")
        assert ledger.version == before + 1
        ledger.record("Server", "org-s", values[0], session="s2")
        assert ledger.version == before + 2


class TestSealAndSpill:
    def test_seal_freezes_rows_and_buckets(self):
        ledger = Ledger()
        _fill(ledger, 6)
        segment = ledger.seal_active_segment()
        assert segment.sealed
        # Rows are typed columns, buckets row-number arrays; sealing
        # drops the append-time intern dicts.
        assert all(
            isinstance(column, array) and len(column) == 6
            for column in segment.columns()
        )
        assert list(segment.by_pair[0][0]) == [0, 2, 4]
        assert list(segment.by_org_pair[0][1]) == [1, 3, 5]
        assert segment.appends is None and segment.digest_ids is None
        # A fresh active segment took over.
        assert ledger.active_segment is not segment
        assert ledger.active_segment.count == 0

    def test_seal_empty_active_segment_is_a_noop(self):
        ledger = Ledger()
        assert ledger.seal_active_segment() is None
        assert len(ledger.segments) == 1

    def test_spill_and_reload_round_trips_rows(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        spilled = [seg for seg in ledger.segments if not seg.resident]
        assert len(spilled) == 2
        for seg in spilled:
            assert os.path.exists(seg.spill_path)
            assert seg.keys is not None
            # Key summaries are sorted id arrays: alice is subject 0.
            assert seg.keys["subject"] == array("I", [0, 1])
            assert seg.has_key("subject", 0)
        # Reload transparently via a bucket query.
        rows = ledger.by_subject(ALICE)
        assert len(rows) == 5
        assert [obs.value_digest for obs in ledger] == [
            digest(f"v{i}") for i in range(10)
        ]

    def test_failed_spill_leaves_ledger_recording(self, tmp_path):
        """Regression: a spill that raised used to leave the sealed
        segment as the active one, so every later record failed with
        ``AttributeError`` on its frozen rows."""
        directory = tmp_path / "spill"
        ledger = Ledger()
        ledger.configure_segments(rows=2, spill=True, directory=str(directory))
        _fill(ledger, 1)
        shutil.rmtree(directory)
        with pytest.raises(OSError):
            ledger.record(
                "Server",
                "org-s",
                LabeledValue("v1", NONSENSITIVE_DATA, BOB, "blob"),
            )
        _fill(ledger, 1)
        assert [seg.count for seg in ledger.segments] == [2, 1]
        failed = ledger.segments[0]
        assert failed.sealed and failed.resident and failed.spill_path is None
        directory.mkdir()
        assert ledger.spill_sealed_segments() == 2
        assert not failed.resident
        assert [obs.value_digest for obs in ledger] == [
            digest(f"v{i}") for i in [0, 1, 0]
        ]

    def test_failed_spill_removes_its_temp_file(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=2, spill=True, directory=str(tmp_path))
        # A directory where the spill file goes makes the final rename
        # fail after the temp file was written.
        (tmp_path / "segment-00000.bin").mkdir()
        with pytest.raises(OSError):
            _fill(ledger, 2)
        assert sorted(os.listdir(tmp_path)) == ["segment-00000.bin"]
        assert ledger.segments[0].resident
        _fill(ledger, 1)
        assert len(ledger) == 3

    def test_key_summaries_avoid_reloads_for_absent_keys(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 8)
        _fill(ledger, 2, entity="Other", org="org-o")
        before = ledger.memory_accounting()["segment_reloads"]
        # "Other" only ever appears in the active segment: no reload.
        assert len(ledger.by_entity("Other")) == 2
        assert ledger.memory_accounting()["segment_reloads"] == before

    def test_stream_rows_does_not_change_residency(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        resident_before = ledger.memory_accounting()["resident_rows"]
        streamed = list(ledger.rows_between(0, len(ledger)))
        assert [obs.value_digest for obs in streamed] == [
            digest(f"v{i}") for i in range(10)
        ]
        after = ledger.memory_accounting()
        assert after["resident_rows"] == resident_before
        assert after["segment_reloads"] == 0
        # Partial slices across a spilled segment stream too.
        window = list(ledger.rows_between(2, 7))
        assert [obs.value_digest for obs in window] == [
            digest(f"v{i}") for i in range(2, 7)
        ]
        assert ledger.memory_accounting()["segment_reloads"] == 0


class TestAccountingAndClear:
    def test_memory_accounting_shape(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        accounting = ledger.memory_accounting()
        assert accounting == {
            "total_rows": 10,
            "resident_rows": 2,
            "segments": 3,
            "segments_sealed": 2,
            "segments_spilled": 2,
            "rows_spilled": 8,
            "segment_reloads": 0,
        }

    def test_clear_discards_spill_files_and_bumps_generation(self, tmp_path):
        ledger = Ledger()
        ledger.configure_segments(rows=4, spill=True, directory=str(tmp_path))
        _fill(ledger, 10)
        paths = [
            seg.spill_path for seg in ledger.segments if seg.spill_path
        ]
        assert paths
        generation = ledger.generation
        ledger.clear()
        assert ledger.generation == generation + 1
        assert len(ledger) == 0
        assert len(ledger.segments) == 1
        for path in paths:
            assert not os.path.exists(path)
        accounting = ledger.memory_accounting()
        assert accounting["total_rows"] == 0
        assert accounting["segments_spilled"] == 0

    def test_seal_listener_fires_while_resident(self):
        ledger = Ledger()
        ledger.configure_segments(rows=3, spill=True)
        seen = []

        def listener(led, segment):
            seen.append((segment.index, segment.resident))

        ledger.add_seal_listener(listener)
        _fill(ledger, 7)
        assert seen == [(0, True), (1, True)]

    def test_merged_ledger_preserves_analysis(self):
        world_a, world_b = World(), World()
        for world in (world_a, world_b):
            world.entity("User", "device", trusted_by_user=True)
            world.entity("Server", "org-s")
        world_a.ledger.record(
            "Server",
            "org-s",
            LabeledValue("ip-a", SENSITIVE_IDENTITY, ALICE, "addr"),
            session="s1",
        )
        world_b.ledger.record(
            "Server",
            "org-s",
            LabeledValue("q-a", NONSENSITIVE_DATA, ALICE, "query"),
            session="s1",
        )
        merged = world_a.ledger.merged(world_b.ledger)
        assert len(merged) == 2
        assert merged.version == len(merged)


class TestSpillDirHygiene:
    def test_two_ledgers_get_distinct_spill_dirs(self):
        """Regression (satellite 6): concurrent spilling ledgers --
        e.g. ``scale_sweep(jobs=N)`` workers forked from one parent --
        must never collide on temp paths."""
        first, second = Ledger(), Ledger()
        first.configure_segments(rows=2, spill=True)
        second.configure_segments(rows=2, spill=True)
        _fill(first, 5)
        _fill(second, 5)
        dirs = {
            os.path.dirname(seg.spill_path)
            for ledger in (first, second)
            for seg in ledger.segments
            if seg.spill_path
        }
        assert len(dirs) == 2
        for directory in dirs:
            assert f"-{os.getpid()}-" in os.path.basename(directory)

    def test_explicit_directory_is_not_owned(self, tmp_path):
        target = tmp_path / "spills"
        ledger = Ledger()
        ledger.configure_segments(rows=2, spill=True, directory=str(target))
        _fill(ledger, 5)
        assert target.is_dir()
        ledger.clear()
        # The ledger deletes its files but never a directory it was
        # handed (it only removes directories it created itself).
        assert target.is_dir()


def test_analyzer_over_spilled_ledger_matches_naive(tmp_path):
    """The streaming analyzer over spilled segments equals the full-scan
    oracle."""
    world = World()
    world.entity("User", "device", trusted_by_user=True)
    world.entity("Server", "org-s")
    world.ledger.configure_segments(rows=3, spill=True, directory=str(tmp_path))
    for index in range(10):
        world.ledger.record(
            "Server",
            "org-s",
            LabeledValue(
                f"ip-{index % 2}",
                SENSITIVE_IDENTITY,
                ALICE if index % 2 == 0 else BOB,
                "addr",
            ),
            session=f"s{index}",
        )
    streaming = DecouplingAnalyzer(world)
    reference = ReferenceAnalyzer(world)
    assert str(streaming.verdict()) == str(reference.verdict())


def _assert_spill_round_trip(original: Ledger, directory) -> None:
    """Spill every row of ``original`` in 3-row segments, then read them
    back by streaming and by reloading: nothing may change."""
    rows = list(original)
    ledger = Ledger()
    ledger.configure_segments(rows=3, spill=True, directory=str(directory))
    ledger.ingest(rows)
    ledger.seal_active_segment()
    sealed = [seg for seg in ledger.segments if seg.count]
    assert sealed and not any(seg.resident for seg in sealed)

    streamed = list(ledger.rows_between(0, len(ledger)))
    window = list(ledger.rows_between(1, len(ledger) - 1))
    assert ledger.memory_accounting()["segment_reloads"] == 0
    reloaded = list(ledger)
    assert ledger.memory_accounting()["segment_reloads"] == len(sealed)

    for decoded in (streamed, reloaded):
        assert decoded == rows
        assert [observation_to_dict(obs) for obs in decoded] == [
            observation_to_dict(obs) for obs in rows
        ]
        for obs in decoded:
            assert obs.channel is sys.intern(obs.channel)
            assert obs.session is sys.intern(obs.session)
    assert window == rows[1:-1]
    assert ledger_to_jsonl(ledger) == ledger_to_jsonl(original)


@pytest.mark.parametrize("scenario_id", ALL_SPEC_IDS)
def test_spill_round_trip_loses_nothing_on_every_spec(scenario_id, tmp_path):
    _assert_spill_round_trip(run_scenario(scenario_id).world.ledger, tmp_path)


def test_spill_round_trip_loses_nothing_on_rare_fields(tmp_path):
    """Rows no spec records: every identity facet, a partial data
    label, non-ASCII text, provenance, packet ids and shares."""
    ledger = Ledger()
    labels = [
        SENSITIVE_IDENTITY,
        NONSENSITIVE_IDENTITY,
        SENSITIVE_HUMAN_IDENTITY,
        NONSENSITIVE_HUMAN_IDENTITY,
        SENSITIVE_NETWORK_IDENTITY,
        NONSENSITIVE_NETWORK_IDENTITY,
        SENSITIVE_DATA,
        PARTIAL_SENSITIVE_DATA,
        NONSENSITIVE_DATA,
    ]
    for index, label in enumerate(labels):
        ledger.record(
            "Résolveur ▲",
            "org-ü",
            LabeledValue(
                f"payload-{index}",
                label,
                Subject(f"subjekt-{index % 2}-ß"),
                f"déscription ● {index} \u2603 \U0001f512",
                provenance=("qname", "hpke-seal")[: index % 3],
                share_info=(
                    ShareInfo(f"gruppe-{index}", index % 2, 2)
                    if index % 4 == 0
                    else None
                ),
            ),
            time=0.125 * index,
            channel=f"wire-{index % 2}",
            session=f"pkt:{index}",
            packet_id=index if index % 3 else None,
        )
    _assert_spill_round_trip(ledger, tmp_path)


def test_coalition_candidates_are_probed_newest_first(tmp_path):
    """The coalition check probes candidate subjects newest first, by
    first appearance, so it finds a coupling subject in the resident
    tail of the ledger instead of reloading whichever spilled segment
    string-hash order happened to pick."""
    world = World()
    world.entity("User", "device", trusted_by_user=True)
    world.entity("Proxy", "org-p")
    world.entity("Target", "org-t")
    ledger = world.ledger
    ledger.configure_segments(rows=8, spill=True, directory=str(tmp_path))
    names = [f"user-{index}" for index in range(21)]
    for index, name in enumerate(names):
        subject = Subject(name)
        ledger.record_fast(
            "Proxy",
            "org-p",
            [
                LabeledValue(f"ip-{index}", SENSITIVE_IDENTITY, subject, "addr"),
                LabeledValue(f"ct-{index}", NONSENSITIVE_DATA, subject, "query"),
            ],
            session=f"px-{index}",
        )
        ledger.record_fast(
            "Target",
            "org-t",
            [
                LabeledValue(f"ct-{index}", NONSENSITIVE_DATA, subject, "query"),
                LabeledValue(f"q-{index}", SENSITIVE_DATA, subject, "query"),
            ],
            session=f"tg-{index}",
        )
    coalition = frozenset({"org-p", "org-t"})
    candidates = ledger._coalition_candidates(ledger._org_ids(sorted(coalition)))
    assert [ledger.subject_names()[sid] for sid in candidates] == names[::-1]
    assert ledger._coalition_candidates(ledger._org_ids(["org-p"])) == []
    # Every subject but the newest lives in a spilled segment.
    assert ledger.memory_accounting()["resident_rows"] == 4
    assert DecouplingAnalyzer(world).coalition_couples(coalition)
    assert ledger.memory_accounting()["segment_reloads"] == 0
