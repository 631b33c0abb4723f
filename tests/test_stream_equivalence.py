"""Streaming ≡ batch: the incremental analyzer against a full-scan oracle.

The streaming ledger shards storage into sealable, spillable segments
and lets :class:`DecouplingAnalyzer` answer mid-run.  The contract is
byte-identity: at *any* ledger version, whatever interleaving of
``record``/``record_fast``/``seal_active_segment``/
``spill_sealed_segments`` produced the rows, the streaming analyzer's
``verdict()``, ``table()``, and ``minimal_recoupling_coalitions()``
render identically to the full-scan test oracle
(``tests/analyzer_reference.py``) -- and to a *fresh* analyzer over a
replay of the same row prefix.
"""

from hypothesis import given, strategies as st

from analyzer_reference import ReferenceAnalyzer
from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import LabeledValue, ShareInfo, Subject

SUBJECTS = {"alice": Subject("alice"), "bob": Subject("bob")}

LABELS = {
    "id": SENSITIVE_IDENTITY,
    "data": SENSITIVE_DATA,
    "pseudo": NONSENSITIVE_IDENTITY,
    "blob": NONSENSITIVE_DATA,
}

SERVERS = ("Server A", "Server B")
ORGS = {"Server A": "org-a", "Server B": "org-b"}

#: One ledger mutation or control action.  Payload integers repeat so
#: shared digests bridge sessions (the union-find path); sessions
#: repeat so same-session coupling fires; ``seal``/``spill`` force the
#: segment lifecycle mid-stream; ``check`` takes a mid-run checkpoint.
_VALUE = st.tuples(
    st.sampled_from(sorted(LABELS)),
    st.sampled_from(sorted(SUBJECTS)),
    st.integers(min_value=0, max_value=4),
)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from(SERVERS),
            _VALUE,
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        st.tuples(
            st.just("fast"),
            st.sampled_from(SERVERS),
            st.lists(_VALUE, min_size=1, max_size=3),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        st.tuples(
            st.just("share"),
            st.sampled_from(sorted(SUBJECTS)),
            st.integers(min_value=0, max_value=2),
        ),
        st.tuples(st.just("seal")),
        st.tuples(st.just("spill")),
        st.tuples(st.just("check")),
    ),
    min_size=1,
    max_size=30,
)


def _build_world() -> World:
    world = World()
    world.entity("User", "device", trusted_by_user=True)
    for server in SERVERS:
        world.entity(server, ORGS[server])
    return world


def _labeled(spec) -> LabeledValue:
    kind, subject, payload = spec
    return LabeledValue(
        f"v{payload}", LABELS[kind], SUBJECTS[subject], f"{kind} fact"
    )


def _apply(world: World, op) -> None:
    ledger = world.ledger
    if op[0] == "record":
        _, server, spec, session = op
        ledger.record(server, ORGS[server], _labeled(spec), session=session)
    elif op[0] == "fast":
        _, server, specs, session = op
        ledger.record_fast(
            server, ORGS[server], [_labeled(s) for s in specs], session=session
        )
    elif op[0] == "share":
        _, subject, group = op
        # One share per server: the pair can reconstruct, neither
        # alone can -- the Prio-shaped coalition path.
        for index, server in enumerate(SERVERS):
            ledger.record(
                server,
                ORGS[server],
                LabeledValue(
                    f"share-{group}-{index}",
                    NONSENSITIVE_DATA,
                    SUBJECTS[subject],
                    "secret share",
                    share_info=ShareInfo(group=f"g{group}", index=index, total=2),
                ),
                session=f"sh{index}",
            )
    elif op[0] == "seal":
        ledger.seal_active_segment()
    elif op[0] == "spill":
        ledger.seal_active_segment()
        ledger.spill_sealed_segments()


def _coalitions(analyzer):
    return sorted(
        (sorted(coalition) for coalition in analyzer.minimal_recoupling_coalitions()),
    )


def _assert_matches_reference(world: World, streaming: DecouplingAnalyzer) -> None:
    reference = ReferenceAnalyzer(world)
    assert str(streaming.verdict()) == str(reference.verdict())
    assert str(streaming.table()) == str(reference.table())
    assert _coalitions(streaming) == _coalitions(reference)


@given(ops=OPS, segment_rows=st.sampled_from([2, 3, 1000]), spill=st.booleans())
def test_streaming_equals_naive_at_every_checkpoint(ops, segment_rows, spill):
    """Any interleaving, any segment policy: byte-identical to the
    full-scan oracle at every checkpoint."""
    world = _build_world()
    world.ledger.configure_segments(rows=segment_rows, spill=spill)
    streaming = DecouplingAnalyzer(world)
    for op in ops:
        _apply(world, op)
        if op[0] == "check":
            _assert_matches_reference(world, streaming)
    _assert_matches_reference(world, streaming)


@given(ops=OPS, segment_rows=st.sampled_from([2, 5]))
def test_mid_run_answers_equal_replay_of_prefix(ops, segment_rows):
    """A mid-run answer at version v == a fresh analyzer over the
    first v observations, replayed into a brand-new ledger."""
    world = _build_world()
    world.ledger.configure_segments(rows=segment_rows, spill=True)
    streaming = DecouplingAnalyzer(world)
    checkpoints = []
    for op in ops:
        _apply(world, op)
        if op[0] == "check":
            checkpoints.append(
                (
                    len(world.ledger),
                    str(streaming.verdict()),
                    str(streaming.table()),
                    _coalitions(streaming),
                )
            )
    checkpoints.append(
        (
            len(world.ledger),
            str(streaming.verdict()),
            str(streaming.table()),
            _coalitions(streaming),
        )
    )
    all_rows = list(world.ledger)
    for rows, verdict_text, table_text, coalitions in checkpoints:
        replay = _build_world()
        replay.ledger.ingest(all_rows[:rows])
        fresh = DecouplingAnalyzer(replay)
        assert str(fresh.verdict()) == verdict_text
        assert str(fresh.table()) == table_text
        assert _coalitions(fresh) == coalitions


@given(ops=OPS)
def test_memo_survives_clear(ops):
    """``clear()`` bumps the generation: stale incremental state must
    never leak into answers over the rebuilt ledger."""
    world = _build_world()
    world.ledger.configure_segments(rows=3, spill=True)
    streaming = DecouplingAnalyzer(world)
    for op in ops:
        _apply(world, op)
    streaming.verdict()  # prime the incremental state
    world.ledger.clear()
    _assert_matches_reference(world, streaming)
    # Refill after the clear: the analyzer re-syncs from scratch.
    for op in ops[: len(ops) // 2]:
        _apply(world, op)
    _assert_matches_reference(world, streaming)


def test_scale_workload_checkpoints_match_with_violations():
    """The T-series workload's own checkpoint comparison, on the
    violating variant (the target sees client addresses too)."""
    from repro.population.workload import run_scale_workload

    result = run_scale_workload(
        users=60,
        observations=1_200,
        segment_rows=128,
        checkpoints=5,
        coupled_fraction=0.1,
    )
    assert result.all_checkpoints_match
    final = result.checkpoints[-1]
    assert not final.decoupled
    assert final.violations > 0
    assert final.collusion_resistance == 1


def test_scale_workload_mid_run_equals_naive_oracle():
    """Small-N scale workload: the final verdict and collusion
    resistance also match the full-scan oracle, not just a fresh
    streaming analyzer."""
    from repro.population.workload import run_scale_workload

    seen = []

    def check(_checkpoint):
        seen.append(_checkpoint)

    result = run_scale_workload(
        users=40,
        observations=400,
        segment_rows=64,
        checkpoints=4,
        on_checkpoint=check,
    )
    assert seen == result.checkpoints
    reference = ReferenceAnalyzer(result.world)
    streaming = DecouplingAnalyzer(result.world)
    assert str(streaming.verdict()) == str(reference.verdict())
    assert streaming.collusion_resistance() == reference.collusion_resistance() == 2
