"""The coupling kernel against the recursive kernel it replaced.

``repro.core.analysis._Linkage`` decides whether a pool of ledger rows
links a sensitive identity to sensitive data.  It reads the ledger's
columns, so each pool here is routed through a scratch ledger
(``_linkage_of``) before the kernel sees it.  The kernel has two uses:
the yes/no callers build with ``stop=True`` and stop at the row that
forms the first coupled class, and the witness search builds in full.
Both answers are checked against each other and against the original
token-keyed union-find with a recursive ``find``
(``tests/coupling_reference.py``): on generated pools covering every
linkage feature, on the pools of every registered scenario, on pools
that couple only at their last row or only through a completed share
group, and on the long linkage chains the reference cannot handle.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupling_reference import _observations_couple as reference_couple
from repro.core.analysis import _linkage_of
from repro.core.labels import (
    NONSENSITIVE_DATA,
    NONSENSITIVE_IDENTITY,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
    Facet,
    Kind,
    Label,
    Sensitivity,
)
from repro.core.ledger import Observation
from repro.core.values import ShareInfo, Subject
from repro.scenario import all_specs, run_scenario

ALICE = Subject("alice")


def _valid_labels():
    labels = []
    for kind, sensitivity, facet, partial in itertools.product(
        Kind, Sensitivity, Facet, (False, True)
    ):
        try:
            labels.append(Label(kind, sensitivity, facet, partial))
        except ValueError:
            continue  # data with a facet, or partial non-sensitive data
    return labels


#: Every label kind, sensitivity, facet and ``partial`` combination.
ALL_LABELS = _valid_labels()


def _obs(label, digest, session="", share=None):
    return Observation(
        entity="E",
        organization="org",
        subject=ALICE,
        label=label,
        value_digest=digest,
        description="",
        time=0.0,
        channel="message",
        session=session,
        share_info=share,
    )


def _observations_couple(pool):
    """The production kernel's answer for a pool of observations."""
    return _linkage_of(pool).couples()


def _both(pool):
    """The kernel's answer, after checking its stop-early build against
    its full build and both against the reference.

    A stop-early build that ended before the last row must have found a
    coupled class at the row it stopped on.
    """
    answer = _observations_couple(pool)
    early = _linkage_of(pool, stop=True)
    assert early.couples() == answer == reference_couple(pool), pool
    stopped = len(early.nodes)
    if stopped < len(pool):
        assert answer and reference_couple(pool[: stopped + 1]), pool
    return answer


# ----------------------------------------------------------------------
# Generated pools
# ----------------------------------------------------------------------

# Few distinct sessions and digests, so repeats and collisions are the
# norm; "" is the no-session marker.  Non-sensitive labels are drawn
# more often than the rest, so that whether a pool couples hinges on
# its links and share groups rather than on a sensitive row in every
# class.  Share indices repeat, and one group's shares may disagree on
# the total.
_SHARES = st.builds(
    ShareInfo,
    group=st.sampled_from(["g0", "g1", "g2"]),
    index=st.integers(0, 2),
    total=st.integers(1, 3),
)
_ROWS = st.builds(
    _obs,
    label=st.sampled_from(ALL_LABELS + [NONSENSITIVE_DATA, NONSENSITIVE_IDENTITY] * 4),
    digest=st.sampled_from([f"d{i}" for i in range(8)]),
    session=st.sampled_from(["", "s0", "s1", "s2", "s3", "s4"]),
    share=st.none() | st.none() | _SHARES,
)


class TestAgainstReference:
    def test_labels_cover_every_kind_facet_and_partial(self):
        assert len(ALL_LABELS) == 9
        assert {label.facet for label in ALL_LABELS} == set(Facet)
        assert any(label.partial for label in ALL_LABELS)

    @settings(max_examples=settings.default.max_examples * 8)
    @given(st.lists(_ROWS, max_size=30))
    def test_every_prefix_of_a_generated_pool(self, pool):
        for end in range(len(pool) + 1):
            _both(pool[:end])

    def test_every_registered_scenario_pool(self):
        checked = coupled = 0
        for spec in all_specs():
            ledger = run_scenario(spec.id).world.ledger
            orgs = sorted({obs.organization for obs in ledger})
            coalitions = [
                set(combo)
                for size in (1, 2)
                for combo in itertools.combinations(orgs, size)
            ]
            for subject in ledger.subjects():
                rows = ledger.by_subject(subject)
                for coalition in coalitions:
                    pool = [obs for obs in rows if obs.organization in coalition]
                    coupled += _both(pool)
                    checked += 1
        assert checked > 100 and 0 < coupled < checked


class TestLinkageRule:
    """Each part of the rule, on a pool small enough to read."""

    @pytest.mark.parametrize(
        "pool, couples",
        [
            ([], False),
            # A shared session links; the empty session does not.
            ([_obs(SENSITIVE_IDENTITY, "ip", "s"), _obs(SENSITIVE_DATA, "q", "s")], True),
            ([_obs(SENSITIVE_IDENTITY, "ip", ""), _obs(SENSITIVE_DATA, "q", "")], False),
            # A shared value digest links across sessions.
            ([_obs(SENSITIVE_IDENTITY, "x", "a"), _obs(SENSITIVE_DATA, "x", "b")], True),
            # Session and digest names live apart: "x" the session is
            # not "x" the digest.
            ([_obs(SENSITIVE_IDENTITY, "x", "a"), _obs(SENSITIVE_DATA, "q", "x")], False),
            # Transitive: ip -s1- token -digest- token -s2- query.
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "tok", "s1"),
                    _obs(NONSENSITIVE_DATA, "tok", "s2"),
                    _obs(SENSITIVE_DATA, "q", "s2"),
                ],
                True,
            ),
            # Shares: complete group reconstructs sensitive data in the
            # identity's class ...
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 2)),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 2)),
                ],
                True,
            ),
            # ... a duplicate index does not complete it ...
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 2)),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 0, 2)),
                ],
                False,
            ),
            # ... and with mixed totals the group's last share decides.
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 3)),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 2)),
                ],
                True,
            ),
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 2)),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 3)),
                ],
                False,
            ),
        ],
    )
    def test_rule(self, pool, couples):
        assert _both(pool) is couples


# ----------------------------------------------------------------------
# Pools that couple late
# ----------------------------------------------------------------------


def _joined_on_last_row(filler, last):
    """▲ and ● in separate classes until the last row joins them."""
    pool = [
        _obs(SENSITIVE_IDENTITY, "ip", "s-id"),
        *(_obs(NONSENSITIVE_DATA, f"f{i}", f"s-f{i % 3}") for i in range(filler)),
        _obs(SENSITIVE_DATA, "q", "s-data"),
    ]
    return pool + [last]


#: Last rows that form the coupled class: a session union in either
#: direction (the row's digest is one side's, its session the
#: other's), and a sensitive label landing in a class that a session
#: already joined to the other side.
_LAST_ROWS = {
    "digest-of-identity-session-of-data": _obs(NONSENSITIVE_IDENTITY, "ip", "s-data"),
    "digest-of-data-session-of-identity": _obs(NONSENSITIVE_DATA, "q", "s-id"),
    "identity-label-in-data-class": _obs(SENSITIVE_IDENTITY, "ip2", "s-data"),
}


class TestLateCoupling:
    @pytest.mark.parametrize("filler", [0, 1, 7, 40])
    @pytest.mark.parametrize("last", sorted(_LAST_ROWS))
    def test_identity_and_data_join_only_on_the_last_row(self, filler, last):
        pool = _joined_on_last_row(filler, _LAST_ROWS[last])
        for end in range(len(pool)):
            assert not _both(pool[:end])
        assert _both(pool)
        # The stop-early pass read every row: the coupled class formed
        # on the last one.
        assert len(_linkage_of(pool, stop=True).nodes) == len(pool) - 1

    def test_stop_early_pass_ends_at_the_coupling_row(self):
        pool = [
            _obs(SENSITIVE_IDENTITY, "ip", "s"),
            _obs(SENSITIVE_DATA, "q", "s"),
            *(_obs(NONSENSITIVE_DATA, f"f{i}", f"s{i}") for i in range(50)),
        ]
        assert _both(pool)
        assert len(_linkage_of(pool, stop=True).nodes) == 1
        assert len(_linkage_of(pool).nodes) == len(pool)

    @pytest.mark.parametrize(
        "pool, couples",
        [
            # The group's completion puts reconstructed data in the
            # identity's class ...
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 3)),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 3)),
                    _obs(NONSENSITIVE_IDENTITY, "p", "s3"),
                    _obs(NONSENSITIVE_DATA, "c", "s4", ShareInfo("g", 2, 3)),
                ],
                True,
            ),
            # ... or joins an identity class to a data class that no
            # session or digest joins ...
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 2)),
                    _obs(SENSITIVE_DATA, "q", "s2"),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 2)),
                ],
                True,
            ),
            # ... and an incomplete group does neither.
            (
                [
                    _obs(SENSITIVE_IDENTITY, "ip", "s1"),
                    _obs(NONSENSITIVE_DATA, "a", "s1", ShareInfo("g", 0, 3)),
                    _obs(SENSITIVE_DATA, "q", "s2"),
                    _obs(NONSENSITIVE_DATA, "b", "s2", ShareInfo("g", 1, 3)),
                ],
                False,
            ),
        ],
    )
    def test_only_a_completed_share_group_couples(self, pool, couples):
        for end in range(len(pool)):
            assert not _both(pool[:end])
        assert _both(pool) is couples
        # Nothing coupled during the pass, so the stop-early build read
        # every row and closed the group after it.
        assert len(_linkage_of(pool, stop=True).nodes) == len(pool)


# ----------------------------------------------------------------------
# Long linkage chains
# ----------------------------------------------------------------------


def _zigzag_chain(length):
    """Each observation shares a session with one neighbour and a
    digest with the other: ▲ at one end, ● at the other, linked only
    through all ``length`` observations."""
    pool = [
        _obs(NONSENSITIVE_DATA, f"d{i // 2}", f"s{(i + 1) // 2}")
        for i in range(length)
    ]
    pool[0] = _obs(SENSITIVE_IDENTITY, "d0", "s0")
    last = length - 1
    pool[last] = _obs(SENSITIVE_DATA, f"d{last // 2}", f"s{(last + 1) // 2}")
    return pool


class TestLongChains:
    def test_twenty_thousand_link_chain_couples(self):
        pool = _zigzag_chain(20_001)
        assert _observations_couple(pool)
        assert _linkage_of(pool, stop=True).couples()
        # Cut the chain in the middle and it no longer couples.
        assert not _observations_couple(pool[:10_000] + pool[10_002:])
        # Long enough to matter: the replaced kernel's recursive find
        # exceeds the default recursion limit on it.
        with pytest.raises(RecursionError):
            reference_couple(pool)

    def test_mpr_at_two_thousand_requests(self):
        # A relay's pool linked request after request used to raise
        # RecursionError here.
        run = run_scenario("mpr", requests=2000)
        assert run.analyzer.collusion_resistance() == 2
