"""The T-series scale workload: streaming analysis over 1M users.

This drives an ODoH-shaped two-hop topology -- the smallest deployment
whose decoupling argument is interesting -- with a
:class:`~repro.population.engine.PopulationEngine` arrival stream:

* The **proxy** sees, per arrival, the client's network address (a
  sensitive identity, ``▲``) and the encrypted query (``⊙``).
* The **target** sees the same ciphertext (``⊙``, identical digest --
  what the proxy forwarded is what the target decrypts) and the
  decrypted query (sensitive data, ``●``).

Per entity the pools are one-sided -- the proxy holds no sensitive
data, the target no sensitive identity -- so the verdict is DECOUPLED
at every ledger version, and the streaming analyzer's candidate gates
answer it without ever materializing per-pair union-find state.  The
proxy+target *coalition* re-couples through the shared ciphertext
digest (collusion resistance 2), exactly the paper's ODoH story.

``coupled_fraction`` deliberately breaks decoupling for a fraction of
arrivals (the target also sees the client address), which is how the
equivalence tests exercise the violating paths at scale.

The driver records through :meth:`Ledger.record_fast
<repro.core.ledger.Ledger.record_fast>` -- the same hot path scenario
runs use -- under a segment policy that seals and spills as it goes,
and takes *checkpoints* mid-run: at each one it asks the streaming
analyzer for the verdict (and optionally the collusion structure) and
compares against a fresh analyzer over the same ledger version, i.e.
the post-hoc answer.  ``bench_scale`` asserts the comparison at 1M
users; at small N the streaming-equivalence suite also checks the
answers against the full-scan test oracle
(``tests/analyzer_reference.py``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.analysis import DecouplingAnalyzer
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.values import LabeledValue, Subject

from .engine import PopulationEngine, PopulationSpec

__all__ = ["ScaleCheckpoint", "ScaleRunResult", "run_scale_workload"]

PROXY_ENTITY = "Oblivious Proxy"
TARGET_ENTITY = "Oblivious Target"
PROXY_ORG = "proxy-operator"
TARGET_ORG = "target-operator"


@dataclass(frozen=True)
class ScaleCheckpoint:
    """One mid-run query against the streaming analyzer."""

    observations: int
    version: int
    decoupled: bool
    violations: int
    #: Streaming answer rendered byte-identical to a fresh full-scan
    #: analyzer at the same ledger version.
    matches_full_scan: bool
    #: Smallest re-coupling coalition size at this version (None when
    #: the checkpoint skipped collusion analysis).
    collusion_resistance: Optional[int]
    elapsed_seconds: float


@dataclass
class ScaleRunResult:
    """Everything one T-series workload run produced."""

    world: World
    engine: PopulationEngine
    users: int
    observations: int
    arrivals: int
    sessions: int
    checkpoints: List[ScaleCheckpoint]
    #: Wall seconds of the ledger ingest alone, the mid-run
    #: checkpoints' ``elapsed_seconds`` excluded.
    ingest_seconds: float
    accounting: dict

    @property
    def all_checkpoints_match(self) -> bool:
        return all(c.matches_full_scan for c in self.checkpoints)


def build_scale_world() -> World:
    """The two-organization ODoH-shaped world the workload drives."""
    world = World()
    world.entity("Client Population", "user-devices", trusted_by_user=True)
    world.entity(PROXY_ENTITY, PROXY_ORG)
    world.entity(TARGET_ENTITY, TARGET_ORG)
    return world


def _verdicts_match(world: World, streaming: DecouplingAnalyzer) -> bool:
    """Streaming answer == a fresh analyzer's answer, byte for byte."""
    fresh = DecouplingAnalyzer(world)
    return str(streaming.verdict()) == str(fresh.verdict())


def check_scale_workload(observations: int) -> None:
    """Reject a row target below one arrival (four observations)."""
    if observations < 4:
        raise ValueError("scale workload needs at least one arrival (4 rows)")


def run_scale_workload(
    *,
    users: int,
    observations: int,
    seed: int = 7,
    segment_rows: Optional[int] = 65_536,
    spill: bool = True,
    spill_directory: Optional[str] = None,
    checkpoints: int = 8,
    coupled_fraction: float = 0.0,
    collusion_at_checkpoints: bool = True,
    on_checkpoint: Optional[Callable[[ScaleCheckpoint], None]] = None,
) -> ScaleRunResult:
    """Drive the scale topology to ``observations`` ledger rows.

    Each arrival contributes four observations (two per hop).  The
    ledger runs under the given segment policy; the streaming analyzer
    is constructed *before* ingest and queried at ``checkpoints``
    evenly spaced points (plus once at the end), comparing each answer
    to a fresh analyzer over the same rows.
    """
    check_scale_workload(observations)
    world = build_scale_world()
    ledger = world.ledger
    if segment_rows is not None:
        ledger.configure_segments(
            rows=segment_rows, spill=spill, directory=spill_directory
        )
    engine = PopulationEngine(PopulationSpec(users=users, seed=seed))
    streaming = DecouplingAnalyzer(world)

    arrivals_wanted = observations // 4
    checkpoint_every = max(1, arrivals_wanted // max(1, checkpoints))
    coupled_stride = (
        int(1.0 / coupled_fraction) if coupled_fraction > 0.0 else 0
    )

    taken: List[ScaleCheckpoint] = []

    def take_checkpoint() -> None:
        started = _time.perf_counter()
        verdict = streaming.verdict()
        matches = _verdicts_match(world, streaming)
        resistance: Optional[int] = None
        if collusion_at_checkpoints:
            resistance = streaming.collusion_resistance()
            fresh = DecouplingAnalyzer(world)
            matches = matches and resistance == fresh.collusion_resistance()
        checkpoint = ScaleCheckpoint(
            observations=len(ledger),
            version=ledger.version,
            decoupled=verdict.decoupled,
            violations=len(verdict.violations),
            matches_full_scan=matches,
            collusion_resistance=resistance,
            elapsed_seconds=_time.perf_counter() - started,
        )
        taken.append(checkpoint)
        if on_checkpoint is not None:
            on_checkpoint(checkpoint)

    record_fast = ledger.record_fast
    started = _time.perf_counter()
    count = 0
    for arrival in engine.arrivals(limit=arrivals_wanted):
        user = arrival.user_name
        subject = Subject(user)
        # Unique per-arrival payloads: the ciphertext digest is the
        # cross-org link, the address digest the within-user link.
        ciphertext = f"ct-{arrival.index}"
        address = f"ip-{arrival.user}-{arrival.session}"
        proxy_values = [
            LabeledValue(address, SENSITIVE_IDENTITY, subject, "client address"),
            LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
        ]
        record_fast(
            PROXY_ENTITY,
            PROXY_ORG,
            proxy_values,
            time=arrival.time,
            channel="wire",
            session=f"px-{arrival.session}",
        )
        target_values = [
            LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
            LabeledValue(
                f"{arrival.action}-{arrival.index}",
                SENSITIVE_DATA,
                subject,
                "decrypted query",
            ),
        ]
        if coupled_stride and arrival.index % coupled_stride == 0:
            # The deliberate violation: the target also learns the
            # client address, so its own pool couples.
            target_values.append(
                LabeledValue(address, SENSITIVE_IDENTITY, subject, "client address")
            )
        record_fast(
            TARGET_ENTITY,
            TARGET_ORG,
            target_values,
            time=arrival.time,
            channel="wire",
            session=f"tg-{arrival.session}",
        )
        count += 1
        if count % checkpoint_every == 0 and len(taken) < checkpoints:
            take_checkpoint()
    # Ingest time only: the mid-run checkpoints' queries and full-scan
    # comparisons are timed separately, in their elapsed_seconds.
    ingest_seconds = (
        _time.perf_counter() - started - sum(c.elapsed_seconds for c in taken)
    )
    # The final checkpoint is the post-hoc answer itself.
    take_checkpoint()
    return ScaleRunResult(
        world=world,
        engine=engine,
        users=users,
        observations=len(ledger),
        arrivals=count,
        sessions=engine.sessions_opened,
        checkpoints=taken,
        ingest_seconds=ingest_seconds,
        accounting=ledger.memory_accounting(),
    )
