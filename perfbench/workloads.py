"""The four benchmark workloads: one op each, plus its correctness check.

An *op* is one unit of timed work.  For the three scenario workloads it
is a full ``run_scenario`` lifecycle (build -> drive -> settle ->
analyze) followed by ``verdict()``, ``table()`` and
``collusion_resistance()``.  For ``ledger-stream`` it is one streaming
ingest with mid-ingest checkpoint queries and a final analysis.

Every op is checked after its timed region; a failed check is recorded
in :attr:`OpResult.problems`.  Inputs depend only on the seed, so two
ops of one workload with one seed do the same work.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.analysis import DecouplingAnalyzer
from repro.core.labels import NONSENSITIVE_DATA, SENSITIVE_DATA, SENSITIVE_IDENTITY
from repro.core.values import LabeledValue, Subject
from repro.faults import FaultPlan, LinkFault
from repro.population import PopulationEngine, PopulationSpec
from repro.population.workload import (
    PROXY_ENTITY,
    PROXY_ORG,
    TARGET_ENTITY,
    TARGET_ORG,
    build_scale_world,
)
from repro.scenario import discover, get_spec, run_scenario

#: The seed runs use unless told otherwise, and the seed kept back so
#: that a performance claim can be confirmed on inputs it was not
#: tuned on.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

#: Sizes per workload: ``default`` for measurement, ``smoke`` for the
#: smoke test.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "odoh-hpke": {"default": {"queries": 40}, "smoke": {"queries": 2}},
    "odns-relay": {"default": {"queries": 2000}, "smoke": {"queries": 30}},
    "mixnet-lossy": {
        "default": {"senders": 1000, "batch_size": 10},
        "smoke": {"senders": 60, "batch_size": 5},
    },
    "ledger-stream": {
        "default": {
            "observations": 24_000,
            "users": 2_400,
            "segment_rows": 2_048,
            "checkpoints": 12,
        },
        "smoke": {
            "observations": 2_000,
            "users": 200,
            "segment_rows": 256,
            "checkpoints": 4,
        },
    },
}


@dataclass
class OpResult:
    """What one op measured, counted, and got wrong."""

    #: Timed wall seconds of the op (correctness work excluded).
    wall_s: float
    #: Ledger rows appended, and the wall seconds of the phase that
    #: appended them (drive+settle, or ingest without checkpoints).
    rows: int
    append_s: float
    #: Settled world -> verdict + knowledge table + collusion resistance.
    analyze_s: float
    #: Scenario phase wall times (build/drive/settle/analyze).
    phases: Dict[str, float] = field(default_factory=dict)
    #: ``Network.messages_delivered`` (0 without a network).
    deliveries: int = 0
    #: Mid-ingest streaming query latencies, in seconds.
    queries_s: List[float] = field(default_factory=list)
    #: Sub-operations attempted and failed inside the op: fault-runtime
    #: attempts and failures, mixnet messages sent and never received.
    attempted: int = 0
    failed: int = 0
    #: The program's own counters, for per-layer metrics and the
    #: cross-checks against the trace.
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class PhaseClock:
    """A phase hook: wall clock and ledger size at every phase edge."""

    def __init__(self) -> None:
        self.at: Dict[str, float] = {}
        self.rows: Dict[str, int] = {}

    def __call__(self, event: str, phase: str, program: Any) -> None:
        key = f"{event}:{phase}"
        self.at[key] = perf_counter()
        self.rows[key] = len(program.world.ledger)

    def span(self, phase: str) -> float:
        return self.at[f"after:{phase}"] - self.at[f"before:{phase}"]


class Untraced:
    """A ``with`` block run with the tracer's wrappers removed.

    The block's wall time, wrapper removal and reinstallation included,
    is kept in :attr:`elapsed`; the op leaves it out of its timed wall
    and the tracer leaves it out of the enclosing span, so correctness
    work inside an op shows up in neither.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def __enter__(self) -> "Untraced":
        self.start = perf_counter()
        if self.tracer is not None:
            self.tracer.uninstall()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.tracer is not None:
            self.tracer.install()
        self.elapsed = perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.exclude(self.elapsed)


class Workload:
    """Base: a named, seeded generator of identical ops."""

    name = ""

    def __init__(self, seed: int, size: str = "default") -> None:
        self.seed = seed
        self.size = dict(SIZES[self.name][size])
        #: Program outputs of the first op; later ops must match them.
        self.reference: Optional[Dict[str, Any]] = None

    def op(self, tracer: Any = None) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload wrote."""

    def _match_reference(self, outputs: Dict[str, Any], result: OpResult) -> None:
        if self.reference is None:
            self.reference = outputs
            return
        for key, value in outputs.items():
            if self.reference[key] != value:
                result.problems.append(
                    f"{key} changed between ops: {self.reference[key]!r} -> {value!r}"
                )


class ScenarioWorkload(Workload):
    """One registered spec run through ``run_scenario``."""

    spec_id = ""
    #: The collusion resistance the paper's argument predicts.
    resistance = 2

    def params(self) -> Dict[str, Any]:
        return {"seed": self.seed, **self.size}

    def faults(self) -> Optional[FaultPlan]:
        return None

    def op(self, tracer: Any = None) -> OpResult:
        clock = PhaseClock()
        params = self.params()
        plan = self.faults()
        start = perf_counter()
        run = run_scenario(self.spec_id, hooks=(clock,), faults=plan, **params)
        analyzed = clock.at["before:analyze"]
        verdict = run.verdict()
        table = run.table()
        resistance = run.analyzer.collusion_resistance()
        end = perf_counter()

        network = run.network
        append_s = clock.at["after:settle"] - clock.at["before:drive"]
        result = OpResult(
            wall_s=end - start,
            rows=clock.rows["after:settle"] - clock.rows["before:drive"],
            append_s=append_s,
            analyze_s=end - analyzed,
            phases={phase: clock.span(phase) for phase in ("build", "drive", "settle", "analyze")},
            deliveries=network.messages_delivered,
        )
        stats = run.fault_summary["stats"] if run.fault_summary else {}
        result.attempted = stats.get("attempts", 0)
        result.failed = stats.get("failures", 0)
        result.counters = {
            "messages_delivered": network.messages_delivered,
            "fast_deliveries": network.fast_deliveries,
            "packets_sent": network.packets_sent,
            "packets_dropped": network.packets_dropped,
            "packets_duplicated": network.packets_duplicated,
            "events": network.simulator.events_processed,
            "ledger_rows": len(run.world.ledger),
            "fault_attempts": stats.get("attempts", 0),
            "fault_retries": stats.get("retries", 0),
            "fault_timeouts": stats.get("timeouts", 0),
            "fault_failures": stats.get("failures", 0),
        }
        self.check(run, verdict, table, resistance, result)
        return result

    def check(self, run: Any, verdict: Any, table: Any, resistance: int, result: OpResult) -> None:
        problems = result.problems
        network = run.network
        expected = get_spec(self.spec_id).expected_table(run.params)
        if expected is not None and dict(table.as_mapping()) != expected:
            problems.append(f"table {dict(table.as_mapping())} != paper {expected}")
        if not verdict.decoupled:
            problems.append(f"verdict: {verdict}")
        if resistance != self.resistance:
            problems.append(f"collusion resistance {resistance} != {self.resistance}")
        if (
            network.packets_sent + network.packets_duplicated
            != network.messages_delivered + network.packets_dropped + network.packets_in_flight
        ):
            problems.append("packets not conserved")
        if network.packets_in_flight:
            problems.append(f"{network.packets_in_flight} packets in flight after settle")
        if run.fault_summary and run.fault_summary["stats"]["phase_errors"]:
            problems.append(f"phase errors: {run.fault_summary['stats']['phase_errors']}")
        # Outputs that must not vary between ops with one seed.  HPKE
        # ephemerals come from ``secrets``, so verdicts, tables and
        # counts are compared, never trace digests.
        self._match_reference(
            {
                "verdict": str(verdict),
                "table": table.render(),
                "resistance": resistance,
                **result.counters,
            },
            result,
        )


class OdohHpke(ScenarioWorkload):
    name = "odoh-hpke"
    spec_id = "odoh"

    def params(self) -> Dict[str, Any]:
        key_seed = hashlib.sha256(f"perfbench-odoh-{self.seed}".encode()).digest()
        return {**super().params(), "key_seed": key_seed}


class OdnsRelay(ScenarioWorkload):
    name = "odns-relay"
    spec_id = "odns"


class MixnetLossy(ScenarioWorkload):
    name = "mixnet-lossy"
    spec_id = "mixnet"
    resistance = 4  # three mixes and the receiver must all collude

    def faults(self) -> FaultPlan:
        # Loss on the cover senders' first hop only: the tracked
        # sender's message must arrive for the paper's table to hold.
        return FaultPlan(
            seed=self.seed,
            links=(
                LinkFault(src="sender-[1-9]*", loss=0.05),
                LinkFault(duplicate=0.02, reorder=0.05, jitter=0.002),
            ),
        )

    def check(self, run: Any, verdict: Any, table: Any, resistance: int, result: OpResult) -> None:
        # Messages that never reach the receiver: lost on the wire, or
        # stranded in a partial batch that settle() never drains.
        received = {message.subject.name for message in run.receiver.received}
        result.attempted += run.senders
        result.failed += run.senders - len(received)
        result.counters["messages_received"] = len(received)
        super().check(run, verdict, table, resistance, result)


class LedgerStream(Workload):
    """Population arrivals streamed into a sealing, spilling ledger.

    The ingest mirrors ``repro.population.run_scale_workload`` row for
    row (its ODoH-shaped two-hop topology, four observations per
    arrival), but keeps each checkpoint's comparison against a fresh
    full-scan analyzer outside the timed region, which
    ``run_scale_workload`` times together with the query.
    """

    name = "ledger-stream"

    def __init__(self, seed: int, size: str = "default", root: str = ".") -> None:
        super().__init__(seed, size)
        self.spill_dir = os.path.join(root, ".perfbench-spill", f"{os.getpid()}")

    def close(self) -> None:
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.spill_dir))
        except OSError:
            pass  # another run still spills there

    def op(self, tracer: Any = None) -> OpResult:
        size = self.size
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        world = build_scale_world()
        ledger = world.ledger
        ledger.configure_segments(rows=size["segment_rows"], spill=True, directory=self.spill_dir)
        engine = PopulationEngine(PopulationSpec(users=size["users"], seed=self.seed))
        streaming = DecouplingAnalyzer(world)
        wanted = size["observations"] // 4
        every = max(1, wanted // size["checkpoints"])
        queries: List[float] = []
        mismatches: List[str] = []
        record_fast = ledger.record_fast
        arrivals = 0
        excluded = 0.0  # full-scan comparisons, outside the timed region

        start = perf_counter()
        with tracer.span("ingest_loop") if tracer else nullcontext():
            for arrival in engine.arrivals(limit=wanted):
                subject = Subject(arrival.user_name)
                ciphertext = f"ct-{arrival.index}"
                address = f"ip-{arrival.user}-{arrival.session}"
                record_fast(
                    PROXY_ENTITY,
                    PROXY_ORG,
                    [
                        LabeledValue(address, SENSITIVE_IDENTITY, subject, "client address"),
                        LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
                    ],
                    time=arrival.time,
                    channel="wire",
                    session=f"px-{arrival.session}",
                )
                record_fast(
                    TARGET_ENTITY,
                    TARGET_ORG,
                    [
                        LabeledValue(ciphertext, NONSENSITIVE_DATA, subject, "encrypted query"),
                        LabeledValue(
                            f"{arrival.action}-{arrival.index}",
                            SENSITIVE_DATA,
                            subject,
                            "decrypted query",
                        ),
                    ],
                    time=arrival.time,
                    channel="wire",
                    session=f"tg-{arrival.session}",
                )
                arrivals += 1
                if arrivals % every == 0 and len(queries) < size["checkpoints"]:
                    asked = perf_counter()
                    verdict = streaming.verdict()
                    resistance = streaming.collusion_resistance()
                    queries.append(perf_counter() - asked)
                    with Untraced(tracer) as compare:
                        mismatches += _full_scan_mismatch(world, verdict, resistance)
                    excluded += compare.elapsed
        ingested = perf_counter()
        verdict = streaming.verdict()
        table = streaming.table()
        resistance = streaming.collusion_resistance()
        # The post-hoc analysis of the settled ledger, as the scenario
        # workloads do it: a fresh analyzer.  It is also the full-scan
        # reference for the streaming answers above.
        settled = perf_counter()
        fresh = DecouplingAnalyzer(world)
        fresh_verdict = fresh.verdict()
        fresh_table = fresh.table()
        fresh_resistance = fresh.collusion_resistance()
        end = perf_counter()

        if str(fresh_verdict) != str(verdict) or fresh_resistance != resistance:
            mismatches.append(f"final answers differ from a full scan at {len(ledger)} rows")
        if fresh_table.render() != table.render():
            mismatches.append(f"final table differs from a full scan at {len(ledger)} rows")
        accounting = ledger.memory_accounting()
        result = OpResult(
            wall_s=end - start - excluded,
            rows=len(ledger),
            append_s=ingested - start - excluded - sum(queries),
            analyze_s=end - settled,
            queries_s=queries,
            counters={
                "arrivals": arrivals,
                "ledger_rows": len(ledger),
                "segments_sealed": accounting["segments_sealed"],
                "segments_spilled": accounting["segments_spilled"],
                "rows_spilled": accounting["rows_spilled"],
            },
        )
        problems = result.problems
        problems += mismatches
        if len(ledger) != 4 * arrivals or arrivals != wanted:
            problems.append(f"{len(ledger)} rows from {arrivals} of {wanted} arrivals")
        if not verdict.decoupled:
            problems.append(f"verdict: {verdict}")
        if resistance != 2:
            problems.append(f"collusion resistance {resistance} != 2")
        if len(queries) != size["checkpoints"]:
            problems.append(f"{len(queries)} checkpoints, wanted {size['checkpoints']}")
        self._match_reference(
            {"verdict": str(verdict), "table": table.render(), "sessions": engine.sessions_opened,
             **result.counters},
            result,
        )
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        return result


def _full_scan_mismatch(world: Any, verdict: Any, resistance: int) -> List[str]:
    """Differences between streaming answers and a fresh full scan."""
    fresh = DecouplingAnalyzer(world)
    problems = []
    at = len(world.ledger)
    if str(fresh.verdict()) != str(verdict):
        problems.append(f"verdict differs from a full scan at {at} rows")
    if fresh.collusion_resistance() != resistance:
        problems.append(f"collusion resistance differs from a full scan at {at} rows")
    return problems


WORKLOADS = {cls.name: cls for cls in (OdohHpke, OdnsRelay, MixnetLossy, LedgerStream)}


def make(name: str, seed: int, size: str = "default", root: str = ".") -> Workload:
    """Set a workload up: registry discovery, then its inputs."""
    discover()
    cls = WORKLOADS[name]
    if cls is LedgerStream:
        return cls(seed, size, root=root)
    return cls(seed, size)
