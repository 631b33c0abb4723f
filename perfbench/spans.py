"""In-process span tracing for the benchmark's traced runs.

Nothing here touches ``src/``: :class:`Tracer` wraps public functions
and methods of each layer from the outside, by replacing attributes on
classes and modules, and :meth:`Tracer.uninstall` puts every original
back.  A span is one call of a wrapped function.  Its *self time* is
its duration minus the durations of the spans it directly contains, so
re-entrant pumping (``transact`` runs the simulator from inside a
handler) never counts the same second twice.  The self times of all
spans plus the time outside every span sum exactly to the traced wall
time; :func:`layer_table` reports that remainder as ``unattributed``.

Module-level functions are rebound in every loaded ``repro`` module
that holds them, because ``from repro.crypto.hpke import
setup_base_sender`` copies the name into the importing module.
"""

from __future__ import annotations

import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Span name -> layer.  Every span the tracer records is listed here.
LAYER_OF: Dict[str, str] = {
    "scenario.build": "scenario.runtime",
    "scenario.drive": "scenario.runtime",
    "scenario.settle": "scenario.runtime",
    "scenario.analyze": "scenario.runtime",
    "population.arrivals": "population",
    "net.sim.run": "net.sim",
    "net.sim.schedule": "net.sim",
    "net.sim.callback": "net.sim",
    "net.sim.marker": "net.sim",
    "net.send": "net.network",
    "net.deliver": "net.network",
    "net.transact": "net.network",
    "faults.on_send": "faults",
    "faults.on_deliver": "faults",
    "faults.attempt": "faults",
    "crypto.x25519": "crypto",
    "crypto.aead": "crypto",
    "crypto.hpke": "crypto",
    "handlers.handle": "handlers",
    "handlers.client": "handlers",
    "core.observe": "core.entities",
    "core.ledger.record": "core.ledger",
    "core.segments.seal": "core.segments",
    "core.segments.spill": "core.segments",
    "core.segments.load": "core.segments",
    "core.analysis.sync": "core.analysis",
    "core.analysis.verdict": "core.analysis",
    "core.analysis.collusion": "core.analysis",
    "core.analysis.table": "core.analysis",
    "ingest_loop": "ingest_loop",
}

#: Layer rows in the order the table prints them.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Span accumulators plus the reversible patches that feed them."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counts measured at span boundaries (rows, deliveries, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self.peak_pending = 0
        self._stack: List[list] = []
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accumulation ---------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.peak_pending = 0
        del self._stack[:]

    def timed(
        self, name: str, fn: Callable, post: Callable[[Any], None] = None
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``post(result)`` runs after a successful call, outside the span.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(result)
            return result

        span.__wrapped__ = fn
        return span

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is one span."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def iterate(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [0.0, name]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self_s[name] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                calls[name] += 1
                yield item

        return iterate

    def span(self, name: str) -> "_Span":
        """A ``with`` block recorded as a span (for benchmark code)."""
        return _Span(self, name)

    def innermost(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` out of the innermost open span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Apply every wrapper (the patch list is built once)."""
        if not self._patches:
            self._patches = _build_patches(self)
        for owner, name, value in self._patches:
            self._set(owner, name, value)

    def uninstall(self) -> None:
        """Restore every original attribute, newest patch first."""
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.frame = [0.0, self.name]
        self.tracer._stack.append(self.frame)
        self.start = perf_counter()

    def __exit__(self, *exc: Any) -> None:
        elapsed = perf_counter() - self.start
        tracer = self.tracer
        tracer._stack.pop()
        tracer.self_s[self.name] += elapsed - self.frame[0]
        tracer.calls[self.name] += 1
        if tracer._stack:
            tracer._stack[-1][0] += elapsed


def _method(cls: type, name: str) -> Callable:
    """The function behind ``cls.name``, defined there or inherited."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return vars(klass)[name]
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def _rebind_everywhere(original: Callable, replacement: Callable) -> list:
    """Patches for every loaded ``repro`` module that binds ``original``."""
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, replacement))
    return patches


def _build_patches(tracer: Tracer) -> list:
    """Every wrapper, as ``(owner, attribute, replacement)`` triples."""
    from repro.core.analysis import DecouplingAnalyzer
    from repro.core.entities import Entity
    from repro.core.ledger import Ledger
    from repro.core.segments import LedgerSegment
    from repro.crypto.chacha20poly1305 import ChaCha20Poly1305
    from repro.dns.resolver import StubResolver
    from repro.faults import FaultRuntime
    from repro.net.network import Network, SimHost
    from repro.net.sim import Simulator
    from repro.odns.odns import OdnsClient
    from repro.odns.odoh import OdohClient
    from repro.population import PopulationEngine
    from repro.scenario import ScenarioProgram

    # By module path: the ``repro.crypto`` package re-exports the
    # ``x25519`` function under the submodule's own name.
    hpke = importlib.import_module("repro.crypto.hpke")
    x25519 = importlib.import_module("repro.crypto.x25519")
    counts = tracer.counts
    timed = tracer.timed
    patches: list = []

    def method(cls: type, attr: str, span: str, post=None) -> None:
        patches.append((cls, attr, timed(span, _method(cls, attr), post)))

    def function(module: types.ModuleType, attr: str, span: str) -> None:
        original = vars(module)[attr]
        patches.extend(_rebind_everywhere(original, timed(span, original)))

    # scenario.runtime: one span per lifecycle phase, named by phase.
    run_phase = _method(ScenarioProgram, "run_phase")
    phase_spans = {
        phase: timed(f"scenario.{phase}", run_phase)
        for phase in ("build", "drive", "settle", "analyze")
    }
    patches.append((
        ScenarioProgram,
        "run_phase",
        lambda program, phase: phase_spans[phase](program, phase),
    ))

    # population: the arrival stream is a generator; time each step.
    patches.append((
        PopulationEngine,
        "arrivals",
        tracer.timed_iter("population.arrivals", _method(PopulationEngine, "arrivals")),
    ))

    # net.sim: pumping, scheduling, and the events it dispatches.  An
    # event scheduled from inside ``Network.send`` is a delivery; any
    # other non-marker event is a plain simulator callback.
    method(Simulator, "run_until_idle", "net.sim.run")
    method(Simulator, "run_until", "net.sim.run")
    method(Simulator, "marker_at", "net.sim.marker")
    schedule = timed("net.sim.schedule", _method(Simulator, "schedule"))

    def deliver_span(callback: Callable) -> Callable:
        # A delivery scheduled as a plain closure took the
        # instrumented pipeline; a slotted event object the fast one.
        if isinstance(callback, types.FunctionType):
            counts["net.deliver.slow"] += 1
        else:
            counts["net.deliver.fast"] += 1
        return timed("net.deliver", callback)

    def traced_schedule(sim: Any, delay: float, callback: Callable) -> None:
        caller = tracer.innermost()
        if caller == "net.send":
            callback = deliver_span(callback)
        elif caller != "net.sim.marker":
            callback = timed("net.sim.callback", callback)
        schedule(sim, delay, callback)
        pending = sim.pending
        if pending > tracer.peak_pending:
            tracer.peak_pending = pending

    patches.append((Simulator, "schedule", traced_schedule))

    # net.network
    method(Network, "send", "net.send")
    method(Network, "transact", "net.transact")

    # faults
    method(FaultRuntime, "on_send", "faults.on_send")
    method(FaultRuntime, "on_deliver", "faults.on_deliver")
    method(FaultRuntime, "attempt", "faults.attempt")

    # crypto: names bound by ``from ... import`` are rebound too.
    function(x25519, "x25519", "crypto.x25519")
    method(ChaCha20Poly1305, "seal", "crypto.aead")
    method(ChaCha20Poly1305, "open", "crypto.aead")
    function(hpke, "setup_base_sender", "crypto.hpke")
    function(hpke, "setup_base_recipient", "crypto.hpke")
    method(hpke.HpkeSenderContext, "seal", "crypto.hpke")
    method(hpke.HpkeSenderContext, "export", "crypto.hpke")
    method(hpke.HpkeRecipientContext, "open", "crypto.hpke")
    method(hpke.HpkeRecipientContext, "export", "crypto.hpke")

    # handlers: every protocol handler registered on a host, plus the
    # client-side protocol endpoints the workloads call.
    register = _method(SimHost, "register")
    patches.append((
        SimHost,
        "register",
        lambda host, protocol, handler: register(
            host, protocol, timed("handlers.handle", handler)
        ),
    ))
    method(OdohClient, "lookup", "handlers.client")
    method(OdnsClient, "lookup", "handlers.client")
    method(StubResolver, "lookup", "handlers.client")

    # core.entities / core.ledger / core.segments
    method(Entity, "observe", "core.observe")

    def count_rows(recorded: Any) -> None:
        counts["core.ledger.rows"] += len(recorded)

    def count_one_row(_recorded: Any) -> None:
        counts["core.ledger.rows"] += 1

    def count_spilled(rows: int) -> None:
        counts["core.segments.spilled_rows"] += rows

    method(Ledger, "record_fast", "core.ledger.record", count_rows)
    method(Ledger, "record", "core.ledger.record", count_one_row)
    method(LedgerSegment, "seal", "core.segments.seal")
    method(LedgerSegment, "spill", "core.segments.spill", count_spilled)
    method(LedgerSegment, "load", "core.segments.load")

    # core.analysis: the public queries, and the seal listeners through
    # which a streaming analyzer syncs during ingest.
    add_listener = _method(Ledger, "add_seal_listener")
    patches.append((
        Ledger,
        "add_seal_listener",
        lambda ledger, listener: add_listener(
            ledger, timed("core.analysis.sync", listener)
        ),
    ))
    method(DecouplingAnalyzer, "verdict", "core.analysis.verdict")
    method(DecouplingAnalyzer, "collusion_resistance", "core.analysis.collusion")
    method(DecouplingAnalyzer, "table", "core.analysis.table")
    return patches


def layer_table(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Self seconds per layer plus ``unattributed``; sums to ``wall_s``."""
    rows = {layer: 0.0 for layer in LAYERS}
    for name, seconds in tracer.self_s.items():
        rows[LAYER_OF[name]] += seconds
    rows["unattributed"] = wall_s - sum(rows.values())
    return rows
