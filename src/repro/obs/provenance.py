"""The provenance graph: why does an entity know what it knows?

The reproduction's central claim is that knowledge tables are *derived
from actual protocol runs, not asserted*.  This module is the receipt:
it joins the three records a run already produces --

* the observation ledger (:mod:`repro.core.ledger`): who learned what,
* the traffic trace (:mod:`repro.net.trace`): which packets crossed
  which links when, and
* the span tree (:mod:`repro.obs.tracing`): which delivery caused
  which send,

-- into one causal event graph, keyed on the packet ids the network
stamps into every delivery-caused observation.  On top of the graph,
:meth:`ProvenanceGraph.why` answers "why does the resolver know the
query?" with the full chain from originating send through every
forwarding hop to the recorded observation, including the value's
derivation steps (``blind``, ``seal``, ``aggregate``, ...);
:meth:`ProvenanceGraph.knowledge_timeline` shows when each entity's
knowledge tuple grew; and :meth:`ProvenanceGraph.breach_chain` traces a
re-coupling back to the concrete observations (and packets) that
enabled it.

Nothing here guesses: every edge is read off a recorded artifact.
Edges and their sources:

``delivered``  deliver-span -> packet     span ``packet_id`` attribute
``forwarded``  packet -> packet           span ancestry (a send issued
                                          while delivering another
                                          packet is a forwarding hop)
``observed``   packet -> observation      ``Observation.packet_id``
``session``    observation -> observation shared ``session`` tag
``value``      observation -> observation shared value digest
``child``      span -> span               span parent links

The graph serializes to typed ``provenance`` JSONL records
(:meth:`ProvenanceGraph.to_dicts` / :meth:`ProvenanceGraph.from_dicts`)
that round-trip: every query works identically on a graph rebuilt from
disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import BreachReport, _Linkage
from repro.core.labels import Label
from repro.core.ledger import Ledger, Observation
from repro.core.serialize import label_to_dict, observation_from_dict

__all__ = [
    "ProvenanceError",
    "PacketHop",
    "ProvenanceChain",
    "TimelineEvent",
    "BreachChain",
    "ProvenanceGraph",
    "build_provenance",
    "knowledge_timeline",
    "render_timeline",
]


class ProvenanceError(LookupError):
    """Raised when a provenance query asks about a fact nobody recorded."""


# ----------------------------------------------------------------------
# Query results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PacketHop:
    """One wire packet along a chain, origin-to-destination ordered."""

    packet_id: int
    time: Optional[float] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    protocol: Optional[str] = None
    size: Optional[int] = None

    @classmethod
    def from_node(cls, node: Dict[str, Any]) -> "PacketHop":
        return cls(
            packet_id=node["packet_id"],
            time=node.get("time"),
            src=node.get("src"),
            dst=node.get("dst"),
            protocol=node.get("protocol"),
            size=node.get("size"),
        )

    def render(self) -> str:
        where = (
            f"{self.src} -> {self.dst}"
            if self.src is not None and self.dst is not None
            else "(wire metadata not captured)"
        )
        extras = []
        if self.protocol is not None:
            extras.append(self.protocol)
        if self.time is not None:
            extras.append(f"t={self.time:.3f}")
        if self.size is not None:
            extras.append(f"{self.size}B")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        return f"pkt#{self.packet_id}  {where}{suffix}"


@dataclass(frozen=True)
class ProvenanceChain:
    """The full causal account of one observation.

    ``hops`` runs origin-first: the packet the information left on,
    each forwarding hop, and finally the packet whose delivery produced
    the observation.  Empty ``hops`` means a local act (a self
    observation, an attestation, a breach) -- ``origin`` says which.
    """

    observation: Dict[str, Any]
    hops: Tuple[PacketHop, ...]
    derivation: Tuple[str, ...]
    origin: str

    @property
    def entity(self) -> str:
        return self.observation["entity"]

    @property
    def subject(self) -> str:
        return self.observation["subject"]

    @property
    def glyph(self) -> str:
        return self.observation["glyph"]

    def render(self) -> str:
        obs = self.observation
        lines = [
            f"{obs['glyph']}[{obs['description'] or '(unnamed)'}]"
            f" of {obs['subject']} -- held by {obs['entity']}"
        ]
        if self.derivation:
            lines.append(f"  derivation: {' -> '.join(self.derivation)}")
        lines.append(f"  origin: {self.origin}")
        for step, hop in enumerate(self.hops, start=1):
            lines.append(f"  {step}. {hop.render()}")
        session = f" (session {obs['session']!r})" if obs["session"] else ""
        lines.append(
            f"  => observed via {obs['channel']!r}"
            f" at t={obs['time']:.3f}{session}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class TimelineEvent:
    """One growth step of one entity's knowledge tuple."""

    time: float
    entity: str
    subject: str
    glyph: str
    description: str
    channel: str
    packet_id: Optional[int] = None

    def render(self) -> str:
        cause = f"pkt#{self.packet_id}" if self.packet_id is not None else "local act"
        return (
            f"t={self.time:8.3f}  {self.entity:<20} +{self.glyph:<4}"
            f" of {self.subject:<12} {self.description or '(unnamed)':<28}"
            f" [{self.channel}, {cause}]"
        )


@dataclass(frozen=True)
class BreachChain:
    """Why breaching one organization couples one subject.

    ``identity_chain`` and ``data_chain`` are the wire-level accounts
    of the two witness observations; ``link`` says how the analyzer
    joins them (shared session, shared value, share reconstruction, or
    transitive linkage through further observations).
    """

    organization: str
    subject: str
    link: str
    identity_chain: ProvenanceChain
    data_chain: ProvenanceChain

    def render(self) -> str:
        lines = [
            f"breach of {self.organization} couples {self.subject}:"
            f" {self.link}",
            "  identity witness:",
        ]
        lines.extend("  " + line for line in self.identity_chain.render().splitlines())
        lines.append("  data witness:")
        lines.extend("  " + line for line in self.data_chain.render().splitlines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------


class ProvenanceGraph:
    """A causal event graph over one run's recorded artifacts.

    Nodes are plain dicts (so the graph round-trips through JSONL
    unchanged); ids are ``pkt:<packet_id>``, ``obs:<ledger-index>``
    and ``span:<span_id>``.  Edges are ``(type, src, dst)`` triples.
    Build one with :func:`build_provenance` or rebuild from disk with
    :meth:`from_dicts`.
    """

    def __init__(self) -> None:
        self.nodes: Dict[str, Dict[str, Any]] = {}
        self.edges: List[Tuple[str, str, str]] = []
        self._out: Dict[Tuple[str, str], List[str]] = {}
        self._in: Dict[Tuple[str, str], List[str]] = {}

    # -- construction ---------------------------------------------------

    def add_node(self, node: Dict[str, Any]) -> None:
        self.nodes[node["id"]] = node

    def add_edge(self, etype: str, src: str, dst: str) -> None:
        self.edges.append((etype, src, dst))
        self._out.setdefault((etype, src), []).append(dst)
        self._in.setdefault((etype, dst), []).append(src)

    def _ensure_packet(self, packet_id: int) -> str:
        """The node id for a packet, creating a stub if the wire trace
        was not captured (ledger-only builds still end at a concrete
        packet id)."""
        node_id = f"pkt:{packet_id}"
        if node_id not in self.nodes:
            self.add_node({"node": "packet", "id": node_id, "packet_id": packet_id})
        return node_id

    # -- views ----------------------------------------------------------

    def _obs_nodes(self) -> List[Dict[str, Any]]:
        return [n for n in self.nodes.values() if n["node"] == "observation"]

    def entities(self) -> Tuple[str, ...]:
        """Entity names with observations, in first-appearance order."""
        seen: Dict[str, None] = {}
        for node in self._obs_nodes():
            seen.setdefault(node["entity"], None)
        return tuple(seen)

    def summary(self) -> Dict[str, int]:
        """Node/edge counts by type, for report sections."""
        counts: Dict[str, int] = {}
        for node in self.nodes.values():
            key = f"nodes.{node['node']}"
            counts[key] = counts.get(key, 0) + 1
        for etype, _, _ in self.edges:
            key = f"edges.{etype}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    # -- why ------------------------------------------------------------

    def why(
        self,
        entity: str,
        fact: Optional[Any] = None,
        *,
        subject: Optional[Any] = None,
    ) -> List[ProvenanceChain]:
        """The causal chains behind an entity's knowledge of ``fact``.

        ``fact`` may be ``None`` (every *sensitive* fact the entity
        holds), a :class:`~repro.core.labels.Label`, a glyph string
        (``"▲"``, ``"⊙/●"``, ``"▲_N"``), a kind/facet/sensitivity word
        (``"identity"``, ``"network"``, ``"sensitive"``), or a
        case-insensitive description substring (``"source IP"``).
        Chains are deduplicated by (subject, glyph, description) and
        ordered earliest-first.

        Raises :class:`ProvenanceError` -- listing what *is* held -- if
        the entity does not hold any matching fact.
        """
        pool = [n for n in self._obs_nodes() if n["entity"] == entity]
        if not pool:
            known = ", ".join(self.entities()) or "(none)"
            raise ProvenanceError(
                f"no observations by entity {entity!r};"
                f" entities in this run: {known}"
            )
        if subject is not None:
            subject_name = getattr(subject, "name", None) or str(subject)
            pool = [n for n in pool if n["subject"] == subject_name]
            if not pool:
                raise ProvenanceError(
                    f"{entity} observed nothing about subject {subject_name!r}"
                )
        matching = [n for n in pool if _fact_matches(n, fact)]
        if not matching:
            held = sorted(
                {
                    f"{n['glyph']}[{n['description'] or '(unnamed)'}]"
                    f" of {n['subject']}"
                    for n in pool
                }
            )
            wanted = "any sensitive fact" if fact is None else f"{_describe_fact(fact)}"
            raise ProvenanceError(
                f"{entity} does not hold {wanted}; facts held: "
                + "; ".join(held)
            )
        matching.sort(key=lambda n: (n["time"], n["index"]))
        seen: Set[Tuple[str, str, str]] = set()
        chains: List[ProvenanceChain] = []
        for node in matching:
            key = (node["subject"], node["glyph"], node["description"])
            if key in seen:
                continue
            seen.add(key)
            chains.append(self.chain_for(node))
        return chains

    def chain_for(self, node: Dict[str, Any]) -> ProvenanceChain:
        """The send -> hops -> delivery -> observation chain of one node."""
        packet_id = node.get("packet_id")
        hops: List[PacketHop] = []
        if packet_id is not None:
            chain_ids: List[str] = []
            current: Optional[str] = f"pkt:{packet_id}"
            while current is not None and current not in chain_ids:
                chain_ids.append(current)
                predecessors = self._in.get(("forwarded", current))
                current = predecessors[0] if predecessors else None
            chain_ids.reverse()  # origin first
            hops = [PacketHop.from_node(self.nodes[nid]) for nid in chain_ids]
            first = hops[0]
            origin = (
                f"sent from {first.src}"
                if first.src is not None
                else f"wire packet #{first.packet_id}"
            )
        else:
            origin = f"local act via channel {node['channel']!r}"
        return ProvenanceChain(
            observation=node,
            hops=tuple(hops),
            derivation=tuple(node.get("provenance", ())),
            origin=origin,
        )

    # -- timeline -------------------------------------------------------

    def knowledge_timeline(self) -> List[TimelineEvent]:
        """When each entity's knowledge tuple grew, in time order.

        One event per *new* (entity, subject, glyph) -- repeat
        observations of an already-held mark do not grow the tuple and
        are skipped.
        """
        grown: Set[Tuple[str, str, str]] = set()
        events: List[TimelineEvent] = []
        for node in sorted(self._obs_nodes(), key=lambda n: (n["time"], n["index"])):
            key = (node["entity"], node["subject"], node["glyph"])
            if key in grown:
                continue
            grown.add(key)
            events.append(
                TimelineEvent(
                    time=node["time"],
                    entity=node["entity"],
                    subject=node["subject"],
                    glyph=node["glyph"],
                    description=node["description"],
                    channel=node["channel"],
                    packet_id=node.get("packet_id"),
                )
            )
        return events

    # -- breach ---------------------------------------------------------

    def breach_chain(self, breach: BreachReport) -> List[BreachChain]:
        """Trace each coupled subject of a breach to witness packets.

        Rebuilds the analyzer's linkage components (sessions, value
        digests, reconstructable share groups) over the breached
        organization's observations and, per coupled subject, picks the
        earliest sensitive-identity and sensitive-data witnesses in a
        shared component, returning both wire-level chains plus a
        description of the joining link.
        """
        chains: List[BreachChain] = []
        for subject in breach.coupled_subjects:
            subject_name = getattr(subject, "name", None) or str(subject)
            pool = [
                n
                for n in self._obs_nodes()
                if n["organization"] == breach.organization
                and n["subject"] == subject_name
            ]
            witness = _find_witness(pool)
            if witness is None:
                continue  # graph lacks the observations the report saw
            identity_node, data_node, link = witness
            chains.append(
                BreachChain(
                    organization=breach.organization,
                    subject=subject_name,
                    link=link,
                    identity_chain=self.chain_for(identity_node),
                    data_chain=self.chain_for(data_node),
                )
            )
        return chains

    # -- serialization --------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Typed ``provenance`` records: nodes first, then edges."""
        rows: List[Dict[str, Any]] = []
        for node in self.nodes.values():
            rows.append({"type": "provenance", "record": "node", **node})
        for etype, src, dst in self.edges:
            rows.append(
                {
                    "type": "provenance",
                    "record": "edge",
                    "edge": etype,
                    "src": src,
                    "dst": dst,
                }
            )
        return rows

    @classmethod
    def from_dicts(cls, rows: Iterable[Dict[str, Any]]) -> "ProvenanceGraph":
        """Rebuild a graph from :meth:`to_dicts` rows.

        Rows of other types (spans, metrics in a shared JSONL file) are
        ignored, so the full export can be fed back unfiltered.
        """
        graph = cls()
        for row in rows:
            if row.get("type") != "provenance":
                continue
            if row.get("record") == "node":
                node = {
                    k: v for k, v in row.items() if k not in ("type", "record")
                }
                if "provenance" in node:
                    node["provenance"] = tuple(node["provenance"])
                graph.add_node(node)
            elif row.get("record") == "edge":
                graph.add_edge(row["edge"], row["src"], row["dst"])
        return graph

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(row, ensure_ascii=False, sort_keys=True, default=str)
            for row in self.to_dicts()
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "ProvenanceGraph":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        return cls.from_dicts(rows)

    def __len__(self) -> int:
        return len(self.nodes)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def build_provenance(
    run: Any = None,
    tracer: Any = None,
    *,
    ledger: Optional[Ledger] = None,
    network: Any = None,
) -> ProvenanceGraph:
    """Assemble the provenance graph of one run.

    ``run`` is duck-typed: any object with a ``world`` (or ``ledger``)
    and optionally a ``network`` works -- every scenario's run object
    does.  ``tracer`` supplies the span tree (pass the tracer a
    :func:`repro.obs.capture` block installed); missing pieces degrade
    gracefully: without spans, chains have no forwarding hops; without
    the network trace, packets are id-only stubs.
    """
    if ledger is None:
        world = getattr(run, "world", None)
        if world is None:
            world = getattr(getattr(run, "analyzer", None), "world", None)
        ledger = world.ledger if world is not None else getattr(run, "ledger", None)
    if ledger is None:
        raise ValueError("build_provenance needs a run with a world/ledger")
    if network is None:
        network = getattr(run, "network", None)
    trace = getattr(network, "trace", None)
    spans: Sequence[Any] = tracer.spans if tracer is not None else ()

    graph = ProvenanceGraph()

    # Packets, in wire order.  A packet delivered twice (impossible
    # today) would keep its first record.
    if trace is not None:
        for record in trace:
            node_id = f"pkt:{record.packet_id}"
            if node_id in graph.nodes:
                continue
            graph.add_node(
                {
                    "node": "packet",
                    "id": node_id,
                    "packet_id": record.packet_id,
                    "time": record.time,
                    "src": str(record.src),
                    "dst": str(record.dst),
                    "size": record.size,
                    "protocol": record.protocol,
                }
            )

    # Observations, in ledger order.
    for index, obs in enumerate(ledger):
        graph.add_node(_observation_node(index, obs))

    # Spans, in completion order.
    span_ids: Set[int] = set()
    for span in spans:
        span_ids.add(span.span_id)
        wall = span.wall_seconds
        graph.add_node(
            {
                "node": "span",
                "id": f"span:{span.span_id}",
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "kind": span.kind,
                "sim_start": span.sim_start,
                "sim_end": span.sim_end,
                "wall_ms": round(wall * 1000.0, 3) if wall is not None else None,
                "attributes": dict(span.attributes),
            }
        )

    # child: span parent links.
    for span in spans:
        if span.parent_id is not None and span.parent_id in span_ids:
            graph.add_edge("child", f"span:{span.parent_id}", f"span:{span.span_id}")

    # delivered + forwarded: read hop causality off the span tree.  A
    # deliver span's nearest deliver ancestor delivered the packet that
    # caused this one to be sent (the handler ran inside that span).
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.name != "deliver" or "packet_id" not in span.attributes:
            continue
        packet_node = graph._ensure_packet(span.attributes["packet_id"])
        graph.add_edge("delivered", f"span:{span.span_id}", packet_node)
        ancestor_id = span.parent_id
        while ancestor_id is not None:
            ancestor = by_id.get(ancestor_id)
            if ancestor is None:
                break
            if ancestor.name == "deliver" and "packet_id" in ancestor.attributes:
                previous = graph._ensure_packet(ancestor.attributes["packet_id"])
                graph.add_edge("forwarded", previous, packet_node)
                break
            ancestor_id = ancestor.parent_id

    # observed: the packet each observation rode in on.
    for index, obs in enumerate(ledger):
        if obs.packet_id is not None:
            graph.add_edge(
                "observed", graph._ensure_packet(obs.packet_id), f"obs:{index}"
            )

    # session / value: the linkage edges the coupling analysis uses.
    # Chained consecutively (not as cliques) to keep the graph linear
    # in the ledger.
    sessions: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    for index, obs in enumerate(ledger):
        node_id = f"obs:{index}"
        if obs.session:
            previous = sessions.get(obs.session)
            if previous is not None:
                graph.add_edge("session", previous, node_id)
            sessions[obs.session] = node_id
        previous = digests.get(obs.value_digest)
        if previous is not None:
            graph.add_edge("value", previous, node_id)
        digests[obs.value_digest] = node_id

    return graph


def _observation_node(index: int, obs: Observation) -> Dict[str, Any]:
    node: Dict[str, Any] = {
        "node": "observation",
        "id": f"obs:{index}",
        "index": index,
        "entity": obs.entity,
        "organization": obs.organization,
        "subject": obs.subject.name,
        "glyph": obs.label.glyph,
        "label": label_to_dict(obs.label),
        "description": obs.description,
        "time": obs.time,
        "channel": obs.channel,
        "session": obs.session,
        "provenance": tuple(obs.provenance),
        "value_digest": obs.value_digest,
        "packet_id": obs.packet_id,
    }
    if obs.share_info is not None:
        node["share_info"] = {
            "group": obs.share_info.group,
            "index": obs.share_info.index,
            "total": obs.share_info.total,
        }
    return node


# ----------------------------------------------------------------------
# Fact matching and breach witnesses
# ----------------------------------------------------------------------

_KIND_WORDS = {"identity", "data"}
_FACET_WORDS = {"human": "human", "network": "network", "generic": "generic"}
_SENSITIVITY_WORDS = {
    "sensitive": True,
    "nonsensitive": False,
    "non-sensitive": False,
}


def _fact_matches(node: Dict[str, Any], fact: Optional[Any]) -> bool:
    label = node["label"]
    if fact is None:
        return label["sensitivity"] == "sensitive"
    if isinstance(fact, Label):
        return label == label_to_dict(fact)
    text = str(fact)
    if text == node["glyph"]:
        return True
    lowered = text.lower()
    if lowered in _KIND_WORDS:
        return label["kind"] == lowered
    if lowered in _FACET_WORDS:
        return label["kind"] == "identity" and label["facet"] == _FACET_WORDS[lowered]
    if lowered in _SENSITIVITY_WORDS:
        return (label["sensitivity"] == "sensitive") is _SENSITIVITY_WORDS[lowered]
    return lowered in node["description"].lower()


def _describe_fact(fact: Any) -> str:
    if isinstance(fact, Label):
        return f"label {fact.glyph}"
    return f"{fact!r}"


def _find_witness(
    pool: List[Dict[str, Any]],
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any], str]]:
    """Earliest (identity, data, link) witness triple in a linked pool.

    The linkage classes come from the analyzer's own kernel
    (:class:`repro.core.analysis._Linkage`) over the pool's
    observations, so the witness joins exactly where the breach report
    couples; this function only picks the witnesses and names the link.
    """
    if not pool:
        return None
    rows = [observation_from_dict(node) for node in pool]
    linkage = _Linkage(rows)

    def earliest(position: int) -> Tuple[float, int]:
        return pool[position]["time"], pool[position]["index"]

    sensitive = [p for p, row in enumerate(rows) if row.label.is_sensitive]
    identity_positions = sorted(
        (p for p in sensitive if rows[p].label.is_identity), key=earliest
    )
    data_positions = sorted(
        (p for p in sensitive if rows[p].label.is_data), key=earliest
    )
    for identity_position in identity_positions:
        identity_node = pool[identity_position]
        identity_root = linkage.root(identity_position)
        for data_position in data_positions:
            if linkage.root(data_position) != identity_root:
                continue
            data_node = pool[data_position]
            if (
                identity_node["session"]
                and identity_node["session"] == data_node["session"]
            ):
                link = f"shared session {identity_node['session']!r}"
            elif identity_node["value_digest"] == data_node["value_digest"]:
                link = "the same value seen in both observations"
            else:
                link = "transitive linkage through further observations"
            return identity_node, data_node, link
        # No directly sensitive data in the component: a reconstructable
        # share group may supply it (Prio-style coalitions).
        for group, member in linkage.reconstructed.items():
            if linkage.root(member) == identity_root:
                return (
                    identity_node,
                    pool[member],
                    f"reconstruction of all secret shares of group {group!r}",
                )
    return None


# ----------------------------------------------------------------------
# Conveniences
# ----------------------------------------------------------------------


def knowledge_timeline(source: Any, tracer: Any = None) -> List[TimelineEvent]:
    """Timeline of a world, run object, or pre-built graph."""
    if isinstance(source, ProvenanceGraph):
        return source.knowledge_timeline()
    ledger = getattr(source, "ledger", None)
    if isinstance(ledger, Ledger):
        # A World (or anything ledger-bearing): build from the ledger.
        return build_provenance(None, tracer, ledger=ledger).knowledge_timeline()
    return build_provenance(source, tracer).knowledge_timeline()


def render_timeline(events: Sequence[TimelineEvent]) -> str:
    if not events:
        return "(no observations)"
    return "\n".join(event.render() for event in events)
