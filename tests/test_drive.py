"""The drive pipeline: delivery, observation and ledger append.

Every delivery takes one pipeline (``Network.send`` -> ``_Delivery``
-> ``Network._deliver`` -> ``Entity.observe`` -> ``Ledger.record_fast``),
whatever the obs tier and whether or not a fault injector is
installed.  The committed goldens (``tests/test_goldens.py``) pin its
output byte for byte; this file pins the pieces the goldens cannot
reach:

1. fire-time checks -- an injector installed, or ``full`` tracing
   enabled, while a packet is on the wire still applies to it;
2. the obs tiers -- ``counters`` records metrics and no spans,
   ``sampled`` traces a seeded subset, and both total exactly what
   ``full`` records;
3. Hypothesis invariants -- batched ``Ledger.record_fast`` equals
   value-at-a-time appends, ``collect_values`` equals the reference
   generator walk (``tests/values_reference.py``), and ``Sealed.wrap``
   seeds its exterior from that walk's first value.
"""

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.cli import main
from repro.core.entities import World
from repro.core.labels import (
    NONSENSITIVE_DATA,
    SENSITIVE_DATA,
    SENSITIVE_IDENTITY,
)
from repro.core.ledger import Ledger
from repro.core.values import LabeledValue, Sealed, Subject, collect_values
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.net.network import Network
from repro.obs import export as obs_export
from repro.scenario import run_scenario

from values_reference import walk_values


def _run_cli(args):
    out = io.StringIO()
    code = main(list(args), out=out)
    assert code == 0, f"{args} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", ["privcount", "privcount-sharded"])
def test_privcount_demo_json_repeatable(name):
    """Repeated in-process runs are byte-stable: every rng draw,
    Laplace noise included, flows from the seed."""
    assert _run_cli(["demo", name, "--json"]) == _run_cli(["demo", name, "--json"])


def test_tables_repeatable():
    """Two in-process ``tables`` runs print the same bytes."""
    assert _run_cli(["tables"]) == _run_cli(["tables"])


# ---------------------------------------------------------- fire time


def _mini_network():
    world = World()
    network = Network()
    identity = LabeledValue(
        "198.51.100.1", SENSITIVE_IDENTITY, Subject("alice"), "ip"
    )
    user = network.add_host(
        "user", world.entity("User", "device", trusted_by_user=True),
        identity=identity,
    )
    server = network.add_host("server", world.entity("Server", "server-org"))
    server.register("echo", lambda packet: None)
    return world, network, user, server


def _send_one(user, server):
    value = LabeledValue("hello", SENSITIVE_DATA, Subject("alice"), "msg")
    user.send(server.address, value, "echo")


def test_injector_installed_in_flight_is_consulted():
    """A crash injected while the packet flies drops it on arrival."""
    world, network, user, server = _mini_network()
    _send_one(user, server)
    FaultRuntime(FaultPlan.crash("server", at=0.0), network).install()
    network.run()
    assert network.messages_delivered == 0
    assert network.packets_dropped == 1
    assert len(world.ledger) == 0
    assert network.packets_sent + network.packets_duplicated == (
        network.messages_delivered
        + network.packets_dropped
        + network.packets_in_flight
    )


def test_observability_enabled_mid_flight_respected():
    """``full`` enabled while the packet flies traces its delivery."""
    _world, network, user, server = _mini_network()
    _send_one(user, server)
    with obs.capture(mode="full") as (tracer, _registry):
        network.run()
    (deliver,) = tracer.by_name("deliver")
    spans = {span.span_id: span for span in tracer.spans}
    assert spans[deliver.parent_id].name == "transact"
    assert network.messages_delivered == 1


# ---------------------------------------------------------- obs tiers


def test_counters_mode_records_metrics_without_spans():
    _world, network, user, server = _mini_network()
    with obs.capture(mode="counters") as (tracer, registry):
        _send_one(user, server)
        network.run()
    assert tracer.spans == []
    # The batch folded into the capture registry on exit.
    assert registry.counter_value("net.messages") == 1
    assert registry.counter_value("sim.events") >= 1
    assert registry.counter_value("ledger.observations") >= 1


def test_sampled_mode_traces_a_subset():
    sampler = obs.SpanSampler(rate=0.4, seed=0)
    with obs.capture(mode="sampled", sampler=sampler) as (tracer, registry):
        run = run_scenario("mixnet")
    network = run.network
    deliver_spans = tracer.by_name("deliver")
    assert deliver_spans, "a 0.4 sampler over a mixnet run must trace some"
    assert len(deliver_spans) < network.messages_delivered
    # Batched metrics still cover *every* delivery, traced or not.
    assert registry.counter_value("net.messages") == network.messages_delivered


def test_counters_mode_totals_byte_equal_full_mode():
    """A counters-mode registry snapshot == the full-mode one, bit for bit.

    The batch observes values in delivery order and folds each total
    exactly once into zeroed instruments, so even the float histogram
    sums come out identical.  (``snapshot()`` sorts by name, so the
    differing instrument-creation order cannot show through.)
    """
    with obs.capture(mode="counters") as (_tracer, counters_registry):
        counters_run = run_scenario("mixnet")
    with obs.capture(mode="full") as (_tracer, full_registry):
        full_run = run_scenario("mixnet")
    assert counters_run.network.messages_delivered == (
        full_run.network.messages_delivered
    )
    assert json.dumps(counters_registry.snapshot(), sort_keys=True) == (
        json.dumps(full_registry.snapshot(), sort_keys=True)
    )


def _sampled_span_lines(seed):
    """Normalized span JSONL for one sampled mixnet run at ``seed``."""
    sampler = obs.SpanSampler(rate=0.4, seed=seed)
    with obs.capture(mode="sampled", sampler=sampler) as (tracer, _registry):
        run_scenario("mixnet")
    lines = []
    for span in tracer.spans:
        record = obs_export.span_to_dict(span)
        record.pop("wall_ms", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def test_sampler_same_seed_reproduces_span_set():
    """Same seed => byte-identical sampled JSONL; new seed => new set."""
    first = _sampled_span_lines(seed=0)
    second = _sampled_span_lines(seed=0)
    other = _sampled_span_lines(seed=7)
    assert first, "a 0.4 sampler over a mixnet run must trace some spans"
    assert first == second
    assert first != other


# ------------------------------------------------ record_fast invariants

_SUBJECTS = st.sampled_from([Subject("alice"), Subject("bob"), Subject("eve")])
_LABELS = st.sampled_from(
    [SENSITIVE_IDENTITY, SENSITIVE_DATA, NONSENSITIVE_DATA]
)


@st.composite
def _labeled_values(draw):
    return LabeledValue(
        payload=draw(st.text(max_size=8)),
        label=draw(_LABELS),
        subject=draw(_SUBJECTS),
        description=draw(st.sampled_from(["ip", "query", "token", ""])),
        provenance=draw(st.sampled_from([(), ("qname",), ("qname", "blind")])),
    )


@st.composite
def _batches(draw):
    """A handful of (entity, org, values, channel, session) batches."""
    batches = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["Resolver", "Proxy", "Target"]),
                st.sampled_from(["org-a", "org-b"]),
                st.lists(_labeled_values(), min_size=0, max_size=4),
                st.sampled_from(["message", "dns", "network-header"]),
                st.sampled_from(["", "pkt:1", "pkt:2"]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return batches


def _visible_state(ledger):
    """Everything a query or the analyzer can see, version excluded."""
    return {
        "observations": ledger.observations,
        "subjects": ledger.subjects(),
        "by_subject": {
            s.name: ledger.by_subject(s) for s in ledger.subjects()
        },
        "entities": {
            o.entity: ledger.by_entity(o.entity) for o in ledger.observations
        },
        "labels": {
            (o.entity, o.subject.name): ledger.labels_of(o.entity, o.subject)
            for o in ledger.observations
        },
    }


@given(_batches())
def test_record_fast_equivalent_to_sequential_record(batches):
    """Batched append == value-at-a-time append, bit for bit.

    The *only* sanctioned difference is the version counter's step
    size: ``record_fast`` bumps once per batch, ``record`` once per
    value.  Analyzer memo keys only require that an unchanged version
    implies unchanged contents, which a coarser counter preserves.
    """
    batched, sequential = Ledger(), Ledger()
    time = 0.0
    for entity, org, values, channel, session in batches:
        time += 0.1
        before = batched.version
        batched.record_fast(
            entity, org, list(values), time=time, channel=channel,
            session=session, packet_id=None,
        )
        # One version bump per non-empty batch, none for empty ones.
        expected_bumps = 1 if values else 0
        assert batched.version == before + expected_bumps
        for value in values:
            sequential.record(
                entity, org, value, time=time, channel=channel,
                session=session, packet_id=None,
            )
    assert _visible_state(batched) == _visible_state(sequential)
    assert len(batched) == len(sequential)


# ------------------------------------------------------ payload walks

_KEYS = st.sampled_from(["k1", "k2"])


@st.composite
def _payload_trees(draw, depth=3):
    leaf = st.one_of(
        _labeled_values(),
        st.text(max_size=4),
        st.integers(-10, 10),
        st.none(),
    )
    if depth == 0:
        return draw(leaf)
    child = _payload_trees(depth=depth - 1)
    branch = st.one_of(
        leaf,
        st.lists(child, max_size=3).map(tuple),
        st.lists(child, max_size=3),
        st.dictionaries(st.text(max_size=3), child, max_size=2),
        st.tuples(_KEYS, child).map(
            lambda pair: Sealed.wrap(pair[0], (pair[1],))
        ),
    )
    return draw(branch)


@given(_payload_trees(), st.sets(_KEYS, max_size=2))
def test_collect_values_equals_walk_values(tree, keys):
    keyring = frozenset(keys)
    assert collect_values(tree, keyring) == list(walk_values(tree, keyring))


@given(st.lists(_payload_trees(), max_size=3), _KEYS)
def test_wrap_exterior_extends_first_walked_value(contents, key_id):
    """The exterior's provenance is the first value an empty keyring
    sees inside, plus ``"seal"``."""
    items = tuple(contents)
    first = next(walk_values(items, frozenset()), None)
    prior = first.provenance if first is not None else ()
    sealed = Sealed.wrap(key_id, items)
    assert sealed.exterior.provenance == prior + ("seal",)
