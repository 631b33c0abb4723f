"""Full-registry demo coverage: every registered scenario, text and JSON.

The parametrization is driven by the scenario registry itself, and a
completeness check pins the verdict table to the registry: adding a
scenario without recording its expected verdict fails loudly instead
of silently shrinking coverage.
"""

import functools
import io
import json

import pytest

from repro.cli import main
from repro.core.analysis import DecouplingAnalyzer
from repro.scenario import all_specs, run_scenario

ALL_SPEC_IDS = sorted(spec.id for spec in all_specs())

#: Keys every ``demo <id> --json`` document must carry.
DEMO_JSON_SCHEMA_KEYS = (
    "scenario_id",
    "title",
    "params",
    "table",
    "verdict_decoupled",
    "coalitions",
    "observations",
    "sim_seconds",
    "events",
    "messages",
    "bytes",
)

EXPECTED_VERDICTS = {
    # The cautionary tales and partial designs are NOT decoupled ...
    "vpn": False,
    "plain-dns": False,
    "doh": False,
    "ech": False,  # the CDN terminates TLS: encryption without decoupling
    "pgpp-baseline": False,
    "ppm-naive": False,
    "sso-global": False,
    "sso-pairwise": False,
    "phoenix": False,  # conservative reading (trust_attested=False)
    # ... the decoupled systems are.
    "digital-cash": True,
    "mixnet": True,
    "privacy-pass": True,
    "odns": True,
    "odoh": True,
    "pgpp": True,
    "mpr": True,
    "ppm-ohttp": True,
    "prio": True,
    "prio-histogram": True,
    "cacti": True,
    "sso-anonymous": True,
    "privcount": True,
    "privcount-sharded": True,
}


def test_registry_fully_covered():
    """Every registered spec is listed as a demo and has a pinned verdict."""
    out = io.StringIO()
    assert main(["list"], out=out) == 0
    assert out.getvalue().split() == ALL_SPEC_IDS
    assert sorted(EXPECTED_VERDICTS) == ALL_SPEC_IDS


@pytest.mark.parametrize("name", ALL_SPEC_IDS)
def test_demo_runs_and_reports(name):
    out = io.StringIO()
    code = main(["demo", name], out=out)
    text = out.getvalue()
    assert code == 0
    # Every demo prints a knowledge table, a verdict, and breach lines.
    assert "DECOUPLED" in text
    assert "breach of" in text
    assert "What " in text  # the explain() narration


@pytest.mark.parametrize("name", ALL_SPEC_IDS)
def test_demo_json_schema(name):
    out = io.StringIO()
    code = main(["demo", name, "--json"], out=out)
    assert code == 0
    document = json.loads(out.getvalue())
    for key in DEMO_JSON_SCHEMA_KEYS:
        assert key in document, f"{name}: missing {key!r}"
    assert document["scenario_id"] == name
    assert document["verdict_decoupled"] == EXPECTED_VERDICTS[name]
    assert document["table"], f"{name}: empty knowledge table"
    assert all(isinstance(cell, str) for cell in document["table"].values())
    assert isinstance(document["params"], dict)
    assert document["observations"] >= 0
    # Fault-free runs carry no fault section (golden parity).
    assert "faults" not in document


@functools.lru_cache(maxsize=None)
def _run(name):
    """One run of the spec at its default parameters, shared below."""
    return run_scenario(name)


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_demo_verdicts_match_expectations(name):
    run = _run(name)
    assert run.analyzer.verdict().decoupled == EXPECTED_VERDICTS[name], name


@pytest.mark.parametrize("name", ALL_SPEC_IDS)
def test_collusion_resistance_is_the_smallest_minimal_coalition(name):
    """``collusion_resistance()``, unbounded and under every
    ``max_size``, is the size of the smallest minimal re-coupling
    coalition (the demo goldens pin the coalitions), whether it is
    asked before or after the coalitions are enumerated."""
    analyzer = DecouplingAnalyzer(_run(name).world)
    organizations = len(analyzer.non_user_organizations())
    bounds = [None, *range(organizations + 2)]
    before = [analyzer.collusion_resistance(max_size=k) for k in bounds]
    sizes = [len(c) for c in analyzer.minimal_recoupling_coalitions()]
    expected = [
        min((s for s in sizes if k is None or s <= k), default=organizations + 1)
        for k in bounds
    ]
    assert before == expected
    assert [analyzer.collusion_resistance(max_size=k) for k in bounds] == expected
