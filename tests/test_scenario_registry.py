"""The scenario registry: completeness, parameter binding, goldens.

Two invariants guard the declarative runtime against drift:

* **Completeness** -- every paper-table constant defined anywhere in
  ``repro.*.scenario`` is some registered spec's ``expected_table()``,
  every spec's table is exactly one such constant (T2's is built by
  ``paper_table_t2``), and the spec's entity display order matches the
  table's keys.  Adding a new paper table without registering its
  scenario (or vice versa) fails here.

* **Golden parity** -- the registry-driven ``tables`` and ``report
  --json`` CLI paths must emit byte-identical output to the pinned
  pre-refactor goldens in ``tests/golden/``.
"""

import importlib
import importlib.util
import io
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.mixnet import paper_table_t2
from repro.scenario import (
    Param,
    ScenarioError,
    ScenarioSpec,
    all_specs,
    experiment_specs,
    find_spec,
    get_spec,
    register,
    sweep_specs,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Module-level names that declare a paper knowledge table.
_CONSTANT_PATTERN = re.compile(
    r"^(PAPER_TABLE_|BASELINE_TABLE_|EXPECTED_TABLE|PRIVCOUNT_TABLE$)"
)


def _paper_table_constants():
    """Every paper-table constant in ``repro.*.scenario``, flattened.

    Returns ``{reference: table}`` where ``reference`` is the bare
    constant name, or ``NAME['mode']`` for dict-of-dict constants like
    the SSO family.
    """
    constants = {}
    for info in pkgutil.iter_modules(repro.__path__):
        if not info.ispkg:
            continue
        name = f"repro.{info.name}.scenario"
        if importlib.util.find_spec(name) is None:
            continue
        module = importlib.import_module(name)
        for attr in dir(module):
            if not _CONSTANT_PATTERN.match(attr):
                continue
            value = getattr(module, attr)
            if not isinstance(value, dict):
                continue
            if value and all(isinstance(cell, dict) for cell in value.values()):
                for mode, table in value.items():
                    constants[f"{attr}[{mode!r}]"] = table
            else:
                constants[attr] = value
    return constants


class TestCompleteness:
    def test_every_constant_is_some_specs_table(self):
        constants = _paper_table_constants()
        assert constants, "no paper-table constants found"
        tables = [spec.expected_table() for spec in all_specs()]
        for reference, table in constants.items():
            assert table in tables, f"no spec reproduces {reference}"

    def test_every_spec_table_is_exactly_one_constant(self):
        # T2's table generalizes with the mix count, so it is built by
        # paper_table_t2(mixes) rather than held in a module constant.
        constants = _paper_table_constants()
        for spec in all_specs():
            table = spec.expected_table()
            if table is None:
                continue
            if spec.id == "mixnet":
                assert table == paper_table_t2(spec.defaults()["mixes"])
                continue
            matches = [name for name, value in constants.items() if value == table]
            assert len(matches) == 1, f"spec {spec.id!r} matches {matches}"

    def test_entity_order_matches_table_keys(self):
        for spec in all_specs():
            expected = spec.expected_table()
            if expected is None:
                continue
            assert spec.entity_order() == list(expected), (
                f"spec {spec.id!r}: entity order diverges from table keys"
            )

    def test_every_spec_declares_a_seed_param(self):
        for spec in all_specs():
            names = [param.name for param in spec.params]
            assert "seed" in names, f"spec {spec.id!r} has no seed parameter"

    def test_report_rows_in_paper_order(self):
        assert [spec.experiment_id for spec in experiment_specs()] == [
            "T1", "T2", "T3", "T4a", "T4b", "T5", "T6", "T7", "T8",
            "E1a", "E1b", "E2a", "E2b", "E2c",
        ]

    def test_sweeps_in_paper_order(self):
        assert [spec.key for spec in sweep_specs()] == [
            "D1", "D2", "D3u", "D3p", "D4", "D5", "D6",
        ]


class TestRegistry:
    def test_all_specs_sorted_by_id(self):
        ids = [spec.id for spec in all_specs()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_unknown_id_raises_with_hint(self):
        with pytest.raises(ScenarioError, match="unknown scenario 'nope'"):
            get_spec("nope")
        assert find_spec("nope") is None

    def test_find_spec_returns_registered(self):
        assert find_spec("mixnet") is get_spec("mixnet")

    def test_duplicate_registration_rejected(self):
        spec = get_spec("mixnet")
        clone = ScenarioSpec(id="mixnet", title="imposter", program=spec.program)
        with pytest.raises(ScenarioError, match="registered twice"):
            register(clone)
        assert get_spec("mixnet") is spec  # original untouched

    def test_bind_rejects_unknown_parameter(self):
        spec = get_spec("digital-cash")
        with pytest.raises(ScenarioError, match="no parameter 'coinz'"):
            spec.bind({"coinz": 5})

    def test_bind_overlays_defaults(self):
        spec = get_spec("digital-cash")
        bound = spec.bind({"coins": 7})
        assert bound["coins"] == 7
        assert bound["seed"] == spec.defaults()["seed"]

    def test_param_docs_present(self):
        for spec in all_specs():
            for param in spec.params:
                assert isinstance(param, Param)
                assert param.doc, f"{spec.id}.{param.name} is undocumented"


class TestGoldenParity:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        assert code == 0
        return out.getvalue()

    def test_tables_byte_identical(self):
        golden = (GOLDEN_DIR / "tables.txt").read_text(encoding="utf-8")
        assert self._run(["tables"]) == golden

    def test_report_json_byte_identical(self):
        golden = (GOLDEN_DIR / "report.json").read_text(encoding="utf-8")
        assert self._run(["report", "--json"]) == golden
