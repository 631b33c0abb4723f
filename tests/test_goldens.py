"""Committed goldens: the byte-level oracle for every run artifact.

Two kinds of golden live under ``tests/golden/``:

- ``demo/<id>.json`` -- the exact ``repro demo <id> --json`` output of
  every registered spec (plus ``odoh@odoh_proxy_crash.json``, the
  same demo under ``examples/faults/odoh_proxy_crash.json``);
- ``traces.json`` -- each ``repro trace`` command mapped to the sha256
  of its normalised JSONL export.  Digests are committed instead of
  the JSONL because the ``full``-mode exports alone run to megabytes.

Normalisation drops ``wall_ms`` (host wall clock) and renames each
distinct ``value_digest`` to its first-appearance index.  The renaming
matters for ``doh`` and ``odoh`` only: their X25519 ephemerals draw
from ``secrets``, so a handful of digests differ between processes
while the linkage structure -- which observations carry the same
value -- stays pinned.

Each spec's commands run in one fresh interpreter, in a fixed order
(demo first, then the traces).  A fresh process per spec matters:
process-global id counters (report, message, circuit, tunnel and value
serials) leak between runs in one process, so a second in-process run
of the same demo can report different byte counts.  That one run is
cached, and ``test_demo_goldens`` and ``test_trace_goldens`` both check
against it.  Two more tests run ``python -m repro`` twice, each time in
a fresh interpreter, for ``demo odoh --json`` and ``tables``, and check
both runs against their goldens.

Regenerate only for an intended output change, and say so in
CHANGES.md::

    PYTHONPATH=src python tests/test_goldens.py --regenerate
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
DEMO_GOLDEN = GOLDEN / "demo"
TRACE_GOLDEN = GOLDEN / "traces.json"

#: Fault plans, as the CLI sees them (repo-relative: they are part of
#: each command's golden key).
CRASH_PLAN = "examples/faults/odoh_proxy_crash.json"
#: ``FaultPlan(seed=5, links=(LinkFault(loss=0.2, duplicate=0.2,
#: reorder=0.3, jitter=0.005),))``: every link impairment at once.
LOSSY_PLAN = "tests/golden/mixnet_lossy_plan.json"

SAMPLED = ("--obs-mode", "sampled", "--obs-sample", "0.4")

#: Runs one spec's commands through the in-process CLI entry point and
#: prints their stdout as one JSON list; a non-zero exit aborts.
_RUNNER = """
import io, json, sys
from repro.cli import main
outputs = []
for args in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    code = main(args, out=buffer)
    if code != 0:
        sys.exit(f"{' '.join(args)} exited {code}")
    outputs.append(buffer.getvalue())
print(json.dumps(outputs))
"""


def spec_ids():
    from repro.cli import _register_demos
    from repro.scenario import all_specs

    _register_demos()
    return sorted(spec.id for spec in all_specs())


def commands(spec_id):
    """Every golden command of one spec, in execution order."""
    out = [("demo", spec_id, "--json")]
    if spec_id == "odoh":
        out.append(("demo", spec_id, "--json", "--faults", CRASH_PLAN))
    for mode in ("full", "off"):
        out.append(("trace", spec_id, "--obs-mode", mode))
    if spec_id in ("mixnet", "odns"):
        out.append(("trace", spec_id, *SAMPLED))
        out.append(("trace", spec_id, "--obs-mode", "counters"))
    if spec_id == "odoh":
        for mode in ("full", "off"):
            out.append(("trace", spec_id, "--faults", CRASH_PLAN, "--obs-mode", mode))
    if spec_id == "mixnet":
        for mode in (("--obs-mode", "off"), SAMPLED, ("--obs-mode", "full")):
            out.append(("trace", spec_id, "--faults", LOSSY_PLAN, *mode))
    return out


def demo_golden_path(command):
    """``demo/<id>.json``, or ``demo/<id>@<plan>.json`` under faults."""
    name = command[1]
    if "--faults" in command:
        name += "@" + Path(command[command.index("--faults") + 1]).stem
    return DEMO_GOLDEN / f"{name}.json"


def normalized_digest(path):
    """sha256 of a trace JSONL, wall clock dropped, digests renamed."""
    rename = {}
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("wall_ms", None)
            value = record.get("value_digest")
            if value is not None:
                record["value_digest"] = rename.setdefault(value, len(rename))
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()


def _env():
    """The caller's environment, minus ``REPRO_*``, with ``src`` importable."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(REPO / "src"), env.get("PYTHONPATH", "")] if p
    )
    return env


def run_spec(spec_id):
    """{command key: demo text or trace digest}, from one fresh process."""
    cmds = commands(spec_id)
    with tempfile.TemporaryDirectory() as scratch:
        argv = []
        for index, command in enumerate(cmds):
            args = list(command)
            if command[0] == "trace":
                args += ["--out", os.path.join(scratch, f"{index}.jsonl")]
            argv.append(args)
        result = subprocess.run(
            [sys.executable, "-c", _RUNNER, json.dumps(argv)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=_env(),
        )
        if result.returncode != 0:
            raise AssertionError(
                f"golden run of {spec_id!r} failed:\n{result.stderr}"
            )
        outputs = json.loads(result.stdout)
        results = {}
        for index, (command, output) in enumerate(zip(cmds, outputs)):
            if command[0] == "trace":
                output = normalized_digest(os.path.join(scratch, f"{index}.jsonl"))
            results[" ".join(command)] = output
    return results


def _trace_goldens():
    return json.loads(TRACE_GOLDEN.read_text(encoding="utf-8"))


def test_every_spec_has_goldens():
    """A newly registered spec fails here until its goldens exist."""
    every = [command for spec_id in spec_ids() for command in commands(spec_id)]
    demos = {demo_golden_path(c).name for c in every if c[0] == "demo"}
    assert {path.name for path in DEMO_GOLDEN.glob("*.json")} == demos
    assert set(_trace_goldens()) == {" ".join(c) for c in every if c[0] == "trace"}


@functools.lru_cache(maxsize=None)
def _spec_results(spec_id):
    return run_spec(spec_id)


def _assert_goldens(spec_id, kind, expected_of):
    results = _spec_results(spec_id)
    mismatched = [
        " ".join(command)
        for command in commands(spec_id)
        if command[0] == kind and results[" ".join(command)] != expected_of(command)
    ]
    assert not mismatched, "output differs from its golden: " + "; ".join(
        f"repro {key}" for key in mismatched
    )


@pytest.mark.parametrize("spec_id", spec_ids())
def test_demo_goldens(spec_id):
    _assert_goldens(
        spec_id,
        "demo",
        lambda command: demo_golden_path(command).read_text(encoding="utf-8"),
    )


@pytest.mark.parametrize("spec_id", spec_ids())
def test_trace_goldens(spec_id):
    traces = _trace_goldens()
    _assert_goldens(spec_id, "trace", lambda command: traces[" ".join(command)])


def _fresh_cli(*args):
    """stdout of ``python -m repro <args>`` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=_env(),
        check=True,
    )
    return result.stdout


def test_demo_json_identical_between_processes():
    golden = (DEMO_GOLDEN / "odoh.json").read_text(encoding="utf-8")
    runs = [_fresh_cli("demo", "odoh", "--json") for _ in range(2)]
    assert runs == [golden, golden]


def test_tables_identical_between_processes():
    golden = (GOLDEN / "tables.txt").read_text(encoding="utf-8")
    runs = [_fresh_cli("tables") for _ in range(2)]
    assert runs == [golden, golden]


def regenerate():
    DEMO_GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in DEMO_GOLDEN.glob("*.json"):
        stale.unlink()
    traces = {}
    for spec_id in spec_ids():
        for key, output in run_spec(spec_id).items():
            command = tuple(key.split(" "))
            if command[0] == "demo":
                demo_golden_path(command).write_text(output, encoding="utf-8")
            else:
                traces[key] = output
    TRACE_GOLDEN.write_text(
        json.dumps(traces, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_goldens.py --regenerate")
    regenerate()
