"""CLI goldens: what each report and series command prints, returns and writes.

``tests/golden/cli.json`` maps every command below (as typed, starting
with ``repro``) to its exit code, its stdout and, for the ``--out PATH``
forms, the file it wrote.  Outputs longer than :data:`INLINE_LIMIT`
characters are stored as the sha256 of their text, as ``traces.json``
stores trace exports.

Host-clock fields are masked before comparing, and nothing else is:

- ``wall=…ms`` in the ``--trace`` sections;
- the ``ms`` columns of the span-stats table (whose rows are sorted by
  wall time, so they are re-sorted by name once masked);
- the wall-clock critical path, whose shape follows the host clock;
- the ``ingest obs/s`` and ``rss … MiB`` columns of the text ``scale``
  report, with their padding;
- the JSON keys ``wall_ms``, ``ingest_seconds``, ``verify_seconds``,
  ``observations_per_second`` and ``peak_rss_mb``.

``{tmp}`` in a command stands for a scratch directory; the directory's
path is written back as ``{tmp}`` in stdout.

Each group of commands runs in one fresh interpreter, in a fixed order,
through the in-process entry point with stdout captured.  A fresh
process per group matters: process-global id counters leak between runs
in one process, so what ran earlier can change byte counts.  The slow
commands run alone; the quick error paths share one interpreter.  Two
groups run at a time.

Regenerate only for an intended output change, and say so in
CHANGES.md::

    PYTHONPATH=src python tests/test_cli_goldens.py --regenerate
"""

import concurrent.futures
import difflib
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "cli.json"

#: Outputs longer than this are stored as a sha256 digest.
INLINE_LIMIT = 16_000

CRASH_PLAN = "examples/faults/odoh_proxy_crash.json"

#: Command groups; each group runs in its own fresh interpreter.
GROUPS = (
    (("report",),),
    (("report", "--risk", "--jobs", "2"),),
    (("report", "--json", "--risk"),),
    (("list",), ("demos",), ("figures",)),
    (("sweeps", "--jobs", "2"),),
    (("resilience", "--rates", "0.0,0.35"),),
    (
        (
            "resilience", "--scenarios", "odoh,odns", "--rates", "0.0,0.35",
            "--seed", "3", "--json",
        ),
    ),
    (("risk",),),
    (("risk", "--jobs", "2", "--json"),),
    (
        ("risk", "--scenarios", "odoh,vpn", "--json"),
        ("risk", "--scenarios", "odoh", "--faults", CRASH_PLAN),
    ),
    (
        ("privcount",),
        (
            "privcount", "--collectors", "1,2", "--share-keepers", "2",
            "--users", "4", "--json",
        ),
    ),
    (
        (
            "resilience", "--scenarios", "odoh", "--rates", "0.0,0.35",
            "--out", "{tmp}/resilience.json",
        ),
        (
            "resilience", "--scenarios", "odoh", "--rates", "0.0,0.35",
            "--json", "--out", "{tmp}/resilience-json.json",
        ),
        ("risk", "--scenarios", "odoh,vpn", "--out", "{tmp}/risk.json"),
        (
            "risk", "--scenarios", "odoh,vpn", "--json",
            "--out", "{tmp}/risk-json.json",
        ),
        ("scale", "--users", "200", "--out", "{tmp}/scale.json"),
        ("scale", "--users", "200", "--json", "--out", "{tmp}/scale-json.json"),
        (
            "privcount", "--collectors", "1", "--share-keepers", "2,3",
            "--out", "{tmp}/privcount.json",
        ),
        (
            "privcount", "--collectors", "1", "--share-keepers", "2,3",
            "--json", "--out", "{tmp}/privcount-json.json",
        ),
    ),
    (
        (),
        ("demo", "nope"),
        ("explain", "odoh"),
        ("explain", "odoh", "--entity", "Nope"),
        ("risk", "--scenarios", "nope"),
        ("risk", "--profile", "{tmp}/missing-profile.json"),
        ("resilience", "--rates", "x"),
        ("scale", "--users", ","),
        ("privcount", "--collectors", ",", "--share-keepers", ","),
        (
            "resilience", "--rates", "0.0", "--scenarios", "odoh",
            "--out", "{tmp}/missing/x.json",
        ),
    ),
    (("report", "--trace"),),
    (("report", "--trace", "--jobs", "2"),),
    (("report", "--json", "--trace"),),
    (("report", "--json", "--trace", "--jobs", "2"),),
    (("sweeps", "--trace"),),
    (("sweeps", "--trace", "--jobs", "2"),),
    (
        ("scale", "--users", "100,200", "--json"),
        (
            "scale", "--users", "200", "--observations", "1600",
            "--segment-rows", "256", "--checkpoints", "2",
        ),
    ),
)

#: Runs one group's commands in order through ``repro.cli.main`` and
#: prints each exit code and captured stdout as one JSON list.
_RUNNER = """
import contextlib, io, json, sys
from repro.cli import main
results = []
for args in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(args)
        except SystemExit as exit:
            code = exit.code
    results.append([0 if code is None else code, buffer.getvalue()])
print(json.dumps(results))
"""

_CLOCK_KEYS = re.compile(
    r'("(?:wall_ms|ingest_seconds|verify_seconds|observations_per_second'
    r'|peak_rss_mb)": )-?[0-9][0-9.eE+-]*'
)
_WALL = re.compile(r"wall=\s*[0-9.]+ms")
#: The text ``scale`` report's rate and RSS columns, padding included:
#: the rate is right-aligned, so its padding shrinks as it gains digits.
_SCALE_CLOCK = re.compile(r" +[0-9]+ ingest obs/s  rss +[0-9.]+ MiB")
_STATS_ROW = re.compile(
    r"^(  \S+ +[0-9]+) +[0-9.]+ms +[0-9.]+ms +[0-9.]+ms( .*)$"
)
_CRITICAL_PATH = "  critical path (wall clock):"
_PATH_STEP = re.compile(r"^ +-> ")


def command_key(command):
    return " ".join(("repro", *command))


def mask(text):
    """``text`` with its host-clock fields masked (see the module doc)."""
    text = _CLOCK_KEYS.sub(r'\1"<masked>"', text)
    text = _WALL.sub("wall=<ms>", text)
    text = _SCALE_CLOCK.sub("      <obs/s> ingest obs/s  rss <MiB> MiB", text)
    lines = text.split("\n")
    masked = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if line == _CRITICAL_PATH:
            masked.append(line + " <masked>")
            index += 1
            while index < len(lines) and _PATH_STEP.match(lines[index]):
                index += 1
            continue
        rows = []
        while index < len(lines) and _STATS_ROW.match(lines[index]):
            rows.append(_STATS_ROW.sub(r"\1 <ms>\2", lines[index]))
            index += 1
        if rows:
            masked.extend(sorted(rows))
            continue
        masked.append(line)
        index += 1
    return "\n".join(masked)


def stored(text):
    """The golden form of one output: masked, digested when long."""
    text = mask(text)
    if len(text) > INLINE_LIMIT:
        return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text


def _env():
    """The caller's environment, minus ``REPRO_*``, with ``src`` importable
    and help text wrapped at 80 columns."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(REPO / "src"), env.get("PYTHONPATH", "")] if p
    )
    env["COLUMNS"] = "80"
    return env


def run_group(group):
    """{command key: {"exit", "stdout"[, "file"]}}, from one fresh process."""
    with tempfile.TemporaryDirectory() as scratch:
        argv = [[arg.replace("{tmp}", scratch) for arg in command] for command in group]
        result = subprocess.run(
            [sys.executable, "-c", _RUNNER, json.dumps(argv)],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=_env(),
        )
        if result.returncode != 0:
            raise AssertionError(
                f"golden run of {[command_key(c) for c in group]} failed:\n"
                f"{result.stderr}"
            )
        results = {}
        for command, args, (code, stdout) in zip(
            group, argv, json.loads(result.stdout)
        ):
            entry = {"exit": code, "stdout": stored(stdout.replace(scratch, "{tmp}"))}
            if "--out" in args:
                path = Path(args[args.index("--out") + 1])
                if path.exists():
                    entry["file"] = stored(path.read_text(encoding="utf-8"))
            results[command_key(command)] = entry
    return results


@functools.lru_cache(maxsize=None)
def run_all():
    """Every group's results, two fresh interpreters at a time."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        parts = list(pool.map(run_group, GROUPS))
    return {key: entry for part in parts for key, entry in part.items()}


def _goldens():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


COMMAND_KEYS = [command_key(command) for group in GROUPS for command in group]


def test_every_command_has_a_golden():
    assert len(set(COMMAND_KEYS)) == len(COMMAND_KEYS)
    assert list(_goldens()) == COMMAND_KEYS


def _diff(expected, actual):
    if expected.startswith("sha256:") or actual.startswith("sha256:"):
        return f"{expected} != {actual}"
    return "\n".join(
        difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "now", lineterm=""
        )
    )


@pytest.mark.parametrize("key", COMMAND_KEYS)
def test_cli_golden(key):
    expected = _goldens()[key]
    actual = run_all()[key]
    assert actual["exit"] == expected["exit"], f"{key}: exit code"
    for part in ("stdout", "file"):
        assert (part in actual) == (part in expected), f"{key}: {part}"
        if part in expected and actual[part] != expected[part]:
            pytest.fail(f"{key}: {part} differs\n{_diff(expected[part], actual[part])}")


def regenerate():
    results = run_all()
    GOLDEN.write_text(
        json.dumps({key: results[key] for key in COMMAND_KEYS}, indent=1,
                   ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_goldens.py --regenerate")
    regenerate()
