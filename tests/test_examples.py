"""Example goldens: every script under ``examples/`` prints what it printed.

``tests/golden/examples/<name>.txt`` holds the exact stdout of
``python examples/<name>.py``.  Each example runs twice, each time in a
fresh interpreter, once under ``PYTHONHASHSEED=1`` and once under
``PYTHONHASHSEED=2``, and both runs must equal its golden.  An example
whose output follows set or dict iteration order of strings therefore
fails here, not just in a reader's terminal.

Regenerate only for an intended output change, and say so in
CHANGES.md::

    PYTHONPATH=src python tests/test_examples.py --regenerate
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
GOLDEN = REPO / "tests" / "golden" / "examples"

HASH_SEEDS = ("1", "2")


def example_names():
    return sorted(path.stem for path in EXAMPLES.glob("*.py"))


def run_example(name, hash_seed):
    """stdout of ``python examples/<name>.py`` in a fresh interpreter."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(REPO / "src"), env.get("PYTHONPATH", "")] if p
    )
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    if result.returncode != 0:
        raise AssertionError(f"examples/{name}.py failed:\n{result.stderr}")
    return result.stdout


def test_every_example_has_a_golden():
    """A new example fails here until its golden exists."""
    committed = sorted(path.stem for path in GOLDEN.glob("*.txt"))
    assert committed == example_names()


@pytest.mark.parametrize("name", example_names())
def test_example_output_matches_golden(name):
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    for hash_seed in HASH_SEEDS:
        assert run_example(name, hash_seed) == golden, (
            f"examples/{name}.py under PYTHONHASHSEED={hash_seed}"
            " differs from its golden"
        )


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in example_names():
        (GOLDEN / f"{name}.txt").write_text(
            run_example(name, HASH_SEEDS[0]), encoding="utf-8"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_examples.py --regenerate")
    regenerate()
