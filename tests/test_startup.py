"""Start-up builds no Schnorr group: each is built on first use.

Each fixed Schnorr group proves its p and q prime when it is built, so
building one at import would tax every process.  The probe runs in a
fresh interpreter, because this test process may already hold groups.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

PROBE = textwrap.dedent(
    """
    import gc

    from repro.scenario import discover

    discover()

    from repro.crypto.group import SchnorrGroup

    def groups():
        return [o for o in gc.get_objects() if isinstance(o, SchnorrGroup)]

    print(len(groups()))

    import repro.crypto
    import repro.crypto.group
    from repro.crypto.group import default_group

    first = default_group()
    from repro.crypto import GROUP_256 as package_256
    from repro.crypto.group import GROUP_256

    assert first is default_group() is GROUP_256 is package_256
    assert first is repro.crypto.group.GROUP_256 is repro.crypto.GROUP_256
    print(len(groups()))

    from repro.crypto import GROUP_512 as package_512
    from repro.crypto.group import GROUP_512

    assert GROUP_512 is package_512
    assert GROUP_512 is repro.crypto.group.GROUP_512 is repro.crypto.GROUP_512
    print(len(groups()))
    """
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(SRC), env.get("PYTHONPATH", "")] if p
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return [int(line) for line in result.stdout.split()]


def test_discovery_builds_no_group_and_each_group_is_one_instance():
    after_discover, after_default, after_512 = run_probe()
    assert after_discover == 0
    assert after_default == 1
    assert after_512 == 2


def test_unknown_names_still_raise_attribute_error():
    import repro.crypto
    import repro.crypto.group

    for module in (repro.crypto, repro.crypto.group):
        assert not hasattr(module, "GROUP_1024")
        assert hasattr(module, "GROUP_768")
