"""Start-up builds no Schnorr group and no X25519 table.

Each fixed Schnorr group proves its p and q prime when it is built, and
an X25519 fixed-base table takes ~5 ms, so building either at import
would tax every process.  Each probe runs in a fresh interpreter,
because this test process may already hold groups and tables.
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

#: X25519 tables after start-up, then the peer (u != 9) tables after
#: an ``odoh`` run at its default 3 queries and after one at 40.
X25519_PROBE = textwrap.dedent(
    """
    import importlib

    from repro.scenario import discover, run_scenario

    discover()
    import repro.crypto

    x25519 = importlib.import_module("repro.crypto.x25519")
    print(len(x25519._tables))

    def peers():
        return [u for u in x25519._tables if u != 9]

    run_scenario("odoh")
    print(len(peers()))
    run = run_scenario("odoh", queries=40)
    target = int.from_bytes(run.client.target.public_key, "little")
    print(len(peers()), int(peers() == [target]))
    """
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_probe(probe=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(SRC), env.get("PYTHONPATH", "")] if p
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
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


def test_start_up_builds_no_x25519_table_and_odoh_one_for_its_target():
    after_start_up, after_default_odoh, after_40_queries, is_target = run_probe(
        X25519_PROBE
    )
    assert after_start_up == 0
    assert after_default_odoh == 0
    assert after_40_queries == 1
    assert is_target == 1


def test_unknown_names_still_raise_attribute_error():
    import repro.crypto
    import repro.crypto.group

    for module in (repro.crypto, repro.crypto.group):
        assert not hasattr(module, "GROUP_1024")
        assert hasattr(module, "GROUP_768")
