"""A finished run holds no packet, record or observation objects.

What a run must keep is its ledger (who observed which labeled value)
and its traffic traces (wire metadata only).  Neither needs a
:class:`~repro.net.packets.Packet` -- which carries its payload -- nor a
:class:`~repro.net.trace.PacketRecord` per delivery, nor an
:class:`~repro.core.ledger.Observation` per ledger row: traces and the
ledger keep typed columns and build a record or an observation only
when one is read.

Each run is censused in a fresh interpreter, so that packets other
tests leave alive cannot mask or fake a retained one.  The run object
stays referenced while the census runs, as it does for any caller that
goes on to analyse it.
"""

import functools
import json
import subprocess
import sys

import pytest

from test_goldens import LOSSY_PLAN, REPO, _env

#: Run one scenario, keep the run, collect, and count what survives.
_CENSUS = """
import gc, json, sys
from repro.core.ledger import Observation
from repro.net.packets import Packet
from repro.net.trace import PacketRecord
from repro.scenario import run_scenario

spec_id, params = json.loads(sys.argv[1])
run = run_scenario(spec_id, **params)
gc.collect()
kinds = (Packet, PacketRecord)
objects = gc.get_objects()
print(json.dumps({
    "live": sum(1 for obj in objects if type(obj) in kinds),
    "observations": sum(1 for obj in objects if type(obj) is Observation),
    "deliveries": run.network.messages_delivered,
    "rows": len(run.world.ledger),
}))
"""

CASES = {
    "odns": ("odns", {"queries": 30}),
    "odoh": ("odoh", {}),
    # ``doh`` taps the client's access network with a WireObserver,
    # whose own trace must not keep records either.
    "doh": ("doh", {}),
    "mixnet-lossy": (
        "mixnet",
        {
            "senders": 40,
            "batch_size": 4,
            "faults": json.loads((REPO / LOSSY_PLAN).read_text(encoding="utf-8")),
        },
    ),
}


@functools.lru_cache(maxsize=None)
def census(case):
    spec_id, params = CASES[case]
    result = subprocess.run(
        [sys.executable, "-c", _CENSUS, json.dumps([spec_id, params])],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_finished_run_keeps_no_packet_or_record(case):
    counts = census(case)
    assert counts["deliveries"] > 0
    assert counts["live"] == 0, counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_finished_run_keeps_no_observation(case):
    counts = census(case)
    assert counts["rows"] > 0
    assert counts["observations"] == 0, counts
