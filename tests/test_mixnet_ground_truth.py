"""Committed goldens: the mix-net's egress -> ingress ground truth.

``MixnetRun.ground_truth()`` is the answer key the D3 sweep and the
traffic-analysis tests score a passive correlator against.
``tests/golden/mixnet_ground_truth.json`` maps each case to its
``ground_truth()`` items, in the dict's own order, so both the pairs
and their send order are pinned.

The two faulted cases are the ones that tell implementations apart:
duplicated packets make a message reach the receiver on more than one
egress packet, and ``ground_truth()`` keeps the last of them.

Packet ids are issued per network, so the cases run in this process.

Regenerate only for an intended change to the mix-net's routing, and
say so in CHANGES.md::

    PYTHONPATH=src python tests/test_mixnet_ground_truth.py --regenerate
"""

import json
import sys

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.scenario import run_scenario
from test_goldens import LOSSY_PLAN, REPO

GOLDEN = REPO / "tests" / "golden" / "mixnet_ground_truth.json"

#: ``perfbench``'s ``mixnet-lossy`` fault plan at its default seed.
PERFBENCH_LOSSY = FaultPlan(
    seed=7,
    links=(
        LinkFault(src="sender-[1-9]*", loss=0.05),
        LinkFault(duplicate=0.02, reorder=0.05, jitter=0.002),
    ),
)
#: Loss, duplication, reordering and jitter on every link.
EVERY_IMPAIRMENT = json.loads((REPO / LOSSY_PLAN).read_text(encoding="utf-8"))

#: Case name -> ``run_scenario("mixnet", ...)`` parameters.
CASES = {
    "cascade": {},
    "two-mixes-batch-2": {"mixes": 2, "senders": 8, "batch_size": 2},
    "free-route-pool-6": {"mix_pool": 6},
    "chaff-2": {"chaff_per_flush": 2},
    "unbatched": {"batch_size": 1},
    "lossy-200": {
        "senders": 200, "batch_size": 10, "seed": 7, "faults": PERFBENCH_LOSSY
    },
    "every-impairment": {"senders": 40, "batch_size": 4, "faults": EVERY_IMPAIRMENT},
}


def ground_truth(case):
    """``case``'s ground truth as ``[[egress_id, ingress_id], ...]``."""
    run = run_scenario("mixnet", **CASES[case])
    return [[egress, ingress] for egress, ingress in run.ground_truth().items()]


@pytest.mark.parametrize("case", sorted(CASES))
def test_ground_truth_golden(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert ground_truth(case) == golden[case]


def main(argv):
    if argv != ["--regenerate"]:
        sys.exit("usage: test_mixnet_ground_truth.py --regenerate")
    rows = [
        f" {json.dumps(case)}: {json.dumps(ground_truth(case))}"
        for case in sorted(CASES)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(REPO)}: {len(rows)} cases")


if __name__ == "__main__":
    main(sys.argv[1:])
