"""T-series scale benchmark: streaming analysis at population scale.

Unlike the pytest-benchmark families, this is a plain script: the
headline point ingests ten million observations from a million-user
population, which is not something to repeat five times for timing
stability.  Each point runs ``harness.scale_point`` -- the sharded
spilling ledger, the population engine, and mid-run verdict
checkpoints verified byte-for-byte against a fresh full-scan analyzer
-- and the script enforces the two acceptance gates from
``docs/SCALE.md``:

* every mid-run checkpoint answer matches the post-hoc full scan, and
* peak RSS stays under the stated bound (default 4 GiB).

The CI-sized default keeps wall clock in seconds.  The committed
artifact is produced with::

    PYTHONPATH=src python benchmarks/bench_scale.py \\
        --users 1000000 --out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from repro import harness

#: The docs/SCALE.md peak-RSS bound for the 1M-user headline point, in
#: MiB.  Keep in sync with the "Memory bound" section there.
RSS_BOUND_MB = 4096.0


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--users",
        default="10000",
        metavar="N[,N...]",
        help="population sizes to benchmark (comma-separated)",
    )
    parser.add_argument(
        "--observations",
        type=int,
        default=None,
        metavar="N",
        help="ledger rows per point (default: 10 per user)",
    )
    parser.add_argument(
        "--segment-rows", type=int, default=65_536, metavar="N",
        help="rows per ledger segment before sealing",
    )
    parser.add_argument(
        "--checkpoints", type=int, default=8, metavar="N",
        help="mid-run verdict checkpoints per point",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--rss-bound-mb", type=float, default=RSS_BOUND_MB, metavar="MB",
        help="fail if peak RSS exceeds this bound",
    )
    parser.add_argument(
        "--no-spill", action="store_true",
        help="keep sealed segments resident (measures the unspilled ceiling)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON artifact to PATH",
    )
    args = parser.parse_args(argv)

    user_counts = [int(n) for n in args.users.split(",") if n.strip()]
    points = []
    failures = []
    for users in user_counts:
        point = harness.scale_point(
            users,
            args.observations,
            seed=args.seed,
            segment_rows=args.segment_rows,
            spill=not args.no_spill,
            checkpoints=args.checkpoints,
        )
        points.append(point)
        print(
            f"{point.users:>9} users  {point.observations:>10} obs  "
            f"{point.observations_per_second:>9.0f} ingest obs/s  "
            f"ingest {point.ingest_seconds:8.2f}s  "
            f"rss {point.peak_rss_mb:8.1f} MiB  "
            f"segments {point.segments} "
            f"({point.segments_spilled} spilled, "
            f"{point.resident_rows} rows resident)  "
            f"mid-run {'ok' if point.mid_run_matches else 'MISMATCH'}"
        )
        if not point.mid_run_matches:
            failures.append(
                f"{users} users: a mid-run checkpoint diverged from the"
                " full-scan verdict"
            )
        if point.peak_rss_mb > args.rss_bound_mb:
            failures.append(
                f"{users} users: peak RSS {point.peak_rss_mb:.1f} MiB exceeds"
                f" the {args.rss_bound_mb:.0f} MiB bound"
            )

    document = {
        "series": "T",
        "title": (
            "ledger ingest: streaming ledger + population engine scale points"
        ),
        "rss_bound_mb": args.rss_bound_mb,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "points": [point.to_dict() for point in points],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, ensure_ascii=False, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
