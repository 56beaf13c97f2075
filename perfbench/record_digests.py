"""Record campaign 0's digest per workload and seed into ``digests.json``.

Run from the root of a checkout, after a change that is meant to alter
fuzzing outcomes (never to make a failing outcome check pass)::

    python3 perfbench/record_digests.py --seeds 0-29
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    digests = {
        workload: {
            str(seed): run._worker({
                "workload": workload, "seed": seed, "mode": "campaign", "k": 0,
            })[0]["digest"]
            for seed in range(first, last + 1)
        }
        for workload in workloads.WORKLOADS
    }
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
