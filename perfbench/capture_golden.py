"""Capture the golden digests that ``run.py`` checks every mission against.

    python3 perfbench/capture_golden.py

Run this only on a commit whose outputs are known to be right: it rewrites
``golden.json`` from whatever the current package produces. The universe of
scenario seeds per generated workload is fixed here; ``mission-small`` keeps
only seeds whose mission completes.
"""
from __future__ import annotations

import json
import sys

import workloads as wl

UNIVERSE = {"mission-small": 128, "compare-k9": 24, "ndf-metro": 12}
REQUIRE_COMPLETE = {"mission-small"}


def capture_generated(workload, size: int, complete_only: bool) -> dict:
    golden: dict = {}
    aborted = 0
    seed = 0
    while len(golden) < size:
        item = (str(seed), workload.scenario_text(seed))
        out = workload.fly(item)
        digests = workload.digests(out)
        check = workload.check(item, out, {item[0]: digests})
        if not check.ok:
            raise SystemExit(f"{workload.name} scenario seed {seed}: invariant check failed")
        if not (complete_only and check.aborted):
            golden[item[0]] = digests
            aborted += check.aborted
        seed += 1
    print(f"{workload.name}: {size} scenarios from seeds 0..{seed - 1}, "
          f"{aborted} aborted flights", file=sys.stderr)
    return golden


def capture_cli(workload) -> dict:
    golden = {}
    try:
        for item in workload.setup({}, 0):
            golden[workload.key(item)] = workload.digests(item, workload.fly(item))
    finally:
        workload.close()
    return golden


def main() -> int:
    golden = {}
    for name, workload in wl.WORKLOADS.items():
        if isinstance(workload, wl.CliWorkload):
            golden[name] = capture_cli(workload)
        else:
            golden[name] = capture_generated(workload, UNIVERSE[name],
                                             name in REQUIRE_COMPLETE)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
