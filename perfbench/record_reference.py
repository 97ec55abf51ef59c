"""Record the reference report digests that perfbench/run.py checks against.

    python3 perfbench/record_reference.py --seeds 1-24,42

Run it only on a commit whose outputs are known good: it writes
perfbench/reference_digests.json from one untraced run per workload and seed,
after the run passes the record-accounting and planted-truth checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-24,42")
    args = parser.parse_args()

    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    generator = workloads.generator_key()
    digests: dict[str, dict[str, dict]] = {name: {} for name in workloads.WORKLOADS}
    for seed in parse_seeds(args.seeds):
        for workload in workloads.WORKLOADS.values():
            workloads.ensure_inputs(workload, seed)
            ledger = json.loads(workloads.ledger_path(seed).read_text("utf-8"))
            out = run.fresh_dir(run.BENCH / ".cache" / "out" / workload.name)
            spec = {"workload": workload.name, "seed": seed, "out": str(out), "trace": False}
            result, error = run.run_child("run", spec)
            checker = run.Checker(workload, seed, ledger, generator="none")
            if result is None or checker.check(result):
                print(f"seed {seed} {workload.name}: {error or checker.problems}", file=sys.stderr)
                return 1
            digests[workload.name][str(seed)] = result["digests"]
            print(f"seed {seed} {workload.name}: {len(result['digests'])} files", flush=True)

    Path(run.REFERENCE).write_text(
        json.dumps({"generator": generator, "digests": digests}, indent=1, sort_keys=True) + "\n",
        "utf-8",
    )
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
