#!/usr/bin/env python3
"""Compare two checkouts of tweetsent with their own benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload narrow_jsonl \\
        --pairs 10 --seed 21 --seconds 25 [--trace 0] [--out BENCH.json]

Each pair runs `perfbench/run.py` once in each checkout, one after the
other: odd pairs run the parent first, even pairs the change. Every run
uses the benchmark code of its own checkout and the same settings. The last
JSON line that a run prints is kept as its `result`. Before each run, every
`__pycache__` under the checkout's `src/` is deleted, so each run's
`setup_s` includes compiling the program, whatever earlier runs left behind
(bytecode left by one can make another read about 2.4 times lower). The
standard library keeps its own bytecode: an empty `PYTHONPYCACHEPREFIX`
would redirect that too, and where `PYTHONDONTWRITEBYTECODE` is set, every
run would then time compiling standard-library modules.

The results go into --out (default BENCH_pairs.json), merged with what the
file already holds: --trace 0 runs replace the workload's earlier entries in
`runs`, --trace 1 runs those in `traced_runs`, and `summary` (or
`traced_summary`) gets one entry for the workload, from these runs. Each
metric's entry has both sides' medians, the parent's interquartile range
and the number of pairs in which the change read better (`change_lower_pairs` or `change_higher_pairs`, from the metric's
`better` in the change's BENCHMARK.json; ties count for neither side).
It also states the two acceptance verdicts:

- `gain_shown`: the change won at least 9 of every 10 pairs, and its median
  is better than the parent's by more than the parent's interquartile range.
  Only then may a gain in the metric be claimed.
- `within_bound` (end-to-end metrics only): the change's median is no worse
  than the parent's by more than the metric's `bound` in BENCHMARK.json,
  taken as a fraction of the parent's median. A false one is a regression.

Keys the script does not write are kept, so a note added to the file
survives a later run.

The exit code is 0 when every run finished, passed its checks and
checked its outputs against the reference digests, 1 otherwise; the file is
written either way. A seed without recorded digests would be checked only
against an earlier run of itself, which is not enough: when either
checkout's `perfbench/reference_digests.json` records no digests for
--workload at --seed, the script exits 1 before the first run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

CHECKED = "checking outputs against "
REFERENCE = "reference digests"


def run_side(checkout: Path, argv: list[str]) -> tuple[dict | None, str, str]:
    """(result, what the outputs were checked against, machine) of one
    perfbench run in `checkout`; the result is None when the run printed none."""
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=checkout, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    checked = next((line for line in lines if line.startswith(CHECKED)), "")
    machine = next((line for line in lines if line.startswith("machine: ")), "").removeprefix("machine: ")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}", file=sys.stderr)
        return None, checked, machine
    return result, checked, machine


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: medians, the parent's interquartile range (inclusive
    quartiles), the pairs in which the change read better, and the verdicts
    `gain_shown` and, for a metric with a bound in `bounds`, `within_bound`.
    `runs` holds both sides' entries of one workload; a pair counts only when
    both of its runs gave the metric."""
    by_pair: dict[int, dict[str, dict]] = {}
    for entry in runs:
        if entry["result"] is not None:
            by_pair.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]["metrics"]
    names = [name for sides in by_pair.values() for side in sides.values() for name in side]
    summary = {}
    for name in dict.fromkeys(names):
        pairs = [
            (sides["parent"][name]["value"], sides["change"][name]["value"])
            for sides in by_pair.values()
            if name in sides.get("parent", {}) and name in sides.get("change", {})
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        q1, _, q3 = (parent[0],) * 3 if len(parent) < 2 else statistics.quantiles(parent, n=4, method="inclusive")
        direction = better.get(name, "lower")
        won = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gain = parent_median - change_median if direction == "lower" else change_median - parent_median
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": q3 - q1,
            "pairs": len(pairs),
            f"change_{direction}_pairs": won,
            "gain_shown": 10 * won >= 9 * len(pairs) and gain > q3 - q1,
        }
        if name in bounds:
            summary[name]["within_bound"] = -gain <= bounds[name] * abs(parent_median)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
        reference = checkout / "perfbench" / "reference_digests.json"
        recorded = json.loads(reference.read_text("utf-8"))["digests"] if reference.is_file() else {}
        if str(args.seed) not in recorded.get(args.workload, {}):
            print(f"{checkout}: perfbench/reference_digests.json records no {args.workload} digests "
                  f"at seed {args.seed}, so no run could be checked against them", file=sys.stderr)
            return 1

    spec = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    command = " ".join(["python3", "perfbench/run.py", *bench_argv])

    runs = []
    checked = {"parent": set(), "change": set()}
    machine = ""
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result, against, machine = run_side(getattr(args, side), bench_argv)
            checked[side].add(against)
            run_s = result["metrics"].get("run_s", {}).get("value") if result else None
            print(f"pair {pair} {side}: run_s {run_s}", file=sys.stderr)
            runs.append({"side": side, "workload": args.workload, "pair": pair, "seed": args.seed,
                         "command": command, "result": result})

    all_correct = all(r["result"] is not None and r["result"]["correct"] for r in runs)
    entry = summarize(runs, better, bounds)
    entry["all_correct"] = all_correct
    for side in ("parent", "change"):
        entry[f"{side}_checked_against"] = sorted(checked[side])

    record = json.loads(args.out.read_text("utf-8")) if args.out.exists() else {}
    record.setdefault("description", (
        "perfbench runs of the parent commit and of a change, each in its own checkout, in "
        "alternating pairs (odd pairs run the parent first), made with scripts/bench_pairs.py; "
        "each entry's `result` is the last JSON line that perfbench/run.py printed"
    ))
    record["machine"] = machine
    key = "traced_" if args.trace else ""
    record.setdefault(f"{key}summary", {})[args.workload] = entry
    kept = [r for r in record.get(f"{key}runs", []) if r["workload"] != args.workload]
    record[f"{key}runs"] = kept + runs
    args.out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps({name: entry[name] for name in ("run_s", "records_per_s") if name in entry}, indent=1))
    unchecked = [(side, line) for side in checked for line in sorted(checked[side])
                 if line != CHECKED + REFERENCE]
    for side, line in unchecked:
        basis = line.removeprefix(CHECKED) or "(none printed)"
        print(f"{side}: outputs checked against {basis}, not {REFERENCE}", file=sys.stderr)
    return 0 if all_correct and not unchecked else 1


if __name__ == "__main__":
    sys.exit(main())
