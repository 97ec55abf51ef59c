"""tweetsent benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload full_csv --seed 42 --seconds 25 --trace 0

Run from anywhere; it works in the checkout that holds it and builds
nothing (tweetsent is imported from `src/`). The workload's input is
generated from --seed before any timing and cached under perfbench/.cache.

Runs are a closed loop of concurrency 1: each sample is one `run_pipeline`
(or `cli.main`) call in a fresh child process, started when the previous
one has ended, while the next round of samples still fits in --seconds.
The runner and its children stay on one CPU, and every time is scaled to
reference host speed by calibrations run between the children
(perfbench/hostspeed.py).

--trace 0 reports the end-to-end metrics: median run seconds, records per
second, the highest peak RSS of any sample, set-up seconds (median of
several fresh interpreters importing tweetsent and loading the workload's
lexicons) and the share of child processes that succeeded and passed the
checks.
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of perfbench/tracer.py (medians over traced samples) plus the
tracing overhead.

Every sample is checked: its report digests (manifest.json aside) must
equal perfbench/reference_digests.json for this seed, or, for a seed with no
reference, the digests of this seed's other runs; the record accounting
`parsed == final + skipped + sum(filtered)` must hold; on full_csv the bot
filter must remove exactly the records the generator planted.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when every sample passed, 1 when one failed, and
2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path("perfbench")
REFERENCE = BENCH / "reference_digests.json"
SETUP_REPEATS = 9
MIN_SAMPLES = 3
MAX_LOOP_SECONDS = 90  # stop sampling here even below MIN_SAMPLES
CHILD_TIMEOUT = 120


def run_child(mode: str, spec: dict) -> tuple[dict | None, str]:
    """Run perfbench/child.py in a fresh interpreter; (result, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out after {CHILD_TIMEOUT} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"{mode} child exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Sampler:
    """Runs children one at a time, each between two calibrations of the
    host's speed (hostspeed.py), and scales the child's times by their mean:
    `scaled_s` is `wall_s` at reference host speed, and so are the per-layer
    seconds of a traced child. The calibration after one child is the one
    before the next."""

    def __init__(self) -> None:
        hostspeed.pin_to_one_cpu()
        self.calibrate = hostspeed.Calibrator()
        self.calibrate()  # warm-up
        self.last = self.calibrate()

    def run(self, mode: str, spec: dict) -> tuple[dict | None, str]:
        result, error = run_child(mode, spec)
        cal = self.calibrate()
        if result is not None:
            result["cal_s"] = (self.last + cal) / 2
            scale = hostspeed.CAL_REF_S / result["cal_s"]
            result["scaled_s"] = result["wall_s"] * scale
            if "layers" in result:
                result["layers"] = {k: v * scale if k.endswith("_s") else v for k, v in result["layers"].items()}
        self.last = cal
        return result, error


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Checker:
    """Correctness verdict for every sample of one workload and seed."""

    def __init__(self, workload, seed: int, ledger: dict, generator: str) -> None:
        self.workload = workload
        self.ledger = ledger
        self.saved = BENCH / ".cache" / "digests" / f"{generator}-{workload.name}-s{seed}.json"
        reference = json.loads(REFERENCE.read_text("utf-8")) if REFERENCE.exists() else {}
        recorded = None
        if reference.get("generator") == generator:
            recorded = reference["digests"].get(workload.name, {}).get(str(seed))
        if recorded is not None:
            self.expected, self.basis = recorded, "reference digests"
        elif self.saved.exists():
            self.expected, self.basis = json.loads(self.saved.read_text("utf-8")), "an earlier run of this seed"
        else:
            self.expected, self.basis = None, "the first run of this seed (no reference recorded)"
        self.problems: list[str] = []
        self.failed = 0  # child runs with at least one problem

    def check(self, sample: dict) -> list[str]:
        problems = []
        if sample["exit"] != 0:
            problems.append(f"exit code {sample['exit']}")
        if self.expected is None:
            self.expected = sample["digests"]
        elif sample["digests"] != self.expected:
            names = sorted(
                name
                for name in set(sample["digests"]) | set(self.expected)
                if sample["digests"].get(name) != self.expected.get(name)
            )
            problems.append(f"digests differ from {self.basis}: {', '.join(names)}")
        n = self.ledger["n"]
        if self.workload.cli:
            if sample["records_out"] != n:
                problems.append(f"{sample['records_out']} rows scored, expected {n}")
        else:
            prov = sample["provenance"]
            accounted = sample["records_final"] + prov["skipped"] + sum(prov["filtered"].values())
            if prov["parsed"] != n or accounted != n:
                problems.append(f"record accounting: parsed {prov['parsed']}, accounted {accounted}, input {n}")
            if self.workload.planted:
                planted = self.ledger["counts"]
                expected = {
                    "duplicate": planted["duplicates"],
                    "burst": planted["burst_records"],
                    "low_token": planted["low_token"],
                }
                got = {rule: prov["filtered"].get(rule) for rule in expected}
                if got != expected:
                    problems.append(f"bot filter removed {got}, generator planted {expected}")
        self.problems += problems
        self.failed += bool(problems)
        return problems

    def fail(self, error: str) -> None:
        self.problems.append(error)
        self.failed += 1

    def remember(self) -> None:
        """Keep a clean first run's digests so later runs of the seed compare to them."""
        if self.basis.startswith("the first run") and not self.problems and self.expected:
            self.saved.parent.mkdir(parents=True, exist_ok=True)
            self.saved.write_text(json.dumps(self.expected, indent=1, sort_keys=True), "utf-8")


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} cpu={model}"


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "no percentile has 10 samples beyond it"


def sample_loop(
    sampler: Sampler, seconds: float, specs: list[dict], checker: Checker
) -> tuple[list[tuple[dict, dict]], int]:
    """Closed loop over rounds of `specs` while the next round still fits in
    `seconds` (at least MIN_SAMPLES runs); returns (spec, result) for every
    sample that passed its checks, and the number of runs."""
    passed = []
    runs = rounds = 0
    start = time.monotonic()
    while True:
        for spec in specs:
            result, error = sampler.run("run", dict(spec, out=str(fresh_dir(Path(spec["out"])))))
            runs += 1
            if result is None:
                checker.fail(error)
            elif not checker.check(result):
                passed.append((spec, result))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed >= MAX_LOOP_SECONDS or (runs >= MIN_SAMPLES and elapsed * (rounds + 1) / rounds > seconds):
            return passed, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "tweetsent" / "__init__.py").is_file():
        print(f"error: no tweetsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed

    workloads.ensure_inputs(workload, seed)
    ledger = json.loads(workloads.ledger_path(seed).read_text("utf-8"))
    checker = Checker(workload, seed, ledger, workloads.generator_key())
    out = BENCH / ".cache" / "out" / workload.name
    base = {"workload": workload.name, "seed": seed, "out": str(out), "trace": False}

    print(f"machine: {machine()}")
    print(f"workload: {workload.name} ({workload.why})")
    print(f"input: {workloads.input_path(workload, seed)}, {ledger['n']} records, seed {seed}")
    print(f"checking outputs against {checker.basis}")

    metrics: dict[str, tuple[float, str]] = {}
    attempted = 0
    sampler = Sampler()
    if args.trace:
        spans_file = BENCH / ".cache" / "trace" / f"{workload.name}-s{seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        traced = dict(base, trace=True, spans=str(spans_file))
        passed, attempted = sample_loop(sampler, args.seconds, [base, traced], checker)
        plain = [r["scaled_s"] for s, r in passed if not s["trace"]]
        layered = [r for s, r in passed if s["trace"]]
        if plain and layered:
            for name, unit in tracer.PER_LAYER:
                if name == "trace.overhead":
                    value = statistics.median(r["scaled_s"] for r in layered) / statistics.median(plain) - 1
                elif name == "run.wall_s":
                    value = statistics.median(r["wall_s"] for s, r in passed if not s["trace"])
                elif name == "host.calibration_s":
                    value = statistics.median(r["cal_s"] for _, r in passed)
                elif name == "pipeline.output_bytes":
                    value = statistics.median(r["output_bytes"] for r in layered)
                else:
                    value = statistics.median(r["layers"][name] for r in layered)
                metrics[name] = (value, unit)
            unmeasured = sorted({u for r in layered for u in r["unmeasured"]})
            print(f"traced samples: {len(layered)}, untraced: {len(plain)}; spans in {spans_file}")
            print(f"layers unmeasured: {', '.join(unmeasured) if unmeasured else 'none'}")
    else:
        setups, setup_walls = [], []
        for i in range(SETUP_REPEATS + 1):  # the first one warms the bytecode cache
            result, error = sampler.run("setup", base)
            attempted += 1
            if result is None:
                checker.fail(error)
            elif i:
                setups.append(result["scaled_s"])
                setup_walls.append(result["wall_s"])
        passed, runs = sample_loop(sampler, args.seconds, [base], checker)
        attempted += runs
        if passed and setups:
            run_s = [r["scaled_s"] for _, r in passed]
            print(f"run_s: median of {len(run_s)} samples, {percentile_note(run_s)}")
            print(
                f"unscaled: run wall {statistics.median(r['wall_s'] for _, r in passed):.4f} s, "
                f"set-up wall {statistics.median(setup_walls):.4f} s, calibration "
                f"{statistics.median(r['cal_s'] for _, r in passed):.4f} s (reference {hostspeed.CAL_REF_S} s)"
            )
            metrics["run_s"] = (statistics.median(run_s), "s")
            metrics["records_per_s"] = (statistics.median(ledger["n"] / t for t in run_s), "1/s")
            metrics["peak_rss_mb"] = (max(r["maxrss_mb"] for _, r in passed), "MB")
            metrics["setup_s"] = (statistics.median(setups), "s")
    failed = checker.failed
    if not args.trace:
        metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")

    correct = not checker.problems and bool(metrics)
    checker.remember()
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    for problem in checker.problems:
        print(f"FAILED: {problem}")
    print(f"correct: {'yes' if correct else 'no'} ({attempted - failed}/{attempted} child runs passed)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
