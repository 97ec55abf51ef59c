#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Generates a 2,000-record corpus, runs the full pipeline, and prints the
highlights: top words and bigrams, the positive/negative/neutral split,
dominant emotion classes, score extremes, and the scenario outcomes for
both reopening timings.

Usage: python scripts/demo_run.py [workdir]
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tweetsent.errors import TiedTrendError  # noqa: E402
from tweetsent.pipeline import RunConfig, run_pipeline  # noqa: E402
from tweetsent.scenario import classify_scenario, trend_from_report  # noqa: E402
from tweetsent.synth import ABUSIVE_POOL, write_synthetic_corpus  # noqa: E402


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)

    write_synthetic_corpus("corpus.csv", seed=42, n=2000, format="csv", ledger_path="ledger.json")
    Path("abusive.txt").write_text("\n".join(ABUSIVE_POOL) + "\n", "utf-8")

    manifest = run_pipeline(
        RunConfig(input="corpus.csv", abusive_lexicon_path="abusive.txt", output_dir="out")
    )
    prov = manifest.stages["provenance"]
    print(f"records: parsed={prov['parsed']} final={manifest.stages['records_final']}")
    print(f"filtered: {prov['filtered']}")
    print(f"masked: {manifest.stages['mask']}")

    cloud = json.loads(Path("out/wordcloud.json").read_text())
    print("\ntop words:", ", ".join(f"{e['word']} ({e['weight']:.2f})" for e in cloud[:8]))

    bigrams = Path("out/ngrams_2.csv").read_text().splitlines()[1:6]
    print("top bigrams:")
    for line in bigrams:
        rank, gram, count = line.split(",")
        print(f"  {rank}. {gram} ({count})")

    dist = json.loads(Path("out/distribution.json").read_text())
    print(
        f"\nshares: positive={dist['positive_share']:.4f} "
        f"negative={dist['negative_share']:.4f} neutral={dist['neutral_share']:.4f}"
    )
    print(f"extremes: min={dist['extremes']['min']:.3f} max={dist['extremes']['max']:.3f}")

    try:
        trend = trend_from_report(dist)
    except TiedTrendError:
        print("trend: exact tie, no scenario")
        return
    print(f"trend: {trend.direction}, dominant emotions: {trend.dominant_emotions}")
    for timing in ("now", "later"):
        outcome = classify_scenario(trend, timing)
        print(f"scenario ({timing}): {outcome['id']} [{outcome['narrative_key']}] {outcome['label']}")


if __name__ == "__main__":
    main()
