#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Writes into tests/data/:
  corpus_1000.csv        seed-42 synthetic corpus (1,000 records)
  ledger_1000.json       its planting ledger
  abusive_fixture.txt    the 50-word stand-in abusive lexicon
  golden_manifest.sha256 sha256 of the manifest from the pinned reference run

The reference run executes inside a scratch directory with relative paths
only, so the manifest bytes are machine-independent. Re-run this script
whenever pipeline outputs intentionally change, and commit the results.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "tests" / "data"

sys.path.insert(0, str(REPO / "src"))

from tweetsent.pipeline import RunConfig, run_pipeline  # noqa: E402
from tweetsent.synth import ABUSIVE_POOL, write_synthetic_corpus  # noqa: E402

GOLDEN_CONFIG = dict(
    input="corpus_1000.csv",
    format="csv",
    start_date="2020-04-30",
    end_date="2020-05-08",
    keyword="reopen",
    country="US",
    abusive_lexicon_path="abusive_fixture.txt",
    output_dir="out",
)


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write_synthetic_corpus(
        DATA / "corpus_1000.csv", seed=42, n=1000, format="csv",
        ledger_path=DATA / "ledger_1000.json",
    )
    (DATA / "abusive_fixture.txt").write_text("\n".join(ABUSIVE_POOL) + "\n", "utf-8")

    scratch = Path(tempfile.mkdtemp(prefix="golden_run_"))
    old_cwd = os.getcwd()
    try:
        shutil.copy(DATA / "corpus_1000.csv", scratch / "corpus_1000.csv")
        shutil.copy(DATA / "abusive_fixture.txt", scratch / "abusive_fixture.txt")
        os.chdir(scratch)
        run_pipeline(RunConfig(**GOLDEN_CONFIG))
        digest = hashlib.sha256((scratch / "out" / "manifest.json").read_bytes()).hexdigest()
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    (DATA / "golden_manifest.sha256").write_text(digest + "\n", "utf-8")
    print(f"golden manifest sha256: {digest}")


if __name__ == "__main__":
    main()
