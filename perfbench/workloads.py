"""Benchmark workloads: what each one runs, and its seeded, cached inputs.

Every workload starts from the program's own synthetic generator
(`tweetsent.synth`) at RECORDS records. The generated files are cached under
`perfbench/.cache/s<seed>/`, keyed by the generator, so generation is paid
once per seed and is counted in no metric. Input paths are relative to the
checkout root: `provenance.json` echoes the input path, and relative paths
keep its bytes the same in every checkout.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

RECORDS = 10_000  # small enough for about ten full_csv samples in a 25 s run
VIRAL_TEXTS = 500
# bump when the way inputs are derived from the generator's output changes
DERIVATION_VERSION = "1"
CACHE = Path("perfbench") / ".cache"
KEEP_SEEDS = 6  # generated corpora kept in the cache; digests are kept for all seeds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "full.csv", "full.jsonl" or "repeat.csv"
    abusive: bool  # use the 50-word ABUSIVE_POOL lexicon; otherwise the bundled empty one
    cli: bool = False  # run `tweetsent sentiment` through cli.main instead of run_pipeline
    planted: bool = False  # bot-filter counts must equal the generator's ledger
    start_date: str | None = None
    end_date: str | None = None

    @property
    def format(self) -> str:
        return "jsonl" if self.corpus.endswith(".jsonl") else "csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full_csv",
            "reference run: CSV, default 9-day window, reopen/US, 50-word abusive lexicon; "
            "about 70 % of records reach the analysis layers, which dominate",
            "full.csv",
            abusive=True,
            planted=True,
        ),
        Workload(
            "narrow_jsonl",
            "same corpus as JSONL with a one-day window and the empty bundled abusive lexicon; "
            "about 8 % survive, so ingest and the filters dominate",
            "full.jsonl",
            abusive=False,
            start_date="2020-05-02",
            end_date="2020-05-02",
        ),
        Workload(
            "repeat_csv",
            "full_csv with half the regular records copying one of 500 viral texts; "
            "shared texts let per-text caching show and lengthen the bot filter's lists",
            "repeat.csv",
            abusive=True,
        ),
        Workload(
            "cli_sentiment",
            "`tweetsent sentiment` over the full_csv file via cli.main; "
            "the second user path, which skips filters, bots and n-grams",
            "full.csv",
            abusive=True,
            cli=True,
        ),
    )
}


def seed_dir(seed: int) -> Path:
    return CACHE / f"s{seed}"


def input_path(workload: Workload, seed: int) -> Path:
    return seed_dir(seed) / workload.corpus


def abusive_path(workload: Workload, seed: int) -> Path | None:
    return seed_dir(seed) / "abusive.txt" if workload.abusive else None


def ledger_path(seed: int) -> Path:
    return seed_dir(seed) / "ledger.json"


def generator_key() -> str:
    """Identifies the generated inputs: the generator's source, RECORDS and
    DERIVATION_VERSION. Reference digests are only valid for this key."""
    from tweetsent import synth

    digest = hashlib.sha256(Path(synth.__file__).read_bytes())
    digest.update(f"|{RECORDS}|{DERIVATION_VERSION}".encode())
    return digest.hexdigest()[:16]


def _atomic(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _write_repeat(full_csv: Path, ledger: dict, seed: int, out: Path) -> None:
    """Half the regular records take the text, hashtags and mentions of one of
    VIRAL_TEXTS keyword-bearing regular records; ids, users and times stay."""
    planted = set(ledger["duplicate_ids"]) | set(ledger["burst_ids"]) | set(ledger["low_token_ids"])
    with open(full_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    regular = [row for row in body if row[col["status_id"]] not in planted]
    rng = random.Random(f"repeat:{seed}")
    keyword_rows = [row for row in regular if "reopen" in row[col["text"]].casefold()]
    viral = [
        (row[col["text"]], row[col["hashtags"]], row[col["mentions"]])
        for row in rng.sample(keyword_rows, min(VIRAL_TEXTS, len(keyword_rows)))
    ]
    for row in rng.sample(regular, len(regular) // 2):
        row[col["text"]], row[col["hashtags"]], row[col["mentions"]] = rng.choice(viral)

    def write(path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + body)

    _atomic(out, write)


def ensure_inputs(workload: Workload, seed: int) -> None:
    """Generate (or reuse) the files `workload` reads for `seed`."""
    from tweetsent import synth

    directory = seed_dir(seed)
    key_file = directory / "generator.key"
    key = generator_key()
    if not key_file.exists() or key_file.read_text("utf-8") != key:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        key_file.write_text(key, "utf-8")
    _prune(keep=directory)

    full_csv = directory / "full.csv"
    if not full_csv.exists() or not ledger_path(seed).exists():
        tmp_ledger = directory / "ledger.json.tmp"
        _atomic(
            full_csv,
            lambda p: synth.write_synthetic_corpus(p, seed, RECORDS, "csv", ledger_path=tmp_ledger),
        )
        os.replace(tmp_ledger, ledger_path(seed))
    abusive = directory / "abusive.txt"
    if not abusive.exists():
        _atomic(abusive, lambda p: p.write_text("\n".join(synth.ABUSIVE_POOL) + "\n", "utf-8"))

    target = input_path(workload, seed)
    if target.exists():
        return
    if workload.corpus == "full.jsonl":
        _atomic(target, lambda p: synth.write_synthetic_corpus(p, seed, RECORDS, "jsonl"))
    elif workload.corpus == "repeat.csv":
        ledger = json.loads(ledger_path(seed).read_text("utf-8"))
        _write_repeat(full_csv, ledger, seed, target)
    else:
        raise ValueError(f"no generator for {workload.corpus}")


def _prune(keep: Path) -> None:
    """Drop the least recently used seed directories beyond KEEP_SEEDS."""
    os.utime(keep)
    dirs = sorted(
        (d for d in CACHE.glob("s*") if d.is_dir()),
        key=lambda d: d.stat().st_mtime,
        reverse=True,
    )
    for stale in dirs[KEEP_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)
