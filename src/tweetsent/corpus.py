"""Tweet record schema, CSV/JSONL ingestion, and the corpus filtering chain.

Every filter is a pure function returning a new Corpus; removed-record counts
accumulate in the provenance so that, at any stage,
parsed == len(records) + skipped + sum(filtered-by-stage).
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timezone
from pathlib import Path

from .errors import EmptyCorpusError, InvalidRangeError, SchemaError

CSV_COLUMNS = [
    "status_id",
    "created_at",
    "text",
    "source",
    "location",
    "country_code",
    "hashtags",
    "mentions",
    "user_id",
    "is_retweet",
]

_TRUE_STRINGS = {"true", "t", "1", "yes"}
_FALSE_STRINGS = {"false", "f", "0", "no", ""}


@dataclass(slots=True)
class TweetRecord:
    id: str
    created_at: datetime
    text: str
    source_device: str
    user_location: str | None
    country_code: str | None
    hashtags: list[str]
    mentions: list[str]
    user_id: str
    is_retweet: bool


@dataclass
class Provenance:
    """Stage-by-stage record accounting for one corpus."""

    source: str
    format: str
    parsed: int = 0
    skipped: int = 0
    filtered: dict[str, int] = field(default_factory=dict)

    def record_filter(self, stage: str, removed: int) -> None:
        self.filtered[stage] = self.filtered.get(stage, 0) + removed

    def copy(self) -> Provenance:
        return Provenance(
            source=self.source,
            format=self.format,
            parsed=self.parsed,
            skipped=self.skipped,
            filtered=dict(self.filtered),
        )

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "format": self.format,
            "parsed": self.parsed,
            "skipped": self.skipped,
            "filtered": dict(self.filtered),
        }


@dataclass
class Corpus:
    records: list[TweetRecord]
    provenance: Provenance


@dataclass
class BotPolicy:
    """Heuristic bot/spam removal knobs.

    dup_window_seconds: a record is a duplicate if its normalized text matches
    an earlier record's within this many seconds.
    burst_per_minute: users with more than this many posts inside any 60 s
    span lose all their records.
    min_distinct_tokens: records below this distinct-token count are dropped.
    """

    dup_window_seconds: float = 3600.0
    burst_per_minute: int = 10
    min_distinct_tokens: int = 3


def parse_timestamp(value: str) -> datetime:
    """Strict RFC 3339: offset required, 'Z' accepted; normalized to UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"timestamp not RFC 3339: {value!r}") from exc
    if parsed.tzinfo is None:
        raise SchemaError(f"timestamp lacks UTC offset: {value!r}")
    return parsed.astimezone(timezone.utc)


def _split_tags(value) -> list[str]:
    if value is None:
        return []
    if isinstance(value, list):
        return [str(v) for v in value if str(v)]
    return [part for part in str(value).split("|") if part]


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUE_STRINGS:
        return True
    if text in _FALSE_STRINGS:
        return False
    raise SchemaError(f"not a boolean: {value!r}")


def _build_record(row: dict, seen_ids: set[str]) -> TweetRecord:
    rid = str(row.get("status_id") or "").strip()
    if not rid:
        raise SchemaError("missing status_id")
    if rid in seen_ids:
        raise SchemaError(f"duplicate status_id {rid!r}")
    text = str(row.get("text") or "")
    if not text.strip():
        raise SchemaError("missing text")
    created = parse_timestamp(str(row.get("created_at") or ""))
    location = str(row.get("location") or "").strip() or None
    country = str(row.get("country_code") or "").strip() or None
    return TweetRecord(
        id=rid,
        created_at=created,
        text=text,
        source_device=str(row.get("source") or ""),
        user_location=location,
        country_code=country,
        hashtags=_split_tags(row.get("hashtags")),
        mentions=_split_tags(row.get("mentions")),
        user_id=str(row.get("user_id") or ""),
        is_retweet=_parse_bool(row.get("is_retweet")),
    )


def load_corpus(path, format: str = "csv") -> Corpus:
    """Ingest a CSV (header required) or JSONL corpus file.

    Well-formed rows become TweetRecords; malformed rows are skipped and
    counted in provenance, never silently dropped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if format not in ("csv", "jsonl"):
        raise SchemaError(f"unknown corpus format {format!r}")

    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    parsed = 0
    skipped = 0

    if format == "csv":
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"missing CSV columns: {', '.join(missing)}")
            for row in reader:
                parsed += 1
                try:
                    record = _build_record(row, seen_ids)
                except SchemaError:
                    skipped += 1
                    continue
                seen_ids.add(record.id)
                records.append(record)
    else:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                parsed += 1
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise SchemaError("JSONL line is not an object")
                    record = _build_record(row, seen_ids)
                except (json.JSONDecodeError, SchemaError):
                    skipped += 1
                    continue
                seen_ids.add(record.id)
                records.append(record)

    if not records:
        raise EmptyCorpusError(f"no valid records in {path}")
    provenance = Provenance(source=str(path), format=format, parsed=parsed, skipped=skipped)
    return Corpus(records=records, provenance=provenance)


def _filtered(c: Corpus, stage: str, kept: list[TweetRecord]) -> Corpus:
    provenance = c.provenance.copy()
    provenance.record_filter(stage, len(c.records) - len(kept))
    return Corpus(records=kept, provenance=provenance)


def filter_date_range(c: Corpus, start: date, end: date) -> Corpus:
    """Keep records whose UTC calendar date lies in [start, end], inclusive."""
    if start > end:
        raise InvalidRangeError(f"start {start} after end {end}")
    kept = [r for r in c.records if start <= r.created_at.date() <= end]
    return _filtered(c, "date_range", kept)


def filter_keyword(c: Corpus, keyword: str) -> Corpus:
    """Keep records whose case-folded text contains the case-folded keyword."""
    if not keyword:
        raise ValueError("keyword must be non-empty")
    needle = keyword.casefold()
    kept = [r for r in c.records if needle in r.text.casefold()]
    return _filtered(c, "keyword", kept)


def filter_country(c: Corpus, code: str) -> Corpus:
    """Keep records country-tagged with the given code (case-insensitive).

    Untagged records are dropped: tweets from the target country that were
    never tagged cannot be recovered here.
    """
    wanted = code.upper()
    kept = [
        r
        for r in c.records
        if r.country_code is not None and r.country_code.upper() == wanted
    ]
    return _filtered(c, "country", kept)


def normalize_for_dedup(text: str) -> str:
    return " ".join(text.casefold().split())


def _duplicate_flags(records: list[TweetRecord], keys: list[str], window: float) -> list[bool]:
    # nearest earlier occurrence of the same normalized text decides; earlier
    # means earlier in input order, distance measured on timestamps
    seen: dict[str, list[float]] = {}
    flags = [False] * len(records)
    for i, (record, key) in enumerate(zip(records, keys)):
        ts = record.created_at.timestamp()
        stamps = seen.setdefault(key, [])
        if stamps:
            pos = bisect.bisect_left(stamps, ts)
            for neighbor in stamps[max(0, pos - 1) : pos + 1]:
                if abs(ts - neighbor) <= window:
                    flags[i] = True
                    break
        bisect.insort(stamps, ts)
    return flags


def _burst_users(records: list[TweetRecord], per_minute: int) -> set[str]:
    times: dict[str, list[float]] = {}
    for record in records:
        times.setdefault(record.user_id, []).append(record.created_at.timestamp())
    burst = set()
    for user, stamps in times.items():
        if len(stamps) <= per_minute:
            continue
        stamps.sort()
        for j in range(len(stamps) - per_minute):
            if stamps[j + per_minute] - stamps[j] <= 60.0:
                burst.add(user)
                break
    return burst


def filter_bots_and_duplicates(c: Corpus, policy: BotPolicy) -> Corpus:
    """Remove near-duplicate posts, burst-posting users, and token-poor records.

    The three rules are evaluated independently over the input corpus; a
    record removed by several rules is counted once, under the first matching
    rule in the order duplicate, burst, low_token.
    """
    keys = [normalize_for_dedup(r.text) for r in c.records]
    dup_flags = _duplicate_flags(c.records, keys, policy.dup_window_seconds)
    burst = _burst_users(c.records, policy.burst_per_minute)

    kept: list[TweetRecord] = []
    counts = {"duplicate": 0, "burst": 0, "low_token": 0}
    for record, key, is_dup in zip(c.records, keys, dup_flags):
        if is_dup:
            counts["duplicate"] += 1
        elif record.user_id in burst:
            counts["burst"] += 1
        elif len(set(key.split())) < policy.min_distinct_tokens:
            counts["low_token"] += 1
        else:
            kept.append(record)

    provenance = c.provenance.copy()
    for stage, removed in counts.items():
        provenance.record_filter(stage, removed)
    return Corpus(records=kept, provenance=provenance)


def mask_corpus(c: Corpus, abusive_lexicon: set[str], ledger) -> Corpus:
    """Apply abusive-word masking to every record's text (non-filtering stage)."""
    from .textprep import mask_pattern, mask_text

    pattern = mask_pattern(abusive_lexicon)
    records = []
    for record in c.records:
        masked = mask_text(record.text, pattern, ledger)
        records.append(replace(record, text=masked) if masked != record.text else record)
    return Corpus(records=records, provenance=c.provenance.copy())


def write_corpus_jsonl(c: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in c.records:
            fh.write(
                json.dumps(
                    {
                        "status_id": r.id,
                        "created_at": r.created_at.isoformat().replace("+00:00", "Z"),
                        "text": r.text,
                        "source": r.source_device,
                        "location": r.user_location,
                        "country_code": r.country_code,
                        "hashtags": r.hashtags,
                        "mentions": r.mentions,
                        "user_id": r.user_id,
                        "is_retweet": r.is_retweet,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
