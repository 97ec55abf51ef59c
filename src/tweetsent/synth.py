"""Deterministic synthetic tweet corpus with planted ground truth.

Real tweet datasets cannot be redistributed, so tests run against generated
corpora instead. The generator plants, at documented rates, the things the
pipeline is supposed to find: lexicon words, hashtags and mentions, a device
mix echoing a roughly 74/26 iPhone/Android split, exact duplicates inside
the dedup window, burst-posting users, and token-poor records. The planting
ledger records exactly which record ids were planted as removable so tests
can assert set equality against the bot filter's output.

All planted duplicate/burst/low-token records carry the "reopen" keyword and
a US country tag, so in a full-window pipeline run they reach the bot stage
intact. Every regular record gets a unique filler token, which rules out
accidental duplicates.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timezone

WINDOW_START = datetime(2020, 4, 30, 0, 0, 0, tzinfo=timezone.utc)
WINDOW_SECONDS = 9 * 24 * 3600 - 1  # nine calendar days

DUPLICATE_SHARE = 0.05  # one exact duplicate per 20 records
LOW_TOKEN_SHARE = 0.01
BURST_USER_PER = 500  # one burst user per 500 records
KEYWORD_SHARE = 0.85
US_SHARE = 0.90
ABUSIVE_SHARE = 0.04

DEVICE_WEIGHTS = [
    ("Twitter for iPhone", 0.71),
    ("Twitter for Android", 0.25),
    ("Twitter Web App", 0.04),
]

TOPIC_WORDS = [
    "reopen", "reopening", "economy", "business", "businesses", "work",
    "state", "states", "country", "governor", "plan", "virus", "covid",
    "lockdown", "home", "order", "time", "people", "jobs", "phase",
    "open", "back", "now", "want", "need", "month", "week",
]
EMOTION_WORDS = [
    "hope", "trust", "fear", "happy", "sad", "worry", "panic", "safe",
    "crisis", "death", "protect", "love", "recover", "anticipate",
    "believe", "danger", "joy", "surprise", "faith", "support",
    "together", "ready", "expect", "confidence", "relief", "glad",
]
POLARITY_WORDS = [
    "good", "great", "bad", "terrible", "wonderful", "awful", "best",
    "worst", "excellent", "horrible",
]
SHIFTER_WORDS = ["not", "really", "very", "never", "but", "hardly", "barely", "extremely"]
FILLER_WORDS = [
    "the", "a", "to", "of", "and", "in", "is", "are", "we", "you",
    "this", "that", "for", "with", "on", "it",
]
HASHTAG_POOL = ["covid19", "staysafe", "backtowork", "economy", "lockdown", "newnormal"]
MENTION_POOL = ["GovernorOne", "StateHealthDept", "CityMayor", "NewsDesk", "CountyBoard"]
LOCATION_POOL = [
    "Houston, TX", "Austin, TX", "Seattle, WA", "Miami, FL",
    "Denver, CO", "Boston, MA", "Phoenix, AZ", "Columbus, OH",
]
COUNTRY_POOL = ["CA", "GB", "AU"]

# stand-in profanity for masking tests; no real slur list ships with the repo
ABUSIVE_POOL = [f"badword{i:02d}" for i in range(1, 51)]

_POOLS = [
    (TOPIC_WORDS, 0.35),
    (FILLER_WORDS, 0.25),
    (EMOTION_WORDS, 0.20),
    (POLARITY_WORDS, 0.10),
    (SHIFTER_WORDS, 0.10),
]


def _pick_device(rng: random.Random) -> str:
    roll = rng.random()
    acc = 0.0
    for device, weight in DEVICE_WEIGHTS:
        acc += weight
        if roll < acc:
            return device
    return DEVICE_WEIGHTS[-1][0]


def _sample_word(rng: random.Random, allow_keyword: bool) -> str:
    roll = rng.random()
    acc = 0.0
    for pool, weight in _POOLS:
        acc += weight
        if roll < acc:
            word = rng.choice(pool)
            break
    else:
        word = rng.choice(FILLER_WORDS)
    if not allow_keyword:
        while "reopen" in word:
            word = rng.choice(FILLER_WORDS)
    return word


def _timestamp(rng: random.Random) -> datetime:
    offset = rng.randrange(WINDOW_SECONDS + 1)
    return datetime.fromtimestamp(WINDOW_START.timestamp() + offset, tz=timezone.utc)


def _iso(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _build_text(rng: random.Random, uid: str, with_keyword: bool, abusive_words) -> tuple[str, list[str], list[str]]:
    """Compose 1-3 sentences; returns (text, hashtags, mentions)."""
    n_sentences = rng.randint(1, 3)
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(4, 9)
        sentences.append([_sample_word(rng, with_keyword) for _ in range(length)])

    if with_keyword and not any("reopen" in w for s in sentences for w in s):
        target = rng.choice(sentences)
        target.insert(rng.randrange(len(target) + 1), "reopen")

    hashtags: list[str] = []
    mentions: list[str] = []
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            tag = rng.choice(HASHTAG_POOL)
            hashtags.append(tag)
            rng.choice(sentences).append(f"#{tag}")
    if rng.random() < 0.3:
        handle = rng.choice(MENTION_POOL)
        mentions.append(handle)
        rng.choice(sentences).insert(0, f"@{handle}")
    if abusive_words and rng.random() < ABUSIVE_SHARE:
        target = rng.choice(sentences)
        target.insert(rng.randrange(len(target) + 1), rng.choice(abusive_words))

    sentences[-1].append(uid)
    if rng.random() < 0.15:
        sentences[-1].append(f"https://t.co/{rng.randrange(16**6):06x}")

    parts = []
    for sentence in sentences:
        words = list(sentence)
        if rng.random() < 0.5:
            words[0] = words[0].capitalize()
        parts.append(" ".join(words) + rng.choice([".", "!", "?", "."]))
    return " ".join(parts), sorted(set(hashtags)), sorted(set(mentions))


def generate_synthetic_corpus(seed: int, n: int, abusive_words: list[str] | None = None):
    """Build n records; returns (rows, ledger).

    Rows are dicts keyed by the corpus CSV columns, sorted by timestamp.
    The ledger maps planted categories to record ids and holds the device
    counts expected among bot-filter survivors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    abusive_words = ABUSIVE_POOL if abusive_words is None else abusive_words

    n_dup = int(n * DUPLICATE_SHARE)
    n_low = int(n * LOW_TOKEN_SHARE)
    burst_sizes = [rng.randint(15, 25) for _ in range(n // BURST_USER_PER)]
    while n_dup + n_low + sum(burst_sizes) >= n:
        if burst_sizes:
            burst_sizes.pop()
        elif n_dup:
            n_dup -= 1
        else:
            n_low -= 1
    n_base = n - n_dup - n_low - sum(burst_sizes)

    next_id = 0

    def make_id() -> str:
        nonlocal next_id
        next_id += 1
        return f"t{next_id:07d}"

    rows = []
    base_rows = []
    for i in range(n_base):
        with_keyword = rng.random() < KEYWORD_SHARE
        text, hashtags, mentions = _build_text(rng, f"u{i}x", with_keyword, abusive_words)
        country = "US" if rng.random() < US_SHARE else (
            rng.choice(COUNTRY_POOL) if rng.random() < 0.5 else None
        )
        row = {
            "status_id": make_id(),
            "created_at": _iso(_timestamp(rng)),
            "text": text,
            "source": _pick_device(rng),
            "location": rng.choice(LOCATION_POOL) if rng.random() < 0.75 else None,
            "country_code": country,
            "hashtags": hashtags,
            "mentions": mentions,
            "user_id": f"user{len(rows)}",
            "is_retweet": rng.random() < 0.1,
        }
        rows.append(row)
        base_rows.append(row)

    # exact duplicates: same text as a keyword-bearing US source, posted
    # shortly after it by a different account
    dup_candidates = [
        r for r in base_rows
        if r["country_code"] == "US" and "reopen" in r["text"].casefold()
    ]
    duplicate_ids = []
    sources = rng.sample(dup_candidates, min(n_dup, len(dup_candidates)))
    for j, src in enumerate(sources):
        src_ts = datetime.strptime(src["created_at"], "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc
        )
        offset = rng.randint(30, 600)
        ts = min(
            src_ts.timestamp() + offset, WINDOW_START.timestamp() + WINDOW_SECONDS
        )
        row = {
            "status_id": make_id(),
            "created_at": _iso(datetime.fromtimestamp(ts, tz=timezone.utc)),
            "text": src["text"],
            "source": _pick_device(rng),
            "location": rng.choice(LOCATION_POOL) if rng.random() < 0.75 else None,
            "country_code": "US",
            "hashtags": src["hashtags"],
            "mentions": src["mentions"],
            "user_id": f"dupuser{j}",
            "is_retweet": False,
        }
        rows.append(row)
        duplicate_ids.append(row["status_id"])

    # burst users: one account firing 15-25 keyword tweets inside a minute
    burst_ids = []
    for b, size in enumerate(burst_sizes):
        start = WINDOW_START.timestamp() + rng.randrange(WINDOW_SECONDS - 120)
        device = _pick_device(rng)
        for k in range(size):
            text, hashtags, mentions = _build_text(rng, f"b{b}p{k}x", True, abusive_words)
            row = {
                "status_id": make_id(),
                "created_at": _iso(
                    datetime.fromtimestamp(start + rng.randrange(60), tz=timezone.utc)
                ),
                "text": text,
                "source": device,
                "location": None,
                "country_code": "US",
                "hashtags": hashtags,
                "mentions": mentions,
                "user_id": f"bot{b}",
                "is_retweet": False,
            }
            rows.append(row)
            burst_ids.append(row["status_id"])

    # token-poor spam: keyword plus the unique filler only
    low_token_ids = []
    for m in range(n_low):
        row = {
            "status_id": make_id(),
            "created_at": _iso(_timestamp(rng)),
            "text": f"reopen lo{m}x",
            "source": _pick_device(rng),
            "location": None,
            "country_code": "US",
            "hashtags": [],
            "mentions": [],
            "user_id": f"lowuser{m}",
            "is_retweet": False,
        }
        rows.append(row)
        low_token_ids.append(row["status_id"])

    if len(rows) != n:
        raise RuntimeError(f"generator produced {len(rows)} rows, wanted {n}")
    rows.sort(key=lambda r: (r["created_at"], r["status_id"]))

    device_counts = {"Twitter for iPhone": 0, "Twitter for Android": 0}
    for row in base_rows:
        if row["source"] in device_counts:
            device_counts[row["source"]] += 1

    ledger = {
        "seed": seed,
        "n": n,
        "duplicate_ids": sorted(duplicate_ids),
        "burst_ids": sorted(burst_ids),
        "low_token_ids": sorted(low_token_ids),
        "device_counts": device_counts,
        "counts": {
            "base": n_base,
            "duplicates": len(duplicate_ids),
            "burst_users": len(burst_sizes),
            "burst_records": len(burst_ids),
            "low_token": len(low_token_ids),
        },
    }
    return rows, ledger


def write_synthetic_corpus(
    path,
    seed: int,
    n: int,
    format: str = "csv",
    ledger_path=None,
    abusive_words: list[str] | None = None,
) -> dict:
    """Generate and write a corpus file (CSV or JSONL); returns the ledger."""
    rows, ledger = generate_synthetic_corpus(seed, n, abusive_words)
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [
                    "status_id", "created_at", "text", "source", "location",
                    "country_code", "hashtags", "mentions", "user_id", "is_retweet",
                ]
            )
            for r in rows:
                writer.writerow(
                    [
                        r["status_id"], r["created_at"], r["text"], r["source"],
                        r["location"] or "", r["country_code"] or "",
                        "|".join(r["hashtags"]), "|".join(r["mentions"]),
                        r["user_id"], "true" if r["is_retweet"] else "false",
                    ]
                )
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in rows:
                fh.write(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}")

    if ledger_path is not None:
        with open(ledger_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(ledger, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ledger
