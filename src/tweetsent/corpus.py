"""Tweet record schema, CSV/JSONL ingestion, the bot filter and the JSONL writer.

Two row sources, `_csv_rows` and `_jsonl_rows`, feed one loop, `_collect`,
which runs each valid row through the filters `pipeline.check_filters`
builds; removed-record counts accumulate in the provenance so that, at any
stage, parsed == len(records) + skipped + sum(filtered-by-stage).
"""

from __future__ import annotations

import bisect
import csv
import json
import re
from collections import namedtuple
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, EmptyCorpusError, SchemaError

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


# stage-by-stage record accounting for one corpus: `filtered` maps each
# stage to the records it removed; no stage changes a provenance once built
Provenance = namedtuple("Provenance", "source format parsed skipped filtered")
Corpus = namedtuple("Corpus", "records provenance")


@dataclass
class BotPolicy:
    """Heuristic bot/spam removal knobs.

    dup_window_seconds: a record is a duplicate if its normalized text matches
    an earlier record's within this many seconds.
    burst_per_minute: users with more than this many posts inside any 60 s
    span lose all their records.
    min_distinct_tokens: records below this distinct-token count are dropped.

    These are the only defaults of the three knobs; `RunConfig` and the CLI
    take theirs from here. A value out of range is a `ConfigError`.
    """

    dup_window_seconds: float = 3600.0
    burst_per_minute: int = 10
    min_distinct_tokens: int = 3

    def __post_init__(self) -> None:
        if not 0 <= self.dup_window_seconds < float("inf"):  # NaN too
            raise ConfigError("dup_window_seconds must be finite and >= 0")
        if self.burst_per_minute < 1:
            raise ConfigError("burst_per_minute must be >= 1")
        if self.min_distinct_tokens < 0:
            raise ConfigError("min_distinct_tokens must be >= 0")


# the layout of an RFC 3339 section 5.6 date-time: 'T' and 'Z' may be lower
# case, and the section's note allows a space between date and time; the
# ranges of the date and time fields are left to datetime. With re.ASCII,
# \d is [0-9], matched by a faster opcode than the class
_RFC3339_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}[Tt ]\d{2}:\d{2}:\d{2}(\.\d+)?(?:[Zz]|[+-](?:[01]\d|2[0-3]):[0-5]\d)",
    re.ASCII,
)


def parse_timestamp(value: str) -> datetime:
    """Strict RFC 3339: offset required, 'Z' accepted; normalized to UTC.

    The layout is checked before conversion, so the accepted set does not
    depend on how lenient the running Python's `datetime.fromisoformat` is.
    A fraction keeps microseconds and drops further digits; a leap second
    (:60) cannot be represented and is rejected.
    """
    text = value.strip()
    match = _RFC3339_RE.fullmatch(text)
    if match is None:
        raise SchemaError(f"timestamp not RFC 3339: {value!r}")
    fraction = match[1]
    if fraction is not None:
        # exactly six digits, the one fraction width every version reads
        text = text[:19] + fraction[:7].ljust(7, "0") + text[match.end(1) :]
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:  # a field, or the UTC instant, out of range
        raise SchemaError(f"timestamp out of range: {value!r}") from exc


def _split_tags(value) -> list[str]:
    """The non-empty tags of None, a "|"-joined string or a list of strings,
    the values `_build_record` lets through."""
    if type(value) is list:
        return list(filter(None, value))
    return [] if value is None else list(filter(None, value.split("|")))


def _parse_bool(value) -> bool:
    if value is True or value is False:  # a JSON bool, without a call
        return value
    text = str(value).strip().lower()
    if text in _TRUE_STRINGS:
        return True
    if text in _FALSE_STRINGS:
        return False
    raise SchemaError(f"not a boolean: {value!r}")


def _build_record(values, check: bool, seen_ids: set[str], chain) -> TweetRecord | str:
    """A record from the ten values in CSV_COLUMNS order, None where absent, or
    the name of the first `chain` test it fails. An invalid row raises SchemaError
    before any test runs; `check` also refuses one with a lone surrogate, filtered or not."""
    rid, created_at, text, source, location, country, hashtags, mentions, user_id, is_retweet = values
    rid = "" if rid is None else str(rid).strip()  # a JSON id may be an integer
    if not rid:
        raise SchemaError("missing status_id")
    if rid in seen_ids:
        raise SchemaError(f"duplicate status_id {rid!r}")
    if type(text) is not str or not text.strip():  # a JSON row's text may be any value
        raise SchemaError("missing text, or text that is not a string")
    created_at = parse_timestamp(created_at or "")
    country = (country or "").strip() or None
    is_retweet = _parse_bool(is_retweet)
    try:  # a JSON row may hold any value: tags are None, a string or a list of strings
        for tags in (hashtags, mentions):
            if type(tags) is list:
                "".join(tags)  # tests in C that every item is a string
            elif tags is not None and type(tags) is not str:
                raise TypeError
    except TypeError:
        raise SchemaError("hashtags and mentions must be strings or lists of strings") from None
    for failed, keep in chain:
        if not keep(created_at, text, country):
            break
    else:
        failed = None
    if check:
        _check_encodable(values)
    seen_ids.add(rid)
    if failed:
        return failed
    # positional: a slots dataclass binds keywords at twice the cost
    return TweetRecord(
        rid, created_at, text, source or "", (location or "").strip() or None, country,
        _split_tags(hashtags), _split_tags(mentions), "" if user_id is None else str(user_id), is_retweet,
    )


def _check_encodable(values) -> None:
    """Reject a row whose strings and list tags hold a lone surrogate: an
    undecodable input byte (kept by surrogateescape) or a JSON \\ud800-style
    escape. Its record's strings, these stripped or split, would fail as UTF-8."""
    strings = [value for value in values if type(value) is str]
    strings += [tag for value in values if type(value) is list for tag in value]
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError("text is not valid Unicode") from exc


# the csv field-size limit while a file is read leniently: every field fits
_ANY_FIELD = 2**31 - 1
# stands in for NUL while a file is read leniently (the csv module of Python
# 3.10 refuses NUL); neither strict UTF-8 nor surrogateescape, which yields
# only \udc80-\udcff, can produce it
_NUL_STAND_IN = "\udc00"


def _csv_rows(fh, field_limit: int | None):
    """The rows of a CSV file as csv.DictReader sees them, as `_collect` takes them.

    Blank lines are not rows. A column repeated in the header takes its last
    position; a short row reads None past its end (a missing is_retweet
    rejects the row); extra fields are ignored.

    Read strictly (field_limit None), a field over csv.field_size_limit()
    raises csv.Error. The lenient read gets the limit that load_corpus lifted
    for it, so the reader consumes such a field whole and stays in step with
    the file; the row is invalid. It also reads a NUL as text on every
    Python version. Any csv.Error there is a SchemaError.
    """
    lenient = field_limit is not None
    reader = csv.reader(line.replace("\0", _NUL_STAND_IN) for line in fh) if lenient else csv.reader(fh)
    try:
        header = next(reader, None) or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing CSV columns: {', '.join(missing)}")
        position = {name: i for i, name in enumerate(header)}
        columns = [position[c] for c in CSV_COLUMNS]
        pick = itemgetter(*columns)
        width = max(columns) + 1
        for row in reader:
            if not row:
                continue
            if lenient:
                if max(map(len, row)) > field_limit:
                    yield SchemaError("CSV field over csv.field_size_limit()"), None
                    continue
                row = [field.replace(_NUL_STAND_IN, "\0") for field in row]
            if len(row) < width:
                row += [None] * (width - len(row))
            yield pick(row), lenient
    except csv.Error as exc:
        if not lenient:
            raise
        raise SchemaError(f"unreadable CSV at line {reader.line_num}: {exc}") from exc


# the whitespace JSON allows around a value (RFC 8259), which str.strip() exceeds
_JSON_SPACE = " \t\n\r"
_PICK_COLUMNS = itemgetter(*CSV_COLUMNS)
# status_id, created_at, source, location, country_code, user_id and is_retweet
# (`_build_record` checks the others), and every JSON type combination they
# may hold, so that one set lookup checks a row: text fields hold a string or
# null, the ids also an integer (not a bool), is_retweet a bool or a string
_PICK_SCALARS = itemgetter(0, 1, 3, 4, 5, 8, 9)
_TEXT, _ID = (str, type(None)), (str, type(None), int)
_SCALAR_TYPES = frozenset(product(_ID, _TEXT, _TEXT, _TEXT, _TEXT, _ID, (bool, str)))


def _jsonl_rows(fh, field_limit: int | None):
    """The rows of a JSONL file, one per non-blank line, as `_collect` takes them.

    A line that is empty or all whitespace is not a row. A row is accepted
    exactly as json.loads accepts it, by the C scanner json.loads ends in:
    one JSON object, with only JSON whitespace (space, tab, CR, LF) around
    it. A byte-order mark or other Unicode whitespace around the object, or
    anything after it, makes the row invalid, and so does a field that holds a
    JSON type its `_SCALAR_TYPES` entry does not allow. The lenient read (given
    a field_limit) checks every row for a lone surrogate.
    """
    scan = json.decoder.JSONDecoder().scan_once
    for line in fh:
        if line.isspace():  # as `not line.strip()`, without a copy
            continue
        value = line.strip(_JSON_SPACE)
        try:
            row, end = scan(value, 0)
        except (StopIteration, ValueError, RecursionError):
            # StopIteration: no JSON value where the line starts; ValueError
            # covers malformed JSON and over-long integers
            row = end = None
        if end != len(value) or not isinstance(row, dict):
            yield SchemaError("JSONL line is not one JSON object"), None
            continue
        # in a strictly decoded line only a \ud.. escape yields a surrogate;
        # the one-character test is a memchr that clears most lines
        check = field_limit is not None or ("\\" in line and ("\\ud" in line or "\\uD" in line))
        try:
            values = _PICK_COLUMNS(row)
        except KeyError:  # an absent key reads None
            values = tuple(map(row.get, CSV_COLUMNS))
        if tuple(map(type, _PICK_SCALARS(values))) in _SCALAR_TYPES:
            yield values, check
        else:
            yield SchemaError("a JSONL field holds a value of the wrong JSON type"), None


def _collect(rows, chain, source: str, format: str) -> Corpus:
    """The corpus of `rows`: the values of each row with its surrogate-check
    flag, or (SchemaError, None) for a row its source refuses outright.
    Only a SchemaError skips a row; any other exception propagates."""
    records: list[TweetRecord] = []
    filtered = dict.fromkeys([name for name, _ in chain], 0)
    seen_ids: set[str] = set()
    parsed = 0
    skipped = 0
    for values, check in rows:
        parsed += 1
        try:
            if check is None:  # a row without values: `values` is its SchemaError
                raise values
            record = _build_record(values, check, seen_ids, chain)
        except SchemaError:
            skipped += 1
            continue
        if isinstance(record, str):
            filtered[record] += 1
        else:
            records.append(record)
    if parsed == skipped:
        raise EmptyCorpusError(f"no valid records in {source}")
    return Corpus(records, Provenance(source, format, parsed, skipped, filtered))


def load_corpus(path, format: str = "csv", filters=()) -> Corpus:
    """Ingest a CSV (header required) or JSONL corpus file.

    Well-formed rows become TweetRecords; malformed rows are skipped and
    counted in provenance, never silently dropped. A file that is not valid
    UTF-8, or a CSV file with a field over csv.field_size_limit(), is read a
    second time, leniently: each undecodable byte is kept as a lone
    surrogate, and every row holding one, or such a field, is skipped.

    A valid row that fails a test of `filters`, a chain of (stage name,
    test(created_at, text, country_code)), never becomes a record: it counts
    under the first it fails, in one `provenance.filtered` key per stage. No
    valid row is an EmptyCorpusError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if format not in ("csv", "jsonl"):
        raise SchemaError(f"unknown corpus format {format!r}")

    rows = _csv_rows if format == "csv" else _jsonl_rows
    # a CSV file may start with a byte-order mark, as some editors save one
    encoding, newline = ("utf-8-sig", "") if format == "csv" else ("utf-8", None)
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            return _collect(rows(fh, None), filters, str(path), format)
    except (UnicodeDecodeError, csv.Error):
        # restored here: a row source's finally would wait until it is closed
        field_limit = csv.field_size_limit(_ANY_FIELD)
        try:
            with open(path, encoding=encoding, errors="surrogateescape", newline=newline) as fh:
                return _collect(rows(fh, field_limit), filters, str(path), format)
        finally:
            csv.field_size_limit(field_limit)


def _duplicate_flags(stamps: list[float], keys: list[str], window: float) -> list[bool]:
    # nearest earlier occurrence of the same normalized text decides; earlier
    # means earlier in input order, distance measured on timestamps
    seen: dict[str, list[float]] = {}
    flags = [False] * len(keys)
    for i, (ts, key) in enumerate(zip(stamps, keys)):
        earlier = seen.setdefault(key, [])
        if earlier:
            pos = bisect.bisect_left(earlier, ts)
            for neighbor in earlier[max(0, pos - 1) : pos + 1]:
                if abs(ts - neighbor) <= window:
                    flags[i] = True
                    break
        bisect.insort(earlier, ts)
    return flags


def _burst_users(stamps: list[float], users: list[str], per_minute: int) -> set[str]:
    times: dict[str, list[float]] = {}
    for user, ts in zip(users, stamps):
        times.setdefault(user, []).append(ts)
    burst = set()
    for user, user_stamps in times.items():
        if len(user_stamps) <= per_minute:
            continue
        user_stamps.sort()
        for j in range(len(user_stamps) - per_minute):
            if user_stamps[j + per_minute] - user_stamps[j] <= 60.0:
                burst.add(user)
                break
    return burst


def filter_bots_and_duplicates(c: Corpus, policy: BotPolicy) -> Corpus:
    """Remove near-duplicate posts, burst-posting users, and token-poor records.

    The three rules are evaluated independently over the input corpus; a
    record removed by several rules is counted once, under the first matching
    rule in the order duplicate, burst, low_token. Each distinct text is
    case-folded and split once, for both its dedup key and its token count.
    """
    key_of, low_token = {}, set()
    for text in dict.fromkeys(r.text for r in c.records):
        words = text.casefold().split()
        key_of[text] = " ".join(words)
        if len(set(words)) < policy.min_distinct_tokens:
            low_token.add(text)
    keys = [key_of[r.text] for r in c.records]
    stamps = [r.created_at.timestamp() for r in c.records]
    dup_flags = _duplicate_flags(stamps, keys, policy.dup_window_seconds)
    burst = _burst_users(stamps, [r.user_id for r in c.records], policy.burst_per_minute)

    kept: list[TweetRecord] = []
    counts = {"duplicate": 0, "burst": 0, "low_token": 0}
    for record, is_dup in zip(c.records, dup_flags):
        if is_dup:
            counts["duplicate"] += 1
        elif record.user_id in burst:
            counts["burst"] += 1
        elif record.text in low_token:
            counts["low_token"] += 1
        else:
            kept.append(record)

    # a new dict: the input corpus keeps its counts, and a second pass adds zeros
    before = c.provenance.filtered
    filtered = {**before, **{rule: before.get(rule, 0) + n for rule, n in counts.items()}}
    return Corpus(kept, c.provenance._replace(filtered=filtered))


def write_corpus_jsonl(c: Corpus, path) -> None:
    """One JSON object per record, byte-identical to
    json.dumps(obj, ensure_ascii=False, sort_keys=True): the keys are written
    in sorted order and every string goes through the json module's own
    escaping. A reused json.JSONEncoder is not enough: its encode() still
    sets up a new C encoder for every object, and over 10,000 records takes
    about 117 ms against 129 ms for json.dumps and 70 ms for this line."""
    enc = encode_basestring
    sep = ", "
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in c.records:
            created = enc(r.created_at.isoformat().replace("+00:00", "Z"))
            country = "null" if r.country_code is None else enc(r.country_code)
            location = "null" if r.user_location is None else enc(r.user_location)
            hashtags = sep.join(map(enc, r.hashtags))
            mentions = sep.join(map(enc, r.mentions))
            retweet = "true" if r.is_retweet else "false"
            fh.write(
                f'{{"country_code": {country}, "created_at": {created}, '
                f'"hashtags": [{hashtags}], "is_retweet": {retweet}, '
                f'"location": {location}, "mentions": [{mentions}], '
                f'"source": {enc(r.source_device)}, "status_id": {enc(r.id)}, '
                f'"text": {enc(r.text)}, "user_id": {enc(r.user_id)}}}\n'
            )
