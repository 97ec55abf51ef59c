from __future__ import annotations

import csv
import json
import re
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_record
from oracles import bot_filter, dictreader_load, filter_chain_ids, filter_rows, jsonl_line, jsonl_load
from tweetsent.cli import main
from tweetsent.corpus import (
    CSV_COLUMNS,
    BotPolicy,
    Corpus,
    filter_bots_and_duplicates,
    load_corpus,
    parse_timestamp,
    write_corpus_jsonl,
)
from tweetsent.errors import ConfigError, EmptyCorpusError, PipelineStageError, SchemaError
from tweetsent.pipeline import check_filters, load_filtered

# the csv module's default field-size limit; the loader must leave it in place
CSV_FIELD_LIMIT = 131_072
CSV_HEADER = "status_id,created_at,text,source,location,country_code,hashtags,mentions,user_id,is_retweet\n"


def _jsonl_line(i, **overrides):
    row = {
        "status_id": f"j{i}",
        "created_at": "2020-05-02T10:00:00Z",
        "text": f"reopen tweet {i}",
        "source": "Twitter for iPhone",
        "location": None,
        "country_code": "US",
        "hashtags": [],
        "mentions": [],
        "user_id": f"user{i}",
        "is_retweet": False,
    }
    row.update(overrides)
    return json.dumps(row)


# ---------------------------------------------------------------------------
# ingestion


def test_load_jsonl_identity(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(_jsonl_line(i) for i in range(3)) + "\n")
    c = load_corpus(path, "jsonl")
    assert len(c.records) == 3
    assert c.provenance.skipped == 0
    assert c.provenance.parsed == 3


def test_load_csv_skips_row_missing_text(tmp_path):
    rows = [
        f"c{i},2020-05-02T10:00:00Z,reopen text {i},web,,US,,,u{i},false"
        for i in range(5)
    ]
    rows[2] = "c2,2020-05-02T10:00:00Z,,web,,US,,,u2,false"  # no text
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER + "\n".join(rows) + "\n")
    c = load_corpus(path, "csv")
    assert len(c.records) == 4
    assert c.provenance.skipped == 1
    assert c.provenance.parsed == 5


def test_load_header_only_is_empty_corpus(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER)
    with pytest.raises(EmptyCorpusError):
        load_corpus(path, "csv")


def test_load_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("status_id,created_at\nx,2020-05-02T10:00:00Z\n")
    with pytest.raises(SchemaError):
        load_corpus(path, "csv")


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.csv", "csv")


def test_load_skips_bad_timestamp_and_duplicate_id(tmp_path):
    lines = [
        _jsonl_line(0),
        _jsonl_line(1, created_at="05/02/2020"),  # not RFC 3339
        _jsonl_line(2, status_id="j0"),  # duplicate id
        "{not json",
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    c = load_corpus(path, "jsonl")
    assert [r.id for r in c.records] == ["j0"]
    assert c.provenance.skipped == 3
    assert c.provenance.parsed == 4


def test_timestamp_requires_offset():
    assert parse_timestamp("2020-05-02T10:00:00Z").hour == 10
    assert parse_timestamp("2020-05-02T06:00:00-04:00").hour == 10  # normalized to UTC
    with pytest.raises(SchemaError):
        parse_timestamp("2020-05-02T10:00:00")
    with pytest.raises(SchemaError):
        parse_timestamp("Sat May 2 10:00:00 2020")


# ---------------------------------------------------------------------------
# date / keyword / country filters


def _load_rows(tmp_path, rows, *filters):
    """The corpus of a JSONL file of `rows`, (status_id, field overrides)
    pairs, loaded through `check_filters(*filters)`."""
    path = tmp_path / "c.jsonl"
    path.write_text("".join(_jsonl_line(0, status_id=rid, **fields) + "\n" for rid, fields in rows))
    return load_corpus(path, "jsonl", check_filters(*filters))


def _dated(rid, day):
    return rid, {"created_at": f"2020-{day}T12:00:00+00:00"}


def test_date_range_inclusive_bounds(tmp_path):
    rows = [_dated("a", "04-29"), _dated("b", "04-30"), _dated("c", "05-08"), _dated("d", "05-09")]
    out = _load_rows(tmp_path, rows, "2020-04-30", "2020-05-08", None, None)
    assert [r.id for r in out.records] == ["b", "c"]
    assert out.provenance.filtered["date_range"] == 2


def test_date_range_checks_the_utc_date(tmp_path):
    rows = [
        ("a", {"created_at": "2020-04-29T23:30:00-01:00"}),  # 04-30 in UTC
        ("b", {"created_at": "2020-05-08T23:30:00-01:00"}),  # 05-09 in UTC
    ]
    out = _load_rows(tmp_path, rows, "2020-04-30", "2020-05-08", None, None)
    assert [r.id for r in out.records] == ["a"]
    assert out.provenance.filtered["date_range"] == 1


def test_date_range_single_day(tmp_path):
    out = _load_rows(tmp_path, [_dated("a", "05-03")], "2020-05-03", "2020-05-03", None, None)
    assert len(out.records) == 1


def test_date_range_invalid():
    with pytest.raises(ConfigError, match="after end_date"):
        check_filters("2020-05-04", "2020-05-03", None, None)


def test_keyword_case_insensitive_substring(tmp_path):
    rows = [("a", {"text": "Reopen now"}), ("b", {"text": "stay home"}),
            ("c", {"text": "the reopening debate"})]
    out = _load_rows(tmp_path, rows, None, None, "reopen", None)
    assert [r.id for r in out.records] == ["a", "c"]
    # brute-force substring cross-check for the stem case
    assert "reopen" in "the reopening debate".casefold()


def test_country_matching(tmp_path):
    rows = [("a", {"country_code": "US"}), ("b", {"country_code": "CA"}), ("c", {"country_code": None})]
    out = _load_rows(tmp_path, rows, None, None, None, "us")
    assert [r.id for r in out.records] == ["a"]
    assert out.provenance.filtered["country"] == 2


def test_country_all_untagged_is_empty_not_error(tmp_path):
    out = _load_rows(tmp_path, [("a", {"country_code": None})], None, None, None, "US")
    assert out.records == []


# ---------------------------------------------------------------------------
# bot / duplicate filter


def test_duplicate_within_window_removed():
    c = make_corpus(
        [
            make_record(rid="a", created="2020-05-02T10:00:00+00:00", text="open it up now", user="u1"),
            make_record(rid="b", created="2020-05-02T10:00:10+00:00", text="open it up now", user="u1"),
        ]
    )
    out = filter_bots_and_duplicates(c, BotPolicy(dup_window_seconds=3600))
    assert [r.id for r in out.records] == ["a"]
    assert out.provenance.filtered["duplicate"] == 1


def test_duplicate_outside_window_kept():
    c = make_corpus(
        [
            make_record(rid="a", created="2020-05-02T10:00:00+00:00", text="open it up now", user="u1"),
            make_record(rid="b", created="2020-05-02T12:00:00+00:00", text="open it up now", user="u2"),
        ]
    )
    out = filter_bots_and_duplicates(c, BotPolicy(dup_window_seconds=3600))
    assert len(out.records) == 2


def test_burst_user_fully_removed():
    base = "2020-05-02T10:00:"
    records = [
        make_record(rid=f"b{i}", created=f"{base}{i:02d}+00:00", text=f"unique words here {i} extra", user="bot")
        for i in range(20)
    ]
    records.append(make_record(rid="ok", text="calm single post here", user="human"))
    out = filter_bots_and_duplicates(make_corpus(records), BotPolicy(burst_per_minute=10))
    assert [r.id for r in out.records] == ["ok"]
    assert out.provenance.filtered["burst"] == 20


def test_low_token_removed():
    c = make_corpus([make_record(rid="a", text="reopen reopen reopen")])
    out = filter_bots_and_duplicates(c, BotPolicy(min_distinct_tokens=3))
    assert out.records == []
    assert out.provenance.filtered["low_token"] == 1


def test_unique_low_rate_records_retained():
    c = make_corpus(
        [
            make_record(rid="a", created="2020-05-02T10:00:00+00:00", text="first unique message here", user="u1"),
            make_record(rid="b", created="2020-05-02T11:00:00+00:00", text="second unique message here", user="u2"),
        ]
    )
    out = filter_bots_and_duplicates(c, BotPolicy())
    assert len(out.records) == 2
    assert out.provenance.filtered == {"duplicate": 0, "burst": 0, "low_token": 0}


def test_bot_pass_leaves_its_input_provenance_and_a_second_pass_adds_zeros():
    c = make_corpus(
        [
            make_record(rid="a", created="2020-05-02T10:00:00+00:00", text="open it up now", user="u1"),
            make_record(rid="b", created="2020-05-02T10:00:10+00:00", text="Open  it up NOW", user="u2"),
            make_record(rid="c", created="2020-05-02T10:05:00+00:00", text="a different post here", user="u3"),
        ]
    )
    c = c._replace(provenance=c.provenance._replace(filtered={"date_range": 2}))
    once = filter_bots_and_duplicates(c, BotPolicy())
    assert c.provenance.filtered == {"date_range": 2}
    assert [r.id for r in c.records] == ["a", "b", "c"]
    assert once.provenance.filtered == {"date_range": 2, "duplicate": 1, "burst": 0, "low_token": 0}
    twice = filter_bots_and_duplicates(once, BotPolicy())
    assert once.provenance.filtered == {"date_range": 2, "duplicate": 1, "burst": 0, "low_token": 0}
    assert twice.provenance == once.provenance
    assert [r.id for r in twice.records] == ["a", "c"]


# ---------------------------------------------------------------------------
# chain properties


def _conserved(c):
    p = c.provenance
    return p.parsed == len(c.records) + p.skipped + sum(p.filtered.values())


def test_full_chain_matches_bruteforce_oracle(synth_dir, synth_corpus):
    start, end = date(2020, 5, 1), date(2020, 5, 7)
    policy = BotPolicy()
    chain = check_filters("2020-05-01", "2020-05-07", "reopen", "US")
    c = load_filtered(synth_dir["csv"], "csv", chain, policy)
    expected = filter_chain_ids(synth_corpus.records, start, end, "reopen", "US", policy)
    assert {r.id for r in c.records} == expected
    assert _conserved(c)


def test_filters_idempotent_and_order_stable(synth_corpus):
    policy = BotPolicy()
    once = filter_bots_and_duplicates(synth_corpus, policy)
    twice = filter_bots_and_duplicates(once, policy)
    assert [r.id for r in twice.records] == [r.id for r in once.records]

    # order stability: kept ids appear in original relative order
    original = [r.id for r in synth_corpus.records]
    kept = [r.id for r in once.records]
    positions = {rid: i for i, rid in enumerate(original)}
    assert kept == sorted(kept, key=positions.__getitem__)


def test_provenance_conserved_after_every_stage(synth_dir, synth_corpus):
    assert _conserved(synth_corpus)
    for filters in (
        ("2020-04-30", "2020-05-08", None, None),
        ("2020-04-30", "2020-05-08", "reopen", None),
        ("2020-04-30", "2020-05-08", "reopen", "US"),
    ):
        c = load_corpus(synth_dir["csv"], "csv", check_filters(*filters))
        assert _conserved(c)
    assert _conserved(filter_bots_and_duplicates(c, BotPolicy()))


@st.composite
def tiny_corpus(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    records = []
    for i in range(n):
        text = draw(st.sampled_from(["open up now", "stay home folks", "reopen today please"]))
        offset = draw(st.integers(min_value=0, max_value=7200))
        user = draw(st.sampled_from(["u1", "u2", "u3"]))
        records.append(
            make_record(
                rid=f"r{i}",
                created=(
                    "2020-05-02T10:00:00+00:00"
                ),
                text=text,
                user=user,
            )
        )
        records[-1].created_at += timedelta(seconds=offset)
    return make_corpus(records)


@settings(max_examples=100, deadline=None)
@given(tiny_corpus())
def test_bot_filter_idempotent_property(c):
    policy = BotPolicy(dup_window_seconds=600, burst_per_minute=3, min_distinct_tokens=2)
    once = filter_bots_and_duplicates(c, policy)
    twice = filter_bots_and_duplicates(once, policy)
    assert [r.id for r in twice.records] == [r.id for r in once.records]
    assert _conserved(once)


_BOT_WORDS = ["reopen", "Reopen", "the", "economy", "now"]


@st.composite
def _bot_corpora(draw):
    """A policy and records whose times, users and texts sit on the rules'
    edges: gaps of exactly the duplicate window (and a second either side),
    a user with exactly burst_per_minute posts inside 60 s and one with one
    more, and texts that differ only in case or whitespace."""
    policy = BotPolicy(
        dup_window_seconds=draw(st.sampled_from([0.0, 1.0, 60.0, 600.0])),
        burst_per_minute=draw(st.integers(min_value=1, max_value=3)),
        min_distinct_tokens=draw(st.integers(min_value=0, max_value=4)),
    )
    window, k = int(policy.dup_window_seconds), policy.burst_per_minute
    start = datetime(2020, 5, 2, 10, tzinfo=timezone.utc)
    spans = [(start + timedelta(seconds=60 * i / k), "at_limit") for i in range(k)]
    spans += [(start + timedelta(seconds=60 * i / k), "over_limit") for i in range(k + 1)]
    offsets = st.sampled_from([0, window, 2 * window, max(window - 1, 0), window + 1, 30, 60, 61])
    drawn = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        at = start + timedelta(seconds=draw(offsets))
        drawn.append((at, draw(st.sampled_from(["u1", "u2", "at_limit", "over_limit"]))))
    records = []
    for i, (at, user) in enumerate(draw(st.permutations(spans + drawn))):
        words = draw(st.lists(st.sampled_from(_BOT_WORDS), min_size=1, max_size=4))
        text = draw(st.sampled_from([" ", "  ", "\t", " \n "])).join(words)
        text = draw(st.sampled_from([str, str.upper, str.strip, " {} ".format]))(text)
        records.append(make_record(rid=f"r{i}", created=at.isoformat(), text=text, user=user))
    return records, policy


@settings(max_examples=200, deadline=None)
@given(_bot_corpora())
def test_bot_filter_matches_the_record_by_record_oracle(drawn):
    records, policy = drawn
    out = filter_bots_and_duplicates(make_corpus(records), policy)
    kept, removed = bot_filter(records, policy)
    assert [r.id for r in out.records] == [r.id for r in kept]
    assert list(out.provenance.filtered.items()) == list(removed.items())


# ---------------------------------------------------------------------------
# ingestion contract: csv.reader rows, malformed rows skipped and counted


_COLUMN_VALUES = {
    "status_id": ["r1", "r2", " r3 ", "", "r4", "r5"],
    "created_at": ["2020-05-02T10:00:00Z", "2020-05-02T10:00:00+02:00", "2020-05-02", ""],
    "text": ["reopen now", "", " ", "x,y", 'say "hi"', "two\nlines"],
    "source": ["Twitter for iPhone", "", "web"],
    "location": ["", " ", "NYC ", "a,b"],
    "country_code": ["US", "", " us "],
    "hashtags": ["", "a|b", "|", "x"],
    "mentions": ["", "m", "a||b"],
    "user_id": ["u1", ""],
    "is_retweet": ["true", "false", "no", "", "maybe", "T"],
    "extra": ["", "junk", "\u00e9"],
}
_JUNK = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"), max_size=8)


@st.composite
def _csv_files(draw):
    # every column once, in any order, plus repeated and unknown columns;
    # now and then one column is missing
    header = draw(st.permutations(CSV_COLUMNS + draw(st.lists(st.sampled_from(CSV_COLUMNS + ["extra"]), max_size=3))))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        header.remove(draw(st.sampled_from(CSV_COLUMNS)))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = [draw(st.sampled_from(_COLUMN_VALUES[name])) for name in header]
        shape = draw(st.sampled_from(["full", "full", "short", "long", "blank", "junk"]))
        if shape == "short":
            row = row[: draw(st.integers(min_value=1, max_value=len(row)))]
        elif shape == "long":
            row += draw(st.lists(_JUNK, min_size=1, max_size=3))
        elif shape == "blank":
            row = []
        elif shape == "junk":
            row = draw(st.lists(_JUNK, max_size=len(header) + 2))
        rows.append(row)
    return header, rows


@settings(max_examples=150, deadline=None)
@given(_csv_files())
def test_csv_loader_matches_dictreader_oracle(tmp_path_factory, spec):
    # rows may be blank, short or long; header columns reordered, repeated or missing
    header, rows = spec
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    want = dictreader_load(path, parse_timestamp)
    try:
        c = load_corpus(path, "csv")
    except (SchemaError, EmptyCorpusError) as exc:
        assert type(exc).__name__ == want
        return
    records, parsed, skipped = want
    got = [
        (r.id, r.created_at, r.text, r.source_device, r.user_location, r.country_code,
         r.hashtags, r.mentions, r.user_id, r.is_retweet)
        for r in c.records
    ]
    assert got == records
    assert (c.provenance.parsed, c.provenance.skipped) == (parsed, skipped)


def test_csv_with_a_byte_order_mark_loads_as_without(tmp_path):
    # some editors save CSV with a UTF-8 byte-order mark; read as text, it
    # would make the header's first name "\ufeffstatus_id"
    plain = (Path(__file__).parent / "data" / "corpus_1000.csv").read_bytes()
    # one row with a byte that is not UTF-8 sends the file to the lenient read
    broken = plain + b"t9999999,2020-05-01T00:00:00Z,reopen \xff now please,web,,US,,,u1,false\n"
    chain = check_filters("2020-04-30", "2020-05-08", "reopen", "US")
    loaded = {}
    for name, body in {"strict": plain, "lenient": broken}.items():
        for bom in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / f"{name}{len(bom)}.csv"
            path.write_bytes(bom + body)
            c = load_corpus(path, "csv", chain)
            loaded[name, bool(bom)] = c.records, c.provenance._replace(source=None)
        assert loaded[name, True] == loaded[name, False]
    strict, lenient = loaded["strict", False][1], loaded["lenient", False][1]
    assert (lenient.parsed, lenient.skipped) == (strict.parsed + 1, strict.skipped + 1)
    assert lenient.filtered == strict.filtered and sum(strict.filtered.values()) > 0


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_load_arbitrary_bytes_after_header(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("bytes") / "c.csv"
    path.write_bytes(CSV_HEADER.encode() + b"c0,2020-05-02T10:00:00Z,ok text,web,,US,,,u0,false\n" + body)
    try:
        c = load_corpus(path, "csv")
    except (SchemaError, EmptyCorpusError):
        return
    assert c.provenance.parsed == len(c.records) + c.provenance.skipped
    write_corpus_jsonl(c, path.with_suffix(".out"))  # every kept record can be written


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300))
def test_load_arbitrary_jsonl_bytes(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("bytes") / "c.jsonl"
    path.write_bytes(_jsonl_line(0).encode() + b"\n" + body)
    c = load_corpus(path, "jsonl")
    assert c.provenance.parsed == len(c.records) + c.provenance.skipped


_MISSING = object()
# numbers, bools, objects and lists, which every field may be drawn to hold
_ODD = [0, 7, -1.5, float("inf"), float("nan"), True, False, {"a": 1}, ["x"], []]
_JSONL_VALUES = {
    "status_id": ["j0", "j1", " j2 ", "", "7", 12, None, _MISSING, *_ODD],
    "created_at": ["2020-05-02T10:00:00Z", "2020-05-02T10:00:00+02:00", "2020-05-02", None, _MISSING, *_ODD],
    "text": ["reopen now", "", " ", "a \ud800 b", None, _MISSING, *_ODD],
    "source": ["web", "", None, _MISSING, *_ODD],
    "location": ["Ohio", " ", None, _MISSING, *_ODD],
    "country_code": ["US", " us ", "", None, _MISSING, *_ODD],
    "hashtags": [[], ["a", ""], "a|b", None, [1, True], ["a", None], ["\ud83d"], _MISSING, *_ODD],
    "mentions": [["m"], [None], [["x"]], "m|n", _MISSING, *_ODD],
    "user_id": ["u1", "", 12, None, _MISSING, *_ODD],
    "is_retweet": [False, True, "yes", " T ", "maybe", None, _MISSING, *_ODD],
}
# each edge line is a template; ROW stands for a valid row's JSON
_JSONL_EDGES = [
    " ROW ", "\tROW\t", "ROW\r", "\rROW",  # JSON whitespace around the object
    "\x0bROW", "ROW\x0c", "\u00a0ROW", "ROW\u2028", "\x0b", "\u00a0 \x0c",  # other whitespace
    "\ufeffROW",  # a byte-order mark
    "NaN", "Infinity", "[ROW]", '"reopen"', "5", "null",  # not an object
    "ROW{}", "ROW x", "{}{}", "{} x", "ROW ROW",  # data after the object
    '{"status_id": "j5", "text": "reopen"', "{", "", "x",  # no object, or an unterminated one
    "[" * 100_000 + "]" * 100_000,  # too deep
    _jsonl_line(9).replace('"j9"', "1" * 5_000),  # an integer too long to convert
]


@st.composite
def _jsonl_files(draw):
    # rows with valid and invalid values, edge lines and arbitrary bytes, then
    # maybe a byte-order mark at the start and a CRLF or CR line ending
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["row", "row", "edge", "bytes"]))
        if kind == "bytes":
            lines.append(draw(st.binary(max_size=40)))
            continue
        overrides = {
            name: value
            for name, values in _JSONL_VALUES.items()
            if draw(st.integers(min_value=0, max_value=3)) == 0
            for value in [draw(st.sampled_from(values))]
        }
        row = json.loads(_jsonl_line(draw(st.integers(min_value=0, max_value=3))))
        row.update(overrides)
        row = json.dumps({k: v for k, v in row.items() if v is not _MISSING})
        if kind == "edge":
            row = draw(st.sampled_from(_JSONL_EDGES)).replace("ROW", row)
        lines.append(row.encode())
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    ending = draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
    return bom + ending.join(lines) + ending


@settings(max_examples=150, deadline=None)
@given(_jsonl_files())
def test_jsonl_loader_matches_json_loads_oracle(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_bytes(body)
    try:
        c = load_corpus(path, "jsonl")
    except EmptyCorpusError as exc:
        got = type(exc).__name__
    else:
        records = [
            (r.id, r.created_at, r.text, r.source_device, r.user_location, r.country_code,
             r.hashtags, r.mentions, r.user_id, r.is_retweet)
            for r in c.records
        ]
        got = records, c.provenance.parsed, c.provenance.skipped
    assert got == jsonl_load(path, parse_timestamp)


# ---------------------------------------------------------------------------
# loading through the filters


_DAY = date(2020, 5, 2)
_WINDOWS = st.none() | st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
    lambda t: (_DAY + timedelta(days=t[0]), _DAY + timedelta(days=t[0] + t[1]))
)
_KEYWORDS = st.none() | st.sampled_from(["reopen", "OK", "ss", "\u00df"]) | st.text(min_size=1, max_size=2)
_COUNTRIES = st.none() | st.sampled_from(["US", "us", "GB"])

# valid and nearly valid rows with different days, texts, countries and ids
_ROW = st.fixed_dictionaries({
    "status_id": st.sampled_from(["c0", "r1", "r2", "r3", ""]),
    "created_at": st.sampled_from(["2020-04-30T23:59:59Z", "2020-05-01T22:30:00-04:00",
                                   "2020-05-02T10:00:00Z", "2020-05-04T00:00:00Z", "05/02/2020"]),
    "text": st.sampled_from(["reopen now", "OK then", "Stra\u00dfe REOPEN", "nothing", " "]),
    "source": st.just("web"),
    "location": st.sampled_from(["", "Ohio"]),
    "country_code": st.sampled_from(["US", "us", " GB ", ""]),
    "hashtags": st.sampled_from(["", "a|b", "\ud800"]),
    "mentions": st.just(""),
    "user_id": st.just("u1"),
    "is_retweet": st.sampled_from(["false", "true", "maybe"]),
})


def _row_line(row, fmt):
    if fmt == "jsonl":  # json.dumps writes a lone surrogate as a \ud800 escape
        return json.dumps({**row, "hashtags": row["hashtags"].split("|")}).encode()
    # a lone surrogate cannot be UTF-8; in CSV it stands for a byte that is not UTF-8
    return b",".join(b"\xff" if v == "\ud800" else f'"{v}"'.encode() for v in row.values())


def _chained(path, fmt, window, keyword, country):
    """(corpus, first stage that left no record) of loading and then filtering
    record by record."""
    c = load_corpus(path, fmt)
    start, end = window or (None, None)
    kept, removed = filter_rows(c.records, start, end, keyword, country)
    left = len(c.records)
    emptied = None
    for stage, n in removed.items():
        left -= n
        emptied = emptied or (None if left else stage)
    return Corpus(kept, c.provenance._replace(filtered=removed)), emptied


def _fused(path, fmt, window, keyword, country):
    """(corpus, stage that left no record) of loading through the filters."""
    start, end = (None, None) if window is None else (window[0].isoformat(), window[1].isoformat())
    chain = check_filters(start, end, keyword, country)
    c = load_corpus(path, fmt, chain)
    try:
        load_filtered(path, fmt, chain)
    except PipelineStageError as exc:
        assert isinstance(exc.cause, EmptyCorpusError)
        return c, exc.stage
    return c, None


def _outcome(load, *args):
    try:
        c, stage = load(*args)
    except (SchemaError, EmptyCorpusError) as exc:
        return type(exc).__name__
    provenance = c.provenance._asdict()
    return c.records, provenance, list(provenance["filtered"]), stage


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400), st.lists(_ROW, max_size=6), _WINDOWS, _KEYWORDS, _COUNTRIES)
def test_load_through_filters_equals_load_then_filter_csv(tmp_path_factory, body, rows, window,
                                                          keyword, country):
    path = tmp_path_factory.mktemp("fused") / "c.csv"
    lines = [b"c0,2020-05-02T10:00:00Z,ok text,web,,US,,,u0,false"] + [_row_line(r, "csv") for r in rows]
    path.write_bytes(CSV_HEADER.encode() + b"\n".join(lines) + b"\n" + body)
    args = path, "csv", window, keyword, country
    assert _outcome(_fused, *args) == _outcome(_chained, *args)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=300), st.lists(_ROW, max_size=6), _WINDOWS, _KEYWORDS, _COUNTRIES)
def test_load_through_filters_equals_load_then_filter_jsonl(tmp_path_factory, body, rows, window,
                                                            keyword, country):
    path = tmp_path_factory.mktemp("fused") / "c.jsonl"
    lines = [_jsonl_line(0).encode()] + [_row_line(r, "jsonl") for r in rows]
    path.write_bytes(b"\n".join(lines) + b"\n" + body)
    args = path, "jsonl", window, keyword, country
    assert _outcome(_fused, *args) == _outcome(_chained, *args)


def test_filtered_row_id_still_counts_as_seen(tmp_path):
    lines = [
        _jsonl_line(0, created_at="2020-04-01T10:00:00Z"),  # filtered out by date
        _jsonl_line(0),  # the same id again, in the window: a duplicate
        _jsonl_line(1),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    c = load_filtered(path, "jsonl", check_filters("2020-05-02", "2020-05-02", "reopen", "US"))
    assert [r.id for r in c.records] == ["j1"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)
    assert list(c.provenance.filtered.items()) == [("date_range", 1), ("keyword", 0), ("country", 0)]


def test_filtered_row_with_lone_surrogate_is_skipped_not_filtered(tmp_path):
    lines = [
        _jsonl_line(0),
        _jsonl_line(1, created_at="2020-04-01T10:00:00Z", hashtags=["\ud800"]),
        _jsonl_line(2, created_at="2020-04-01T10:00:00Z"),
    ]
    assert "\\ud800" in lines[1]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    c = load_filtered(path, "jsonl", check_filters("2020-05-02", "2020-05-02", None, None))
    assert [r.id for r in c.records] == ["j0"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)
    assert c.provenance.filtered == {"date_range": 1}


def test_all_valid_rows_outside_window_stop_at_date_range_not_load(tmp_path):
    lines = [_jsonl_line(i, created_at="2020-04-01T10:00:00Z") for i in range(3)] + ["{not json"]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PipelineStageError) as info:
        load_filtered(path, "jsonl", check_filters("2020-05-02", "2020-05-02", "reopen", "US"))
    assert info.value.stage == "date_range"
    assert isinstance(info.value.cause, EmptyCorpusError)
    path.write_text("{not json\n")
    with pytest.raises(PipelineStageError) as info:
        load_filtered(path, "jsonl", check_filters("2020-05-02", "2020-05-02", "reopen", "US"))
    assert info.value.stage == "load"


def _csv_row(i, text=None):
    return f"c{i},2020-05-02T10:00:00Z,{text or f'reopen text {i}'},web,,US,,,u{i},false"


def test_csv_short_row_reads_none_and_is_skipped(tmp_path):
    # as with csv.DictReader, a missing is_retweet is None, not "" (= false)
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER + _csv_row(0) + "\nc1,2020-05-02T10:00:00Z,reopen now,web,,US,,,u1\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0"]
    assert (c.provenance.parsed, c.provenance.skipped) == (2, 1)


def test_csv_field_over_size_limit_skipped_and_counted(tmp_path):
    assert csv.field_size_limit() == CSV_FIELD_LIMIT
    long_text = "x" * (CSV_FIELD_LIMIT + 10)
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER + "\n".join([_csv_row(0), _csv_row(1, long_text), _csv_row(2)]) + "\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0", "c2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)


def test_csv_over_long_multiline_field_is_one_skipped_row(tmp_path):
    # CSV-looking lines inside an over-long quoted field must not load as rows
    assert csv.field_size_limit() == CSV_FIELD_LIMIT
    field = '"' + "x" * (CSV_FIELD_LIMIT + 8_928) + "\n" + _csv_row(9, "smuggled row") + '\nstill the "" same field"'
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER + "\n".join([_csv_row(0), _csv_row(1, field), _csv_row(2)]) + "\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0", "c2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)
    assert csv.field_size_limit() == CSV_FIELD_LIMIT  # restored after the lenient read


def _failing_row_test(seen):
    def keep(created_at, text, country):
        seen.append(text)
        raise RuntimeError("a bug in a row test")
    return [("date_range", keep)]


def test_internal_error_in_a_row_test_leaves_the_load(tmp_path):
    # exit 4 means a bug, never bad data: only a SchemaError is a skipped row
    for fmt, line in [("csv", _csv_row(0)), ("jsonl", _jsonl_line(0))]:
        head = CSV_HEADER.encode() if fmt == "csv" else b""
        for bad in (b"", b"\xff"):  # an undecodable byte sends the file to the lenient read
            path = tmp_path / f"c.{fmt}"
            path.write_bytes(head + line.encode().replace(b"reopen", b"reopen" + bad) + b"\n")
            seen = []
            with pytest.raises(RuntimeError, match="a bug in a row test"):
                load_corpus(path, fmt, _failing_row_test(seen))
            # the test ran once, on the row as the lenient read keeps it if the byte is there
            assert len(seen) == 1 and ("\udcff" in seen[0]) == bool(bad)


def test_csv_field_limit_restored_while_the_load_error_is_held(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "c.csv"
    path.write_bytes(CSV_HEADER.encode() + _csv_row(0).encode().replace(b"reopen", b"re\xffopen") + b"\n")
    seen = []
    with pytest.raises(RuntimeError) as info:
        load_corpus(path, "csv", _failing_row_test(seen))
    assert seen == ["re\udcffopen text 0"]  # raised in the lenient read
    # the held exception keeps the frames of the load, and so a suspended row source, alive
    assert info.value.__traceback__ is not None
    assert csv.field_size_limit() == limit


def test_csv_nul_byte_never_resumes_mid_file(tmp_path):
    # the csv module refuses NUL before Python 3.11; the lenient re-read
    # then keeps the NUL as text, as later versions read it strictly
    path = tmp_path / "c.csv"
    path.write_text(CSV_HEADER + "\n".join([_csv_row(0), _csv_row(1, "re\0open"), _csv_row(2)]) + "\n")
    c = load_corpus(path, "csv")
    assert [r.text for r in c.records] == ["reopen text 0", "re\0open", "reopen text 2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 0)


def test_csv_nul_byte_kept_in_lenient_read(tmp_path):
    # an invalid byte sends the file to the lenient read on every version;
    # a NUL in another row still comes back as NUL, not as its stand-in
    path = tmp_path / "c.csv"
    rows = [_csv_row(0, "re\0open").encode(), _csv_row(1).encode().replace(b"reopen", b"re\xffopen"), _csv_row(2).encode()]
    path.write_bytes(CSV_HEADER.encode() + b"\n".join(rows) + b"\n")
    c = load_corpus(path, "csv")
    assert [r.text for r in c.records] == ["re\0open", "reopen text 2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)


def test_csv_invalid_utf8_row_skipped_and_counted(tmp_path):
    path = tmp_path / "c.csv"
    rows = [_csv_row(0).encode(), _csv_row(1).encode().replace(b"reopen", b"re\xffopen"), _csv_row(2).encode()]
    path.write_bytes(CSV_HEADER.encode() + b"\n".join(rows) + b"\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0", "c2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)


def test_csv_invalid_utf8_in_ignored_column_keeps_row(tmp_path):
    path = tmp_path / "c.csv"
    header = CSV_HEADER.strip() + ",extra\n"
    path.write_bytes(header.encode() + _csv_row(0).encode() + b",\xfe\xff\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0"]
    assert c.provenance.skipped == 0


def test_jsonl_surrogate_escapes_skipped_in_valid_utf8(tmp_path):
    lines = [
        _jsonl_line(0),
        _jsonl_line(1, text="reopen \ud800 now"),  # json.dumps writes the \ud800 escape
        _jsonl_line(2, hashtags=["\ud83d"]).replace("\\ud83d", "\\uD83D"),
        _jsonl_line(3, text="a valid pair \U0001F600, a quote \" and a \\u0022 escape"),
        _jsonl_line(4, text="\ud83d\ude00 as an escaped pair"),
        "[" * 100_000,
        '{"status_id": ' + "1" * 5000 + "}",
    ]
    assert "\\ud800" in lines[1] and "\\uD83D" in lines[2] and "\\ud83d\\ude00" in lines[4]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    c = load_corpus(path, "jsonl")
    assert [r.id for r in c.records] == ["j0", "j3", "j4"]
    assert c.records[2].text.startswith("\U0001F600")
    assert (c.provenance.parsed, c.provenance.skipped) == (7, 4)


@pytest.mark.parametrize(
    "field, value",
    [
        ("hashtags", ["reopen", None, 5, ["x"]]),
        ("hashtags", 5),
        ("mentions", [None]),
        ("mentions", {"m": "n"}),
        ("text", {"a": 1}),
        ("text", 5),
        ("status_id", True),
        ("status_id", 7.0),
        ("status_id", ["j9"]),
        ("source", 5),
        ("location", ["x"]),
        ("country_code", False),
        ("user_id", {"a": 1}),
        ("is_retweet", 0),
    ],
)
def test_jsonl_value_of_the_wrong_type_is_a_skipped_row_before_any_filter(tmp_path, field, value):
    # rows the date filter removes, so a bad row counts as skipped, not filtered
    lines = [
        _jsonl_line(0),
        _jsonl_line(1, created_at="2020-04-01T10:00:00Z", **{field: value}),
        _jsonl_line(2, **{field: value}),
        _jsonl_line(3, created_at="2020-04-01T10:00:00Z"),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    c = load_filtered(path, "jsonl", check_filters("2020-05-02", "2020-05-02", None, None))
    assert [r.id for r in c.records] == ["j0"]
    assert (c.provenance.parsed, c.provenance.skipped) == (4, 2)
    assert c.provenance.filtered == {"date_range": 1}


def test_jsonl_integer_ids_and_null_text_fields_are_read_and_written_back_as_strings(tmp_path):
    lines = [
        _jsonl_line(0, status_id=7, user_id=0, source=None, country_code=None),
        _jsonl_line(1, status_id="7"),  # the id 7 again
        _jsonl_line(2, status_id=-12, user_id=10**20, location=None, is_retweet="yes"),
        _jsonl_line(3, status_id=0),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    c = load_corpus(path, "jsonl")
    assert [(r.id, r.user_id, r.source_device, r.country_code) for r in c.records] == [
        ("7", "0", "", None),
        ("-12", "100000000000000000000", "Twitter for iPhone", "US"),
        ("0", "user3", "Twitter for iPhone", "US"),
    ]
    assert (c.provenance.parsed, c.provenance.skipped) == (4, 1)
    out = tmp_path / "out.jsonl"
    write_corpus_jsonl(c, out)
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(row["status_id"], row["user_id"], row["is_retweet"]) for row in written] == [
        ("7", "0", False), ("-12", "100000000000000000000", True), ("0", "user3", False),
    ]


def test_jsonl_invalid_utf8_line_skipped(tmp_path):
    lines = [_jsonl_line(0).encode(), _jsonl_line(1).encode().replace(b"reopen", b"re\xc3open"), _jsonl_line(2).encode()]
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    c = load_corpus(path, "jsonl")
    assert [r.id for r in c.records] == ["j0", "j2"]
    assert (c.provenance.parsed, c.provenance.skipped) == (3, 1)


# ---------------------------------------------------------------------------
# strict RFC 3339 timestamps


_RFC3339_ACCEPTED = {
    "2020-05-02T10:00:00Z": "2020-05-02T10:00:00+00:00",
    "2020-05-02t10:00:00z": "2020-05-02T10:00:00+00:00",
    "2020-05-02 10:00:00+02:00": "2020-05-02T08:00:00+00:00",
    "2020-05-02T10:00:00-00:00": "2020-05-02T10:00:00+00:00",
    "2020-05-02T10:00:00.5Z": "2020-05-02T10:00:00.500000+00:00",
    "2020-05-02T10:00:00.123456789Z": "2020-05-02T10:00:00.123456+00:00",
    "2020-05-02T23:30:00.1-04:30": "2020-05-03T04:00:00.100000+00:00",
    " 2020-05-02T10:00:00Z\n": "2020-05-02T10:00:00+00:00",
}
# valid layouts and fields whose instant falls outside datetime's range in UTC
_BEYOND_UTC = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
_RFC3339_REJECTED = [
    "20200502T100000Z",  # basic format
    "2020-W18-6T10:00:00Z",  # week date
    "2020-123T10:00:00Z",  # ordinal date
    "2020-05-02T10:00Z",  # no seconds
    "2020-05-02T10Z",
    "2020-05-02T10:00:00",  # no offset
    "2020-05-02T10:00:00+0200",
    "2020-05-02T10:00:00+02",
    "2020-05-02T10:00:00+02:00:00",
    "2020-05-02T10:00:00+00:75",
    "2020-05-02T10:00:00+24:00",
    "2020-05-02T10:00:00.Z",
    "2020-05-02T10:00:00,5Z",
    "2020-05-02X10:00:00Z",
    "2020-05-02T24:00:00Z",
    "2020-05-02T10:60:00Z",
    "2020-05-02T10:00:60Z",  # leap second: valid RFC 3339, not representable
    "2020-02-30T10:00:00Z",
    "2020-13-02T10:00:00Z",
    "0000-05-02T10:00:00Z",
    "\u0662\u0660\u0662\u0660-05-02T10:00:00Z",  # non-ASCII digits
    "",
    *_BEYOND_UTC,
]


def test_timestamp_accepted_set_is_rfc3339_on_every_version():
    # fixed expectations: the same set is accepted whatever fromisoformat allows
    for value, want in _RFC3339_ACCEPTED.items():
        assert parse_timestamp(value).isoformat() == want, value
    for value in _RFC3339_REJECTED:
        with pytest.raises(SchemaError):
            parse_timestamp(value)


@pytest.mark.parametrize("stamp", _BEYOND_UTC)
def test_csv_timestamp_beyond_utc_is_a_skipped_row(tmp_path, stamp):
    path = tmp_path / "c.csv"
    beyond = _csv_row(1).replace("2020-05-02T10:00:00Z", stamp)
    path.write_text(CSV_HEADER + _csv_row(0) + "\n" + beyond + "\n")
    c = load_corpus(path, "csv")
    assert [r.id for r in c.records] == ["c0"]
    assert (c.provenance.parsed, c.provenance.skipped) == (2, 1)


@pytest.mark.parametrize("stamp", _BEYOND_UTC)
def test_jsonl_timestamp_beyond_utc_is_a_skipped_row(tmp_path, stamp):
    path = tmp_path / "c.jsonl"
    path.write_text(_jsonl_line(1, created_at=stamp) + "\n" + _jsonl_line(0) + "\n")
    c = load_corpus(path, "jsonl")
    assert [r.id for r in c.records] == ["j0"]
    assert (c.provenance.parsed, c.provenance.skipped) == (2, 1)
    assert main(["ingest", "--input", str(path), "--format", "jsonl",
                 "--output", str(tmp_path / "x.jsonl")]) == 0


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789-:T.Zz+ tW", max_size=32))
def test_timestamp_accepts_only_the_rfc3339_layout(value):
    layout = re.fullmatch(
        r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d(\.\d+)?([Zz]|[+-]\d\d:\d\d)", value.strip(), re.ASCII
    )
    try:
        parse_timestamp(value)
    except SchemaError:
        return
    assert layout is not None


_JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "İ", "\U0001F600"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            _JSON_TEXT,
            st.none() | _JSON_TEXT,
            st.none() | _JSON_TEXT,
            st.lists(_JSON_TEXT, max_size=3),
            st.lists(_JSON_TEXT, max_size=3),
            st.booleans(),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=5,
    )
)
def test_write_jsonl_matches_json_dumps(tmp_path_factory, rows):
    records = []
    for i, (text, location, country, hashtags, mentions, retweet, micros) in enumerate(rows):
        record = make_record(
            rid=f"{text}{i}", text=text, device=text, location=location, country=country,
            hashtags=hashtags, mentions=mentions, user=text[::-1], retweet=retweet,
        )
        record.created_at += timedelta(microseconds=micros)
        records.append(record)
    path = tmp_path_factory.mktemp("jsonl") / "out.jsonl"
    write_corpus_jsonl(make_corpus(records), path)
    assert path.read_bytes() == "".join(jsonl_line(r) for r in records).encode("utf-8")
