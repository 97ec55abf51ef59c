"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles (nested loops,
plain dicts) and never calls into the package's own counting or scoring
paths, so oracle-equality tests actually cross-check two implementations.
The one exception is `per_record_run`, which checks how the pipeline
composes the stages, not the stages themselves; its date, keyword and
country filters are `filter_rows`, its bot filter `bot_filter`, its n-gram
tables `ranked_ngrams`, and its score extremes `min_max`.
"""

from __future__ import annotations

import csv
import json
import math
import re
from datetime import timezone
from pathlib import Path


def clean_chunk(text):
    """The cleaning rules, one pass each: strip URLs, strip @mentions, drop
    '#', lowercase, punctuation (anything but ASCII letters, digits,
    apostrophes and whitespace) to space, apostrophes not between two
    letters/digits to space, collapse whitespace."""
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text, flags=re.IGNORECASE)
    text = re.sub(r"@\w+", " ", text)
    text = text.replace("#", "")
    text = text.lower()
    text = re.sub(r"[^a-z0-9'\s]+", " ", text)
    text = re.sub(r"(?<![a-z0-9])'|'(?![a-z0-9])", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def prepare(raw):
    """Multi-pass text preparation: strip URLs from the raw text, split it on
    runs of terminal punctuation, clean each chunk on its own, and keep the
    chunks that still hold words, as token tuples."""
    without_urls = re.sub(r"(?:https?://|www\.)\S+", " ", raw, flags=re.IGNORECASE)
    sentences = []
    for chunk in re.split(r"[.!?]+", without_urls):
        words = clean_chunk(chunk).split()
        if words:
            sentences.append(tuple(words))
    return sentences


def ngram_counts(texts, n):
    """Plain-dict n-gram counting over each text's sentences, keyed by the
    space-joined gram."""
    counts = {}
    for sentences in texts:
        for sentence in sentences:
            if len(sentence) < n:
                continue
            for i in range(len(sentence) - n + 1):
                gram = " ".join(sentence[i : i + n])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def ranked_ngrams(counts, top=None):
    """The (gram, count) items of `counts` by count descending, ties by the
    gram; the first `top` of them (all when `top` is None)."""
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top]


def score_sentence(tokens, entries, shifters, window_before=4, window_after=2,
                   z=0.8, adversative_weight=0.85):
    """Literal transcription of the sentence scoring rule."""
    if len(tokens) == 0:
        return 0.0
    total = 0.0
    for i in range(len(tokens)):
        if tokens[i] not in entries:
            continue
        p = entries[tokens[i]]
        lo = i - window_before
        if lo < 0:
            lo = 0
        hi = i + window_after
        if hi > len(tokens) - 1:
            hi = len(tokens) - 1
        c = 0
        n_amp = 0
        n_deamp = 0
        adv = 1.0
        for j in range(lo, hi + 1):
            kind = shifters.get(tokens[j])
            if kind == "negator":
                c += 1
            elif kind == "amplifier":
                n_amp += 1
            elif kind == "deamplifier":
                n_deamp += 1
            elif kind == "adversative":
                if j < i:
                    adv = adv * (1.0 + adversative_weight * 0.25)
                elif j > i:
                    adv = adv * (1.0 - adversative_weight * 0.25)
        if c % 2 == 1:
            n_deamp = n_deamp + n_amp
            n_amp = 0
        a = z * n_amp
        d = -z * n_deamp
        if d < -1.0:
            d = -1.0
        weighted = (1.0 + a + d) * p * ((-1.0) ** c) * adv
        total += weighted
    return total / math.sqrt(len(tokens))


def emotion_counts(tokens, lexicon_entries, categories):
    """Count each category by scanning every token occurrence."""
    out = {c: 0 for c in categories}
    for token in tokens:
        if token in lexicon_entries:
            for category in lexicon_entries[token]:
                out[category] += 1
    return out


def count_items(list_of_lists):
    counts = {}
    for items in list_of_lists:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    return counts


def filter_rows(records, start, end, keyword, country):
    """Record-by-record reference of the date, keyword and country filters,
    where None turns a filter off (the window by its start). Returns the kept
    records and {stage: records removed} for the filters that are on, in
    chain order; a record counts under the first filter it fails."""
    stages = []
    if start is not None:
        stages.append("date_range")
    if keyword is not None:
        stages.append("keyword")
    if country is not None:
        stages.append("country")
    removed = {stage: 0 for stage in stages}
    kept = []
    for r in records:
        failed = None
        for stage in stages:
            if stage == "date_range":
                day = r.created_at.astimezone(timezone.utc).date()
                passes = start <= day and day <= end
            elif stage == "keyword":
                passes = keyword.casefold() in r.text.casefold()
            else:
                passes = r.country_code is not None and r.country_code.upper() == country.upper()
            if not passes:
                failed = stage
                break
        if failed is None:
            kept.append(r)
        else:
            removed[failed] += 1
    return kept, removed


def bot_filter(records, policy):
    """Record-by-record reference of the bot filter, from the README's three
    rules, each tested over all of `records`: (a) a record whose text equals,
    up to case and runs of whitespace, that of an earlier record (in input
    order) at most `dup_window_seconds` away is a duplicate; (b) every record
    of a user with more than `burst_per_minute` posts inside some 60 s span
    goes; (c) so does a record with fewer than `min_distinct_tokens` distinct
    tokens. Returns the kept records and {rule: records removed}, each removed
    record counted under the first rule it meets, in the order duplicate,
    burst, low_token."""
    words = [r.text.casefold().split() for r in records]
    times = {}
    for r in records:
        times.setdefault(r.user_id, []).append(r.created_at)
    burst_users = set()
    for user, stamps in times.items():
        # the fullest 60 s span starts at one of the user's posts
        for start in stamps:
            inside = [t for t in stamps if 0 <= (t - start).total_seconds() <= 60]
            if len(inside) > policy.burst_per_minute:
                burst_users.add(user)
    removed = {"duplicate": 0, "burst": 0, "low_token": 0}
    kept = []
    for i, r in enumerate(records):
        duplicate = False
        for j in range(i):
            gap = abs((r.created_at - records[j].created_at).total_seconds())
            if words[j] == words[i] and gap <= policy.dup_window_seconds:
                duplicate = True
        if duplicate:
            removed["duplicate"] += 1
        elif r.user_id in burst_users:
            removed["burst"] += 1
        elif len(set(words[i])) < policy.min_distinct_tokens:
            removed["low_token"] += 1
        else:
            kept.append(r)
    return kept, removed


def filter_chain_ids(records, start, end, keyword, country, policy):
    """Record-by-record reference of the full filtering chain; returns kept ids.

    `bot_filter` runs over the survivors of the date/keyword/country stages,
    like the real chain.
    """
    survivors, _ = filter_rows(records, start, end, keyword, country)
    kept, _ = bot_filter(survivors, policy)
    return {r.id for r in kept}


def min_max(values):
    """The least and greatest of `values`, the first of tied ones, by a scan."""
    lo = values[0]
    hi = values[0]
    for v in values:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi


def scenario_trend(pos, neg, counts, classes):
    """The trend of a report with shares `pos`, `neg` and emotion `counts`
    ({class: n}, a class it lacks counts 0): (direction, pos, neg, the first
    two of `classes` by count, earlier first on ties, that have a hit), or
    (error name, message) for a share that is NaN or outside [0, 1], checked
    positive first, or for equal shares."""
    for key, share in (("positive_share", pos), ("negative_share", neg)):
        if share != share or share < 0 or share > 1:
            return "SchemaError", f"{key} must be a share in [0, 1], got {share}"
    if pos == neg:
        return "TiedTrendError", f"positive and negative shares tie at {pos}"
    left = list(classes)
    dominant = []
    for _ in range(2):
        best = left[0]
        for cls in left:
            if counts.get(cls, 0) > counts.get(best, 0):
                best = cls
        left.remove(best)
        if counts.get(best, 0) > 0:
            dominant.append(best)
    return ("positive" if pos > neg else "negative"), float(pos), float(neg), dominant


def jsonl_line(record):
    """One filtered-corpus line as json.dumps writes it: a dict of the ten
    fields, ensure_ascii off, keys sorted, default separators."""
    return json.dumps(
        {
            "status_id": record.id,
            "created_at": record.created_at.isoformat().replace("+00:00", "Z"),
            "text": record.text,
            "source": record.source_device,
            "location": record.user_location,
            "country_code": record.country_code,
            "hashtags": record.hashtags,
            "mentions": record.mentions,
            "user_id": record.user_id,
            "is_retweet": record.is_retweet,
        },
        ensure_ascii=False,
        sort_keys=True,
    ) + "\n"


def dictreader_load(path, parse_timestamp):
    """The CSV loader as it read rows through csv.DictReader: returns
    (records as field tuples, parsed, skipped), or the name of the error
    the loader raises. `parse_timestamp` turns a created_at string into a
    datetime or raises."""
    true_strings = {"true", "t", "1", "yes"}
    false_strings = {"false", "f", "0", "no", ""}

    def split_tags(value):
        if value is None:
            return []
        return [part for part in str(value).split("|") if part]

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for column in ("status_id", "created_at", "text", "source", "location",
                       "country_code", "hashtags", "mentions", "user_id", "is_retweet"):
            if column not in header:
                return "SchemaError"
        records = []
        seen = set()
        parsed = 0
        skipped = 0
        for row in reader:
            parsed += 1
            rid = str(row.get("status_id") or "").strip()
            text = str(row.get("text") or "")
            flag = str(row.get("is_retweet")).strip().lower()
            try:
                if not rid or rid in seen or not text.strip():
                    raise ValueError("bad row")
                created = parse_timestamp(str(row.get("created_at") or ""))
                if flag not in true_strings and flag not in false_strings:
                    raise ValueError("bad bool")
            except Exception:
                skipped += 1
                continue
            seen.add(rid)
            records.append((
                rid,
                created,
                text,
                str(row.get("source") or ""),
                str(row.get("location") or "").strip() or None,
                str(row.get("country_code") or "").strip() or None,
                split_tags(row.get("hashtags")),
                split_tags(row.get("mentions")),
                str(row.get("user_id") or ""),
                flag in true_strings,
            ))
    if not records:
        return "EmptyCorpusError"
    return records, parsed, skipped


def jsonl_load(path, parse_timestamp):
    """The JSONL loader as its contract reads it: every line that holds more
    than whitespace is one row, decoded with json.loads, which must give an
    object. Each text field must be a JSON string or null, except that the ids
    may also be integers (not bools), read as decimal strings; `is_retweet`
    must be a bool or a string; hashtags and mentions null, a string or a list
    of strings; any other value makes a row bad. Returns (records as field
    tuples, parsed, skipped), or the name of the error the loader raises.
    `parse_timestamp` turns a created_at string into a datetime or raises."""
    true_strings = {"true", "t", "1", "yes"}
    false_strings = {"false", "f", "0", "no", ""}

    def text_of(row, key, integer=False):
        # a string, "" for null or absent, and the decimal string of an allowed integer
        value = row.get(key)
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if integer and isinstance(value, int) and not isinstance(value, bool):
            return str(value)
        raise ValueError(f"bad {key}")

    def split_tags(value):
        # null, a "|"-separated string or a list of strings; else the row is bad
        if value is None:
            return []
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return [v for v in value if v]
        if not isinstance(value, str):
            raise ValueError("bad tags")
        return [part for part in value.split("|") if part]

    # an undecodable byte becomes a lone surrogate, which skips its row
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = list(fh)
    records = []
    seen = set()
    parsed = 0
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        parsed += 1
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("not an object")
            rid = text_of(row, "status_id", integer=True).strip()
            text = row.get("text")
            if not rid or rid in seen or not isinstance(text, str) or not text.strip():
                raise ValueError("bad row")
            created = parse_timestamp(text_of(row, "created_at"))
            flag = row.get("is_retweet")
            if not isinstance(flag, bool):
                if not isinstance(flag, str):
                    raise ValueError("bad bool")
                flag = flag.strip().lower()
                if flag not in true_strings and flag not in false_strings:
                    raise ValueError("bad bool")
                flag = flag in true_strings
            record = (
                rid,
                created,
                text,
                text_of(row, "source"),
                text_of(row, "location").strip() or None,
                text_of(row, "country_code").strip() or None,
                split_tags(row.get("hashtags")),
                split_tags(row.get("mentions")),
                text_of(row, "user_id", integer=True),
                flag,
            )
            for field in record[:1] + record[2:9]:
                for part in field if isinstance(field, list) else [field or ""]:
                    part.encode("utf-8")
        except Exception:
            skipped += 1
            continue
        seen.add(rid)
        records.append(record)
    if not records:
        return "EmptyCorpusError"
    return records, parsed, skipped


def device_ratios(records, texts, categories, devices):
    """Per device: {"n_records": its record count, "category_ratios":
    {category: share of its records whose text contains any of the
    category's keywords}}, by rescanning every text."""
    out = {}
    for device in devices:
        group = [text for record, text in zip(records, texts) if record.source_device == device]
        ratios = {}
        for name, keywords in categories.items():
            hits = 0
            for text in group:
                for kw in keywords:
                    if kw in text:
                        hits += 1
                        break
            ratios[name] = hits / len(group) if group else 0.0
        out[device] = {"n_records": len(group), "category_ratios": ratios}
    return out


def daily_shares(records, profiles, classes):
    """{day: {class: share of the day's emotion hits}}, zeros on a day
    without hits, by adding each record's counts one class at a time."""
    by_day = {}
    for record, profile in zip(records, profiles):
        day = record.created_at.date()
        if day not in by_day:
            by_day[day] = {c: 0 for c in classes}
        for c in classes:
            by_day[day][c] = by_day[day][c] + getattr(profile, c)
    shares = {}
    for day, bucket in by_day.items():
        total = 0
        for c in classes:
            total += bucket[c]
        shares[day] = {c: (bucket[c] / total if total else 0.0) for c in classes}
    return shares


def per_record_run(cfg, out_dir):
    """Write every report of a run of `cfg` into `out_dir`, composing
    `filter_rows`, `bot_filter`, `ranked_ngrams` and the package's other stage functions,
    with each record masked, prepared, stopword-filtered, classified and
    scored on its own, whatever text other records carry. Returns the number
    of lexicon words masked, counted with the pattern's `findall` apart from
    the masking."""
    from dataclasses import replace
    from datetime import date

    from tweetsent import analytics, corpus, emotion, exports, ngrams, pipeline, polarity, textprep

    start, end = date.fromisoformat(cfg.start_date), date.fromisoformat(cfg.end_date)
    c = corpus.load_corpus(cfg.input, cfg.format)
    kept, removed = filter_rows(c.records, start, end, cfg.keyword, cfg.country)
    kept, bots = bot_filter(kept, pipeline.group(corpus.BotPolicy, cfg))
    masks: dict[str, str] = {}
    pattern = textprep.mask_pattern(textprep.load_abusive_lexicon(cfg.abusive_lexicon_path))
    occurrences = sum(len(pattern.findall(r.text)) for r in kept) if pattern else 0
    masked = [replace(r, text=textprep.mask_text(r.text, pattern, masks)[0]) for r in kept]
    c = corpus.Corpus(masked, c.provenance._replace(filtered={**removed, **bots}))
    stoplist = textprep.load_stoplist(cfg.stopwords_path)
    emo_lex = emotion.load_emotion_lexicon(cfg.emotion_lexicon_path)
    pol_lex = polarity.load_polarity_lexicon(cfg.polarity_lexicon_path, cfg.shifter_lexicon_path)
    params = pipeline.group(polarity.ScoringParams, cfg)
    full, stopped, profiles, scores = [], [], [], []
    for record in c.records:
        sentences = textprep.prepare(record.text)
        kept = textprep.remove_stopwords(sentences, stoplist)
        full.append(sentences)
        stopped.append(kept)
        profiles.append(emotion.classify(kept, emo_lex))
        scores.append(polarity.score_text(sentences, pol_lex, params))

    out = Path(out_dir)
    out.mkdir(parents=True)
    exports.write_json(c.provenance._asdict(), out / "provenance.json")
    corpus.write_corpus_jsonl(c, out / "filtered_corpus.jsonl")
    tables = {}
    for n in (1, 2, 3, 4):
        top = max(cfg.ngram_top, cfg.wordcloud_top) if n == 1 else cfg.ngram_top
        tables[n] = ranked_ngrams(ngram_counts(stopped if n <= 2 else full, n), top)
        exports.ngram_table_to_csv(tables[n][: cfg.ngram_top], out / f"ngrams_{n}.csv")
    cloud = ngrams.word_cloud_weights(tables[1], cfg.wordcloud_top)
    exports.write_json(cloud, out / "wordcloud.json")
    rankings = {
        "mentions": analytics.rank_mentions(c, cfg.rank_top),
        "hashtags": analytics.rank_hashtags(c, cfg.rank_top),
        "locations_tagged": analytics.rank_locations(c, cfg.rank_top, "tagged"),
        "locations_stated": analytics.rank_locations(c, cfg.rank_top, "stated"),
    }
    for name, table in rankings.items():
        exports.ranked_table_to_csv(table, out / f"{name}.csv")
    cleaned = [" ".join(token for sentence in ts for token in sentence) for ts in full]
    devices = analytics.device_group_report(c, cleaned, cfg.device_categories)
    exports.write_json(devices, out / "devices.json")
    totals = {
        "counts": {c: sum(getattr(p, c) for p in profiles) for c in emotion.ALL_CATEGORIES},
        "token_total": sum(p.token_total for p in profiles),
    }
    exports.write_json(totals, out / "emotion_totals.json")
    exports.daily_series_to_csv(analytics.daily_emotion_series(c, profiles), out / "emotion_daily.csv")
    with open(out / "polarity_scores.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["status_id", "value", "n_sentences", "label"])
        for record, score in zip(c.records, scores):
            writer.writerow(
                [record.id, score.value, score.n_sentences, polarity.classify_polarity(score)]
            )
    payload = analytics.polarity_distribution(scores)
    low, high = min_max([score.value for score in scores])
    payload["extremes"] = {"min": low, "max": high}
    payload["emotion_totals"] = totals
    exports.write_json(payload, out / "distribution.json")
    return occurrences
