"""The JSON writer and the CSV writers of the n-gram tables, the scores and
the reports that `analytics` builds as JSON values. All writers emit UTF-8
with LF line endings so repeated runs are byte-identical."""

from __future__ import annotations

import csv
import json

from .corpus import Corpus
from .emotion import ALL_CATEGORIES, EMOTION_CLASSES, EmotionProfile
from .polarity import PolarityScore, classify_polarity


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def ngram_table_to_csv(table: list[tuple[str, int]], path) -> None:
    _write_csv(path, ["rank", "gram", "count"], [(rank, *row) for rank, row in enumerate(table, 1)])


def ranked_table_to_csv(table: dict, path) -> None:
    _write_csv(path, ["rank", "key", "count"], [(r["rank"], r["key"], r["count"]) for r in table["rows"]])


def scores_to_csv(
    corpus: Corpus,
    scores: list[PolarityScore],
    path,
    profiles: list[EmotionProfile] | None = None,
) -> None:
    """One row per record: its polarity score and label, then, given
    `profiles`, its count in each emotion category. Rows are written as
    they are made, so no row list is held."""
    header = ["status_id", "value", "n_sentences", "label"]
    rows = (
        (record.id, score.value, score.n_sentences, classify_polarity(score))
        for record, score in zip(corpus.records, scores)
    )
    if profiles is not None:
        header += ALL_CATEGORIES
        rows = (row + profile[:-1] for row, profile in zip(rows, profiles))
    _write_csv(path, header, rows)


def device_report_to_csv(report: dict, path) -> None:
    _write_csv(
        path,
        ["device", "n_records", "category", "ratio"],
        (
            (device, group["n_records"], name, ratio)
            for device, group in report.items()
            for name, ratio in group["category_ratios"].items()
        ),
    )


def daily_series_to_csv(series: dict, path) -> None:
    values = series["values"]
    _write_csv(
        path,
        ["date", *EMOTION_CLASSES],
        zip(series["days"], *[values[cls] for cls in EMOTION_CLASSES]),
    )


def distribution_to_csv(dist: dict, path) -> None:
    """The three shares, then one row per histogram bin."""
    hist = dist["histogram"]
    rows = [(key, dist[key]) for key in ("positive_share", "negative_share", "neutral_share")]
    for i, count in enumerate(hist["counts"]):
        lo = hist["lo"] + i * hist["width"]
        rows.append((f"bin[{lo},{lo + hist['width']})", count))
    _write_csv(path, ["key", "value"], rows)
