"""The JSON writer, the CSV flatteners of the reports that `analytics`
builds as JSON values, and the JSON values of the n-gram rows, word cloud,
emotion totals and scenario outcome. All writers emit UTF-8 with LF line
endings so repeated runs are byte-identical."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

from .corpus import Corpus
from .emotion import ALL_CATEGORIES, EMOTION_CLASSES, EmotionProfile
from .ngrams import NgramTable
from .polarity import PolarityScore, classify_polarity
from .scenario import ScenarioOutcome, SentimentTrend


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def ngram_table_to_csv(table: NgramTable, path, top: int | None = None) -> None:
    entries = table.entries if top is None else table.entries[:top]
    _write_csv(
        path,
        ["rank", "gram", "count"],
        [(rank, " ".join(gram), count) for rank, (gram, count) in enumerate(entries, 1)],
    )


def ngram_table_to_rows(table: NgramTable, top: int | None = None) -> list[dict]:
    entries = table.entries if top is None else table.entries[:top]
    return [
        {"rank": rank, "gram": " ".join(gram), "count": count}
        for rank, (gram, count) in enumerate(entries, 1)
    ]


def ranked_table_to_csv(table: dict, path) -> None:
    _write_csv(path, ["rank", "key", "count"], [(r["rank"], r["key"], r["count"]) for r in table["rows"]])


def word_cloud_to_dict(weights: list[tuple[str, float]]) -> list[dict]:
    return [{"word": w, "weight": weight} for w, weight in weights]


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


def emotion_totals_to_dict(totals: EmotionProfile) -> dict:
    *counts, token_total = totals
    return {"counts": dict(zip(ALL_CATEGORIES, counts)), "token_total": token_total}


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


def scenario_to_dict(outcome: ScenarioOutcome, trend: SentimentTrend, timing: str) -> dict:
    """The `scenario` command's outcome, with the trend and timing it came from."""
    inputs = {"pos_share": trend.pos_share, "neg_share": trend.neg_share, "timing": timing}
    inputs["dominant_emotions"] = trend.dominant_emotions
    return {**asdict(outcome), "inputs": inputs}
