"""CSV/JSON serialization for report objects. All writers emit UTF-8 with
LF line endings so repeated runs are byte-identical."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

from .analytics import DailySeries, DeviceGroupReport, Histogram, PolarityDistribution, RankedTable
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


def ranked_table_to_csv(table: RankedTable, path) -> None:
    _write_csv(path, ["rank", "key", "count"], [(rank, key, count) for key, count, rank in table.rows])


def ranked_table_to_dict(table: RankedTable) -> dict:
    return {
        "label": table.label,
        "rows": [{"rank": rank, "key": key, "count": count} for key, count, rank in table.rows],
    }


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


def device_report_to_csv(report: DeviceGroupReport, path) -> None:
    _write_csv(
        path,
        ["device", "n_records", "category", "ratio"],
        (
            (device, n, name, ratio)
            for device, (n, ratios) in report.groups.items()
            for name, ratio in ratios.items()
        ),
    )


def device_report_to_dict(report: DeviceGroupReport) -> dict:
    return {
        device: {"n_records": n, "category_ratios": dict(ratios)}
        for device, (n, ratios) in report.groups.items()
    }


def daily_series_to_csv(series: DailySeries, path) -> None:
    header = ["date"] + list(EMOTION_CLASSES)
    rows = []
    for i, day in enumerate(series.days):
        rows.append([day.isoformat()] + [series.values[cls][i] for cls in EMOTION_CLASSES])
    _write_csv(path, header, rows)


def daily_series_to_dict(series: DailySeries) -> dict:
    return {
        "days": [d.isoformat() for d in series.days],
        "values": {cls: series.values[cls] for cls in EMOTION_CLASSES},
    }


def histogram_to_dict(hist: Histogram) -> dict:
    return {"lo": hist.lo, "width": hist.width, "counts": hist.counts}


def distribution_to_csv(dist: PolarityDistribution, path) -> None:
    """The three shares, then one row per histogram bin."""
    hist = dist.histogram
    rows = [
        ("positive_share", dist.pos_share),
        ("negative_share", dist.neg_share),
        ("neutral_share", dist.neu_share),
    ]
    for i, count in enumerate(hist.counts):
        lo = hist.lo + i * hist.width
        rows.append((f"bin[{lo},{lo + hist.width})", count))
    _write_csv(path, ["key", "value"], rows)


def distribution_to_dict(
    dist: PolarityDistribution,
    emotion_totals: EmotionProfile | None = None,
    extremes: tuple | None = None,
) -> dict:
    """Corpus-level sentiment summary; this is the scenario-ready aggregate."""
    out = {
        "positive_share": dist.pos_share,
        "negative_share": dist.neg_share,
        "neutral_share": dist.neu_share,
        "histogram": histogram_to_dict(dist.histogram),
    }
    if emotion_totals is not None:
        out["emotion_totals"] = emotion_totals_to_dict(emotion_totals)
    if extremes is not None:
        low, high = extremes
        out["extremes"] = {"min": low.value, "max": high.value}
    return out


def scenario_to_dict(outcome: ScenarioOutcome, trend: SentimentTrend, timing: str) -> dict:
    """The `scenario` command's outcome, with the trend and timing it came from."""
    inputs = {"pos_share": trend.pos_share, "neg_share": trend.neg_share, "timing": timing}
    inputs["dominant_emotions"] = trend.dominant_emotions
    return {**asdict(outcome), "inputs": inputs}
