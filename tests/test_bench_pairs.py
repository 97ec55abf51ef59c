"""scripts/bench_pairs.py's summary: medians, the parent's interquartile
range and the pairs each side won, by the metric's direction."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _run(side, pair, run_s, rate):
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "records_per_s": {"value": rate, "unit": "1/s"}}
    return {"side": side, "pair": pair, "result": {"correct": True, "metrics": metrics}}


def test_summary_counts_pairs_by_direction_and_ties_for_neither():
    runs = [
        _run("parent", 1, 0.20, 100.0), _run("change", 1, 0.15, 120.0),
        _run("change", 2, 0.16, 110.0), _run("parent", 2, 0.18, 110.0),  # a tie in records_per_s
        _run("parent", 3, 0.22, 90.0), _run("change", 3, 0.23, 80.0),
        _run("parent", 4, 0.19, 95.0), _run("change", 4, None, None),
    ]
    runs[-1]["result"] = None  # a run that printed no result leaves its pair out
    summary = _summarize()(runs, {"run_s": "lower", "records_per_s": "higher"})
    assert summary["run_s"] == {
        "parent_median": 0.20,
        "change_median": 0.16,
        "parent_iqr": pytest.approx(0.02),  # inclusive quartiles 0.19 and 0.21
        "pairs": 3,
        "change_lower_pairs": 2,
    }
    assert summary["records_per_s"]["change_higher_pairs"] == 1
    assert summary["records_per_s"]["parent_iqr"] == 105.0 - 95.0
