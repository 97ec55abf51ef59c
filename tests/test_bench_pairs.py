"""scripts/bench_pairs.py's summary: medians, the parent's interquartile
range, the pairs each side won by the metric's direction, and the verdicts
`gain_shown` and `within_bound`; and its exit code, which needs every run
checked against the reference digests."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarize():
    return _module().summarize


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
    summary = _summarize()(runs, {"run_s": "lower", "records_per_s": "higher"}, {"run_s": 0.25})
    assert summary["run_s"] == {
        "parent_median": 0.20,
        "change_median": 0.16,
        "parent_iqr": pytest.approx(0.02),  # inclusive quartiles 0.19 and 0.21
        "pairs": 3,
        "change_lower_pairs": 2,
        "gain_shown": False,  # 2 of 3 pairs
        "within_bound": True,
    }
    assert "within_bound" not in summary["records_per_s"]  # no bound: a per-layer metric
    assert summary["records_per_s"]["change_higher_pairs"] == 1
    assert summary["records_per_s"]["parent_iqr"] == 105.0 - 95.0


def _pairs(parent, change):
    return [_run(side, pair, value, value)
            for pair, values in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), values)]


_PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # quartiles 0.99 and 1.01


@pytest.mark.parametrize(
    "change, shown",
    [
        ([p - 0.05 for p in _PARENT], True),  # every pair, by more than the IQR of 0.02
        ([p - 0.05 for p in _PARENT[:9]] + [1.10], True),  # 9 of 10 pairs
        ([p - 0.05 for p in _PARENT[:8]] + [1.10, 1.10], False),  # 8 of 10 pairs
        ([p - 0.01 for p in _PARENT], False),  # every pair, by less than the IQR
    ],
    ids=["all-pairs", "nine-of-ten", "eight-of-ten", "inside-iqr"],
)
def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr(change, shown):
    summary = _summarize()(_pairs(_PARENT, change), {"run_s": "lower", "records_per_s": "higher"}, {})
    assert summary["run_s"]["gain_shown"] is shown
    assert summary["records_per_s"]["gain_shown"] is False  # the same values read worse when higher is better


@pytest.mark.parametrize(
    "scale, lower_within, higher_within",
    [(1.0, True, True), (1.2, True, True), (1.3, False, True), (0.8, True, True), (0.7, True, False)],
)
def test_within_bound_allows_the_bound_as_a_fraction_of_the_parent_median(scale, lower_within, higher_within):
    summary = _summarize()(_pairs(_PARENT, [p * scale for p in _PARENT]),
                           {"run_s": "lower", "records_per_s": "higher"}, {"run_s": 0.25, "records_per_s": 0.25})
    assert summary["run_s"]["within_bound"] is lower_within
    assert summary["records_per_s"]["within_bound"] is higher_within


def _checkouts(tmp_path, recorded=("37",)):
    """A parent and a change checkout with a benchmark spec and reference
    digests of workload "w" at the seeds `recorded`."""
    digests = {"digests": {"w": {seed: {"out.csv": "0" * 64} for seed in recorded}}, "generator": "g"}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "perfbench" / "reference_digests.json").write_text(json.dumps(digests))
    spec = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25}], "per_layer": []}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))


@pytest.mark.parametrize(
    "change_basis, code",
    [("reference digests", 0), ("an earlier run of this seed", 1), (None, 1)],
    ids=["reference", "earlier-run", "none-printed"],
)
def test_exit_1_unless_every_run_checked_against_reference_digests(tmp_path, monkeypatch, capsys,
                                                                   change_basis, code):
    module = _module()
    _checkouts(tmp_path)

    def run_side(checkout, argv):
        basis = "reference digests" if checkout.name == "parent" else change_basis
        checked = "" if basis is None else module.CHECKED + basis
        return {"correct": True, "metrics": {"run_s": {"value": 0.1, "unit": "s"}}}, checked, "m"

    monkeypatch.setattr(module, "run_side", run_side)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2",
            "--seed", "37", "--seconds", "1", "--out", str(out)]
    assert module.main(argv) == code
    entry = json.loads(out.read_text())["summary"]["w"]
    assert entry["all_correct"] is True
    assert entry["parent_checked_against"] == ["checking outputs against reference digests"]
    assert entry["change_checked_against"] == ["" if change_basis is None else module.CHECKED + change_basis]
    err = capsys.readouterr().err
    if code:
        basis = change_basis or "(none printed)"
        assert f"change: outputs checked against {basis}, not reference digests" in err
    assert "parent: outputs checked" not in err


def test_run_side_deletes_the_checkouts_bytecode_first(tmp_path, monkeypatch):
    # bytecode an earlier run left would let this run skip compiling the program
    module = _module()
    cache = tmp_path / "src" / "tweetsent" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "corpus.cpython-311.pyc").write_bytes(b"")
    seen = []

    def run(argv, cwd, **kwargs):
        seen.append((cwd, cache.exists(), (tmp_path / "src" / "tweetsent").is_dir()))
        return subprocess.CompletedProcess(argv, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(module.subprocess, "run", run)
    assert module.run_side(tmp_path, ["--workload", "w"])[0] == {"correct": True}
    assert seen == [(tmp_path, False, True)]


@pytest.mark.parametrize("seed, workload", [("53", "w"), ("37", "other")], ids=["seed", "workload"])
def test_exit_1_before_any_run_without_recorded_digests(tmp_path, monkeypatch, capsys, seed, workload):
    # such runs could be checked only against each other, so none is started
    module = _module()
    _checkouts(tmp_path)

    def run_side(checkout, argv):
        raise AssertionError("a run was started")

    monkeypatch.setattr(module, "run_side", run_side)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", workload, "--pairs", "2",
            "--seed", seed, "--seconds", "1", "--out", str(out)]
    assert module.main(argv) == 1
    assert f"records no {workload} digests at seed {seed}" in capsys.readouterr().err
    assert not out.exists()
