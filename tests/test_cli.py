from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tweetsent.cli as cli_mod
import tweetsent.errors as errors_mod
import tweetsent.pipeline as pipeline_mod
from tweetsent.cli import main
from tweetsent.corpus import BotPolicy, load_corpus
from tweetsent.emotion import ALL_CATEGORIES
from tweetsent.errors import (
    ConfigError,
    DataError,
    EmptyCorpusError,
    InvalidRangeError,
    PipelineStageError,
    SchemaError,
)
from tweetsent.exports import distribution_to_csv
from tweetsent.pipeline import Analysis, publish
from tweetsent.scenario import classify_scenario, trend_from_report

DATA = Path(__file__).parent / "data"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _synth(workdir, n=200, name="corpus.csv", fmt="csv"):
    assert main(["synth", "--seed", "42", "--n", str(n), "--output", name, "--format", fmt]) == 0
    return workdir / name


def test_synth_writes_corpus_and_ledger(workdir, capsys):
    code = main(
        ["synth", "--seed", "1", "--n", "100", "--output", "c.csv", "--ledger", "l.json"]
    )
    assert code == 0
    assert (workdir / "c.csv").exists()
    ledger = json.loads((workdir / "l.json").read_text())
    assert ledger["n"] == 100
    assert "planted" in capsys.readouterr().out


def test_ingest_filter_chain_and_provenance(workdir):
    _synth(workdir)
    code = main(
        [
            "ingest",
            "--input", "corpus.csv",
            "--format", "csv",
            "--start", "2020-04-30",
            "--end", "2020-05-08",
            "--keyword", "reopen",
            "--country", "US",
            "--bots",
            "--output", "filtered.jsonl",
            "--provenance",
        ]
    )
    assert code == 0
    assert (workdir / "filtered.jsonl").exists()
    prov = json.loads((workdir / "filtered.provenance.json").read_text())
    with open(workdir / "filtered.jsonl") as fh:
        kept = sum(1 for _ in fh)
    assert prov["parsed"] == kept + prov["skipped"] + sum(prov["filtered"].values())
    for stage in ("date_range", "keyword", "country", "duplicate", "burst", "low_token"):
        assert stage in prov["filtered"]


def test_ingest_without_provenance_flag_writes_no_provenance(workdir):
    _synth(workdir)
    assert main(["ingest", "--input", "corpus.csv", "--output", "f.jsonl"]) == 0
    assert not (workdir / "f.provenance.json").exists()


def test_ngrams_stdout(workdir, capsys):
    _synth(workdir)
    capsys.readouterr()
    assert main(["ngrams", "--input", "corpus.csv", "--n", "2", "--top", "5"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 5
    rank, gram, count = lines[0].split("\t")
    assert rank == "1" and len(gram.split()) == 2 and int(count) > 0


def test_ngrams_csv_export(workdir):
    _synth(workdir)
    assert main(
        ["ngrams", "--input", "corpus.csv", "--n", "1", "--top", "10", "--output", "t.csv"]
    ) == 0
    with open(workdir / "t.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert list(rows[0]) == ["rank", "gram", "count"]


def test_ngrams_json_export_is_array(workdir):
    _synth(workdir)
    assert main(
        ["ngrams", "--input", "corpus.csv", "--n", "3", "--top", "7",
         "--export", "json", "--output", "t.json"]
    ) == 0
    payload = json.loads((workdir / "t.json").read_text())
    assert isinstance(payload, list) and len(payload) == 7
    assert set(payload[0]) == {"rank", "gram", "count"}


def test_ngrams_invalid_n_is_config_error(workdir):
    _synth(workdir)
    assert main(["ngrams", "--input", "corpus.csv", "--n", "9"]) == 2


def test_ngrams_top_below_one_is_config_error(workdir):
    _synth(workdir)
    assert main(["ngrams", "--input", "corpus.csv", "--n", "2", "--top", "0"]) == 2


@pytest.mark.parametrize("top", ["0", "-2"])
def test_report_top_below_one_is_config_error(workdir, top):
    _synth(workdir)
    assert main(["report", "--input", "corpus.csv", "--what", "mentions", "--top", top,
                 "--output", "m.json"]) == 2
    assert not (workdir / "m.json").exists()


def test_sentiment_scores_csv(workdir, capsys):
    _synth(workdir)
    assert main(["sentiment", "--input", "corpus.csv", "--output", "scores.csv"]) == 0
    with open(workdir / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert {"status_id", "value", "label", "trust", "positive"} <= set(rows[0])
    out = capsys.readouterr().out
    assert "shares" in out


def test_sentiment_prints_the_shares_of_scores_too_wide_for_a_histogram(workdir, capsys):
    # sentiment writes no histogram, so the bin bound that `run` and `report`
    # keep (test_polarity_scores_too_large_to_report_exit_3_and_write_nothing) is not its own
    _synth(workdir)
    (workdir / "lex.csv").write_text("term,score\ngood,1000000\nbad,-1000000\n")
    capsys.readouterr()
    argv = ["sentiment", "--input", "corpus.csv", "--polarity-lexicon", "lex.csv", "--output", "scores.csv"]
    assert main(argv) == 0
    with open(workdir / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert max(float(row["value"]) for row in rows) - min(float(row["value"]) for row in rows) > 262_144
    labels = Counter(row["label"] for row in rows)
    shares = " ".join(f"{label}={labels[label] / 200:.4f}" for label in ("positive", "negative", "neutral"))
    assert capsys.readouterr().out == f"wrote scores.csv\nshares {shares}\n"


@pytest.mark.parametrize(
    "what,checker",
    [
        ("mentions", lambda d: "rows" in d),
        ("hashtags", lambda d: "rows" in d),
        ("locations", lambda d: "rows" in d),
        ("devices", lambda d: "Twitter for iPhone" in d),
        ("daily", lambda d: "days" in d),
        ("distribution", lambda d: "positive_share" in d),
    ],
)
def test_report_json_variants(workdir, what, checker):
    _synth(workdir)
    assert main(
        ["report", "--input", "corpus.csv", "--what", what, "--output", f"{what}.json"]
    ) == 0
    payload = json.loads((workdir / f"{what}.json").read_text())
    assert checker(payload)


def test_report_csv_export(workdir):
    _synth(workdir)
    assert main(
        ["report", "--input", "corpus.csv", "--what", "distribution",
         "--export", "csv", "--output", "dist.csv"]
    ) == 0
    with open(workdir / "dist.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert rows[1][0] == "positive_share"


def test_scenario_from_report_file(workdir, capsys):
    _synth(workdir, n=400)
    assert main(
        ["report", "--input", "corpus.csv", "--what", "distribution", "--output", "dist.json"]
    ) == 0
    assert main(["scenario", "--input", "dist.json", "--timing", "now", "--output", "s.json"]) == 0
    outcome = json.loads((workdir / "s.json").read_text())
    assert outcome["id"] in {"S1", "S3"}  # timing "now" quadrants
    assert outcome["inputs"]["timing"] == "now"
    assert len(outcome["inputs"]["dominant_emotions"]) == 2

    capsys.readouterr()
    assert main(["scenario", "--input", "dist.json", "--timing", "later"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["id"] in {"S2", "S4"}  # timing "later" quadrants


def test_scenario_tie_is_data_error(workdir):
    (workdir / "tie.json").write_text(
        json.dumps({"positive_share": 0.4, "negative_share": 0.4, "neutral_share": 0.2})
    )
    assert main(["scenario", "--input", "tie.json", "--timing", "now"]) == 3


def test_scenario_bad_payload_is_data_error(workdir):
    (workdir / "bad.json").write_text("{\"whatever\": 1}")
    assert main(["scenario", "--input", "bad.json", "--timing", "now"]) == 3


@pytest.mark.parametrize(
    "share",
    [float("nan"), -0.5, 1.5, float("inf"), True, "0.5", None],
    ids=["nan", "-0.5", "1.5", "inf", "bool", "string", "null"],
)
def test_scenario_nonsense_share_is_data_error(workdir, capsys, share):
    (workdir / "odd.json").write_text(
        json.dumps({"positive_share": share, "negative_share": 0.3})
    )
    assert main(["scenario", "--input", "odd.json", "--timing", "now"]) == 3
    (workdir / "odd.json").write_text(
        json.dumps({"positive_share": 0.3, "negative_share": share})
    )
    assert main(["scenario", "--input", "odd.json", "--timing", "now"]) == 3
    if not isinstance(share, float):
        # any share that is not a number is refused, and the message names it
        assert "negative_share must be a number" in capsys.readouterr().err
        (workdir / "odd.json").write_text(
            json.dumps({"positive_share": 0.6, "negative_share": 0.3, "neutral_share": share})
        )
        assert main(["scenario", "--input", "odd.json", "--timing", "now"]) == 3
        assert "neutral_share must be a number" in capsys.readouterr().err


def test_scenario_names_an_out_of_range_share_by_its_report_key(workdir, capsys):
    for key, other in (("positive_share", "negative_share"), ("negative_share", "positive_share")):
        (workdir / "odd.json").write_text(json.dumps({key: 1.5, other: 0.3}))
        assert main(["scenario", "--input", "odd.json", "--timing", "now"]) == 3
        assert capsys.readouterr().err == f"error: {key} must be a share in [0, 1], got 1.5\n"


@pytest.mark.parametrize(
    "totals",
    [
        {"counts": {"joy": "x"}},
        {"counts": {"joy": None}},
        {"counts": {"joy": float("inf")}},
        {"counts": {"joy": True}},
        {"counts": {"joy": 2.7}},
        {"counts": {"joy": -1}},
        {"counts": ["joy"]},
        ["counts"],
        # a falsy value that is no object is not an absent one
        *[falsy for value in (False, 0, "", []) for falsy in (value, {"counts": value})],
    ],
)
def test_scenario_malformed_emotion_counts_are_data_errors(workdir, capsys, totals):
    (workdir / "odd.json").write_text(
        json.dumps({"positive_share": 0.6, "negative_share": 0.3, "emotion_totals": totals})
    )
    assert main(["scenario", "--input", "odd.json", "--timing", "now"]) == 3
    assert "emotion_totals.counts must map emotions to non-negative integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pos, neg, timing, sid, label, key",
    [
        (0.55, 0.25, "now", "S1", "positive sentiment trend, reopen now", "a"),
        (0.55, 0.25, "later", "S2", "positive sentiment trend, reopen later", "b"),
        (0.25, 0.55, "now", "S3", "negative sentiment trend, reopen now", "c"),
        (0.25, 0.55, "later", "S4", "negative sentiment trend, reopen later", "d"),
    ],
)
def test_scenario_prints_each_quadrant(workdir, capsys, pos, neg, timing, sid, label, key):
    # fear leads; joy and trust tie, and joy comes first in the class order
    counts = {"fear": 5, "joy": 3, "trust": 3, "positive": 9}
    report = {"positive_share": pos, "negative_share": neg, "neutral_share": 0.2,
              "emotion_totals": {"counts": counts, "token_total": 40}}
    (workdir / "d.json").write_text(json.dumps(report))
    expected = {
        "id": sid,
        "label": label,
        "narrative_key": key,
        "inputs": {"pos_share": pos, "neg_share": neg, "timing": timing,
                   "dominant_emotions": ["fear", "joy"]},
    }
    capsys.readouterr()
    assert main(["scenario", "--input", "d.json", "--timing", timing]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert main(["scenario", "--input", "d.json", "--timing", timing, "--output", "s.json"]) == 0
    assert json.loads((workdir / "s.json").read_text()) == expected


def test_scenario_without_emotion_hits_has_no_dominant_emotions(workdir, capsys):
    (workdir / "flat.json").write_text(
        json.dumps({"positive_share": 0.5, "negative_share": 0.3, "neutral_share": 0.2})
    )
    capsys.readouterr()
    assert main(["scenario", "--input", "flat.json", "--timing", "later"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["id"] == "S2"
    assert printed["inputs"]["dominant_emotions"] == []


def test_run_with_config_file_and_override(workdir):
    _synth(workdir, n=300)
    (workdir / "cfg.json").write_text(
        json.dumps(
            {
                "input": "corpus.csv",
                "format": "csv",
                "output_dir": "ignored",
                "keyword": "reopen",
            }
        )
    )
    code = main(["run", "--config", "cfg.json", "--output-dir", "results"])
    assert code == 0
    manifest = json.loads((workdir / "results" / "manifest.json").read_text())
    assert manifest["config"]["output_dir"] == "results"  # flag overrode the file
    assert (workdir / "results" / "distribution.json").exists()


def test_run_config_with_unknown_key_is_config_error(workdir, capsys):
    _synth(workdir, n=50)
    (workdir / "cfg.json").write_text(json.dumps({"input": "corpus.csv", "seed": 42}))
    assert main(["run", "--config", "cfg.json", "--output-dir", "o"]) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err


def test_exit_code_2_for_missing_input(workdir):
    assert main(["run", "--input", "absent.csv", "--output-dir", "o"]) == 2
    assert main(["ingest", "--input", "absent.csv", "--output", "x.jsonl"]) == 2


def test_exit_code_2_for_bad_config_json(workdir):
    (workdir / "broken.json").write_text("{nope")
    assert main(["run", "--config", "broken.json"]) == 2


def test_exit_code_3_for_empty_corpus(workdir):
    (workdir / "empty.csv").write_text(
        "status_id,created_at,text,source,location,country_code,hashtags,mentions,user_id,is_retweet\n"
    )
    assert main(["run", "--input", "empty.csv", "--output-dir", "o"]) == 3
    assert main(["ingest", "--input", "empty.csv", "--output", "x.jsonl"]) == 3


@pytest.mark.parametrize(
    "score, texts, argv, message",
    [
        ("1e308", ["great great great reopen"] * 2, ["sentiment", "--output", "s.csv"], "scores inf"),
        (
            "1e308",
            ["great great great reopen"] * 2,
            ["report", "--what", "distribution", "--output", "d.json"],
            "scores inf",
        ),
        ("1e308", ["great great great reopen now"], ["run", "--output-dir", "o"], "stage 'polarity'"),
        (
            "1e200",
            ["great great great reopen", "reopen now"],
            ["report", "--what", "distribution", "--output", "d.json"],
            "bins",
        ),
        (
            "1e200",
            ["great great great reopen now", "we reopen now"],
            ["run", "--output-dir", "o"],
            "stage 'distribution'",
        ),
    ],
)
def test_polarity_scores_too_large_to_report_exit_3_and_write_nothing(
    workdir, capsys, score, texts, argv, message
):
    # finite lexicon scores whose text totals overflow, or whose histogram
    # would need more than 2**20 bins; each fails before allocating one
    (workdir / "lex.csv").write_text(f"term,score\ngreat,{score}\n")
    rows = [
        f"t{i},2020-05-02T1{i}:00:00Z,{text},Twitter for iPhone,,US,,,u{i},false\n"
        for i, text in enumerate(texts)
    ]
    (workdir / "c.csv").write_text(
        "status_id,created_at,text,source,location,country_code,hashtags,mentions,user_id,is_retweet\n"
        + "".join(rows)
    )
    assert main([*argv, "--input", "c.csv", "--polarity-lexicon", "lex.csv"]) == 3
    assert message in capsys.readouterr().err
    assert sorted(path.name for path in workdir.iterdir()) == ["c.csv", "lex.csv"]


@pytest.mark.parametrize(
    "exc, code, text",
    [
        (ConfigError("bad"), 2, "error: bad"),
        (FileNotFoundError("gone"), 2, "error: gone"),
        (NotADirectoryError("through"), 2, "error: through"),
        (PermissionError("denied"), 2, "error: denied"),
        (SchemaError("bad row"), 3, "error: bad row"),
        (PipelineStageError("load", InvalidRangeError("late")), 2, "error: stage 'load' failed: late"),
        (PipelineStageError("bots", EmptyCorpusError("none")), 3, "error: stage 'bots' failed: none"),
        (PipelineStageError("mask", KeyError("k")), 4, "error: stage 'mask' failed: 'k'"),
        (RuntimeError("boom"), 4, "internal error: boom"),
    ],
)
def test_main_maps_each_error_to_its_exit_code(workdir, capsys, monkeypatch, exc, code, text):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli_mod, "run_pipeline", fail)
    assert main(["run", "--input", "c.csv"]) == code
    assert capsys.readouterr().err == text + "\n"


_ERROR_CLASSES = [
    cls for cls in vars(errors_mod).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls is not PipelineStageError
]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_takes_its_exit_code_from_one_root(workdir, capsys, monkeypatch, cls):
    assert issubclass(cls, ConfigError) != issubclass(cls, DataError)

    def fail(cfg):
        raise cls("refused")

    monkeypatch.setattr(cli_mod, "run_pipeline", fail)
    assert main(["run", "--input", "c.csv"]) == (2 if issubclass(cls, ConfigError) else 3)
    assert capsys.readouterr().err == "error: refused\n"


@pytest.mark.parametrize(
    "argv",
    [["scenario", "--input", "c.csv/x", "--timing", "now"], ["run", "--config", "c.csv/x", "--input", "c.csv"]],
    ids=["scenario", "run"],
)
def test_a_path_through_a_file_is_config_error(workdir, capsys, argv):
    (workdir / "c.csv").write_bytes((DATA / "corpus_1000.csv").read_bytes())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert [p.name for p in workdir.iterdir()] == ["c.csv"]


@pytest.mark.parametrize(
    "flag, name, header",
    [("--polarity-lexicon", "polarity", "term,score"), ("--shifter-lexicon", "shifter", "term,kind")],
    ids=["polarity", "shifter"],
)
@pytest.mark.parametrize(
    "argv, staged",
    [(["sentiment", "--output", "s.csv"], ""), (["run", "--output-dir", "o"], "stage 'polarity' failed: ")],
    ids=["sentiment", "run"],
)
def test_an_oversized_field_in_a_polarity_or_shifter_lexicon_is_data_error(
    workdir, capsys, flag, name, header, argv, staged
):
    (workdir / "lex.csv").write_text(f"{header}\n{'a' * 200_000},1\n", encoding="utf-8")
    assert main([*argv, "--input", str(DATA / "corpus_1000.csv"), flag, "lex.csv"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {staged}{name} lexicon: field larger than field limit")
    assert [p.name for p in workdir.iterdir()] == ["lex.csv"]


def test_run_config_out_of_range_scoring_params_keep_their_messages(workdir, capsys):
    source = str(DATA / "corpus_1000.csv")
    for field, value, message in [
        ("window_before", 21, "context windows must be in 0..20"),
        ("window_after", -1, "context windows must be in 0..20"),
        ("amplifier_weight", float("nan"), "amplifier_weight must be in [0, 2]"),
        ("adversative_weight", 2.5, "adversative_weight must be in [0, 2]"),
    ]:
        (workdir / "cfg.json").write_text(json.dumps({"input": source, field: value}))
        assert main(["run", "--config", "cfg.json", "--output-dir", "o"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "o").exists()


_NOT_UTF8 = [
    (["scenario", "--input", "bad.bin", "--timing", "now"], 3, "scenario input is not valid UTF-8"),
    (["run", "--config", "bad.bin"], 2, "config file is not valid UTF-8"),
    (["sentiment", "--input", "CORPUS", "--stopwords", "bad.bin", "--output", "s.csv"], 3,
     "lexicon bad.bin is not UTF-8"),
    (["run", "--input", "CORPUS", "--stopwords", "bad.bin", "--output-dir", "o"], 3,
     "stage 'stopwords' failed: lexicon bad.bin is not UTF-8"),
]


@pytest.mark.parametrize(
    "argv, code, message", _NOT_UTF8, ids=["scenario", "config", "sentiment-lexicon", "run-lexicon"]
)
def test_user_file_that_is_not_utf8_is_never_an_internal_error(workdir, capsys, argv, code,
                                                                message):
    (workdir / "bad.bin").write_bytes(b'{"positive_share": 0.6\xff}\n')
    argv = [str(DATA / "corpus_1000.csv") if a == "CORPUS" else a for a in argv]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == ["bad.bin"]


_DIRECTORY_FOR_A_FILE = [
    ["run", "--input", "adir", "--output-dir", "o"],
    ["run", "--config", "adir"],
    ["run", "--input", "CORPUS", "--stopwords", "adir", "--output-dir", "o"],
    ["ingest", "--input", "adir", "--output", "x.jsonl"],
    ["sentiment", "--input", "CORPUS", "--stopwords", "adir", "--output", "s.csv"],
    ["scenario", "--input", "adir", "--timing", "now"],
]


@pytest.mark.parametrize(
    "argv",
    _DIRECTORY_FOR_A_FILE,
    ids=["run-input", "run-config", "run-lexicon", "ingest-input", "sentiment-lexicon", "scenario"],
)
def test_directory_given_for_a_file_is_config_error(workdir, capsys, argv):
    (workdir / "adir").mkdir()
    argv = [str(DATA / "corpus_1000.csv") if a == "CORPUS" else a for a in argv]
    assert main(argv) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in workdir.iterdir()] == ["adir"]


_RUN_FILE_FIELDS = {
    "input": "--input",
    "stopwords_path": "--stopwords",
    "abusive_lexicon_path": "--abusive-lexicon",
    "emotion_lexicon_path": "--emotion-lexicon",
    "polarity_lexicon_path": "--polarity-lexicon",
    "shifter_lexicon_path": "--shifter-lexicon",
}


@pytest.mark.parametrize("field, flag", _RUN_FILE_FIELDS.items(), ids=_RUN_FILE_FIELDS)
def test_run_refuses_a_directory_for_a_file_before_loading(workdir, capsys, monkeypatch, field, flag):
    # refused by the config check, before the load and the stages before the file's own
    (workdir / "adir").mkdir()

    def load(*args):
        raise AssertionError("the corpus was loaded")

    for module in (cli_mod, pipeline_mod):
        monkeypatch.setattr(module, "load_corpus", load)
    argv = ["run", "--input", str(DATA / "corpus_1000.csv"), "--output-dir", "o", flag, "adir"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {field}: Is a directory: adir\n"
    assert [p.name for p in workdir.iterdir()] == ["adir"]


def test_run_takes_a_device_as_a_lexicon_file():
    # only a directory is refused: an empty device reads as an empty stopword list
    pipeline_mod.RunConfig(input=str(DATA / "corpus_1000.csv"), stopwords_path=os.devnull).validate()


_OUTPUT_THROUGH_A_FILE = [
    (["run", "--output-dir", "afile"], "output_dir afile"),
    (["run", "--output-dir", "afile/sub"], "output_dir afile/sub"),
    (["sentiment", "--output", "afile/x.csv"], "--output afile/x.csv"),
    (["ingest", "--output", "afile/x.jsonl"], "--output afile/x.jsonl"),
]


@pytest.mark.parametrize(
    "argv, named", _OUTPUT_THROUGH_A_FILE, ids=["run", "run-sub", "sentiment", "ingest"]
)
def test_output_path_through_a_file_is_config_error(workdir, capsys, monkeypatch, argv, named):
    (workdir / "afile").write_text("not a directory\n")
    loads = []
    for module in (cli_mod, pipeline_mod):
        monkeypatch.setattr(module, "load_corpus", lambda *args: loads.append(args))
    assert main([argv[0], "--input", str(DATA / "corpus_1000.csv"), *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        f"error: {named} needs a directory where the file afile is\n"
    )
    assert loads == []  # refused before any input is read
    assert [p.name for p in workdir.iterdir()] == ["afile"]


_IS_A_DIRECTORY = "--output: Is a directory: adir"
_NO_DIRECTORY = "--output directory not found: nodir"
# each file output that is refused before any input is read: a directory, a
# file in a missing directory, and `ingest`'s provenance path as a directory
_REFUSED_OUTPUTS = {
    "sentiment": (["sentiment", "--output", "adir"], _IS_A_DIRECTORY),
    "report": (["report", "--what", "distribution", "--output", "adir"], _IS_A_DIRECTORY),
    "ngrams": (["ngrams", "--n", "2", "--output", "adir"], _IS_A_DIRECTORY),
    "ingest": (["ingest", "--output", "adir"], _IS_A_DIRECTORY),
    "sentiment-nodir": (["sentiment", "--output", "nodir/s.csv"], _NO_DIRECTORY),
    "report-nodir": (["report", "--what", "devices", "--output", "nodir/d.json"], _NO_DIRECTORY),
    "ngrams-nodir": (["ngrams", "--n", "2", "--output", "nodir/n.csv"], _NO_DIRECTORY),
    "ingest-nodir": (["ingest", "--output", "nodir/x.jsonl"], _NO_DIRECTORY),
    "synth-ledger-nodir": (
        ["synth", "--n", "3", "--output", "s.csv", "--ledger", "nodir/l.json"],
        "--ledger directory not found: nodir",
    ),
    "ingest-provenance": (
        ["ingest", "--output", "o.jsonl", "--provenance"],
        "--provenance: Is a directory: o.provenance.json",
    ),
}


@pytest.mark.parametrize("argv, message", _REFUSED_OUTPUTS.values(), ids=_REFUSED_OUTPUTS)
def test_directory_given_as_output_is_config_error_before_loading(workdir, capsys, monkeypatch, argv, message):
    # a directory to give as a file, and the one where `ingest --output o.jsonl` puts its provenance
    (workdir / "adir").mkdir()
    (workdir / "o.provenance.json").mkdir()
    loads = []
    for module in (cli_mod, pipeline_mod):
        monkeypatch.setattr(module, "load_corpus", lambda *args: loads.append(args))
    inputs = [] if argv[0] == "synth" else ["--input", str(DATA / "corpus_1000.csv")]
    assert main([argv[0], *inputs, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == []  # refused before any input is read
    assert sorted(p.name for p in workdir.iterdir()) == ["adir", "o.provenance.json"]


def test_synth_refuses_a_directory_as_ledger_before_writing_the_corpus(workdir, capsys):
    (workdir / "adir").mkdir()
    assert main(["synth", "--n", "3", "--output", "s.csv", "--ledger", "adir"]) == 2
    assert capsys.readouterr().err == "error: --ledger: Is a directory: adir\n"
    assert [p.name for p in workdir.iterdir()] == ["adir"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_synth_n_below_one_is_config_error(workdir, capsys, n):
    assert main(["synth", "--n", n, "--output", "s.csv"]) == 2
    assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
    assert list(workdir.iterdir()) == []


# each command that checks its files as `run` does, with its other flags
_ANALYSIS_FILE_FLAGS = {
    "ngrams": ["--n", "4"],
    "sentiment": ["--output", "s.csv"],
    "report": ["--what", "devices", "--output", "r.json"],
    "ingest": ["--output", "i.jsonl"],
}
# the file fields of the commands that read fewer than all of them
_FEWER_FILE_FIELDS = {"ngrams": ("input", "stopwords_path", "abusive_lexicon_path"), "ingest": ("input",)}
_ANALYSIS_FILE_CASES = [
    (command, field, flag)
    for command in _ANALYSIS_FILE_FLAGS
    for field, flag in _RUN_FILE_FIELDS.items()
    if field in _FEWER_FILE_FIELDS.get(command, _RUN_FILE_FIELDS)
]


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
@pytest.mark.parametrize(
    "command, field, flag", _ANALYSIS_FILE_CASES, ids=[f"{c}-{f}" for c, f, _ in _ANALYSIS_FILE_CASES]
)
def test_analysis_commands_check_their_files_as_run_before_loading(
    workdir, capsys, monkeypatch, command, field, flag, missing
):
    # refused with `run`'s message, also for a lexicon that the report never reads
    (workdir / "adir").mkdir()

    def load(*args):
        raise AssertionError("the corpus was loaded")

    for module in (cli_mod, pipeline_mod):
        monkeypatch.setattr(module, "load_corpus", load)
    files = {"--input": str(DATA / "corpus_1000.csv"), flag: "absent" if missing else "adir"}
    argv = [command, *_ANALYSIS_FILE_FLAGS[command], *[a for pair in files.items() for a in pair]]
    assert main(argv) == 2
    label = "input file" if field == "input" else field
    want = f"{label} not found: absent" if missing else f"{field}: Is a directory: adir"
    assert capsys.readouterr().err == f"error: {want}\n"
    assert [p.name for p in workdir.iterdir()] == ["adir"]


def test_exit_code_2_for_bad_country_flag(workdir):
    _synth(workdir, n=50)
    assert main(["ingest", "--input", "corpus.csv", "--country", "USA", "--output", "x.jsonl"]) == 2


_NUMBER_FIELDS = [
    "window_before",
    "window_after",
    "amplifier_weight",
    "adversative_weight",
    "dup_window_seconds",
    "burst_per_minute",
    "min_distinct_tokens",
    "ngram_top",
    "wordcloud_top",
    "rank_top",
]
_WRONG_TYPES = [
    *[(f, v, f"{f}-{name}") for f in _NUMBER_FIELDS
      for v, name in (("10", "string"), (True, "bool"), (None, "null"))],
    ("input", 5, "input-number"),
    ("format", None, "format-null"),
    ("keyword", True, "keyword-bool"),
    ("country", 5, "country-number"),
    ("stopwords_path", 5, "stopwords_path-number"),
    ("shifter_lexicon_path", False, "shifter_lexicon_path-bool"),
    ("device_categories", 5, "device_categories-number"),
    # a string of keywords would be matched letter by letter
    ("device_categories", {"reopen": "reopen"}, "device_categories-string_keywords"),
    ("device_categories", {"reopen": [""]}, "device_categories-empty_keyword"),
    ("device_categories", {"reopen": [5]}, "device_categories-number_keyword"),
    ("device_categories", {}, "device_categories-empty"),
    ("device_categories", ["reopen"], "device_categories-list"),
    # a cleaned text holds only a-z, 0-9, ' and single spaces: these keywords never match
    ("device_categories", {"reopen": []}, "device_categories-no_keywords"),
    ("device_categories", {"Reopen": ["Reopen"]}, "device_categories-upper_case"),
    ("device_categories", {"re-open": ["re-open"]}, "device_categories-hyphen"),
    ("device_categories", {"reopen": ["réouvrir"]}, "device_categories-non_ascii"),
    ("device_categories", {"covid": ["covid  19"]}, "device_categories-double_space"),
]


@pytest.mark.parametrize(
    "field, value", [case[:2] for case in _WRONG_TYPES], ids=[case[2] for case in _WRONG_TYPES]
)
def test_run_config_number_of_the_wrong_type_is_config_error(workdir, capsys, field, value):
    source = str(DATA / "corpus_1000.csv")
    (workdir / "cfg.json").write_text(json.dumps({"input": source, field: value}))
    assert main(["run", "--config", "cfg.json", "--output-dir", "o"]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (workdir / "o").exists()


def test_device_category_refused_by_name(workdir, capsys):
    source = str(DATA / "corpus_1000.csv")
    categories = {"reopen": ["reopen"], "Re-open": ["re-open"]}
    (workdir / "cfg.json").write_text(json.dumps({"input": source, "device_categories": categories}))
    assert main(["run", "--config", "cfg.json", "--output-dir", "o"]) == 2
    assert "'Re-open' maps to ['re-open']" in capsys.readouterr().err


def test_device_keywords_with_apostrophe_and_space_accepted(workdir):
    source = str(DATA / "corpus_1000.csv")
    categories = {"cant": ["can't"], "covid": ["covid 19", "covid"]}
    (workdir / "cfg.json").write_text(json.dumps({"input": source, "device_categories": categories}))
    assert main(["run", "--config", "cfg.json", "--output-dir", "o"]) == 0
    devices = json.loads((workdir / "o" / "devices.json").read_text())
    assert set(devices["Twitter for iPhone"]["category_ratios"]) == {"cant", "covid"}


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize(
    "field, flag, value",
    [
        ("dup_window_seconds", "--dup-window", -5),
        ("dup_window_seconds", "--dup-window", float("nan")),
        # `Infinity` in the config file, `inf` on the command line
        ("dup_window_seconds", "--dup-window", float("inf")),
        ("burst_per_minute", "--burst-per-minute", 0),
        ("min_distinct_tokens", "--min-distinct-tokens", -1),
    ],
)
def test_bot_policy_out_of_range_is_config_error(workdir, capsys, command, field, flag, value):
    source = str(DATA / "corpus_1000.csv")
    if command == "run":
        # `run` takes the bot knobs from its config file
        (workdir / "cfg.json").write_text(json.dumps({"input": source, field: value}))
        argv = ["run", "--config", "cfg.json", "--output-dir", "o"]
    else:
        argv = ["ingest", "--input", source, "--bots", flag, str(value), "--output", "x.jsonl"]
    assert main(argv) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (workdir / "o").exists()
    assert not (workdir / "x.jsonl").exists()


def test_closed_stdout_ends_quietly():
    # about 95 KB of rows, more than a pipe holds: printing outlasts the reader
    src = str(Path(cli_mod.__file__).parents[1])
    argv = ["ngrams", "--n", "2", "--top", "5000", "--input", str(DATA / "corpus_1000.csv")]
    with subprocess.Popen(
        [sys.executable, "-m", "tweetsent.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert first.startswith(b"1\t")
    assert (code, err) == (0, b"")


class _ReaderGone(io.StringIO):
    """A stdout with no file descriptor whose reader has gone: `broken`
    (write or flush) raises."""

    def __init__(self, broken: str) -> None:
        super().__init__()
        setattr(self, broken, self._raise)

    def _raise(self, *args):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("broken", ["write", "flush"])
def test_closed_stdout_without_a_file_descriptor_ends_quietly(monkeypatch, capsys, broken):
    monkeypatch.setattr(sys, "stdout", _ReaderGone(broken))
    assert main(["ngrams", "--n", "1", "--top", "5", "--input", str(DATA / "corpus_1000.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_broken_output_file_is_config_error(tmp_path):
    # about 95 KB of rows, more than a pipe holds: writing outlasts the reader
    fifo = tmp_path / "table.csv"
    os.mkfifo(fifo)

    def read_a_little():
        with open(fifo, "rb", buffering=0) as fh:
            fh.read(10)

    reader = threading.Thread(target=read_a_little, daemon=True)
    reader.start()
    src = str(Path(cli_mod.__file__).parents[1])
    argv = ["ngrams", "--n", "2", "--top", "5000", "--input", str(DATA / "corpus_1000.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "tweetsent.cli", *argv, "--output", str(fifo)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=60,
    )
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: [Errno 32] Broken pipe\n")


# each command that writes files, and the module and name of the writer of
# one of them, which a rerun on other input makes write half a file and fail;
# a report's CSV writer comes from the pipeline's table
_REWRITES = {
    "ingest-jsonl": (["ingest", "--output", "x.jsonl", "--provenance"], cli_mod, "write_corpus_jsonl"),
    "ingest-provenance": (["ingest", "--output", "x.jsonl", "--provenance"], cli_mod, "write_json"),
    "ngrams": (["ngrams", "--n", "2", "--output", "t.csv"], cli_mod, "ngram_table_to_csv"),
    "ngrams-json": (["ngrams", "--n", "2", "--export", "json", "--output", "t.json"], cli_mod, "write_json"),
    "sentiment": (["sentiment", "--output", "s.csv"], cli_mod, "scores_to_csv"),
    "report": (["report", "--what", "mentions", "--output", "m.json"], cli_mod, "write_json"),
    "report-csv": (
        ["report", "--what", "daily", "--export", "csv", "--output", "d.csv"], pipeline_mod, "daily_series_to_csv"
    ),
    "scenario": (["scenario", "--timing", "now", "--output", "s.json"], cli_mod, "write_json"),
}


@pytest.mark.parametrize("argv, module, writer", _REWRITES.values(), ids=_REWRITES)
def test_failed_rewrite_leaves_the_earlier_files_in_place(workdir, capsys, monkeypatch, argv, module, writer):
    lines = (DATA / "corpus_1000.csv").read_text("utf-8").splitlines(keepends=True)
    (workdir / "full.csv").write_text("".join(lines), "utf-8")
    (workdir / "small.csv").write_text("".join(lines[:30]), "utf-8")
    (workdir / "full.json").write_text(json.dumps({"positive_share": 0.5, "negative_share": 0.25}), "utf-8")
    (workdir / "small.json").write_text(json.dumps({"positive_share": 0.25, "negative_share": 0.5}), "utf-8")
    suffix = ".json" if argv[0] == "scenario" else ".csv"
    assert main([*argv, "--input", "full" + suffix]) == 0
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    capsys.readouterr()

    def half_then_fail(*args, **kwargs):
        Path(args[-1]).write_text("half")  # a command's writer takes the path last
        raise OSError("disk full")

    monkeypatch.setattr(module, writer, half_then_fail)
    assert main([*argv, "--input", "small" + suffix]) == 2
    assert capsys.readouterr() == ("", "error: disk full\n")
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before  # and no .tweetsent-* entry


_TO_DEV_NULL = [
    ["ingest", "--input", str(DATA / "corpus_1000.csv")],
    ["ngrams", "--input", str(DATA / "corpus_1000.csv"), "--n", "2"],
    ["sentiment", "--input", str(DATA / "corpus_1000.csv")],
    ["report", "--input", str(DATA / "corpus_1000.csv"), "--what", "mentions"],
    ["scenario", "--input", "d.json", "--timing", "now"],
]


@pytest.mark.parametrize("argv", _TO_DEV_NULL, ids=lambda argv: argv[0])
def test_dev_null_output_is_written_in_place_without_staging(workdir, capsys, monkeypatch, argv):
    # a rename onto /dev/null would replace the device: a staged path fails here, before any move
    with publish("/dev/null") as paths:
        assert paths == [Path("/dev/null")]
    (workdir / "d.json").write_text(json.dumps({"positive_share": 0.5, "negative_share": 0.25}), "utf-8")

    def no_staging(*args, **kwargs):
        raise AssertionError("a staging directory was made")

    monkeypatch.setattr(pipeline_mod.tempfile, "TemporaryDirectory", no_staging)
    assert main([*argv, "--output", "/dev/null"]) == 0
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert capsys.readouterr().out.startswith("wrote /dev/null\n")


def test_provenance_beside_a_device_is_config_error(workdir, capsys, monkeypatch):
    # the provenance file goes beside --output, which for /dev/null is in /dev
    def no_staging(*args, **kwargs):
        raise AssertionError("a staging directory was made")

    monkeypatch.setattr(pipeline_mod.tempfile, "TemporaryDirectory", no_staging)
    argv = ["ingest", "--input", str(DATA / "corpus_1000.csv"), "--output", "/dev/null", "--provenance"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --provenance needs a regular file as --output, not /dev/null\n")
    assert list(workdir.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("kind", ["symlink", "fifo"])
def test_symlink_or_fifo_output_is_written_in_place(workdir, capsys, kind):
    argv = ["sentiment", "--input", str(DATA / "corpus_1000.csv"), "--output"]
    assert main([*argv, "plain.csv"]) == 0
    output = workdir / "out.csv"
    if kind == "symlink":
        (workdir / "target.csv").write_text("old\n")
        output.symlink_to("target.csv")
        assert main([*argv, "out.csv"]) == 0
        assert output.is_symlink()
        assert (workdir / "target.csv").read_bytes() == (workdir / "plain.csv").read_bytes()
    else:
        os.mkfifo(output)
        read = []
        reader = threading.Thread(target=lambda: read.append(output.read_bytes()), daemon=True)
        reader.start()
        assert main([*argv, "out.csv"]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(output).st_mode)
        assert read == [(workdir / "plain.csv").read_bytes()]
    assert not list(workdir.glob(".tweetsent-*"))


_EARLY_REFUSALS = [
    (["ngrams", "--n", "5"], "n must be in 1..4, got 5"),
    (["ngrams", "--n", "0"], "n must be in 1..4, got 0"),
    (["ngrams", "--n", "2", "--top", "0"], "top must be >= 1, got 0"),
    (["report", "--what", "mentions", "--top", "0", "--output", "r.json"], "k must be >= 1"),
    (["report", "--what", "hashtags", "--top", "-1", "--output", "r.json"], "k must be >= 1"),
    (["report", "--what", "locations", "--top", "0", "--output", "r.json"], "k must be >= 1"),
]


@pytest.mark.parametrize("argv, message", _EARLY_REFUSALS, ids=[" ".join(argv) for argv, _ in _EARLY_REFUSALS])
def test_out_of_range_n_and_top_are_refused_before_the_corpus_is_read(workdir, capsys, monkeypatch, argv,
                                                                      message):
    def no_load(*args, **kwargs):
        raise RuntimeError("the corpus was read")

    monkeypatch.setattr(cli_mod, "load_corpus", no_load)
    assert main([*argv, "--input", str(DATA / "corpus_1000.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("what", ["daily", "devices", "distribution"])
def test_report_without_a_ranking_ignores_top(workdir, what):
    argv = ["report", "--input", str(DATA / "corpus_1000.csv"), "--what", what, "--top", "0"]
    assert main([*argv, "--output", "r.json"]) == 0


@pytest.mark.parametrize("command", ["run", "ingest"])
@pytest.mark.parametrize(
    "start, end",
    [
        ("20200430", "20200508"),  # compact
        ("2020-W18-4", "2020-05-08"),  # ISO week
        ("2020-121", "2020-05-08"),  # ordinal
        ("2020-4-30", "2020-5-8"),  # not zero-padded
        ("2020-04-31", "2020-05-08"),  # no such day
        ("2020-04-30", "2020-13-01"),  # no such month
        ("0000-01-01", "2020-05-08"),  # no year 0
        ("٢٠٢٠-04-30", "2020-05-08"),  # non-ASCII digits
        ("2020-04-30T00:00:00", "2020-05-08"),  # a date-time
        (" 2020-04-30", "2020-05-08"),  # padded with a space
    ],
)
def test_dates_other_than_yyyy_mm_dd_are_config_errors(workdir, capsys, command, start, end):
    argv = [command, "--input", str(DATA / "corpus_1000.csv"), "--start", start, "--end", end]
    argv += ["--output-dir", "o"] if command == "run" else ["--output", "x.jsonl"]
    assert main(argv) == 2
    assert "bad date" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--start", "2020-04-30"], "given together"),
        (["--end", "2020-05-08"], "given together"),
        (["--start", "2020-05-08", "--end", "2020-04-30"], "after end_date"),
        (["--keyword", ""], "keyword must be non-empty"),
        (["--country", "USA"], "two-letter code"),
        # letters, but not ASCII ones: "ß" upper-cases to "SS"
        (["--country", "ÜS"], "two-letter code"),
        (["--country", "ßa"], "two-letter code"),
    ],
)
def test_ingest_filter_values_are_checked_before_loading(workdir, capsys, flags, message):
    # the input does not exist, so a bad value must be reported before any load
    assert main(["ingest", "--input", "absent.csv", "--output", "x.jsonl"] + flags) == 2
    assert message in capsys.readouterr().err


def test_run_with_empty_filter_window_exits_3_at_its_filter(workdir, capsys):
    _synth(workdir, n=100)
    code = main(["run", "--input", "corpus.csv", "--start", "2019-01-01", "--end", "2019-01-02",
                 "--output-dir", "o"])
    assert code == 3
    assert "stage 'date_range' failed" in capsys.readouterr().err
    assert not (workdir / "o").exists()


@pytest.mark.parametrize(
    "flags, stage",
    [
        (["--start", "2019-01-01", "--end", "2019-01-02"], "date_range"),
        (["--keyword", "zzzqqq"], "keyword"),
        (["--country", "ZZ"], "country"),
        (["--bots", "--min-distinct-tokens", "1000"], "bots"),
    ],
)
def test_ingest_that_a_filter_empties_exits_3_and_writes_nothing(workdir, capsys, flags, stage):
    _synth(workdir, n=100)
    code = main(["ingest", "--input", "corpus.csv", "--output", "x.jsonl", "--provenance"] + flags)
    assert code == 3
    assert f"stage '{stage}' failed" in capsys.readouterr().err
    assert not (workdir / "x.jsonl").exists()
    assert not (workdir / "x.provenance.json").exists()


def test_surrogate_escape_row_is_skipped_not_a_crash(workdir):
    path = _synth(workdir, n=100, name="c.jsonl", fmt="jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace('"text": "', '"text": "\\ud800', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--input", "c.jsonl", "--format", "jsonl", "--output", "x.jsonl",
                 "--provenance"]) == 0
    provenance = json.loads((workdir / "x.provenance.json").read_text())
    assert (provenance["parsed"], provenance["skipped"]) == (100, 1)
    assert main(["run", "--input", "c.jsonl", "--format", "jsonl", "--output-dir", "o"]) == 0


def test_main_pauses_gc_and_restores_it(workdir, monkeypatch, gc_enabled):
    _synth(workdir, n=100)
    assert gc.isenabled() is gc_enabled
    seen = []
    real_load = pipeline_mod.load_corpus

    def load(*args):
        seen.append(gc.isenabled())
        return real_load(*args)

    # `ingest` loads through pipeline.load_filtered
    monkeypatch.setattr(pipeline_mod, "load_corpus", load)
    assert main(["ingest", "--input", "corpus.csv", "--output", "x.jsonl"]) == 0
    assert seen == [False]
    assert gc.isenabled() is gc_enabled
    # `run` pauses it twice over, in main and in run_pipeline
    assert main(["run", "--input", "corpus.csv", "--output-dir", "o"]) == 0
    assert gc.isenabled() is gc_enabled


def test_failed_main_restores_gc(workdir, gc_enabled):
    _synth(workdir, n=100)
    code = main(["run", "--input", "corpus.csv", "--start", "2019-01-01", "--end", "2019-01-02",
                 "--output-dir", "o"])
    assert code == 3
    assert gc.isenabled() is gc_enabled


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """`run` over the golden fixture with the golden config; its output directory."""
    out = tmp_path_factory.mktemp("golden") / "out"
    assert main(["run", "--input", str(DATA / "corpus_1000.csv"),
                 "--abusive-lexicon", str(DATA / "abusive_fixture.txt"),
                 "--output-dir", str(out)]) == 0
    return out


def _project(golden_run, argv, output):
    """Run a subcommand over `run`'s filtered corpus. Its text is already
    masked, so no abusive lexicon is given."""
    source = str(golden_run / "filtered_corpus.jsonl")
    return main(argv + ["--input", source, "--format", "jsonl", "--output", str(output)])


_PROJECTIONS = [
    (["report", "--what", "distribution"], "distribution.json"),
    (["report", "--what", "daily", "--export", "csv"], "emotion_daily.csv"),
    (["report", "--what", "devices"], "devices.json"),
    (["report", "--what", "mentions", "--export", "csv"], "mentions.csv"),
    (["report", "--what", "hashtags", "--export", "csv"], "hashtags.csv"),
    (["report", "--what", "locations", "--field", "tagged", "--export", "csv"],
     "locations_tagged.csv"),
    (["report", "--what", "locations", "--field", "stated", "--export", "csv"],
     "locations_stated.csv"),
] + [(["ngrams", "--n", str(n), "--top", "100"], f"ngrams_{n}.csv") for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("argv,name", _PROJECTIONS, ids=[name for _, name in _PROJECTIONS])
def test_cli_reproduces_run_report(golden_run, tmp_path, argv, name):
    assert _project(golden_run, argv, tmp_path / name) == 0
    assert (tmp_path / name).read_bytes() == (golden_run / name).read_bytes()


def test_cli_sentiment_reproduces_run_scores(golden_run, tmp_path):
    assert _project(golden_run, ["sentiment"], tmp_path / "s.csv") == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        projected = [row[:4] for row in csv.reader(fh)]
    with open(golden_run / "polarity_scores.csv", newline="") as fh:
        scored = list(csv.reader(fh))
    assert len(scored) > 600
    assert projected == scored


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    """`run` over the golden fixture with the bundled, empty abusive lexicon,
    so its filtered corpus is the input's records unmasked."""
    out = tmp_path_factory.mktemp("plain") / "out"
    assert main(["run", "--input", str(DATA / "corpus_1000.csv"), "--output-dir", str(out)]) == 0
    return out


def test_ingest_reproduces_run_filter_chain(plain_run, tmp_path):
    output = tmp_path / "x.jsonl"
    assert main(["ingest", "--input", str(DATA / "corpus_1000.csv"),
                 "--start", "2020-04-30", "--end", "2020-05-08", "--keyword", "reopen",
                 "--country", "US", "--bots", "--provenance", "--output", str(output)]) == 0
    assert output.read_bytes() == (plain_run / "filtered_corpus.jsonl").read_bytes()
    assert (tmp_path / "x.provenance.json").read_bytes() == (plain_run / "provenance.json").read_bytes()


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("timing", ["now", "later"])
def test_scenario_reads_the_trend_of_the_run_that_wrote_the_report(golden_run, capsys, timing):
    # the run's analysis, rebuilt from its filtered corpus as the projections above do
    analysis = Analysis(load_corpus(golden_run / "filtered_corpus.jsonl", "jsonl"), None)
    trend = trend_from_report(analysis.distribution())
    capsys.readouterr()
    assert main(["scenario", "--input", str(golden_run / "distribution.json"),
                 "--timing", timing]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["id"] == classify_scenario(trend, timing)["id"]
    assert printed["inputs"] == {
        "pos_share": trend.pos_share,
        "neg_share": trend.neg_share,
        "dominant_emotions": trend.dominant_emotions,
        "timing": timing,
    }


def test_report_devices_csv_flattens_run_devices(golden_run, tmp_path):
    assert _project(golden_run, ["report", "--what", "devices", "--export", "csv"],
                    tmp_path / "d.csv") == 0
    devices = json.loads((golden_run / "devices.json").read_text())
    expected = [
        [device, str(body["n_records"]), name, repr(ratio)]
        for device, body in devices.items()
        for name, ratio in body["category_ratios"].items()
    ]
    header, *rows = _csv_rows(tmp_path / "d.csv")
    assert header == ["device", "n_records", "category", "ratio"]
    assert len(rows) > 1
    # devices.json sorts its keys; the CSV keeps the report's order
    assert sorted(rows) == sorted(expected)


def _json_bytes(value) -> bytes:
    """`value` in the layout of every JSON report."""
    return (json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--what", "mentions"], "mentions"),
        (["--what", "hashtags"], "hashtags"),
        (["--what", "locations", "--field", "tagged"], "locations_tagged"),
        (["--what", "locations", "--field", "stated"], "locations_stated"),
    ],
    ids=["mentions", "hashtags", "locations_tagged", "locations_stated"],
)
def test_report_ranking_json_is_run_ranking_rows(golden_run, tmp_path, argv, name):
    assert _project(golden_run, ["report", *argv], tmp_path / "r.json") == 0
    header, *rows = _csv_rows(golden_run / f"{name}.csv")
    assert header == ["rank", "key", "count"]
    assert rows
    expected = {
        "label": name,
        "rows": [{"rank": int(rank), "key": key, "count": int(count)} for rank, key, count in rows],
    }
    assert (tmp_path / "r.json").read_bytes() == _json_bytes(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ngrams_json_and_stdout_carry_the_run_csv_rows(golden_run, tmp_path, capsys, n):
    header, *rows = _csv_rows(golden_run / f"ngrams_{n}.csv")
    assert header == ["rank", "gram", "count"]
    assert len(rows) > 1
    argv = ["ngrams", "--n", str(n), "--top", "100"]
    assert _project(golden_run, argv + ["--export", "json"], tmp_path / "g.json") == 0
    expected = [{"rank": int(rank), "gram": gram, "count": int(count)} for rank, gram, count in rows]
    assert (tmp_path / "g.json").read_bytes() == _json_bytes(expected)
    capsys.readouterr()
    assert main(argv + ["--input", str(golden_run / "filtered_corpus.jsonl"), "--format", "jsonl"]) == 0
    assert capsys.readouterr().out == "".join(f"{rank}\t{gram}\t{count}\n" for rank, gram, count in rows)


def test_report_daily_json_is_run_emotion_daily(golden_run, tmp_path):
    assert _project(golden_run, ["report", "--what", "daily"], tmp_path / "d.json") == 0
    (_, *classes), *rows = _csv_rows(golden_run / "emotion_daily.csv")
    assert len(rows) > 1
    expected = {
        "days": [day for day, *_ in rows],
        "values": {cls: [float(row[i]) for row in rows] for i, cls in enumerate(classes, 1)},
    }
    assert (tmp_path / "d.json").read_bytes() == _json_bytes(expected)


def test_report_distribution_csv_flattens_run_distribution(golden_run, tmp_path):
    assert _project(golden_run, ["report", "--what", "distribution", "--export", "csv"],
                    tmp_path / "d.csv") == 0
    dist = json.loads((golden_run / "distribution.json").read_text())
    hist = dist["histogram"]
    expected = [["key", "value"]] + [
        [key, repr(dist[key])] for key in ("positive_share", "negative_share", "neutral_share")
    ] + [
        [f"bin[{hist['lo'] + i * hist['width']},{hist['lo'] + i * hist['width'] + hist['width']})",
         str(count)]
        for i, count in enumerate(hist["counts"])
    ]
    assert len(hist["counts"]) > 1
    assert _csv_rows(tmp_path / "d.csv") == expected


def test_report_distribution_csv_classifies_no_text(golden_run, tmp_path, monkeypatch):
    # the bytes of the CSV form as built from the whole distribution report
    corpus = load_corpus(golden_run / "filtered_corpus.jsonl", "jsonl")
    distribution_to_csv(Analysis(corpus, None).distribution(), tmp_path / "full.csv")

    def refuse(*args):
        raise AssertionError("emotion.classify was called")

    monkeypatch.setattr(pipeline_mod.emotion, "classify", refuse)
    argv = ["report", "--what", "distribution"]
    assert _project(golden_run, argv + ["--export", "csv"], tmp_path / "d.csv") == 0
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    # the JSON form holds the emotion totals, so it does classify
    assert _project(golden_run, argv, tmp_path / "d.json") == 4


def test_sentiment_emotion_columns_are_analysis_profiles(golden_run, tmp_path):
    assert _project(golden_run, ["sentiment"], tmp_path / "s.csv") == 0
    header, *rows = _csv_rows(tmp_path / "s.csv")
    assert header[4:] == list(ALL_CATEGORIES)
    corpus = load_corpus(golden_run / "filtered_corpus.jsonl", "jsonl")
    profiles = Analysis(corpus, None).profiles
    assert len(rows) == len(profiles) > 600
    assert [row[4:] for row in rows] == [
        [str(getattr(profile, c)) for c in ALL_CATEGORIES] for profile in profiles
    ]


# each subcommand's flags: option -> (default, choices, type, required). The
# three bot knobs record the BotPolicy value that an unset flag gives.
_FLAG_SURFACE = {
    "ingest": {
        "--input": (None, None, None, True),
        "--format": ("csv", ("csv", "jsonl"), None, False),
        "--start": (None, None, None, False),
        "--end": (None, None, None, False),
        "--keyword": (None, None, None, False),
        "--country": (None, None, None, False),
        "--bots": (False, None, None, False),
        "--dup-window": (3600.0, None, "float", False),
        "--burst-per-minute": (10, None, "int", False),
        "--min-distinct-tokens": (3, None, "int", False),
        "--output": (None, None, None, True),
        "--provenance": (False, None, None, False),
    },
    "ngrams": {
        "--input": (None, None, None, True),
        "--format": ("csv", ("csv", "jsonl"), None, False),
        "--n": (None, None, "int", True),
        "--top": (25, None, "int", False),
        "--export": ("csv", ("csv", "json"), None, False),
        "--output": (None, None, None, False),
        "--stopwords": (None, None, None, False),
        "--abusive-lexicon": (None, None, None, False),
    },
    "sentiment": {
        "--input": (None, None, None, True),
        "--format": ("csv", ("csv", "jsonl"), None, False),
        "--stopwords": (None, None, None, False),
        "--abusive-lexicon": (None, None, None, False),
        "--emotion-lexicon": (None, None, None, False),
        "--polarity-lexicon": (None, None, None, False),
        "--shifter-lexicon": (None, None, None, False),
        "--output": (None, None, None, True),
    },
    "report": {
        "--input": (None, None, None, True),
        "--format": ("csv", ("csv", "jsonl"), None, False),
        "--stopwords": (None, None, None, False),
        "--abusive-lexicon": (None, None, None, False),
        "--emotion-lexicon": (None, None, None, False),
        "--polarity-lexicon": (None, None, None, False),
        "--shifter-lexicon": (None, None, None, False),
        "--what": (
            None,
            ("mentions", "hashtags", "locations", "devices", "daily", "distribution"),
            None,
            True,
        ),
        "--top": (10, None, "int", False),
        "--field": ("stated", ("tagged", "stated"), None, False),
        "--export": ("json", ("csv", "json"), None, False),
        "--output": (None, None, None, True),
    },
    "scenario": {
        "--input": (None, None, None, True),
        "--timing": (None, ("now", "later"), None, True),
        "--output": (None, None, None, False),
    },
    "run": {
        "--config": (None, None, None, False),
        "--input": (None, None, None, False),
        "--format": (None, ("csv", "jsonl"), None, False),
        "--output-dir": (None, None, None, False),
        "--start": (None, None, None, False),
        "--end": (None, None, None, False),
        "--keyword": (None, None, None, False),
        "--country": (None, None, None, False),
        "--stopwords": (None, None, None, False),
        "--abusive-lexicon": (None, None, None, False),
        "--emotion-lexicon": (None, None, None, False),
        "--polarity-lexicon": (None, None, None, False),
        "--shifter-lexicon": (None, None, None, False),
    },
    "synth": {
        "--seed": (42, None, "int", False),
        "--n": (None, None, "int", True),
        "--output": (None, None, None, True),
        "--format": ("csv", ("csv", "jsonl"), None, False),
        "--ledger": (None, None, None, False),
    },
}


def test_cli_flag_surface_is_pinned(tmp_path, monkeypatch):
    # the policy an `ingest --bots` without bot knobs filters with
    policies = []
    real_load = cli_mod.load_filtered

    def spy(path, format, chain, policy):
        policies.append(policy)
        return real_load(path, format, chain, policy)

    monkeypatch.setattr(cli_mod, "load_filtered", spy)
    assert main(["ingest", "--input", str(DATA / "corpus_1000.csv"), "--bots",
                 "--output", str(tmp_path / "x.jsonl")]) == 0
    (policy,) = policies

    parser = cli_mod.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for command, sub in subparsers.choices.items():
        flags = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            default = action.default
            if action.dest in BotPolicy.__dataclass_fields__:
                default = getattr(policy, action.dest)
            choices = None if action.choices is None else tuple(action.choices)
            type_name = None if action.type is None else action.type.__name__
            (flag,) = action.option_strings
            flags[flag] = (default, choices, type_name, action.required)
        surface[command] = flags
    assert surface == _FLAG_SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--input=--"],
        ["run", "--config=--", "--input", "c.csv"],
        ["ingest", "--input=--", "--output", "x.jsonl"],
        ["ngrams", "--input=--", "--n", "1"],
        ["sentiment", "--input", "c.csv", "--stopwords=--", "--output", "s.csv"],
        ["report", "--input", "c.csv", "--what", "mentions", "--polarity-lexicon=--", "--output", "r.json"],
        ["scenario", "--input=--", "--timing", "now"],
    ],
    ids=lambda argv: argv[0],
)
def test_bare_double_dash_for_a_file_read_is_config_error(workdir, capsys, argv):
    # argparse before Python 3.13 reads `--flag=--` as [] (no value), and 3.13
    # as "--", a file that does not exist here: both are refused before any work
    (workdir / "c.csv").write_bytes((DATA / "corpus_1000.csv").read_bytes())
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(path.name for path in workdir.iterdir()) == ["c.csv"]


_NUL_PATHS = {
    "ngrams-output": (["ngrams", "--input", "c.csv", "--n", "1", "--output", "t\x00.csv"], "--output", "t\x00.csv"),
    "run-output-dir": (["run", "--input", "c.csv", "--output-dir", "o\x00"], "output_dir", "o\x00"),
    "run-config-output-dir": (["run", "--config", "cfg.json"], "output_dir", "out\x00"),
    "scenario-input": (["scenario", "--input", "\x00", "--timing", "now"], "--input", "\x00"),
    "sentiment-input": (["sentiment", "--input", "c\x00.csv", "--output", "s.csv"], "input", "c\x00.csv"),
    "report-stopwords": (
        ["report", "--input", "c.csv", "--what", "mentions", "--stopwords", "s\x00", "--output", "r.json"],
        "stopwords_path", "s\x00",
    ),
}


@pytest.mark.parametrize("argv, label, path", _NUL_PATHS.values(), ids=_NUL_PATHS)
def test_path_holding_nul_is_config_error(workdir, capsys, argv, label, path):
    # no file system takes a NUL in a path: refused before any work, and printed escaped
    (workdir / "c.csv").write_bytes((DATA / "corpus_1000.csv").read_bytes())
    (workdir / "cfg.json").write_text(json.dumps({"input": "c.csv", "output_dir": "out\x00"}), "utf-8")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {label} holds a NUL character: {path!r}\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["c.csv", "cfg.json"]


# the drawn-argv property: a working call of each command, with up to three
# of its flags set from pools of files the commands read (a corpus and a
# distribution report), bad paths, files that are not clean UTF-8 CSV (a
# byte-order mark, a non-UTF-8 row, a field over the csv module's limit) and
# numbers in and out of their ranges; argparse before Python 3.13 reads a
# flag's bare `--` as no value
_ARGV_BASES = {
    "ingest": {"--input": "c.csv", "--output": "x.jsonl"},
    "ngrams": {"--input": "c.csv", "--n": "2"},
    "sentiment": {"--input": "c.csv", "--output": "s.csv"},
    "report": {"--input": "c.csv", "--what": "daily", "--output": "r.json"},
    "scenario": {"--input": "d.json", "--timing": "now"},
    "run": {"--input": "c.csv", "--output-dir": "out"},
}
_ARGV_PATHS = [
    "c.csv", "d.json", "missing.csv", "adir", "c.csv/x", "nodir/x", "/dev/null", "--", "bom.csv", "latin1.csv",
    "big.csv",
]
_ARGV_NUMBERS = ["2", "0", "-1", "99999999999999999999", "nan", "inf", "--"]


def _flag_value(command, flag):
    default, choices, type_name, _ = _FLAG_SURFACE[command][flag]
    if default is False:  # a switch
        return st.just(None)
    return st.sampled_from([*choices, "--"] if choices else _ARGV_NUMBERS if type_name else _ARGV_PATHS)


def _argv(command, flags):
    return st.tuples(*(_flag_value(command, flag) for flag in flags)).map(
        lambda values: [command, *(
            flag if value is None else f"{flag}={value}"
            for flag, value in {**_ARGV_BASES[command], **dict(zip(flags, values))}.items()
        )]
    )


_ARGVS = st.sampled_from(list(_ARGV_BASES)).flatmap(
    lambda command: st.lists(st.sampled_from(list(_FLAG_SURFACE[command])), max_size=3, unique=True).flatmap(
        lambda flags: _argv(command, flags)
    )
)

# the JSON config pool: `run --config cfg.json`, with up to three RunConfig
# fields given a value of a wrong JSON type, NaN, an infinity, a huge number,
# an empty string, a string holding NUL, a list or an object
_CONFIG_VALUES = [True, 7, 0.5, "x", None, float("nan"), float("inf"), 1e300, 2**70, "", "out\x00", ["c.csv"], {}]
_CONFIGS = st.dictionaries(
    st.sampled_from(list(pipeline_mod.RunConfig.__dataclass_fields__)), st.sampled_from(_CONFIG_VALUES), max_size=3
).map(lambda drawn: (["run", "--config=cfg.json"], {"input": "c.csv", "output_dir": "out", **drawn}))


def _argv_inputs(where: Path) -> None:
    lines = (DATA / "corpus_1000.csv").read_text("utf-8").splitlines(keepends=True)
    corpus = "".join(lines[:30])
    (where / "c.csv").write_text(corpus, "utf-8")
    (where / "d.json").write_text(json.dumps({"positive_share": 0.5, "negative_share": 0.25}), "utf-8")
    (where / "adir").mkdir()
    (where / "bom.csv").write_bytes(b"\xef\xbb\xbf" + corpus.encode())
    (where / "latin1.csv").write_bytes(corpus.encode() + lines[30].replace("t", "\xe9").encode("latin-1"))
    row = next(csv.reader([lines[30]]))
    row[2] = "a" * (csv.field_size_limit() + 1)  # the text
    with open(where / "big.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(corpus)
        csv.writer(fh, lineterminator="\n").writerow(row)


def _tree(root: Path) -> dict:
    """Each entry under `root`, hidden ones too: a file's bytes, None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


@settings(max_examples=600, deadline=None)
@given(call=_ARGVS.map(lambda argv: (argv, None)) | _CONFIGS)
def test_drawn_argv_exits_0_2_or_3_and_names_the_error(tmp_path_factory, call):
    argv, config = call
    # a rename onto /dev/null would replace the device: a staged path fails here, before any move
    with publish("/dev/null") as paths:
        assert paths == [Path("/dev/null")]
    where = tmp_path_factory.mktemp("argv")
    _argv_inputs(where)
    if config is not None:
        (where / "cfg.json").write_text(json.dumps(config), "utf-8")  # NaN and Infinity as Python writes them
    before = _tree(where)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(where)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    finally:
        os.chdir(home)
    after = _tree(where)
    shutil.rmtree(where)
    assert code in (0, 2, 3), (call, err.getvalue())
    assert "\x00" not in err.getvalue(), call
    if code:
        assert any(line.startswith("error: ") or ": error: " in line for line in err.getvalue().splitlines())
        assert after == before, call  # no new entry, and every earlier file as it was
    assert not [name for name in after if Path(name).name.startswith(".tweetsent-")], call
    for name, data in after.items():
        if name.endswith(".json") and data not in (None, before.get(name)):
            try:
                json.loads(data)
            except ValueError:  # not JSON: a CSV or JSONL output given a .json name
                continue
            json.loads(data, parse_constant=_refuse)
