from __future__ import annotations

import argparse
import csv
import gc
import json
import os
from pathlib import Path

import pytest

import tweetsent.cli as cli_mod
import tweetsent.pipeline as pipeline_mod
from tweetsent.cli import main
from tweetsent.corpus import BotPolicy, load_corpus
from tweetsent.emotion import ALL_CATEGORIES
from tweetsent.errors import (
    ConfigError,
    EmptyCorpusError,
    InvalidRangeError,
    PipelineStageError,
    SchemaError,
)
from tweetsent.exports import distribution_to_csv
from tweetsent.pipeline import Analysis
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
        ("1e200", ["great great great reopen", "reopen now"], ["sentiment", "--output", "s.csv"], "bins"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["sentiment", "--output", "adir"],
        ["report", "--what", "distribution", "--output", "adir"],
        ["ngrams", "--n", "2", "--output", "adir"],
        ["ingest", "--output", "adir"],
    ],
    ids=["sentiment", "report", "ngrams", "ingest"],
)
def test_directory_given_as_output_is_config_error_before_loading(workdir, capsys, monkeypatch, argv):
    (workdir / "adir").mkdir()
    loads = []
    for module in (cli_mod, pipeline_mod):
        monkeypatch.setattr(module, "load_corpus", lambda *args: loads.append(args))
    assert main([argv[0], "--input", str(DATA / "corpus_1000.csv"), *argv[1:]]) == 2
    assert capsys.readouterr().err == "error: --output: Is a directory: adir\n"
    assert loads == []  # refused before any input is read
    assert [p.name for p in workdir.iterdir()] == ["adir"]


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


# each analysis command with its file flags, by the field name that `run` gives each
_ANALYSIS_FILE_FLAGS = {
    "ngrams": ["--n", "4"],
    "sentiment": ["--output", "s.csv"],
    "report": ["--what", "devices", "--output", "r.json"],
}
_ANALYSIS_FILE_CASES = [
    (command, field, flag)
    for command in _ANALYSIS_FILE_FLAGS
    for field, flag in _RUN_FILE_FIELDS.items()
    if command != "ngrams" or field in ("input", "stopwords_path", "abusive_lexicon_path")
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

    monkeypatch.setattr(cli_mod, "load_corpus", load)
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
