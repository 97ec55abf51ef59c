from __future__ import annotations

import csv
import gc
import hashlib
import json
import random
import re
import tempfile
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tweetsent
import tweetsent.pipeline as pipeline_mod
from oracles import bot_filter, filter_rows, per_record_run
from tweetsent.cli import build_parser, main
from tweetsent.corpus import CSV_COLUMNS, BotPolicy, load_corpus
from tweetsent.errors import ConfigError, EmptyCorpusError, PipelineStageError
from tweetsent.exports import scores_to_csv
from tweetsent.pipeline import RunConfig, run_pipeline
from tweetsent.synth import ABUSIVE_POOL, generate_synthetic_corpus, write_synthetic_corpus

DATA = Path(__file__).parent / "data"

EXPECTED_OUTPUTS = {
    "provenance.json",
    "filtered_corpus.jsonl",
    "ngrams_1.csv",
    "ngrams_2.csv",
    "ngrams_3.csv",
    "ngrams_4.csv",
    "wordcloud.json",
    "mentions.csv",
    "hashtags.csv",
    "locations_tagged.csv",
    "locations_stated.csv",
    "devices.json",
    "emotion_totals.json",
    "emotion_daily.csv",
    "polarity_scores.csv",
    "distribution.json",
}


def _golden_config(**overrides) -> RunConfig:
    values = dict(
        input="corpus_1000.csv",
        format="csv",
        start_date="2020-04-30",
        end_date="2020-05-08",
        keyword="reopen",
        country="US",
        abusive_lexicon_path="abusive_fixture.txt",
        output_dir="out",
    )
    values.update(overrides)
    return RunConfig(**values)


@pytest.fixture
def golden_workdir(tmp_path, monkeypatch):
    (tmp_path / "corpus_1000.csv").write_bytes((DATA / "corpus_1000.csv").read_bytes())
    (tmp_path / "abusive_fixture.txt").write_bytes((DATA / "abusive_fixture.txt").read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_bundled_fixture_matches_regeneration(tmp_path):
    write_synthetic_corpus(tmp_path / "fresh.csv", seed=42, n=1000, format="csv")
    assert (tmp_path / "fresh.csv").read_bytes() == (DATA / "corpus_1000.csv").read_bytes()


def test_abusive_fixture_matches_pool():
    words = (DATA / "abusive_fixture.txt").read_text().split()
    assert words == ABUSIVE_POOL


def test_golden_manifest_hash(golden_workdir):
    run_pipeline(_golden_config())
    digest = hashlib.sha256((golden_workdir / "out" / "manifest.json").read_bytes()).hexdigest()
    want = (DATA / "golden_manifest.sha256").read_text().strip()
    assert digest == want


def test_manifest_version_is_the_package_and_project_version(golden_workdir):
    run_pipeline(_golden_config())
    written = json.loads((golden_workdir / "out" / "manifest.json").read_text())["version"]
    # a regex, not tomllib: Python 3.10 has none
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)[1]
    assert written == tweetsent.__version__ == project


def test_pipeline_outputs_complete_and_hashed(golden_workdir):
    manifest = run_pipeline(_golden_config())
    out = golden_workdir / "out"
    assert set(manifest.outputs) == EXPECTED_OUTPUTS
    for name, digest in manifest.outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    prov = manifest.stages["provenance"]
    assert prov["parsed"] == 1000
    assert prov["parsed"] == manifest.stages["records_final"] + prov["skipped"] + sum(
        prov["filtered"].values()
    )


def test_pipeline_runs_are_byte_identical(golden_workdir):
    run_pipeline(_golden_config(output_dir="out1"))
    run_pipeline(_golden_config(output_dir="out2"))
    names = sorted(p.name for p in (golden_workdir / "out1").iterdir())
    assert names == sorted(p.name for p in (golden_workdir / "out2").iterdir())
    for name in names:
        a = (golden_workdir / "out1" / name).read_bytes()
        b = (golden_workdir / "out2" / name).read_bytes()
        if name == "manifest.json":
            # config echo differs only in the output_dir we chose
            a = a.replace(b'"out1"', b'"outX"')
            b = b.replace(b'"out2"', b'"outX"')
        assert a == b, name


def test_empty_input_fails_at_load_stage(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text(
        "status_id,created_at,text,source,location,country_code,hashtags,mentions,user_id,is_retweet\n"
    )
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(_golden_config(input="empty.csv", abusive_lexicon_path=None))
    assert err.value.stage == "load"
    assert isinstance(err.value.cause, EmptyCorpusError)
    assert not (tmp_path / "out").exists()


def test_failed_write_leaves_no_partial_outputs(golden_workdir, monkeypatch):
    real_write_json = pipeline_mod.write_json
    calls = {"n": 0}

    def flaky(obj, path):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise OSError("disk full")
        real_write_json(obj, path)

    monkeypatch.setattr(pipeline_mod, "write_json", flaky)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(_golden_config())
    assert err.value.stage == "write"
    leftovers = list((golden_workdir / "out").iterdir())
    assert leftovers == []


@pytest.mark.parametrize("failure", ["writer raises", "devices.json is a directory"])
def test_failed_rerun_leaves_the_earlier_run_in_place(golden_workdir, monkeypatch, capsys, failure):
    out = golden_workdir / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not the run's\n")
    run_pipeline(_golden_config())
    names = EXPECTED_OUTPUTS | {"manifest.json", "notes.txt"}
    assert {p.name for p in out.iterdir()} == names  # no staging directory is left
    before = {name: (out / name).read_bytes() for name in names}
    if failure == "writer raises":
        real_write_json = pipeline_mod.write_json

        def flaky(obj, path):
            if Path(path).name == "distribution.json":  # the last output
                raise OSError("disk full")
            real_write_json(obj, path)

        monkeypatch.setattr(pipeline_mod, "write_json", flaky)
        message = "stage 'write' failed: disk full"
    else:
        (out / "devices.json").unlink()
        (out / "devices.json").mkdir()
        del before["devices.json"]
        message = "stage 'write' failed: [Errno 21] Is a directory: 'out/devices.json'"
    # smaller tables: a rerun that moved any file into place would change its bytes
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(_golden_config(ngram_top=5, rank_top=3))
    assert err.value.stage == "write"
    argv = ["run", "--input", "corpus_1000.csv", "--abusive-lexicon", "abusive_fixture.txt", "--output-dir", "out"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name for p in out.iterdir()} == names
    assert {name: (out / name).read_bytes() for name in before} == before


def test_rerun_writes_through_a_symlinked_output(golden_workdir):
    # a rename would replace the link with a regular file; it is written in place
    out = golden_workdir / "out"
    run_pipeline(_golden_config())
    kept = golden_workdir / "kept.json"
    kept.write_text("not the run's\n")
    (out / "devices.json").unlink()
    (out / "devices.json").symlink_to(kept)
    manifest = run_pipeline(_golden_config())
    assert (out / "devices.json").is_symlink()
    assert hashlib.sha256(kept.read_bytes()).hexdigest() == manifest.outputs["devices.json"]
    assert {p.name for p in out.iterdir()} == EXPECTED_OUTPUTS | {"manifest.json"}


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(input=str(tmp_path / "missing.csv")).validate()
    good = tmp_path / "c.csv"
    good.write_text("x\n")
    with pytest.raises(ConfigError):
        RunConfig(input=str(good), start_date="2020-05-09", end_date="2020-05-01").validate()
    with pytest.raises(ConfigError):
        RunConfig(input=str(good), format="xml").validate()
    with pytest.raises(ConfigError):
        RunConfig(input=str(good), country="USA").validate()
    with pytest.raises(ConfigError):
        RunConfig(input=str(good), amplifier_weight=5.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(input=str(good), stopwords_path=str(tmp_path / "nope.txt")).validate()


def test_config_numbers_take_ints_and_floats_by_field(tmp_path):
    good = tmp_path / "c.csv"
    good.write_text("x\n")
    RunConfig(input=str(good), amplifier_weight=1, dup_window_seconds=60).validate()
    for field, value in [("ngram_top", 10.0), ("window_before", False), ("amplifier_weight", "1")]:
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RunConfig(input=str(good), **{field: value}).validate()


def test_synth_csv_header_is_the_corpus_columns(tmp_path):
    write_synthetic_corpus(tmp_path / "c.csv", seed=1, n=10, format="csv")
    with open(tmp_path / "c.csv", encoding="utf-8", newline="") as fh:
        assert next(csv.reader(fh)) == CSV_COLUMNS


# `run`'s flags that set a config field, each with the field it sets
_RUN_FLAGS = {
    "--input": "input", "--format": "format", "--output-dir": "output_dir",
    "--start": "start_date", "--end": "end_date", "--keyword": "keyword", "--country": "country",
    "--stopwords": "stopwords_path", "--abusive-lexicon": "abusive_lexicon_path",
    "--emotion-lexicon": "emotion_lexicon_path", "--polarity-lexicon": "polarity_lexicon_path",
    "--shifter-lexicon": "shifter_lexicon_path",
}
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    file=st.none() | st.dictionaries(st.sampled_from(list(RunConfig.__dataclass_fields__)), _JSON_SCALARS),
    unknown=st.sets(st.text("xyz", min_size=1, max_size=3), max_size=2),
    # argparse before Python 3.13 reads `--flag=--` as [], not "--": test_cli pins what the CLI does then
    flags=st.dictionaries(
        st.sampled_from(list(_RUN_FLAGS)), st.text("ab./-", min_size=1, max_size=4).filter(lambda v: v != "--")
    ),
    format=st.none() | st.sampled_from(["csv", "jsonl"]),
)
def test_load_puts_the_set_flags_over_the_config_file(tmp_path_factory, file, unknown, flags, format):
    flags.pop("--format", None)  # a choice flag: drawn on its own
    if format is not None:
        flags["--format"] = format
    argv = ["run", *(f"{flag}={value}" for flag, value in flags.items())]
    if file is not None:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps({**file, **dict.fromkeys(unknown, 1)}), encoding="utf-8")
        argv += ["--config", str(path)]
    args = build_parser().parse_args(argv)
    want = {**(file or {}), **{_RUN_FLAGS[flag]: value for flag, value in flags.items()}}
    if unknown and file is not None:
        with pytest.raises(ConfigError, match=f"^unknown config keys: {', '.join(sorted(unknown))}$"):
            RunConfig.load(args.config, vars(args))
    elif "input" not in want:
        with pytest.raises(ConfigError, match="^config requires 'input'$"):
            RunConfig.load(args.config, vars(args))
    else:
        assert RunConfig.load(args.config, vars(args)) == RunConfig(**want)


@settings(max_examples=30, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "dup_window_seconds": st.floats(0, 1e9), "burst_per_minute": st.integers(1, 10**6),
    "min_distinct_tokens": st.integers(0, 50),
}))
def test_ingest_flags_and_a_config_give_one_bot_policy(knobs):
    flags = {"dup_window_seconds": "--dup-window", "burst_per_minute": "--burst-per-minute",
             "min_distinct_tokens": "--min-distinct-tokens"}
    argv = ["ingest", "--input", "x.csv", "--output", "x.jsonl"]
    args = build_parser().parse_args(argv + [f"{flags[name]}={value!r}" for name, value in knobs.items()])
    policy = pipeline_mod.group(BotPolicy, args)
    assert policy == pipeline_mod.group(BotPolicy, RunConfig(input="x.csv", **knobs)) == BotPolicy(**knobs)


def test_synth_deterministic(tmp_path):
    write_synthetic_corpus(tmp_path / "a.csv", seed=7, n=300, format="csv")
    write_synthetic_corpus(tmp_path / "b.csv", seed=7, n=300, format="csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    write_synthetic_corpus(tmp_path / "c.csv", seed=8, n=300, format="csv")
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_synth_jsonl_roundtrip(tmp_path):
    from tweetsent.corpus import load_corpus

    write_synthetic_corpus(tmp_path / "c.jsonl", seed=3, n=50, format="jsonl")
    c = load_corpus(tmp_path / "c.jsonl", "jsonl")
    assert len(c.records) == 50
    assert c.provenance.skipped == 0


def test_synth_rows_and_ledger_consistent():
    rows, ledger = generate_synthetic_corpus(5, 400)
    assert len(rows) == 400
    ids = {r["status_id"] for r in rows}
    assert len(ids) == 400
    planted = (
        set(ledger["duplicate_ids"]) | set(ledger["burst_ids"]) | set(ledger["low_token_ids"])
    )
    assert planted <= ids
    assert ledger["counts"]["base"] + len(planted) == 400


@pytest.mark.parametrize(
    "overrides, stage",
    [
        (dict(start_date="2019-01-01", end_date="2019-01-02"), "date_range"),
        (dict(keyword="zzzqqq"), "keyword"),
        (dict(country="ZZ"), "country"),
        (dict(min_distinct_tokens=1000), "bots"),
    ],
)
def test_filter_that_empties_the_corpus_stops_the_run(golden_workdir, overrides, stage):
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(_golden_config(**overrides))
    assert err.value.stage == stage
    assert isinstance(err.value.cause, EmptyCorpusError)
    assert stage in str(err.value)
    assert not (golden_workdir / "out").exists()


def _share_texts(src: Path, dst: Path, seed: int = 4) -> None:
    """Copy a corpus with half its regular records taking the text, hashtags
    and mentions of one of 50 keyword-bearing regular records, as the
    benchmark's repeat workload does; ids, users and times stay."""
    ledger = json.loads((DATA / "ledger_1000.json").read_text())
    planted = set(ledger["duplicate_ids"]) | set(ledger["burst_ids"]) | set(ledger["low_token_ids"])
    with open(src, encoding="utf-8", newline="") as fh:
        header, *body = csv.reader(fh)
    col = {name: i for i, name in enumerate(header)}
    regular = [row for row in body if row[col["status_id"]] not in planted]
    rng = random.Random(seed)
    keyword_rows = [row for row in regular if "reopen" in row[col["text"]].casefold()]
    viral = [
        (row[col["text"]], row[col["hashtags"]], row[col["mentions"]])
        for row in rng.sample(keyword_rows, 50)
    ]
    for row in rng.sample(regular, len(regular) // 2):
        row[col["text"]], row[col["hashtags"]], row[col["mentions"]] = rng.choice(viral)
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + body)


def test_shared_texts_give_the_per_record_reports(golden_workdir):
    # the golden corpus has no two surviving records with one text, so only
    # a corpus of shared texts shows a record given another text's results
    _share_texts(golden_workdir / "corpus_1000.csv", golden_workdir / "shared.csv")
    cfg = _golden_config(input="shared.csv")
    manifest = run_pipeline(cfg)
    occurrences = per_record_run(cfg, golden_workdir / "want")

    out, want = golden_workdir / "out", golden_workdir / "want"
    lines = (out / "filtered_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    texts = [json.loads(line)["text"] for line in lines]
    assert len(set(texts)) < 0.75 * len(texts)
    assert any("abuvs" in text for text in texts)
    assert set(manifest.outputs) == {path.name for path in want.iterdir()}
    for name in manifest.outputs:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
    assert manifest.stages["mask"]["occurrences"] == occurrences > 0


def _regular_rows() -> tuple[list[str], list[list[str]]]:
    """The header and the rows of the golden corpus that the default filters
    keep and that the generator did not plant as bots."""
    ledger = json.loads((DATA / "ledger_1000.json").read_text())
    planted = set(ledger["duplicate_ids"]) | set(ledger["burst_ids"]) | set(ledger["low_token_ids"])
    kept = {r.id for r in load_corpus(DATA / "corpus_1000.csv", "csv", pipeline_mod.check_filters(
        "2020-04-30", "2020-05-08", "reopen", "US")).records}
    with open(DATA / "corpus_1000.csv", encoding="utf-8", newline="") as fh:
        header, *body = csv.reader(fh)
    return header, [row for row in body if row[CSV_COLUMNS.index("status_id")] in kept - planted]


_HEADER, _REGULAR = _regular_rows()
# texts that pass the keyword and token filters, several of them shared by
# drawn records, with case variants of abusive words, so that raw texts that
# differ mask alike; a word hits twice in one, and two glued words hit none
_SHARED_TEXTS = [
    "reopen the park badword01 now",
    "reopen the park BadWord01 now",
    "reopen the park BADWORD01 now",
    "Reopen BadWord02 badword02 and badword03! Now.",
    "reopen badWord02 BADWORD02 and Badword03! now.",
    "we reopen schools soon badword01badword02",
    "reopen it all today please",
]


def _run_matches_the_per_record_run(rows: list[list[str]], **config) -> None:
    """Run the golden config with `config` over a corpus of `rows`; every
    output byte and the mask occurrence count equal `per_record_run`'s."""
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        with open(folder / "drawn.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([_HEADER, *rows])
        cfg = _golden_config(input=str(folder / "drawn.csv"), output_dir=str(folder / "out"),
                             abusive_lexicon_path=str(DATA / "abusive_fixture.txt"), **config)
        try:
            manifest = run_pipeline(cfg)
        except PipelineStageError as exc:
            # only the bot filter may leave no record, and then the oracle's leaves none either
            assert exc.stage == "bots"
            kept, _ = filter_rows(load_corpus(cfg.input).records, date.fromisoformat(cfg.start_date),
                                  date.fromisoformat(cfg.end_date), cfg.keyword, cfg.country)
            assert bot_filter(kept, pipeline_mod.group(BotPolicy, cfg))[0] == []
            return
        occurrences = per_record_run(cfg, folder / "want")
        assert set(manifest.outputs) == {path.name for path in (folder / "want").iterdir()}
        for name in manifest.outputs:
            assert (folder / "out" / name).read_bytes() == (folder / "want" / name).read_bytes(), name
        assert manifest.stages["mask"]["occurrences"] == occurrences


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(_REGULAR) - 1), st.none() | st.sampled_from(_SHARED_TEXTS)),
        min_size=1, max_size=40, unique_by=lambda pick: pick[0],
    )
)
def test_shared_and_alike_masking_texts_give_the_per_record_run(picks):
    rows = []
    for i, text in picks:
        row = list(_REGULAR[i])
        row[CSV_COLUMNS.index("text")] = text or row[CSV_COLUMNS.index("text")]
        rows.append(row)
    _run_matches_the_per_record_run(rows)


# device categories of several keywords each, some of several words, one
# keyword inside another category's keyword
_CATEGORY_POOL = [
    None,
    {"reopen": ["reopen", "reopening"], "park": ["the park", "park"]},
    {"when": ["now", "today", "soon"], "schools": ["schools", "reopen schools"], "fear": ["fear"]},
]
_DRAWN_AT = datetime(2020, 5, 3, 12, 0, tzinfo=timezone.utc)


@settings(max_examples=100, deadline=None)
@given(
    picks=st.lists(
        st.tuples(
            st.integers(0, len(_REGULAR) - 1),
            st.none() | st.sampled_from(_SHARED_TEXTS),
            # a user that several picks share, and a time seconds after _DRAWN_AT,
            # so that gaps fall at, under and over the bot windows
            st.sampled_from([None, "drawn_a", "drawn_b"]),
            st.sampled_from([None, 0, 1, 60, 61]),
        ),
        min_size=1, max_size=40, unique_by=lambda pick: pick[0],
    ),
    # small cut-offs fall on ties, also with wordcloud_top > ngram_top
    tops=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    categories=st.sampled_from(_CATEGORY_POOL),
    windows=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    weights=st.tuples(*[st.sampled_from([0.0, 0.5, 0.8, 0.85, 1.0, 2.0])] * 2),
    bots=st.tuples(st.sampled_from([0.0, 1.0, 60.0, 3600.0]), st.integers(1, 4), st.integers(0, 6)),
)
def test_drawn_configs_give_the_per_record_run(picks, tops, categories, windows, weights, bots):
    col = {name: CSV_COLUMNS.index(name) for name in ("text", "user_id", "created_at")}
    rows = []
    for i, text, user, seconds in picks:
        row = list(_REGULAR[i])
        row[col["text"]] = text or row[col["text"]]
        row[col["user_id"]] = user or row[col["user_id"]]
        if seconds is not None:
            row[col["created_at"]] = (_DRAWN_AT + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")
        rows.append(row)
    _run_matches_the_per_record_run(
        rows,
        rank_top=tops[0], ngram_top=tops[1], wordcloud_top=tops[2], device_categories=categories,
        window_before=windows[0], window_after=windows[1],
        amplifier_weight=weights[0], adversative_weight=weights[1],
        dup_window_seconds=bots[0], burst_per_minute=bots[1], min_distinct_tokens=bots[2],
    )


def test_analysis_keeps_one_result_per_distinct_text_with_its_record_count(golden_workdir):
    _share_texts(golden_workdir / "corpus_1000.csv", golden_workdir / "shared.csv")
    corpus = load_corpus("shared.csv")
    # two input texts that differ only in the case of a masked word mask alike
    alike = [replace(corpus.records[i], id=f"alike{i}", text=text)
             for i, text in enumerate(["BadWord01 reopen it now", "badword01 reopen it now"])]
    corpus = corpus._replace(records=corpus.records + alike)
    analysis = pipeline_mod.Analysis(corpus, _golden_config())
    texts = [r.text for r in corpus.records]
    distinct = list(dict.fromkeys(texts))
    assert analysis.weights == [texts.count(t) for t in distinct]
    assert len(distinct) < sum(analysis.weights) == len(texts)
    # ... and keep a slot each, with the same results
    assert analysis.weights[-2:] == [1, 1]
    first, second = (r.text for r in analysis.corpus.records[-2:])
    assert first == second and re.fullmatch(r"abuvs[0-9]+ reopen it now", first)
    assert analysis.distinct_full[-2] == analysis.distinct_full[-1]
    per_text = (analysis.distinct_full, analysis.distinct_stopped, analysis.distinct_profiles)
    assert [len(values) for values in per_text] == [len(distinct)] * 3
    per_record = (analysis.cleaned, analysis.profiles, analysis.scores)
    assert [len(values) for values in per_record] == [len(texts)] * 3
    assert not hasattr(analysis, "full") and not hasattr(analysis, "stopped")
    # the records of one text share its profile, which cannot be edited in place
    with pytest.raises(AttributeError):
        analysis.distinct_profiles[0].trust += 1


def test_analysis_scores_with_the_scoring_parameters_of_its_options(golden_workdir):
    cfg = _golden_config(window_before=1, amplifier_weight=1.6, adversative_weight=0.3)
    run_pipeline(cfg)
    chain = pipeline_mod.check_filters(cfg.start_date, cfg.end_date, cfg.keyword, cfg.country)
    corpus = pipeline_mod.load_filtered(cfg.input, cfg.format, chain, BotPolicy())
    analysis = pipeline_mod.Analysis(corpus, cfg)
    scores_to_csv(analysis.corpus, analysis.scores, "scores.csv")
    assert Path("scores.csv").read_bytes() == Path("out/polarity_scores.csv").read_bytes()
    # the knobs move the scores: the default parameters give others
    assert analysis.scores != pipeline_mod.Analysis(corpus, None).scores


def test_each_analysis_shares_its_tokens_and_no_other_analysis_does(golden_workdir):
    corpus = load_corpus("corpus_1000.csv")
    first, second = (pipeline_mod.Analysis(corpus, _golden_config()) for _ in range(2))

    def token_objects(texts) -> dict[int, str]:
        # one-character strings are shared by the interpreter itself
        return {id(t): t for sentences in texts for s in sentences for t in s if len(t) > 1}

    full = token_objects(first.distinct_full)
    assert len(full) == len(set(full.values())) > 0  # one object per distinct token
    assert token_objects(first.distinct_stopped).keys() <= full.keys()
    assert not full.keys() & token_objects(second.distinct_full).keys()


def test_run_pauses_gc_and_restores_it(golden_workdir, monkeypatch, gc_enabled):
    seen = []
    real_load = pipeline_mod.load_corpus

    def load(*args):
        seen.append(gc.isenabled())
        return real_load(*args)

    monkeypatch.setattr(pipeline_mod, "load_corpus", load)
    run_pipeline(_golden_config())
    assert seen == [False]
    assert gc.isenabled() is gc_enabled


def test_failed_run_restores_gc(golden_workdir, gc_enabled):
    with pytest.raises(PipelineStageError):
        run_pipeline(_golden_config(keyword="zzzqqq"))
    assert gc.isenabled() is gc_enabled


def test_run_frees_its_values_before_the_collector_resumes(golden_workdir):
    # the objects that each generation-0 pass walks: about 9,000 if the run's
    # values are still alive when the collector resumes, under 1,000 if not
    walked = []

    def probe(phase, info):
        if phase == "start" and info["generation"] == 0:
            walked.append(len(gc.get_objects(generation=0)))

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(probe)
    try:
        run_pipeline(_golden_config())
        gc.collect(0)  # one pass at least, so that the probe is seen to run
    finally:
        gc.callbacks.remove(probe)
        (gc.enable if was_enabled else gc.disable)()
    assert walked and max(walked) < 3000, walked
