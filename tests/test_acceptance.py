"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria marked with timing budgets measure wall-clock time.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from pathlib import Path

import pytest

from conftest import make_record
from oracles import emotion_counts, ngram_counts, score_sentence as oracle_score
from tweetsent.analytics import device_group_report
from tweetsent.corpus import BotPolicy, filter_bots_and_duplicates
from tweetsent.emotion import ALL_CATEGORIES, EmotionProfile, classify
from tweetsent.errors import TiedTrendError
from tweetsent.ngrams import build_table
from tweetsent.pipeline import RunConfig, run_pipeline
from tweetsent.polarity import PolarityLexicon, score_sentence
from tweetsent.scenario import SentimentTrend, classify_scenario, trend_from_report
from tweetsent.synth import ABUSIVE_POOL, write_synthetic_corpus
from tweetsent.textprep import mask_pattern, mask_text, prepare, remove_stopwords

DATA = Path(__file__).parent / "data"


def _ok(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {message}")


def test_criterion_01_ngram_oracle(synth_corpus, stoplist):
    t0 = time.perf_counter()
    full = [prepare(r.text) for r in synth_corpus.records]
    stopped = [remove_stopwords(sentences, stoplist) for sentences in full]
    for n in (1, 2, 3, 4):
        streams = stopped if n <= 2 else full
        assert dict(build_table(streams, n)) == ngram_counts(streams, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"n-gram tables n=1..4 equal brute-force counts on 1,000 records ({elapsed:.2f}s)")


def test_criterion_02_polarity_oracle(pol_lex):
    rng = random.Random(20200430)
    vocabulary = list(pol_lex.entries)[:40] + list(pol_lex.shifters) + [
        "economy", "states", "plan", "work", "open",
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 16))]
        got = score_sentence(tokens, pol_lex)
        want = oracle_score(tokens, pol_lex.entries, pol_lex.shifters)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 2.0
    _ok(2, f"1,000 randomized sentences, max |diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_hand_trace_vector():
    lex = PolarityLexicon(
        entries={"good": 1.0},
        shifters={"not": "negator", "really": "amplifier"},
    )
    cases = [
        (["good"], 1.0),
        (["not", "good"], -0.7071),
        (["really", "good"], 1.2728),
        ([], 0.0),
    ]
    for tokens, expected in cases:
        assert score_sentence(tokens, lex) == pytest.approx(expected, abs=1e-4)
    _ok(3, "hand-traced scores 1.0 / -0.7071 / 1.2728 / 0 reproduce to 4 decimals")


def test_criterion_04_emotion_unit_sum(synth_corpus, emo_lex, stoplist):
    for record in synth_corpus.records:
        sentences = remove_stopwords(prepare(record.text), stoplist)
        tokens = [t for s in sentences for t in s]
        got = classify(sentences, emo_lex)
        want = emotion_counts(tokens, emo_lex, ALL_CATEGORIES)
        assert got == EmotionProfile(**want, token_total=got.token_total)
        assert got.token_total == len(tokens)
        assert all(getattr(got, c) <= got.token_total for c in ALL_CATEGORIES)

    # a single complex tweet carrying two positive hits and one negative hit
    fixture = make_record(rid="mixed", text="A good benefit, but bad timing.")
    ts = remove_stopwords(prepare(fixture.text), stoplist)
    profile = classify(ts, emo_lex)
    assert profile.positive == 2
    assert profile.negative == 1
    _ok(4, "per-record category counts equal brute-force recounts; mixed 2/1 case holds")


def test_criterion_05_negation_properties():
    lex = PolarityLexicon(
        entries={"good": 1.0, "bad": -1.0, "fine": 0.5},
        shifters={"not": "negator", "never": "negator"},
    )
    filler = ["economy", "states", "plan", "open", "work"]
    rng = random.Random(987)
    for _ in range(200):
        word = rng.choice(list(lex.entries))
        pad = [rng.choice(filler) for _ in range(rng.randint(0, 3))]
        base = score_sentence(pad + [word], lex)
        flipped = score_sentence(pad + ["not", word], lex)
        restored = score_sentence(pad + ["not", "never", word], lex)
        assert base != 0.0
        assert (flipped > 0) != (base > 0)
        assert (restored > 0) == (base > 0)
    _ok(5, "negation flips and double negation restores sign on 200 generated cases")


def test_criterion_06_scenario_mapping():
    expected = {
        ("positive", "now"): ("S1", "a"),
        ("positive", "later"): ("S2", "b"),
        ("negative", "now"): ("S3", "c"),
        ("negative", "later"): ("S4", "d"),
    }
    for (direction, timing), (sid, key) in expected.items():
        trend = SentimentTrend(direction, 0.6, 0.2, [])
        outcome = classify_scenario(trend, timing)
        assert (outcome["id"], outcome["narrative_key"]) == (sid, key)
    with pytest.raises(TiedTrendError):
        trend_from_report({"positive_share": 0.4, "negative_share": 0.4, "neutral_share": 0.2})
    _ok(6, "all four trend/timing pairs map to S1..S4; exact tie raises TiedTrend")


def test_criterion_07_masking_completeness(synth_corpus):
    lexicon = set(ABUSIVE_POOL)
    assert len(lexicon) == 50
    pattern, masks = mask_pattern(lexicon), {}
    masked, hits = zip(*(mask_text(record.text, pattern, masks) for record in synth_corpus.records))
    occurrences = sum(hits)
    scan = re.compile(r"\b(?:" + "|".join(sorted(lexicon)) + r")\b", re.IGNORECASE)
    remaining = sum(1 for text in masked if scan.search(text))
    assert remaining == 0
    assert occurrences > 0
    _ok(7, f"zero lexicon words remain after masking {occurrences} occurrences")


def test_criterion_08_planted_ground_truth(synth_corpus, synth_dir):
    ledger = synth_dir["ledger"]
    filtered = filter_bots_and_duplicates(synth_corpus, BotPolicy())
    removed = {r.id for r in synth_corpus.records} - {r.id for r in filtered.records}
    planted = (
        set(ledger["duplicate_ids"])
        | set(ledger["burst_ids"])
        | set(ledger["low_token_ids"])
    )
    assert removed == planted
    cleaned = [" ".join(t for s in prepare(r.text) for t in s) for r in filtered.records]
    report = device_group_report(filtered, cleaned)
    sizes = {device: report[device]["n_records"] for device in ledger["device_counts"]}
    assert sizes == ledger["device_counts"]
    _ok(8, f"bot filter removed exactly the {len(planted)} planted records; device sizes match")


def test_criterion_09_pipeline_determinism(tmp_path, monkeypatch):
    manifests = []
    for name in ("run_a", "run_b"):
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "corpus.csv").write_bytes((DATA / "corpus_1000.csv").read_bytes())
        (workdir / "abusive.txt").write_bytes((DATA / "abusive_fixture.txt").read_bytes())
        monkeypatch.chdir(workdir)
        run_pipeline(
            RunConfig(
                input="corpus.csv",
                abusive_lexicon_path="abusive.txt",
                output_dir="out",
            )
        )
        manifests.append((workdir / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    digest = hashlib.sha256(manifests[0]).hexdigest()
    _ok(9, f"two identical runs produced byte-identical manifests ({digest[:12]}...)")


def test_criterion_10_throughput_100k(tmp_path, monkeypatch):
    workdir = tmp_path / "big"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    write_synthetic_corpus(workdir / "corpus.csv", seed=42, n=100_000, format="csv")
    (workdir / "abusive.txt").write_text("\n".join(ABUSIVE_POOL) + "\n")
    t0 = time.perf_counter()
    manifest = run_pipeline(
        RunConfig(input="corpus.csv", abusive_lexicon_path="abusive.txt", output_dir="out")
    )
    elapsed = time.perf_counter() - t0
    assert manifest.stages["provenance"]["parsed"] == 100_000
    assert elapsed < 60.0
    _ok(10, f"full pipeline over 100,000 records in {elapsed:.1f}s (< 60s)")
