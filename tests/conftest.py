from __future__ import annotations

import gc
from datetime import datetime, timezone

import pytest

from tweetsent.corpus import Corpus, Provenance, TweetRecord, load_corpus
from tweetsent.emotion import load_emotion_lexicon
from tweetsent.polarity import load_polarity_lexicon
from tweetsent.synth import ABUSIVE_POOL, write_synthetic_corpus
from tweetsent.textprep import load_stoplist

SEED = 42
N_RECORDS = 1000


def make_record(
    rid="t1",
    created="2020-05-02T12:00:00+00:00",
    text="reopen the economy now",
    device="Twitter for iPhone",
    location=None,
    country="US",
    hashtags=(),
    mentions=(),
    user="u1",
    retweet=False,
) -> TweetRecord:
    return TweetRecord(
        id=rid,
        created_at=datetime.fromisoformat(created).astimezone(timezone.utc),
        text=text,
        source_device=device,
        user_location=location,
        country_code=country,
        hashtags=list(hashtags),
        mentions=list(mentions),
        user_id=user,
        is_retweet=retweet,
    )


def make_corpus(records) -> Corpus:
    return Corpus(
        records=list(records),
        provenance=Provenance(source="test", format="csv", parsed=len(records), skipped=0, filtered={}),
    )


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """Seed-42 synthetic corpus, planting ledger, and abusive fixture lexicon."""
    root = tmp_path_factory.mktemp("synth")
    ledger = write_synthetic_corpus(
        root / "corpus.csv", seed=SEED, n=N_RECORDS, format="csv",
        ledger_path=root / "ledger.json",
    )
    (root / "abusive.txt").write_text("\n".join(ABUSIVE_POOL) + "\n", encoding="utf-8")
    return {"root": root, "csv": root / "corpus.csv", "ledger": ledger,
            "abusive": root / "abusive.txt"}


@pytest.fixture(scope="session")
def synth_corpus(synth_dir):
    return load_corpus(synth_dir["csv"], "csv")


@pytest.fixture(scope="session")
def stoplist():
    return load_stoplist()


@pytest.fixture(scope="session")
def emo_lex():
    return load_emotion_lexicon()


@pytest.fixture(scope="session")
def pol_lex():
    return load_polarity_lexicon()


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def gc_enabled(request):
    """The cyclic collector switched on, then off, for the test; the state
    the test found is restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()
