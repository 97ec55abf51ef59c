"""Lexicon-driven sentiment analytics for tweet corpora."""

from .analytics import (
    daily_emotion_series,
    device_group_report,
    polarity_distribution,
    rank_hashtags,
    rank_locations,
    rank_mentions,
)
from .corpus import (
    BotPolicy,
    Corpus,
    TweetRecord,
    filter_bots_and_duplicates,
    load_corpus,
)
from .emotion import EmotionLexicon, EmotionProfile, aggregate_profiles, classify, dominant_classes, load_emotion_lexicon
from .ngrams import NgramTable, build_table, word_cloud_weights
from .pipeline import RunConfig, RunManifest, run_pipeline
from .polarity import (
    PolarityLexicon,
    PolarityScore,
    ScoringParams,
    classify_polarity,
    load_polarity_lexicon,
    score_sentence,
    score_text,
)
from .scenario import ScenarioOutcome, SentimentTrend, classify_scenario, trend_from_report
from .synth import generate_synthetic_corpus, write_synthetic_corpus
from .textprep import MaskLedger, Sentences, prepare, remove_stopwords

__version__ = "0.1.0"
