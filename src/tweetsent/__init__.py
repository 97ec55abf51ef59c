"""Lexicon-driven sentiment analytics for tweet corpora.

Submodules load on first use: `import tweetsent` imports none of them, and
`tweetsent.textprep`, `tweetsent.run_pipeline` or `from tweetsent import
run_pipeline` imports the one submodule that is asked for (with what it
imports itself), then keeps the name in this module.
"""

from importlib import import_module

__version__ = "0.1.0"

# the re-exported names, by the submodule that defines them
_EXPORTS = {
    "analytics": ("daily_emotion_series", "device_group_report", "polarity_distribution",
                  "rank_hashtags", "rank_locations", "rank_mentions"),
    "corpus": ("BotPolicy", "Corpus", "TweetRecord", "filter_bots_and_duplicates", "load_corpus"),
    "emotion": ("EmotionLexicon", "EmotionProfile", "aggregate_profiles", "classify",
                "dominant_classes", "load_emotion_lexicon"),
    "ngrams": ("build_table", "word_cloud_weights"),
    "pipeline": ("RunConfig", "RunManifest", "run_pipeline"),
    "polarity": ("PolarityLexicon", "PolarityScore", "ScoringParams", "classify_polarity",
                 "load_polarity_lexicon", "score_sentence", "score_text"),
    "scenario": ("SentimentTrend", "classify_scenario", "trend_from_report"),
    "synth": ("generate_synthetic_corpus", "write_synthetic_corpus"),
    "textprep": ("MaskLedger", "Sentences", "prepare", "remove_stopwords"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# `from tweetsent import *` binds these submodules too, as it did when this
# module imported them all; cli is reached only by name
_STAR_SUBMODULES = (*_EXPORTS, "errors", "exports")
_SUBMODULES = frozenset(_STAR_SUBMODULES) | {"cli"}

__all__ = [*_HOME, *_STAR_SUBMODULES]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
