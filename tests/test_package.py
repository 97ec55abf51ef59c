"""The package surface: `import tweetsent` loads submodules on first use.

Each check runs in a fresh interpreter, since the test session has imported
every submodule already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every name re-exported at the package, by the submodule that defines it
EXPORTS = {
    "analytics": ["daily_emotion_series", "device_group_report", "polarity_distribution",
                  "rank_hashtags", "rank_locations", "rank_mentions"],
    "corpus": ["BotPolicy", "Corpus", "TweetRecord", "filter_bots_and_duplicates", "load_corpus"],
    "emotion": ["EmotionLexicon", "EmotionProfile", "aggregate_profiles", "classify",
                "dominant_classes", "load_emotion_lexicon"],
    "ngrams": ["build_table", "word_cloud_weights"],
    "pipeline": ["RunConfig", "RunManifest", "run_pipeline"],
    "polarity": ["PolarityLexicon", "PolarityScore", "ScoringParams", "classify_polarity",
                 "load_polarity_lexicon", "score_sentence", "score_text"],
    "scenario": ["SentimentTrend", "classify_scenario", "trend_from_report"],
    "synth": ["generate_synthetic_corpus", "write_synthetic_corpus"],
    "textprep": ["MaskLedger", "Sentences", "prepare", "remove_stopwords"],
}

# `loaded()` in a fresh interpreter: the tweetsent submodules imported so far
PRELUDE = """
import json, sys
def loaded():
    return sorted(m.removeprefix("tweetsent.") for m in sys.modules if m.startswith("tweetsent."))
"""


def fresh(code: str):
    """The JSON value that `code` prints as its last line, run after PRELUDE
    in a new interpreter that imports tweetsent from `src`."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    out = fresh("import tweetsent\nprint(json.dumps([loaded(), tweetsent.__version__]))")
    assert out == [[], "0.1.0"]


def test_setup_path_loads_only_what_it_calls():
    # perfbench's setup_s: import tweetsent, then load the four lexicons
    out = fresh(
        "import tweetsent\n"
        "tweetsent.textprep.load_stoplist()\n"
        "tweetsent.textprep.load_abusive_lexicon(None)\n"
        "tweetsent.emotion.load_emotion_lexicon()\n"
        "tweetsent.polarity.load_polarity_lexicon()\n"
        "print(json.dumps(loaded()))"
    )
    assert out == ["emotion", "errors", "polarity", "textprep"]


# the submodules that `from tweetsent import *` bound when the package imported them all
STAR_SUBMODULES = [*EXPORTS, "errors", "exports"]


def test_all_is_the_exported_names_and_submodules():
    out = fresh("import tweetsent\nprint(json.dumps([tweetsent.__all__, loaded()]))")
    assert out == [[name for names in EXPORTS.values() for name in names] + STAR_SUBMODULES, []]


def test_exported_names_are_their_submodules_objects():
    # each name is asked for first through one of the two forms, in its own order
    check = """
import importlib
import tweetsent
exports = {exports!r}
same = {{}}
for module, names in exports.items():
    for name in names:
        {first}
        home = getattr(importlib.import_module("tweetsent." + module), name)
        same[name] = got is home and tweetsent.__dict__[name] is home
print(json.dumps(same))
"""
    names = [name for names in EXPORTS.values() for name in names]
    for first in ("got = getattr(tweetsent, name)", 'exec(f"from tweetsent import {name} as got")'):
        out = fresh(check.format(exports=EXPORTS, first=first))
        assert out == dict.fromkeys(names, True), first


def test_submodules_resolve_as_attributes():
    out = fresh(
        "import tweetsent\n"
        "mods = ['cli', 'errors', 'exports', 'synth', 'textprep']\n"
        "print(json.dumps([getattr(tweetsent, m) is sys.modules['tweetsent.' + m] for m in mods]))"
    )
    assert out == [True] * 5


def test_star_import_binds_exactly_all():
    out = fresh(
        "ns = {}\n"
        "exec('from tweetsent import *', ns)\n"
        "import tweetsent\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}) == sorted(tweetsent.__all__),"
        " [ns[m] is sys.modules['tweetsent.' + m] for m in %r]]))" % STAR_SUBMODULES
    )
    assert out == [True, [True] * len(STAR_SUBMODULES)]


def test_dir_lists_names_before_they_load():
    out = fresh(
        "import tweetsent\n"
        "names = dir(tweetsent)\n"
        "print(json.dumps([names == sorted(names), loaded(),"
        " sorted((set(tweetsent.__all__) | {'cli', 'pipeline', '__version__'}) - set(names))]))"
    )
    assert out == [True, [], []]


def test_unknown_name_raises_attribute_error():
    out = fresh(
        "import tweetsent\n"
        "try:\n"
        "    tweetsent.no_such_name\n"
        "except AttributeError as exc:\n"
        "    caught = str(exc)\n"
        "try:\n"
        "    from tweetsent import no_such_name\n"
        "except ImportError:\n"
        "    refused = True\n"
        "print(json.dumps([caught, refused, hasattr(tweetsent, '_private'), loaded()]))"
    )
    assert out == ["module 'tweetsent' has no attribute 'no_such_name'", True, False, []]


# perfbench imports these two before its clock starts, so an import deferred
# below them would move compile time into run_s
TIMED_PATH = ["analytics", "corpus", "emotion", "exports", "ngrams", "polarity", "textprep"]


def test_pipeline_import_loads_the_timed_path():
    out = fresh("import tweetsent.pipeline\nprint(json.dumps(loaded()))")
    assert set(TIMED_PATH) <= set(out)


def test_cli_import_loads_the_timed_path_but_not_synth():
    out = fresh("import tweetsent.cli\nprint(json.dumps(loaded()))")
    assert set(TIMED_PATH) <= set(out)
    assert "synth" not in out
