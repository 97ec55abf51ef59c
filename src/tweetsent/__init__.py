"""Lexicon-driven sentiment analytics for tweet corpora.

The package re-exports `run`'s entry points, `RunConfig` and `run_pipeline`;
every other name is reached through its submodule. Submodules load on first
use: `import tweetsent` imports none, and `tweetsent.textprep` or `from
tweetsent import run_pipeline` imports the one asked for (with what it
imports itself), then keeps the name in this module.
"""

from importlib import import_module

__version__ = "0.1.0"

_ENTRY_POINTS = ("RunConfig", "run_pipeline")  # both defined in `pipeline`
# `from tweetsent import *` binds these submodules too, as it did when this
# module imported them all; cli is reached only by name
_STAR_SUBMODULES = ("analytics", "corpus", "emotion", "errors", "exports", "ngrams", "pipeline",
                    "polarity", "scenario", "synth", "textprep")
_SUBMODULES = frozenset(_STAR_SUBMODULES) | {"cli"}

__all__ = [*_ENTRY_POINTS, *_STAR_SUBMODULES]


def __getattr__(name: str):
    if name in _ENTRY_POINTS:
        value = getattr(import_module(".pipeline", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
