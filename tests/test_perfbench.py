"""The benchmark's recorded reference digests must stay valid for the
generator in `src/`: `perfbench/workloads.generator_key()` hashes the
generator's source, and the digests in `perfbench/reference_digests.json`
are only checked while its `"generator"` field equals that key."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_reference_digests_are_recorded_for_this_generator():
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text("utf-8"))
    assert _workloads().generator_key() == reference["generator"]
