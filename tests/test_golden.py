"""Replay the golden CLI corpora in process.

Every entry of ``tests/golden/*.jsonl`` must give the same stdout, stderr
and exit code as when its corpus was generated; see
``tests/golden/generate.py`` for what they cover and when to regenerate
them.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ENTRIES = [e for name in golden.CORPORA for e in golden.load(name)]


@pytest.mark.parametrize("name", list(golden.CORPORA))
def test_corpus_matches_its_generator(name):
    assert [e["argv"] for e in golden.load(name)] == golden.CORPORA[name]()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_corpus_replays_unchanged(entry):
    assert golden.capture(entry["argv"]) == entry
