"""Replay the golden corpus of the solver commands in process.

Every entry of ``tests/golden/solver_cli.jsonl`` must give the same
stdout, stderr and exit code as when the corpus was generated; see
``tests/golden/generate.py`` for what it covers and when to regenerate it.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ENTRIES = golden.load()


def test_corpus_matches_its_generator():
    assert [e["argv"] for e in ENTRIES] == golden.corpus_argvs()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_corpus_replays_unchanged(entry):
    assert golden.capture(entry["argv"]) == entry
