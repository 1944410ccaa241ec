"""Every call of the committed report corpus, run again against its stored report.

Keys, strings, booleans, integers, verdicts and exit codes must match
exactly, and floats to REL relative.  After a change that moves a report on
purpose, `python3 tests/corpus/regenerate.py` rewrites the corpus, and its
diff shows every number that moved.
"""

import glob
import json
import math
import os
import sys

import pytest

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
sys.path.insert(0, CORPUS)

import regenerate  # noqa: E402

REL = 1e-12
STORED = sorted(os.path.basename(p)[: -len(".json")]
                for p in glob.glob(os.path.join(CORPUS, "*.json")))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return dict(regenerate.records(str(tmp_path_factory.mktemp("corpus"))))


def _mismatches(stored, fresh, where):
    if isinstance(stored, float) and isinstance(fresh, float):
        if stored == fresh or (math.isnan(stored) and math.isnan(fresh)):
            return []
        if abs(stored - fresh) <= REL * max(abs(stored), abs(fresh)):
            return []
        return [f"{where}: {fresh!r}, stored {stored!r}"]
    if type(stored) is not type(fresh):
        return [f"{where}: {fresh!r}, stored {stored!r}"]
    if isinstance(stored, dict):
        if sorted(stored) != sorted(fresh):
            return [f"{where}: keys {sorted(fresh)}, stored {sorted(stored)}"]
        return [m for k in stored for m in _mismatches(stored[k], fresh[k], f"{where}.{k}")]
    if isinstance(stored, list):
        if len(stored) != len(fresh):
            return [f"{where}: {len(fresh)} items, stored {len(stored)}"]
        return [m for i, (s, f) in enumerate(zip(stored, fresh))
                for m in _mismatches(s, f, f"{where}[{i}]")]
    return [] if stored == fresh else [f"{where}: {fresh!r}, stored {stored!r}"]


def test_the_corpus_holds_every_call(fresh):
    assert STORED == sorted(fresh)


@pytest.mark.parametrize("name", STORED)
def test_report_matches_the_corpus(name, fresh):
    with open(os.path.join(CORPUS, f"{name}.json")) as fh:
        stored = json.load(fh)
    assert _mismatches(stored, fresh[name], name) == []


@pytest.mark.parametrize("stored,fresh,moved", [
    (1.0, 1.0 + 1e-13, False),
    (1.0, 1.0 + 1e-11, True),
    (1, 1.0, True),
    ("pass", "fail", True),
    ({"a": [1.0]}, {"a": [1.0, 2.0]}, True),
    ({"a": 1.0}, {"b": 1.0}, True),
    (float("nan"), float("nan"), False),
])
def test_the_comparison_bounds_floats_alone(stored, fresh, moved):
    assert bool(_mismatches(stored, fresh, "x")) == moved
