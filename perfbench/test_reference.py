"""The reference interpreter agrees with the corpus's expected observations.

Run with `python3 perfbench/test_reference.py` or with pytest.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402

CORPUS = os.path.join(ROOT, "tests", "corpus")


def test_reference_matches_expected_on_corpus():
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    assert len(expected) == 40
    for name, want in sorted(expected.items()):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
            got = reference.observe(reference.parse_corpus(f.read()))
        assert got == want["observation"], (name, got, want["observation"])


if __name__ == "__main__":
    test_reference_matches_expected_on_corpus()
    print("reference interpreter agrees with expected.json on all 40 corpus programs")
