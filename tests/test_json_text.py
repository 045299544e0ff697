"""The JSON writer of the command line against `json.dumps`.

Every written document must read `json.dumps(doc, indent=2, sort_keys=True)`
plus a newline, byte for byte; the writer produces that text without the
pure-Python encoder that `indent` selects.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from nqkit.cli import _json_text

EXPECTED = Path(__file__).resolve().parents[1] / "corpus" / "expected"

# control characters, the two escaped printables, non-ASCII text beyond
# the basic plane and a lone surrogate of each half
CHARACTERS = "az Z09\x00\x01\x1f\x7f\"\\/\b\f\n\r\té€λ² \U0001f600\udcff\ud800"


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 6)))


def random_document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, -(2**70), 10**40, rng.randint(-999, 999)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([{}, [], ()])
    if kind in (5, 6):
        return {
            random_text(rng): random_document(rng, depth + 1)
            for _ in range(rng.randint(0, 4))
        }
    items = [random_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return tuple(items) if kind == 7 else items


def test_writer_matches_json_dumps_on_the_expected_reports():
    paths = sorted(EXPECTED.glob("*.json"))
    assert len(paths) == 10
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        assert _json_text(doc, "\n") == dumps(doc), path.name
        assert _json_text(doc, "\n") + "\n" == text, path.name


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(2024)
    for _ in range(500):
        doc = random_document(rng)
        assert _json_text(doc, "\n") == dumps(doc), repr(doc)
    nested = {"b": [[], {}, [{"": None}]], "a": ("\udcff", -3, True), "é": {}}
    assert _json_text(nested, "\n") == dumps(nested)


@pytest.mark.parametrize(
    "doc",
    [1.5, {"a": [0.0]}, {1: "a"}, {"a": 1, 2: "b"}, {"a"}, b"a", [object()]],
    ids=["float", "nested float", "int key", "mixed keys", "set", "bytes", "object"],
)
def test_writer_refuses_what_is_not_a_document(doc):
    with pytest.raises(TypeError):
        _json_text(doc, "\n")
