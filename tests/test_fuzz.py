"""Seeded mutations of the corpus through the command line, in process.

Each case changes one node of a corpus document (a wrong type, a bad
literal, a huge integer, a deleted key, or a list one entry short or long)
and runs it through one verb.  Whatever the input, the command line must
answer with exit 0, 1 or 2, raise nothing but SystemExit, and answer
within the alarm.  Each exit code must be reached often enough that the
load errors alone cannot carry the test.
"""

from __future__ import annotations

import json
import random
import signal
from collections import Counter
from pathlib import Path

from tests.conftest import invoke

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
SEED = 20240601
CASES = 1500
ALARM_S = 5
# exit codes seen at least this often in the CASES runs of SEED
# (103, 91 and 1306 at the time of writing)
MIN_EXITS = {0: 50, 1: 45, 2: 650}

VERBS = (
    ("check", "--all"),
    ("cohomology",),
    ("cohomology", "--bfv-h0", "--trunc", "0"),
    ("cohomology", "--is-exact"),
    ("emit", "--what", "bfv", "--out", "out.json"),
    ("emit", "--what", "bv", "--out", "out.json"),
    ("solve-connection",),
)
WRONG_TYPES = ("x", 1, True, None, [], {}, ["1"], {"1": "1"})
BAD_LITERALS = ("1/0", "0.5", "((((")
MUTATIONS = ("type", "literal", "huge", "delete", "short", "long")


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so no handler swallows it."""


def _on_alarm(signum, frame):
    raise _Timeout


def _paths(node, path=()):
    """Every path below the root of a JSON document, as key and index tuples."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def mutate(doc: dict, rng: random.Random) -> tuple[dict, str]:
    """A copy of `doc` with one node changed, and what was changed."""
    doc = json.loads(json.dumps(doc))
    kind = rng.choice(MUTATIONS)
    paths = list(_paths(doc))
    if kind == "delete":
        paths = [p for p in paths if isinstance(_node(doc, p[:-1]), dict)]
    elif kind in ("short", "long"):
        paths = [p for p in paths if _node(doc, p) and isinstance(_node(doc, p), list)]
    path = rng.choice(paths)
    parent, key = _node(doc, path[:-1]), path[-1]
    if kind == "type":
        parent[key] = rng.choice(WRONG_TYPES)
    elif kind == "literal":
        parent[key] = rng.choice(BAD_LITERALS)
    elif kind == "huge":
        parent[key] = 10**30
    elif kind == "delete":
        del parent[key]
    elif kind == "short":
        parent[key] = parent[key][:-1]
    else:
        parent[key] = parent[key] + parent[key][-1:]
    return doc, f"{kind} at {list(path)}"


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_mutated_corpus_never_crashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}
    exits = Counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(CASES):
            name = rng.choice(sorted(docs))
            doc, change = mutate(docs[name], rng)
            verb, *options = rng.choice(VERBS)
            Path("case.json").write_text(json.dumps(doc))
            where = f"case {case}: {name}, {change}, {verb} {' '.join(options)}"
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            try:
                result = invoke([verb, "case.json", *options])
            except _Timeout:
                raise AssertionError(f"{where}: no answer in {ALARM_S} s") from None
            except Exception as error:
                raise AssertionError(f"{where}: {error!r}") from error
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert result.exit_code in (0, 1, 2), f"{where}: {result.output}"
            exits[result.exit_code] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    for code, least in MIN_EXITS.items():
        assert exits[code] >= least, (code, dict(exits))
