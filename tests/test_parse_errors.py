"""Pinned parser outcomes on a seeded corpus of malformed instance files.

``malformed_corpus`` mutates small sparse files (2x3 and 3x3 grids, one with
negative and fractional values) and a few dense ones: a token deleted or
replaced, a keyword swapped, a count or the file shortened, a trailing
token, a pair listed twice, an out-of-range or diagonal entry, and a fault
placed before a token that does not parse.  ``parse_errors.json`` holds every
file with the exception class and message the parser gave when the corpus
was recorded, or, for a file that still parses, the SHA-256 of its canonical
re-emission.  So a change to the parser must report the same first fault,
in the same words, on every file, also when the file is split into many
short slices and its tokens are spread over lines.

To record the file again (only when a message is meant to change):

    PYTHONPATH=src python tests/test_parse_errors.py
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qspath import InteractionMatrix, QsppInstance, emit_instance, fileio, make_grid, parse_instance
from qspath.generate import filled_instance

PINNED = Path(__file__).with_name("parse_errors.json")
SEED = 20261018
BAD_TOKENS = ("zz", "-1", "1/0", "3/2")
KEYWORDS = ("QSPP", "n", "m", "s", "t", "arc", "c", "Q", "sparse", "dense")


def _base_files() -> list[str]:
    g23 = make_grid(2, 3)
    mixed = QsppInstance(
        g23,
        0,
        5,
        (Fraction(-3, 2), 7, 0, Fraction(1, 3), -2, 5, Fraction(9, 4)),
        InteractionMatrix.from_entries(
            g23.m, {(0, 3): Fraction(-5, 4), (1, 6): 2, (2, 4): Fraction(3, 2)}
        ),
    )
    return [
        emit_instance(filled_instance(g23, 0, 5, "random", seed=1)),
        emit_instance(filled_instance(make_grid(3, 3), 0, 8, "random", seed=2)),
        emit_instance(filled_instance(g23, 0, 5, "weak-sum", seed=3)),
        emit_instance(filled_instance(make_grid(3, 3), 0, 8, "adjacent", seed=4)),
        emit_instance(mixed),
    ]


def _dense(text: str) -> str:
    """The same instance with its matrix written in the dense form."""
    inst = parse_instance(text)
    head = text[: text.index("Q sparse")]
    rows = "\n".join(" ".join(str(v) for v in row) for row in inst.interaction.rows)
    return f"{head}Q dense\n{rows}\n"


def _sparse_mutations(rng: random.Random, toks: list[str]) -> list[list[str]]:
    m = int(toks[5])
    c_at = 10 + 4 * m
    q_at = c_at + 1 + m
    k = int(toks[q_at + 2])
    first = q_at + 3  # first token of the first triple
    out = []

    def replaced(pos: int, token: str) -> list[str]:
        return toks[:pos] + [token] + toks[pos + 1:]

    def with_triples(extra: list[tuple[int, list[str]]]) -> list[str]:
        """Insert triples before the given triple indices and fix the count."""
        body = [toks[first + 3 * i: first + 3 * i + 3] for i in range(k)]
        for at, triple in sorted(extra, key=lambda item: -item[0]):
            body.insert(at, triple)
        flat = [t for triple in body for t in triple]
        return toks[:q_at + 2] + [str(len(body))] + flat

    # one token deleted: header, arc block, c block, Q block
    for lo, hi in ((0, 10), (10, c_at), (c_at, q_at), (q_at, len(toks))):
        for _ in range(2):
            pos = rng.randrange(lo, hi)
            out.append(toks[:pos] + toks[pos + 1:])
    # one token replaced, in each section, with each bad token
    for bad in BAD_TOKENS:
        for lo, hi in ((10, c_at), (c_at + 1, q_at), (first, len(toks))):
            out.append(replaced(rng.randrange(lo, hi), bad))
    # a keyword swapped for another
    keyword_positions = [0, 2, 4, 6, 8, c_at, q_at, q_at + 1]
    keyword_positions += [10 + 4 * rng.randrange(m) for _ in range(2)]
    for pos in keyword_positions:
        other = rng.choice([w for w in KEYWORDS if w != toks[pos]])
        out.append(replaced(pos, other))
    # counts changed, the file cut short, a trailing token
    out.append(replaced(q_at + 2, str(k - 1)))
    out.append(replaced(q_at + 2, str(k + 1)))
    out.append(replaced(5, str(m - 1)))
    out.append(replaced(3, str(int(toks[3]) - 1)))
    for _ in range(3):
        out.append(toks[: rng.randrange(first, len(toks))])
    out.append(toks[: rng.randrange(10, first)])
    out.append(toks + [rng.choice(["0", "zz", "arc"])])
    # a pair listed twice, in either orientation
    for flip in (False, True):
        i = rng.randrange(k)
        e, f, v = toks[first + 3 * i: first + 3 * i + 3]
        out.append(with_triples([(rng.randrange(k + 1), [f, e, v] if flip else [e, f, v])]))
    # out of range and diagonal entries
    for triple in (
        [str(m), "0", "1"],
        ["0", str(m + 3), "2"],
        ["-1", "2", "1"],
        [str(rng.randrange(m))] * 2 + ["5"],
        [str(m), str(m), "6"],
    ):
        out.append(with_triples([(rng.randrange(k + 1), triple)]))
    # a structural fault before, or after, a token that does not parse
    for fault in (["1", "1", "4"], ["0", str(m), "4"], toks[first: first + 3]):
        at = rng.randrange(k)
        mutated = with_triples([(at, fault)])
        later = q_at + 3 + 3 * rng.randrange(at + 1, k + 1) + rng.randrange(3)
        out.append(mutated[:later] + [rng.choice(BAD_TOKENS[:3])] + mutated[later + 1:])
        earlier = q_at + 3 + 3 * rng.randrange(at) if at else c_at + 1
        out.append(mutated[:earlier] + ["zz"] + mutated[earlier + 1:])
    return out


def _dense_mutations(rng: random.Random, toks: list[str]) -> list[list[str]]:
    m = int(toks[5])
    q_at = 10 + 4 * m + 1 + m
    cells = q_at + 2
    out = []
    for _ in range(2):
        pos = rng.randrange(cells, len(toks))
        out.append(toks[:pos] + toks[pos + 1:])
    for bad in BAD_TOKENS:
        pos = rng.randrange(cells, len(toks))
        out.append(toks[:pos] + [bad] + toks[pos + 1:])
    e, f = rng.sample(range(m), 2)
    out.append(toks[: cells + e * m + f] + ["7"] + toks[cells + e * m + f + 1:])
    out.append(toks[: cells + e * m + e] + ["1"] + toks[cells + e * m + e + 1:])
    out.append(toks[: rng.randrange(cells, len(toks))])
    out.append(toks + ["0"])
    return out


def malformed_corpus() -> list[str]:
    rng = random.Random(SEED)
    texts = []
    bases = _base_files()
    for base in bases:
        texts += [" ".join(t) for t in _sparse_mutations(rng, base.split())]
    for base in bases[:2] + bases[4:]:
        texts += [" ".join(t) for t in _dense_mutations(rng, _dense(base).split())]
    return texts


def outcome(text: str) -> dict[str, str]:
    try:
        inst = parse_instance(text)
    except Exception as exc:  # the class is part of what is pinned
        return {"error": type(exc).__name__, "message": str(exc)}
    digest = hashlib.sha256(emit_instance(inst).encode()).hexdigest()
    return {"error": "", "message": digest}


# recording runs the module as a script, before the file exists
PINNED_CASES = [] if __name__ == "__main__" else json.loads(PINNED.read_text())


def test_corpus_matches_its_generator():
    assert [case["text"] for case in PINNED_CASES] == malformed_corpus()


@pytest.mark.parametrize("index", range(len(PINNED_CASES)))
def test_pinned_parse_outcome(index):
    case = PINNED_CASES[index]
    assert outcome(case["text"]) == {"error": case["error"], "message": case["message"]}


def _lines(text: str, rng: random.Random) -> str:
    """text with each space between tokens made a space, a newline or a
    CRLF at random, so the parser's slices end inside its sections."""
    return "".join(
        part + rng.choice((" ", "\n", "\r\n")) for part in text.split(" ")
    )


@pytest.mark.parametrize("chars", [1, 2, 3, 17, 64])
def test_pinned_parse_outcomes_at_short_slices(chars, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    rng = random.Random(chars)
    for case in PINNED_CASES:
        expected = {"error": case["error"], "message": case["message"]}
        assert outcome(case["text"]) == expected
        assert outcome(_lines(case["text"], rng)) == expected


if __name__ == "__main__":
    cases = [{"text": text, **outcome(text)} for text in malformed_corpus()]
    PINNED.write_text(json.dumps(cases, indent=0) + "\n")
    print(f"recorded {len(cases)} cases in {PINNED}")
