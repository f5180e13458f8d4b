"""Pinned grid decisions on a seeded corpus of grid instances.

``grid_corpus`` builds instance files on grids from 2x2 to 10x10 in every
fill, then varies them: weak-sum data with one to three co-occurring pairs
changed (so the decision fails at a sub-target of any size), signed linear
costs, every value divided by 3 or 6, and files whose arc ids are permuted
and whose Q entries are written in shuffled order.  ``grid_corpus.json``
holds, for each file, its SHA-256 and the exit code and stdout of
``qspath linearize FILE --mode grid`` when the corpus was recorded, and for
each two-row file the vector ``linearize_g2q`` returned.  So a change to
the grid decision must print the same verdict, note, witness path,
``expected``, ``got`` and vector bytes on every file.

To record the file again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_grid_corpus.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qspath import (
    Digraph,
    InteractionMatrix,
    QsppInstance,
    emit_instance,
    fileio,
    linearize_g2q,
    make_grid,
    parse_instance,
)
from qspath.cli import main
from qspath.generate import filled_instance

PINNED = Path(__file__).with_name("grid_corpus.json")
SEED = 20261019
FILLS = ("zero", "random", "weak-sum", "product", "adjacent")


def _size(rng: random.Random) -> tuple[int, int]:
    """Mostly small grids, a few up to 10x10."""
    top = rng.choice((4, 5, 6, 7, 10))
    return rng.randint(2, top), rng.randint(2, top)


def _perturbed_pairs(rng: random.Random, p: int, q: int, count: int) -> list[list[int]]:
    """``count`` pairs of arcs, not consecutive, that a corner-to-corner
    path carries together, taken from the first arcs of random paths so that
    some lie near the top-left corner, each with the amount its entry
    changes by (p and q at least 3)."""
    g = make_grid(p, q)
    arc_of = {(a.head, a.tail): i for i, a in enumerate(g.arcs)}
    pairs = []
    for _ in range(count):
        moves = ["r"] * (q - 1) + ["d"] * (p - 1)
        rng.shuffle(moves)
        v, arcs = 0, []
        for move in moves:
            w = v + 1 if move == "r" else v + q
            arcs.append(arc_of[(v, w)])
            v = w
        first = rng.randint(3, len(arcs))
        a = rng.randrange(first - 2)
        e, f = sorted((arcs[a], arcs[rng.randrange(a + 2, first)]))
        pairs.append([e, f, rng.choice((-3, -1, 1, 2, 5))])
    return pairs


def grid_corpus() -> list[dict]:
    rng = random.Random(SEED)
    recipes = []

    def add(p, q, fill, **variation):
        recipe = {"p": p, "q": q, "fill": fill, "seed": rng.randrange(10**6),
                  "pairs": [], "signed": False, "divisor": 1, "shuffle": False}
        recipe.update(variation)
        recipes.append(recipe)

    for fill in FILLS:  # every fill, plain
        for _ in range(8):
            add(*_size(rng), fill)
    for count in (1, 2, 3):  # weak-sum with changed pairs, failing anywhere
        for _ in range(12):
            p, q = (max(3, side) for side in _size(rng))
            add(p, q, "weak-sum", pairs=_perturbed_pairs(rng, p, q, count))
    for fill in FILLS:  # signed linear costs
        for _ in range(3):
            add(*_size(rng), fill, signed=True)
    for divisor in (3, 6):  # non-integral data
        for fill in ("random", "weak-sum", "product", "adjacent"):
            for _ in range(3):
                p, q = rng.randint(3, 6), rng.randint(2, 6)
                pairs = _perturbed_pairs(rng, p, q, 1) if fill == "weak-sum" and q >= 3 else []
                add(p, q, fill, divisor=divisor, pairs=pairs, signed=rng.random() < 0.5)
    for fill in FILLS:  # permuted arc ids, shuffled Q entries
        for _ in range(3):
            p, q = (max(3, side) for side in _size(rng))
            pairs = _perturbed_pairs(rng, p, q, 1) if fill == "weak-sum" else []
            add(p, q, fill, pairs=pairs, signed=rng.random() < 0.3,
                divisor=rng.choice((1, 1, 3)), shuffle=True)
    for q in (2, 3, 5, 8, 10):  # two-row grids
        for fill in ("random", "weak-sum"):
            add(2, q, fill, signed=rng.random() < 0.5, divisor=rng.choice((1, 3)),
                shuffle=rng.random() < 0.3)
    add(10, 10, "weak-sum")
    add(10, 10, "weak-sum", pairs=_perturbed_pairs(rng, 10, 10, 1))
    add(10, 10, "random")
    return recipes


def instance_text(recipe: dict) -> str:
    p, q, seed = recipe["p"], recipe["q"], recipe["seed"]
    g = make_grid(p, q)
    base = filled_instance(g, 0, g.n - 1, recipe["fill"], seed)
    rows = [list(row) for row in base.interaction.rows]
    for e, f, delta in recipe["pairs"]:
        rows[e][f] += delta
        rows[f][e] += delta
    linear = list(base.linear)
    rng = random.Random(seed)
    if recipe["signed"]:
        linear = [c + rng.randint(-9, 9) for c in linear]
    divisor = recipe["divisor"]
    if divisor != 1:
        linear = [Fraction(c, divisor) for c in linear]
        rows = [[Fraction(v, divisor) for v in row] for row in rows]
    if not recipe["shuffle"]:
        inst = QsppInstance(g, 0, g.n - 1, tuple(linear), InteractionMatrix(rows))
        return emit_instance(inst)
    order = list(range(g.m))  # arc order[k] of g becomes arc k of the file
    rng.shuffle(order)
    shuffled = Digraph(g.n, [tuple(g.arcs[a]) for a in order])
    inst = QsppInstance(
        shuffled,
        0,
        g.n - 1,
        tuple(linear[a] for a in order),
        InteractionMatrix([[rows[a][b] for b in order] for a in order]),
    )
    lines = emit_instance(inst).splitlines()
    cut = lines.index(next(line for line in lines if line.startswith("Q sparse"))) + 1
    entries = lines[cut:]
    rng.shuffle(entries)
    return "\n".join(lines[:cut] + entries) + "\n"


def outcome(recipe: dict, path: Path) -> dict:
    text = instance_text(recipe)
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["linearize", str(path), "--mode", "grid"])
    result = {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "exit": code,
        "stdout": out.getvalue(),
    }
    if recipe["p"] == 2:
        result["g2q"] = " ".join(str(v) for v in linearize_g2q(parse_instance(text)))
    return result


# recording runs the module as a script, before the file exists
PINNED_CASES = [] if __name__ == "__main__" else json.loads(PINNED.read_text())


def test_corpus_matches_its_generator():
    assert [case["recipe"] for case in PINNED_CASES] == grid_corpus()


def test_corpus_covers_every_outcome():
    notes = {case["stdout"].splitlines()[1] for case in PINNED_CASES if case["exit"] == 3}
    assert sum(case["exit"] == 0 for case in PINNED_CASES) >= 40
    assert len(notes) >= 15
    assert {case["recipe"]["fill"] for case in PINNED_CASES if case["exit"] == 3} >= {
        "random", "weak-sum", "product", "adjacent"
    }


@pytest.mark.parametrize("index", range(len(PINNED_CASES)))
def test_pinned_grid_outcome(index, tmp_path):
    case = PINNED_CASES[index]
    expected = {key: value for key, value in case.items() if key != "recipe"}
    assert outcome(case["recipe"], tmp_path / "case.qspp") == expected


@pytest.mark.parametrize("chars", [1, 2, 3, 17, 64])
def test_pinned_grid_outcomes_at_short_slices(chars, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    for case in PINNED_CASES:
        expected = {key: value for key, value in case.items() if key != "recipe"}
        assert outcome(case["recipe"], tmp_path / "case.qspp") == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        cases = [
            {"recipe": recipe, **outcome(recipe, Path(scratch) / "case.qspp")}
            for recipe in grid_corpus()
        ]
    PINNED.write_text(json.dumps(cases, indent=0) + "\n")
    print(f"recorded {len(cases)} cases in {PINNED}")
