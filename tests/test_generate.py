"""Seeded fills against the draws randint makes.

Seeded generate output is pinned byte for byte, so the column draws must
take from the Mersenne stream exactly what one randint call per value
takes; on a CPython whose randint draws differently these tests fail
rather than let seeded files drift.
"""
import random
import sys

import pytest

from qspath import (
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
)
from qspath.generate import FILLS, _draws, fill_random, random_digraph, random_qap

from helpers import randint_fill, traced_peak


@pytest.mark.parametrize(
    "hi", [0, 1, 3, 7, 9, 15, 100, 127, 128, 254, 255, 256, 2**32, 2**40]
)
def test_draws_match_randint_draw_for_draw(hi):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, hi, 200) == [theirs.randint(0, hi) for _ in range(200)]
        assert ours.getrandbits(64) == theirs.getrandbits(64)


@pytest.mark.parametrize("hi", [0, 9, 127, 128, 254])
@pytest.mark.parametrize("count", [5000, 40000])
def test_long_draws_match_randint_over_several_passes(hi, count):
    """A bulk pass draws one word per value still missing, so a long run
    takes several passes and the last one is short."""
    for seed in range(2):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draws(ours, hi, count) == [theirs.randint(0, hi) for _ in range(count)]
        assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_no_draws_leave_the_generator_untouched():
    ours, theirs = random.Random(5), random.Random(5)
    assert _draws(ours, 9, 0) == []
    assert ours.getrandbits(64) == theirs.getrandbits(64)


def _graphs():
    for p, q in ((2, 2), (3, 4), (5, 3), (6, 6)):
        yield make_grid(p, q)
    yield make_complete_symmetric(5, simplified=True)
    yield make_complete_symmetric(4, simplified=False, source=0, target=3)
    yield make_directed_cycle(5)
    yield make_hypercube(3)
    yield make_tournament(5, 0b1011001101)
    for seed in range(3):
        yield random_digraph(7, 0.4, random.Random(seed))


@pytest.mark.parametrize("fill", ["random", "weak-sum", "product", "adjacent"])
def test_fills_draw_what_randint_draws(fill):
    for g in _graphs():
        for max_entry in (0, 1, 3, 9, 100, 255, 256, 1000):
            seed = 31 * g.m + max_entry
            ours, theirs = random.Random(seed), random.Random(seed)
            linear, matrix = FILLS[fill](g, ours, max_entry)
            rows = matrix.rows
            assert (linear, rows) == randint_fill(g, fill, theirs, max_entry)
            # the fills build the rows unchecked, so look at them
            assert tuple(zip(*rows)) == rows
            assert all(row[e] == 0 for e, row in enumerate(rows))
            assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_random_fill_peaks_below_twice_the_rows_it_returns():
    """Each row of a random fill is built once, so the fill holds little
    more than its draws beside the rows it returns."""
    g = make_grid(12, 12)
    filled = []
    peak = traced_peak(lambda: filled.append(fill_random(g, random.Random(1))))
    rows = filled[0][1].rows
    assert len(rows) == g.m == 264
    assert peak < 2 * (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)))


def test_random_qap_draws_what_randint_draws():
    for n in range(1, 6):
        for seed in range(3):
            theirs = random.Random(seed)

            def symmetric():
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = theirs.randint(0, 7)
                return rows

            square = [[theirs.randint(0, 7) for _ in range(n)] for _ in range(n)]
            flow, distance = symmetric(), symmetric()
            qap = random_qap(n, random.Random(seed), 7)
            assert [list(r) for r in qap.a] == flow
            assert [list(r) for r in qap.b] == distance
            assert [list(r) for r in qap.c] == square
