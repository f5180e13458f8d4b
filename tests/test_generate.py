"""Seeded fills against the draws randint makes.

Seeded generate output is pinned byte for byte, so the column draws must
take from the Mersenne stream exactly what one randint call per value
takes; on a CPython whose randint draws differently these tests fail
rather than let seeded files drift.
"""
import itertools
import operator
import random
import sys
from operator import add, mul

import pytest

from qspath import Digraph, QsppInstance, emit_instance, make_grid
from qspath.generate import (
    FILLS,
    _drawn,
    fill_random,
    fill_weak_sum,
    filled_instance,
    random_dag,
    random_digraph,
    random_qap,
)
from qspath import model
from qspath.model import InteractionMatrix

from helpers import naive_emit, randint_fill, traced_peak
from zoo import fill_graphs


@pytest.mark.parametrize(
    "hi", [0, 1, 3, 7, 9, 15, 100, 127, 128, 254, 255, 256, 2**32, 2**40]
)
def test_draws_match_randint_draw_for_draw(hi):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert list(_drawn(ours, hi, 200)) == [theirs.randint(0, hi) for _ in range(200)]
        assert ours.getrandbits(64) == theirs.getrandbits(64)


@pytest.mark.parametrize("hi", [0, 9, 127, 128, 254])
@pytest.mark.parametrize("count", [5000, 40000])
def test_long_draws_match_randint_over_several_passes(hi, count):
    """A bulk pass draws one word per value still missing, so a long run
    takes several passes and the last one is short."""
    for seed in range(2):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert list(_drawn(ours, hi, count)) == [theirs.randint(0, hi) for _ in range(count)]
        assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_no_draws_leave_the_generator_untouched():
    ours, theirs = random.Random(5), random.Random(5)
    assert list(_drawn(ours, 9, 0)) == []
    assert ours.getrandbits(64) == theirs.getrandbits(64)


@pytest.mark.parametrize("hi", [-1, -2, -255, -256, -(2**40)])
def test_an_empty_range_raises_as_randint_does(hi):
    """randint(0, hi) raises ValueError for hi < 0, so the draws do too
    rather than loop for ever; no draws at all still return empty."""
    with pytest.raises(ValueError):
        random.Random(1).randint(0, hi)
    for count in (1, 5, 300):
        with pytest.raises(ValueError, match="empty range"):
            _drawn(random.Random(1), hi, count)
    rng, theirs = random.Random(1), random.Random(1)
    assert list(_drawn(rng, hi, 0)) == []
    assert rng.getrandbits(64) == theirs.getrandbits(64)


def test_fills_and_qap_data_refuse_a_negative_max_entry():
    g = make_grid(2, 2)
    for fill in ("random", "weak-sum", "product", "adjacent"):
        with pytest.raises(ValueError, match="empty range"):
            FILLS[fill](g, random.Random(1), -1)
    with pytest.raises(ValueError, match="empty range"):
        random_qap(3, random.Random(1), -1)


def test_filled_instance_names_an_unknown_fill():
    """The CLI offers only the known fills; a library call names any other."""
    with pytest.raises(ValueError, match="^unknown fill 'bogus'$"):
        filled_instance(make_grid(2, 2), 0, 3, "bogus", seed=1)


def _mirror(uppers):
    """The rows of a symmetric zero-diagonal matrix, one cell at a time."""
    m = len(uppers)
    rows = [[0] * m for _ in range(m)]
    for e, upper in enumerate(uppers):
        for f, value in enumerate(upper, e + 1):
            rows[e][f] = rows[f][e] = value
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("top", [1, 2, 10, 255, 256, 257, 1000])
def test_of_upper_mirrors_bytes_and_lists_like_a_naive_mirror(top):
    rng = random.Random(top)
    for m in (0, 1, 2, 3, 7, 40):
        lists = [[rng.randrange(top) for _ in range(m - 1 - e)] for e in range(m)]
        forms = [lists, [tuple(row) for row in lists]]
        if top <= 256:
            forms.append([bytes(row) for row in lists])
        for uppers in forms:
            matrix = InteractionMatrix._of_upper(uppers, top)
            assert matrix.m == m
            assert matrix._kept == (uppers, top)
            # the triangle reader yields the kept rows themselves
            assert all(map(operator.is_, matrix._uppers(), uppers))
            assert sum(1 for _ in matrix._uppers()) == m
            # the rows are built on their first read, not before, and the
            # triangle is dropped once they are
            with pytest.raises(AttributeError):
                object.__getattribute__(matrix, "rows")
            assert matrix.rows == _mirror(lists)
            assert matrix.rows is matrix.rows
            assert matrix._kept is None
            assert [list(upper) for upper in matrix._uppers()] == lists
            assert matrix.m == m
            assert matrix == InteractionMatrix(_mirror(lists))


def _old_outer_rows(a, op):
    """The weak-sum and product rows built whole: op(a[e], a[f]) in every
    cell, then a zero diagonal."""
    rows = []
    for e, x in enumerate(a):
        row = [op(x, y) for y in a]
        row[e] = 0
        rows.append(tuple(row))
    return tuple(rows)


def _pairs_of(rows):
    m = len(rows)
    return [(e, f, rows[e][f]) for e in range(m) for f in range(e + 1, m) if rows[e][f]]


@pytest.mark.parametrize("op", [add, mul])
@pytest.mark.parametrize("max_entry", [0, 1, 9, 127, 128, 255, 300])
def test_outer_form_answers_like_the_coercing_constructor(op, max_entry):
    """A matrix kept as its vector a answers every reader, and is written,
    like the coercing constructor's matrix of the same rows: a as bytes
    (while its values fit one) and as a list, its triangle read before its
    rows and after, m from 0 up to an a with more distinct values than
    (m - 1) / 2, and product rows whose a[e] = 0 written empty."""
    top = op(max_entry, max_entry) + 1
    rng = random.Random(max_entry)
    for m in (0, 1, 2, 3, 40):
        drawn = [rng.randint(0, max_entry) for _ in range(m)]
        if m == 40:
            drawn[7] = drawn[30] = 0
            if max_entry >= 127:
                assert len(set(drawn)) > (m - 1) / 2
        want = InteractionMatrix(_old_outer_rows(drawn, op))
        g = Digraph(2, [(0, 1)] * m)
        naive = naive_emit(QsppInstance(g, 0, 1, (0,) * m, want))
        assert emit_instance(QsppInstance(g, 0, 1, (0,) * m, want)) == naive
        if op is mul:
            # past the 5 header lines, m arc lines, c, its costs and "Q sparse"
            entries = naive.split("\n")[m + 8 :]
            assert not any(line.startswith(("7 ", "30 ")) for line in entries)
        forms = [list, bytes] if max_entry < 256 else [list]
        for form, readers_first in itertools.product(forms, (True, False)):
            a = form(drawn)
            q = InteractionMatrix._of_outer(a, op, top)
            assert q.m == m
            # neither m nor the emitter builds the triangle or the rows
            assert emit_instance(QsppInstance(g, 0, 1, (0,) * m, q)) == naive
            with pytest.raises(AttributeError):
                object.__getattribute__(q, "rows")
            assert q._kept == (a, op, top)
            if readers_first:
                assert list(q.pairs()) == _pairs_of(want.rows)
                assert q.is_zero() == (not any(map(any, want.rows)))
                uppers = list(q._uppers())
                assert {type(upper) for upper in uppers} <= {bytes if top <= 256 else list}
                assert [list(upper) for upper in uppers] == [
                    list(row[e + 1 :]) for e, row in enumerate(want.rows)
                ]
                # neither rows nor the vector are dropped by reading the
                # triangle, and a second read yields it again
                with pytest.raises(AttributeError):
                    object.__getattribute__(q, "rows")
                assert q._kept == (a, op, top)
                assert list(q._uppers()) == uppers
                assert q.m == m
                assert emit_instance(QsppInstance(g, 0, 1, (0,) * m, q)) == naive
            assert q.rows == want.rows
            assert q.rows is q.rows
            assert q._kept is None
            assert [list(upper) for upper in q._uppers()] == [
                list(row[e + 1 :]) for e, row in enumerate(want.rows)
            ]
            assert all(q.row(e) is q.rows[e] for e in range(m))
            assert list(q.pairs()) == _pairs_of(want.rows)
            assert q.is_zero() == want.is_zero()
            assert q.m == m
            assert q == want and hash(q) == hash(want)
            assert emit_instance(QsppInstance(g, 0, 1, (0,) * m, q)) == naive


@pytest.mark.parametrize("fill", ["random", "weak-sum", "product"])
def test_fill_triangles_mirror_into_the_rows_the_fills_built(fill):
    """Each dense fill's upper triangle stays below its top (the mirror
    lays out a byte buffer on that promise) and mirrors into the rows
    randint draws."""
    for g in fill_graphs():
        for max_entry in (0, 1, 9, 127, 128, 255, 256):
            seed = 7 * g.m + max_entry
            linear, matrix = FILLS[fill](g, random.Random(seed), max_entry)
            top = matrix._kept[-1]
            uppers = list(matrix._uppers())
            assert [len(upper) for upper in uppers] == list(range(g.m - 1, -1, -1))
            if fill != "random":
                # a byte per cell while the values fit one
                assert {type(upper) for upper in uppers} == {bytes if top <= 256 else list}
            assert all(0 <= v < top for upper in uppers for v in upper)
            assert matrix.rows == _mirror(uppers)
            assert (linear, matrix.rows) == randint_fill(g, fill, random.Random(seed), max_entry)
    g = make_grid(3, 4)
    a = _drawn(random.Random(5), 9, g.m)
    assert fill_weak_sum(g, random.Random(5))[1].rows == _old_outer_rows(a, int.__add__)


def test_random_digraph_within_the_arc_bound_draws_one_coin_per_pair(monkeypatch):
    """Under the arc bound random_digraph (ordered pairs u != v) and
    random_dag (pairs i < j) return the graph, and leave the stream, of one
    coin per pair in order; with the bound one arc lower each is refused at
    the coin of its first arc past it, the stream left just after that coin."""
    generators = [
        (random_digraph, lambda n: [(u, v) for u in range(n) for v in range(n) if u != v]),
        (random_dag, lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)]),
    ]
    for make, pairs_of in generators:
        for seed in range(1, 51):
            for n in range(4, 13):
                rng, replay = random.Random(seed), random.Random(seed)
                g = make(n, 0.4, rng)
                pairs = pairs_of(n)
                assert g == Digraph(n, [p for p in pairs if replay.random() < 0.4])
                assert rng.getrandbits(64) == replay.getrandbits(64)
                monkeypatch.setattr(model, "MAX_ARCS", g.m)
                assert make(n, 0.4, random.Random(seed)) == g
                if g.m:  # no bound lies below an empty graph
                    monkeypatch.setattr(model, "MAX_ARCS", g.m - 1)
                    rng, replay = random.Random(seed), random.Random(seed)
                    with pytest.raises(ValueError, match=f"exceeds the bound of {g.m - 1}$"):
                        make(n, 0.4, rng)
                    for _ in range(pairs.index(g.arcs[-1]) + 1):
                        replay.random()
                    assert rng.getrandbits(64) == replay.getrandbits(64)
                monkeypatch.undo()


@pytest.mark.parametrize("fill", ["random", "weak-sum", "product", "adjacent"])
def test_fills_draw_what_randint_draws(fill):
    for g in fill_graphs():
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
