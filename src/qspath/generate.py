"""Seeded instance generation: cost fillers and random structures.

All randomness flows through an explicit random.Random instance so that a
fixed seed reproduces an instance bit for bit.  Fillers draw a whole column
of values at once, taking from the stream exactly what one randint call
per value would; values below 255 are decoded, a whole pass at a time, from
the top bytes of the Mersenne words one getrandbits call returns (_drawn),
and the fills use the bytes or list it returns as they are.

The random, weak-sum and product fills set every cell of Q by
construction, so they compute only its upper triangle, row e being its
m - 1 - e cells right of the diagonal, and hand it unchecked to
InteractionMatrix._of_upper with top, one more than the largest value the
fill can draw: the random fill cuts its draws, already in row-major pair
order, into consecutive slices; a weak-sum or product row e is the
per-arc bytes a[e+1:] put through one bytes.translate, by a 256-byte table
of op(a[e], v) built once per distinct value, or one map into a list when
top > 256 (_outer_upper).  The adjacent fill names only some pairs and goes
through the entry checker.  The fills return problem-definition data
(symmetric, zero diagonal, nonnegative).
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import model
from .graphs import Digraph, _adjacent, _check_vertex_count, make_complete_symmetric
from .model import InteractionMatrix, QsppInstance, _check_arc_count

if TYPE_CHECKING:
    from .reductions import QapInstance


# _TOP[k][b] is getrandbits(k) of a word whose top byte is b, for k <= 8
_TOP = [bytes(b >> (8 - k) for b in range(256)) for k in range(9)]
_BYTES = bytes(range(256))


def _drawn(rng: random.Random, hi: int, count: int) -> bytes | list[int]:
    """What ``count`` calls of rng.randint(0, hi) return, value for value,
    leaving rng in the same state, through getrandbits alone: bytes when
    hi < 255, else a list.  Like randint, it raises ValueError for hi < 0,
    unless count is 0.

    Each try of randint's rejection loop takes getrandbits(k),
    k = (hi + 1).bit_length(), again while the value exceeds hi (so hi = 0
    still takes one bit per try).  For k <= 8 a try is the top byte of one
    32-bit word shifted right by 8 - k.  getrandbits(32 * need) returns
    need words, first word lowest, so a pass takes every fourth byte of its
    little-endian bytes ([3::4]), deletes those that decode above hi (a
    suffix of the byte range) and translates the rest through _TOP[k].
    Each pass draws one word per value still missing, never more, so the
    stream stops where randint's would.
    """
    if hi < 0 < count:
        raise ValueError(f"empty range for randint(0, {hi})")
    n = hi + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    if k <= 8:
        top, rejected = _TOP[k], _BYTES[n << (8 - k) :]
        out = b""
        while len(out) < count:
            need = count - len(out)
            words = getrandbits(32 * need).to_bytes(4 * need, "little")
            out += words[3::4].translate(top, rejected)
        return out
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def _outer_upper(a: Sequence[int], op: Callable[[int, int], int], top: int) -> InteractionMatrix:
    """The matrix op(a[e], a[f]) off the diagonal, its values below top.

    When top <= 256, the fill drew its values up to 127 (weak-sum) or 15
    (product), so a is the bytes _drawn returns, and row e of the upper
    triangle is a[e+1:].translate(tables[a[e]]), one C-level pass:
    tables[x] maps each v <= max(a) to op(x, v), which is below top for x
    and v in a, and is padded to the 256 bytes translate takes.  There is one
    table per distinct value of a.  Otherwise row e is one map over
    a[e+1:] into a list."""
    if top <= 256:
        span = range(max(a, default=0) + 1)
        tables = {x: bytes(map(op, repeat(x), span)).ljust(256, b"\0") for x in set(a)}
        uppers = [a[e + 1 :].translate(tables[x]) for e, x in enumerate(a)]
    else:
        uppers = [list(map(op, repeat(x), a[e + 1 :])) for e, x in enumerate(a)]
    return InteractionMatrix._of_upper(uppers, top)


def fill_zero(g: Digraph) -> tuple[tuple[Fraction, ...], InteractionMatrix]:
    return (0,) * g.m, InteractionMatrix.zero(g.m)


def fill_random(
    g: Digraph, rng: random.Random, max_entry: int = 9
) -> tuple[tuple[Fraction, ...], InteractionMatrix]:
    """Uniform integer interactions on every arc pair, zero linear costs."""
    m = g.m
    drawn = _drawn(rng, max_entry, m * (m - 1) // 2)
    # the draws are in row-major pair order: row e takes the next m - 1 - e
    uppers = []
    start = 0
    for e in range(m):
        uppers.append(drawn[start : start + m - 1 - e])
        start += m - 1 - e
    return (0,) * m, InteractionMatrix._of_upper(uppers, max_entry + 1)


def fill_weak_sum(
    g: Digraph, rng: random.Random, max_entry: int = 9
) -> tuple[tuple[Fraction, ...], InteractionMatrix]:
    """Interactions a[e] + a[f] for a random per-arc vector a, zero linear costs."""
    a = _drawn(rng, max_entry, g.m)
    return (0,) * g.m, _outer_upper(a, add, 2 * max_entry + 1)


def fill_product(
    g: Digraph, rng: random.Random, max_entry: int = 3
) -> tuple[tuple[Fraction, ...], InteractionMatrix]:
    """Rank-one data: interactions a[e]*a[f], linear costs a[e] squared."""
    a = _drawn(rng, max_entry, g.m)
    return tuple(v * v for v in a), _outer_upper(a, mul, max_entry**2 + 1)


def fill_adjacent(
    g: Digraph, rng: random.Random, max_entry: int = 9
) -> tuple[tuple[Fraction, ...], InteractionMatrix]:
    """Random interactions on adjacent arc pairs only, zero linear costs."""
    es: list[int] = []
    fs: list[int] = []
    for e, arc in enumerate(g.arcs):
        # an arc adjacent to e leaves e's tail or enters e's head; only the
        # arc back from e's tail to its head does both, and it is not adjacent
        near = sorted(
            f
            for f in chain(g.out_arcs(arc.tail), g.in_arcs(arc.head))
            if f > e and _adjacent(g, e, f)
        )
        es.extend(repeat(e, len(near)))
        fs.extend(near)
    values = _drawn(rng, max_entry, len(es))
    return (0,) * g.m, InteractionMatrix.from_triples(g.m, zip(es, fs, values))


FILLS = {
    "zero": fill_zero,
    "random": fill_random,
    "weak-sum": fill_weak_sum,
    "product": fill_product,
    "adjacent": fill_adjacent,
}


def filled_instance(
    g: Digraph,
    source: int,
    target: int,
    fill: str,
    seed: int | None = None,
    max_entry: int = 9,
) -> QsppInstance:
    """Instance on ``g`` with costs from the named filler.

    The product fill draws its per-arc values up to min(max_entry, 3), so a
    larger max_entry still gives it values of 3 or less.
    """
    if max_entry < 0:
        raise ValueError(f"--max-entry must not be negative, got {max_entry}")
    _check_arc_count(g.m)
    if fill == "zero":
        linear, matrix = fill_zero(g)
    else:
        if seed is None:
            raise ValueError(f"fill {fill!r} needs a seed")
        rng = random.Random(seed)
        if fill == "product":
            linear, matrix = fill_product(g, rng, min(max_entry, 3))
        elif fill in FILLS:
            linear, matrix = FILLS[fill](g, rng, max_entry)
        else:
            raise ValueError(f"unknown fill {fill!r}")
    return QsppInstance(g, source, target, linear, matrix)


def _coin_digraph(
    n: int, pairs: Iterable[tuple[int, int]], density: float, rng: random.Random
) -> Digraph:
    """The digraph on n vertices of the pairs that one coin each, drawn in
    the order given, keeps with probability ``density``.

    No instance holds more than MAX_ARCS arcs, so the draw stops with
    ValueError at the first arc past it rather than drawing a coin for
    every pair; a digraph within it draws one coin per pair.
    """
    _check_vertex_count(n)
    # the negated test also refuses NaN, which every comparison fails
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density}")
    most = model.MAX_ARCS
    arcs = []
    for pair in pairs:
        if rng.random() < density:
            if len(arcs) == most:
                raise ValueError(f"the digraph's arc count exceeds the bound of {most}")
            arcs.append(pair)
    return Digraph(n, arcs)


def random_dag(n: int, density: float, rng: random.Random) -> Digraph:
    """Random DAG on vertices 0..n-1, one coin per pair i < j in order,
    stopping past MAX_ARCS arcs (see _coin_digraph)."""
    return _coin_digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)), density, rng)


def random_digraph(n: int, density: float, rng: random.Random) -> Digraph:
    """Random digraph (cycles allowed), one coin per ordered pair u != v in
    order, stopping past MAX_ARCS arcs (see _coin_digraph)."""
    return _coin_digraph(n, ((u, v) for u in range(n) for v in range(n) if u != v), density, rng)


def worked_example(n: int) -> QsppInstance:
    """Built-in instances on the simplified complete digraph.

    Size 4: unit interaction on both short paths' arc pairs, so the two
    length-2 paths cost 2 while the length-3 paths cost 0; not linearizable.
    Size 5: unit interaction on one consecutive interior pair; it passes
    every necessary condition yet is still not linearizable.
    """
    if n not in (4, 5):
        raise ValueError("worked examples exist for sizes 4 and 5")
    g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
    arc_of = {(a.head, a.tail): i for i, a in enumerate(g.arcs)}
    if n == 4:
        entries = {
            (arc_of[(0, 1)], arc_of[(1, 3)]): 1,
            (arc_of[(0, 2)], arc_of[(2, 3)]): 1,
        }
    else:
        entries = {(arc_of[(2, 3)], arc_of[(3, 4)]): 1}
    matrix = InteractionMatrix.from_entries(g.m, entries)
    return QsppInstance(g, 0, n - 1, (0,) * g.m, matrix)


def random_qap(n: int, rng: random.Random, max_entry: int = 9) -> QapInstance:
    """Random symmetric assignment data with integer entries in 0..max_entry."""
    from .reductions import QapInstance

    def symmetric() -> list[list[Fraction]]:
        rows = [[0] * n for _ in range(n)]
        values = iter(_drawn(rng, max_entry, n * (n + 1) // 2))
        for i in range(n):
            for j, v in zip(range(i, n), values):
                rows[i][j] = v
                rows[j][i] = v
        return rows

    drawn = _drawn(rng, max_entry, n * n)
    square = [drawn[i : i + n] for i in range(0, n * n, n)]
    return QapInstance(n, symmetric(), symmetric(), square)
