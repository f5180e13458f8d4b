"""Directed-multigraph core: stable arc ids, graph generators, s-t path machinery.

Arcs are identified by dense integer ids (their position in the arc list),
never by endpoint pairs, so parallel arcs are first-class citizens.  An arc
(head, tail) points from head to tail; two arcs chain when the first one's
tail equals the second one's head.  Graphs are immutable after construction,
so every function here is safe to call concurrently.

Grid vertices use the row-major bijection: the vertex in row i, column j
(1-based, p rows, q columns) has index (i-1)*q + (j-1).

One depth-first search walks the source-target paths, for enumeration,
brute_force_solve and build_path_matrix alike.  Given c and the rows of Q it
prices each path along the walk: each arc the search pushes adds its linear
cost and twice its interactions with the arcs below it to the cost of the
prefix under it, O(L) per push, so the search holds the cost of every prefix
on its stack and no path is priced again from its first arc.
brute_force_solve uses those prefix costs as a branch and bound: when c and
Q are nonnegative and the paths can be counted before the search, it does
not extend a prefix that already costs at least the best path found.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidPathError, PathLimitExceeded

DEFAULT_PATH_LIMIT = 10**6

# Digraph builds two lists per vertex, so a vertex count is refused past this
# bound before any of them is built: an instance file of a few dozen
# characters can declare n = 10**9.  10**6 vertices take 1.4 s and 170 MB to
# build (2-core host, CPython 3.11).
MAX_VERTICES = 10**6


def _check_vertex_count(n: int, shown: str | None = None) -> None:
    """Raise ValueError past MAX_VERTICES, naming the count as ``shown`` if
    given.  Digraph calls it, and so does each generator before it builds
    any arc."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {shown or n} exceeds the bound of {MAX_VERTICES}")


class Arc(NamedTuple):
    """Directed arc from ``head`` to ``tail``."""

    head: int
    tail: int


class Digraph:
    """Immutable directed multigraph with dense integer vertex and arc ids.

    A graph is its vertex count and its arc list, nothing more, so an
    instance file holds all of it.  A construction that tags parallel arcs
    numbers them by a formula and reads the tag back from the arc id.  At
    most MAX_VERTICES vertices; more raise ValueError.
    """

    __slots__ = ("n", "arcs", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("a digraph needs at least one vertex")
        _check_vertex_count(n)
        arc_list = []
        for head, tail in arcs:
            if not (0 <= head < n and 0 <= tail < n):
                raise ValueError(f"arc ({head},{tail}) references a vertex outside [0,{n})")
            if head == tail:
                raise ValueError(f"self-loop at vertex {head} is not allowed")
            arc_list.append(Arc(head, tail))
        self.n = n
        self.arcs: tuple[Arc, ...] = tuple(arc_list)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for a, arc in enumerate(self.arcs):
            out[arc.head].append(a)
            inc[arc.tail].append(a)
        self._out = tuple(tuple(ids) for ids in out)
        self._in = tuple(tuple(ids) for ids in inc)

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_arcs(self, v: int) -> tuple[int, ...]:
        """Arc ids leaving ``v``, in ascending id order."""
        return self._out[v]

    def in_arcs(self, v: int) -> tuple[int, ...]:
        """Arc ids entering ``v``, in ascending id order."""
        return self._in[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n, self.arcs) == (other.n, other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Path:
    """Simple path stored as the ordered tuple of its arc ids."""

    arcs: tuple[int, ...]

    def __len__(self) -> int:
        """Number of arcs (the path's length)."""
        return len(self.arcs)


def path_vertices(g: Digraph, path: Path) -> tuple[int, ...]:
    """Vertex sequence visited by ``path``; raises if the arcs do not chain."""
    if not path.arcs:
        raise InvalidPathError("a path must contain at least one arc")
    verts: list[int] = []
    for a in path.arcs:
        if not (0 <= a < g.m):
            raise InvalidPathError(f"arc id {a} out of range")
        arc = g.arcs[a]
        if not verts:
            verts.append(arc.head)
        elif arc.head != verts[-1]:
            raise InvalidPathError(f"arc {a} does not chain with the previous arc")
        verts.append(arc.tail)
    return tuple(verts)


def _adjacent(g: Digraph, e: int, f: int) -> bool:
    """Whether arcs e and f can sit next to each other on a walk."""
    a, b = g.arcs[e], g.arcs[f]
    return (a.tail == b.head and a.head != b.tail) or (
        a.head == b.tail and a.tail != b.head
    )


def validate_path(
    g: Digraph, path: Path, source: int | None = None, target: int | None = None
) -> tuple[int, ...]:
    """Check the Path invariants (chaining, no repeated vertex, endpoints).

    Returns the vertex sequence on success.
    """
    verts = path_vertices(g, path)
    if len(set(verts)) != len(verts):
        raise InvalidPathError("path repeats a vertex")
    if source is not None and verts[0] != source:
        raise InvalidPathError(f"path starts at {verts[0]}, expected {source}")
    if target is not None and verts[-1] != target:
        raise InvalidPathError(f"path ends at {verts[-1]}, expected {target}")
    return verts


# ---- generators --------------------------------------------------------


def make_grid(p: int, q: int) -> Digraph:
    """Directed p-by-q grid: every vertex points down and right where possible.

    p*q vertices, 2pq-p-q arcs, acyclic.  Arcs are emitted per vertex in
    row-major order, the down arc u -> u+q before the right arc u -> u+1,
    the numbering detect_grid reads back.
    """
    if p < 2 or q < 2:
        raise ValueError("grid needs p >= 2 and q >= 2")
    n = p * q
    _check_vertex_count(n)
    arcs = []
    for u in range(n):
        if u + q < n:
            arcs.append((u, u + q))
        if (u + 1) % q:
            arcs.append((u, u + 1))
    return Digraph(n, arcs)


def make_complete_symmetric(
    n: int, *, simplified: bool = False, source: int = 0, target: int | None = None
) -> Digraph:
    """Complete symmetric digraph on n vertices (one arc per ordered pair).

    With ``simplified`` the arcs that no source-target path can use are
    dropped: arcs into the source, arcs out of the target, and the direct
    source-target arc.  Arc order is lexicographic by (head, tail).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_vertex_count(n)
    if target is None:
        target = n - 1
    if source == target:
        raise ValueError("source and target must differ")
    arcs = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if simplified and (v == source or u == target or (u, v) == (source, target)):
                continue
            arcs.append((u, v))
    return Digraph(n, arcs)


def make_directed_cycle(n: int) -> Digraph:
    """Directed cycle v_0 -> v_1 -> ... -> v_{n-1} -> v_0."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_vertex_count(n)
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def make_hypercube(n: int) -> Digraph:
    """Directed n-cube: one vertex per n-bit string, arcs set a single 0 bit to 1.

    2**n vertices and n*2**(n-1) arcs; every arc increases the binary value,
    so the graph is acyclic.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # 2**n passes the bound exactly when n reaches the bound's bit length, so
    # a huge n is refused without building the number 2**n
    _check_vertex_count(1 << min(n, MAX_VERTICES.bit_length()), f"2**{n}")
    arcs = []
    for u in range(1 << n):
        for b in range(n):
            if not u & (1 << b):
                arcs.append((u, u | (1 << b)))
    return Digraph(1 << n, arcs)


def make_tournament(n: int, orientation_bits: int = 0) -> Digraph:
    """Tournament on n vertices: exactly one arc per unordered vertex pair.

    Pairs (i, j) with i < j are enumerated lexicographically; bit k of
    ``orientation_bits`` flips the k-th pair from i->j to j->i.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_vertex_count(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not 0 <= orientation_bits < (1 << len(pairs)):
        raise ValueError("orientation_bits out of range for this n")
    arcs = []
    for k, (i, j) in enumerate(pairs):
        if orientation_bits >> k & 1:
            arcs.append((j, i))
        else:
            arcs.append((i, j))
    return Digraph(n, arcs)


# ---- path enumeration and DAG utilities --------------------------------


def check_endpoints(g: Digraph, source: int, target: int) -> None:
    """Raise ValueError unless source and target are distinct vertices of g."""
    if not (0 <= source < g.n and 0 <= target < g.n):
        raise ValueError("source/target outside the vertex range")
    if source == target:
        raise ValueError("source and target must differ")


def reachable(g: Digraph, start: int, forward: bool) -> list[bool]:
    """Per-vertex flags: reachable from ``start`` along arcs, or with
    ``forward`` false, able to reach ``start``."""
    seen = [False] * g.n
    seen[start] = True
    stack = [start]
    while stack:
        v = stack.pop()
        for a in g.out_arcs(v) if forward else g.in_arcs(v):
            arc = g.arcs[a]
            w = arc.tail if forward else arc.head
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def _walk_st_paths(
    g: Digraph,
    source: int,
    target: int,
    limit: int,
    linear: Sequence | None = None,
    rows: Sequence[Sequence] | None = None,
    prune: bool = False,
) -> Iterator[tuple[tuple[int, ...], object]]:
    """Yield (arcs, cost) for every simple source-target path, lexicographic
    by arc ids, by a depth-first search that enters only vertices able to
    reach the target.  Where that part of the graph is acyclic, more than
    ``limit`` paths raise PathLimitExceeded before any path is walked;
    elsewhere the (limit+1)-th path found does.  The endpoints are not
    checked, so every caller checks them first.

    Given c and Q's rows, each cost is the path's raw priced sum (see the
    module docstring); without them every cost is 0.  ``prune``, which a
    caller passes only when c and Q have no negative entry, skips an arc
    whose prefix costs at least the cheapest path found so far on such an
    acyclic part.  Only the paths cheaper than every one before them are
    then yielded, the last the earliest optimum.
    """
    useful = reachable(g, target, forward=False)
    if not useful[source]:
        return
    count = _count_st_paths(g, source, target, useful)
    if count is not None and count > limit:
        raise PathLimitExceeded(limit)
    priced = linear is not None
    entry = [row.__getitem__ for row in rows] if priced else None
    prune = prune and count is not None
    tail = [arc.tail for arc in g.arcs]
    on_path = [False] * g.n
    on_path[source] = True
    arc_stack: list[int] = []
    costs: list = [0]
    out_arcs = g._out
    iter_stack = [iter(out_arcs[source])]
    found = 0
    cost = 0
    bound = None
    while iter_stack:
        for a in iter_stack[-1]:
            v = tail[a]
            if on_path[v] or not useful[v]:
                continue
            if priced:
                cost = costs[-1] + linear[a] + 2 * sum(map(entry[a], arc_stack))
                if bound is not None and cost >= bound:
                    continue
            arc_stack.append(a)
            if v == target:
                found += 1
                if found > limit:
                    raise PathLimitExceeded(limit)
                yield tuple(arc_stack), cost
                arc_stack.pop()
                if prune:
                    bound = cost
                continue
            on_path[v] = True
            if priced:
                costs.append(cost)
            iter_stack.append(iter(out_arcs[v]))
            break
        else:
            iter_stack.pop()
            if arc_stack:
                on_path[tail[arc_stack.pop()]] = False
                if priced:
                    costs.pop()


def iter_st_paths(
    g: Digraph, source: int, target: int, limit: int = DEFAULT_PATH_LIMIT
) -> Iterator[Path]:
    """Yield every simple source-target path, lexicographic by arc ids.

    Where the part of the graph that reaches the target is acyclic, more
    than ``limit`` paths raise PathLimitExceeded before the first path is
    yielded; elsewhere the (limit+1)-th path found raises, so a caller that
    consumed ``limit`` paths without an exception has them all.
    """
    check_endpoints(g, source, target)
    for arcs, _ in _walk_st_paths(g, source, target, limit):
        yield Path(arcs)


def enumerate_st_paths(
    g: Digraph, source: int, target: int, limit: int = DEFAULT_PATH_LIMIT
) -> list[Path]:
    """All simple source-target paths in deterministic lexicographic order.

    Raises PathLimitExceeded past ``limit`` paths; see iter_st_paths."""
    return list(iter_st_paths(g, source, target, limit))


def topological_order(
    g: Digraph, within: Sequence[bool] | None = None
) -> list[int] | None:
    """A topological order of the vertices, or None if the graph has a cycle.

    With ``within`` (one flag per vertex) only the subgraph induced by the
    flagged vertices is ordered, and only its cycles count.  Kahn's
    algorithm with a min-heap, so the order is deterministic
    (lexicographically smallest).
    """
    keep = within if within is not None else [True] * g.n
    indeg = [0] * g.n
    for arc in g.arcs:
        if keep[arc.head] and keep[arc.tail]:
            indeg[arc.tail] += 1
    ready = [v for v in range(g.n) if keep[v] and indeg[v] == 0]  # sorted: a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a in g.out_arcs(v):
            w = g.arcs[a].tail
            if keep[w]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
    return order if len(order) == sum(keep) else None


def _count_st_paths(
    g: Digraph, source: int, target: int, useful: Sequence[bool]
) -> int | None:
    """Number of simple source-target paths, or None when the subgraph
    induced by the ``useful`` vertices (those that can reach the target) has
    a cycle.  Without one every source-target walk is a simple path, so one
    pass over the topological order adds up the walks into each vertex.
    """
    order = topological_order(g, useful)
    if order is None:
        return None
    ways = [0] * g.n
    ways[source] = 1
    for v in order:
        if ways[v]:
            for a in g.out_arcs(v):
                ways[g.arcs[a].tail] += ways[v]
    return ways[target]


def is_acyclic(g: Digraph) -> bool:
    return topological_order(g) is not None


def count_grid_paths(p: int, q: int) -> int:
    """Number of corner-to-corner paths in the p-by-q grid: C(p+q-2, p-1)."""
    if p < 2 or q < 2:
        raise ValueError("grid needs p >= 2 and q >= 2")
    return math.comb(p + q - 2, p - 1)


def detect_grid(g: Digraph) -> tuple[int, int] | None:
    """Recover (p, q) if ``g`` is a row-major directed grid, else None.

    m = 2pq - p - q distinct arcs, each a grid arc (h, h + q) down or
    (h, h + 1) right within a row, are exactly the p-by-q grid's arcs.
    """
    n, m = g.n, g.m
    arcs = g.arcs
    if len(set(arcs)) != m:
        return None
    for p in range(2, n + 1):
        if n % p:
            continue
        q = n // p
        if q < 2 or m != 2 * p * q - p - q:
            continue
        if all(tail == head + q or tail == head + 1 and tail % q for head, tail in arcs):
            return (p, q)
    return None
