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

brute_force_solve adds a completion lower bound of the Gilmore-Lawler kind
(Rostami et al. 2018) where the part of the graph that reaches the target t
is acyclic, for any sign of c and Q.  Two tables are made once per solve, in
reverse topological order over the vertices of that part that the source
reaches (those the path count walks into), the only ones the search enters:
  D[t] = 0, and D[v] = min over its out-arcs a = (v, w) of Q[a] + D[w],
  elementwise, so D[v][f] <= sum over e in R of Q[e][f] for every path R
  from v to t;
  h[t] = 0, and h[v] = min over the same arcs of c_a + 2*D[w][a] + h[w].
A prefix A (its last arc included) that ends at v and costs k(A) then has
every completion cost at least k(A) + h[v] + 2 * sum over f in A of D[v][f].
A completion R adds three parts, each at least its table's minimum (and a
sum of minima is at most the minimum of the sum): the linear sum over R; its
cross term with the prefix, 2 * sum over e in R, f in A of Q[e][f], at least
2 * sum over f in A of D[v][f]; and for each arc e of R twice its
interactions with the arcs after it on R, at least 2*D[tail e][e].  On an
acyclic part a completion never meets the prefix.  The search does not
extend a prefix whose bound reaches the cheapest path found so far, and
replaces that path only on a strict improvement, so every path in a pruned
subtree costs at least the best so far and the earliest optimum survives;
at v = t the bound is k(A) itself.  A prefix's bound costs one more O(L)
sum.  It is cheaper and looser than taking a shortest path to t under the
prefix's interactions at each node, which costs O(m) in Python per node:
it splits the cross term per prefix arc.  The tables hold at most one row
of Q's length per vertex of that part, each cut after the last arc that
can come before its vertex.  Cyclic parts, enumeration and
build_path_matrix walk unbounded.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add
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


def _check_order(n: int) -> None:
    """Raise ValueError unless 2 <= n <= MAX_VERTICES: the guard of the
    generators on n vertices (complete, cycle, tournament)."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_vertex_count(n)


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
    _check_order(n)
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
    _check_order(n)
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
    _check_order(n)
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


def _completion_tables(
    g: Digraph,
    target: int,
    order: Sequence[int],
    ways: Sequence[int],
    linear: Sequence,
    rows: Sequence[Sequence],
) -> tuple[list, list]:
    """(D, h), the tables of the completion bound (see the module docstring)
    over the vertices that lie on a source-target path of g, when the part
    of g that reaches the target is acyclic, ``order`` is its topological
    order and ``ways[v]`` the path count's walks from the source into v.
    D[v] is cut after the last arc that can come before v on such a path,
    the columns the bound reads; a vertex the search never enters gets None.

    One pass in reverse topological order makes each D[v] from whole rows
    of Q: a map(add) per out-arc and, from the second one on, an elementwise
    minimum written as a comprehension, three times as fast as map(min).
    """
    arcs = g.arcs
    # span[v]: 1 + the largest arc id on a path from the source into v
    span = [0] * g.n
    for v in order:
        for a in g._in[v]:
            u = arcs[a].head
            if ways[u]:
                span[v] = max(span[v], a + 1, span[u])
    dist: list = [None] * g.n
    dist[target] = [0] * span[target]
    least: list = [None] * g.n
    least[target] = 0
    for v in reversed(order):
        if not ways[v]:
            continue
        k = span[v]
        row = None
        for a in g._out[v]:
            w = arcs[a].tail
            if dist[w] is None:  # w cannot reach the target
                continue
            through = map(add, rows[a][:k], dist[w])
            if row is None:
                row = list(through)
            else:
                row = [x if x < y else y for x, y in zip(row, through)]
            h = linear[a] + 2 * dist[w][a] + least[w]
            if least[v] is None or h < least[v]:
                least[v] = h
        if row is not None:
            dist[v] = row
    return dist, least


def _walk_st_paths(
    g: Digraph,
    source: int,
    target: int,
    limit: int,
    linear: Sequence | None = None,
    rows: Iterable[Sequence] | None = None,
    bounded: bool = False,
) -> Iterator[tuple[tuple[int, ...], object]]:
    """Yield (arcs, cost) for every simple source-target path, lexicographic
    by arc ids, by a depth-first search that enters only vertices able to
    reach the target.  Where that part of the graph is acyclic, more than
    ``limit`` paths raise PathLimitExceeded before any path is walked;
    elsewhere the (limit+1)-th path found does.  The endpoints are not
    checked, so every caller checks them first.

    Given c and Q's rows, each cost is the path's raw priced sum (see the
    module docstring); without them every cost is 0.  ``bounded``, which
    needs c and Q, prunes on the completion bound of the module docstring
    where that part is acyclic: a prefix is not extended, and a path not
    yielded, when every completion of it costs at least the cheapest path
    found so far.  Only the paths cheaper than every one before them are
    then yielded, the last the earliest optimum.
    """
    useful = reachable(g, target, forward=False)
    if not useful[source]:
        return
    order = topological_order(g, useful)
    if order is not None:
        ways = _count_st_paths(g, source, order)
        if ways[target] > limit:
            raise PathLimitExceeded(limit)
    priced = linear is not None
    if priced:
        rows = tuple(rows)
        entry = [row.__getitem__ for row in rows]
    bounded = bounded and order is not None
    if bounded:
        dist, least = _completion_tables(g, target, order, ways, linear, rows)
        dist = [None if row is None else row.__getitem__ for row in dist]
    tail = [arc.tail for arc in g.arcs]
    on_path = [False] * g.n
    on_path[source] = True
    arc_stack: list[int] = []
    costs: list = [0]
    out_arcs = g._out
    iter_stack = [iter(out_arcs[source])]
    found = 0
    cost = 0
    best = None
    while iter_stack:
        for a in iter_stack[-1]:
            v = tail[a]
            if on_path[v] or not useful[v]:
                continue
            if priced:
                cost = costs[-1] + linear[a] + 2 * sum(map(entry[a], arc_stack))
                if best is not None:
                    if v == target:
                        if cost >= best:
                            continue
                    else:
                        below = dist[v]
                        if cost + least[v] + 2 * sum(map(below, arc_stack), below(a)) >= best:
                            continue
            arc_stack.append(a)
            if v == target:
                found += 1
                if found > limit:
                    raise PathLimitExceeded(limit)
                yield tuple(arc_stack), cost
                arc_stack.pop()
                if bounded:
                    best = cost
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


def _count_st_paths(g: Digraph, source: int, order: Sequence[int]) -> list[int]:
    """The walks from the source into each vertex, counted in one pass over
    a topological ``order`` of an acyclic part of g that holds every vertex
    able to reach the target.  Every source-target walk then is a simple
    path, so the target's entry counts the source-target paths.
    """
    ways = [0] * g.n
    ways[source] = 1
    for v in order:
        if ways[v]:
            for a in g.out_arcs(v):
                ways[g.arcs[a].tail] += ways[v]
    return ways


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
