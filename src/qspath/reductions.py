"""Hardness-reduction constructions as instance generators.

qap_to_qspp encodes a quadratic assignment instance as a QSPP on a layered
multigraph: one layer of n parallel arcs per location, so a source-target
path picks one facility per location.  A big-M interaction cost on every
pair of arcs carrying the same facility makes non-injective picks more
expensive than any legitimate assignment, so optima coincide exactly.

disjoint_to_aqspp encodes a 2-arc-disjoint-paths question as an adjacent
QSPP on a cyclic digraph whose optimum is zero exactly on yes-instances and
at least two otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations, repeat
from operator import mul
from typing import Sequence

from .errors import FormatError
from .graphs import Digraph
from .model import InteractionMatrix, QsppInstance, _check_arc_count, _symmetric, as_rational

Matrix = tuple[tuple[Fraction, ...], ...]


def _as_matrix(rows: Sequence[Sequence[object]], n: int, name: str) -> Matrix:
    mat = tuple(tuple(as_rational(v) for v in row) for row in rows)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"{name} must be {n}x{n}")
    return mat


@dataclass(frozen=True)
class QapInstance:
    """Quadratic assignment data: symmetric flows a, symmetric distances b,
    linear placement costs c."""

    n: int
    a: Matrix
    b: Matrix
    c: Matrix
    symmetrized: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", _as_matrix(self.a, self.n, "a"))
        object.__setattr__(self, "b", _as_matrix(self.b, self.n, "b"))
        object.__setattr__(self, "c", _as_matrix(self.c, self.n, "c"))
        for name, mat in (("a", self.a), ("b", self.b)):
            if not _symmetric(mat):
                raise ValueError(f"matrix {name} must be symmetric")


def qap_objective(qap: QapInstance, placement: Sequence[int]) -> Fraction:
    """Objective of placing facility i at location placement[i]."""
    total = 0
    for i in range(qap.n):
        total += qap.c[i][placement[i]]
        for k in range(qap.n):
            total += qap.a[i][k] * qap.b[placement[i]][placement[k]]
    return total


def qap_brute_force(qap: QapInstance) -> tuple[tuple[int, ...], Fraction]:
    """Exact optimum over all n! placements; ties keep the first in
    lexicographic order."""
    values = ((perm, qap_objective(qap, perm)) for perm in permutations(range(qap.n)))
    return min(values, key=lambda pair: pair[1])


def qap_to_qspp(qap: QapInstance) -> QsppInstance:
    """Layered-multigraph encoding with n+1 vertices and n*n arcs.

    Layer loc (locations, 0-based) holds n parallel arcs w_loc -> w_loc+1,
    one per facility: the arc for facility fac at location loc has id
    loc*n + fac, so divmod(a, n) is (loc, fac).  Nonzero flow or distance
    diagonals are first shifted into the linear costs.  Interaction between
    arcs in different layers is flow*distance for distinct facilities and M
    for a repeated facility, where M exceeds every assignment's absolute
    objective, so any path with value below M decodes to a placement of the
    same value.
    """
    n = qap.n
    m = n * n
    _check_arc_count(m)
    a = [list(row) for row in qap.a]
    b = [list(row) for row in qap.b]
    c = [[v + a[i][i] * b[j][j] for j, v in enumerate(row)] for i, row in enumerate(qap.c)]
    for i in range(n):
        a[i][i] = b[i][i] = 0

    # the sum of |a[i][k] * b[j][l]| over all i, k, j, l is (sum |a|)(sum |b|)
    sum_a, sum_b, sum_c = (sum(map(abs, chain.from_iterable(mat))) for mat in (a, b, c))
    big_m = as_rational(1 + sum_a * sum_b + sum_c)

    graph = Digraph(n + 1, [(loc, loc + 1) for loc in range(n) for _ in range(n)])
    linear = [c[fac][loc] for loc in range(n) for fac in range(n)]
    # row (loc_e, fac_e) is a[fac_e][fac_f] * b[loc_e][loc_f] at (loc_f, fac_f) in
    # one map, then big M at e's facility and across e's location, 0 at e
    flows = [row * n for row in a]
    distances = [[v for v in row for _ in range(n)] for row in b]
    rows = []
    for loc_e in range(n):
        for fac_e in range(n):
            row = list(map(mul, flows[fac_e], distances[loc_e]))
            row[fac_e::n] = repeat(big_m, n)
            row[loc_e * n : loc_e * n + n] = repeat(big_m, n)
            row[loc_e * n + fac_e] = 0
            rows.append(row)
    # whole a and b make whole products, set symmetric with a zero diagonal
    # above; products of Fractions go through the coercing constructor
    whole = all(type(v) is int for v in chain(*a, *b))
    interaction = (InteractionMatrix._of_exact if whole else InteractionMatrix)(rows)
    return QsppInstance(graph, 0, n, tuple(linear), interaction)


def decode_qap_path(inst: QsppInstance, path_arcs: Sequence[int]) -> tuple[int, ...]:
    """Placement (facility i -> location) encoded by a reduced-instance path.

    The placement is read from the arc ids, arc a carrying facility a % n
    at location a // n, so an instance parsed from its file decodes too.
    Raises ValueError when the graph is not qap_to_qspp's layered multigraph
    (n+1 vertices, n*n arcs, arc a from a // n to a // n + 1), when the arcs
    are not a source-target path (n ids, the k-th in layer k, so none out of
    range), or when the path repeats a facility, i.e. its cost is in the
    big-M regime and does not encode an assignment.
    """
    g = inst.graph
    n = g.n - 1
    if g.m != n * n or any(arc != (a // n, a // n + 1) for a, arc in enumerate(g.arcs)):
        raise ValueError("decode needs the layered graph of qap_to_qspp")
    if len(path_arcs) != n:
        raise ValueError(f"a source-target path has {n} arcs, got {len(path_arcs)}")
    placement: dict[int, int] = {}
    for layer, arc in enumerate(path_arcs):
        loc, fac = divmod(arc, n)
        if loc != layer:
            raise ValueError(f"arc id {arc} lies outside layer {layer}")
        if fac in placement:
            raise ValueError("path repeats a facility and encodes no assignment")
        placement[fac] = loc
    return tuple(placement[i] for i in range(n))


def parse_qaplib(text: str) -> QapInstance:
    """Parse whitespace-separated QAP data: n, then two n*n matrices, then an
    optional third n*n matrix of linear costs (zero when absent).

    Asymmetric flow or distance matrices are symmetrized to (M + M^T)/2 and
    recorded in ``symmetrized``; exact values are kept as rationals.
    """
    tokens = text.split()
    if not tokens:
        raise FormatError("empty QAP text")

    def number(pos: int) -> Fraction:
        try:
            return as_rational(tokens[pos])
        except (ValueError, ZeroDivisionError, TypeError):
            raise FormatError(f"token {pos + 1} ({tokens[pos]!r}) is not a number") from None

    try:
        n = int(tokens[0])
    except ValueError:
        raise FormatError(f"first token ({tokens[0]!r}) must be the size n") from None
    if n < 1:
        raise FormatError("size n must be positive")
    need = 1 + 2 * n * n
    if len(tokens) not in (need, need + n * n):
        raise FormatError(
            f"expected {need} or {need + n * n} tokens for n={n}, got {len(tokens)}"
        )
    values = [number(pos) for pos in range(1, len(tokens))]

    def take(offset: int) -> list[list[Fraction]]:
        return [values[offset + i * n : offset + (i + 1) * n] for i in range(n)]

    raw_a = take(0)
    raw_b = take(n * n)
    raw_c = take(2 * n * n) if len(tokens) == need + n * n else [[0] * n for _ in range(n)]

    symmetrized = []

    def symmetrize(mat: list[list[Fraction]], name: str) -> list[list[Fraction]]:
        if _symmetric(mat):
            return mat
        symmetrized.append(name)
        return [
            [Fraction(mat[i][j] + mat[j][i], 2) for j in range(n)] for i in range(n)
        ]

    return QapInstance(
        n,
        symmetrize(raw_a, "a"),
        symmetrize(raw_b, "b"),
        raw_c,
        tuple(symmetrized),
    )


@dataclass(frozen=True)
class DisjointPathsInstance:
    """A 2-arc-disjoint-paths question: find arc-disjoint s1-t1 and s2-t2 paths."""

    graph: Digraph
    s1: int
    t1: int
    s2: int
    t2: int

    def __post_init__(self):
        for v in (self.s1, self.t1, self.s2, self.t2):
            if not 0 <= v < self.graph.n:
                raise ValueError("terminal outside the vertex range")
        if self.s1 == self.s2 or self.t1 == self.t2:
            raise ValueError("the two sources and the two targets must differ")


def disjoint_to_aqspp(dp: DisjointPathsInstance) -> QsppInstance:
    """Adjacent instance whose optimum is 0 iff the disjoint paths exist.

    Each original vertex v becomes two lane copies v1 and v2, each original
    arc (u, v) becomes a midpoint vertex reached from u and leading to v in
    both lanes, and a free bridge connects t1's first-lane copy to s2's
    second-lane copy.  Switching lanes at a midpoint costs 2, so a zero-cost
    route stays in lane one until the bridge and in lane two after it, and it
    exists exactly when the two requested paths can avoid sharing an arc
    (a shared arc would make the route revisit that arc's midpoint).
    """
    g = dp.graph
    n, m = g.n, g.m
    lane1 = lambda v: v
    lane2 = lambda v: n + v
    midpoint = lambda arc: 2 * n + arc

    arcs: list[tuple[int, int]] = []
    entries: dict[tuple[int, int], int] = {}
    for arc_id, arc in enumerate(g.arcs):
        into1 = len(arcs)
        arcs.append((lane1(arc.head), midpoint(arc_id)))
        out1 = len(arcs)
        arcs.append((midpoint(arc_id), lane1(arc.tail)))
        into2 = len(arcs)
        arcs.append((lane2(arc.head), midpoint(arc_id)))
        out2 = len(arcs)
        arcs.append((midpoint(arc_id), lane2(arc.tail)))
        entries[(into1, out2)] = 1
        entries[(into2, out1)] = 1
    arcs.append((lane1(dp.t1), lane2(dp.s2)))

    graph = Digraph(2 * n + m, arcs)
    interaction = InteractionMatrix.from_entries(len(arcs), entries)
    linear = (0,) * len(arcs)
    return QsppInstance(graph, lane1(dp.s1), lane2(dp.t2), linear, interaction)
