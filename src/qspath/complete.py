"""QSPP on complete symmetric digraphs with the trivial arcs removed.

Working shape: every ordered vertex pair is an arc except those into the
source, out of the target, and the direct source-target arc.  Standing
assumption for the closed-form machinery below: the linear cost vector is
zero.  Interaction costs on arc pairs that no source-target path can carry
(pairs sharing a start vertex, pairs sharing an end vertex, and the two
orientations of one vertex pair) are ignored, as they change no path cost;
normalize_knstar zeroes them, so normalization is optional.

Under that assumption the total cost of all length-k paths is a closed
form in six pair-class sums: split arcs into terminal arcs (leaving the
source or entering the target) and interior arcs, split unordered arc pairs
by consecutiveness and by how many of the two arcs are terminal, and weight
each class sum by the count of length-k paths through one representative
pair.  Linearizable instances must satisfy two families of inequalities
between consecutive length-class totals; on the four-vertex graph the single
surviving inequality is also sufficient and the witness vector is explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FamilyError, InternalError
from .graphs import Digraph, _adjacent, make_complete_symmetric, path_vertices
from .model import InteractionMatrix, QsppInstance, as_rational, rational_vector, validate_instance
from .pathmatrix import (
    InfeasibilityCertificate,
    LinearizationResult,
    _verify_certificate,
    _verify_solution,
    build_path_matrix,
    lp_oracle,
)


def _choose(a: int, b: int) -> int:
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def knstar_order(g: Digraph, source: int, target: int) -> int:
    """Vertex count if ``g`` is the simplified complete shape; raises otherwise.

    The shape has (n-1)(n-2) arcs; that count is checked first, so a graph
    of many vertices and few arcs never has the shape built."""
    arcs = set(g.arcs)
    if len(arcs) != g.m or g.m != (g.n - 1) * (g.n - 2) or arcs != set(
        make_complete_symmetric(g.n, simplified=True, source=source, target=target).arcs
    ):
        raise FamilyError(
            "graph is not the complete digraph with the unusable terminal arcs removed"
        )
    return g.n


def _is_terminal(g: Digraph, source: int, target: int, arc: int) -> bool:
    a = g.arcs[arc]
    return a.head == source or a.tail == target


def _never_together(g: Digraph, e: int, f: int) -> bool:
    """Pairs no simple source-target path can carry on this shape."""
    a, b = g.arcs[e], g.arcs[f]
    return (
        a.head == b.head
        or a.tail == b.tail
        or (a.head == b.tail and a.tail == b.head)
    )


def normalize_knstar(inst: QsppInstance) -> QsppInstance:
    """Zero the interaction cost of every pair that no path can carry.

    Path costs are untouched, so linearizability and every solver verdict
    survive normalization.
    """
    knstar_order(inst.graph, inst.source, inst.target)
    m = inst.graph.m
    rows = [list(row) for row in inst.interaction.rows]
    for e in range(m):
        for f in range(e + 1, m):
            if _never_together(inst.graph, e, f):
                rows[e][f] = rows[f][e] = 0
    interaction = InteractionMatrix._of_exact(rows)
    return QsppInstance(inst.graph, inst.source, inst.target, inst.linear, interaction)


@dataclass(frozen=True)
class PathClassSums:
    """Doubled interaction totals of the six unordered arc-pair classes.

    Order: (consecutive, both terminal), (apart, both terminal),
    (consecutive, one terminal), (apart, one terminal),
    (consecutive, no terminal), (apart, no terminal).  Their sum is the
    all-ones quadratic form of the normalized interaction matrix.
    """

    sums: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]


def _paths_per_pair(n: int, class_index: int, k: int) -> int:
    """How many length-k source-target paths hold one co-carriable pair of
    the given class (1-based).  Past class 1 the pair pins 2, 2, 3, 3 or 4
    interior vertices; a path picks k-1-pinned of the n-2-pinned others and
    orders them with the pair's blocks off s and t, k-3 items in all."""
    if class_index == 1:
        return int(k == 2)
    pinned = (2, 2, 3, 3, 4)[class_index - 2]
    return _choose(n - 2 - pinned, k - 1 - pinned) * math.factorial(k - 3) if k > pinned else 0


def paths_of_length(n: int, k: int) -> int:
    """Number of source-target paths of length k on the simplified shape."""
    return _choose(n - 2, k - 1) * math.factorial(k - 1)


def path_class_costs(
    inst: QsppInstance,
) -> tuple[PathClassSums, dict[int, Fraction]]:
    """Class sums and the closed-form total cost of all length-k paths.

    Requires at least four vertices and an all-zero linear vector.  Costs on
    pairs no path can carry are skipped, so a raw instance and its
    normalize_knstar copy give the same result.
    """
    n = knstar_order(inst.graph, inst.source, inst.target)
    if n < 4:
        raise FamilyError("the length-class formulas need at least four vertices")
    if any(inst.linear):
        raise FamilyError(
            "length-class costs assume a zero linear vector; shift it first"
        )
    g = inst.graph
    rows = inst.interaction.rows
    m = g.m
    sums = [0] * 6
    for e in range(m):
        for f in range(e + 1, m):
            value = rows[e][f]
            if not value or _never_together(g, e, f):
                continue
            terminal = _is_terminal(g, inst.source, inst.target, e) + _is_terminal(
                g, inst.source, inst.target, f
            )
            sums[2 * (2 - terminal) + (not _adjacent(g, e, f))] += 2 * value
    totals = {
        k: as_rational(sum(_paths_per_pair(n, idx + 1, k) * sums[idx] for idx in range(6)))
        for k in range(2, n)
    }
    return PathClassSums(rational_vector(sums)), totals


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    k: int
    lhs: Fraction
    rhs: Fraction
    satisfied: bool


@dataclass(frozen=True)
class NecessaryConditionsReport:
    """Outcome of the linearizability necessary conditions.

    A violated condition proves the instance not linearizable; all-pass is
    inconclusive (the conditions are not sufficient beyond four vertices).
    """

    conditions: tuple[ConditionCheck, ...]
    totals: dict[int, Fraction]

    @property
    def violated(self) -> bool:
        return any(not c.satisfied for c in self.conditions)


def check_necessary_conditions(inst: QsppInstance) -> NecessaryConditionsReport:
    """Test the two inequality families every linearizable instance obeys.

    Family "vs-longer": the length-k total is at most the length-(k+1) total
    divided by the count of ways to extend, for k from 2 to n-2.  Family
    "vs-shorter" (five or more vertices): the length-k total is at most
    (n-k)(k-2)/(k-3) times the length-(k-1) total, for k from 4 to n-1.
    """
    sums, totals = path_class_costs(inst)
    n = inst.graph.n  # path_class_costs checked the shape
    checks = []
    for k in range(2, n - 1):
        lhs = as_rational(totals[k] * (n - k - 1))
        rhs = totals[k + 1]
        checks.append(ConditionCheck("vs-longer", k, lhs, rhs, lhs <= rhs))
    if n >= 5:
        for k in range(4, n):
            lhs = as_rational(totals[k] * (k - 3))
            rhs = as_rational(totals[k - 1] * (n - k) * (k - 2))
            checks.append(ConditionCheck("vs-shorter", k, lhs, rhs, lhs <= rhs))
    return NecessaryConditionsReport(tuple(checks), totals)


def k4_linearize(inst: QsppInstance) -> LinearizationResult:
    """Decide linearizability on the simplified four-vertex shape.

    With b0..b3 the costs of s-x-t, s-y-t, s-x-y-t and s-y-x-t, the instance
    is linearizable exactly when b0+b1 <= b2+b3 and no b is negative; a
    negative path is its own certificate, and the other one weights the short
    paths by -1 and the long ones by +1.  On a yes the vector is
    xt = max(0, b0-b2), yt = max(0, b1-b3), sx = b0-xt, sy = b1-yt,
    xy = b2-sx-yt and yx = b3-sy-xt.  Its four path sums are the b's;
    xt, yt >= 0 by the max, and sx = min(b0, b2) >= 0 (sy likewise);
    xy, yx >= 0 follow from b0+b1 <= b2+b3.  Only path costs are read, so
    normalization (normalize_knstar) is optional.
    """
    n = knstar_order(inst.graph, inst.source, inst.target)
    if n != 4:
        raise FamilyError("this characterization is specific to four vertices")
    source, target = inst.source, inst.target
    x, y = sorted(v for v in range(n) if v not in (source, target))
    pm = build_path_matrix(inst)
    # both length-2 paths (by middle vertex x, y), then s-x-y-t and s-y-x-t
    order = sorted(
        range(len(pm.paths)),
        key=lambda r: (len(pm.paths[r]), path_vertices(inst.graph, pm.paths[r])),
    )
    b = [pm.costs[r] for r in order]

    def certificate(weights: dict[int, Fraction]) -> InfeasibilityCertificate:
        coefficients = [0] * len(pm.paths)
        for row, w in weights.items():
            coefficients[row] = w
        _verify_certificate(pm, coefficients, require_nonneg=True)
        return InfeasibilityCertificate(tuple(coefficients))

    negative = next((i for i, cost in enumerate(b) if cost < 0), None)
    if negative is not None:
        return LinearizationResult(
            False,
            witness=certificate({order[negative]: 1}),
            note="a path has negative cost, unreachable with nonnegative entries",
        )
    if b[0] + b[1] > b[2] + b[3]:
        weights = dict(zip(order, (-1, -1, 1, 1)))
        return LinearizationResult(
            False,
            witness=certificate(weights),
            note="length-2 path costs exceed length-3 path costs",
        )
    xt, yt = max(0, b[0] - b[2]), max(0, b[1] - b[3])
    sx, sy = b[0] - xt, b[1] - yt
    value = {
        (source, x): sx,
        (source, y): sy,
        (x, target): xt,
        (y, target): yt,
        (x, y): b[2] - sx - yt,
        (y, x): b[3] - sy - xt,
    }
    vec = rational_vector(value[arc] for arc in inst.graph.arcs)
    _verify_solution(pm, vec, require_nonneg=True)
    return LinearizationResult(True, vector=vec)


def _tournament_check(g: Digraph) -> None:
    if g.n != 4 or g.m != 6:
        raise FamilyError("need a four-vertex tournament")
    seen = set()
    for a in g.arcs:
        pair = frozenset((a.head, a.tail))
        if pair in seen:
            raise FamilyError("tournament needs exactly one arc per vertex pair")
        seen.add(pair)


def tournament4_linearize(inst: QsppInstance) -> LinearizationResult:
    """Linearize an instance on a four-vertex tournament (always possible).

    Requires a problem-definition instance (symmetric nonnegative
    interaction, nonnegative linear costs).  With a zero interaction matrix
    the instance is already linear and its own vector is returned; otherwise
    the exact oracle produces one, and its success is guaranteed.
    """
    _tournament_check(inst.graph)
    report = validate_instance(inst)
    if not report.ok:
        raise FamilyError(
            "tournament linearization expects a problem-definition instance: "
            + "; ".join(report.violations)
        )
    if all(not v for row in inst.interaction.rows for v in row):
        return LinearizationResult(True, vector=inst.linear)
    result = lp_oracle(build_path_matrix(inst), require_nonneg=True)
    if not result.linearizable:
        raise InternalError("four-vertex tournaments are always linearizable")
    return result
