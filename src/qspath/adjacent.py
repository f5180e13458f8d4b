"""Adjacent QSPP: recognition, the arc-to-vertex auxiliary reduction, and the
cyclic instance family on which that reduction is provably unsound.

Two arcs (i,j) and (k,l) are adjacent when they can be consecutive on a walk:
j = k with i != l, or i = l with j != k.  An adjacent instance has zero
interaction cost on every non-adjacent pair, which lets the quadratic cost be
carried as linear cost on an auxiliary graph whose vertices are the original
arcs plus one virtual endpoint for the source and one for the target.

The reduction is exact only on acyclic graphs: on a cyclic graph the
auxiliary shortest route can trace a walk that repeats vertices of the
original graph and undercut every true path.  solve_aqspp therefore refuses
cyclic inputs; make_cyclic_counterexample builds the five-vertex family that
exhibits the failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CyclicGraphError, FamilyError
from .graphs import Digraph, Path, _adjacent, is_acyclic
from .model import (
    InteractionMatrix,
    QsppInstance,
    SppInstance,
    as_rational,
    spp_solve,
)


def is_adjacent_qspp(inst: QsppInstance) -> bool:
    """True iff every nonzero interaction entry sits on an adjacent arc pair."""
    rows = inst.interaction.rows
    m = inst.graph.m
    for e in range(m):
        for f in range(m):
            if rows[e][f] and not _adjacent(inst.graph, e, f):
                return False
    return True


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Arc-to-vertex lift of an adjacent instance.

    Vertex 0 is the virtual source endpoint, vertices 1..m are the original
    arcs by id, vertex m+1 is the virtual target endpoint.  ``arc_of_vertex``
    maps auxiliary vertices back to original arc ids (None for the two
    virtual endpoints).
    """

    graph: Digraph
    linear: tuple[Fraction, ...]
    source: int
    target: int
    arc_of_vertex: tuple[int | None, ...]


def build_auxiliary(inst: QsppInstance) -> AuxiliaryGraph:
    """Lift an adjacent instance so interaction costs become linear arc costs.

    Auxiliary arcs: virtual-source -> every arc leaving the source, every arc
    entering the target -> virtual-target, and e -> f whenever f continues e
    (tail of e = head of f) without closing a two-cycle (head of e != tail of
    f).  The cost of an auxiliary arc into f is c_f plus twice the
    interaction of the pair, the virtual-source arcs carry plain c_f, and the
    virtual-target arcs are free.
    """
    if not is_adjacent_qspp(inst):
        raise FamilyError("instance has interaction cost on a non-adjacent arc pair")
    g = inst.graph
    m = g.m
    rows = inst.interaction.rows
    aux_source, aux_target = 0, m + 1
    arcs: list[tuple[int, int]] = []
    costs: list[Fraction] = []
    for f in g.out_arcs(inst.source):
        arcs.append((aux_source, 1 + f))
        costs.append(inst.linear[f])
    for e in range(m):
        for f in g.out_arcs(g.arcs[e].tail):
            if not _adjacent(g, e, f):
                continue
            arcs.append((1 + e, 1 + f))
            costs.append(inst.linear[f] + 2 * rows[e][f])
    for e in g.in_arcs(inst.target):
        arcs.append((1 + e, aux_target))
        costs.append(0)
    graph = Digraph(m + 2, arcs)
    back = (None,) + tuple(range(m)) + (None,)
    return AuxiliaryGraph(graph, tuple(costs), aux_source, aux_target, back)


def solve_aqspp(inst: QsppInstance) -> tuple[Path, Fraction]:
    """Exact adjacent-QSPP optimum via the auxiliary shortest path.

    Hard precondition: the input graph is acyclic.  On cyclic graphs the
    auxiliary shortest route can correspond to a vertex-repeating walk, not a
    path, so the instance is refused (see make_cyclic_counterexample for a
    family where the auxiliary value undercuts the true optimum).
    """
    if not is_acyclic(inst.graph):
        raise CyclicGraphError(
            "the auxiliary-graph reduction requires an acyclic graph: on cyclic "
            "inputs its shortest route may be a vertex-repeating walk with cost "
            "below every true path"
        )
    aux = build_auxiliary(inst)
    aux_path, cost = spp_solve(
        SppInstance(aux.graph, aux.source, aux.target, aux.linear)
    )
    verts = [aux.graph.arcs[a].tail for a in aux_path.arcs[:-1]]
    original = Path(tuple(aux.arc_of_vertex[v] for v in verts))
    return original, cost


def make_cyclic_counterexample(epsilon: object) -> QsppInstance:
    """Five-vertex cyclic adjacent instance on which the reduction fails.

    Vertices 0..4 with arcs 0->1, 1->2, 2->3, 3->1, 1->4; the source is 0 and
    the target 4.  The only source-target path is (0, 1, 4) and costs 2, yet
    the auxiliary shortest route costs only ``epsilon`` because it may loop
    through the 1-2-3 cycle.  Requires 0 < epsilon < 1.
    """
    eps = as_rational(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    g = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    linear = [0] * 5
    linear[2] = eps
    interaction = InteractionMatrix.from_entries(5, {(0, 4): 1})
    return QsppInstance(g, 0, 4, tuple(linear), interaction)
