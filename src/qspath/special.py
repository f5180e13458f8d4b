"""Recognizers and polynomial solvers for structured interaction matrices.

Covers four situations in which the quadratic objective collapses to a
linear one: weak-sum interaction matrices on equal-path-length graphs,
rank-one product matrices, directed cycles (a single path carries all the
cost), and the equal-length detection that the first case needs.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import CyclicGraphError, FamilyError, NoPathError
from .graphs import Digraph, Path, check_endpoints, iter_st_paths, reachable, topological_order
from .model import (
    InteractionMatrix,
    QsppInstance,
    SppInstance,
    _relax,
    as_rational,
    cost_of_arcs,
    rational_vector,
    spp_solve,
)


def detect_weak_sum(q: InteractionMatrix) -> tuple[Fraction, ...] | None:
    """Generator vector a with q[e][f] = a[e] + a[f] for all e != f, or None.

    Every matrix of order <= 2 qualifies; the canonical witness splits the
    single off-diagonal entry evenly.  From order 3 on the first three
    entries of the first row fix a, and the cells above the diagonal are
    checked against it (the matrix is symmetric by construction).
    """
    m = q.m
    if m == 0:
        return ()
    if m == 1:
        return (0,)
    first = q.row(0)
    if m == 2:
        half = as_rational(Fraction(first[1], 2))
        return (half, half)
    a0 = as_rational(Fraction(first[1] + first[2] - q.row(1)[2], 2))
    witness = rational_vector([a0] + [first[f] - a0 for f in range(1, m)])
    for e, w in enumerate(witness):
        if q.row(e)[e + 1 :] != tuple(w + v for v in witness[e + 1 :]):
            return None
    return witness


def all_paths_equal_length(g: Digraph, source: int, target: int) -> int | None:
    """Common arc count of every source-target path, or None if they differ.

    Every source-target path lives in the subgraph induced by the vertices
    that are both reachable from the source and able to reach the target, so
    only that subgraph matters: it must be acyclic (cycles elsewhere are
    fine).  Raises NoPathError when the target is unreachable.
    """
    check_endpoints(g, source, target)
    reach_s = reachable(g, source, forward=True)
    reach_t = reachable(g, target, forward=False)
    if not reach_s[target]:
        raise NoPathError(f"no path from {source} to {target}")
    on_route = [reach_s[v] and reach_t[v] for v in range(g.n)]
    order = topological_order(g, within=on_route)
    if order is None:
        raise CyclicGraphError(
            "equal-length detection needs the set of vertices on source-target "
            "routes to induce an acyclic subgraph"
        )
    _, shortest = _relax(g, source, target, (1,) * g.m, order)
    _, longest = _relax(g, source, target, (-1,) * g.m, order)
    return shortest if shortest == -longest else None


def linearize_weak_sum(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Equivalent linear costs 2(L-1)*a + c for a weak-sum instance.

    Requires a weak-sum interaction matrix and a graph whose source-target
    paths all share one length L; the result reproduces every path cost.
    """
    witness = detect_weak_sum(inst.interaction)
    if witness is None:
        raise FamilyError("interaction matrix is not a symmetric weak-sum matrix")
    length = all_paths_equal_length(inst.graph, inst.source, inst.target)
    if length is None:
        raise FamilyError("source-target paths do not all have the same length")
    factor = 2 * (length - 1)
    return rational_vector(factor * a + c for a, c in zip(witness, inst.linear))


def _rational_sqrt(value: Fraction) -> int | Fraction | None:
    """Exact square root of a nonnegative value, or None when irrational."""
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return as_rational(Fraction(rn, rd))


def _product_factor(
    q: InteractionMatrix, linear: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """The rational a >= 0 with Q + Diag(c) = a*a^T; raises FamilyError when
    there is none."""
    m = q.m
    # Q has a zero diagonal, so the diagonal of Q + Diag(c) is c
    if len(linear) == m and all(c >= 0 for c in linear):
        factor = tuple(map(_rational_sqrt, linear))
        if None not in factor and all(
            q.row(e)[e + 1 :] == tuple(a * b for b in factor[e + 1 :])
            for e, a in enumerate(factor)
        ):
            return factor
    raise FamilyError(
        "interaction-plus-diagonal matrix is not a rank-one product with a nonnegative "
        "rational factor (a factor with a negative or irrational entry is refused)"
    )


def detect_product(
    q: InteractionMatrix, linear: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Nonnegative rational vector a with Q + Diag(c) = a*a^T, or None.

    Only rational factorizations are accepted: every diagonal entry of
    Q + Diag(c) must be the square of a rational.
    """
    try:
        return _product_factor(q, linear)
    except FamilyError:
        return None


def solve_product_case(inst: QsppInstance) -> tuple[Path, Fraction]:
    """Optimum of a rank-one instance: shortest path under the factor weights.

    The optimal path cost is the square of its factor-weight sum.
    """
    factor = _product_factor(inst.interaction, inst.linear)
    path, weight = spp_solve(
        SppInstance(inst.graph, inst.source, inst.target, factor)
    )
    return path, weight * weight


def linearize_directed_cycle(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Concentrate the unique path's full cost on its first arc, zero elsewhere."""
    g = inst.graph
    if g.m != g.n:
        raise FamilyError("a directed cycle has exactly as many arcs as vertices")
    for v in range(g.n):
        if len(g.out_arcs(v)) != 1 or len(g.in_arcs(v)) != 1:
            raise FamilyError("every cycle vertex needs out-degree and in-degree one")
    if not all(reachable(g, 0, forward=True)):
        raise FamilyError("graph is not a single directed cycle")
    (path,) = iter_st_paths(g, inst.source, inst.target)
    result = [0] * g.m
    result[path.arcs[0]] = cost_of_arcs(inst, path.arcs)
    return tuple(result)
