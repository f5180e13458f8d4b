"""Linearizability of QSPP instances on directed p-by-q grids.

The machinery rests on three facts about linear cost vectors on a grid with
source at the top-left and target at the bottom-right corner:

* Every linear vector has a reduced form with the same path costs,
  supported on the down arcs outside the last column plus the single
  top-left right arc, a set of (p-1)(q-1)+1 arcs.  It exists because
  redistributing cost around one interior vertex (zeroing its rightward
  outgoing arc, or the downward one in the last column) changes no path
  cost, and doing so deepest-first drives every other arc to zero.
* Vectors with equal path costs have the same reduced form, and the reduced
  form is pinned down by the costs of one critical path per support arc:
  in support-arc order, reduced entries and critical-path costs are related
  by a unit lower-triangular map.  _solve_reduced inverts it; both
  reduce_cost_vector and the pseudo-linearization are that solve.
* Solving for the reduced-form vector whose critical-path costs equal the
  instance's quadratic critical-path costs gives the pseudo-linearization:
  the instance is linearizable in the equality sense (sign-unrestricted)
  exactly when that vector reproduces every path cost.

linearize_grid decides the latter by the square-pair criterion.  For the
unit square S with top-left corner (i, j) let delta_S = e(down(i, j)) +
e(right(i+1, j)) - e(right(i, j)) - e(down(i, j+1)), the change in a path's
arc indicator when the path flips around S from its upper-right to its
lower-left side.  The instance is equality-linearizable exactly when
delta_S Q delta_S' = 0 for every unit square S' strictly above-left of S.
Proof: corner-to-corner paths correspond to the up-right-closed sets X of
unit squares (those above-right of the path), and a path's indicator is the
top path's (right along row 1, down column q) plus the sum of delta_S over S
in X.  Two comparable squares in X, one weakly above-right of the other,
contribute a term linear in X's indicator, since the lower-left one forces
the other into X.  So the
cost is an affine function of X plus 2 delta_S Q delta_S' over each
incomparable pair in X, that is, each S' strictly above-left of S.  If all
of these vanish, the cost is affine in X, hence linear in the arc indicator
(the delta_S are independent and all paths have p+q-2 arcs).  Conversely,
for an incomparable pair, let X be the up-right closure of S and S' without
S and S'; then X, X+S, X+S' and X+S+S' are all paths, and the second
difference of their costs is 2 delta_S Q delta_S', which a linear cost makes
zero.  There are about (pq)^2/4 such pairs, one four-by-four sum each.
_square_pair_rows yields their numbers one square S at a time, read from
GridShape.squares, where grid_shape lists each square's four arcs once
(the sweep's flips below read them there too); the criterion stops at the
first S with a nonzero one, so the check is linear in the size of Q.  On a
"yes" the pseudo-linearization is the linearization.

The criterion does not name a path, so on a "no" a sweep names the witness.
It visits the sub-grids of rows = p-1..2 rows and cols = 2..q-1 columns in
that order, and continues each sub-grid critical path to the corner (down
one arc, along the next row, down the last column).  Under the linear costs
c - pseudo, _critical_costs prices every continued path at its true cost
minus its pseudo-linearization price; the first nonzero gap, in support-arc
order, names the failing sub-target and its path is the witness.  No target
is shrunk.  The paper shrinks the target to each sub-target instead, and
since shrinking keeps path costs (shrink_target), the shrunk candidate's gap
on a sub-grid path is this gap on its continuation.  Sub-grids that span all
q columns, or a single column, need no check: there every continued path is
a critical path of the full grid, which the pseudo-linearization prices
exactly.  On two rows every path is a critical path, so there the
pseudo-linearization is a linearization (linearize_g2q), and p-by-2 grids
check no sub-grid at all; neither has an incomparable pair.

Cost: consecutive critical paths differ by one unit square, so
_critical_costs prices all of a sub-grid's in one walk over one arc list,
O(p+q) work per continued path.  A "yes" costs the criterion, linear in
the size of Q, plus the pseudo-linearization, O(pq(p+q)).  A "no" adds the
sweep up to its first failing sub-grid: at most p+q times the number of
sub-grid critical paths, O(p^3 q^2 + p^2 q^3) as in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, sub
from typing import Iterator, Sequence

from .errors import FamilyError, InternalError
from .graphs import Digraph, Path, detect_grid, is_acyclic, make_grid
from .model import QsppInstance, cost_of_arcs, linear_cost, rational_vector
from .pathmatrix import CostMismatch, LinearizationResult


@dataclass(frozen=True)
class GridShape:
    """Arc-id tables of a row-major directed grid, built by grid_shape alone.
    squares[i-1] lists each unit square (i, j), j = 1..q-1, as its arcs in
    delta_S's sign pattern, down(i, j), right(i+1, j), right(i, j) and
    down(i, j+1); _square_pair_rows and _critical_costs' flips read it."""

    p: int
    q: int
    down: dict[tuple[int, int], int]
    right: dict[tuple[int, int], int]
    squares: tuple[tuple[int, ...], ...]


def grid_shape(g: Digraph) -> GridShape:
    """Classify the arcs of a row-major grid; raises FamilyError otherwise."""
    dims = detect_grid(g)
    if dims is None:
        raise FamilyError("graph is not a row-major directed grid")
    p, q = dims
    down: dict[tuple[int, int], int] = {}
    right: dict[tuple[int, int], int] = {}
    for arc_id, arc in enumerate(g.arcs):
        i, j = divmod(arc.head, q)
        (down if arc.tail == arc.head + q else right)[(i + 1, j + 1)] = arc_id
    squares = tuple(
        tuple(
            a
            for j in range(1, q)
            for a in (down[(i, j)], right[(i + 1, j)], right[(i, j)], down[(i, j + 1)])
        )
        for i in range(1, p)
    )
    return GridShape(p, q, down, right, squares)


def _corner_shape(inst: QsppInstance) -> GridShape:
    """grid_shape of a corner-to-corner instance; raises FamilyError otherwise."""
    shape = grid_shape(inst.graph)
    if inst.source != 0 or inst.target != shape.p * shape.q - 1:
        raise FamilyError("grid operations expect the top-left source and bottom-right target")
    return shape


# ---- critical paths and their costs -------------------------------------


def _support(shape: GridShape, rows: int, cols: int) -> Iterator[tuple[int, int, int]]:
    """Reduced-form support of the rows-by-cols sub-grid in solve order, as
    (arc, i, j): the top-left right arc as (1, cols), then down(i, j) row by
    row; _critical_path_arcs(shape, rows, cols, i, j) is its path."""
    yield shape.right[(1, 1)], 1, cols
    for i in range(1, rows):
        for j in range(1, cols):
            yield shape.down[(i, j)], i, j


def _critical_path_arcs(shape: GridShape, rows: int, cols: int, i: int, j: int) -> list[int]:
    """Arc sequence of the rows-by-cols sub-grid's critical path through
    down(i, j), continued to the corner: down column 1 to row i, along row
    i to column j, down one arc, along row i+1 to column cols, down column
    cols to row R = min(rows+1, p), along row R to column q, down column q.
    With (i, j) = (1, cols) it is the top path, the top-left right arc's.
    On the full grid (rows = p, cols = q) the last two legs are empty."""
    last = min(rows + 1, shape.p)
    path = [shape.down[(k, 1)] for k in range(1, i)]
    path.extend(shape.right[(i, b)] for b in range(1, j))
    path.append(shape.down[(i, j)])
    path.extend(shape.right[(i + 1, b)] for b in range(j, cols))
    path.extend(shape.down[(k, cols)] for k in range(i + 1, last))
    path.extend(shape.right[(last, b)] for b in range(cols, shape.q))
    path.extend(shape.down[(k, shape.q)] for k in range(last, shape.p))
    return path


def critical_paths(p: int, q: int) -> dict[int, Path]:
    """The (p-1)(q-1)+1 critical paths of the p-by-q grid, keyed by the
    support arc each one pins down (ids follow make_grid's numbering)."""
    shape = grid_shape(make_grid(p, q))
    return {
        a: Path(tuple(_critical_path_arcs(shape, p, q, i, j)))
        for a, i, j in _support(shape, p, q)
    }


def _critical_costs(
    inst: QsppInstance,
    shape: GridShape,
    rows: int,
    cols: int,
    linear: Sequence[Fraction],
) -> dict[int, Fraction]:
    """Cost of every critical path of the sub-grid (at least two rows and
    two columns), continued to the corner when rows < p, keyed by its
    support arc, under the instance's interactions and ``linear``.

    After the top path, each step of the walk down(i, j), i = 1..rows-1,
    j = cols-1..1, flips unit square (i, j) of shape.squares: right(i, j),
    down(i, j+1) at list positions i+j-2 and i+j-1 become down(i, j),
    right(i+1, j).  With a symmetric matrix, the cost moves by the linear
    difference plus twice what the new pair adds to the rest of the path
    (and to each other) minus what the old pair did.  The continuation past
    the sub-grid never flips.
    """
    row = inst.interaction.row
    arcs = _critical_path_arcs(shape, rows, cols, 1, cols)
    cost = sum(linear[a] + sum(map(row(a).__getitem__, arcs)) for a in arcs)
    costs = {shape.right[(1, 1)]: cost}
    for i, squares in enumerate(shape.squares[: rows - 1], 1):
        for j in range(cols - 1, 0, -1):
            s = i + j - 2
            b1, b2, a1, a2 = squares[4 * j - 4 : 4 * j]
            old1, old2, new1, new2 = map(row, (a1, a2, b1, b2))
            shared = sum(
                new1[k] + new2[k] - old1[k] - old2[k] for k in arcs[:s] + arcs[s + 2 :]
            )
            cost += linear[b1] + linear[b2] - linear[a1] - linear[a2]
            cost += 2 * (new1[b2] - old1[a2] + shared)
            arcs[s], arcs[s + 1] = b1, b2
            costs[b1] = cost
    return costs


# ---- reduced form -------------------------------------------------------


def _solve_reduced(shape: GridShape, gamma: dict[int, Fraction]) -> list[Fraction]:
    """Unique reduced-form vector whose critical-path costs are ``gamma``
    (keyed by support arc): a unit lower-triangular solve in support order.
    The top path carries only the top-left right arc; the path through
    down(i, j) carries down(1..i-1, 1), whose sum is ``prefix``, and the
    top-left right arc too when i == 1 < j."""
    vec = [0] * (len(shape.down) + len(shape.right))
    top = shape.right[(1, 1)]
    vec[top] = gamma[top]
    prefix = 0
    for i in range(1, shape.p):
        for j in range(1, shape.q):
            e = shape.down[(i, j)]
            vec[e] = gamma[e] - prefix - (vec[top] if i == 1 < j else 0)
        prefix += vec[shape.down[(i, 1)]]
    return vec


def reduce_cost_vector(g: Digraph, costs: Sequence[object]) -> tuple[Fraction, ...]:
    """Reduced form of a linear cost vector on a full grid.

    The result vanishes outside the support set (down arcs off the last
    column plus the top-left right arc) and has the same cost as ``costs``
    on every corner-to-corner path: it is solved from the costs of the
    critical paths under ``costs``.
    """
    shape = grid_shape(g)
    vec = rational_vector(costs)
    if len(vec) != g.m:
        raise ValueError("cost vector length must equal the arc count")
    gamma = {
        arc: sum(vec[a] for a in _critical_path_arcs(shape, shape.p, shape.q, i, j))
        for arc, i, j in _support(shape, shape.p, shape.q)
    }
    return rational_vector(_solve_reduced(shape, gamma))


def _pseudo_vector(inst: QsppInstance, shape: GridShape) -> list[Fraction]:
    """Unique reduced-form vector reproducing the full grid's critical-path
    costs."""
    return _solve_reduced(
        shape, _critical_costs(inst, shape, shape.p, shape.q, inst.linear)
    )


def pseudo_linearize(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Reduced-form vector matching the instance's critical-path costs.

    It is a linearization exactly when the instance is linearizable in the
    equality sense; computing it never requires linearizability.
    """
    return rational_vector(_pseudo_vector(inst, _corner_shape(inst)))


# ---- target shrinking ----------------------------------------------------


def shrink_target(
    vector: Sequence[object], inst: QsppInstance, v: int
) -> tuple[Fraction, ...]:
    """Rewrite a candidate linearization when the target moves to ``v``.

    ``v`` must be a vertex of the graph and a predecessor of the current
    target, and the graph must be acyclic.
    Every arc loses twice its interaction with the dropped bridge arc
    (v, target), and arcs leaving the source absorb the bridge's entry in
    the vector less its linear cost: a path to v, extended by the bridge,
    costs the bridge's linear cost and twice its interactions more.
    """
    g = inst.graph
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside the vertex range")
    if not is_acyclic(g):
        raise FamilyError("target shrinking is defined on acyclic graphs")
    bridges = [a for a in g.out_arcs(v) if g.arcs[a].tail == inst.target]
    if not bridges:
        raise FamilyError(f"no arc from {v} to the target {inst.target}")
    vec = list(rational_vector(vector))
    if len(vec) != g.m:
        raise ValueError("vector length must equal the arc count")
    bridge = bridges[0]
    out = [v - 2 * w for v, w in zip(vec, inst.interaction.row(bridge))]
    for e in g.out_arcs(inst.source):
        out[e] += vec[bridge] - inst.linear[bridge]
    return rational_vector(out)


def linearize_g2q(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Linearization vector for an instance on a two-row grid (always exists).

    Every path of a two-row grid is a critical path, so the
    pseudo-linearization reproduces all of them: the cost of the path down
    column k lands on that down arc (shifted by the last path's cost for
    1 < k < q), the last path's cost on the top-left right arc.
    """
    if grid_shape(inst.graph).p != 2:
        raise FamilyError("this construction needs exactly two rows")
    return pseudo_linearize(inst)


# ---- the full decision procedure -----------------------------------------


def _square_pair_rows(inst: QsppInstance, shape: GridShape) -> Iterator[tuple[int, int, list]]:
    """For each unit square S = (i, j), 2 <= i <= p-1 and 2 <= j <= q-1, row
    by row, yield (i, j, row): row holds delta_S Q delta_S' for every unit
    square S' = (a, b) strictly above-left of S (a < i, b < j), row-major."""
    row, squares = inst.interaction.row, shape.squares
    for i in range(2, shape.p):
        for j in range(2, shape.q):
            # (delta_S Q)[b] for the arcs b of the squares above-left of S
            above_left = itemgetter(*chain.from_iterable(r[: 4 * j - 4] for r in squares[: i - 1]))
            a1, a2, b1, b2 = (above_left(row(a)) for a in squares[i - 1][4 * j - 4 : 4 * j])
            w = list(map(sub, map(add, a1, a2), map(add, b1, b2)))
            yield i, j, list(map(sub, map(add, w[0::4], w[1::4]), map(add, w[2::4], w[3::4])))


def linearize_grid(inst: QsppInstance) -> LinearizationResult:
    """Decide equality-sense linearizability of a grid instance.

    On success the returned vector is the reduced-form linearization of the
    instance as given (it may carry negative entries; feed the path matrix
    to lp_oracle with nonnegativity if the signed notion matters).  On
    failure, once the square-pair criterion has said no, the witness is the
    first sub-grid critical path, continued to the corner, whose true cost
    the pseudo-linearization misses.
    """
    shape = _corner_shape(inst)
    p, q = shape.p, shape.q
    pseudo_full = _pseudo_vector(inst, shape)
    if not any(any(r) for _, _, r in _square_pair_rows(inst, shape)):
        return LinearizationResult(True, vector=rational_vector(pseudo_full))
    # not linearizable: the sweep names the witness.  Under these linear
    # costs a path costs its true cost minus its pseudo-linearization price.
    gap_linear = [c - v for c, v in zip(inst.linear, pseudo_full)]
    for rows in range(p - 1, 1, -1):
        for cols in range(2, q):
            gaps = _critical_costs(inst, shape, rows, cols, gap_linear)
            failing = next(((i, j) for a, i, j in _support(shape, rows, cols) if gaps[a]), None)
            if failing is not None:
                path = Path(tuple(_critical_path_arcs(shape, rows, cols, *failing)))
                expected = cost_of_arcs(inst, path.arcs)
                got = linear_cost(pseudo_full, path)
                if expected == got:
                    raise InternalError("witness construction must exhibit a disagreement")
                return LinearizationResult(
                    False,
                    witness=CostMismatch(path, expected, got),
                    note=f"candidate disagrees below sub-target ({rows},{cols})",
                )
    raise InternalError("the sweep found no mismatch on a grid the square-pair criterion rejects")
