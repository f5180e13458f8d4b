"""Linearizability of QSPP instances on directed p-by-q grids.

The machinery rests on three facts about linear cost vectors on a grid with
source at the top-left and target at the bottom-right corner:

* Redistributing costs around one interior vertex (zeroing its rightward
  outgoing arc, or the downward one in the last column) never changes any
  path cost.  Sweeping all interior vertices deepest-first drives every such
  arc to zero; what remains, the reduced form, is supported on the down arcs
  outside the last column plus the single top-left right arc, a set of
  (p-1)(q-1)+1 arcs.
* Vectors with equal path costs have the same reduced form, and the reduced
  form is pinned down by the costs of one critical path per support arc.
* Solving for the reduced-form vector whose critical-path costs equal the
  instance's quadratic critical-path costs gives the pseudo-linearization:
  the instance is linearizable in the equality sense (sign-unrestricted)
  exactly when that vector reproduces every path cost.

linearize_grid decides the latter without enumerating paths: it sweeps the
target up and left (shrink_target), reducing the shrunken candidate on each
sub-grid and comparing it against the independently computed
pseudo-linearization of the sub-instance; the 2-row base case has an
explicit always-valid construction (linearize_g2q).  Total work is
polynomial, roughly (p+q) times the number of sub-grid critical paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import FamilyError, InternalError
from .graphs import Digraph, Path, detect_grid, is_acyclic, make_grid
from .model import (
    QsppInstance,
    cost_of_arcs,
    linear_cost,
    rational_vector,
    require_symmetric_interaction,
)
from .pathmatrix import CostMismatch, LinearizationResult


@dataclass(frozen=True)
class GridShape:
    """Arc-id lookup tables for a row-major directed grid."""

    p: int
    q: int
    down: dict[tuple[int, int], int]
    right: dict[tuple[int, int], int]

    def vertex(self, i: int, j: int) -> int:
        return (i - 1) * self.q + (j - 1)


def grid_shape(g: Digraph) -> GridShape:
    """Classify the arcs of a row-major grid; raises FamilyError otherwise."""
    dims = detect_grid(g)
    if dims is None:
        raise FamilyError("graph is not a row-major directed grid")
    return _classify(*dims, g)


def _classify(p: int, q: int, g: Digraph) -> GridShape:
    down: dict[tuple[int, int], int] = {}
    right: dict[tuple[int, int], int] = {}
    for arc_id, arc in enumerate(g.arcs):
        i, j = divmod(arc.head, q)
        if arc.tail == arc.head + q:
            down[(i + 1, j + 1)] = arc_id
        else:
            right[(i + 1, j + 1)] = arc_id
    return GridShape(p, q, down, right)


def _require_corner_instance(inst: QsppInstance, shape: GridShape) -> None:
    if inst.source != 0 or inst.target != shape.p * shape.q - 1:
        raise FamilyError(
            "grid operations expect the top-left source and bottom-right target"
        )


# ---- reduced form -------------------------------------------------------


def _reduce_in_place(
    shape: GridShape,
    rows: int,
    cols: int,
    vec: list[Fraction],
    descending_ties: bool = False,
) -> None:
    """Drive the redistributable arcs of the top-left rows-by-cols sub-grid
    to zero, deepest vertices first.

    Vertices of equal depth are processed in increasing column order by
    default; ``descending_ties`` flips that (the outcome is identical, which
    the test suite checks).
    """
    for depth in range(rows + cols - 1, 2, -1):
        cells = [
            (i, depth - i)
            for i in range(max(1, depth - cols), min(rows, depth - 1) + 1)
        ]
        cells.sort(key=lambda ij: ij[1], reverse=descending_ties)
        for i, j in cells:
            if (i, j) == (1, 1) or (i, j) == (rows, cols):
                continue
            if j <= cols - 1:
                f = shape.right[(i, j)]
            else:
                f = shape.down[(i, j)]
            weight = vec[f]
            if not weight:
                continue
            vec[f] = 0
            if i >= 2:
                vec[shape.down[(i - 1, j)]] += weight
            if j >= 2:
                vec[shape.right[(i, j - 1)]] += weight
            if i <= rows - 1:
                down = shape.down[(i, j)]
                if down != f:
                    vec[down] -= weight
            if j <= cols - 1:
                right = shape.right[(i, j)]
                if right != f:
                    vec[right] -= weight


def _restricted(shape: GridShape, rows: int, cols: int, vec: Sequence[Fraction]) -> list[Fraction]:
    """Copy of ``vec`` with everything outside the sub-grid zeroed."""
    out = [0] * len(vec)
    for (i, j), arc in shape.down.items():
        if i <= rows - 1 and j <= cols:
            out[arc] = vec[arc]
    for (i, j), arc in shape.right.items():
        if i <= rows and j <= cols - 1:
            out[arc] = vec[arc]
    return out


def _reduced(
    shape: GridShape, rows: int, cols: int, vec: Sequence[Fraction]
) -> list[Fraction]:
    out = _restricted(shape, rows, cols, vec)
    _reduce_in_place(shape, rows, cols, out)
    return out


def reduce_cost_vector(
    g: Digraph, costs: Sequence[object], *, descending_ties: bool = False
) -> tuple[Fraction, ...]:
    """Reduced form of a linear cost vector on a full grid.

    The result vanishes outside the support set (down arcs off the last
    column plus the top-left right arc) and has the same cost as ``costs``
    on every corner-to-corner path.
    """
    shape = grid_shape(g)
    vec = list(rational_vector(costs))
    if len(vec) != g.m:
        raise ValueError("cost vector length must equal the arc count")
    _reduce_in_place(shape, shape.p, shape.q, vec, descending_ties)
    return tuple(vec)


# ---- critical paths and their costs -------------------------------------


def _support_arcs(shape: GridShape, rows: int, cols: int) -> list[int]:
    """Reduced-form support of the rows-by-cols sub-grid, in solve order."""
    if cols == 1:
        return [shape.down[(1, 1)]]
    order = [shape.right[(1, 1)]]
    for i in range(1, rows):
        order.extend(shape.down[(i, j)] for j in range(1, cols))
    return order


def _critical_path_arcs(
    shape: GridShape, rows: int, cols: int, i: int | None, j: int | None
) -> list[int]:
    """Arc sequence of the critical path for support arc down(i, j); pass
    i = j = None for the top-left right arc's path."""
    if cols == 1:
        return [shape.down[(k, 1)] for k in range(1, rows)]
    if i is None:
        path = [shape.right[(1, b)] for b in range(1, cols)]
        path.extend(shape.down[(k, cols)] for k in range(1, rows))
        return path
    path = [shape.down[(k, 1)] for k in range(1, i)]
    path.extend(shape.right[(i, b)] for b in range(1, j))
    path.append(shape.down[(i, j)])
    path.extend(shape.right[(i + 1, b)] for b in range(j, cols))
    path.extend(shape.down[(k, cols)] for k in range(i + 1, rows))
    return path


def critical_paths(p: int, q: int) -> dict[int, Path]:
    """The (p-1)(q-1)+1 critical paths of the p-by-q grid, keyed by the
    support arc each one pins down (ids follow make_grid's numbering)."""
    shape = _classify(p, q, make_grid(p, q))
    out: dict[int, Path] = {}
    out[shape.right[(1, 1)]] = Path(tuple(_critical_path_arcs(shape, p, q, None, None)))
    for i in range(1, p):
        for j in range(1, q):
            out[shape.down[(i, j)]] = Path(
                tuple(_critical_path_arcs(shape, p, q, i, j))
            )
    return out


def _updated_cost(
    inst: QsppInstance,
    prev_cost: Fraction,
    prev_arcs: set[int],
    new_arcs: list[int],
) -> Fraction:
    """Cost of the new path from the previous one, touching only the
    symmetric difference (the consecutive critical paths differ in two arcs)."""
    rows = inst.interaction.rows
    linear = inst.linear
    new_set = set(new_arcs)
    common = prev_arcs & new_set

    def share(arcs: list[int]) -> Fraction:
        """What ``arcs`` add to a path that already holds ``common``."""
        total = 0
        for idx, a in enumerate(arcs):
            row = rows[a]
            total += linear[a]
            for k in common:
                total += row[k] + rows[k][a]
            for b in arcs[idx + 1 :]:
                total += row[b] + rows[b][a]
        return total

    return prev_cost - share(list(prev_arcs - new_set)) + share(list(new_set - prev_arcs))


def _critical_costs(
    inst: QsppInstance, shape: GridShape, rows: int, cols: int
) -> dict[int, Fraction]:
    """Quadratic-plus-linear cost of every critical path of the sub-grid.

    The first path is priced directly; each following one reuses the
    previous cost through the two-arc difference, which keeps the whole
    sweep at one cheap update per path.
    """
    arcs = _critical_path_arcs(shape, rows, cols, None, None)
    cost = cost_of_arcs(inst, arcs)
    if cols == 1:
        return {shape.down[(1, 1)]: cost}
    costs = {shape.right[(1, 1)]: cost}
    prev = set(arcs)
    for i in range(1, rows):
        for j in range(cols - 1, 0, -1):
            arcs = _critical_path_arcs(shape, rows, cols, i, j)
            cost = _updated_cost(inst, cost, prev, arcs)
            costs[shape.down[(i, j)]] = cost
            prev = set(arcs)
    return costs


def _solve_reduced(
    shape: GridShape, rows: int, cols: int, gamma: dict[int, Fraction]
) -> dict[int, Fraction]:
    """Unique reduced-form entries reproducing the critical-path costs."""
    out: dict[int, Fraction] = {}
    if cols == 1:
        first = shape.down[(1, 1)]
        out[first] = gamma[first]
        return out
    top = shape.right[(1, 1)]
    out[top] = gamma[top]
    for j in range(1, cols):
        e = shape.down[(1, j)]
        out[e] = gamma[e] - (out[top] if j >= 2 else 0)
    prefix = out[shape.down[(1, 1)]]
    for i in range(2, rows):
        for j in range(1, cols):
            e = shape.down[(i, j)]
            out[e] = gamma[e] - prefix
        prefix += out[shape.down[(i, 1)]]
    return out


def _pseudo_vector(
    inst: QsppInstance, shape: GridShape, rows: int, cols: int
) -> list[Fraction]:
    gamma = _critical_costs(inst, shape, rows, cols)
    entries = _solve_reduced(shape, rows, cols, gamma)
    vec = [0] * inst.graph.m
    for arc, value in entries.items():
        vec[arc] = value
    return vec


def pseudo_linearize(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Reduced-form vector matching the instance's critical-path costs.

    It is a linearization exactly when the instance is linearizable in the
    equality sense; computing it never requires linearizability.
    """
    shape = grid_shape(inst.graph)
    _require_corner_instance(inst, shape)
    require_symmetric_interaction(inst, "pseudo-linearization")
    return tuple(_pseudo_vector(inst, shape, shape.p, shape.q))


# ---- target shrinking ----------------------------------------------------


def _shrink(
    vec: Sequence[Fraction],
    inst: QsppInstance,
    bridge_arc: int,
) -> list[Fraction]:
    link = vec[bridge_arc]
    row = inst.interaction.rows[bridge_arc]
    arcs = inst.graph.arcs
    source = inst.source
    out = []
    for e in range(len(vec)):
        value = vec[e] - 2 * row[e]
        if arcs[e].head == source:
            value += link
        out.append(value)
    return out


def shrink_target(
    vector: Sequence[object], inst: QsppInstance, v: int
) -> tuple[Fraction, ...]:
    """Rewrite a candidate linearization when the target moves to ``v``.

    ``v`` must be a predecessor of the current target in an acyclic graph.
    Every arc loses twice its interaction with the dropped bridge arc
    (v, target), and arcs leaving the source absorb the bridge's own cost.
    The instance's linear costs are assumed to be zero (shift them first).
    """
    g = inst.graph
    if not is_acyclic(g):
        raise FamilyError("target shrinking is defined on acyclic graphs")
    bridges = [a for a in g.out_arcs(v) if g.arcs[a].tail == inst.target]
    if not bridges:
        raise FamilyError(f"no arc from {v} to the target {inst.target}")
    vec = list(rational_vector(vector))
    if len(vec) != g.m:
        raise ValueError("vector length must equal the arc count")
    return tuple(_shrink(vec, inst, bridges[0]))


# ---- two-row base case ---------------------------------------------------


def _g2q_entries(
    inst: QsppInstance, shape: GridShape, cols: int
) -> dict[int, Fraction]:
    """Explicit linearization of a two-row sub-grid, in reduced form.

    Path k is the unique one using the column-k down arc; its cost lands on
    that arc (shifted by the last path's cost), the last path's cost lands
    on the top-left right arc.
    """
    def column_path(k: int) -> list[int]:
        arcs = [shape.right[(1, b)] for b in range(1, k)]
        arcs.append(shape.down[(1, k)])
        arcs.extend(shape.right[(2, b)] for b in range(k, cols))
        return arcs

    path_costs = [cost_of_arcs(inst, column_path(k)) for k in range(1, cols + 1)]
    entries: dict[int, Fraction] = {}
    entries[shape.down[(1, 1)]] = path_costs[0]
    for k in range(2, cols):
        entries[shape.down[(1, k)]] = path_costs[k - 1] - path_costs[-1]
    entries[shape.right[(1, 1)]] = path_costs[-1]
    return entries


def linearize_g2q(inst: QsppInstance) -> tuple[Fraction, ...]:
    """Linearization vector for an instance on a two-row grid (always exists)."""
    shape = grid_shape(inst.graph)
    if shape.p != 2:
        raise FamilyError("this construction needs exactly two rows")
    _require_corner_instance(inst, shape)
    require_symmetric_interaction(inst, "the two-row construction")
    vec = [0] * inst.graph.m
    for arc, value in _g2q_entries(inst, shape, shape.q).items():
        vec[arc] = value
    return tuple(vec)


# ---- the full decision procedure -----------------------------------------


def _first_mismatch(
    order: list[int], left: Sequence[Fraction], right: Sequence[Fraction]
) -> int | None:
    for arc in order:
        if left[arc] != right[arc]:
            return arc
    return None


def _witness_path(
    shape: GridShape, rows: int, cols: int, sub_arcs: list[int]
) -> Path:
    """Extend a sub-grid critical path to the full corner-to-corner path
    whose cost the failed candidate gets wrong."""
    arcs = list(sub_arcs)
    if (rows, cols) != (shape.p, shape.q):
        arcs.append(shape.down[(rows, cols)])
        arcs.extend(shape.right[(rows + 1, b)] for b in range(cols, shape.q))
        arcs.extend(shape.down[(k, shape.q)] for k in range(rows + 1, shape.p))
    return Path(tuple(arcs))


def _mismatch_result(
    inst: QsppInstance,
    candidate: Sequence[Fraction],
    shape: GridShape,
    rows: int,
    cols: int,
    arc: int,
    note: str,
) -> LinearizationResult:
    head, tail = inst.graph.arcs[arc]
    if cols == 1 or tail != head + shape.q:
        sub = _critical_path_arcs(shape, rows, cols, None, None)
    else:
        i, j = divmod(head, shape.q)
        sub = _critical_path_arcs(shape, rows, cols, i + 1, j + 1)
    path = _witness_path(shape, rows, cols, sub)
    expected = cost_of_arcs(inst, path.arcs)
    got = linear_cost(candidate, path)
    if expected == got:
        raise InternalError("witness construction must exhibit a disagreement")
    return LinearizationResult(
        False,
        witness=CostMismatch(path, expected, got),
        note=note,
    )


def linearize_grid(inst: QsppInstance) -> LinearizationResult:
    """Decide equality-sense linearizability of a grid instance.

    On success the returned vector is the reduced-form linearization of the
    instance as given (it may carry negative entries; feed the path matrix
    to lp_oracle with nonnegativity if the signed notion matters).  On
    failure the witness is a concrete corner-to-corner path whose true cost
    the forced candidate misses.

    Nonzero linear costs are handled by deciding the shifted zero-linear
    instance, which has the same verdict.
    """
    shape = grid_shape(inst.graph)
    _require_corner_instance(inst, shape)
    require_symmetric_interaction(inst, "the grid decision procedure")
    p, q = shape.p, shape.q
    zero = QsppInstance(
        inst.graph,
        inst.source,
        inst.target,
        (0,) * inst.graph.m,
        inst.interaction,
    )
    candidate = _pseudo_vector(zero, shape, p, q)
    # The pseudo-vector is linear in (c, Q), so the instance's own one is the
    # zero-linear candidate plus the reduced form of c.
    reduced_linear = list(inst.linear)
    _reduce_in_place(shape, p, q, reduced_linear)
    pseudo_full = [a + b for a, b in zip(candidate, reduced_linear)]
    for r in range(p, 2, -1):
        row_candidate = candidate
        lifted: dict[int, list[Fraction]] = {}
        for j in range(q, 0, -1):
            lifted[j] = _shrink(row_candidate, zero, shape.down[(r - 1, j)])
            if j > 1:
                row_candidate = _shrink(row_candidate, zero, shape.right[(r, j - 1)])
        for j in range(1, q):
            reduced = _reduced(shape, r - 1, j, lifted[j])
            pseudo_sub = _pseudo_vector(zero, shape, r - 1, j)
            arc = _first_mismatch(_support_arcs(shape, r - 1, j), reduced, pseudo_sub)
            if arc is not None:
                return _mismatch_result(
                    inst,
                    pseudo_full,
                    shape,
                    r - 1,
                    j,
                    arc,
                    note=f"candidate disagrees below sub-target ({r - 1},{j})",
                )
        candidate = _reduced(shape, r - 1, q, lifted[q])
    base = [0] * inst.graph.m
    for arc, value in _g2q_entries(zero, shape, q).items():
        base[arc] = value
    arc = _first_mismatch(_support_arcs(shape, 2, q), candidate, base)
    if arc is not None:
        return _mismatch_result(
            inst,
            pseudo_full,
            shape,
            2,
            q,
            arc,
            note="candidate disagrees on the two-row base case",
        )
    return LinearizationResult(True, vector=tuple(pseudo_full))
