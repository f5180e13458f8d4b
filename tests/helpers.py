"""Independent oracles and checks for the test suite.

Oracles here deliberately recompute things by the most naive route available
(explicit double loops, full enumeration) so they stay independent of the
library code paths they check.  The seeded instances the tests share are
drawn in zoo.py.
"""
from __future__ import annotations

import gc
import random
import tracemalloc
from fractions import Fraction

from qspath import Digraph, Path, QsppInstance, enumerate_st_paths, lp_oracle, path_cost


def traced_peak(run) -> int:
    """The peak of memory traced while run() runs, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parallel_arcs_text(m: int) -> str:
    """An instance file of m parallel arcs 0 -> 1 and an empty sparse Q."""
    arcs = "".join(f"arc {a} 0 1\n" for a in range(m))
    return f"QSPP 1\nn 2\nm {m}\ns 0\nt 1\n{arcs}c\n{'0 ' * m}\nQ sparse 0\n"


def arc_index(g: Digraph) -> dict[tuple[int, int], int]:
    return {(a.head, a.tail): i for i, a in enumerate(g.arcs)}


def path_by_vertices(g: Digraph, verts: tuple[int, ...]) -> Path:
    lookup = arc_index(g)
    return Path(tuple(lookup[(verts[i], verts[i + 1])] for i in range(len(verts) - 1)))


def quadratic_form_cost(inst: QsppInstance, path: Path) -> Fraction:
    """Path cost via the characteristic vector: x^T Q x + c^T x."""
    m = inst.graph.m
    x = [0] * m
    for a in path.arcs:
        x[a] = 1
    rows = inst.interaction.rows
    total = Fraction(0)
    for e in range(m):
        for f in range(m):
            total += rows[e][f] * x[e] * x[f]
    for e in range(m):
        total += inst.linear[e] * x[e]
    return total


def double_loop_cost(inst: QsppInstance, path: Path) -> Fraction:
    """Path cost via the ordered arc-pair double loop."""
    arcs = path.arcs
    total = Fraction(0)
    for e in arcs:
        total += inst.linear[e]
        for f in arcs:
            if e != f:
                total += inst.interaction.rows[e][f]
    return total


def naive_st_paths(g: Digraph, source: int, target: int) -> list[Path]:
    """Every simple source-target path by plain recursion, trying the arcs
    out of each vertex in ascending id order, so the list is lexicographic
    by arc ids; no reachability pruning."""
    found = []

    def extend(v: int, arcs: tuple[int, ...], visited: frozenset[int]) -> None:
        if v == target:
            found.append(Path(arcs))
            return
        for a, arc in enumerate(g.arcs):
            if arc.head == v and arc.tail not in visited:
                extend(arc.tail, arcs + (a,), visited | {arc.tail})

    extend(source, (), frozenset({source}))
    return found


def plain_cost(inst: QsppInstance, arcs) -> int | Fraction:
    """c summed over the arcs plus Q over their ordered pairs, in the
    data's own arithmetic (ints stay ints), one cell read at a time."""
    rows = inst.interaction.rows
    return sum(inst.linear[e] for e in arcs) + sum(
        rows[e][f] for e in arcs for f in arcs if e != f
    )


def first_cheapest(inst: QsppInstance) -> tuple[Path, int | Fraction] | None:
    """The first path of least cost in enumeration order with its cost,
    priced by plain_cost, or None without a path: what brute force returned
    when it priced every path.  The paths come from enumerate_st_paths,
    which prices nothing and which the suite checks against
    naive_st_paths; naive_st_paths itself is too slow at 46,656 paths."""
    best = None
    for path in enumerate_st_paths(inst.graph, inst.source, inst.target):
        cost = plain_cost(inst, path.arcs)
        if best is None or cost < best[1]:
            best = (path, cost)
    return best


def costs_by_enumeration(inst: QsppInstance) -> dict[Path, Fraction]:
    return {
        p: path_cost(inst, p)
        for p in enumerate_st_paths(inst.graph, inst.source, inst.target)
    }


def vector_reproduces_costs(inst: QsppInstance, vector) -> bool:
    for p in enumerate_st_paths(inst.graph, inst.source, inst.target):
        if sum(vector[a] for a in p.arcs) != path_cost(inst, p):
            return False
    return True


def assert_valid_certificate(pm, coefficients, require_nonneg) -> None:
    """Raise AssertionError unless y = coefficients has b^T y < 0 and
    B^T y >= 0, or B^T y = 0 in the equality sense (require_nonneg false).
    pytest does not rewrite asserts in this module and python -O strips
    them, so the checks raise explicitly."""
    for col in range(pm.arc_count):
        total = sum(pm.rows[i][col] * coefficients[i] for i in range(len(coefficients)))
        if total < 0:
            raise AssertionError(f"certificate has (B^T y)[{col}] = {total} < 0")
        if total and not require_nonneg:
            raise AssertionError(f"certificate has (B^T y)[{col}] = {total}, not 0")
    value = sum(c * y for c, y in zip(pm.costs, coefficients))
    if value >= 0:
        raise AssertionError(f"certificate has b^T y = {value}, not negative")


def _exact(v: Fraction) -> int | Fraction:
    return v.numerator if v.denominator == 1 else v


def reference_gauss_jordan(matrix, rhs) -> tuple[str, list]:
    """Gauss-Jordan elimination on dense Fraction rows [A | b | I], with
    lp_oracle's pivot rule: in column order, the first row at or below r
    with a nonzero entry.  ('solution', x) with zero free variables, or
    ('inconsistent', y) from the identity part of the first row that reads
    0 = nonzero."""
    k, m = len(matrix), len(matrix[0])
    rows = [
        [Fraction(v) for v in row] + [Fraction(b)] + [Fraction(int(i == j)) for j in range(k)]
        for i, (row, b) in enumerate(zip(matrix, rhs))
    ]
    pivots = []
    for col in range(m):
        r = len(pivots)
        found = next((i for i in range(r, k) if rows[i][col] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(k):
            factor = rows[i][col]
            if i != r and factor != 0:
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        if len(pivots) == k:
            break
    for row in rows:
        if row[m] != 0 and not any(row[:m]):
            return "inconsistent", [_exact(v) for v in row[m + 1 :]]
    x = [0] * m
    for r, col in pivots:
        x[col] = _exact(rows[r][m])
    return "solution", x


def reference_phase1_simplex(matrix, rhs) -> tuple[str, list]:
    """Phase-1 simplex on a dense Fraction tableau [A | I | b], rows signed
    so that b >= 0, with lp_oracle's pivot rules: Bland's entering column
    (the first negative reduced cost) and the minimum ratio, a tie going to
    the row with the smallest basic index.  ('feasible', x), or
    ('infeasible', y) with y_i = -sign_i * (1 - reduced cost of artificial
    i)."""
    k, m = len(matrix), len(matrix[0])
    width = m + k
    sign = [1 if b >= 0 else -1 for b in rhs]
    tableau = [
        [Fraction(sign[i] * v) for v in matrix[i]]
        + [Fraction(int(i == j)) for j in range(k)]
        + [Fraction(sign[i] * rhs[i])]
        for i in range(k)
    ]
    basis = [m + i for i in range(k)]
    reduced = [-sum(row[j] for row in tableau) for j in range(m)] + [Fraction(0)] * k
    while True:
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(k):
            if tableau[i][entering] > 0:
                ratio = tableau[i][-1] / tableau[i][entering]
                if leaving is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        if leaving is None:
            raise AssertionError("phase-1 objective unbounded")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(k):
            factor = tableau[i][entering]
            if i != leaving and factor != 0:
                tableau[i] = [a - factor * b if b else a for a, b in zip(tableau[i], tableau[leaving])]
        factor = reduced[entering]
        reduced = [a - factor * b if b else a for a, b in zip(reduced, tableau[leaving])]
        basis[leaving] = entering
    if sum(tableau[i][-1] for i in range(k) if basis[i] >= m) == 0:
        x = [0] * m
        for i in range(k):
            if basis[i] < m:
                x[basis[i]] = _exact(tableau[i][-1])
        return "feasible", x
    return "infeasible", [_exact(-sign[i] * (1 - reduced[m + i])) for i in range(k)]


def assert_oracle_matches_reference(pm, require_nonneg) -> None:
    """Raise AssertionError unless lp_oracle returns the reference kernel's
    verdict and the same vector or certificate, value for value and type
    for type (an int when whole), the certificate signed so that b^T y < 0.
    Raises explicitly, so it also checks under python -O."""
    kernel = reference_phase1_simplex if require_nonneg else reference_gauss_jordan
    status, values = kernel(pm.rows, pm.costs)
    feasible = status in ("feasible", "solution")
    if not feasible and sum(c * v for c, v in zip(pm.costs, values)) > 0:
        values = [-v for v in values]
    result = lp_oracle(pm, require_nonneg)
    got = result.vector if result.linearizable else result.witness.coefficients
    if result.linearizable != feasible:
        raise AssertionError(f"oracle says {result.linearizable}, reference {status}")
    if [(type(v), v) for v in got] != [(type(v), v) for v in values]:
        raise AssertionError(f"oracle gives {list(got)}, reference {values}")


def _square_deltas(g: Digraph, p: int, q: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """For each unit square (i, j) of the p-by-q grid (1-based top-left
    corner), its (arc, sign) terms: +down(i, j) + right(i+1, j)
    - right(i, j) - down(i, j+1), with row-major vertex ids."""
    lookup = arc_index(g)

    def arc(i, j, i2, j2):
        return lookup[((i - 1) * q + j - 1, (i2 - 1) * q + j2 - 1)]

    return {
        (i, j): [
            (arc(i, j, i + 1, j), 1),
            (arc(i + 1, j, i + 1, j + 1), 1),
            (arc(i, j, i, j + 1), -1),
            (arc(i, j + 1, i + 1, j + 1), -1),
        ]
        for i in range(1, p)
        for j in range(1, q)
    }


def incomparable_square_pairs(g: Digraph, p: int, q: int):
    """(S, S', delta_S, delta_S') for every unit square S and every square
    S' strictly above-left of it."""
    deltas = _square_deltas(g, p, q)
    for (i, j), delta in deltas.items():
        for i2 in range(1, i):
            for j2 in range(1, j):
                yield (i, j), (i2, j2), delta, deltas[(i2, j2)]


def square_pair_rows(inst: QsppInstance, p: int, q: int) -> list[tuple[int, int, list]]:
    """(i, j, row) for each unit square S = (i, j) with a square strictly
    above-left of it, row holding delta_S Q delta_S', the sum of
    s * t * Q[a][b] over the terms of the two deltas, for each such S';
    squares and rows both in row-major order."""
    rows = inst.interaction.rows
    table: dict[tuple[int, int], list] = {}
    for square, _, delta, other in incomparable_square_pairs(inst.graph, p, q):
        table.setdefault(square, []).append(
            sum(s * t * rows[a][b] for a, s in delta for b, t in other)
        )
    return [(i, j, row) for (i, j), row in table.items()]


def square_pair_linearizable(inst: QsppInstance, p: int, q: int) -> bool:
    """Equality-sense linearizability of a corner-to-corner grid instance.

    A path's indicator vector is the top path's (right along row 1, down
    the last column) plus delta_S over the unit squares above-right of the
    path.  A pair of comparable squares contributes a linear term to the
    path cost, so the cost is linear in the path exactly when
    delta_S Q delta_S' = 0 for every square S' strictly above-left of S.
    Linear costs play no role.
    """
    return not any(any(row) for _, _, row in square_pair_rows(inst, p, q))


def naive_emit(inst: QsppInstance) -> str:
    """The instance file one f-string per line, each cell right of the
    diagonal tested on its own."""
    g = inst.graph
    rows = inst.interaction.rows
    lines = ["QSPP 1", f"n {g.n}", f"m {g.m}", f"s {inst.source}", f"t {inst.target}"]
    for arc_id, arc in enumerate(g.arcs):
        lines.append(f"arc {arc_id} {arc.head} {arc.tail}")
    lines.append("c")
    lines.append(" ".join(f"{v}" for v in inst.linear))
    entries = [
        f"{e} {f} {rows[e][f]}" for e in range(g.m) for f in range(e + 1, g.m) if rows[e][f]
    ]
    lines.append(f"Q sparse {len(entries)}")
    lines.extend(entries)
    return "\n".join(lines) + "\n"


def randint_fill(g: Digraph, fill: str, rng: random.Random, max_entry: int):
    """(linear costs, rows of Q) of a generate fill, drawn with randint one
    arc pair at a time in row-major pair order."""
    m = g.m
    a = [rng.randint(0, max_entry) for _ in range(m)] if fill in ("weak-sum", "product") else None
    rows = [[0] * m for _ in range(m)]
    for e in range(m):
        for f in range(e + 1, m):
            x, y = g.arcs[e], g.arcs[f]
            if fill == "random":
                v = rng.randint(0, max_entry)
            elif fill == "weak-sum":
                v = a[e] + a[f]
            elif fill == "product":
                v = a[e] * a[f]
            elif (x.tail == y.head and x.head != y.tail) or (x.head == y.tail and x.tail != y.head):
                v = rng.randint(0, max_entry)
            else:
                continue
            rows[e][f] = rows[f][e] = v
    linear = [v * v for v in a] if fill == "product" else [0] * m
    return tuple(linear), tuple(map(tuple, rows))
