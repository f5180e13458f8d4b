"""Path matrix and the exact-rational linearizability oracle.

An instance is linearizable exactly when the linear system B c' = b is
solvable, where B stacks the 0/1 characteristic vectors of all source-target
paths and b their quadratic costs; the textbook notion additionally demands
c' >= 0.  Both variants are decided here in exact rational arithmetic:
Gaussian elimination for the unrestricted system and a phase-1 simplex with
Bland's rule for the nonnegative one.  Infeasibility is always returned with
a certificate vector y satisfying B^T y >= 0 and b^T y < 0 (with equality
throughout in the unrestricted case), and certificates are re-checked before
they are handed out.  build_path_matrix takes each row's cost from the
priced depth-first search in graphs, unpruned, which pays O(L) per arc it
pushes, not O(L^2) per row.

Both kernels run on the same exact values as the rest of the library: an
int when the value is whole, a Fraction otherwise.  The 0/1 path rows stay
ints, a division that comes out whole gives an int, elimination keeps each
row's trace sparse, and a pivot touches only the nonzero columns of the
pivot row.  Pivot choices compare exact values, so they do not depend on
whether a value is held as an int or a Fraction.

Everything here is desk-scale by contract: at most 1000 paths and 1000 arcs.
Measured on a 2-core host with CPython 3.11, weak-sum and random grid fills,
three seeds each (before: the same rows lifted to dense Fraction arithmetic;
the one 7x7 nonnegative run before was stopped after 10 minutes):

    grid  paths  equality sense          nonnegative sense
    5x5      70  0.15-0.19 s -> 1 ms     0.20-0.99 s -> 1-9 ms
    6x6     252  1.9-2.4 s -> 4-6 ms     3.6-35 s -> 14-74 ms
    7x7     924  26-30 s -> 19-27 ms     over 10 min -> 1.2-5.4 s

so a nonnegative-sense 7x7 grid, inside the 1000-path bound, still takes
seconds.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .errors import InternalError, ScaleError
from .graphs import Path, _walk_st_paths
from .model import QsppInstance, as_rational

MAX_ORACLE_PATHS = 1000
MAX_ORACLE_ARCS = 1000


@dataclass(frozen=True)
class PathMatrix:
    """Characteristic vectors of every source-target path plus their costs.

    Row order is the deterministic enumeration order; ``paths`` keeps the
    paths themselves so callers can name rows in reports.
    """

    rows: tuple[tuple[int, ...], ...]
    costs: tuple[int | Fraction, ...]
    paths: tuple[Path, ...]
    arc_count: int


@dataclass(frozen=True)
class CostMismatch:
    """A path whose cost under a candidate vector disagrees with the truth."""

    path: Path
    expected: int | Fraction
    got: int | Fraction


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Combination y of path rows with B^T y >= 0 but b^T y < 0; in the
    equality sense B^T y = 0."""

    coefficients: tuple[int | Fraction, ...]


@dataclass(frozen=True)
class LinearizationResult:
    linearizable: bool
    vector: tuple[int | Fraction, ...] | None = None
    witness: CostMismatch | InfeasibilityCertificate | None = None
    note: str = ""


def build_path_matrix(inst: QsppInstance, limit: int = MAX_ORACLE_PATHS) -> PathMatrix:
    """Enumerate all source-target paths into a path matrix.

    Raises PathLimitExceeded past ``limit`` paths; the default is the most
    that lp_oracle accepts, so no matrix is built only to be refused."""
    m = inst.graph.m
    rows = []
    costs = []
    paths = []
    for arcs, cost in _walk_st_paths(
        inst.graph, inst.source, inst.target, limit, inst.linear, inst.interaction.rows
    ):
        row = [0] * m
        for a in arcs:
            row[a] = 1
        rows.append(tuple(row))
        costs.append(as_rational(cost))
        paths.append(Path(arcs))
    return PathMatrix(tuple(rows), tuple(costs), tuple(paths), m)


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """Exact a / b: an int when it divides evenly, a Fraction otherwise."""
    if b == 1:
        return a
    if type(a) is int and type(b) is int:
        q, rem = divmod(a, b)
        return Fraction(a, b) if rem else q
    return as_rational(a / b)


def _gauss_solve(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[str, list[int | Fraction]]:
    """Solve matrix*x = rhs exactly.

    Returns ('solution', x) picking zero for free variables, or
    ('inconsistent', y) where y combines the original rows to 0 = nonzero.
    Each row's trace (its combination of original rows) is kept sparse: it
    holds at most rank + 1 entries.  The matrix is nonempty.
    """
    k = len(matrix)
    m = len(matrix[0])
    rows = [list(row) for row in matrix]
    trace = [{i: 1} for i in range(k)]
    rhs = list(rhs)
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(m):
        pr = next((i for i in range(r, k) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        trace[r], trace[pr] = trace[pr], trace[r]
        rhs[r], rhs[pr] = rhs[pr], rhs[r]
        pivot_row = rows[r]
        pivot_val = pivot_row[col]
        nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
        pivot_trace = list(trace[r].items())
        pivot_rhs = rhs[r]
        for i in range(k):
            row = rows[i]
            if i == r or not row[col]:
                continue
            factor = _div(row[col], pivot_val)
            for j, v in nonzero:
                row[j] = as_rational(row[j] - factor * v)
            tr = trace[i]
            for origin, t in pivot_trace:
                v = as_rational(tr.get(origin, 0) - factor * t)
                if v:
                    tr[origin] = v
                else:
                    del tr[origin]
            rhs[i] = as_rational(rhs[i] - factor * pivot_rhs)
        pivots.append((r, col))
        r += 1
        if r == k:
            break
    for i in range(k):
        if rhs[i] and not any(rows[i]):
            y = [0] * k
            for origin, t in trace[i].items():
                y[origin] = t
            return ("inconsistent", y)
    x = [0] * m
    for row_idx, col in pivots:
        x[col] = _div(rhs[row_idx], rows[row_idx][col])
    return ("solution", x)


def _phase1_simplex(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[str, list[int | Fraction]]:
    """Feasibility of {matrix*x = rhs, x >= 0} by exact phase-1 simplex.

    Returns ('feasible', x) or ('infeasible', y) with matrix^T y >= 0 and
    rhs^T y < 0.  Bland's rule keeps the pivoting finite.  A pivot updates
    only the nonzero columns of the pivot row.  The matrix is nonempty.
    """
    k = len(matrix)
    m = len(matrix[0])
    sign = [1 if rhs[i] >= 0 else -1 for i in range(k)]
    width = m + k
    tableau = []
    for i in range(k):
        row = [sign[i] * v for v in matrix[i]]
        row += [0] * k
        row[m + i] = 1
        row.append(sign[i] * rhs[i])
        tableau.append(row)
    basis = [m + i for i in range(k)]
    # reduced costs: structural cost 0, artificial cost 1, artificial basis
    reduced = [0] * width
    for row in tableau:
        for j in range(m):
            if row[j]:
                reduced[j] -= row[j]

    while True:
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio: int | Fraction | None = None
        for i in range(k):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = _div(tableau[i][-1], coeff)
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise InternalError("phase-1 objective cannot be unbounded")
        pivot_row = tableau[leaving]
        pivot_val = pivot_row[entering]
        nonzero = [(j, _div(v, pivot_val)) for j, v in enumerate(pivot_row) if v]
        for j, v in nonzero:
            pivot_row[j] = v
        for i in range(k):
            row = tableau[i]
            factor = row[entering]
            if i != leaving and factor:
                for j, v in nonzero:
                    row[j] = as_rational(row[j] - factor * v)
        factor = reduced[entering]
        for j, v in nonzero:
            if j < width:
                reduced[j] = as_rational(reduced[j] - factor * v)
        basis[leaving] = entering

    objective = sum(tableau[i][-1] for i in range(k) if basis[i] >= m)
    if objective == 0:
        x = [0] * m
        for i in range(k):
            if basis[i] < m:
                x[basis[i]] = tableau[i][-1]
        return ("feasible", x)
    multipliers = [1 - reduced[m + i] for i in range(k)]
    certificate = [-sign[i] * multipliers[i] for i in range(k)]
    return ("infeasible", certificate)


def _verify_solution(
    pm: PathMatrix, x: list[int | Fraction], require_nonneg: bool
) -> None:
    """Raise InternalError unless B x = b (and x >= 0 when required)."""
    if not all(
        sum(map(mul, row, x)) == cost for row, cost in zip(pm.rows, pm.costs)
    ):
        raise InternalError("oracle produced a vector that misses a path cost")
    if require_nonneg and not all(v >= 0 for v in x):
        raise InternalError("oracle produced a negative entry")


def _verify_certificate(
    pm: PathMatrix, y: list[int | Fraction], require_nonneg: bool
) -> None:
    """Raise InternalError unless b^T y < 0 and B^T y >= 0, or B^T y = 0
    when the sense is the equality one (require_nonneg false).

    B^T y sums only the rows whose y_i is nonzero; certificates are sparse.
    """
    bty = [0] * pm.arc_count
    for row, v in zip(pm.rows, y):
        if v:
            bty = list(map(add, bty, map(mul, row, repeat(v))))
    for total in bty:
        if total < 0:
            raise InternalError("certificate fails B^T y >= 0")
        if total and not require_nonneg:
            raise InternalError("certificate fails B^T y = 0")
    if sum(map(mul, pm.costs, y)) >= 0:
        raise InternalError("certificate fails b^T y < 0")


def lp_oracle(pm: PathMatrix, require_nonneg: bool = True) -> LinearizationResult:
    """Decide solvability of B c' = b, optionally with c' >= 0, exactly.

    A feasible outcome carries one solution vector; an infeasible one carries
    a verified certificate (see InfeasibilityCertificate).
    """
    if len(pm.rows) > MAX_ORACLE_PATHS or pm.arc_count > MAX_ORACLE_ARCS:
        raise ScaleError(
            f"oracle is desk-scale only ({MAX_ORACLE_PATHS} paths, "
            f"{MAX_ORACLE_ARCS} arcs)"
        )
    if not pm.rows:
        # no paths means no constraints
        return LinearizationResult(True, vector=(0,) * pm.arc_count)
    if require_nonneg:
        status, vec = _phase1_simplex(pm.rows, pm.costs)
        feasible = status == "feasible"
    else:
        status, vec = _gauss_solve(pm.rows, pm.costs)
        feasible = status == "solution"
    if feasible:
        _verify_solution(pm, vec, require_nonneg)
        return LinearizationResult(True, vector=tuple(vec))
    y = vec
    if sum(c * v for c, v in zip(pm.costs, y)) > 0:
        y = [-v for v in y]
    _verify_certificate(pm, y, require_nonneg)
    return LinearizationResult(
        False, witness=InfeasibilityCertificate(tuple(y))
    )
