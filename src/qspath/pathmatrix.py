"""Path matrix and the exact-rational linearizability oracle.

An instance is linearizable exactly when the linear system B c' = b is
solvable, where B stacks the 0/1 characteristic vectors of all source-target
paths and b their quadratic costs; the textbook notion additionally demands
c' >= 0.  Both variants are decided here in exact rational arithmetic:
Gaussian elimination for the unrestricted system and a phase-1 simplex with
Bland's rule for the nonnegative one.  Infeasibility is always returned with
a certificate vector y satisfying B^T y >= 0 and b^T y < 0 (with equality
throughout in the unrestricted case), and certificates are re-checked before
they are handed out.

Everything here is desk-scale by contract: at most 1000 paths and 1000 arcs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, ScaleError
from .graphs import DEFAULT_PATH_LIMIT, Path, iter_st_paths
from .model import QsppInstance, cost_of_arcs

MAX_ORACLE_PATHS = 1000
MAX_ORACLE_ARCS = 1000


@dataclass(frozen=True)
class PathMatrix:
    """Characteristic vectors of every source-target path plus their costs.

    Row order is the deterministic enumeration order; ``paths`` keeps the
    paths themselves so callers can name rows in reports.
    """

    rows: tuple[tuple[int, ...], ...]
    costs: tuple[Fraction, ...]
    paths: tuple[Path, ...]
    arc_count: int


@dataclass(frozen=True)
class CostMismatch:
    """A path whose cost under a candidate vector disagrees with the truth."""

    path: Path
    expected: Fraction
    got: Fraction


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Combination y of path rows with B^T y >= 0 but b^T y < 0."""

    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class LinearizationResult:
    linearizable: bool
    vector: tuple[Fraction, ...] | None = None
    witness: CostMismatch | InfeasibilityCertificate | None = None
    note: str = ""


def build_path_matrix(inst: QsppInstance, limit: int = DEFAULT_PATH_LIMIT) -> PathMatrix:
    """Enumerate all source-target paths into a path matrix."""
    m = inst.graph.m
    rows = []
    costs = []
    paths = []
    for path in iter_st_paths(inst.graph, inst.source, inst.target, limit):
        row = [0] * m
        for a in path.arcs:
            row[a] = 1
        rows.append(tuple(row))
        costs.append(cost_of_arcs(inst, path.arcs))
        paths.append(path)
    return PathMatrix(tuple(rows), tuple(costs), tuple(paths), m)


def _gauss_solve(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[str, list[Fraction]]:
    """Solve matrix*x = rhs exactly.

    Returns ('solution', x) picking zero for free variables, or
    ('inconsistent', y) where y combines the original rows to 0 = nonzero.
    """
    k = len(matrix)
    m = len(matrix[0]) if k else 0
    rows = [list(matrix[i]) for i in range(k)]
    trace = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
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
        for i in range(k):
            if i == r or not rows[i][col]:
                continue
            factor = rows[i][col] / rows[r][col]
            rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
            trace[i] = [ti - factor * tr for ti, tr in zip(trace[i], trace[r])]
            rhs[i] -= factor * rhs[r]
        pivots.append((r, col))
        r += 1
        if r == k:
            break
    for i in range(k):
        if rhs[i] and not any(rows[i]):
            return ("inconsistent", trace[i])
    x = [Fraction(0)] * m
    for row_idx, col in pivots:
        x[col] = rhs[row_idx] / rows[row_idx][col]
    return ("solution", x)


def _phase1_simplex(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[str, list[Fraction]]:
    """Feasibility of {matrix*x = rhs, x >= 0} by exact phase-1 simplex.

    Returns ('feasible', x) or ('infeasible', y) with matrix^T y >= 0 and
    rhs^T y < 0.  Bland's rule keeps the pivoting finite.
    """
    k = len(matrix)
    m = len(matrix[0]) if k else 0
    if k == 0:
        return ("feasible", [Fraction(0)] * m)
    sign = [1 if rhs[i] >= 0 else -1 for i in range(k)]
    width = m + k
    tableau = []
    for i in range(k):
        row = [sign[i] * v for v in matrix[i]]
        row += [Fraction(int(i == j)) for j in range(k)]
        row.append(sign[i] * rhs[i])
        tableau.append(row)
    basis = [m + i for i in range(k)]
    # reduced costs: structural cost 0, artificial cost 1, artificial basis
    reduced = [Fraction(0)] * width
    for j in range(width):
        col_sum = sum(tableau[i][j] for i in range(k))
        reduced[j] = (Fraction(1) if j >= m else Fraction(0)) - col_sum

    while True:
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio: Fraction | None = None
        for i in range(k):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise InternalError("phase-1 objective cannot be unbounded")
        pivot_val = tableau[leaving][entering]
        tableau[leaving] = [v / pivot_val for v in tableau[leaving]]
        pivot_row = tableau[leaving]
        for i in range(k):
            if i != leaving and tableau[i][entering]:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * pv for v, pv in zip(tableau[i], pivot_row)]
        factor = reduced[entering]
        reduced = [v - factor * pv for v, pv in zip(reduced, pivot_row[:-1])]
        basis[leaving] = entering

    objective = sum(tableau[i][-1] for i in range(k) if basis[i] >= m)
    if objective == 0:
        x = [Fraction(0)] * m
        for i in range(k):
            if basis[i] < m:
                x[basis[i]] = tableau[i][-1]
        return ("feasible", x)
    multipliers = [Fraction(1) - reduced[m + i] for i in range(k)]
    certificate = [-sign[i] * multipliers[i] for i in range(k)]
    return ("infeasible", certificate)


def _verify_solution(
    pm: PathMatrix, x: list[Fraction], require_nonneg: bool
) -> None:
    """Raise InternalError unless B x = b (and x >= 0 when required)."""
    if not all(
        sum(r * v for r, v in zip(row, x)) == cost
        for row, cost in zip(pm.rows, pm.costs)
    ):
        raise InternalError("oracle produced a vector that misses a path cost")
    if require_nonneg and not all(v >= 0 for v in x):
        raise InternalError("oracle produced a negative entry")


def _verify_certificate(pm: PathMatrix, y: list[Fraction]) -> None:
    """Raise InternalError unless B^T y >= 0 and b^T y < 0."""
    for col in range(pm.arc_count):
        if sum(pm.rows[i][col] * y[i] for i in range(len(y))) < 0:
            raise InternalError("certificate fails B^T y >= 0")
    if sum(c * v for c, v in zip(pm.costs, y)) >= 0:
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
        return LinearizationResult(True, vector=(Fraction(0),) * pm.arc_count)
    matrix = [[Fraction(v) for v in row] for row in pm.rows]
    rhs = list(pm.costs)
    if require_nonneg:
        status, vec = _phase1_simplex(matrix, rhs)
        feasible = status == "feasible"
    else:
        status, vec = _gauss_solve(matrix, rhs)
        feasible = status == "solution"
    if feasible:
        _verify_solution(pm, vec, require_nonneg)
        return LinearizationResult(True, vector=tuple(vec))
    y = vec
    if sum(c * v for c, v in zip(pm.costs, y)) > 0:
        y = [-v for v in y]
    _verify_certificate(pm, y)
    return LinearizationResult(
        False, witness=InfeasibilityCertificate(tuple(y))
    )
