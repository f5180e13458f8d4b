"""Path matrix and the exact-rational linearizability oracle.

An instance is linearizable exactly when the linear system B c' = b is
solvable, where B stacks the 0/1 characteristic vectors of all source-target
paths and b their quadratic costs; the textbook notion additionally demands
c' >= 0.  Both variants are decided exactly: Gauss-Jordan elimination for
the unrestricted system and a phase-1 simplex with Bland's rule for the
nonnegative one.  Infeasibility comes with a certificate y satisfying
B^T y >= 0 and b^T y < 0 (with equality throughout in the unrestricted
case), re-checked before it is handed out.  build_path_matrix takes each
row's cost from the priced depth-first search in graphs, unpruned.

Both kernels pivot on Python ints only.  lp_oracle multiplies b once by D,
the lcm of its denominators.  A kernel holds each row as a nonzero integer
multiple of the row that rational arithmetic would hold (a positive one in
the simplex).  Before a pivot p eliminates an entry a that it does not
divide, the row is multiplied by p/gcd(a, p); then the row takes (a // p)
times the pivot row, over the pivot row's nonzero columns.  Zero tests,
signs and the simplex's ratio test (rhs_i*c_l against rhs_l*c_i) do not see
these scales, so the pivots, vectors and certificates are those of dense
Fraction arithmetic.  lp_oracle reads them out exactly: an int when whole,
a Fraction otherwise.

Everything here is desk-scale by contract: at most 1000 paths and 1000 arcs.
lp_oracle on a 2-core host with CPython 3.11, weak-sum and random grid
fills, three seeds each, int | Fraction pivots before and ints after:

    grid  paths  equality sense             nonnegative sense
    5x5      70  0.64-0.94 -> 0.51-0.67 ms  1.8-11.6 -> 1.5-2.5 ms
    6x6     252  3.0-5.9 -> 2.2-3.9 ms      16-124 -> 15-44 ms
    7x7     924  14-29 -> 10-22 ms          2.9-8.0 -> 0.6-4.3 s
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
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
    q_rows = map(inst.interaction.row, range(m))
    for arcs, cost in _walk_st_paths(
        inst.graph, inst.source, inst.target, limit, inst.linear, q_rows
    ):
        row = [0] * m
        for a in arcs:
            row[a] = 1
        rows.append(tuple(row))
        costs.append(as_rational(cost))
        paths.append(Path(arcs))
    return PathMatrix(tuple(rows), tuple(costs), tuple(paths), m)


def _quotients(nums: list[int], dens: list[int]) -> list[int | Fraction]:
    """Each n/d exactly: an int when d divides n, a Fraction otherwise."""
    return [Fraction(n, d) if n % d else n // d for n, d in zip(nums, dens)]


def _gauss_solve(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[bool, list[int], list[int]]:
    """Solve matrix*x = rhs by Gauss-Jordan elimination over integers.

    Row i holds rhs_i in column m, and beside it its scale s_i and its trace
    (its combination of original rows, sparse: at most rank + 1 entries).
    Returns (True, nums, dens), x = nums/dens with zero free variables, or
    (False, nums, dens), y = nums/dens combining the original rows to
    0 = nonzero.  The matrix is nonempty.
    """
    k = len(matrix)
    m = len(matrix[0])
    rows = [[*row, b] for row, b in zip(matrix, rhs)]  # rhs in column m
    trace = [{i: 1} for i in range(k)]
    scale = [1] * k
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(m):
        pr = next((i for i in range(r, k) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        trace[r], trace[pr] = trace[pr], trace[r]
        scale[r], scale[pr] = scale[pr], scale[r]
        pivot_row = rows[r]
        p = pivot_row[col]
        nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
        pivot_trace = list(trace[r].items())
        for i, row in enumerate(rows):
            a = row[col]
            if not a or row is pivot_row:
                continue
            tr = trace[i]
            if a % p:
                f = p // gcd(a, p)
                rows[i] = row = list(map(mul, row, repeat(f)))
                for origin in tr:
                    tr[origin] *= f
                scale[i] *= f
                a *= f
            factor = a // p
            for j, v in nonzero:
                row[j] -= factor * v
            for origin, t in pivot_trace:
                v = tr.get(origin, 0) - factor * t
                if v:
                    tr[origin] = v
                else:
                    del tr[origin]
        pivots.append((r, col))
        r += 1
        if r == k:
            break
    for i, row in enumerate(rows):
        if row[m] and not any(row[:m]):
            nums = [0] * k
            for origin, t in trace[i].items():
                nums[origin] = t
            return False, nums, [scale[i]] * k
    nums = [0] * m
    dens = [1] * m
    for row_idx, col in pivots:
        nums[col] = rows[row_idx][m]
        dens[col] = rows[row_idx][col]
    return True, nums, dens


def _phase1_simplex(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[bool, list[int], list[int]]:
    """Feasibility of {matrix*x = rhs, x >= 0} by phase-1 simplex over
    integers, with Bland's rule.

    The reduced-cost row is the tableau's last: its entry in the entering
    column is negative, so the ratio test passes it over, and a pivot
    updates it like any other row.  It holds minus the phase-1 objective in
    the rhs column and its own scale in the column after, zero elsewhere; a
    basic row's scale is its entry in its basic column.  Returns (True,
    nums, dens), x = nums/dens, or (False, nums, dens), y = nums/dens with
    matrix^T y >= 0 and rhs^T y < 0.  The matrix is nonempty.
    """
    k = len(matrix)
    m = len(matrix[0])
    sign = [1 if b >= 0 else -1 for b in rhs]
    width = m + k
    tableau = [[s * v for v in row] + [0] * k + [s * b, 0] for s, row, b in zip(sign, matrix, rhs)]
    for i, row in enumerate(tableau):
        row[m + i] = 1
    # structural cost 0, artificial cost 1, artificial basis
    reduced = [-sum(column) for column in zip(*(row[:m] for row in tableau))]
    tableau.append(reduced + [0] * k + [-sum(map(abs, rhs)), 1])
    basis = [m + i for i in range(k)]
    while True:
        reduced = tableau[k]
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i, row in enumerate(tableau):
            c = row[entering]
            if c > 0:
                b = row[width]
                if (
                    leaving is None
                    or b * best_c < best_b * c
                    or (b * best_c == best_b * c and basis[i] < basis[leaving])
                ):
                    leaving, best_b, best_c = i, b, c
        if leaving is None:
            raise InternalError("phase-1 objective cannot be unbounded")
        pivot_row = tableau[leaving]
        p = pivot_row[entering]
        nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
        for i, row in enumerate(tableau):
            a = row[entering]
            if not a or row is pivot_row:
                continue
            if a % p:
                f = p // gcd(a, p)
                tableau[i] = row = list(map(mul, row, repeat(f)))
                a *= f
            factor = a // p
            for j, v in nonzero:
                row[j] -= factor * v
        basis[leaving] = entering

    if not reduced[width]:
        nums = [0] * m
        dens = [1] * m
        for i, j in enumerate(basis):
            if j < m:
                nums[j] = tableau[i][width]
                dens[j] = tableau[i][j]
        return True, nums, dens
    # y_i = -sign_i * (1 - reduced[m + i]), read at the reduced row's scale
    scale = reduced[-1]
    nums = [sign[i] * (reduced[m + i] - scale) for i in range(k)]
    return False, nums, [scale] * k


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
    # the kernels run on integers: b times D, the lcm of its denominators
    scale = lcm(*(c.denominator for c in pm.costs))
    b = [c.numerator * (scale // c.denominator) for c in pm.costs]
    kernel = _phase1_simplex if require_nonneg else _gauss_solve
    feasible, nums, dens = kernel(pm.rows, b)
    if feasible:
        vec = _quotients(nums, [d * scale for d in dens])
        _verify_solution(pm, vec, require_nonneg)
        return LinearizationResult(True, vector=tuple(vec))
    y = _quotients(nums, dens)
    if sum(c * v for c, v in zip(pm.costs, y)) > 0:
        y = [-v for v in y]
    _verify_certificate(pm, y, require_nonneg)
    return LinearizationResult(False, witness=InfeasibilityCertificate(tuple(y)))
