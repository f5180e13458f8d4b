"""QSPP/SPP instance model over exact rationals, cost evaluation, and solvers.

Everything that feeds a verdict is exact: a whole number is a plain int and
any other value a fractions.Fraction, so integer data never pays for
Fraction arithmetic.  as_rational is where a value becomes exact; floats
never enter these code paths.  Linear cost vectors are sign-unrestricted at
the type level (reduced forms legitimately go negative); validate_instance
reports the nonnegativity that the problem definition asks for.

An InteractionMatrix is symmetric with a zero diagonal by construction, as
the problem defines Q; no operation checks it again.  The total cost of a
path is the ordered double sum of interaction costs over its arc pairs plus
the sum of its linear costs, so each arc a adds c_a plus twice Q[a][b] for
every arc b before it on the path, read from Q's own row of a.
cost_of_arcs prices one path this way, in O(L^2) for L arcs; brute_force_solve
and build_path_matrix in pathmatrix price along the depth-first search of
graphs instead, and brute_force_solve prunes that search on the completion
bound that graphs describes, on signed and rational data alike.

Every matrix built from off-diagonal entries (from_triples, from_entries,
the adjacent fill and the parser of sparse files) is checked and written by
one entry checker, _EntryRows, which finds a repeated pair in a bitmap of
seen cells.  zero, scaled and qap_to_qspp on integer data set every cell
by construction and hand their finished rows to _of_exact instead; the
random, weak-sum and product fills hand the upper triangle of Q to
_of_upper, which alone mirrors one, and tests/test_source.py keeps both to
these builders.  Any other rows go through the coercing constructor, which
checks them.

Only this module knows how Q is stored.  Every other module reads it via
three readers of InteractionMatrix: row(e), the exact row; pairs(), each
nonzero cell right of the diagonal once as (e, f, value), row-major; and
is_zero().  pairs and is_zero read a seeded fill's kept triangle without
building the m*m cells, and tests/test_source.py pins the rule.

Tie-breaking in the solvers is deterministic: the brute-force solver keeps
the earliest enumerated optimum, and _relax, the one shortest-path
relaxation, replaces a label only on strict improvement.
"""
from __future__ import annotations

import heapq
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CyclicGraphError, NoPathError, ScaleError
from .graphs import (
    DEFAULT_PATH_LIMIT,
    Digraph,
    Path,
    _walk_st_paths,
    check_endpoints,
    topological_order,
    validate_path,
)

Rational = Fraction


def as_rational(value: object) -> int | Fraction:
    """Make a value exact: an int when it is whole, a Fraction otherwise.

    Accepts ints, Fractions and anything Fraction accepts, such as the
    strings '3', '3/4' or '1.5'; floats are rejected.  An int, or a Fraction
    whose denominator is not 1, is returned as it is, so data made exact
    once is never rebuilt.  A string whose numerator or denominator would
    have more than MAX_DIGITS digits raises ValueError, before it is built.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact cost data")
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = _bounded_fraction(value)
    exact = value if type(value) is Fraction else Fraction(value)
    return exact.numerator if exact.denominator == 1 else exact


# the exponent of a decimal token such as 2.5E+4400, its digits in group 1
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")


def _bounded_fraction(text: str) -> Fraction:
    """Fraction(text), refused with ValueError past MAX_DIGITS digits.

    int() reads no run of more than MAX_DIGITS digits, so only an exponent
    makes a long value from a short token, and Fraction would multiply it
    out first: 0.5 s for 1e2000000.  The mantissa has fewer digits than the
    token has characters, so an exponent past MAX_DIGITS plus that length
    puts any nonzero value past the bound: such a token is read with
    exponent 0, and refused unless it is zero.
    """
    text = text.strip()
    match = _EXPONENT.search(text)
    huge = match is not None and int(match[1]) > MAX_DIGITS + len(text)
    exact = Fraction(text[: match.start(1)] + "0") if huge else Fraction(text)
    if huge and exact or max(abs(exact.numerator), exact.denominator) >= _DIGITS_CEILING:
        raise ValueError(f"value has more than {MAX_DIGITS} digits")
    return exact


def rational_vector(values: Iterable[object]) -> tuple[int | Fraction, ...]:
    return tuple(as_rational(v) for v in values)


def rational_tokens(tokens: Sequence[str]) -> list[int | Fraction]:
    """as_rational over string tokens, with a column of whole numbers read
    in one int pass; raises what as_rational raises on the first bad token.

    Any other column reads each distinct token once, in the order it first
    appears, and looks the rest up: a file's Q holds few distinct values,
    and one Fraction costs microseconds."""
    try:
        return list(map(int, tokens))
    except ValueError:
        values = {token: as_rational(token) for token in dict.fromkeys(tokens)}
        return list(map(values.__getitem__, tokens))


# The builders of Q's m*m cells (_EntryRows, InteractionMatrix.zero,
# generate.filled_instance and reductions.qap_to_qspp) refuse an arc count
# past this bound before they allocate or draw anything: a file of under
# 1 MB can list 50,000 parallel arcs.  A zero Q of 4,096 arcs builds in
# 0.35 s at 144 MB peak RSS, and one of 2,048 in 0.08 s at 48 MB (2-core
# host, CPython 3.11).
MAX_ARCS = 4096

# A value read from text whose numerator or denominator has more digits than
# this is refused: CPython converts no longer int to a string (see
# sys.get_int_max_str_digits), so every later print of the value would fail.
MAX_DIGITS = 4300
_DIGITS_CEILING = 10**MAX_DIGITS


def _decimal_texts(values: Iterable[object]) -> list[str]:
    """str over exact values, for the CLI's results and the emitter.  A sum
    or product of values inside MAX_DIGITS can pass the interpreter's limit
    (sys.get_int_max_str_digits), where str() raises ValueError; this raises
    ScaleError instead, a usage error and not a fault."""
    try:
        return list(map(str, values))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ScaleError(f"a value has more than {limit} digits, the most str() prints") from None


def _symmetric(rows: Sequence[Sequence[object]]) -> bool:
    """Whether square rows, tuples or lists, equal their columns: one C-level
    comparison per row right of the diagonal, zip building each column."""
    return all(
        tuple(row[e + 1 :]) == col[e + 1 :] for e, (row, col) in enumerate(zip(rows, zip(*rows)))
    )


def _check_arc_count(m: int) -> None:
    """Raise ValueError past MAX_ARCS."""
    if m > MAX_ARCS:
        raise ValueError(f"arc count {m} exceeds the bound of {MAX_ARCS}")


# entries a row must hold to be written at once by _EntryRows._add_row: the
# walk's bisect_right, its checks and slices cost about what _add_each takes
# for 20 entries of a row listed in full, and for 30 of a gapped one
_RUN_MIN = 32


class _EntryRows:
    """The rows of a symmetric zero-diagonal matrix, written entry by entry
    from (e, f, value) columns as each entry passes its checks.

    add is the one way in.  It walks the rows of its columns with
    bisect_right and hands each row of _RUN_MIN or more entries, the
    entries of one e between two others, to _add_row, and every other entry
    to _add_each, in order.  The walk ends at the first row after the first
    that is short or whose e's are not all equal: rows shorten as e grows,
    as a generated file lists them, and the first may be the cut end of a
    row.  It also stops, at no cost per row, once fewer than _RUN_MIN
    entries are left or at row m - _RUN_MIN, past which no row holds
    _RUN_MIN pairs (e, f) with e < f < m; so fewer than _RUN_MIN entries,
    or the entries of a matrix of _RUN_MIN arcs or fewer, are never walked.

    _add_each reads the entries in order and checks each one for the arc
    range, then the diagonal, then a repeat of an earlier unordered pair (in
    either orientation, whatever the values).  A repeat is looked up in
    seen, a bytearray of m*m cells that marks each pair written at its cell
    above the diagonal.  The first fault raises ValueError and nothing after
    it is written.  seen lives across calls, so entries may arrive in pieces
    and a pair repeated in a later piece is still found.

    _add_row takes the entries of one row e at once and writes them without
    a check per entry when none can fault: f's in ascending order, all
    right of the diagonal and below m, none of their cells seen and no f
    listed twice.  A row of consecutive f's is written in slices, any other
    in one loop.  A row that could fault goes to _add_each, so _add_each is
    the only source of errors and faulty columns still meet their first
    fault in order.  columns is list(range(m)), against which a row is found
    consecutive.
    """

    __slots__ = ("m", "rows", "seen", "columns")

    def __init__(self, m: int):
        _check_arc_count(m)
        self.m = m
        self.columns = list(range(m))
        self.rows: list = [[0] * m for _ in range(m)]
        self.seen = bytearray(m * m)

    def add(self, es: list[int], fs: list[int], values: list[int | Fraction]) -> None:
        """Check and write the entries (es[k], fs[k], values[k]) in order,
        each long row at once; raises ValueError at the first fault."""
        k, last = len(es), self.m - _RUN_MIN
        i = start = 0
        while i <= k - _RUN_MIN and es[i] < last:
            e = es[i]
            j = bisect_right(es, e, i + 1, k)
            if j - i >= _RUN_MIN and es[i:j].count(e) == j - i:
                if start < i:
                    self._add_each(es[start:i], fs[start:i], values[start:i])
                self._add_row(e, fs[i:j], values[i:j])
                start = j
            elif i:
                break
            i = j
        # copied, not cut in place: deleting the head of a long list slowed
        # the commands run after a parse in the same process by 4-9 %
        if start:
            es, fs, values = es[start:], fs[start:], values[start:]
        self._add_each(es, fs, values)

    def _add_each(
        self, es: Iterable[int], fs: Iterable[int], values: Iterable[int | Fraction]
    ) -> None:
        m = self.m
        rows = self.rows
        seen = self.seen
        for e, f, value in zip(es, fs, values):
            if not (0 <= e < m and 0 <= f < m):
                raise ValueError(f"entry ({e},{f}) outside the arc range")
            # the pair's cell above the diagonal marks it in either orientation
            if e < f:
                cell = e * m + f
            elif e > f:
                cell = f * m + e
            else:
                raise ValueError("diagonal interaction entries must stay zero")
            if seen[cell]:
                raise ValueError(f"pair ({e},{f}) listed twice")
            seen[cell] = 1
            rows[e][f] = rows[f][e] = value

    def _add_row(self, e: int, fs: list[int], values: list[int | Fraction]) -> None:
        """_add_each(repeat(e, n), fs, values), n = len(fs) > 0, with no
        check per entry where none can fault.

        Consecutive f's with 0 <= e < fs[0] and no cell seen are written in
        slice assignments and a short loop down column e.  Other f's in
        ascending order, in (e, m) and with no cell of their span seen, are
        written in one loop of three stores per entry: row e, the mirror
        cell and the mark.  A count of the marks in the span then proves
        the f's distinct; if they are not, the span, all zero and unseen
        before, is reset.  A row not written goes through _add_each.
        """
        m, n, seen, rows = self.m, len(fs), self.seen, self.rows
        lo, hi = fs[0], fs[-1]
        base = e * m
        start, end = base + lo, base + hi + 1
        if hi - lo + 1 == n and fs == self.columns[lo : hi + 1]:
            if 0 <= e < lo and seen.find(1, start, end) < 0:
                seen[start:end] = b"\x01" * n
                rows[e][lo : hi + 1] = values
                for row, value in zip(rows[lo : hi + 1], values):
                    row[e] = value
                return
        elif 0 <= e < lo and hi < m and fs == sorted(fs) and seen.find(1, start, end) < 0:
            row = rows[e]
            for f, value in zip(fs, values):
                row[f] = rows[f][e] = value
                seen[base + f] = 1
            if seen.count(1, start, end) == n:
                return
            seen[start:end] = bytes(end - start)
            row[lo : hi + 1] = [0] * (end - start)
            for f in fs:
                rows[f][e] = 0
        self._add_each(repeat(e, n), fs, values)

    def matrix(self) -> "InteractionMatrix":
        """The matrix of the entries added so far; each row becomes a tuple
        in place, so no second copy of Q is ever built."""
        rows = self.rows
        for e, row in enumerate(rows):
            rows[e] = tuple(row)
        return InteractionMatrix._of_exact(rows)


class InteractionMatrix:
    """Symmetric square matrix of pairwise arc interaction costs with a zero
    diagonal, exact rationals.

    The invariant holds by construction.  InteractionMatrix(rows) makes the
    rows exact and refuses, with ValueError, rows that are not square, then
    not symmetric, then not zero on the diagonal.  zero, from_entries,
    from_triples, scaled and the builders elsewhere that set every cell
    themselves produce the invariant and skip the check through _of_exact,
    or through _of_upper with only the upper triangle.
    """

    __slots__ = ("rows", "_upper")

    def __init__(self, rows: Iterable[Iterable[object]]):
        mat = tuple(rational_vector(row) for row in rows)
        for row in mat:
            if len(row) != len(mat):
                raise ValueError("interaction matrix must be square")
        if not _symmetric(mat):
            raise ValueError("interaction matrix must be symmetric")
        if any(row[e] for e, row in enumerate(mat)):
            raise ValueError("interaction matrix must have a zero diagonal")
        self.rows: tuple[tuple[Fraction, ...], ...] = mat
        self._upper = None

    @classmethod
    def _of_exact(cls, rows: Iterable[Iterable[int | Fraction]]) -> "InteractionMatrix":
        """Wrap square rows whose values are already exact, checking nothing:
        the caller guarantees symmetry and a zero diagonal."""
        matrix = object.__new__(cls)
        matrix.rows = tuple(map(tuple, rows))
        matrix._upper = None
        return matrix

    @classmethod
    def _of_upper(cls, uppers: Sequence[Sequence[int]], top: int) -> "InteractionMatrix":
        """The matrix whose row e holds uppers[e], its m - 1 - e cells right
        of the diagonal, checking nothing: the caller guarantees that every
        value is a whole number in range(top).  The rows are mirrored from
        the triangle on their first read, so a matrix only written to a file
        never builds its m*m cells."""
        matrix = object.__new__(cls)
        matrix._upper = (uppers, top)
        return matrix

    def __getattr__(self, name: str):
        # called only for an unset slot: rows, on a matrix from _of_upper
        if name != "rows":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.rows = rows = self._mirrored()
        self._upper = None
        return rows

    def _uppers(self) -> tuple[Iterable[Sequence[int | Fraction]], int | None]:
        """(uppers, top): each row's cells right of the diagonal, with top as
        given to _of_upper while its triangle is kept and None otherwise."""
        if self._upper is not None:
            return self._upper
        return (row[e + 1 :] for e, row in enumerate(self.rows)), None

    def _mirrored(self) -> tuple[tuple[int, ...], ...]:
        """The rows of the upper triangle kept by _of_upper.  Q is laid out
        row-major in one flat buffer, a bytearray when top <= 256 and a list
        otherwise; row e's cells go right of its diagonal in one slice and
        down column e below it in one strided slice."""
        uppers, top = self._upper
        m = len(uppers)
        flat = bytearray(m * m) if top <= 256 else [0] * (m * m)
        for e, upper in enumerate(uppers):
            flat[e * m + e + 1 : (e + 1) * m] = upper
            flat[(e + 1) * m + e :: m] = upper
        return tuple(tuple(flat[e * m : (e + 1) * m]) for e in range(m))

    @classmethod
    def zero(cls, m: int) -> "InteractionMatrix":
        _check_arc_count(m)
        return cls._of_exact([0] * m for _ in range(m))

    @classmethod
    def from_entries(
        cls, m: int, entries: Mapping[tuple[int, int], object]
    ) -> "InteractionMatrix":
        """Build a symmetric zero-diagonal matrix from off-diagonal entries.

        Each key (e, f) sets both the (e, f) and (f, e) cells; see
        from_triples for the entries it rejects.
        """
        return cls.from_triples(m, ((e, f, v) for (e, f), v in entries.items()))

    @classmethod
    def from_triples(
        cls, m: int, triples: Iterable[tuple[int, int, object]]
    ) -> "InteractionMatrix":
        """Build a symmetric zero-diagonal matrix from (e, f, value) triples.

        Each triple sets both the (e, f) and (f, e) cells; cells no triple
        names stay zero.  Raises ValueError on an index outside the arc range,
        a diagonal entry, or an unordered pair given twice (in either
        orientation, whatever the values), naming the first such triple.
        """
        es: list[int] = []
        fs: list[int] = []
        values: list[int | Fraction] = []
        for e, f, value in triples:
            es.append(e)
            fs.append(f)
            values.append(as_rational(value))
        rows = _EntryRows(m)
        rows.add(es, fs, values)
        return rows.matrix()

    @property
    def m(self) -> int:
        return len(self.rows if self._upper is None else self._upper[0])

    def row(self, e: int) -> tuple[int | Fraction, ...]:
        """Row e, exact: the same object as rows[e]."""
        return self.rows[e]

    def pairs(self) -> Iterator[tuple[int, int, int | Fraction]]:
        """(e, f, value) for each nonzero cell right of the diagonal, e < f,
        in row-major order; a kept triangle is read without building rows."""
        # ids in a tuple, not a range, so compress makes no int per cell
        columns = tuple(range(self.m))
        for e, upper in enumerate(self._uppers()[0]):
            yield from zip(repeat(e), compress(columns[e + 1 :], upper), compress(upper, upper))

    def is_zero(self) -> bool:
        """Whether no cell of Q is nonzero."""
        return next(self.pairs(), None) is None

    def is_nonnegative(self) -> bool:
        return min(map(min, self.rows), default=0) >= 0

    def scaled(self, alpha: object) -> "InteractionMatrix":
        """alpha times every entry, a whole product as an int."""
        a = as_rational(alpha)
        return InteractionMatrix._of_exact(
            map(as_rational, map(mul, repeat(a), row)) for row in self.rows
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"InteractionMatrix(m={self.m})"


@dataclass(frozen=True)
class QsppInstance:
    """Quadratic shortest path instance (graph, source, target, linear, interaction)."""

    graph: Digraph
    source: int
    target: int
    linear: tuple[Fraction, ...]
    interaction: InteractionMatrix

    def __post_init__(self):
        check_endpoints(self.graph, self.source, self.target)
        object.__setattr__(self, "linear", rational_vector(self.linear))
        if len(self.linear) != self.graph.m:
            raise ValueError("linear cost vector length must equal the arc count")
        if self.interaction.m != self.graph.m:
            raise ValueError("interaction matrix order must equal the arc count")


@dataclass(frozen=True)
class SppInstance:
    """Plain shortest path instance (graph, source, target, linear)."""

    graph: Digraph
    source: int
    target: int
    linear: tuple[Fraction, ...]

    def __post_init__(self):
        check_endpoints(self.graph, self.source, self.target)
        object.__setattr__(self, "linear", rational_vector(self.linear))
        if len(self.linear) != self.graph.m:
            raise ValueError("linear cost vector length must equal the arc count")


def cost_of_arcs(inst: QsppInstance, arcs: Sequence[int]) -> Fraction:
    """Path cost of an already-validated arc sequence."""
    rows = inst.interaction.rows
    linear = inst.linear
    total = 0
    for k, a in enumerate(arcs):
        total += linear[a] + 2 * sum(map(rows[a].__getitem__, arcs[:k]))
    return as_rational(total)


def path_cost(inst: QsppInstance, path: Path) -> Fraction:
    """Total cost of a source-target path: interaction double sum plus linear sum."""
    validate_path(inst.graph, path, inst.source, inst.target)
    return cost_of_arcs(inst, path.arcs)


def linear_cost(linear: Sequence[Fraction], path: Path) -> Fraction:
    """Cost of a path under a plain linear cost vector."""
    return as_rational(sum(linear[a] for a in path.arcs))


def brute_force_solve(
    inst: QsppInstance, limit: int = DEFAULT_PATH_LIMIT
) -> tuple[Path, Fraction]:
    """Exact optimum by depth-first branch and bound; ties keep the earliest
    path.

    Where the part of the graph that reaches the target is acyclic, a
    prefix whose completion bound (see graphs) reaches the best path found
    is not extended, whatever the signs of c and Q; elsewhere every path is
    priced.  Raises PathLimitExceeded past ``limit`` paths and NoPathError
    if the target is unreachable.
    """
    g, c, q = inst.graph, inst.linear, inst.interaction
    best: tuple[tuple[int, ...], int | Fraction] | None = None
    for arcs, cost in _walk_st_paths(g, inst.source, inst.target, limit, c, q.rows, bounded=True):
        if best is None or cost < best[1]:
            best = (arcs, cost)
    if best is None:
        raise NoPathError(f"no path from {inst.source} to {inst.target}")
    return Path(best[0]), as_rational(best[1])


def _reconstruct(g: Digraph, pred_arc: list[int | None], target: int) -> Path:
    arcs = []
    v = target
    while pred_arc[v] is not None:
        a = pred_arc[v]
        arcs.append(a)
        v = g.arcs[a].head
    arcs.reverse()
    return Path(tuple(arcs))


def _relax(
    g: Digraph, source: int, target: int, costs: Sequence, order: Sequence[int] | None = None
) -> tuple[Path, Fraction]:
    """Shortest source-target path and its cost: each visited vertex relaxes
    its out-arcs, and a label changes only on strict improvement.  The
    visits follow ``order``, a topological order, or else, for nonnegative
    costs, Dijkstra's settle order from a heap of (label, vertex); they stop
    at the target, whose label is then final."""
    dist: list = [None] * g.n
    pred: list[int | None] = [None] * g.n
    dist[source] = 0
    heap = [(0, source)]

    def settled() -> Iterator[int]:
        while heap:
            d, u = heapq.heappop(heap)
            if d == dist[u]:  # else the label has improved since this push
                yield u

    for u in settled() if order is None else order:
        if u == target:
            break
        du = dist[u]
        if du is None:
            continue
        for a in g.out_arcs(u):
            v = g.arcs[a].tail
            nd = du + costs[a]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred[v] = a
                if order is None:
                    heapq.heappush(heap, (nd, v))
    if dist[target] is None:
        raise NoPathError(f"no path from {source} to {target}")
    return _reconstruct(g, pred, target), as_rational(dist[target])


def spp_solve(spp: SppInstance) -> tuple[Path, Fraction]:
    """Shortest path: label-setting for nonnegative costs, topological
    relaxation for acyclic graphs with negative entries.

    Negative costs on a cyclic graph are refused outright.
    """
    order = None
    if not all(c >= 0 for c in spp.linear):
        order = topological_order(spp.graph)
        if order is None:
            raise CyclicGraphError("negative arc costs require an acyclic graph")
    return _relax(spp.graph, spp.source, spp.target, spp.linear, order)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_instance(inst: QsppInstance) -> ValidationReport:
    """The nonnegativity that the problem definition asks of c and Q; the
    structural invariants hold by construction.

    Never raises; returns a report listing every violated condition.
    """
    violations = []
    if any(c < 0 for c in inst.linear):
        violations.append("negative linear cost (problem definition requires c >= 0)")
    if not inst.interaction.is_nonnegative():
        violations.append("negative interaction cost (problem definition requires Q >= 0)")
    return ValidationReport(not violations, tuple(violations))
