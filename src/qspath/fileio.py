"""Plain-text instance files, bit-exact for rationals.

Layout (whitespace-tolerant on parsing, canonical on emission):

    QSPP 1
    n <vertices>
    m <arcs>
    s <source>
    t <target>
    arc <id> <head> <tail>        (m lines, ids dense and ascending)
    c
    <m rationals>
    Q sparse <k>                  (k lines "<e> <f> <value>", e != f;
                                   each line sets both symmetric cells)
    -- or --
    Q dense                       (m rows of m rationals, must be symmetric
                                   with a zero diagonal)

Rationals are integers or numerator/denominator pairs like 3/2; floats never
appear.  Grid instances use the row-major vertex numbering, so a p-by-q grid
vertex in row i, column j (1-based) is vertex (i-1)*q + (j-1).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import FormatError
from .graphs import Digraph
from .model import InteractionMatrix, QsppInstance, as_rational


def emit_instance(inst: QsppInstance) -> str:
    """Canonical text form; parse(emit(x)) reproduces x exactly."""
    g = inst.graph
    lines = ["QSPP 1", f"n {g.n}", f"m {g.m}", f"s {inst.source}", f"t {inst.target}"]
    for arc_id, arc in enumerate(g.arcs):
        lines.append(f"arc {arc_id} {arc.head} {arc.tail}")
    lines.append("c")
    lines.append(" ".join(str(v) for v in inst.linear) if inst.linear else "")
    entries = inst.interaction.upper_entries()
    lines.append(f"Q sparse {len(entries)}")
    for e, f, value in entries:
        lines.append(f"{e} {f} {value}")
    return "\n".join(lines) + "\n"


class _Tokens:
    def __init__(self, text: str):
        self.items = text.split()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise FormatError(f"unexpected end of file, expected {what}")
        token = self.items[self.pos]
        self.pos += 1
        return token

    def next_int(self, what: str) -> int:
        token = self.next(what)
        try:
            return int(token)
        except ValueError:
            raise FormatError(
                f"token {self.pos} ({token!r}): expected integer {what}"
            ) from None

    def next_count(self, what: str) -> int:
        value = self.next_int(what)
        if value < 0:
            raise FormatError(
                f"token {self.pos}: {what} must not be negative, got {value}"
            )
        return value

    def next_rational(self, what: str) -> int | Fraction:
        token = self.next(what)
        try:
            return as_rational(token)
        except (ValueError, ZeroDivisionError, TypeError):
            raise FormatError(
                f"token {self.pos} ({token!r}): expected rational {what}"
            ) from None

    def expect(self, literal: str) -> None:
        token = self.next(f"keyword {literal!r}")
        if token != literal:
            raise FormatError(f"token {self.pos}: expected {literal!r}, got {token!r}")

    def done(self) -> None:
        if self.pos != len(self.items):
            raise FormatError(
                f"trailing data from token {self.pos + 1} ({self.items[self.pos]!r})"
            )


def parse_instance(text: str) -> QsppInstance:
    """Parse the canonical text form back into an instance."""
    tok = _Tokens(text)
    tok.expect("QSPP")
    tok.expect("1")
    tok.expect("n")
    n = tok.next_count("vertex count")
    tok.expect("m")
    m = tok.next_count("arc count")
    tok.expect("s")
    source = tok.next_int("source")
    tok.expect("t")
    target = tok.next_int("target")
    arcs = []
    for expected_id in range(m):
        tok.expect("arc")
        arc_id = tok.next_int("arc id")
        if arc_id != expected_id:
            raise FormatError(f"arc ids must be dense and ascending, got {arc_id}")
        head = tok.next_int("arc head")
        tail = tok.next_int("arc tail")
        arcs.append((head, tail))
    try:
        graph = Digraph(n, arcs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    tok.expect("c")
    linear = tuple(tok.next_rational(f"linear cost {i}") for i in range(m))
    tok.expect("Q")
    kind = tok.next("matrix kind (sparse or dense)")
    if kind == "sparse":
        count = tok.next_count("entry count")
        triples = (
            (
                tok.next_int("entry row"),
                tok.next_int("entry column"),
                tok.next_rational("entry value"),
            )
            for _ in range(count)
        )
        try:
            matrix = InteractionMatrix.from_triples(m, triples)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    elif kind == "dense":
        rows = [
            [tok.next_rational(f"Q[{i}][{j}]") for j in range(m)] for i in range(m)
        ]
        matrix = InteractionMatrix(rows)
        if not matrix.is_symmetric():
            raise FormatError("dense interaction matrix must be symmetric")
        if not matrix.has_zero_diagonal():
            raise FormatError("dense interaction matrix must have a zero diagonal")
    else:
        raise FormatError(f"unknown matrix kind {kind!r}")
    tok.done()
    try:
        return QsppInstance(graph, source, target, linear, matrix)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
