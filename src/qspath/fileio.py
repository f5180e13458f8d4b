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

The emitter writes rationals as integers or numerator/denominator pairs like
3/2.  The parser also accepts decimal tokens such as 1.5 or 1e3 and reads
them exactly, as Fraction does (1.5 is 3/2, 1e3 is the int 1000); no value
ever becomes a float.  A value whose numerator or denominator would have
more than model.MAX_DIGITS (4,300) digits, the most str() prints, is
refused, 1e5000 as much as 4,301 digits spelled out.  Grid instances use
the row-major vertex numbering, so a p-by-q grid vertex in row i, column j
(1-based) is vertex (i-1)*q + (j-1).

The emitter writes Q a row at a time, right of the diagonal, each row one
join of its nonzero cells' texts "f v", in one of three ways:

- A weak-sum, product or zero Q kept as its vector a (_kept) is written
  from a (_outer_rows).  For each distinct x = a[e], the texts of the cells
  op(x, a[f]) are built once, from the first row holding x onward, and
  every row holding x is a slice of that list, from which compress drops
  the zero cells only where the list holds one.  Distinct values start at
  distinct rows, so no more texts are built than the triangle has cells,
  whatever the largest value.
- A random fill's kept triangle (_uppers, with the top in _kept) is read
  through a table of the texts "f v" for every arc id f and every whole
  0 < v < top, one list of length top per column, built once per file when
  it holds no more texts than Q has cells right of the diagonal; filter
  drops the zero cells (_upper_rows).  _of_upper's promise puts every value
  in range(top): a value at or past top raises IndexError from the table,
  and a negative one, which a list would wrap round, is refused by one min
  over each row that is not bytes (a bytes row holds none).
- Every other matrix, and a triangle too large for the table, goes the way
  the rows of any matrix go (_upper_rows too): itertools.compress picks
  the nonzero cells, named from a table of id strings.

Values, like the linear costs, are written through a table from each whole
number below m, and below a kept form's top when that is no more texts
than Q has cells right of the diagonal, to its text, or through str as a
whole row when one misses it: one read, _through, for every table of
emitter and parser, each with its fallback for a run the table misses.

The parser reads the text as a stream.  It splits one slice at a time,
about 16 KiB cut at a newline (a text with no later newline is one slice),
so no list of all the file's tokens is ever built; token numbers in messages
count on across slices.  The arc lines are converted a column at a time,
the linear costs and each row of a dense Q one block each (_values).  The
entries of a sparse Q are converted one slice of whole "e f v" records at a
time, and each slice is checked and written into the rows of Q at once by
the one entry checker in model, whose bitmap of seen cells also finds a
pair repeated from an earlier slice.
Arc ids, vertex ids, entry ids and entry values are read through a table
from each canonical id string to its int, built once per file and no larger
than the text could hold tokens (L characters hold at most L//2 + 1); a
column holding any other spelling (007, +3, an id out of range, a value
such as -3 or 3/2) goes through int, or as_rational for values, as a whole,
so it reads as those read it.  Tokens are read one at a time only when a
block or a slice does not convert cleanly: it is then read again token by
token, its pairs going to the same checker, so a malformed file always
gets the FormatError for its first fault in file order.

How the checker writes a slice's entries, its long rows at once, is told in
model._EntryRows.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress, islice, repeat
from operator import add, getitem
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import FormatError, InternalError
from .graphs import Digraph
from .model import (
    InteractionMatrix,
    QsppInstance,
    _decimal_texts,
    _EntryRows,
    as_rational,
    rational_tokens,
)

T = TypeVar("T")


def _through(table: Mapping, items: Sequence, otherwise: Callable[[Sequence], list]) -> list:
    """Each item read through the table, or otherwise(items) as a whole when
    the table misses one (see the module docstring)."""
    try:
        return list(map(table.__getitem__, items))
    except KeyError:
        return otherwise(items)


def _cell_table(named: list[str], top: int) -> list[list[str | None]]:
    """table[f][v] is the text "f v" of a cell in column f holding the whole
    number v, 0 < v < top, and None for v = 0, so that filter(None, ...)
    drops the zero cells.  Each column is a list of length top, so a value
    v >= top raises IndexError; a bytes row holds no negative value, and
    the emitter refuses one in any other row before it reads the table,
    where a list would wrap it round."""
    values = list(map(str, range(1, top)))
    return [[None, *map(add, repeat(name), values)] for name in named]


def _outer_rows(
    a: Sequence[int], op: Callable[[int, int], int], named: list[str], texts: dict[int, str]
) -> Iterator[list[str]]:
    """The texts "f v" of each row of Q[e][f] = op(a[e], a[f]) right of the
    diagonal, zero cells dropped: each row a slice of one list per distinct
    a[e] (see the module docstring)."""
    # per distinct value: the row that built its list, the list, and its
    # values when one of them is zero (else None)
    lists: dict[int, tuple[int, list[str], list[int] | None]] = {}
    for e, x in enumerate(a):
        if x not in lists:
            values = list(map(op, repeat(x), a[e + 1 :]))
            cells = list(map(add, named[e + 1 :], _through(texts, values, _decimal_texts)))
            lists[x] = (e, cells, values if 0 in values else None)
        first, cells, values = lists[x]
        k = e - first
        yield cells[k:] if values is None else list(compress(cells[k:], values[k:]))

def _upper_rows(
    uppers: Iterable[Sequence[int | Fraction]],
    top: int | None,
    named: list[str],
    texts: dict[int, str],
) -> Iterator[list[str]]:
    """The texts of each row's nonzero cells: through the cell table for a
    kept triangle when that holds at most as many texts as there are cells
    right of the diagonal, and otherwise by compress."""
    m = len(named)
    cells = _cell_table(named, top) if top is not None and m * top <= m * (m - 1) // 2 else None
    for e, upper in enumerate(uppers):
        if cells is not None:
            if type(upper) is not bytes and min(upper, default=0) < 0:
                raise IndexError(f"row {e} of a kept triangle holds a negative value")
            yield list(filter(None, map(getitem, cells[e + 1 :], upper)))
        else:
            # compress picks the nonzero cells, each named by "<f> " from a
            # table and given its value's text
            values = _through(texts, list(compress(upper, upper)), _decimal_texts)
            yield list(map(add, compress(named[e + 1 :], upper), values))


def emit_instance(inst: QsppInstance) -> str:
    """Canonical text form; parse(emit(x)) reproduces x exactly."""
    g = inst.graph
    m = g.m
    lines = ["QSPP 1", f"n {g.n}", f"m {m}", f"s {inst.source}", f"t {inst.target}"]
    for arc_id, arc in enumerate(g.arcs):
        lines.append(f"arc {arc_id} {arc.head} {arc.tail}")
    # Q's kept form (see model) and its top; the text of each whole number
    # below m, and below that top if it is no more texts than Q has cells
    # right of the diagonal: as a value, and with a space after it as an id
    kept = inst.interaction._kept
    top = None if kept is None else kept[-1]
    span = m if top is None or top > m * (m - 1) // 2 else max(m, top)
    texts = dict(enumerate(map(str, range(span))))
    named = [text + " " for text in islice(texts.values(), m)]
    lines.append("c")
    lines.append(" ".join(_through(texts, inst.linear, _decimal_texts)))
    # Q a row at a time, in one of the three ways the module docstring tells
    if kept is not None and len(kept) == 3:
        rows = _outer_rows(kept[0], kept[1], named, texts)
    else:
        rows = _upper_rows(inst.interaction._uppers(), top, named, texts)
    count = 0
    blocks = []
    for e, row in enumerate(rows):
        if row:
            count += len(row)
            blocks.append(named[e] + ("\n" + named[e]).join(row))
    lines.append(f"Q sparse {count}")
    lines.extend(blocks)
    # the final newline as an empty last line, so the text is built once
    lines.append("")
    return "\n".join(lines)


# characters per slice of the text the parser splits at once; a slice ends
# at the first newline this far past its start, or at the end of the text.
# A slice's tokens are the largest short-lived allocation of a parse: at
# 16 KiB the traced peak of parsing a 12x12 random file is 1.1 MB against
# 2.1 MB at 64 KiB, and it parses no slower; at 8 KiB the peak falls only
# to 0.9 MB, and 4 KiB slices parse 12x12 and 16x16 files 6-8 % slower
_SLICE_CHARS = 1 << 14


class _Tokens:
    """The whitespace-separated tokens of a text, split one slice at a time.

    items[at:] are the tokens split so far and not yet read; base counts
    the tokens read before items[0], so pos, the number of the last token
    read, runs on across slices.  A slice ends at a newline, so no token is
    ever cut in two.
    """

    def __init__(self, text: str):
        self.text = text
        self.cut = 0
        self.items: list[str] = []
        self.at = 0
        self.base = 0

    @property
    def pos(self) -> int:
        return self.base + self.at

    def _more(self) -> bool:
        """Drop the tokens read and add the next slice's; False at the end
        of the text."""
        text = self.text
        if self.cut >= len(text):
            return False
        newline = text.find("\n", self.cut + _SLICE_CHARS)
        end = len(text) if newline < 0 else newline + 1
        del self.items[: self.at]
        self.base += self.at
        self.at = 0
        self.items += text[self.cut : end].split()
        self.cut = end
        return True

    def _has(self, count: int) -> bool:
        """Whether count more tokens are there, splitting slices as needed."""
        while len(self.items) - self.at < count:
            if not self._more():
                return False
        return True

    def next(self, what: str) -> str:
        if self.at == len(self.items) and not self._has(1):
            raise FormatError(f"unexpected end of file, expected {what}")
        token = self.items[self.at]
        self.at += 1
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
        if self._has(1):
            raise FormatError(
                f"trailing data from token {self.pos + 1} ({self.items[self.at]!r})"
            )

    def records(self, count: int, width: int) -> int:
        """How many whole records of width tokens, up to count, the next
        slice holds: those already split, or else those the next slices
        add.  0 only when fewer than width tokens are left in the text."""
        self._has(width)
        return min(count, (len(self.items) - self.at) // width)

    def block(
        self,
        size: int,
        convert: Callable[[list[str], int, int], T],
        rescan: Callable[[], object],
    ) -> T:
        """Convert the next size tokens in whole-column passes.

        convert(items, start, end) reads items[start:end] a column at a time.
        If the text ends first or convert raises, rescan reads the same
        tokens one at a time with the methods above and raises the
        FormatError that names the first fault in file order.
        """
        if self._has(size):
            try:
                result = convert(self.items, self.at, self.at + size)
            except (ValueError, ZeroDivisionError, TypeError):
                pass
            else:
                self.at += size
                return result
        start = self.pos
        rescan()
        raise InternalError(f"block at token {start + 1} failed to convert but rescanned clean")


def _ints(tokens: list[str], ids: dict[str, int]) -> list[int]:
    """int over a column of id tokens, read through the table ids; a token
    it does not hold (007, +3, an id out of range) sends the whole column
    through int, which raises ValueError on a token that is no integer."""
    return _through(ids, tokens, lambda column: list(map(int, column)))


def _arcs(
    items: list[str], start: int, end: int, ids: dict[str, int]
) -> list[tuple[int, int]]:
    """Lines 'arc <id> <head> <tail>' with ids 0, 1, ... as (head, tail) pairs."""
    m = (end - start) // 4
    keywords = items[start:end:4]
    if keywords != ["arc"] * m or _ints(items[start + 1:end:4], ids) != list(range(m)):
        raise ValueError("arc lines out of form")
    return list(zip(_ints(items[start + 2:end:4], ids), _ints(items[start + 3:end:4], ids)))


def _rescan_arcs(tok: _Tokens, m: int) -> None:
    for expected_id in range(m):
        tok.expect("arc")
        arc_id = tok.next_int("arc id")
        if arc_id != expected_id:
            raise FormatError(f"arc ids must be dense and ascending, got {arc_id}")
        tok.next_int("arc head")
        tok.next_int("arc tail")


def _entries(
    items: list[str], start: int, end: int, ids: dict[str, int]
) -> tuple[list[int], list[int], list[int | Fraction]]:
    """Lines '<e> <f> <value>' as an e column, an f column and exact values;
    most values are small whole numbers, so they too are read through the
    id table, and a column holding any other token goes through
    rational_tokens as a whole."""
    values = _through(ids, items[start + 2:end:3], rational_tokens)
    return _ints(items[start:end:3], ids), _ints(items[start + 1:end:3], ids), values


def _values(tok: _Tokens, count: int, name: Callable[[int], str]) -> list[int | Fraction]:
    """The next count rationals in one block; its rescan alone reads them a
    token at a time, naming the k-th name(k)."""
    return tok.block(
        count,
        lambda items, start, end: rational_tokens(items[start:end]),
        lambda: [tok.next_rational(name(k)) for k in range(count)],
    )


def _rescan_entries(tok: _Tokens, rows: _EntryRows, count: int) -> None:
    for _ in range(count):
        e = tok.next_int("entry row")
        f = tok.next_int("entry column")
        value = tok.next_rational("entry value")
        try:
            rows._add_each((e,), (f,), (value,))
        except ValueError as exc:
            raise FormatError(str(exc)) from None


def _sparse(tok: _Tokens, m: int, count: int, ids: dict[str, int]) -> InteractionMatrix:
    """The count entry lines of a sparse Q, converted and written one slice
    of whole records at a time."""
    try:
        rows = _EntryRows(m)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    while count:
        # with no whole record left, the rescan of the rest meets the end
        k = tok.records(count, 3) or count
        es, fs, values = tok.block(
            3 * k, partial(_entries, ids=ids), lambda: _rescan_entries(tok, rows, k)
        )
        try:
            rows.add(es, fs, values)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        count -= k
    return rows.matrix()


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
    # canonical vertex and arc ids by their text; no more of them than the
    # text can hold tokens, so a huge n or m in a short file builds no large
    # table
    ids = {str(k): k for k in range(min(max(n, m), len(text) // 2 + 1))}
    arcs = tok.block(4 * m, partial(_arcs, ids=ids), lambda: _rescan_arcs(tok, m))
    try:
        graph = Digraph(n, arcs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    tok.expect("c")
    linear = _values(tok, m, "linear cost {}".format)
    tok.expect("Q")
    kind = tok.next("matrix kind (sparse or dense)")
    if kind == "sparse":
        matrix = _sparse(tok, m, tok.next_count("entry count"), ids)
    elif kind == "dense":
        rows = [_values(tok, m, partial("Q[{}][{}]".format, i)) for i in range(m)]
        try:
            matrix = InteractionMatrix(rows)
        except ValueError as exc:
            raise FormatError(f"dense {exc}") from None
    else:
        raise FormatError(f"unknown matrix kind {kind!r}")
    tok.done()
    try:
        return QsppInstance(graph, source, target, linear, matrix)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
