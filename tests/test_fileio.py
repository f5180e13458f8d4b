import random
import re
from fractions import Fraction

import pytest

from qspath import (
    Digraph,
    FormatError,
    InteractionMatrix,
    QsppInstance,
    emit_instance,
    fileio,
    make_complete_symmetric,
    make_grid,
    make_hypercube,
    parse_instance,
)
from qspath.generate import fill_product, filled_instance
from qspath.graphs import MAX_VERTICES
from qspath import model
from qspath.model import as_rational

from helpers import naive_emit, parallel_arcs_text, traced_peak
from zoo import every_family, filled_grid, q_over, signed_redraw


def test_round_trip_every_family():
    for inst in every_family():
        assert inst == parse_instance(emit_instance(inst))


# slice lengths, in characters, short enough that every test file is cut
# into many slices, at every line or a few lines at a time
SLICES = [1, 2, 3, 17, 64]


@pytest.mark.parametrize("chars", SLICES)
def test_round_trip_every_family_at_short_slices(chars, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    for inst in every_family():
        text = emit_instance(inst)
        assert text.find("\n", chars) < len(text) - 1  # two slices at least
        assert inst == parse_instance(text)


def _entry_lines_split(text: str) -> str:
    """text with the e f v tokens of its entry lines rewrapped two to a
    line, so every other record is split across two lines."""
    head, _, entries = text.partition("Q sparse ")
    count, _, body = entries.partition("\n")
    tokens = body.split()
    pairs = [" ".join(tokens[k : k + 2]) for k in range(0, len(tokens), 2)]
    return f"{head}Q sparse {count}\n" + "\n".join(pairs) + "\n"


@pytest.mark.parametrize("chars", [*SLICES, 1 << 16])
@pytest.mark.parametrize(
    "layout",
    [_entry_lines_split, lambda text: text.replace("\n", " "), lambda text: text.replace("\n", "\r\n")],
    ids=["split-records", "no-newline", "crlf"],
)
def test_parse_reads_any_line_layout_at_any_slice_length(layout, chars, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    inst = filled_grid(3, 4, "random", 6)
    text = layout(emit_instance(inst))
    assert parse_instance(text) == inst
    # a fault in the last record keeps its token number
    tokens = text.split()
    bad = text[: text.rindex(tokens[-1])] + "zz" + text[text.rindex(tokens[-1]) + len(tokens[-1]) :]
    with pytest.raises(FormatError) as info:
        parse_instance(bad)
    assert str(info.value) == f"token {len(tokens)} ('zz'): expected rational entry value"


@pytest.mark.parametrize("chars", [17, 64, 1 << 16])
def test_parse_finds_a_pair_repeated_in_a_later_slice(chars, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    text = emit_instance(filled_grid(3, 3, "random", 2))
    head, _, entries = text.partition("Q sparse ")
    count, _, body = entries.partition("\n")
    e, f, value = body.split("\n")[0].split()
    repeated = f"{head}Q sparse {int(count) + 1}\n{body}{f} {e} {value}\n"
    if chars < len(body):
        assert len(body) > 2 * chars  # the two lines lie in different slices
    with pytest.raises(FormatError) as info:
        parse_instance(repeated)
    assert str(info.value) == f"pair ({f},{e}) listed twice"


def test_parse_peaks_below_a_split_of_the_whole_text():
    text = emit_instance(filled_grid(12, 12, "random", 1))
    assert traced_peak(lambda: parse_instance(text)) < traced_peak(text.split)


# counts near 10**9 in files of a few dozen characters, with the messages
# the parser gave before its id table was bounded by the text's length
HUGE_COUNTS = [
    (
        "QSPP 1 n 999999999 m 999999998 s 0 t 1 arc 0 0 1 arc 1 1 2 c 0 0 Q sparse 0",
        "token 19: expected 'arc', got 'c'",
    ),
    (
        "QSPP 1\nn 1000000000\nm 999999937\ns 0\nt 999999999\narc 0 0 999999999\nc\n5\n"
        "Q sparse 1\n0 999999936 4\n",
        "token 15: expected 'arc', got 'c'",
    ),
]


@pytest.mark.parametrize("text,message", HUGE_COUNTS)
def test_huge_counts_in_a_short_file_build_no_large_table(text, message):
    def parse():
        with pytest.raises(FormatError) as info:
            parse_instance(text)
        assert str(info.value) == message

    assert traced_peak(parse) < 64 * 1024


# a short, otherwise valid file whose vertex count would cost two lists per
# vertex; refused by the vertex bound before any of them is built
HUGE_VERTEX_COUNT = "QSPP 1 n 999999999 m 2 s 0 t 2 arc 0 0 1 arc 1 1 2 c 0 0 Q sparse 0"


def test_vertex_count_past_the_bound_is_a_format_error():
    assert len(HUGE_VERTEX_COUNT) < 100

    def parse():
        with pytest.raises(FormatError) as info:
            parse_instance(HUGE_VERTEX_COUNT)
        assert str(info.value) == "vertex count 999999999 exceeds the bound of 1000000"

    assert traced_peak(parse) < 64 * 1024


def test_arc_count_past_the_bound_is_a_format_error(monkeypatch):
    """Refused before the entry checker builds its rows and bitmap."""
    monkeypatch.setattr(model, "MAX_ARCS", 100)
    assert parse_instance(parallel_arcs_text(100)).graph.m == 100
    text = parallel_arcs_text(101)

    def parse():
        with pytest.raises(FormatError) as info:
            parse_instance(text)
        assert str(info.value) == "arc count 101 exceeds the bound of 100"

    assert traced_peak(parse) < 64 * 1024


def test_digraph_refuses_a_vertex_count_past_the_bound():
    with pytest.raises(ValueError, match=f"{MAX_VERTICES + 1} exceeds the bound"):
        Digraph(MAX_VERTICES + 1, [(0, 1)])


def test_round_trip_negative_and_fractional_values():
    g = make_grid(2, 2)
    inst = QsppInstance(
        g,
        0,
        3,
        (Fraction(-3, 2), Fraction(7), Fraction(0), Fraction(1, 3)),
        InteractionMatrix.from_entries(4, {(0, 3): Fraction(-5, 4)}),
    )
    text = emit_instance(inst)
    assert "-3/2" in text and "-5/4" in text
    assert inst == parse_instance(text)


def test_parse_dense_matrix():
    text = """QSPP 1
    n 2 m 2 s 0 t 1
    arc 0 0 1
    arc 1 0 1
    c 1 2
    Q dense
    0 3/2
    3/2 0
    """
    inst = parse_instance(text)
    assert inst.interaction.row(0)[1] == Fraction(3, 2)
    assert inst.linear == (1, 2)


def test_parse_rejects_malformed_files():
    good = emit_instance(filled_grid(2, 2, "zero", None))
    with pytest.raises(FormatError):
        parse_instance(good.replace("QSPP 1", "QSPP 2", 1))
    with pytest.raises(FormatError, match="dense and ascending"):
        parse_instance(good.replace("arc 1 ", "arc 7 ", 1))
    with pytest.raises(FormatError, match="trailing"):
        parse_instance(good + "\nextra")
    with pytest.raises(FormatError, match="expected rational"):
        parse_instance(good.replace("c\n0 0 0 0", "c\n0 zz 0 0"))
    with pytest.raises(FormatError):
        parse_instance("")


def test_parse_rejects_bad_sparse_entries():
    head = "QSPP 1 n 2 m 2 s 0 t 1 arc 0 0 1 arc 1 0 1 c 0 0 "
    with pytest.raises(FormatError, match="diagonal"):
        parse_instance(head + "Q sparse 1 1 1 5")
    with pytest.raises(FormatError, match="twice"):
        parse_instance(head + "Q sparse 2 0 1 5 1 0 5")
    with pytest.raises(FormatError, match="outside"):
        parse_instance(head + "Q sparse 1 0 9 5")


@pytest.mark.parametrize(
    "text",
    [
        "QSPP 1 n -2 m 0 s 0 t 1 c Q sparse 0",
        "QSPP 1 n 2 m -1 s 0 t 1 c Q sparse 0",
        "QSPP 1 n 2 m 2 s 0 t 1 arc 0 0 1 arc 1 0 1 c 0 0 Q sparse -1",
    ],
)
def test_parse_rejects_negative_counts(text):
    with pytest.raises(FormatError, match="must not be negative"):
        parse_instance(text)


def test_parse_rejects_asymmetric_dense():
    text = "QSPP 1 n 2 m 2 s 0 t 1 arc 0 0 1 arc 1 0 1 c 0 0 Q dense 0 1 2 0"
    with pytest.raises(FormatError, match="symmetric"):
        parse_instance(text)


def test_parse_rejects_structural_errors():
    with pytest.raises(FormatError):
        parse_instance("QSPP 1 n 2 m 1 s 0 t 0 arc 0 0 1 c 0 Q sparse 0")
    with pytest.raises(FormatError):
        parse_instance("QSPP 1 n 2 m 1 s 0 t 1 arc 0 0 5 c 0 Q sparse 0")


def assert_exact(inst: QsppInstance) -> None:
    """Whole values are ints, every other value a Fraction."""
    for v in list(inst.linear) + [v for row in inst.interaction.rows for v in row]:
        assert type(v) is (int if v.denominator == 1 else Fraction)


def test_parse_accepts_shuffled_reversed_and_zero_entries():
    g = make_grid(2, 2)
    head = "QSPP 1 n 4 m 4 s 0 t 3 arc 0 0 2 arc 1 0 1 arc 2 1 3 arc 3 2 3 c 0 0 0 0 "
    # out of row-major order, e > f, and an explicitly listed zero
    text = head + "Q sparse 4  3 1 4  2 0 0  1 0 7  3 2 -2"
    expected = QsppInstance(
        g, 0, 3, (0, 0, 0, 0),
        InteractionMatrix([[0, 7, 0, 0], [7, 0, 0, 4], [0, 0, 0, -2], [0, 4, -2, 0]]),
    )
    inst = parse_instance(text)
    assert inst == expected
    assert_exact(inst)


def test_parse_reads_signed_fractional_and_decimal_tokens_exactly():
    g = make_grid(2, 2)
    head = "QSPP 1 n 4 m 4 s 0 t 3 arc 0 0 2 arc 1 0 1 arc 2 1 3 arc 3 2 3 "
    text = head + "c -5/4 1.5 1e3 6/2 Q sparse 3  0 3 -5/4  1 2 1.5  0 1 1e3"
    inst = parse_instance(text)
    expected = QsppInstance(
        g, 0, 3, (Fraction(-5, 4), Fraction(3, 2), 1000, 3),
        InteractionMatrix.from_entries(
            4, {(0, 3): Fraction(-5, 4), (1, 2): Fraction(3, 2), (0, 1): 1000}
        ),
    )
    assert inst == expected
    assert_exact(inst)
    assert type(inst.linear[2]) is int and type(inst.interaction.row(1)[0]) is int


def test_parse_reads_values_outside_the_table_as_as_rational_does():
    # the table holds "0".."11" here; each other spelling, in a column of
    # table values, must read as as_rational reads it
    spellings = ["3/2", "1.5", "-3", "007", "1_0", "-0", "+4", "12", "1e3", "6/2"]
    g = make_grid(3, 3)
    head = emit_instance(QsppInstance(g, 0, 8, (0,) * g.m, InteractionMatrix.zero(g.m)))
    head = head[: head.index("Q sparse")]
    for odd in spellings:
        tokens = ["5", "11", odd, "0"]
        lines = [f"{k} {k + 1} {v}" for k, v in enumerate(tokens)]
        inst = parse_instance(head + f"Q sparse {len(lines)}\n" + "\n".join(lines) + "\n")
        values = [inst.interaction.row(k)[k + 1] for k in range(len(tokens))]
        assert values == [as_rational(t) for t in tokens]
        assert_exact(inst)


def test_parse_accepts_empty_blocks():
    g = make_grid(2, 2)
    head = "QSPP 1 n 4 m 4 s 0 t 3 arc 0 0 2 arc 1 0 1 arc 2 1 3 arc 3 2 3 c 1 2 3 4 "
    inst = parse_instance(head + "Q sparse 0")
    assert inst == QsppInstance(g, 0, 3, (1, 2, 3, 4), InteractionMatrix.zero(4))
    assert_exact(inst)
    bare = parse_instance("QSPP 1 n 2 m 0 s 0 t 1 c Q sparse 0")
    assert (bare.graph.n, bare.graph.m, bare.linear, bare.interaction.rows) == (2, 0, (), ())


def _emit_cases():
    for fill in ("zero", "random", "weak-sum", "product", "adjacent"):
        for g in (make_grid(3, 4), make_complete_symmetric(5, simplified=True)):
            yield filled_instance(g, 0, g.n - 1, fill, seed=7, max_entry=3)
    rng = random.Random(11)
    g = make_grid(3, 3)
    signed = {
        (e, f): Fraction(rng.randint(-9, 9), rng.choice((1, 3, 4)))
        for e in range(g.m)
        for f in range(e + 1, g.m)
        if rng.random() < 0.5
    }
    linear = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(g.m))
    yield QsppInstance(g, 0, 8, linear, InteractionMatrix.from_entries(g.m, signed))
    yield QsppInstance(g, 0, 8, (0,) * g.m, InteractionMatrix.zero(g.m))
    # the edges of the emitter's table of texts, which holds the whole
    # numbers below m: each value in c, in a row beside a table value, and
    # alone in a row
    m = g.m
    for value in (m - 1, m, -1, -m, 10**30):
        entries = {(0, 1): value, (0, 2): 1, (1, 2): value}
        linear = (value,) + (1,) * (m - 1)
        yield QsppInstance(g, 0, 8, linear, InteractionMatrix.from_entries(m, entries))
    # one row of table values and one Fraction, beside rows of table values
    mixed = {(0, 1): 2, (0, 2): Fraction(7, 2), (0, 3): m - 1, (1, 2): 3, (2, 3): m - 1}
    linear = (1, Fraction(1, 3)) + (0,) * (m - 2)
    yield QsppInstance(g, 0, 8, linear, InteractionMatrix.from_entries(m, mixed))
    # a fill whose entries all fall outside the table
    k4 = make_complete_symmetric(4, simplified=True)
    wide = filled_instance(k4, 0, 3, "random", seed=1, max_entry=100)
    assert all(v >= k4.m for row in wide.interaction.rows for v in row if v)
    yield wide


def test_emit_matches_the_naive_emitter():
    texts = [emit_instance(inst) for inst in _emit_cases()]
    assert texts == [naive_emit(inst) for inst in _emit_cases()]
    assert any("\nQ sparse 0\n" in text for text in texts)
    assert any(re.search(r"\n\d+ \d+ -\d+/\d+\n", text) for text in texts)


def _emit_from_upper(g, uppers, top, linear=None):
    """emit_instance's text of the matrix that keeps this upper triangle and
    top, of the same matrix from its rows, and naive_emit's."""
    m = g.m
    rows = [[0] * m for _ in range(m)]
    for e, upper in enumerate(uppers):
        for f, value in enumerate(upper, e + 1):
            rows[e][f] = rows[f][e] = value
    linear = (0,) * m if linear is None else linear
    inst = QsppInstance(g, 0, g.n - 1, linear, InteractionMatrix(rows))
    kept = QsppInstance(g, 0, g.n - 1, linear, InteractionMatrix._of_upper(uppers, top))
    return emit_instance(kept), emit_instance(inst), naive_emit(inst)


def test_emit_matches_the_naive_emitter_at_every_table_edge(monkeypatch):
    """Every seeded fill on either side of each edge of the emitter's cell
    table and of the fills' byte rows: tops of 1 (all zero) up to 2 * 256 + 1,
    tables built (top <= (m - 1) / 2) and not built, bytes rows (top <= 256)
    and list rows.  The product fill caps its values at 3 through
    filled_instance, so its list rows are drawn by fill_product directly."""
    built = []
    real = fileio._cell_table

    def counted(named, top):
        built.append(top)
        return real(named, top)

    monkeypatch.setattr(fileio, "_cell_table", counted)
    graphs = (make_grid(3, 4), make_grid(6, 6), make_complete_symmetric(5), make_hypercube(3))
    seen = set()
    for g in graphs:
        instances = [
            filled_instance(g, 0, g.n - 1, fill, seed=max_entry + 1, max_entry=max_entry)
            for fill in ("random", "weak-sum", "product")
            for max_entry in (0, 1, 3, 9, 127, 128, 255, 256)
        ]
        for max_entry in (15, 16):
            linear, matrix = fill_product(g, random.Random(max_entry), max_entry)
            instances.append(QsppInstance(g, 0, g.n - 1, linear, matrix))
        for inst in instances:
            uppers, top = inst.interaction._uppers()
            del built[:]
            text = emit_instance(inst)
            seen.add((type(uppers[0]), bool(built)))
            assert built in ([], [top])
            assert text == naive_emit(inst)
    assert seen == {(bytes, True), (bytes, False), (list, False)}


def test_cell_table_writes_what_the_naive_emitter_writes():
    """The table of "f v" texts holds the whole numbers 0 <= v < top, every
    value _of_upper's promise allows; a top whose table would hold more
    texts than Q has cells writes the triangle by compress."""
    g = make_grid(3, 4)  # m = 17, so the table is built for top <= 8
    m = g.m
    assert m * 8 <= m * (m - 1) // 2 < m * 9
    rng = random.Random(4)

    def upper(values):
        return [[rng.choice(values) for _ in range(m - 1 - e)] for e in range(m)]

    cases = [
        # the value top - 1
        (upper([0, 7]), 8),
        # all zero
        ([[0] * (m - 1 - e) for e in range(m)], 1),
        # bytes rows, as the random fill cuts them
        ([bytes(rng.randrange(8) for _ in range(m - 1 - e)) for e in range(m)], 8),
        # values far past the cell count, and a top whose table would hold
        # more texts than Q has cells, so none is built
        (upper([0, 10**30, 3]), 10**30 + 1),
        (upper([0, 1, 2]), 9),
        (upper([0, 250, 255]), 256),
    ]
    for uppers, top in cases:
        ours, adapted, naive = _emit_from_upper(g, uppers, top)
        assert ours == adapted == naive
    # a linear cost vector off the value table, beside a Q on the cell table
    linear = (Fraction(-1, 2), m, -3) + (1,) * (m - 3)
    ours, adapted, naive = _emit_from_upper(g, upper([0, 1, 5]), 6, linear)
    assert ours == adapted == naive
    # a small m with large values: no table at all
    k = make_complete_symmetric(3, simplified=True)
    uppers = [[rng.randrange(1000) for _ in range(k.m - 1 - e)] for e in range(k.m)]
    ours, adapted, naive = _emit_from_upper(k, uppers, 1000)
    assert ours == adapted == naive


def test_cell_table_is_built_only_up_to_the_cell_count(monkeypatch):
    built = []
    real = fileio._cell_table

    def counted(named, top):
        built.append((len(named), top))
        return real(named, top)

    monkeypatch.setattr(fileio, "_cell_table", counted)
    g = make_grid(3, 4)
    for top in (1, 8, 9, 10**6):
        _emit_from_upper(g, [[0] * (g.m - 1 - e) for e in range(g.m)], top)
    # only the kept triangles with m * top <= m(m - 1)/2 = 136 get one; the
    # same matrices built from rows get none
    assert built == [(g.m, 1), (g.m, 8)]


@pytest.mark.parametrize("value", [8, 255, 10**30, -1])
def test_cell_table_refuses_a_value_outside_the_promise(value):
    """A kept triangle holding a value outside range(top) breaks _of_upper's
    promise; the emitter raises IndexError rather than write a wrong text.
    A value at or past top falls off the end of its column's list, in a list
    row or a bytes row alike; a negative one, which a list would wrap round,
    is refused in a row that is not bytes, and a bytes row cannot hold one."""
    g = make_grid(3, 4)  # m = 17, so top 8 gets a table
    rows = (list, bytes) if 0 <= value < 256 else (list,)
    for row in rows:
        uppers = [[1] * (g.m - 1 - e) for e in range(g.m)]
        uppers[5][2] = value
        uppers = list(map(row, uppers))
        matrix = InteractionMatrix._of_upper(uppers, 8)
        inst = QsppInstance(g, 0, g.n - 1, (0,) * g.m, matrix)
        with pytest.raises(IndexError):
            emit_instance(inst)


def test_cell_table_serves_only_a_kept_triangle(monkeypatch):
    """A matrix that has only rows (the zero and adjacent fills, a parsed
    file, a scaled Q, a filled Q whose rows were read) is written by
    compress, with no table and no scan for its largest value."""
    monkeypatch.setattr(fileio, "_cell_table", None)
    filled = filled_grid(4, 4, "weak-sum", 2)
    filled.interaction.rows
    instances = [
        filled,
        filled_grid(4, 4, "zero", None),
        filled_grid(4, 4, "adjacent", 2),
        parse_instance(naive_emit(filled)),
        q_over(filled, 3),
    ]
    for inst in instances:
        assert inst.interaction._uppers()[1] is None
        assert emit_instance(inst) == naive_emit(inst)


def test_emit_writes_a_filled_instance_without_building_its_rows(monkeypatch):
    """An instance from a random, weak-sum or product fill is written from
    the fill's upper triangle; its m*m rows are built only when something
    reads them."""
    for fill in ("random", "weak-sum", "product"):
        inst = filled_grid(4, 5, fill, 3)
        monkeypatch.setattr(InteractionMatrix, "_mirrored", None)
        text = emit_instance(inst)
        monkeypatch.undo()
        assert text == naive_emit(inst)


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def _respelled(text: str, every: int) -> str:
    """text with every so-many arc and entry id token written another way
    that int reads as the same number: 007, +3, -0, Arabic-Indic digits."""
    spellings = (
        lambda t: "00" + t,
        lambda t: "+" + t,
        lambda t: "-0" if t == "0" else t.translate(ARABIC_INDIC),
    )
    out, in_entries, k = [], False, 0
    for line in text.splitlines():
        parts = line.split()
        columns = range(1, 4) if parts[:1] == ["arc"] else range(2) if in_entries else ()
        for j in columns:
            if k % every == 0:
                parts[j] = spellings[k // every % 3](parts[j])
            k += 1
        in_entries = in_entries or parts[:2] == ["Q", "sparse"]
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("every", [1, 2, 7, 1000])
def test_parse_reads_ids_outside_the_table_through_int(every):
    inst = filled_grid(3, 3, "random", 5)
    text = emit_instance(inst)
    odd = _respelled(text, every)
    assert odd != text
    if every == 1:
        tokens = odd.split()
        assert {"007", "+3", "-0", "\u0666"} <= set(tokens)
    assert parse_instance(odd) == inst


# Messages a file with an id out of range, negative or huge gets, pinned as
# the parser gave them before ids were read through a table.
BAD_IDS = [
    ("arc 2 1 4", "arc 9 1 4", "arc ids must be dense and ascending, got 9"),
    ("arc 2 1 4", "arc -2 1 4", "arc ids must be dense and ascending, got -2"),
    ("arc 2 1 4", "arc 2 6 4", "arc (6,4) references a vertex outside [0,6)"),
    (
        "arc 2 1 4",
        "arc 2 99999999999999999999 4",
        "arc (99999999999999999999,4) references a vertex outside [0,6)",
    ),
    ("arc 2 1 4", "arc 2 1 -1", "arc (1,-1) references a vertex outside [0,6)"),
    ("\n1 3 7\n", "\n7 3 7\n", "entry (7,3) outside the arc range"),
    ("\n1 3 7\n", "\n-1 3 7\n", "entry (-1,3) outside the arc range"),
    ("\n1 3 7\n", "\n1 +7 7\n", "entry (1,7) outside the arc range"),
    ("\n1 3 7\n", "\n1 -3 7\n", "entry (1,-3) outside the arc range"),
    (
        "\n1 3 7\n",
        "\n1 99999999999999999999 7\n",
        "entry (1,99999999999999999999) outside the arc range",
    ),
]


@pytest.mark.parametrize("old,new,message", BAD_IDS)
def test_parse_keeps_the_messages_for_bad_ids(old, new, message):
    text = emit_instance(filled_grid(2, 3, "random", 1))
    assert text.count(old) == 1
    with pytest.raises(FormatError) as info:
        parse_instance(text.replace(old, new))
    assert str(info.value) == message


# Rows written at once: the entries of a row e that a slice lists together,
# _RUN_MIN or more of them, are written by _EntryRows._add_row, in slices
# when they list the row in full and in one loop when it is gapped.  The
# reference reads the same text with every entry of a slice handed to
# _EntryRows._add_each, as the parser did before rows were written at once.


def _per_entry(rows, es, fs, values):
    rows._add_each(es, fs, values)


def _outcome(text: str):
    """What parse_instance makes of text: the instance's parts, or the
    FormatError message."""
    try:
        inst = parse_instance(text)
    except FormatError as exc:
        return str(exc)
    return inst.graph.n, inst.graph.arcs, inst.source, inst.target, inst.linear, inst.interaction.rows


def _canonical(name: str) -> tuple[str, int]:
    """The canonical text of a named seeded instance, and its m."""
    fill, shape, *rest = name.split()
    p, q = map(int, shape.split("x"))
    inst = filled_grid(p, q, fill, p * q, 999 if "999" in rest else 9)
    if "Q/3" in rest:
        inst = q_over(inst, 3)
    if "signed" in rest:
        inst = signed_redraw(inst, random.Random(p * q))
    return emit_instance(inst), inst.graph.m


CANONICAL = [
    "weak-sum 4x5",
    "weak-sum 6x7",
    "random 5x4",
    "random 4x6 999",
    "product 4x4",
    "adjacent 5x5",
    "weak-sum 5x5 Q/3",
    "weak-sum 4x5 signed",
]


def _rows_of_q(text: str) -> dict[int, list[int]]:
    """The f ids listed in each row e of the entry lines, in file order."""
    listed: dict[int, list[int]] = {}
    for line in text.partition("Q sparse ")[2].splitlines()[1:]:
        e, f, _ = line.split()
        listed.setdefault(int(e), []).append(int(f))
    return listed


def _rows_to_mutate(text: str, m: int, rng: random.Random) -> list[int]:
    """Two rows listed in full and one gapped row of Q, those there are,
    each of two or more entries."""
    full, gapped = [], []
    for e, fs in _rows_of_q(text).items():
        if len(fs) >= 2:
            (full if fs == list(range(e + 1, m)) else gapped).append(e)
    return rng.sample(full, min(2, len(full))) + rng.sample(gapped, min(1, len(gapped)))


# a mutation that reads as the canonical text it came from
SAME = object()


def _mutations(text: str, m: int, rng: random.Random, rows: list[int]):
    """(name, mutated text, what it reads as) for faults and reorderings
    placed in the given rows of Q, rows of canonical entry lines with two
    or more entries each.  What it reads as is the FormatError message,
    SAME, or None where only the per-entry reference says."""
    head, _, entries = text.partition("Q sparse ")
    lines = entries.partition("\n")[2].splitlines()
    span: dict[int, list[int]] = {}
    for k, line in enumerate(lines):
        span.setdefault(int(line.split()[0]), [k, k])[1] = k + 1

    def text_of(new_lines: list[str]) -> str:
        return f"{head}Q sparse {len(new_lines)}\n" + "".join(x + "\n" for x in new_lines)

    for e in rows:
        start, end = span[e]
        k = rng.randrange(start, end)
        _, f, value = lines[k].split()
        twice = f"pair ({e},{f}) listed twice"
        # the pair listed earlier the other way round: the run meets its cell seen
        before = rng.randint(0, start)
        yield "flipped-repeat", text_of(lines[:before] + [f"{f} {e} {value}"] + lines[before:]), twice
        later = rng.randint(k + 1, len(lines))
        yield "repeat", text_of(lines[:later] + [lines[k]] + lines[later:]), twice
        yield "past-the-end", text_of(
            lines[:end] + [f"{e} {m} 1"] + lines[end:]
        ), f"entry ({e},{m}) outside the arc range"
        if lines[end - 1].split()[1] == str(m - 1):
            shifted = [f"{e} {int(f) + 1} {value}" for _, f, value in map(str.split, lines[start:end])]
            yield "run-ending-at-m", text_of(
                lines[:start] + shifted + lines[end:]
            ), f"entry ({e},{m}) outside the arc range"
        # a repeated f next to its first listing: the row is written, undone
        # and read again by _add_each
        yield "repeat-inside", text_of(lines[: k + 1] + [lines[k]] + lines[k + 1 :]), twice
        if k + 1 < end:
            swapped = lines[:]
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            yield "swapped-neighbours", text_of(swapped), SAME
        middle = (start + end) // 2
        if e > 0:
            yield "below-e-inside", text_of(
                lines[:middle] + [f"{e} {rng.randrange(e)} 1"] + lines[middle:]
            ), None
        yield "past-m-inside", text_of(
            lines[:middle] + [f"{e} {m} 1"] + lines[middle + 1 :]
        ), f"entry ({e},{m}) outside the arc range"
        yield "diagonal", text_of(
            lines[:k] + [f"{e} {e} 1"] + lines[k:]
        ), "diagonal interaction entries must stay zero"
        yield "out-of-range", text_of(
            lines[:k] + [f"{e} {m + 2} {value}"] + lines[k + 1 :]
        ), f"entry ({e},{m + 2}) outside the arc range"
        j = rng.randrange(start, end)
        swapped = lines[:]
        swapped[k], swapped[j] = swapped[j], swapped[k]
        yield "reordered", text_of(swapped), SAME
        yield "flipped", text_of(lines[:k] + [f"{f} {e} {value}"] + lines[k + 1 :]), SAME
        yield "respelled", text_of(lines[:k] + [f"00{e} {f} {value}"] + lines[k + 1 :]), SAME
        # another row's id inside the run, whose ends still match
        inner = rng.randrange(start, end - 1)
        f = lines[inner].split()[1]
        other = rng.choice([x for x in range(m) if x not in (e, int(f))])
        yield "other-row-inside", text_of(
            lines[:inner] + [f"{other} {f} 1"] + lines[inner + 1 :]
        ), None


def _assert_same_as_per_entry(text: str, expected, monkeypatch) -> None:
    with monkeypatch.context() as patch:
        patch.setattr(model._EntryRows, "add", _per_entry)
        reference = _outcome(text)
    assert _outcome(text) == reference
    if expected is not None:
        assert reference == expected


# slice lengths and shortest runs written at once: runs of two entries, at
# short slices too, put the run path into the small files as well
@pytest.mark.parametrize("chars,run_min", [(64, 2), (1 << 16, 2), (1 << 16, model._RUN_MIN)])
@pytest.mark.parametrize("name", CANONICAL)
def test_rows_written_at_once_read_as_entry_by_entry(name, chars, run_min, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    monkeypatch.setattr(model, "_RUN_MIN", run_min)
    text, m = _canonical(name)
    original = _outcome(text)
    assert isinstance(original, tuple)
    _assert_same_as_per_entry(text, original, monkeypatch)
    rng = random.Random(f"{name} {chars} {run_min}")
    rows = _rows_to_mutate(text, m, rng)
    assert rows
    for kind, mutated, expected in _mutations(text, m, rng, rows):
        _assert_same_as_per_entry(mutated, original if expected is SAME else expected, monkeypatch)


def test_rows_crossing_a_slice_boundary_read_as_entry_by_entry(monkeypatch):
    """A 16x16 weak-sum file and a 12x12 random file span several slices
    of _SLICE_CHARS, and some of their rows are cut by a slice's end: rows
    listed in full in the first, gapped rows in the second.  The mutated
    rows are the first one cut and the first one cut with _RUN_MIN or more
    entries on each side, which _add_row writes in two pieces."""
    for name, listed_in_full in (("weak-sum 16x16", True), ("random 12x12", False)):
        text, m = _canonical(name)
        original = _outcome(text)
        _assert_same_as_per_entry(text, original, monkeypatch)
        rows_of_q = _rows_of_q(text)
        entries = text.index("Q sparse")
        cut_rows = []
        cut = 0
        while len(cut_rows) < 2:
            cut = text.find("\n", cut + fileio._SLICE_CHARS) + 1
            assert cut > 0
            row = int(text[text.rfind("\n", 0, cut - 1) + 1 :].split()[0])
            if text[cut:].split()[0] != str(row):
                continue
            before = text[entries:cut].count(f"\n{row} ")
            if not cut_rows or min(before, len(rows_of_q[row]) - before) >= model._RUN_MIN:
                cut_rows.append(row)
        for row in cut_rows:
            assert (rows_of_q[row] == list(range(row + 1, m))) == listed_in_full
        for kind, mutated, expected in _mutations(text, m, random.Random(16), cut_rows):
            _assert_same_as_per_entry(mutated, original if expected is SAME else expected, monkeypatch)


def test_a_refill_inside_q_holds_one_slice_of_tokens(monkeypatch):
    """Once the entries of Q have begun, each refill leaves unread only the
    part of a record carried over, fewer than three tokens, and one slice's
    tokens.  A slice ends at the first newline _SLICE_CHARS past its start,
    so it holds at most _SLICE_CHARS characters and one line, and L
    characters hold at most L//2 + 1 tokens.  The parse's transient memory
    rests on this bound: a parser that split the entries of Q whole would
    break it."""
    more = fileio._Tokens._more
    for name in ("random 12x12", "weak-sum 16x16"):
        text, _ = _canonical(name)
        # the tokens up to and including "Q sparse <count>"
        first_entry = len(text.partition("Q sparse ")[0].split()) + 3
        longest = max(map(len, text.splitlines(keepends=True)))
        bound = (fileio._SLICE_CHARS + longest) // 2 + 1
        refills = []

        def spy(self):
            carried = len(self.items) - self.at
            added = more(self)
            if added and self.pos >= first_entry:
                refills.append((carried, len(self.items) - self.at))
            return added

        with monkeypatch.context() as patch:
            patch.setattr(fileio._Tokens, "_more", spy)
            parse_instance(text)
        # Q was read in slices: all but the one holding "Q sparse" came
        # after its entries had begun
        entries = len(text) - text.index("Q sparse")
        assert len(refills) >= entries // (fileio._SLICE_CHARS + longest) - 1
        for carried, unread in refills:
            assert carried < 3
            assert unread <= carried + bound


def test_fully_listed_rows_bypass_the_per_entry_checker(monkeypatch):
    """In a weak-sum 8x8 file (one 64 KiB slice) whose rows are all listed
    in full, every row of _RUN_MIN or more entries is written by _add_row,
    so _add_each gets only the short rows at the end of Q, and no entry at
    all when every row may be written at once.  So is every row of a random
    8x8 file, whose rows are gapped, up to its first row shorter than
    _RUN_MIN, where the walk over the rows ends."""
    # what one slice's row walk hands on, so the whole file is one slice
    monkeypatch.setattr(fileio, "_SLICE_CHARS", 1 << 16)
    g = make_grid(8, 8)
    rng = random.Random(8)
    a = [rng.randint(1, 9) for _ in range(g.m)]
    rows = [[0 if e == f else x + y for f, y in enumerate(a)] for e, x in enumerate(a)]
    inst = QsppInstance(g, 0, 63, (0,) * g.m, InteractionMatrix(rows))
    text = emit_instance(inst)
    assert len(text) < fileio._SLICE_CHARS
    handed = []
    add_each = model._EntryRows._add_each

    def counting(self, es, fs, values):
        es = list(es)
        handed.extend(es)
        add_each(self, es, fs, values)

    monkeypatch.setattr(model._EntryRows, "_add_each", counting)
    short = [e for e in range(g.m) for _ in range(e + 1, g.m) if g.m - 1 - e < model._RUN_MIN]
    assert parse_instance(text) == inst
    assert handed == short
    gapped = filled_instance(g, 0, 63, "random", seed=8, max_entry=9)
    gapped_text = emit_instance(gapped)
    assert len(gapped_text) < fileio._SLICE_CHARS
    listed = _rows_of_q(gapped_text)
    long_rows = [e for e, fs in listed.items() if len(fs) >= model._RUN_MIN]
    full = [e for e in long_rows if listed[e] == list(range(e + 1, g.m))]
    assert len(full) < len(long_rows) // 10
    handed.clear()
    assert parse_instance(gapped_text) == gapped
    first_short = min(e for e, fs in listed.items() if len(fs) < model._RUN_MIN)
    assert first_short >= g.m - model._RUN_MIN - 8
    assert handed == [e for e, fs in listed.items() for _ in fs if e >= first_short]
    handed.clear()
    monkeypatch.setattr(model, "_RUN_MIN", 1)
    assert parse_instance(text) == inst
    assert handed == []
    # the per-entry reference hands _add_each every entry of the same file
    monkeypatch.setattr(model._EntryRows, "add", _per_entry)
    assert parse_instance(text) == inst
    assert len(handed) == g.m * (g.m - 1) // 2
