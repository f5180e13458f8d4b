import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspath import (
    CyclicGraphError,
    Digraph,
    InteractionMatrix,
    InvalidPathError,
    NoPathError,
    Path,
    PathLimitExceeded,
    QsppInstance,
    SppInstance,
    brute_force_solve,
    build_path_matrix,
    count_grid_paths,
    enumerate_st_paths,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    path_cost,
    qap_to_qspp,
    spp_solve,
    validate_instance,
)
from qspath.generate import filled_instance, random_qap
from qspath.graphs import DEFAULT_PATH_LIMIT
from qspath import model
from qspath.model import _RUN_MIN, ValidationReport, _EntryRows, as_rational, rational_tokens

from helpers import (
    arc_index,
    double_loop_cost,
    first_cheapest,
    naive_st_paths,
    path_by_vertices,
    quadratic_form_cost,
    traced_peak,
)
from zoo import PRICED_WALK_FILLS, SHORT_PATHS_COSTLY, agreement_instances, filled_grid
from zoo import knstar_instance, priced_walk_instances, random_costs, random_q
from zoo import random_symmetric_interaction


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational(7) == 7
    exact = Fraction(5, 3)
    assert as_rational(exact) is exact


def test_rational_tokens_read_each_distinct_token_once(monkeypatch):
    """A column that is not all integers goes through as_rational once per
    distinct token, and gives the values, types and errors that as_rational
    over every token gives."""
    rng = random.Random(3)
    pool = ["7/3", "1", "-2", "1.5", "1e3", "14/6", "4/2", "0", "-5/7", str(10**30)]
    columns = [[rng.choice(pool) for _ in range(300)] for _ in range(5)] + [["2/3"], pool]
    calls = []

    def counted(token):
        calls.append(token)
        return as_rational(token)

    monkeypatch.setattr(model, "as_rational", counted)
    for tokens in columns:
        calls.clear()
        values = rational_tokens(tokens)
        assert sorted(calls) == sorted(set(tokens))
        expected = list(map(as_rational, tokens))
        assert values == expected
        assert list(map(type, values)) == list(map(type, expected))
    for bad in (["1", "1/2", "x", "1/2"], ["1/2", "1/0", "x"], ["3", "0.5/2"], ["1", "1/2", "1/x"]):
        with pytest.raises(Exception) as ours:
            rational_tokens(bad)
        with pytest.raises(Exception) as theirs:
            list(map(as_rational, bad))
        assert type(ours.value) is type(theirs.value)


def test_interaction_matrix_constructors():
    q = InteractionMatrix.from_entries(3, {(0, 2): "1/2"})
    assert q.rows == ((0, 0, Fraction(1, 2)), (0, 0, 0), (Fraction(1, 2), 0, 0))
    with pytest.raises(ValueError):
        InteractionMatrix.from_entries(3, {(1, 1): 1})
    with pytest.raises(ValueError, match="listed twice"):
        InteractionMatrix.from_entries(3, {(0, 2): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="outside the arc range"):
        InteractionMatrix.from_entries(3, {(0, 3): 1})
    with pytest.raises(ValueError, match="outside the arc range"):
        InteractionMatrix.from_entries(3, {(-1, 0): 1})
    with pytest.raises(ValueError, match="^interaction matrix must be square$"):
        InteractionMatrix([[0, 1], [1, 0], [0, 0]])
    with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
        InteractionMatrix([[0, 1], [2, 0]])
    # symmetry is checked before the diagonal
    with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
        InteractionMatrix([[5, 1], [2, 0]])
    with pytest.raises(ValueError, match="^interaction matrix must have a zero diagonal$"):
        InteractionMatrix([[0, 1], [1, "1/2"]])
    assert InteractionMatrix([["0", "3/6"], [Fraction(1, 2), 0]]).rows == (
        (0, Fraction(1, 2)),
        (Fraction(1, 2), 0),
    )
    # another type compares unequal rather than raising, the repr holds the
    # order, and an attribute the matrix lacks is named in the error
    q = InteractionMatrix.zero(3)
    assert (q == q.rows) is False and q != "Q"
    assert repr(q) == "InteractionMatrix(m=3)"
    with pytest.raises(AttributeError, match="'InteractionMatrix' object has no attribute 'nope'"):
        q.nope


@pytest.mark.parametrize("mixed", [False, True])
def test_is_nonnegative_finds_one_negative_cell_anywhere(mixed):
    """A single negative Fraction at the first, a middle or the last pair
    flips the result, among int entries or int and Fraction ones."""
    m = 6
    pairs = [(e, f) for e in range(m) for f in range(e + 1, m)]
    base = {
        pair: Fraction(k, 3) if mixed and k % 3 else k for k, pair in enumerate(pairs)
    }
    assert {type(v) for v in base.values()} == ({int, Fraction} if mixed else {int})
    assert InteractionMatrix.from_entries(m, base).is_nonnegative()
    for pair in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
        matrix = InteractionMatrix.from_entries(m, {**base, pair: Fraction(-1, 3)})
        assert not matrix.is_nonnegative()
    assert InteractionMatrix.zero(m).is_nonnegative()
    assert InteractionMatrix.zero(0).is_nonnegative()


# faulty entries for a 5-arc matrix whose entries start with (1, 3, 4),
# each with the message that names it
FAULTS = {
    "range": ((0, 5, 1), "entry (0,5) outside the arc range"),
    "range-and-diagonal": ((7, 7, 1), "entry (7,7) outside the arc range"),
    "negative": ((-1, 2, 1), "entry (-1,2) outside the arc range"),
    "diagonal": ((2, 2, 0), "diagonal interaction entries must stay zero"),
    "repeat": ((3, 1, 9), "pair (3,1) listed twice"),
    "repeat-same-way": ((1, 3, 4), "pair (1,3) listed twice"),
}


@pytest.mark.parametrize("seed", range(12))
def test_from_triples_names_the_first_fault(seed):
    rng = random.Random(seed)
    names = rng.sample(sorted(FAULTS), rng.randint(2, len(FAULTS)))
    entries = [("clean", (1, 3, 4)), ("clean", (0, 4, 2))]
    for name in names:
        entries.insert(rng.randint(2, len(entries)), (name, FAULTS[name][0]))
    first = next(name for name, _ in entries if name != "clean")
    triples = [triple for _, triple in entries]
    with pytest.raises(ValueError) as info:
        InteractionMatrix.from_triples(5, triples)
    assert str(info.value) == FAULTS[first][1]


@pytest.mark.parametrize("seed", range(24))
def test_from_triples_on_long_rows_is_the_per_entry_path(seed, monkeypatch):
    """from_triples hands long ascending rows, listed in full or gapped, to
    _EntryRows._add_row; with repeats, out-of-range and diagonal entries
    planted in them it builds the matrix _add_each builds over the same
    triples, or raises the same first ValueError."""
    rng = random.Random(seed)
    m = 48
    rows = []
    for e in range(m - 1):
        fs = list(range(e + 1, m))
        if rng.random() < 0.5:
            for _ in range(rng.randrange(len(fs) // 4 + 1)):
                fs.pop(rng.randrange(len(fs)))
        rows.append([(e, f, rng.randint(1, 9)) for f in fs])
    for _ in range(rng.randint(0, 3)):
        # a fault inside a row long enough to be written at once, or a
        # repeat next to its first listing, which is written and undone;
        # rows 0 and 1 stay clean, so the walk always writes one of them
        e = rng.randrange(2, m - _RUN_MIN)
        row = rows[e]
        k = rng.randrange(len(row))
        _, f, value = row[k]
        planted = [(e, f, value), (f, e, value), (e, e, 1), (e, m, 1), (e, -1, 1), (m, f, 1)]
        if rng.random() < 0.25:
            row.insert(k + 1, row[k])
        else:
            row.insert(rng.randint(0, len(row)), rng.choice(planted))
    if rng.random() < 0.5:
        # the cut end of a row first, as a slice of a file may start, before
        # the walk's first long row
        del rows[0][: -rng.randint(1, _RUN_MIN - 1)]
    triples = [triple for row in rows for triple in row]
    written = []
    add_row = _EntryRows._add_row

    def spying(self, e, fs, values):
        written.append(e)
        add_row(self, e, fs, values)

    def per_entry():
        rows = _EntryRows(m)
        rows._add_each(*zip(*triples))
        return rows.matrix()

    def outcome(build):
        try:
            return build().rows
        except ValueError as exc:
            return str(exc)

    monkeypatch.setattr(_EntryRows, "_add_row", spying)
    built = outcome(lambda: InteractionMatrix.from_triples(m, triples))
    assert written
    assert built == outcome(per_entry)


# the rows handed to _EntryRows._add_row, by what _add_each makes of them:
# the first two are clean, "repeat" is written and then undone, "unsorted"
# is clean but goes to _add_each, and the rest fault
ROW_KINDS = (
    "consecutive",
    "gapped",
    "consecutive-faulty",
    "repeat",
    "unsorted",
    "contains-e",
    "below-e",
    "negative",
    "reaches-m",
    "past-m",
    "seen",
    "row-out-of-range",
)


def _row_of_kind(kind: str, rng: random.Random, m: int) -> tuple[int, list[int]]:
    """(e, fs) of the named kind for an m-arc matrix."""
    e = rng.randint(1, m - 4)
    if kind == "consecutive" or kind == "seen" and rng.random() < 0.5:
        f = rng.randint(e + 1, m - 1)
        return e, list(range(f, rng.randint(f + 1, m)))
    if kind == "consecutive-faulty":
        # across the diagonal, below 0 or past m
        return e, list(range(*rng.choice([(e - 1, e + 3), (-2, 3), (m - 3, m + 2)])))
    fs = sorted(rng.sample(range(e + 1, m), rng.randint(2, m - 1 - e)))
    if kind == "repeat":
        k = rng.randrange(len(fs))
        fs.insert(k, fs[k])
    elif kind == "unsorted":
        fs[0], fs[-1] = fs[-1], fs[0]
    elif kind == "contains-e":
        fs.insert(0, e)
    elif kind == "below-e":
        fs.insert(0, rng.randrange(e))
    elif kind == "negative":
        fs.insert(0, -rng.randint(1, m))
    elif kind == "reaches-m":
        fs.append(m)
    elif kind == "past-m":
        fs.append(m + rng.randint(1, m))
    elif kind == "row-out-of-range":
        e = rng.choice([-1, m, m + 1])
    return e, fs


@pytest.mark.parametrize("seed", range(40))
def test_add_run_is_add_over_the_run(seed):
    """_EntryRows._add_row(e, fs, values) over a run fs = [f, f + 1, ...]
    writes and raises exactly what _add_each does over the entries (e, f),
    (e, f + 1), ...: runs inside a row, runs whose cells were seen,
    flipped, diagonal, negative and past-the-end runs."""
    rng = random.Random(seed)
    m = 7
    fast, slow = _EntryRows(m), _EntryRows(m)
    for _ in range(8):
        if rng.random() < 0.75:
            e = rng.randint(0, m - 2)
            f = rng.randint(e + 1, m - 1)
            n = rng.randint(1, m - f)
        else:
            e, f, n = rng.randint(-1, m), rng.randint(-1, m), rng.randint(1, m)
        fs = list(range(f, f + n))
        values = [rng.randint(1, 9) for _ in range(n)]
        outcomes = []
        for add in (
            lambda: fast._add_row(e, fs, values),
            lambda: slow._add_each(repeat(e), fs, values),
        ):
            try:
                add()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert fast.rows == slow.rows and fast.seen == slow.seen
        if outcomes[0]:
            break


@pytest.mark.parametrize("seed", range(40))
def test_add_row_is_add_over_the_row(seed):
    """_EntryRows._add_row(e, fs, values) writes and raises exactly what
    _add_each does over the entries (e, f) for f in fs: consecutive and
    gapped rows, a repeated f (written, then undone), unsorted rows, f's on,
    left of or below the diagonal and at or past m, cells seen before, and
    rows out of range.  Each kind comes first, on a fresh matrix, at some seed."""
    rng = random.Random(seed)
    m = 12
    fast, slow = _EntryRows(m), _EntryRows(m)
    for step in range(6):
        kind = ROW_KINDS[(seed + step) % len(ROW_KINDS)] if step == 0 else rng.choice(ROW_KINDS)
        e, fs = _row_of_kind(kind, rng, m)
        if kind == "seen":
            # a cell of the row, seen through the mirror pair
            f = rng.choice(fs)
            for rows in (fast, slow):
                rows._add_each((f,), (e,), (7,))
        values = [rng.choice([0, 1, 5, 9, Fraction(-2, 3)]) for _ in fs]
        outcomes = []
        for add in (
            lambda: fast._add_row(e, fs, values),
            lambda: slow._add_each(repeat(e), fs, values),
        ):
            try:
                add()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], kind
        assert fast.rows == slow.rows and fast.seen == slow.seen, kind
        if outcomes[0]:
            break


def test_instance_dimension_checks():
    g = make_grid(2, 2)
    with pytest.raises(ValueError):
        QsppInstance(g, 0, 3, (0,) * 3, InteractionMatrix.zero(4))
    with pytest.raises(ValueError):
        QsppInstance(g, 0, 3, (0,) * 4, InteractionMatrix.zero(5))
    with pytest.raises(ValueError):
        QsppInstance(g, 1, 1, (0,) * 4, InteractionMatrix.zero(4))
    with pytest.raises(ValueError, match="^linear cost vector length must equal the arc count$"):
        SppInstance(g, 0, 3, (0,) * 3)


@pytest.mark.parametrize("e", [0, 99, 198])
def test_symmetry_checks_find_one_asymmetric_pair_anywhere(e):
    """A 200-arc matrix of distinct Fraction objects, symmetric but for the
    pair (e, e+1): first, middle or last in the order rows are checked.  The
    constructor accepts the symmetric matrix and refuses the other."""
    m = 200
    rng = random.Random(e)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            num, den = rng.randint(-9, 9), rng.randint(1, 4)
            rows[a][b], rows[b][a] = Fraction(num, den), Fraction(num, den)
    assert InteractionMatrix(rows).rows == tuple(map(tuple, rows))
    rows[e][e + 1] += Fraction(1, 3)
    with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
        InteractionMatrix(rows)


def test_path_cost_short_route_pair():
    inst = knstar_instance(4, SHORT_PATHS_COSTLY)
    p1 = path_by_vertices(inst.graph, (0, 1, 3))
    assert path_cost(inst, p1) == 2
    p3 = path_by_vertices(inst.graph, (0, 1, 2, 3))
    assert path_cost(inst, p3) == 0


def test_path_cost_zero_interaction_is_linear_sum():
    g = make_grid(2, 3)
    linear = tuple(Fraction(i + 1) for i in range(g.m))
    inst = QsppInstance(g, 0, 5, linear, InteractionMatrix.zero(g.m))
    for p in enumerate_st_paths(g, 0, 5):
        assert path_cost(inst, p) == sum(linear[a] for a in p.arcs)


def test_path_cost_rejects_invalid_paths():
    inst = knstar_instance(4, SHORT_PATHS_COSTLY)
    with pytest.raises(InvalidPathError):
        path_cost(inst, Path(()))
    with pytest.raises(InvalidPathError):
        path_cost(inst, path_by_vertices(inst.graph, (0, 1, 2)))
    idx = arc_index(inst.graph)
    broken = Path((idx[(0, 1)], idx[(2, 3)]))
    with pytest.raises(InvalidPathError):
        path_cost(inst, broken)
    repeating = Path(
        (idx[(0, 1)], idx[(1, 2)], idx[(2, 1)], idx[(1, 3)])
    )
    with pytest.raises(InvalidPathError):
        path_cost(inst, repeating)


def test_path_cost_agrees_with_both_oracles():
    rng = random.Random(11)
    for _ in range(25):
        p_dim, q_dim = rng.randint(2, 4), rng.randint(2, 4)
        g = make_grid(p_dim, q_dim)
        linear = tuple(Fraction(rng.randint(-5, 9)) for _ in range(g.m))
        inst = QsppInstance(
            g, 0, g.n - 1, linear, random_symmetric_interaction(g.m, rng, -4, 9)
        )
        for path in enumerate_st_paths(g, 0, g.n - 1):
            value = path_cost(inst, path)
            assert value == quadratic_form_cost(inst, path)
            assert value == double_loop_cost(inst, path)


def test_path_cost_scaling():
    g = make_grid(3, 3)
    inst = random_costs(g, 0, 8, random.Random(5))
    alpha = Fraction(7, 3)
    scaled = QsppInstance(
        g, 0, 8, tuple(alpha * c for c in inst.linear), inst.interaction.scaled(alpha)
    )
    for path in enumerate_st_paths(g, 0, 8):
        assert path_cost(scaled, path) == alpha * path_cost(inst, path)


def test_brute_force_is_a_lower_bound_and_breaks_ties_first():
    inst = knstar_instance(4, SHORT_PATHS_COSTLY)
    best_path, best_cost = brute_force_solve(inst)
    costs = [path_cost(inst, p) for p in enumerate_st_paths(inst.graph, 0, 3)]
    assert best_cost == min(costs)
    assert all(best_cost <= c for c in costs)
    # both length-3 routes cost zero; enumeration meets (0,1,2,3) first
    assert best_path.arcs == (0, 2, 5)


@pytest.mark.parametrize("family", ["grid", "dag", "cyclic", "complete"])
def test_priced_enumeration_matches_the_naive_oracles(family):
    """Enumeration, brute force and the path matrix, the three callers of the
    one search, against naive enumeration priced by both oracles, on every
    fill: signed data is walked in full, nonnegative data is pruned on
    acyclic graphs, and the zero and constant fills tie.  Each returns exact
    costs, refuses a limit one below the path count and accepts the count."""
    for fill in PRICED_WALK_FILLS:
        for inst in priced_walk_instances(family, random.Random(family), fill):
            g, s, t = inst.graph, inst.source, inst.target
            paths = naive_st_paths(g, s, t)
            costs = [double_loop_cost(inst, p) for p in paths]
            assert costs == [quadratic_form_cost(inst, p) for p in paths]
            pm = build_path_matrix(inst)
            assert pm.paths == tuple(paths)
            assert pm.rows == tuple(
                tuple(int(a in p.arcs) for a in range(g.m)) for p in paths
            )
            assert pm.costs == tuple(costs)
            assert all(type(c) is int or c.denominator != 1 for c in pm.costs)
            assert enumerate_st_paths(g, s, t) == paths
            if not paths:
                with pytest.raises(NoPathError):
                    brute_force_solve(inst)
                continue
            best = min(costs)
            optimum = (paths[costs.index(best)], best)
            solved = brute_force_solve(inst)
            assert solved == optimum
            assert type(solved[1]) is int or solved[1].denominator != 1
            assert brute_force_solve(inst, limit=len(paths)) == optimum
            assert build_path_matrix(inst, limit=len(paths)) == pm
            assert enumerate_st_paths(g, s, t, limit=len(paths)) == paths
            with pytest.raises(PathLimitExceeded):
                brute_force_solve(inst, limit=len(paths) - 1)
            with pytest.raises(PathLimitExceeded):
                build_path_matrix(inst, limit=len(paths) - 1)
            with pytest.raises(PathLimitExceeded):
                enumerate_st_paths(g, s, t, limit=len(paths) - 1)


def test_a_dag_over_the_limit_is_refused_before_any_path_is_priced():
    """The 13x13 grid has 2,704,156 corner paths, past the 10**6 default.
    Its Q rows refuse every read, and pricing the second arc of any path
    reads Q, so the refusal has to come from the count before the walk.
    Enumeration, which prices nothing, is refused by the same count before
    it holds any path: walking to the 10**6-th took about 350 MB."""

    class Unread(tuple):
        def __getitem__(self, index):
            raise AssertionError("a path was priced")

    g = make_grid(13, 13)
    assert count_grid_paths(13, 13) == 2_704_156 > DEFAULT_PATH_LIMIT
    q = InteractionMatrix.zero(g.m)
    q.rows = tuple(Unread(row) for row in q.rows)
    inst = QsppInstance(g, 0, g.n - 1, (0,) * g.m, q)
    with pytest.raises(PathLimitExceeded):
        brute_force_solve(inst)
    with pytest.raises(PathLimitExceeded):
        build_path_matrix(inst)

    def refuse():
        with pytest.raises(PathLimitExceeded):
            enumerate_st_paths(g, 0, g.n - 1)

    assert traced_peak(refuse) < 100_000


def test_brute_force_and_path_matrix_keep_the_enumeration_contracts():
    g = make_grid(3, 3)
    zero = QsppInstance(g, 0, 8, (0,) * g.m, InteractionMatrix.zero(g.m))
    paths = enumerate_st_paths(g, 0, 8)
    assert len(paths) == 6
    # exactly `limit` paths succeed; on an all-zero instance the tie goes
    # to the first path enumerated
    assert brute_force_solve(zero, limit=6) == (paths[0], 0)
    assert build_path_matrix(zero, limit=6).paths == tuple(paths)
    with pytest.raises(PathLimitExceeded):
        brute_force_solve(zero, limit=5)
    with pytest.raises(PathLimitExceeded):
        build_path_matrix(zero, limit=5)
    k5 = make_complete_symmetric(5)
    cyclic_zero = QsppInstance(k5, 0, 4, (0,) * k5.m, InteractionMatrix.zero(k5.m))
    assert brute_force_solve(cyclic_zero) == (enumerate_st_paths(k5, 0, 4)[0], 0)


def test_brute_force_returns_the_first_cheapest_path_of_every_path_priced():
    """Old against new: on every instance the bounded search returns the
    (path, cost) that pricing every path in enumeration order and keeping
    the first minimum returns, and PathLimitExceeded is raised exactly when
    the limit is below the path count, so at the same (instance, limit)
    pairs as when every path was priced; grids and K_n* also run one over
    the count."""
    seen = {}
    for family, inst in agreement_instances():
        seen[family] = seen.get(family, 0) + 1
        expected = first_cheapest(inst)
        if expected is None:
            with pytest.raises(NoPathError):
                brute_force_solve(inst)
            continue
        paths = len(enumerate_st_paths(inst.graph, inst.source, inst.target))
        solved = brute_force_solve(inst)
        assert solved == expected
        assert type(solved[1]) is int or solved[1].denominator != 1
        assert brute_force_solve(inst, limit=paths) == expected
        if family in ("grid", "complete"):
            assert brute_force_solve(inst, limit=paths + 1) == expected
        with pytest.raises(PathLimitExceeded):
            brute_force_solve(inst, limit=paths - 1)
    assert sum(seen.values()) >= 300
    assert seen == {
        "grid": 256, "priced-walk": 120, "complete": 18, "qap": 5, "middle-source": 12
    }


def test_scaled_keeps_exact_forms_and_the_matrix_invariants():
    """A whole product is an int whatever the factor; symmetry and the zero
    diagonal are kept, and how a matrix was built takes no part in equality
    or hashing."""

    def forms(matrix):
        return [[type(v) for v in row] for row in matrix.rows]

    thirds = InteractionMatrix.from_entries(3, {(0, 1): Fraction(1, 3), (1, 2): 2})
    tripled = InteractionMatrix([[0, 1, 0], [1, 0, 6], [0, 6, 0]])
    assert thirds.scaled(3) == tripled and forms(thirds.scaled(3)) == [[int] * 3] * 3
    assert hash(thirds.scaled(3)) == hash(tripled)
    halved = thirds.scaled(Fraction(1, 2))
    assert halved.rows == ((0, Fraction(1, 6), 0), (Fraction(1, 6), 0, 1), (0, 1, 0))
    assert forms(halved) == [[int, Fraction, int], [Fraction, int, int], [int, int, int]]
    assert thirds.scaled(0) == InteractionMatrix.zero(3)
    assert forms(thirds.scaled(0)) == [[int] * 3] * 3
    for matrix in (thirds.scaled(3), halved, tripled.scaled(Fraction(2, 3))):
        # the rows pass the constructor's own check
        assert InteractionMatrix(matrix.rows) == matrix
    # a skew or malformed matrix never exists to be scaled
    for rows in ([[0, 1], [2, 5]], [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
            InteractionMatrix(rows)


def test_brute_force_no_path():
    g = Digraph(3, [(0, 1)])
    inst = QsppInstance(g, 0, 2, (0,), InteractionMatrix.zero(1))
    with pytest.raises(NoPathError):
        brute_force_solve(inst)
    pm = build_path_matrix(inst)
    assert pm.rows == pm.costs == pm.paths == () and pm.arc_count == 1


def test_spp_grid_unit_costs():
    g = make_grid(3, 3)
    spp = SppInstance(g, 0, 8, (Fraction(1),) * g.m)
    path, cost = spp_solve(spp)
    assert cost == 4
    assert len(path) == 4


def test_spp_agrees_with_brute_force_without_interaction():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randint(3, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = Digraph(n, arcs)
        if not enumerate_st_paths(g, 0, n - 1, limit=10**4):
            continue
        linear = tuple(Fraction(rng.randint(-4, 9)) for _ in range(g.m))
        spp = SppInstance(g, 0, n - 1, linear)
        _, cost = spp_solve(spp)
        _, expected = brute_force_solve(
            QsppInstance(g, 0, n - 1, linear, InteractionMatrix.zero(g.m))
        )
        assert cost == expected


def test_spp_negative_costs_on_dag():
    g = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    spp = SppInstance(g, 0, 3, (5, -3, 1, 1))
    path, cost = spp_solve(spp)
    assert cost == 2
    assert path.arcs == (0, 1)


def test_spp_rejects_negative_costs_on_cyclic_graph():
    g = make_directed_cycle(4)
    with pytest.raises(CyclicGraphError):
        spp_solve(SppInstance(g, 0, 2, (-1, 0, 0, 0)))
    # nonnegative costs on the same cyclic graph are fine
    path, cost = spp_solve(SppInstance(g, 0, 2, (1, 1, 1, 1)))
    assert cost == 2 and len(path) == 2


def test_spp_unreachable_target():
    g = Digraph(3, [(1, 0)])
    with pytest.raises(NoPathError):
        spp_solve(SppInstance(g, 0, 2, (1,)))
    # a negative cost takes the acyclic branch, which reports it alike
    with pytest.raises(NoPathError, match="^no path from 0 to 2$"):
        spp_solve(SppInstance(g, 0, 2, (-1,)))


def test_validate_instance_reports():
    g = make_grid(2, 2)
    # the structural invariants are the constructor's to refuse
    with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
        InteractionMatrix([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])

    negative = InteractionMatrix.from_entries(4, {(0, 2): -1})
    inst = QsppInstance(g, 0, 3, (0,) * 4, negative)
    assert validate_instance(inst).violations == (
        "negative interaction cost (problem definition requires Q >= 0)",
    )

    reduced_form = QsppInstance(g, 0, 3, (1, -2, 0, 0), InteractionMatrix.zero(4))
    assert not validate_instance(reduced_form).ok
    problem = QsppInstance(g, 0, 3, (1, 2, 0, 0), negative.scaled(-1))
    assert validate_instance(problem) == ValidationReport(True, ())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.fractions(0, 10))
def test_brute_force_scaling_invariance(seed, alpha):
    rng = random.Random(seed)
    g = make_grid(2, 3)
    inst = random_q(g, 0, 5, rng)
    _, cost = brute_force_solve(inst)
    scaled = QsppInstance(g, 0, 5, inst.linear, inst.interaction.scaled(alpha))
    _, scaled_cost = brute_force_solve(scaled)
    assert scaled_cost == alpha * cost


GRID_8X8 = make_grid(8, 8)  # 112 arcs
QAP_11 = random_qap(11, random.Random(1))  # 121 arcs


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: _EntryRows(101), 101),
        (lambda: InteractionMatrix.zero(101), 101),
        (lambda: InteractionMatrix.from_entries(101, {(0, 1): 1}), 101),
        *(
            (lambda fill=fill: filled_instance(GRID_8X8, 0, 63, fill, seed=1), 112)
            for fill in ("zero", "random", "weak-sum", "product", "adjacent")
        ),
        (lambda: qap_to_qspp(QAP_11), 121),
    ],
)
def test_q_builders_refuse_past_the_arc_bound_before_allocating(monkeypatch, build, count):
    """With the bound lowered to 100, every builder of Q's m*m cells refuses
    a larger arc count before it builds a row or draws a value."""
    monkeypatch.setattr(model, "MAX_ARCS", 100)

    def refuse():
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"arc count {count} exceeds the bound of 100"

    assert traced_peak(refuse) < 16 * 1024


def test_arc_bound_is_above_every_shape_in_use():
    # the largest grid the README, the benchmark and the suite run is 32x32
    assert make_grid(32, 32).m == 1984 < model.MAX_ARCS


def _reader_builders():
    """Builders of fresh matrices for the readers: every seeded fill (the
    random, weak-sum and product ones keep their triangle), Q/3, signed
    thirds from from_triples, and rows through the coercing constructor."""
    rng = random.Random(13)
    builds = []
    for g in (make_grid(2, 2), make_grid(3, 4), make_complete_symmetric(5)):
        for fill in ("zero", "random", "weak-sum", "product", "adjacent"):
            for seed, max_entry in ((1, 0), (2, 1), (3, 9), (4, 300)):

                def filled(g=g, fill=fill, seed=seed, max_entry=max_entry):
                    return filled_instance(g, 0, g.n - 1, fill, seed, max_entry).interaction

                builds.append(filled)
                builds.append(lambda filled=filled: filled().scaled(Fraction(1, 3)))
    for inst in priced_walk_instances("dag", rng) + priced_walk_instances("grid", rng, "zero"):
        builds.append(lambda q=inst.interaction: q)
        builds.append(lambda rows=inst.interaction.rows: InteractionMatrix(rows))
        builds.append(lambda m=inst.graph.m: InteractionMatrix.from_triples(m, []))
    for m in (0, 1, 2, 9):
        builds.append(lambda m=m: random_symmetric_interaction(m, random.Random(m), -3, 3))
        builds.append(lambda m=m: InteractionMatrix.zero(m))
    return builds


def test_readers_answer_what_the_rows_hold():
    """row(e) is rows[e] itself; pairs() is each nonzero cell right of the
    diagonal, row-major; is_zero() is whether no cell is nonzero.  The
    readers run first, while a fill's triangle is still kept."""
    builds = _reader_builders()
    kept = 0
    for build in builds:
        q = build()
        kept += q._uppers()[1] is not None
        pairs, zero = list(q.pairs()), q.is_zero()
        rows = q.rows
        m = len(rows)
        assert pairs == [(e, f, rows[e][f]) for e in range(m) for f in range(e + 1, m) if rows[e][f]]
        assert all(type(v) is type(rows[e][f]) for e, f, v in pairs)
        assert zero == (not any(map(any, rows)))
        assert all(q.row(e) is rows[e] for e in range(m))
    # the kept triangles, the nonzero Q and the zero ones were all reached
    assert kept >= 9 * 4
    assert {build().is_zero() for build in builds} == {False, True}


@pytest.mark.parametrize("fill", ["random", "weak-sum", "product"])
def test_pairs_and_is_zero_read_a_kept_triangle_without_building_rows(fill):
    for max_entry in (0, 1, 9, 300):
        q = filled_grid(4, 5, fill, max_entry, max_entry).interaction
        uppers, top = q._uppers()
        pairs = list(q.pairs())
        assert q.is_zero() == (pairs == [])
        # the slot is still unset and the triangle still kept
        with pytest.raises(AttributeError):
            object.__getattribute__(q, "rows")
        assert q._uppers() == (uppers, top)
        assert pairs == [
            (e, f, v) for e, upper in enumerate(uppers) for f, v in enumerate(upper, e + 1) if v
        ]
