"""The seeded instance families the test suite shares.

Each builder draws only from the seed or the random.Random it is given, so
a test draws the same instances on every run.  test_zoo.py pins every
family: one sha256 over the emitted texts of its instances, in order (over
repr(rows) for a builder that returns only Q).  A pinned family never
changes, since the tests that draw it were checked on those instances; a
later change that needs other instances adds its own family.
"""
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from qspath import Digraph, InteractionMatrix, QsppInstance, normalize_knstar, qap_to_qspp
from qspath import make_complete_symmetric, make_cyclic_counterexample, make_directed_cycle
from qspath import make_grid, make_hypercube, make_tournament
from qspath.generate import FILLS, filled_instance, random_dag, random_digraph, random_qap

from helpers import arc_index, incomparable_square_pairs


def all_pairs(m: int, draw) -> InteractionMatrix:
    """Q with draw(e, f) at every pair e < f, drawn in row-major order."""
    return InteractionMatrix.from_triples(
        m, ((e, f, draw(e, f)) for e in range(m) for f in range(e + 1, m))
    )


def random_symmetric_interaction(m: int, rng: random.Random, lo=0, hi=9) -> InteractionMatrix:
    """Dense Q with every pair drawn from lo..hi."""
    return all_pairs(m, lambda e, f: rng.randint(lo, hi))


def random_costs(g: Digraph, source: int, target: int, rng: random.Random, top=9) -> QsppInstance:
    """c drawn from 0..top, then a dense Q drawn from 0..top."""
    linear = tuple(rng.randint(0, top) for _ in range(g.m))
    return QsppInstance(g, source, target, linear, random_symmetric_interaction(g.m, rng, 0, top))


def random_q(g: Digraph, source: int, target: int, rng: random.Random) -> QsppInstance:
    """c zero and a dense Q drawn from 0..9."""
    return QsppInstance(g, source, target, (0,) * g.m, random_symmetric_interaction(g.m, rng))


def q_over(inst: QsppInstance, divisor: int, linear=None) -> QsppInstance:
    """inst with Q divided by divisor, and c replaced when linear is given."""
    c = inst.linear if linear is None else linear
    return replace(inst, linear=c, interaction=inst.interaction.scaled(Fraction(1, divisor)))


def grid_instance(p: int, q: int, interaction: InteractionMatrix, linear=None) -> QsppInstance:
    """The corner-to-corner instance on the p-by-q grid, c zero unless given."""
    g = make_grid(p, q)
    return QsppInstance(g, 0, g.n - 1, (0,) * g.m if linear is None else linear, interaction)


def filled_grid(p: int, q: int, fill: str, seed: int | None, max_entry: int = 9) -> QsppInstance:
    """The generate fill of the p-by-q grid, corner to corner."""
    return filled_instance(make_grid(p, q), 0, p * q - 1, fill, seed, max_entry)


def random_grid(p: int, q: int, seed: int) -> QsppInstance:
    """random_q on the p-by-q grid, corner to corner."""
    return random_q(make_grid(p, q), 0, p * q - 1, random.Random(seed))


def weak_sum_matrix(a) -> InteractionMatrix:
    """Q with a[e] + a[f] off the diagonal."""
    rows = [[x + y if e != f else 0 for f, y in enumerate(a)] for e, x in enumerate(a)]
    return InteractionMatrix(rows)


def product_matrix_and_linear(a) -> tuple[InteractionMatrix, tuple]:
    """Q with a[e] * a[f] off the diagonal, and c = a[e] squared, as Fractions."""
    rows = [[x * y if e != f else 0 for f, y in enumerate(a)] for e, x in enumerate(a)]
    return InteractionMatrix(rows), tuple(Fraction(x) ** 2 for x in a)


def weak_sum_grid(p: int, q: int, seed: int, lo: int) -> QsppInstance:
    """Weak-sum Q on the p-by-q grid with a drawn from lo..9, c zero."""
    rng = random.Random(seed)
    a = [rng.randint(lo, 9) for _ in range(2 * p * q - p - q)]
    return grid_instance(p, q, weak_sum_matrix(a))


def potential_shift(g: Digraph, rng: random.Random) -> tuple[tuple, tuple]:
    """Costs drawn from -9..9, and the same costs plus the differences of a
    vertex potential drawn from -9..9 but zero at 0 and n - 1, which keep
    the cost of every path from 0 to n - 1; all Fractions."""
    costs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(g.m))
    phi = [Fraction(rng.randint(-9, 9)) for _ in range(g.n)]
    phi[0] = phi[g.n - 1] = Fraction(0)
    return costs, tuple(c + phi[a.head] - phi[a.tail] for c, a in zip(costs, g.arcs))


def mixed_grid_instance(rng: random.Random, p: int, q: int) -> tuple[str, QsppInstance]:
    """A weak-sum, product or random fill of the p-by-q grid, and its kind."""
    kind = ("weak-sum", "product", "random")[rng.randrange(3)]
    return kind, filled_grid(p, q, kind, rng.randint(0, 10**9))


def square_pair_planted_rows(g: Digraph, p: int, q: int, rng: random.Random) -> list[list[int]]:
    """Dense random Q on a p-by-q grid, then made linearizable: each
    incomparable square pair (S, S') is met through its down(S) x down(S')
    entry, taken in decreasing order of the two squares' column sum, since
    such an entry lies in no pair of larger column sum."""
    rows = [[0] * g.m for _ in range(g.m)]
    for e in range(g.m):
        for f in range(e + 1, g.m):
            rows[e][f] = rows[f][e] = rng.randint(-9, 9)
    pairs = sorted(incomparable_square_pairs(g, p, q), key=lambda t: -t[0][1] - t[1][1])
    for _, _, delta, other in pairs:
        gap = sum(s * t * rows[a][b] for a, s in delta for b, t in other)
        a, b = delta[0][0], other[0][0]
        rows[a][b] -= gap
        rows[b][a] -= gap
    return rows


def exclusive_pair_entries(p: int, q: int, rng: random.Random) -> dict[tuple[int, int], int]:
    """Weak-sum interactions, then random values on every arc pair that no
    monotone path carries together: two down arcs leaving the same row, or
    two right arcs leaving the same column.  Such instances are linearizable
    without being weak-sum."""
    g = make_grid(p, q)
    a = [rng.randint(0, 9) for _ in range(g.m)]
    entries = {(e, f): a[e] + a[f] for e, f in combinations(range(g.m), 2)}
    exclusive: dict[tuple[str, int], list[int]] = {}
    for arc_id, arc in enumerate(g.arcs):
        i, j = divmod(arc.head, q)
        key = ("down", i) if arc.tail == arc.head + q else ("right", j)
        exclusive.setdefault(key, []).append(arc_id)
    for group in exclusive.values():
        for e, f in combinations(group, 2):
            entries[(e, f)] = rng.randint(0, 9)
    return entries


def late_no_grid(p: int, q: int, seed: int) -> QsppInstance:
    """The weak-sum fill of the p-by-q grid (p >= 3, q >= 5) with +1 added
    to Q at (right(3, 4), down(1, 1)) and -1 at (right(1, 4), down(1, 2)),
    both orientations; right(i, j) and down(i, j) leave vertex (i, j),
    1-based.

    Weak-sum Q has every square-pair number zero, so the change alone
    decides the verdict: "no", with every sub-grid of three or more rows
    passing, so the sweep names its witness only at sub-target (2, 2).
    """
    inst = filled_grid(p, q, "weak-sum", seed)
    lookup = arc_index(inst.graph)

    def vertex(i, j):
        return (i - 1) * q + j - 1

    def right(i, j):
        return lookup[(vertex(i, j), vertex(i, j + 1))]

    def down(i, j):
        return lookup[(vertex(i, j), vertex(i + 1, j))]

    rows = [list(row) for row in inst.interaction.rows]
    for e, f, delta in ((right(3, 4), down(1, 1), 1), (right(1, 4), down(1, 2), -1)):
        rows[e][f] += delta
        rows[f][e] += delta
    return QsppInstance(inst.graph, inst.source, inst.target, inst.linear, InteractionMatrix(rows))


# both length-2 routes of K4* cost 1 each
SHORT_PATHS_COSTLY = {((0, 1), (1, 3)): 1, ((0, 2), (2, 3)): 1}


def knstar_instance(n: int, entries) -> QsppInstance:
    """The simplified K_n* from 0 to n - 1, c zero, with Q given on pairs
    of arcs named by their ends: {((u, v), (x, y)): value}."""
    g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
    idx = arc_index(g)
    mapped = {(idx[e], idx[f]): v for (e, f), v in entries.items()}
    return QsppInstance(g, 0, n - 1, (0,) * g.m, InteractionMatrix.from_entries(g.m, mapped))


def random_knstar(n: int, seed: int) -> QsppInstance:
    """random_q on the simplified K_n* from 0 to n - 1."""
    g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
    return random_q(g, 0, n - 1, random.Random(seed))


def biased_k4(rng: random.Random, least: int, most: int) -> QsppInstance:
    """The four-vertex K4* with Q in 0..4, half the time with least..most
    added on the pair of one short route, so both verdicts appear."""
    g = make_complete_symmetric(4, simplified=True, source=0, target=3)
    idx = arc_index(g)
    rows = [list(r) for r in random_symmetric_interaction(g.m, rng, 0, 4).rows]
    if rng.random() < 0.5:
        boost = rng.randint(least, most)
        pair = rng.choice([((0, 1), (1, 3)), ((0, 2), (2, 3))])
        e, f = idx[pair[0]], idx[pair[1]]
        rows[e][f] += boost
        rows[f][e] += boost
    return QsppInstance(g, 0, 3, (0,) * g.m, InteractionMatrix(rows))


def _minus_draws(inst: QsppInstance, rng: random.Random) -> QsppInstance:
    """The instance with a draw of 0..9 taken off each c entry and each
    pair of Q, so both go negative."""
    rows = inst.interaction.rows
    linear = tuple(v - rng.randint(0, 9) for v in inst.linear)
    interaction = all_pairs(len(rows), lambda e, f: rows[e][f] - rng.randint(0, 9))
    return replace(inst, linear=linear, interaction=interaction)


def signed_redraw(inst: QsppInstance, rng: random.Random) -> QsppInstance:
    """inst's graph and ends with c and a dense Q redrawn from -9..9."""
    m = inst.graph.m
    linear = tuple(rng.randint(-9, 9) for _ in range(m))
    return replace(inst, linear=linear, interaction=random_symmetric_interaction(m, rng, -9, 9))


def _repeated_values(g: Digraph, target: int, seed: str) -> QsppInstance:
    """c in 0..1 and Q in 0..2, so many paths tie."""
    rng = random.Random(seed)
    linear = tuple(rng.randint(0, 1) for _ in range(g.m))
    return QsppInstance(g, 0, target, linear, all_pairs(g.m, lambda e, f: rng.randint(0, 2)))


PRICED_WALK_FILLS = ("signed", "signed-c", "signed-q", "nonnegative", "zero", "constant")


def priced_walk_instances(family: str, rng: random.Random, fill="signed") -> list[QsppInstance]:
    """Instances with exact data for checking exact enumeration and pricing
    against the naive oracles.

    grid: Fraction Q from the symmetric builder; dag and cyclic: random
    graphs (on cyclic ones the simple-path rule prunes); complete: full and
    simplified complete symmetric digraphs.  Cyclic and complete graphs also
    run to a target that is not the last vertex, so an arc into the target
    is not always the last one the search tries.

    fill "signed" draws every c and Q entry as a signed third; "nonnegative"
    takes |v| of the same draws, where brute force prunes on acyclic graphs,
    and "signed-c" and "signed-q" take |v| in Q or in c only.  "zero" and
    "constant" (c = 0, Q = 1 off the diagonal) make every path, or every
    path of one length, tie.  The graphs do not depend on the fill.
    """
    if family == "grid":
        shapes = ((2, 2), (3, 3), (3, 5), (4, 4), (5, 4))
        graphs = [(make_grid(p, q), p * q - 1) for p, q in shapes]
    elif family == "dag":
        graphs = [(random_dag(n, 0.6, rng), n - 1) for n in (3, 5, 7, 8)]
    elif family == "cyclic":
        ends = ((4, 3), (5, 1), (6, 2), (7, 6), (7, 1))
        graphs = [(random_digraph(n, 0.6, rng), t) for n, t in ends]
    elif family == "complete":
        graphs = [
            (make_complete_symmetric(n, simplified=s, target=t), t)
            for n, t in ((4, 3), (5, 1), (6, 5))
            for s in (False, True)
        ]
    else:
        raise ValueError(family)

    def signed():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 3)))

    def unsigned():
        return abs(signed())

    draw_c, draw_q = {
        "signed": (signed, signed),
        "signed-c": (signed, unsigned),
        "signed-q": (unsigned, signed),
        "nonnegative": (unsigned, unsigned),
        "zero": (lambda: 0, lambda: 0),
        "constant": (lambda: 0, lambda: 1),
    }[fill]
    out = []
    for g, target in graphs:
        linear = tuple(draw_c() for _ in range(g.m))
        out.append(QsppInstance(g, 0, target, linear, all_pairs(g.m, lambda e, f: draw_q())))
    return out


AGREEMENT_GRIDS = ((2, 2), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4), (3, 6), (5, 5))


def agreement_instances():
    """(family, instance) pairs for checking the bounded search against
    pricing every path: grids on every fill as drawn, with Q/3 and signed;
    grids with repeated values; the priced-walk families on every fill;
    K4*-K6*, full and simplified, which are cyclic and walked unbounded;
    QAP reductions with n = 4..6; and signed random DAGs searched from a
    middle vertex, which leaves vertices that reach the target unreached."""
    for p, q in AGREEMENT_GRIDS:
        g = make_grid(p, q)
        for fill in FILLS:
            for seed in (1, 2):
                inst = filled_instance(g, 0, g.n - 1, fill, seed)
                yield "grid", inst
                yield "grid", q_over(inst, 3)
                yield "grid", _minus_draws(inst, random.Random(f"{p}x{q}/{fill}/{seed}"))
        for seed in (1, 2):
            yield "grid", _repeated_values(g, g.n - 1, f"{p}x{q}/{seed}")
    for family in ("grid", "dag", "cyclic", "complete"):
        for fill in PRICED_WALK_FILLS:
            for inst in priced_walk_instances(family, random.Random(f"agree/{family}"), fill):
                yield "priced-walk", inst
    for n in (4, 5, 6):
        for simplified in (False, True):
            g = make_complete_symmetric(n, simplified=simplified)
            zero = QsppInstance(g, 0, n - 1, (0,) * g.m, InteractionMatrix.zero(g.m))
            yield "complete", zero
            yield "complete", _minus_draws(zero, random.Random(f"K{n}/{simplified}"))
            yield "complete", _repeated_values(g, n - 1, f"K{n}/{simplified}")
    for n, seeds in ((4, (1, 2)), (5, (1, 2)), (6, (1,))):
        for seed in seeds:
            yield "qap", qap_to_qspp(random_qap(n, random.Random(seed)))
    rng = random.Random("middle source")
    for n in (6, 7, 8, 9):
        for _ in range(3):
            g = random_dag(n, 0.6, rng)
            zero = QsppInstance(g, n // 3, n - 1, (0,) * g.m, InteractionMatrix.zero(g.m))
            yield "middle-source", _minus_draws(zero, rng)


def bound_instances():
    """Signed instances on the grids 2..5 x 2..5 and on random DAGs with
    n = 3..9, corner to corner, and on random DAGs with n = 6..9 from a
    middle vertex; every third one has c and Q in thirds."""
    rng = random.Random("completion bound")
    shapes = [(make_grid(p, q), 0) for p in range(2, 6) for q in range(2, 6)]
    shapes += [(random_dag(n, 0.6, rng), 0) for n in range(3, 10) for _ in range(3)]
    shapes += [(random_dag(n, 0.6, rng), n // 3) for n in range(6, 10) for _ in range(3)]
    for k, (g, source) in enumerate(shapes):
        den = 3 if k % 3 == 2 else 1
        matrix = all_pairs(g.m, lambda e, f: Fraction(rng.randint(-9, 9), den))
        linear = tuple(Fraction(rng.randint(-9, 9), den) for _ in range(g.m))
        yield QsppInstance(g, source, g.n - 1, linear, matrix)


def _filled_each(g: Digraph, target: int, seeds, fills=sorted(FILLS)) -> list[QsppInstance]:
    """g from 0 to target under each fill at each seed, fills outermost."""
    return [filled_instance(g, 0, target, fill, seed) for fill in fills for seed in seeds]


def reference_grids() -> list[QsppInstance]:
    """Every fill on the 2..4 x 2..4 grids, and Q/3 with signed rational c."""
    out = []
    for p in range(2, 5):
        for q in range(2, 5):
            g = make_grid(p, q)
            out += _filled_each(g, g.n - 1, (1, 2, 3))
            rng = random.Random(p * 10 + q)
            for inst in _filled_each(g, g.n - 1, (1, 2), ("random", "weak-sum")):
                c = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(g.m))
                out.append(q_over(inst, 3, c))
    return out


def reference_knstar() -> list[QsppInstance]:
    """K4*-K6*, complete and in the simplified form with Q normalized."""
    out = []
    for n, seeds in ((4, (1, 2, 3)), (5, (1, 2, 3)), (6, (1,))):
        fills = sorted(FILLS) if n < 6 else ("random", "weak-sum")
        out += _filled_each(make_complete_symmetric(n, target=n - 1), n - 1, seeds, fills)
        simplified = make_complete_symmetric(n, simplified=True, target=n - 1)
        out += map(normalize_knstar, _filled_each(simplified, n - 1, seeds, fills))
    return out


def reference_digraphs() -> list[QsppInstance]:
    """Hypercubes of dimension 2-4, random DAGs and random digraphs."""
    out = []
    for d in (2, 3, 4):
        g = make_hypercube(d)
        out += _filled_each(g, g.n - 1, (1, 2, 3))
    rng = random.Random(22)
    for n in (4, 5, 6, 7):
        for _ in range(5):
            out += _filled_each(random_dag(n, 0.6, rng), n - 1, (1, 2, 3), ("random", "weak-sum"))
    for n in (4, 5, 6):
        for _ in range(5):
            out += _filled_each(random_digraph(n, 0.5, rng), n - 1, (1, 2), ("random", "adjacent"))
    return out


def reference_priced_walk() -> list[QsppInstance]:
    """The priced-walk families on their six fills, signed thirds in c and Q;
    complete digraphs on the signed fill only."""
    rng = random.Random(23)
    return [
        inst
        for fill in PRICED_WALK_FILLS
        for family in ("grid", "dag", "cyclic", "complete")[: 4 if fill == "signed" else 3]
        for inst in priced_walk_instances(family, rng, fill)
    ]


def every_family() -> list[QsppInstance]:
    """One instance of each graph family, fill and reduction."""
    rng = random.Random(3)
    return [
        filled_grid(3, 3, "weak-sum", 1),
        filled_instance(make_complete_symmetric(5, simplified=True), 0, 4, "random", seed=2),
        random_costs(make_directed_cycle(5), 0, 3, rng),
        filled_instance(make_hypercube(3), 0, 7, "product", seed=4),
        filled_instance(make_tournament(4, 0b10110), 0, 3, "adjacent", seed=5),
        qap_to_qspp(random_qap(3, rng)),
        make_cyclic_counterexample(Fraction(2, 7)),
    ]


def fill_graphs():
    """Grids, complete digraphs, a cycle, a hypercube, a tournament and
    seeded random digraphs, for checking the fills on every family."""
    for p, q in ((2, 2), (3, 4), (5, 3), (6, 6)):
        yield make_grid(p, q)
    yield make_complete_symmetric(5, simplified=True)
    yield make_complete_symmetric(4, simplified=False, source=0, target=3)
    yield make_directed_cycle(5)
    yield make_hypercube(3)
    yield make_tournament(5, 0b1011001101)
    for seed in range(3):
        yield random_digraph(7, 0.4, random.Random(seed))
