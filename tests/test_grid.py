import hashlib
import random
from fractions import Fraction
from itertools import chain

import pytest

from qspath import (
    CostMismatch,
    Digraph,
    FamilyError,
    InteractionMatrix,
    Path,
    QsppInstance,
    build_path_matrix,
    count_grid_paths,
    critical_paths,
    enumerate_st_paths,
    linearize_g2q,
    linearize_grid,
    lp_oracle,
    make_grid,
    path_cost,
    path_vertices,
    pseudo_linearize,
    reduce_cost_vector,
    shrink_target,
    validate_path,
)
from qspath import grid
from qspath.errors import InternalError
from qspath.generate import FILLS
from qspath.grid import (
    _critical_costs,
    _critical_path_arcs,
    _square_pair_rows,
    _support,
    grid_shape,
)

from helpers import (
    arc_index,
    double_loop_cost,
    incomparable_square_pairs,
    square_pair_linearizable,
    square_pair_rows,
    vector_reproduces_costs,
)
from zoo import all_pairs, filled_grid, grid_instance, late_no_grid, potential_shift, q_over
from zoo import random_grid, signed_redraw, square_pair_planted_rows, weak_sum_grid


def support_arcs(g, p, q):
    shape = grid_shape(g)
    arcs = {shape.right[(1, 1)]}
    arcs.update(
        shape.down[(i, j)] for i in range(1, p) for j in range(1, q)
    )
    return arcs


def test_reduce_unit_costs_tiny_grid():
    g = make_grid(2, 2)
    reduced = reduce_cost_vector(g, (1, 1, 1, 1))
    idx = arc_index(g)
    expected = [Fraction(0)] * 4
    expected[idx[(0, 1)]] = Fraction(2)
    expected[idx[(0, 2)]] = Fraction(2)
    assert list(reduced) == expected


def test_reduce_zero_stays_zero():
    g = make_grid(4, 3)
    assert reduce_cost_vector(g, (0,) * g.m) == (0,) * g.m


def test_reduce_lands_on_support_and_preserves_costs():
    rng = random.Random(19)
    for p, q in [(2, 2), (3, 3), (4, 5), (5, 5)]:
        g = make_grid(p, q)
        costs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(g.m))
        reduced = reduce_cost_vector(g, costs)
        allowed = support_arcs(g, p, q)
        assert all(v == 0 for a, v in enumerate(reduced) if a not in allowed)
        for path in enumerate_st_paths(g, 0, g.n - 1):
            assert sum(costs[a] for a in path.arcs) == sum(
                reduced[a] for a in path.arcs
            )


def test_reduce_is_invariant_under_potential_kernel():
    rng = random.Random(23)
    for p, q in [(3, 3), (5, 4)]:
        g = make_grid(p, q)
        costs, shifted = potential_shift(g, rng)
        assert reduce_cost_vector(g, costs) == reduce_cost_vector(g, shifted)


REDUCED_FORM_DIGEST = "ab811e4370b2ead85824036583e5e34984e06d66deee0071d08a2c46b5172834"


def test_reduce_cost_vector_outputs_are_pinned():
    """SHA-256 of the repr of reduce_cost_vector on 1,000 seeded vectors:
    2x2 to 9x9 grids, half with permuted arc ids, entries with
    denominators 1, 3, 6 and 7 (so value types are pinned too)."""
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for _ in range(1000):
        p, q = rng.randint(2, 9), rng.randint(2, 9)
        arcs = list(make_grid(p, q).arcs)
        if rng.random() < 0.5:
            rng.shuffle(arcs)
        g = Digraph(p * q, arcs)
        den = rng.choice((1, 3, 6, 7))
        costs = [Fraction(rng.randint(-20, 20), den) for _ in range(g.m)]
        digest.update(repr(reduce_cost_vector(g, costs)).encode())
    assert digest.hexdigest() == REDUCED_FORM_DIGEST


def test_reduce_rejects_non_grids():
    with pytest.raises(FamilyError):
        reduce_cost_vector(Digraph(3, [(0, 1), (1, 2)]), (0, 0))


def test_reduce_and_shrink_refuse_a_vector_of_the_wrong_length():
    inst = weak_sum_grid(2, 2, 8, 0)
    with pytest.raises(ValueError, match="^cost vector length must equal the arc count$"):
        reduce_cost_vector(inst.graph, (0,) * 3)
    with pytest.raises(ValueError, match="^vector length must equal the arc count$"):
        shrink_target((0,) * 3, inst, 1)


def test_critical_paths_structure():
    for p, q in [(2, 2), (3, 3), (4, 6), (6, 5)]:
        g = make_grid(p, q)
        paths = critical_paths(p, q)
        assert len(paths) == (p - 1) * (q - 1) + 1
        assert set(paths) == support_arcs(g, p, q)
        for arc, path in paths.items():
            assert arc in path.arcs
            validate_path(g, path, 0, g.n - 1)
    assert len(critical_paths(2, 2)) == 2 == count_grid_paths(2, 2)
    assert len(critical_paths(3, 3)) == 5


def test_incremental_critical_costs_match_direct_recomputation():
    rng = random.Random(37)
    for p, q in [(2, 2), (3, 4), (5, 5), (6, 6)]:
        inst = random_grid(p, q, rng.randint(0, 10**9))
        shape = grid_shape(inst.graph)
        fast = _critical_costs(inst, shape, p, q, inst.linear)
        slow = {
            arc: path_cost(inst, path)
            for arc, path in critical_paths(p, q).items()
        }
        assert fast == slow


def test_critical_costs_of_every_sub_grid_match_direct_pricing():
    """The decision's call shape: a sub-grid of the full grid, its critical
    paths continued to the corner, with linear costs other than the
    instance's (signed, non-integral)."""
    rng = random.Random(41)
    for _ in range(4):
        p, q = rng.randint(4, 7), rng.randint(4, 7)
        inst = q_over(filled_grid(p, q, "random", rng.randint(0, 10**6)), rng.choice((1, 3)))
        g = inst.graph
        shape = grid_shape(g)
        matrix = inst.interaction.rows
        for rows in range(2, p + 1):
            for cols in range(2, q + 1):
                linear = [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(g.m)
                ]
                direct = {}
                for arc, i, j in _support(shape, rows, cols):
                    arcs = _critical_path_arcs(shape, rows, cols, i, j)
                    if rows < p:
                        validate_path(g, Path(tuple(arcs)), 0, g.n - 1)
                    direct[arc] = sum(linear[a] for a in arcs) + sum(
                        matrix[a][b] for a in arcs for b in arcs
                    )
                assert _critical_costs(inst, shape, rows, cols, linear) == direct


def test_full_width_and_single_column_sub_grids_continue_to_full_critical_paths():
    """Why the witness sweep skips sub-grids that span all q columns or a
    single column: every critical path of such a sub-grid, continued to the
    corner, is a critical path of the full grid, which the
    pseudo-linearization prices exactly."""
    checked = 0
    for p in range(3, 8):
        for q in range(3, 8):
            shape = grid_shape(make_grid(p, q))
            full = set(critical_paths(p, q).values())
            for rows in range(2, p):
                for cols in (1, q):
                    for _, i, j in _support(shape, rows, cols):
                        arcs = _critical_path_arcs(shape, rows, cols, i, j)
                        assert Path(tuple(arcs)) in full
                        checked += 1
    assert checked > 500


def test_pseudo_linearization_zero_instance():
    inst = grid_instance(3, 3, InteractionMatrix.zero(12))
    assert pseudo_linearize(inst) == (0,) * 12


def test_pseudo_linearization_of_weak_sum_reproduces_costs():
    inst = weak_sum_grid(3, 3, 5, 0)
    vector = pseudo_linearize(inst)
    assert vector_reproduces_costs(inst, vector)


def test_pseudo_linearization_matches_reduced_true_linearization():
    # for a linearizable instance, reducing any linearization lands on the
    # pseudo-linearization
    from qspath import linearize_weak_sum

    inst = weak_sum_grid(4, 3, 6, 0)
    direct = linearize_weak_sum(inst)
    assert reduce_cost_vector(inst.graph, direct) == pseudo_linearize(inst)


def test_pseudo_linearization_always_hits_critical_costs():
    inst = random_grid(4, 4, 51)  # generic, almost surely not linearizable
    vector = pseudo_linearize(inst)
    for arc, path in critical_paths(4, 4).items():
        assert sum(vector[a] for a in path.arcs) == path_cost(inst, path)


def test_shrink_formula_single_entry():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    q = InteractionMatrix.from_entries(4, {(2, 0): 3})
    inst = QsppInstance(g, 0, 3, (Fraction(0),) * 4, q)
    vector = (Fraction(10), Fraction(0), Fraction(4), Fraction(0))
    shrunk = shrink_target(vector, inst, 2)
    # arc 0 leaves the source: 10 - 2*3 + 4
    assert shrunk[0] == 8
    # arc 1 only loses twice its interaction with the dropped bridge
    assert shrunk[1] == 0
    assert shrunk[2] == 4


def test_shrink_moves_linearizations_to_the_new_target():
    inst = weak_sum_grid(3, 3, 7, 0)
    vector = pseudo_linearize(inst)
    assert vector_reproduces_costs(inst, vector)
    for v in (5, 7):  # both predecessors of the bottom-right corner
        shrunk = shrink_target(vector, inst, v)
        moved = QsppInstance(inst.graph, 0, v, inst.linear, inst.interaction)
        assert vector_reproduces_costs(moved, shrunk)


def test_shrink_keeps_path_costs_under_signed_linear_costs():
    """On weak-sum grids with signed linear costs in thirds, the shrunk
    pseudo-linearization prices every path to either predecessor of the
    corner at its cost."""
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        base = weak_sum_grid(p, q, rng.randint(0, 10**6), 0)
        linear = tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(base.graph.m))
        inst = QsppInstance(base.graph, 0, base.target, linear, base.interaction)
        vector = pseudo_linearize(inst)
        for v in (base.target - 1, base.target - q):
            shrunk = shrink_target(vector, inst, v)
            moved = QsppInstance(inst.graph, 0, v, linear, inst.interaction)
            for path in enumerate_st_paths(inst.graph, 0, v):
                assert sum(shrunk[a] for a in path.arcs) == path_cost(moved, path)
                checked += 1
    assert checked > 400


def test_shrinking_down_the_last_column_keeps_critical_path_costs():
    """shrink_target keeps path costs on the paths to the new target: the
    pseudo-linearization minus the linear costs, shrunk down the last column
    to row R, prices every critical path of the R-by-q sub-grid at its
    quadratic cost, also when the instance is not linearizable."""
    rng = random.Random(89)
    checked = 0
    for _ in range(20):
        p, q = rng.randint(3, 6), rng.randint(2, 6)
        base = q_over(filled_grid(p, q, "random", rng.randint(0, 10**6)), rng.choice((1, 3)))
        g = base.graph
        linear = tuple(rng.randint(-9, 9) for _ in range(g.m))
        inst = QsppInstance(g, 0, g.n - 1, linear, base.interaction)
        assert not linearize_grid(inst).linearizable or q == 2
        candidate = [v - c for v, c in zip(pseudo_linearize(inst), linear)]
        index = arc_index(g)
        for rows in range(p - 1, 1, -1):
            above = QsppInstance(g, 0, (rows + 1) * q - 1, base.linear, base.interaction)
            candidate = shrink_target(candidate, above, rows * q - 1)
            sub = QsppInstance(g, 0, rows * q - 1, base.linear, base.interaction)
            small = make_grid(rows, q)  # same vertex numbers: q columns
            for path in critical_paths(rows, q).values():
                arcs = Path(tuple(index[tuple(small.arcs[a])] for a in path.arcs))
                assert sum(candidate[a] for a in arcs.arcs) == path_cost(sub, arcs)
                checked += 1
    assert checked > 300


def test_shrink_requires_bridge_and_acyclic_graph():
    inst = weak_sum_grid(2, 2, 8, 0)
    with pytest.raises(FamilyError):
        shrink_target(pseudo_linearize(inst), inst, 0)  # no arc 0 -> target
    loop = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    cyc = QsppInstance(loop, 0, 2, (0, 0, 0), InteractionMatrix.zero(3))
    with pytest.raises(FamilyError):
        shrink_target((0, 0, 0), cyc, 1)


def test_shrink_rejects_vertices_outside_the_graph():
    inst = weak_sum_grid(3, 3, 8, 0)
    vector = pseudo_linearize(inst)
    for v in (-4, -1, 9, 30):  # -4 would otherwise name vertex 5
        with pytest.raises(ValueError, match="outside the vertex range"):
            shrink_target(vector, inst, v)


def test_two_row_construction_single_interior_pair():
    g = make_grid(2, 3)
    idx = arc_index(g)
    q = InteractionMatrix.from_entries(
        g.m, {(idx[(0, 3)], idx[(3, 4)]): 1}
    )
    inst = QsppInstance(g, 0, 5, (Fraction(0),) * g.m, q)
    vector = linearize_g2q(inst)
    expected = [Fraction(0)] * g.m
    expected[idx[(0, 3)]] = Fraction(2)
    assert list(vector) == expected
    assert vector_reproduces_costs(inst, vector)


def test_two_row_construction_random_instances():
    for q_dim in range(2, 7):
        inst = random_grid(2, q_dim, 100 + q_dim)
        vector = linearize_g2q(inst)
        assert vector_reproduces_costs(inst, vector)


def test_two_row_construction_rejects_taller_grids():
    with pytest.raises(FamilyError):
        linearize_g2q(random_grid(3, 3, 1))


def test_linearize_grid_accepts_weak_sum():
    inst = weak_sum_grid(4, 4, 9, -5)
    result = linearize_grid(inst)
    assert result.linearizable
    assert vector_reproduces_costs(inst, result.vector)


def test_linearize_grid_zero_interaction():
    inst = grid_instance(3, 4, InteractionMatrix.zero(17))
    result = linearize_grid(inst)
    assert result.linearizable
    assert result.vector == (0,) * 17


def test_thin_grids_are_always_linearizable():
    """p-by-2 and 2-by-q grids check no sub-grid: the full grid's candidate
    is returned as it is, and must still reproduce every path cost."""
    rng = random.Random(61)
    for side in range(2, 9):
        for p, q in ((side, 2), (2, side)):
            for fill in ("random", "weak-sum", "product", "adjacent"):
                base = filled_grid(p, q, fill, rng.randint(0, 10**6))
                linear = tuple(Fraction(c + rng.randint(-9, 9), 3) for c in base.linear)
                inst = q_over(base, 3, linear)
                result = linearize_grid(inst)
                assert result.linearizable
                assert vector_reproduces_costs(inst, result.vector)
                oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False)
                assert oracle.linearizable


def test_linearize_grid_verdict_matches_oracle():
    rng = random.Random(67)
    seen = {True: 0, False: 0}
    for _ in range(60):
        choice = rng.random()
        if choice < 0.4:
            inst = weak_sum_grid(3, 3, rng.randint(0, 10**9), 0)
        else:
            inst = random_grid(3, 3, rng.randint(0, 10**9))
        result = linearize_grid(inst)
        oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False)
        assert result.linearizable == oracle.linearizable
        seen[result.linearizable] += 1
        if result.linearizable:
            assert vector_reproduces_costs(inst, result.vector)
    assert seen[True] >= 10 and seen[False] >= 10


def test_linearize_grid_verdict_matches_oracle_on_fractional_entries():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def check(seed):
        rng = random.Random(seed)
        q = all_pairs(12, lambda e, f: Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        inst = grid_instance(3, 3, q)
        result = linearize_grid(inst)
        oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False)
        assert result.linearizable == oracle.linearizable
        if result.linearizable:
            assert vector_reproduces_costs(inst, result.vector)

    check()


def test_square_pair_criterion_matches_path_matrix_oracle():
    """The large-grid oracle below, checked where lp_oracle reaches, and the
    decision against both.  Two-row and two-column grids have no pair of
    squares one above-left of the other, so they are always linearizable."""
    rng = random.Random(83)
    seen = {True: 0, False: 0}
    shapes = chain(
        ((rng.randint(2, 4), rng.randint(2, 4)) for _ in range(40)),
        [(2, q) for q in range(2, 7)] + [(p, 2) for p in range(3, 7)],
    )
    for p, q in shapes:
        arcs = list(make_grid(p, q).arcs)
        rng.shuffle(arcs)
        g = Digraph(p * q, arcs)
        rows = square_pair_planted_rows(g, p, q, rng)
        pairs = list(incomparable_square_pairs(g, p, q))
        if pairs and rng.random() < 0.6:  # the down x down entry of one pair
            _, _, delta, other = rng.choice(pairs)
            e, f = delta[0][0], other[0][0]
        else:
            e, f = rng.sample(range(g.m), 2)
        rows[e][f] = rows[f][e] = rows[e][f] + 1
        inst = QsppInstance(g, 0, g.n - 1, (0,) * g.m, InteractionMatrix(rows))
        verdict = square_pair_linearizable(inst, p, q)
        assert lp_oracle(build_path_matrix(inst), require_nonneg=False).linearizable == verdict
        assert linearize_grid(inst).linearizable == verdict
        assert verdict or min(p, q) > 2
        seen[verdict] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def test_linearize_grid_agrees_with_square_pair_criterion_on_large_grids():
    """Past the sizes the path-matrix oracle reaches: dense planted
    linearizable grids (not weak-sum) and copies with one entry changed,
    with permuted arc ids and signed linear costs.  Two of the changed
    entries are aimed at the smallest sub-grids of the sweep, which alone
    can see them."""
    rng = random.Random(97)
    seen = {True: 0, False: 0}
    for p, q, divisor in [(8, 8, 7), (9, 11, 1), (11, 9, 1), (12, 12, 1)]:
        arcs = list(make_grid(p, q).arcs)
        rng.shuffle(arcs)
        g = Digraph(p * q, arcs)
        planted = square_pair_planted_rows(g, p, q, rng)
        pairs = list(incomparable_square_pairs(g, p, q))
        changed = [tuple(rng.sample(range(g.m), 2))]
        # down(S) x down(S') for S in column 2 breaks only the pair (S, S')
        _, _, delta, other = rng.choice([t for t in pairs if t[0][1] == 2])
        changed.append((delta[0][0], other[0][0]))
        # down(1, 1) x right(3, j) breaks the pairs of (1, 1) with (2, j) and
        # (3, j) by opposite amounts, so only two-row sub-grids see it
        _, _, delta, other = rng.choice([t for t in pairs if t[0][0] == 2 and t[1] == (1, 1)])
        changed.append((other[0][0], delta[1][0]))
        variants = [planted]
        for e, f in changed:
            rows = [list(row) for row in planted]
            rows[e][f] = rows[f][e] = rows[e][f] + rng.choice((-2, -1, 1, 3))
            variants.append(rows)
        for rows in variants:
            linear = tuple(Fraction(rng.randint(-9, 9), divisor) for _ in range(g.m))
            inst = q_over(QsppInstance(g, 0, g.n - 1, linear, InteractionMatrix(rows)), divisor)
            verdict = square_pair_linearizable(inst, p, q)
            assert verdict or rows is not planted
            assert linearize_grid(inst).linearizable == verdict
            seen[verdict] += 1
    assert seen[True] >= 4 and seen[False] >= 8


def test_square_pair_rows_match_the_definition():
    """Every square-pair number delta_S Q delta_S', in the generator's order,
    on every fill, its Q/3 copy and a signed redraw of the 2..6 x 2..6
    grids, and on planted grids with shuffled arc ids."""
    rng = random.Random(37)
    instances = []
    for p in range(2, 7):
        for q in range(2, 7):
            for fill in sorted(FILLS):
                inst = filled_grid(p, q, fill, p * q)
                instances += [(p, q, inst), (p, q, q_over(inst, 3))]
                instances.append((p, q, signed_redraw(inst, rng)))
            # planted with shuffled arc ids, half the time one entry changed
            arcs = list(make_grid(p, q).arcs)
            rng.shuffle(arcs)
            g = Digraph(p * q, arcs)
            planted = square_pair_planted_rows(g, p, q, rng)
            if rng.random() < 0.5:
                e, f = rng.sample(range(g.m), 2)
                planted[e][f] = planted[f][e] = planted[e][f] + rng.choice((-2, -1, 1, 3))
            divisor = rng.choice((1, 3))
            linear = tuple(Fraction(rng.randint(-9, 9), divisor) for _ in range(g.m))
            inst = QsppInstance(g, 0, g.n - 1, linear, InteractionMatrix(planted))
            instances.append((p, q, q_over(inst, divisor)))
    nonzero = 0
    for p, q, inst in instances:
        rows = list(_square_pair_rows(inst, grid_shape(inst.graph)))
        assert rows == square_pair_rows(inst, p, q)
        nonzero += any(any(row) for _, _, row in rows)
    assert nonzero >= 150


def test_criterion_reads_rows_up_to_the_first_nonzero_one(monkeypatch):
    """linearize_grid stops the generator at the first row with a nonzero
    number: the third on the 8 x 8 late "no", whose first nonzero number is
    M((2, 4), (1, 1)), and the first on a random 6 x 6."""
    taken = []

    def counted(inst, shape):
        for item in _square_pair_rows(inst, shape):
            taken.append(item[:2])
            yield item

    monkeypatch.setattr(grid, "_square_pair_rows", counted)
    counts = []
    for p, inst in ((8, late_no_grid(8, 8, 1)), (6, random_grid(6, 6, 5))):
        taken.clear()
        assert not linearize_grid(inst).linearizable
        naive = square_pair_rows(inst, p, p)
        first = next(k for k, (_, _, row) in enumerate(naive) if any(row))
        assert taken == [s[:2] for s in naive[: first + 1]]
        counts.append(len(taken))
    assert counts == [3, 1]


def test_linearizable_grid_runs_no_sweep(monkeypatch):
    """A "yes" comes from the square-pair criterion alone: no sub-grid is
    swept and the vector is the pseudo-linearization."""
    inst = filled_grid(6, 7, "weak-sum", 5)

    def no_sweep(*args):
        raise AssertionError("the sweep ran on a linearizable grid")

    monkeypatch.setattr(grid, "_support", no_sweep)
    result = linearize_grid(inst)
    assert result.linearizable
    assert result.vector == pseudo_linearize(inst)


def test_sweep_that_finds_no_mismatch_is_an_internal_error(monkeypatch):
    inst = filled_grid(5, 6, "weak-sum", 5)
    assert linearize_grid(inst).linearizable
    monkeypatch.setattr(grid, "_square_pair_rows", lambda inst, shape: iter([(2, 2, [1])]))
    with pytest.raises(InternalError):
        linearize_grid(inst)


def test_linearize_grid_witness_is_a_real_disagreement():
    found = 0
    for seed in range(30):
        inst = random_grid(4, 4, seed)
        result = linearize_grid(inst)
        if result.linearizable:
            continue
        found += 1
        witness = result.witness
        assert isinstance(witness, CostMismatch)
        validate_path(inst.graph, witness.path, 0, inst.graph.n - 1)
        assert path_cost(inst, witness.path) == witness.expected
        assert witness.expected != witness.got
        assert result.note
    assert found >= 25


# the witness of each late "no", which a rewrite of the sweep must keep: its
# path's vertices (right once, down two rows, right to the last column, then
# down) and (expected, got) by seed
LATE_NO_WITNESSES = {
    8: (
        (0, 1, 9, 17, 18, 19, 20, 21, 22, 23, 31, 39, 47, 55, 63),
        {1: (1690, 1692), 2: (1794, 1796)},
    ),
    12: (
        (0, 1, 13, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 47, 59, 71, 83, 95, 107, 119, 131, 143),
        {1: (4074, 4076), 2: (4788, 4790)},
    ),
}


@pytest.mark.parametrize("side", [8, 12])
@pytest.mark.parametrize("seed", [1, 2])
def test_late_no_grid_is_rejected_at_sub_target_2_2(side, seed):
    inst = late_no_grid(side, side, seed)
    result = linearize_grid(inst)
    assert not result.linearizable
    assert result.note == "candidate disagrees below sub-target (2,2)"
    vertices, costs = LATE_NO_WITNESSES[side]
    assert path_vertices(inst.graph, result.witness.path) == vertices
    assert (result.witness.expected, result.witness.got) == costs[seed]
    assert result.witness.expected == double_loop_cost(inst, result.witness.path)


def test_linearize_grid_handles_nonzero_linear_costs():
    rng = random.Random(71)
    inst0 = weak_sum_grid(3, 4, rng.randint(0, 10**9), 0)
    linear = tuple(Fraction(rng.randint(0, 9)) for _ in range(inst0.graph.m))
    inst = QsppInstance(inst0.graph, 0, 11, linear, inst0.interaction)
    result = linearize_grid(inst)
    assert result.linearizable
    assert vector_reproduces_costs(inst, result.vector)
    # the verdict is unchanged by shifting linear costs away
    assert linearize_grid(inst0).linearizable


def test_linearize_grid_product_fill_is_soundly_handled():
    inst = filled_grid(3, 3, "product", 3)
    result = linearize_grid(inst)
    oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False)
    assert result.linearizable == oracle.linearizable
    if result.linearizable:
        assert vector_reproduces_costs(inst, result.vector)


def test_linearize_grid_verdict_is_scale_invariant():
    alpha = Fraction(5, 2)
    for seed in (3, 9, 27):
        inst = random_grid(3, 3, seed)
        scaled = QsppInstance(
            inst.graph, 0, 8, inst.linear, inst.interaction.scaled(alpha)
        )
        assert linearize_grid(inst).linearizable == linearize_grid(scaled).linearizable


def test_linearize_grid_is_deterministic():
    inst = random_grid(4, 3, 81)
    first = linearize_grid(inst)
    second = linearize_grid(inst)
    assert first == second


def test_verdict_operations_reject_malformed_matrices():
    """No malformed matrix reaches linearize_grid, pseudo_linearize or
    build_auxiliary: the constructor refuses it first."""
    with pytest.raises(ValueError, match="^interaction matrix must be symmetric$"):
        InteractionMatrix([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError, match="^interaction matrix must have a zero diagonal$"):
        InteractionMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]])


def test_linearize_grid_rejects_wrong_shape_or_corners():
    with pytest.raises(FamilyError):
        linearize_grid(
            QsppInstance(
                Digraph(3, [(0, 1), (1, 2)]), 0, 2, (0, 0), InteractionMatrix.zero(2)
            )
        )
    g = make_grid(2, 3)
    with pytest.raises(FamilyError):
        linearize_grid(
            QsppInstance(g, 0, 4, (Fraction(0),) * g.m, InteractionMatrix.zero(g.m))
        )
