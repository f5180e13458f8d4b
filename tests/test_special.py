import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspath import (
    CyclicGraphError,
    Digraph,
    FamilyError,
    InteractionMatrix,
    NoPathError,
    QsppInstance,
    all_paths_equal_length,
    brute_force_solve,
    detect_product,
    detect_weak_sum,
    enumerate_st_paths,
    linearize_directed_cycle,
    linearize_weak_sum,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    path_cost,
    solve_product_case,
)

from helpers import vector_reproduces_costs
from zoo import product_matrix_and_linear, random_costs, weak_sum_matrix


def test_detect_weak_sum_forced_first_entry():
    q = InteractionMatrix(
        [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
    )
    assert detect_weak_sum(q) == (1, 2, 3)


def test_detect_weak_sum_zero_matrix():
    assert detect_weak_sum(InteractionMatrix.zero(5)) == (0,) * 5


def test_detect_weak_sum_small_orders():
    assert detect_weak_sum(InteractionMatrix.zero(0)) == ()
    assert detect_weak_sum(InteractionMatrix.zero(1)) == (0,)
    assert detect_weak_sum(InteractionMatrix([[0, 6], [6, 0]])) == (3, 3)


def test_detect_weak_sum_rejects_perturbation():
    # order 3 always admits a witness (three equations, three unknowns),
    # so the smallest order where a perturbation can break it is 4
    rng = random.Random(2)
    for m in (4, 5, 12):
        a = [rng.randint(-10, 10) for _ in range(m)]
        rows = [list(r) for r in weak_sum_matrix(a).rows]
        e, f = 0, m - 1
        rows[e][f] += 1
        rows[f][e] += 1
        assert detect_weak_sum(InteractionMatrix(rows)) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=3, max_size=40))
def test_detect_weak_sum_roundtrip(a):
    witness = detect_weak_sum(weak_sum_matrix(a))
    assert witness is not None
    q = weak_sum_matrix(witness)
    assert q.rows == weak_sum_matrix(a).rows


def test_equal_length_on_grids_and_hypercubes():
    for p, q in [(2, 2), (3, 4), (5, 2)]:
        g = make_grid(p, q)
        assert all_paths_equal_length(g, 0, g.n - 1) == p + q - 2
    h = make_hypercube(3)
    assert all_paths_equal_length(h, 0, 7) == 3


def test_equal_length_rejects_mixed_lengths_and_bad_inputs():
    # both length-2 and length-3 routes exist in this DAG
    mixed = Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert all_paths_equal_length(mixed, 0, 3) is None
    with pytest.raises(NoPathError):
        all_paths_equal_length(Digraph(3, [(0, 1)]), 0, 2)


def test_equal_length_rejects_endpoints_outside_the_graph():
    g = make_grid(3, 3)
    for source, target in [(-9, 8), (0, -1), (9, 8), (0, 9), (4, 4)]:
        with pytest.raises(ValueError):
            all_paths_equal_length(g, source, target)


def test_equal_length_needs_acyclic_route_subgraph():
    # the two-cycle between the middle vertices sits on source-target routes
    k4 = make_complete_symmetric(4, simplified=True, source=0, target=3)
    with pytest.raises(CyclicGraphError):
        all_paths_equal_length(k4, 0, 3)
    # a directed cycle has exactly one route, so the question degenerates
    with pytest.raises(CyclicGraphError):
        all_paths_equal_length(make_directed_cycle(4), 0, 2)


def test_equal_length_ignores_vertices_off_route():
    # dangling branch of different depth must not fool the detector
    g = Digraph(4, [(0, 1), (1, 2), (0, 3)])
    assert all_paths_equal_length(g, 0, 2) == 2
    # cycles among vertices off every route are equally irrelevant
    aside = Digraph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 4)])
    assert all_paths_equal_length(aside, 0, 3) == 3


def test_linearize_weak_sum_tiny_grid_unit_generator():
    g = make_grid(2, 2)
    inst = QsppInstance(g, 0, 3, (Fraction(0),) * g.m, weak_sum_matrix([1] * g.m))
    assert linearize_weak_sum(inst) == (2, 2, 2, 2)


def test_linearize_weak_sum_reproduces_costs_on_grids_and_cube():
    rng = random.Random(9)
    for graph, source, target in [
        (make_grid(3, 3), 0, 8),
        (make_grid(5, 5), 0, 24),
        (make_hypercube(4), 0, 15),
    ]:
        a = [rng.randint(-6, 9) for _ in range(graph.m)]
        linear = tuple(Fraction(rng.randint(0, 5)) for _ in range(graph.m))
        inst = QsppInstance(graph, source, target, linear, weak_sum_matrix(a))
        vector = linearize_weak_sum(inst)
        assert vector_reproduces_costs(inst, vector)


def test_linearize_weak_sum_single_arc_paths_keep_linear_costs():
    g = Digraph(2, [(0, 1)])
    inst = QsppInstance(g, 0, 1, (Fraction(7),), InteractionMatrix.zero(1))
    assert linearize_weak_sum(inst) == (7,)


def test_linearize_weak_sum_preconditions():
    mixed = Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    inst = QsppInstance(
        mixed, 0, 3, (Fraction(0),) * mixed.m, weak_sum_matrix([1] * mixed.m)
    )
    with pytest.raises(FamilyError):
        linearize_weak_sum(inst)  # mixed path lengths
    g = make_grid(2, 2)
    not_weak = InteractionMatrix.from_entries(4, {(0, 1): 1, (0, 2): 5, (1, 2): 9})
    with pytest.raises(FamilyError):
        linearize_weak_sum(QsppInstance(g, 0, 3, (Fraction(0),) * 4, not_weak))


def test_detect_product_examples():
    q, linear = product_matrix_and_linear([1, 2])
    assert q.rows[0][1] == 2
    assert detect_product(q, linear) == (1, 2)
    # identity: off-diagonal zero but factors would have to be 1
    assert detect_product(InteractionMatrix.zero(2), (1, 1)) is None


def test_detect_product_roundtrip_and_zero_rows():
    rng = random.Random(4)
    for _ in range(20):
        a = [rng.randint(0, 5) for _ in range(rng.randint(2, 8))]
        q, linear = product_matrix_and_linear(a)
        assert detect_product(q, linear) == tuple(Fraction(v) for v in a)


def test_detect_product_rejects_higher_rank():
    rng = random.Random(8)
    rejected = 0
    for _ in range(30):
        m = rng.randint(2, 6)
        a = [Fraction(rng.randint(0, 4)) for _ in range(m)]
        b = [Fraction(rng.randint(0, 4)) for _ in range(m)]
        full = [[a[e] * a[f] + b[e] * b[f] for f in range(m)] for e in range(m)]
        has_rank_two_minor = any(
            full[i][k] * full[j][l] != full[i][l] * full[j][k]
            for i in range(m)
            for j in range(i + 1, m)
            for k in range(m)
            for l in range(k + 1, m)
        )
        if not has_rank_two_minor:
            continue
        rejected += 1
        q_rows = [
            [full[e][f] if e != f else Fraction(0) for f in range(m)] for e in range(m)
        ]
        linear = tuple(full[e][e] for e in range(m))
        assert detect_product(InteractionMatrix(q_rows), linear) is None
    assert rejected >= 5


def test_detect_product_requires_rational_factor():
    q = InteractionMatrix.from_entries(2, {(0, 1): 2})
    assert detect_product(q, (2, 2)) is None
    g = Digraph(2, [(0, 1), (0, 1)])
    inst = QsppInstance(g, 0, 1, (2, 2), q)
    with pytest.raises(FamilyError, match="irrational"):
        solve_product_case(inst)


def test_solve_product_case_matches_brute_force():
    rng = random.Random(31)
    for trial in range(10):
        g = make_grid(3, 3)
        a = [rng.randint(0, 4) for _ in range(g.m)]
        q, linear = product_matrix_and_linear(a)
        inst = QsppInstance(g, 0, 8, linear, q)
        path, cost = solve_product_case(inst)
        _, expected = brute_force_solve(inst)
        assert cost == expected
        assert path_cost(inst, path) == cost


def test_solve_product_case_closed_forms():
    g = make_grid(3, 4)
    q, linear = product_matrix_and_linear([0] * g.m)
    _, cost = solve_product_case(QsppInstance(g, 0, 11, linear, q))
    assert cost == 0
    q, linear = product_matrix_and_linear([1] * g.m)
    _, cost = solve_product_case(QsppInstance(g, 0, 11, linear, q))
    assert cost == (3 + 4 - 2) ** 2


def test_product_matrix_with_its_diagonal_kept_is_refused():
    """Q = a a^T with its diagonal kept is not an interaction matrix: the
    product solver would price the diagonal, which path costs never read.
    With the diagonal moved into c, all three ways to price agree."""
    a = (1, 2, 3, 1)
    with pytest.raises(ValueError, match="^interaction matrix must have a zero diagonal$"):
        InteractionMatrix([[x * y for y in a] for x in a])
    q, linear = product_matrix_and_linear(a)
    inst = QsppInstance(make_grid(2, 2), 0, 3, linear, q)
    path, cost = solve_product_case(inst)
    assert path.arcs == (0, 3) and cost == 4
    assert brute_force_solve(inst) == (path, 4)
    assert path_cost(inst, path) == 4


def test_linearize_directed_cycle():
    """Every ordered (source, target) pair of a 5-cycle, wrapping ones such
    as (3, 1) too: the vector's single nonzero entry is the path's cost, on
    its first arc, the arc out of the source; each c is raised by one, so
    every path costs more than 0."""
    g = make_directed_cycle(5)
    for source in range(5):
        for target in set(range(5)) - {source}:
            base = random_costs(g, source, target, random.Random(6))
            linear = tuple(c + 1 for c in base.linear)
            inst = QsppInstance(g, source, target, linear, base.interaction)
            (path,) = enumerate_st_paths(g, source, target)
            cost = path_cost(inst, path)
            assert cost > 0 and path.arcs[0] == source
            expected = tuple(cost if a == source else 0 for a in range(5))
            assert linearize_directed_cycle(inst) == expected


def test_linearize_directed_cycle_adjacent_terminals():
    g = make_directed_cycle(5)
    linear = (Fraction(3), Fraction(1), Fraction(4), Fraction(1), Fraction(5))
    inst = QsppInstance(g, 0, 1, linear, InteractionMatrix.zero(5))
    vector = linearize_directed_cycle(inst)
    assert vector[0] == linear[0]
    assert sum(1 for v in vector if v) == 1


def test_linearize_directed_cycle_rejects_other_graphs():
    inst = QsppInstance(
        make_grid(2, 2), 0, 3, (Fraction(0),) * 4, InteractionMatrix.zero(4)
    )
    with pytest.raises(FamilyError):
        linearize_directed_cycle(inst)
    wider = QsppInstance(make_grid(2, 3), 0, 5, (0,) * 7, InteractionMatrix.zero(7))
    with pytest.raises(FamilyError, match="as many arcs as vertices"):
        linearize_directed_cycle(wider)


@pytest.mark.parametrize(
    "arcs",
    [
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
    ],
    ids=["two-2-cycles", "two-3-cycles"],
)
def test_linearize_directed_cycle_rejects_disjoint_cycles(arcs):
    """Every vertex has in- and out-degree one, but the cycle is not single."""
    n = len(arcs)
    inst = QsppInstance(
        Digraph(n, arcs), 0, 1, (Fraction(0),) * n, InteractionMatrix.zero(n)
    )
    with pytest.raises(FamilyError, match="^graph is not a single directed cycle$"):
        linearize_directed_cycle(inst)
