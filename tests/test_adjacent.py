import random
from fractions import Fraction

import pytest

from qspath import (
    CyclicGraphError,
    Digraph,
    FamilyError,
    InteractionMatrix,
    QsppInstance,
    SppInstance,
    brute_force_solve,
    build_auxiliary,
    enumerate_st_paths,
    is_adjacent_qspp,
    make_cyclic_counterexample,
    path_cost,
    path_vertices,
    solve_aqspp,
    spp_solve,
)
from qspath import adjacent
from qspath.generate import fill_adjacent, filled_instance, random_dag
from qspath.graphs import make_grid

from helpers import arc_index


def test_is_adjacent_recognition():
    inst = make_cyclic_counterexample(Fraction(1, 2))
    assert is_adjacent_qspp(inst)

    g = Digraph(5, [(0, 1), (2, 3), (1, 2)])
    far_apart = InteractionMatrix.from_entries(3, {(0, 1): 1})
    assert not is_adjacent_qspp(QsppInstance(g, 0, 3, (0, 0, 0), far_apart))
    zero = QsppInstance(g, 0, 3, (0, 0, 0), InteractionMatrix.zero(3))
    assert is_adjacent_qspp(zero)


def test_adjacency_is_tested_once_per_nonzero_pair(monkeypatch):
    """is_adjacent_qspp tests only the nonzero pairs of Q, each once as
    e < f, and stops at the first that is not adjacent."""
    calls = []

    def counted(g, e, f):
        calls.append((e, f))
        return real(g, e, f)

    real = adjacent._adjacent
    monkeypatch.setattr(adjacent, "_adjacent", counted)
    g = make_grid(5, 6)
    inst = filled_instance(g, 0, g.n - 1, "adjacent", seed=3)
    pairs = [(e, f) for e, f, _ in inst.interaction.pairs()]
    assert is_adjacent_qspp(inst)
    assert calls == pairs and 0 < len(pairs) < g.m * (g.m - 1) // 4
    calls.clear()
    rows = [list(row) for row in inst.interaction.rows]
    rows[0][g.m - 1] = rows[g.m - 1][0] = 1
    assert not is_adjacent_qspp(QsppInstance(g, 0, g.n - 1, inst.linear, InteractionMatrix(rows)))
    assert calls[-1] == (0, g.m - 1) and calls == sorted(set(calls))


def test_parallel_arcs_are_not_adjacent():
    g = Digraph(2, [(0, 1), (0, 1)])
    q = InteractionMatrix.from_entries(2, {(0, 1): 1})
    assert not is_adjacent_qspp(QsppInstance(g, 0, 1, (0, 0), q))


def test_two_cycle_pairs_are_not_adjacent():
    g = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    q = InteractionMatrix.from_entries(3, {(0, 1): 1})
    assert not is_adjacent_qspp(QsppInstance(g, 0, 2, (0, 0, 0), q))
    # nor does the lift continue an arc along its way back
    aux = build_auxiliary(QsppInstance(g, 0, 2, (0, 0, 0), InteractionMatrix.zero(3)))
    assert set(aux.graph.arcs) == {(0, 1), (1, 3), (3, 4)}


def test_auxiliary_of_counterexample():
    inst = make_cyclic_counterexample(Fraction(1, 2))
    aux = build_auxiliary(inst)
    assert aux.graph.n == 7
    # one vertex per original arc, aux source first, aux target last
    assert aux.arc_of_vertex == (None, 0, 1, 2, 3, 4, None)
    # arcs: source lead-in, every consecutive arc pair (two-cycles excluded),
    # and the target lead-out; the 2-3-1 loop contributes both continuations
    expected = {
        (0, 1),
        (1, 2),
        (1, 5),
        (2, 3),
        (3, 4),
        (4, 2),
        (4, 5),
        (5, 6),
    }
    assert set(aux.graph.arcs) == expected
    idx = arc_index(aux.graph)
    # entering the vertex of the priced arc costs that arc's linear price
    assert aux.linear[idx[(2, 3)]] == Fraction(1, 2)
    assert aux.linear[idx[(1, 5)]] == 2  # linear zero plus twice the interaction
    assert aux.linear[idx[(5, 6)]] == 0


def test_auxiliary_single_arc_graph():
    g = Digraph(2, [(0, 1)])
    inst = QsppInstance(g, 0, 1, (Fraction(5),), InteractionMatrix.zero(1))
    aux = build_auxiliary(inst)
    assert aux.graph.n == 3
    assert set(aux.graph.arcs) == {(0, 1), (1, 2)}
    assert aux.linear == (5, 0)


def test_auxiliary_vertex_count_on_random_dags():
    rng = random.Random(17)
    for _ in range(10):
        g = random_dag(rng.randint(3, 9), 0.4, rng)
        inst = QsppInstance(
            g, 0, g.n - 1, (Fraction(0),) * g.m, InteractionMatrix.zero(g.m)
        )
        assert build_auxiliary(inst).graph.n == g.m + 2


def test_auxiliary_path_count_matches_original_on_dags():
    rng = random.Random(29)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_dag(n, 0.5, rng)
        inst = QsppInstance(
            g, 0, n - 1, (Fraction(0),) * g.m, InteractionMatrix.zero(g.m)
        )
        aux = build_auxiliary(inst)
        original = len(enumerate_st_paths(g, 0, n - 1, 10**4))
        lifted = len(enumerate_st_paths(aux.graph, aux.source, aux.target, 10**4))
        assert original == lifted
        checked += 1
    assert checked == 40


def test_build_auxiliary_rejects_non_adjacent_interaction():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    q = InteractionMatrix.from_entries(3, {(0, 2): 1})
    with pytest.raises(FamilyError):
        build_auxiliary(QsppInstance(g, 0, 3, (0, 0, 0), q))


def test_solve_aqspp_matches_brute_force_on_random_dags():
    rng = random.Random(41)
    solved = 0
    while solved < 60:
        n = rng.randint(4, 10)
        g = random_dag(n, 0.4, rng)
        if not enumerate_st_paths(g, 0, n - 1, 10**4):
            continue
        linear, interaction = fill_adjacent(g, rng)
        inst = QsppInstance(g, 0, n - 1, linear, interaction)
        path, cost = solve_aqspp(inst)
        _, expected = brute_force_solve(inst)
        assert cost == expected
        assert path_cost(inst, path) == cost
        solved += 1


def test_solve_aqspp_zero_interaction_equals_plain_shortest_path():
    rng = random.Random(53)
    g = random_dag(8, 0.5, rng)
    linear = tuple(Fraction(rng.randint(0, 9)) for _ in range(g.m))
    inst = QsppInstance(g, 0, 7, linear, InteractionMatrix.zero(g.m))
    _, cost = solve_aqspp(inst)
    _, expected = spp_solve(SppInstance(g, 0, 7, linear))
    assert cost == expected


def test_solve_aqspp_refuses_cyclic_graphs():
    inst = make_cyclic_counterexample(Fraction(1, 2))
    with pytest.raises(CyclicGraphError, match="acyclic"):
        solve_aqspp(inst)


def test_counterexample_family():
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        inst = make_cyclic_counterexample(eps)
        path, cost = brute_force_solve(inst)
        assert cost == 2
        assert path_vertices(inst.graph, path) == (0, 1, 4)
        aux = build_auxiliary(inst)
        _, walk_value = spp_solve(
            SppInstance(aux.graph, aux.source, aux.target, aux.linear)
        )
        assert walk_value == eps
        assert walk_value < cost


def test_counterexample_epsilon_range():
    for bad in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            make_cyclic_counterexample(bad)
