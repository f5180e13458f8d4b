import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from qspath import (
    Digraph,
    FamilyError,
    InteractionMatrix,
    QsppInstance,
    build_path_matrix,
    check_necessary_conditions,
    enumerate_st_paths,
    k4_linearize,
    lp_oracle,
    make_complete_symmetric,
    make_grid,
    make_tournament,
    normalize_knstar,
    path_class_costs,
    path_cost,
    tournament4_linearize,
)
from qspath.complete import _never_together, knstar_order, paths_of_length
from qspath.generate import worked_example
from qspath.graphs import _adjacent

from helpers import arc_index, assert_valid_certificate, costs_by_enumeration, traced_peak
from helpers import vector_reproduces_costs
from zoo import biased_k4, knstar_instance, random_costs, random_knstar, random_q


def test_shape_recognition():
    g = make_complete_symmetric(5, simplified=True, source=0, target=4)
    assert knstar_order(g, 0, 4) == 5
    with pytest.raises(FamilyError):
        knstar_order(g, 0, 3)  # wrong terminals for this arc set
    with pytest.raises(FamilyError):
        knstar_order(make_grid(2, 3), 0, 5)


def test_shape_recognition_ignores_arc_order_and_refuses_repeats():
    arcs = list(make_complete_symmetric(5, simplified=True, source=1, target=3).arcs)
    random.Random(3).shuffle(arcs)
    assert knstar_order(Digraph(5, arcs), 1, 3) == 5
    with pytest.raises(FamilyError):
        knstar_order(Digraph(5, arcs + arcs[:1]), 1, 3)
    with pytest.raises(FamilyError):
        knstar_order(Digraph(5, arcs[:-1] + arcs[:1]), 1, 3)


def test_shape_recognition_counts_arcs_before_building_the_shape():
    """Many vertices and one arc are refused by the arc count, before the
    (n-1)(n-2) arcs of the shape, here 89,102, would be built."""
    g = Digraph(300, [(0, 1)])

    def refuse():
        with pytest.raises(FamilyError):
            knstar_order(g, 0, 1)

    assert traced_peak(refuse) < 64 * 1024


def test_adjacent_is_the_consecutive_rule_on_co_carriable_pairs():
    """path_class_costs sorts pairs by graphs._adjacent.  On every pair
    some path can carry, that is the rule "one arc ends where the other
    starts"; the two differ only on the two orientations of one vertex pair,
    which no path carries."""
    checked = 0
    for n in range(4, 8):
        for source, target in permutations(range(n), 2):
            g = make_complete_symmetric(n, simplified=True, source=source, target=target)
            for e, f in combinations(range(g.m), 2):
                if _never_together(g, e, f):
                    continue
                a, b = g.arcs[e], g.arcs[f]
                assert _adjacent(g, e, f) == (a.tail == b.head or a.head == b.tail)
                checked += 1
    assert checked > 10_000


def test_normalize_zeroes_unusable_pairs_only():
    inst = knstar_instance(4, {((0, 1), (2, 1)): 5, ((0, 1), (1, 3)): 7})
    idx = arc_index(inst.graph)
    normalized = normalize_knstar(inst)
    assert normalized.interaction.row(idx[(0, 1)])[idx[(2, 1)]] == 0
    assert normalized.interaction.row(idx[(0, 1)])[idx[(1, 3)]] == 7


def test_normalize_preserves_every_path_cost():
    inst = random_knstar(5, 2)
    normalized = normalize_knstar(inst)
    assert costs_by_enumeration(inst) == costs_by_enumeration(normalized)


def test_surviving_pairs_all_appear_on_some_path():
    # normalization zeroes exactly the pairs no path can carry
    from qspath.complete import _never_together

    for n in (4, 5, 6):
        g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        on_some_path = set()
        for p in enumerate_st_paths(g, 0, n - 1):
            for i, e in enumerate(p.arcs):
                for f in p.arcs[i + 1 :]:
                    on_some_path.add(frozenset((e, f)))
        for e in range(g.m):
            for f in range(e + 1, g.m):
                assert _never_together(g, e, f) == (
                    frozenset((e, f)) not in on_some_path
                )


def test_path_counts_per_length():
    """Every length from 0 to n+1 against enumeration: the simplified shape
    has no source-target arc, so no path of length 1, and none past n-1."""
    assert paths_of_length(5, 2) == 3
    assert paths_of_length(5, 3) == 6
    assert paths_of_length(5, 4) == 6
    for n in range(2, 8):
        g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        seen = Counter(map(len, enumerate_st_paths(g, 0, n - 1)))
        lengths = range(n + 2)
        assert {k: paths_of_length(n, k) for k in lengths} == {k: seen[k] for k in lengths}


def test_single_interior_pair_five_vertices():
    inst = normalize_knstar(worked_example(5))
    sums, totals = path_class_costs(inst)
    assert totals == {2: 0, 3: 2, 4: 2}
    report = check_necessary_conditions(inst)
    assert not report.violated
    # yet no nonnegative vector reproduces the path costs
    oracle = lp_oracle(build_path_matrix(inst), require_nonneg=True)
    assert not oracle.linearizable


def test_costly_short_paths_violate_conditions():
    inst = normalize_knstar(worked_example(4))
    _, totals = path_class_costs(inst)
    assert totals == {2: 4, 3: 0}
    report = check_necessary_conditions(inst)
    assert report.violated
    first = report.conditions[0]
    assert first.label == "vs-longer" and first.k == 2 and not first.satisfied


def test_zero_interaction_passes_everything():
    inst = knstar_instance(6, {})
    _, totals = path_class_costs(inst)
    assert all(v == 0 for v in totals.values())
    assert not check_necessary_conditions(inst).violated


def test_class_sums_total_matches_quadratic_form():
    for n, seed in ((5, 3), (6, 4), (7, 5)):
        inst = normalize_knstar(random_knstar(n, seed))
        sums, _ = path_class_costs(inst)
        rows = inst.interaction.rows
        all_ones = sum(sum(row) for row in rows)
        assert sum(sums.sums) == all_ones


def test_closed_form_matches_enumeration():
    for n, seed in ((5, 11), (6, 12), (7, 13)):
        inst = normalize_knstar(random_knstar(n, seed))
        _, totals = path_class_costs(inst)
        observed = {k: Fraction(0) for k in range(2, n)}
        for p in enumerate_st_paths(inst.graph, 0, n - 1):
            observed[len(p)] += path_cost(inst, p)
        assert totals == observed


def test_path_class_costs_preconditions():
    raw = random_knstar(5, 21)
    shifted = QsppInstance(
        raw.graph,
        0,
        4,
        (Fraction(1),) * raw.graph.m,
        normalize_knstar(raw).interaction,
    )
    with pytest.raises(FamilyError, match="linear"):
        path_class_costs(shifted)
    with pytest.raises(FamilyError, match="at least four vertices"):
        path_class_costs(knstar_instance(3, {}))


def test_scaling_leaves_verdicts_alone():
    inst = normalize_knstar(random_knstar(6, 31))
    _, totals = path_class_costs(inst)
    alpha = Fraction(5, 2)
    scaled = QsppInstance(
        inst.graph, 0, 5, inst.linear, inst.interaction.scaled(alpha)
    )
    _, scaled_totals = path_class_costs(scaled)
    assert scaled_totals == {k: alpha * v for k, v in totals.items()}
    assert (
        check_necessary_conditions(inst).violated
        == check_necessary_conditions(scaled).violated
    )


def test_k4_rejects_the_costly_short_paths_instance():
    inst = normalize_knstar(worked_example(4))
    result = k4_linearize(inst)
    assert not result.linearizable
    assert_valid_certificate(
        build_path_matrix(inst), result.witness.coefficients, require_nonneg=True
    )


def test_k4_rejects_a_negative_path_with_its_unit_certificate():
    """Q = -1 on the pair (0->1, 1->3) prices the path 0-1-3 at -2, which
    no nonnegative vector reaches: the certificate is that path's row."""
    inst = knstar_instance(4, {((0, 1), (1, 3)): -1})
    result = k4_linearize(inst)
    assert not result.linearizable
    assert result.note == "a path has negative cost, unreachable with nonnegative entries"
    assert result.witness.coefficients == (0, 1, 0, 0)
    assert_valid_certificate(
        build_path_matrix(inst), result.witness.coefficients, require_nonneg=True
    )


def test_k4_interior_pair_gets_explicit_vector():
    inst = knstar_instance(4, {((0, 1), (1, 2)): 1})
    result = k4_linearize(inst)
    assert result.linearizable
    idx = arc_index(inst.graph)
    expected = [Fraction(0)] * 6
    expected[idx[(1, 2)]] = Fraction(2)
    assert list(result.vector) == expected


def test_k4_zero_interaction():
    result = k4_linearize(knstar_instance(4, {}))
    assert result.linearizable
    assert result.vector == (0,) * 6


def test_k4_cases_with_costly_short_route():
    # short route via the first middle vertex costs 2 but the long routes absorb it
    inst = knstar_instance(4, {((0, 1), (1, 3)): 1, ((2, 1), (1, 3)): 1})
    result = k4_linearize(inst)
    assert result.linearizable
    assert vector_reproduces_costs(inst, result.vector)
    # mirrored: short route via the second middle vertex is the costly one
    mirrored = knstar_instance(4, {((0, 2), (2, 3)): 1, ((1, 2), (2, 3)): 1})
    result = k4_linearize(mirrored)
    assert result.linearizable
    assert vector_reproduces_costs(mirrored, result.vector)


def k4_with_path_costs(b):
    """K4* (s, x, y, t) = (0, 1, 2, 3) whose paths s-x-t, s-y-t, s-x-y-t and
    s-y-x-t cost b[0..3]: each path holds one pair no other path holds."""
    h = Fraction(1, 2)
    return knstar_instance(4, {
        ((0, 1), (1, 3)): h * b[0],
        ((0, 2), (2, 3)): h * b[1],
        ((1, 2), (2, 3)): h * b[2],
        ((2, 1), (1, 3)): h * b[3],
    })


@pytest.mark.parametrize("b, expected", [
    # b0 <= b2 and b1 <= b3: sx = b0, sy = b1, the rest on xy and yx
    ((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)),
     {(0, 1): Fraction(1, 2), (0, 2): Fraction(3, 2), (1, 2): 2, (2, 1): 2}),
    # b0 > b2: the excess goes on xt, xy stays empty
    ((Fraction(7, 2), Fraction(1, 2), Fraction(3, 2), Fraction(9, 2)),
     {(0, 1): Fraction(3, 2), (0, 2): Fraction(1, 2), (1, 3): 2, (2, 1): 2}),
    # b1 > b3: the excess goes on yt, yx stays empty
    ((Fraction(1, 2), Fraction(7, 2), Fraction(9, 2), Fraction(3, 2)),
     {(0, 1): Fraction(1, 2), (0, 2): Fraction(3, 2), (2, 3): 2, (1, 2): 2}),
    # tie b0 = b2
    ((Fraction(5, 2), Fraction(1, 2), Fraction(5, 2), Fraction(3, 2)),
     {(0, 1): Fraction(5, 2), (0, 2): Fraction(1, 2), (2, 1): 1}),
    # tie b0 + b1 = b2 + b3, with b0 > b2
    ((Fraction(7, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)),
     {(0, 1): Fraction(3, 2), (0, 2): Fraction(1, 2), (1, 3): 2}),
])
def test_k4_vector_in_each_regime(b, expected):
    inst = k4_with_path_costs(b)
    result = k4_linearize(inst)
    assert result.linearizable
    idx = arc_index(inst.graph)
    vector = [0] * 6
    for arc, value in expected.items():
        vector[idx[arc]] = value
    assert result.vector == tuple(vector)
    assert all(type(v) is int for v in result.vector if v == int(v))
    assert vector_reproduces_costs(inst, result.vector)


def test_k4_requires_four_vertices():
    with pytest.raises(FamilyError):
        k4_linearize(knstar_instance(5, {}))


def test_raw_and_normalized_instances_agree():
    """Costs on pairs no path can carry change no result: every (s, t) on
    K4 to K7 under a random fill, K4 through k4_linearize too."""
    rng = random.Random(17)
    for n in range(4, 8):
        for s, t in permutations(range(n), 2):
            g = make_complete_symmetric(n, simplified=True, source=s, target=t)
            raw = random_q(g, s, t, rng)
            normalized = normalize_knstar(raw)
            assert raw.interaction != normalized.interaction
            assert path_class_costs(raw) == path_class_costs(normalized)
            assert check_necessary_conditions(raw) == check_necessary_conditions(
                normalized
            )
            if n == 4:
                assert k4_linearize(raw) == k4_linearize(normalized)


def test_k4_verdict_matches_oracle_on_seeded_instances():
    rng = random.Random(8)
    seen = {True: 0, False: 0}
    for _ in range(120):
        inst = normalize_knstar(biased_k4(rng, 5, 30))
        mine = k4_linearize(inst)
        oracle = lp_oracle(build_path_matrix(inst), require_nonneg=True)
        assert mine.linearizable == oracle.linearizable
        if mine.linearizable:
            assert vector_reproduces_costs(inst, mine.vector)
        seen[mine.linearizable] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def test_tournament_always_linearizes():
    rng = random.Random(44)
    for _ in range(100):
        g = make_tournament(4, rng.getrandbits(6))
        s, t = rng.sample(range(4), 2)
        inst = random_costs(g, s, t, rng)
        result = tournament4_linearize(inst)
        assert result.linearizable
        assert vector_reproduces_costs(inst, result.vector)


def test_tournament_zero_interaction_returns_own_costs():
    g = make_tournament(4)
    linear = (Fraction(1), Fraction(2), Fraction(0), Fraction(3), Fraction(0), Fraction(1))
    inst = QsppInstance(g, 0, 3, linear, InteractionMatrix.zero(6))
    result = tournament4_linearize(inst)
    assert result.linearizable and result.vector == linear


def test_tournament_family_and_validity_checks():
    with pytest.raises(FamilyError):
        tournament4_linearize(knstar_instance(4, {}))
    five = make_tournament(5)
    with pytest.raises(FamilyError, match="^need a four-vertex tournament$"):
        tournament4_linearize(QsppInstance(five, 0, 4, (0,) * 10, InteractionMatrix.zero(10)))
    g = make_tournament(4)
    negative = QsppInstance(
        g, 0, 3, (Fraction(-1),) * 6, InteractionMatrix.zero(6)
    )
    with pytest.raises(FamilyError):
        tournament4_linearize(negative)
