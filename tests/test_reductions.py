import itertools
import random
from fractions import Fraction

import pytest

from qspath import (
    Digraph,
    DisjointPathsInstance,
    FormatError,
    NoPathError,
    QapInstance,
    QsppInstance,
    brute_force_solve,
    disjoint_to_aqspp,
    emit_instance,
    enumerate_st_paths,
    is_adjacent_qspp,
    parse_instance,
    parse_qaplib,
    qap_brute_force,
    qap_to_qspp,
)
from qspath.generate import random_digraph, random_qap
from qspath.reductions import decode_qap_path, qap_objective

TINY_QAP = QapInstance(2, [[0, 1], [1, 0]], [[0, 2], [2, 0]], [[0, 0], [0, 0]])


def test_qap_instance_refuses_wrong_shapes_and_asymmetric_data():
    zero = [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="^b must be 2x2$"):
        QapInstance(2, zero, [[0, 0]], zero)
    with pytest.raises(ValueError, match="^c must be 2x2$"):
        QapInstance(2, zero, zero, [[0, 0], [0]])
    with pytest.raises(ValueError, match="^matrix b must be symmetric$"):
        QapInstance(2, zero, [[0, 1], [2, 0]], zero)


def test_reduction_sizes():
    inst = qap_to_qspp(random_qap(3, random.Random(0)))
    assert inst.graph.n == 4
    assert inst.graph.m == 9
    inst = qap_to_qspp(TINY_QAP)
    assert (inst.graph.n, inst.graph.m) == (3, 4)


def test_tiny_qap_optimum_by_hand():
    # both placements cost 1*2 + 1*2 = 4
    assert qap_brute_force(TINY_QAP)[1] == 4
    _, cost = brute_force_solve(qap_to_qspp(TINY_QAP))
    assert cost == 4


def test_zero_qap_reduces_to_zero_optimum():
    zero = QapInstance(3, [[0] * 3] * 3, [[0] * 3] * 3, [[0] * 3] * 3)
    _, cost = brute_force_solve(qap_to_qspp(zero))
    assert cost == 0


def test_repeated_facility_paths_cost_at_least_big_m():
    inst = qap_to_qspp(TINY_QAP)
    by_layer_fac = {divmod(a, 2): a for a in range(inst.graph.m)}
    from qspath import Path, path_cost

    repeat = Path((by_layer_fac[(0, 0)], by_layer_fac[(1, 0)]))
    honest = Path((by_layer_fac[(0, 0)], by_layer_fac[(1, 1)]))
    assert path_cost(inst, repeat) > path_cost(inst, honest)
    # the repeat path costs two big-M interactions and exceeds every placement
    worst_assignment = max(
        qap_objective(TINY_QAP, perm) for perm in itertools.permutations(range(2))
    )
    assert path_cost(inst, repeat) > worst_assignment


def test_optimal_path_decodes_to_optimal_placement():
    rng = random.Random(77)
    for n in (2, 3, 4):
        qap = random_qap(n, rng)
        inst = qap_to_qspp(qap)
        path, cost = brute_force_solve(inst)
        placement = decode_qap_path(inst, path.arcs)
        assert sorted(placement) == list(range(n))
        assert qap_objective(qap, placement) == cost
        assert qap_brute_force(qap)[1] == cost


def test_decode_rejects_facility_repeats():
    inst = qap_to_qspp(TINY_QAP)
    by_layer_fac = {divmod(a, 2): a for a in range(inst.graph.m)}
    with pytest.raises(ValueError, match="repeats a facility"):
        decode_qap_path(inst, (by_layer_fac[(0, 1)], by_layer_fac[(1, 1)]))
    # the same arcs with the two layers swapped: arc 0 runs from 1 to 2
    arcs = inst.graph.arcs
    not_layered = QsppInstance(
        Digraph(inst.graph.n, arcs[2:] + arcs[:2]), 0, inst.target, inst.linear, inst.interaction
    )
    with pytest.raises(ValueError, match="layered graph"):
        decode_qap_path(not_layered, (0, 2))
    # the layered arcs on one vertex too many
    extra = QsppInstance(Digraph(4, arcs), 0, inst.target, inst.linear, inst.interaction)
    with pytest.raises(ValueError, match="layered graph"):
        decode_qap_path(extra, (0, 2))


@pytest.mark.parametrize(
    "arcs, message",
    [
        ((0, 4), "arc id 4 lies outside layer 1"),
        ((-1, 2), "arc id -1 lies outside layer 0"),
        ((0, 1), "arc id 1 lies outside layer 1"),
        ((2, 0), "arc id 2 lies outside layer 0"),
        ((0,), "has 2 arcs, got 1"),
        ((0, 3, 3), "has 2 arcs, got 3"),
    ],
)
def test_decode_rejects_arcs_that_form_no_path(arcs, message):
    with pytest.raises(ValueError, match=message):
        decode_qap_path(qap_to_qspp(TINY_QAP), arcs)


def test_parsed_reduction_decodes_to_an_optimal_placement():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        qap = random_qap(n, rng)
        inst = parse_instance(emit_instance(qap_to_qspp(qap)))
        path, cost = brute_force_solve(inst)
        placement = decode_qap_path(inst, path.arcs)
        assert qap_objective(qap, placement) == cost == qap_brute_force(qap)[1]


def test_every_cheap_path_decodes_and_every_repeat_is_penalized():
    rng = random.Random(55)
    qap = random_qap(3, rng)
    inst = qap_to_qspp(qap)
    worst_assignment = max(
        qap_objective(qap, perm) for perm in itertools.permutations(range(3))
    )
    from qspath import path_cost

    for path in enumerate_st_paths(inst.graph, 0, 3):
        cost = path_cost(inst, path)
        facilities = [a % 3 for a in path.arcs]
        if len(set(facilities)) == len(facilities):
            placement = decode_qap_path(inst, path.arcs)
            assert qap_objective(qap, placement) == cost
        else:
            assert cost > worst_assignment
            with pytest.raises(ValueError):
                decode_qap_path(inst, path.arcs)


def test_value_equality_on_seeded_instances():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 4)
        qap = random_qap(n, rng)
        assert qap_brute_force(qap)[1] == brute_force_solve(qap_to_qspp(qap))[1]


def test_parse_qaplib_round_trip():
    qap = parse_qaplib("2  0 1 1 0  0 2 2 0")
    assert qap.n == 2
    assert qap.a == ((0, 1), (1, 0))
    assert qap.b == ((0, 2), (2, 0))
    assert qap.c == ((0, 0), (0, 0))
    assert qap.symmetrized == ()
    assert brute_force_solve(qap_to_qspp(qap))[1] == 4


def test_parse_qaplib_with_linear_costs():
    qap = parse_qaplib("2  0 0 0 0  0 0 0 0  5 1 2 7")
    assert qap.c == ((5, 1), (2, 7))
    # optimum places each facility on its cheaper location
    assert qap_brute_force(qap)[1] == 3


def test_parse_qaplib_symmetrizes_and_flags():
    qap = parse_qaplib("2  0 3 1 0  0 2 2 0")
    assert qap.symmetrized == ("a",)
    assert qap.a[0][1] == Fraction(2)
    assert qap.a[1][0] == Fraction(2)


def test_parse_qaplib_errors_carry_positions():
    with pytest.raises(FormatError, match="got 4"):
        parse_qaplib("2 0 1 1")
    with pytest.raises(FormatError, match=r"^first token \('2\.0'\) must be the size n$"):
        parse_qaplib("2.0 0 1 1 0 0 2 2 0")
    with pytest.raises(FormatError, match="token 3"):
        parse_qaplib("2 0 x 1 0 0 2 2 0")
    with pytest.raises(FormatError):
        parse_qaplib("")
    with pytest.raises(FormatError):
        parse_qaplib("-1")


def test_parse_qaplib_desk_scale_file():
    rng = random.Random(13)
    n = 12
    mat = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        mat[i][i] = 0
        for j in range(i):
            mat[i][j] = mat[j][i]
    body = " ".join(str(v) for row in mat for v in row)
    qap = parse_qaplib(f"{n} {body} {body}")
    inst = qap_to_qspp(qap)
    assert inst.graph.m == n * n <= 145


def test_disjoint_reduction_yes_instance():
    # two vertex-disjoint direct arcs
    from qspath import Digraph

    g = Digraph(4, [(0, 1), (2, 3)])
    inst = disjoint_to_aqspp(DisjointPathsInstance(g, 0, 1, 2, 3))
    assert is_adjacent_qspp(inst)
    _, cost = brute_force_solve(inst)
    assert cost == 0


def test_disjoint_reduction_forced_shared_arc():
    # both terminal pairs must cross the single middle arc
    from qspath import Digraph

    g = Digraph(5, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 0)])
    inst = disjoint_to_aqspp(DisjointPathsInstance(g, 0, 4, 1, 0))
    assert is_adjacent_qspp(inst)
    _, cost = brute_force_solve(inst)
    assert cost == 2


def test_disjoint_instance_validation():
    from qspath import Digraph

    g = Digraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        DisjointPathsInstance(g, 0, 1, 0, 3)
    with pytest.raises(ValueError):
        DisjointPathsInstance(g, 0, 3, 2, 3)
    with pytest.raises(ValueError, match="^terminal outside the vertex range$"):
        DisjointPathsInstance(g, 0, 1, 2, 4)


def _has_arc_disjoint_pair(g, s1, t1, s2, t2, limit=2000) -> bool:
    first = enumerate_st_paths(g, s1, t1, limit)
    second = enumerate_st_paths(g, s2, t2, limit)
    for p1 in first:
        used = set(p1.arcs)
        for p2 in second:
            if used.isdisjoint(p2.arcs):
                return True
    return False


def test_disjoint_reduction_agrees_with_search():
    rng = random.Random(7)
    yes = no = 0
    while yes < 6 or no < 6:
        n = rng.randint(4, 7)
        g = random_digraph(n, 0.3, rng)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        inst = disjoint_to_aqspp(DisjointPathsInstance(g, s1, t1, s2, t2))
        try:
            _, cost = brute_force_solve(inst, limit=50_000)
        except NoPathError:
            cost = None
        answer = _has_arc_disjoint_pair(g, s1, t1, s2, t2)
        if answer:
            assert cost == 0
            yes += 1
        else:
            assert cost is None or cost >= 2
            no += 1
