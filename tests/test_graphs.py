import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspath import (
    Digraph,
    InvalidPathError,
    Path,
    PathLimitExceeded,
    count_grid_paths,
    detect_grid,
    enumerate_st_paths,
    is_acyclic,
    iter_st_paths,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
    path_vertices,
    topological_order,
    validate_path,
)
from qspath import graphs
from qspath.generate import random_dag, random_digraph
from qspath.graphs import reachable

from helpers import double_loop_cost, naive_st_paths, traced_peak
from zoo import bound_instances, priced_walk_instances


def test_digraph_rejects_bad_arcs():
    with pytest.raises(ValueError):
        Digraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Digraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(0, [])


def test_digraph_allows_parallel_arcs():
    g = Digraph(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.out_arcs(0) == (0, 1)
    assert g.in_arcs(1) == (0, 1)
    # graphs are equal by vertex count and arc list and then hash equal;
    # another type compares unequal rather than raising
    twin = Digraph(2, [(0, 1), (0, 1)])
    assert g == twin and hash(g) == hash(twin)
    assert g != Digraph(2, [(0, 1)]) and (g == g.arcs) is False
    assert repr(g) == "Digraph(n=2, m=2)"


def test_adjacency_matches_arc_list():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.5
        ]
        g = Digraph(n, arcs)
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for i, (u, v) in enumerate(arcs):
            out[u].append(i)
            inc[v].append(i)
        for v in range(n):
            assert list(g.out_arcs(v)) == out[v]
            assert list(g.in_arcs(v)) == inc[v]


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (2, 5), (4, 3), (6, 6)])
def test_grid_sizes(p, q):
    g = make_grid(p, q)
    assert g.n == p * q
    assert g.m == 2 * p * q - p - q
    assert is_acyclic(g)


def test_grid_2x2_arc_set():
    g = make_grid(2, 2)
    assert set(g.arcs) == {(0, 2), (0, 1), (1, 3), (2, 3)}


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        make_grid(1, 5)
    with pytest.raises(ValueError):
        make_grid(3, 1)


def test_detect_grid_roundtrip():
    for p, q in [(2, 2), (2, 3), (3, 2), (4, 5), (5, 4)]:
        assert detect_grid(make_grid(p, q)) == (p, q)
    assert detect_grid(make_directed_cycle(6)) is None
    rng = random.Random(7)
    for p, q in [(3, 4), (4, 3), (2, 6), (6, 2), (8, 13), (13, 8)]:
        arcs = list(make_grid(p, q).arcs)
        # any arc ids: the arcs are a set
        rng.shuffle(arcs)
        assert detect_grid(Digraph(p * q, arcs)) == (p, q)
        # the q-by-p grid has the same n and m but other arcs
        assert detect_grid(make_grid(q, p)) == (q, p)
        # one grid arc swapped for a diagonal arc, not a p-by-q grid arc, m kept
        for k in rng.sample([k for k, arc in enumerate(arcs) if arc.head < p * q - q - 1], 3):
            head = arcs[k].head
            swapped = arcs[:k] + [(head, head + q + 1)] + arcs[k + 1 :]
            assert detect_grid(Digraph(p * q, swapped)) is None
        # or for an arc from the end of a row to the start of the next
        wrapped = [(q - 1, q)] + [arc for arc in arcs if arc != (0, 1)]
        assert detect_grid(Digraph(p * q, wrapped)) is None
        # one arc repeated in place of another, m kept
        assert detect_grid(Digraph(p * q, arcs[:-1] + arcs[:1])) is None
    # a prime n has no p-by-q shape with p, q >= 2
    assert detect_grid(Digraph(7, [(v, v + 1) for v in range(6)])) is None
    assert detect_grid(Digraph(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])) is None


def test_complete_full_counts():
    assert make_complete_symmetric(2).m == 2
    assert make_complete_symmetric(4).m == 12


def test_complete_simplified_k4_shape():
    g = make_complete_symmetric(4, simplified=True, source=0, target=3)
    assert set(g.arcs) == {(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)}


def test_complete_simplified_count_matches_direct_filter():
    for n in range(4, 8):
        g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        direct = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and v != 0 and u != n - 1 and (u, v) != (0, n - 1)
        ]
        assert sorted(g.arcs) == sorted(direct)
    assert make_complete_symmetric(5, simplified=True).m == 12


def test_complete_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        make_complete_symmetric(4, simplified=True, source=2, target=2)


def test_cycle_unique_path_between_any_pair():
    g = make_directed_cycle(4)
    assert g.m == 4
    for s in range(4):
        for t in range(4):
            if s != t:
                assert len(enumerate_st_paths(g, s, t)) == 1


def test_hypercube_counts():
    g = make_hypercube(3)
    assert (g.n, g.m) == (8, 12)
    assert make_hypercube(1).m == 1
    assert is_acyclic(g)


def test_tournament_default_is_acyclic():
    g = make_tournament(4)
    assert g.m == 6
    assert is_acyclic(g)


def test_tournament_orientation_bits_flip_pairs():
    g = make_tournament(3, 0b001)
    assert set(g.arcs) == {(1, 0), (0, 2), (1, 2)}
    with pytest.raises(ValueError):
        make_tournament(3, 8)
    with pytest.raises(ValueError, match="need n >= 2"):
        make_tournament(1)


def test_enumerate_grid_corner_paths():
    g = make_grid(3, 3)
    paths = enumerate_st_paths(g, 0, 8)
    assert len(paths) == 6
    for p in paths:
        verts = validate_path(g, p, 0, 8)
        assert len(verts) == 5


def test_enumerate_simplified_k4_order_is_lexicographic():
    g = make_complete_symmetric(4, simplified=True, source=0, target=3)
    paths = enumerate_st_paths(g, 0, 3)
    assert [p.arcs for p in paths] == [(0, 2, 5), (0, 3), (1, 4, 3), (1, 5)]
    routes = {path_vertices(g, p) for p in paths}
    assert routes == {(0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 2, 1, 3)}


def test_enumerate_cycle_single_path():
    g = make_directed_cycle(5)
    paths = enumerate_st_paths(g, 0, 3)
    assert len(paths) == 1
    assert path_vertices(g, paths[0]) == (0, 1, 2, 3)


def test_enumerate_no_duplicates_and_no_path_case():
    g = Digraph(3, [(0, 1)])
    assert enumerate_st_paths(g, 0, 2) == []
    k = make_complete_symmetric(5, simplified=True)
    paths = enumerate_st_paths(k, 0, 4)
    assert len(paths) == len(set(paths))


def test_enumerate_limit_overflow():
    g = make_grid(3, 3)
    with pytest.raises(PathLimitExceeded):
        enumerate_st_paths(g, 0, 8, limit=3)
    assert len(enumerate_st_paths(g, 0, 8, limit=6)) == 6
    # a DAG is counted before the walk, so the refusal comes before any path
    with pytest.raises(PathLimitExceeded):
        next(iter_st_paths(make_grid(8, 8), 0, 63, limit=10))
    # a cyclic graph is not counted: the (limit+1)-th path found raises
    walk = iter_st_paths(make_complete_symmetric(5), 0, 4, limit=2)
    next(walk), next(walk)
    with pytest.raises(PathLimitExceeded):
        next(walk)


def test_count_grid_paths_formula_and_enumeration_agree():
    assert count_grid_paths(3, 3) == 6
    assert count_grid_paths(2, 7) == 7
    assert count_grid_paths(4, 5) == 35
    with pytest.raises(ValueError, match="p >= 2 and q >= 2"):
        count_grid_paths(1, 4)
    for p in range(2, 7):
        for q in range(2, 7):
            g = make_grid(p, q)
            assert len(enumerate_st_paths(g, 0, g.n - 1)) == count_grid_paths(p, q)


def test_path_count_matches_the_formula_and_enumeration():
    """The up-front count that refuses an over-limit DAG before its walk."""

    def count(g, target):
        # the walk orders the vertices that reach the target once, for the
        # count and the completion bound alike; a cycle among them leaves
        # no order and so no count
        order = topological_order(g, reachable(g, target, forward=False))
        return None if order is None else graphs._count_st_paths(g, 0, order)[target]

    for p in range(2, 10):
        for q in range(2, 10):
            g = make_grid(p, q)
            assert count(g, g.n - 1) == count_grid_paths(p, q)
    for inst in priced_walk_instances("dag", random.Random("dag")):
        assert count(inst.graph, inst.target) == len(
            enumerate_st_paths(inst.graph, 0, inst.target)
        )
    for n in (3, 5, 8, 10):
        g = random_dag(n, 0.5, random.Random(n))
        assert count(g, n - 1) == len(enumerate_st_paths(g, 0, n - 1))
    # a cycle among the vertices that reach the target leaves the paths
    # uncounted; one among the others does not count
    looped = Digraph(5, [(0, 1), (1, 4), (1, 2), (2, 3), (3, 2)])
    assert count(looped, 4) == 1
    assert count(looped, 3) is None
    assert count(Digraph(3, [(1, 0), (0, 2)]), 1) == 0


def test_topological_order_on_dag_and_cycles():
    g = make_grid(3, 3)
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for arc in g.arcs:
        assert pos[arc.head] < pos[arc.tail]
    for n in range(2, 6):
        assert topological_order(make_directed_cycle(n)) is None
    looped = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    assert not is_acyclic(looped)


def test_simplified_complete_path_counts_by_length():
    for n in range(4, 8):
        g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        by_len: dict[int, int] = {}
        for p in enumerate_st_paths(g, 0, n - 1):
            by_len[len(p)] = by_len.get(len(p), 0) + 1
        for k in range(2, n):
            expected = math.comb(n - 2, k - 1) * math.factorial(k - 1)
            assert by_len.get(k, 0) == expected


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10**6),
    density=st.floats(0.1, 0.9),
)
def test_enumeration_yields_valid_simple_paths(n, seed, density):
    rng = random.Random(seed)
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density
    ]
    g = Digraph(n, arcs)
    paths = enumerate_st_paths(g, 0, n - 1, limit=10**4)
    assert len(paths) == len(set(paths))
    for p in paths:
        verts = validate_path(g, p, 0, n - 1)
        assert len(set(verts)) == len(verts)
    assert paths == enumerate_st_paths(g, 0, n - 1, limit=10**4)
    assert paths == naive_st_paths(g, 0, n - 1)


def test_reachable_forward_and_backward():
    g = Digraph(5, [(0, 1), (1, 2), (3, 1), (2, 4)])
    assert reachable(g, 1, forward=True) == [False, True, True, False, True]
    assert reachable(g, 1, forward=False) == [True, True, False, True, False]


def test_topological_order_within_ignores_cycles_outside():
    # 0 -> 1 -> 4 is acyclic; the cycle 1 -> 2 -> 3 -> 1 lies outside the mask
    looped = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    assert topological_order(looped) is None
    assert topological_order(looped, within=[True, True, False, False, True]) == [0, 1, 4]
    assert topological_order(looped, within=[False, True, True, True, False]) is None


def test_path_vertices_rejects_out_of_range_arc_ids_anywhere():
    g = make_grid(2, 2)
    for arcs, bad in [((99,), 99), ((-1,), -1), ((1, 2, 99), 99), ((0, -4), -4)]:
        message = f"^arc id {bad} out of range$"
        with pytest.raises(InvalidPathError, match=message):
            path_vertices(g, Path(arcs))
        with pytest.raises(InvalidPathError, match=message):
            validate_path(g, Path(arcs), 0, 3)
    assert path_vertices(g, Path((0, 3))) == (0, 2, 3)


def test_validate_path_names_the_wrong_end():
    g = make_grid(2, 2)
    path = Path((0, 3))  # 0 -> 2 -> 3
    assert validate_path(g, path, 0, 3) == (0, 2, 3)
    with pytest.raises(InvalidPathError, match="^path starts at 0, expected 1$"):
        validate_path(g, path, 1, 3)
    with pytest.raises(InvalidPathError, match="^path ends at 3, expected 2$"):
        validate_path(g, path, 0, 2)


def test_path_enumeration_rejects_endpoints_outside_the_graph():
    """A negative id must not be read from the end of the vertex list, and
    an id past the last vertex must not surface as IndexError."""
    g = make_grid(3, 3)
    for source, target in [(-9, 8), (0, -1), (9, 8), (0, 9), (4, 4)]:
        with pytest.raises(ValueError):
            enumerate_st_paths(g, source, target)


@pytest.mark.parametrize(
    "make, args, count",
    [
        (make_grid, (40, 30), "1200"),
        (make_directed_cycle, (1200,), "1200"),
        (make_hypercube, (11,), "2**11"),
        (make_complete_symmetric, (1200,), "1200"),
        (make_tournament, (1200,), "1200"),
        (random_dag, (1200, 0.5, random.Random(1)), "1200"),
        (random_digraph, (1200, 0.5, random.Random(1)), "1200"),
    ],
)
def test_generators_refuse_past_the_vertex_bound_before_building_arcs(
    monkeypatch, make, args, count
):
    """With the bound lowered to 1000, a generator asked for 1200 vertices
    refuses before it builds an arc list of up to 1.4 million arcs."""
    monkeypatch.setattr(graphs, "MAX_VERTICES", 1000)

    def refuse():
        with pytest.raises(ValueError) as info:
            make(*args)
        assert str(info.value) == f"vertex count {count} exceeds the bound of 1000"

    assert traced_peak(refuse) < 64 * 1024


def _cheapest_through(inst):
    """{prefix: the least cost of a path that starts with it}, over every
    prefix of every path, by naive enumeration and the double loop."""
    cheapest = {}
    for path in naive_st_paths(inst.graph, inst.source, inst.target):
        cost = double_loop_cost(inst, path)
        for k in range(1, len(path.arcs) + 1):
            prefix = path.arcs[:k]
            cheapest[prefix] = min(cheapest.get(prefix, cost), cost)
    return cheapest


def _bound_excesses(inst, cheapest, dist, least):
    """(prefix, bound, cheapest) for each prefix whose completion bound
    from the tables D = dist and h = least exceeds the least cost of a path
    through it."""
    excesses = []
    for prefix, best in cheapest.items():
        v = inst.graph.arcs[prefix[-1]].tail
        bound = (
            double_loop_cost(inst, Path(prefix))
            + least[v]
            + 2 * sum(dist[v][f] for f in prefix)
        )
        if bound > best:
            excesses.append((prefix, bound, best))
    return excesses


def test_the_completion_bound_is_at_most_every_completion():
    """For every prefix of every path the bound the search prunes on,
    k(A) + h[v] + 2 * sum of D[v][f] over the prefix, is at most the
    cheapest path through the prefix, on signed data in ints and in
    thirds.  Raising one entry of h, or of D, past that cost is caught,
    so the check sees a table that bounds too high."""
    checked = mutated = 0
    for inst in bound_instances():
        g, t = inst.graph, inst.target
        useful = reachable(g, t, forward=False)
        if not useful[inst.source]:
            continue
        order = topological_order(g, useful)
        ways = graphs._count_st_paths(g, inst.source, order)
        dist, least = graphs._completion_tables(
            g, t, order, ways, inst.linear, inst.interaction.rows
        )
        cheapest = _cheapest_through(inst)
        assert _bound_excesses(inst, cheapest, dist, least) == []
        checked += len(cheapest)
        # the first prefix that stops short of the target, and its slack
        prefix = next((p for p in cheapest if g.arcs[p[-1]].tail != t), None)
        if prefix is None:
            continue
        mutated += 1
        v = g.arcs[prefix[-1]].tail
        slack = cheapest[prefix] - (
            double_loop_cost(inst, Path(prefix)) + least[v] + 2 * sum(dist[v][f] for f in prefix)
        )
        least[v] += slack + 1
        assert [e[0] for e in _bound_excesses(inst, cheapest, dist, least)].count(prefix) == 1
        least[v] -= slack + 1
        dist[v][prefix[0]] += Fraction(slack) / 2 + 1
        assert [e[0] for e in _bound_excesses(inst, cheapest, dist, least)].count(prefix) == 1
    assert checked > 1000 and mutated > 25
