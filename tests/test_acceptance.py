"""Acceptance suite: one test per exit criterion, printed as pass lines.

Every comparison is exact rational equality; run with ``pytest -v -s`` to see
the per-criterion lines.  Budgeted criteria assert their wall-clock limits.
"""
import random
import time
from fractions import Fraction

from qspath import (
    CyclicGraphError,
    QsppInstance,
    SppInstance,
    brute_force_solve,
    build_auxiliary,
    build_path_matrix,
    check_necessary_conditions,
    count_grid_paths,
    critical_paths,
    enumerate_st_paths,
    k4_linearize,
    linearize_grid,
    lp_oracle,
    make_complete_symmetric,
    make_grid,
    make_cyclic_counterexample,
    make_tournament,
    normalize_knstar,
    path_class_costs,
    path_cost,
    qap_brute_force,
    qap_to_qspp,
    reduce_cost_vector,
    solve_aqspp,
    spp_solve,
    tournament4_linearize,
)
from qspath.generate import (
    fill_adjacent,
    random_dag,
    random_qap,
    worked_example,
)
from qspath.grid import _critical_costs, grid_shape

from helpers import assert_valid_certificate, vector_reproduces_costs
from zoo import biased_k4, filled_grid, mixed_grid_instance, potential_shift, random_costs, random_q


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS - {text}")


def test_criterion_01_qap_reduction_fidelity():
    start = time.perf_counter()
    rng = random.Random(101)
    for trial in range(100):
        n = 2 + trial % 3
        qap = random_qap(n, rng)
        inst = qap_to_qspp(qap)
        assert inst.graph.n == n + 1
        assert inst.graph.m == n * n
        _, qap_value = qap_brute_force(qap)
        _, qspp_value = brute_force_solve(inst)
        assert qap_value == qspp_value
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(1, f"100 assignment reductions value-exact in {elapsed:.2f}s")


def test_criterion_02_auxiliary_solver_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(202)
    solved = 0
    while solved < 100:
        n = rng.randint(4, 10)
        g = random_dag(n, 0.3, rng)
        if not enumerate_st_paths(g, 0, n - 1, 10**4):
            continue
        linear, interaction = fill_adjacent(g, rng)
        inst = QsppInstance(g, 0, n - 1, linear, interaction)
        path, value = solve_aqspp(inst)
        _, expected = brute_force_solve(inst)
        assert value == expected
        assert path_cost(inst, path) == value
        solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(2, f"100 acyclic adjacent instances solved exactly in {elapsed:.2f}s")


def test_criterion_03_cyclic_counterexample_reproduced():
    inst = make_cyclic_counterexample(Fraction(1, 2))
    aux = build_auxiliary(inst)
    _, walk_value = spp_solve(
        SppInstance(aux.graph, aux.source, aux.target, aux.linear)
    )
    assert walk_value == Fraction(1, 2)
    _, true_value = brute_force_solve(inst)
    assert true_value == 2
    try:
        solve_aqspp(inst)
        raise AssertionError("cyclic input must be refused")
    except CyclicGraphError as exc:
        assert "acyclic" in str(exc)
    report(3, "auxiliary value 1/2 vs true optimum 2; cyclic input refused")


def test_criterion_04_grid_soundness_and_weak_sum_completeness():
    start = time.perf_counter()
    rng = random.Random(404)
    sizes = [(p, q) for p in range(2, 6) for q in range(2, 6)]
    weak_sum_count = accepted = 0
    for trial in range(200):
        p, q = sizes[trial % len(sizes)]
        kind, inst = mixed_grid_instance(rng, p, q)
        result = linearize_grid(inst)
        if kind == "weak-sum":
            weak_sum_count += 1
            assert result.linearizable
        if result.linearizable:
            accepted += 1
            paths = enumerate_st_paths(inst.graph, 0, inst.graph.n - 1)
            assert len(paths) == count_grid_paths(p, q)
            for path in paths:
                assert sum(result.vector[a] for a in path.arcs) == path_cost(inst, path)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    assert weak_sum_count > 0
    report(
        4,
        f"200 grid instances: {accepted} accepted vectors all exact, "
        f"{weak_sum_count}/{weak_sum_count} weak-sum accepted, {elapsed:.2f}s",
    )


def test_criterion_05_grid_verdict_matches_unrestricted_oracle():
    rng = random.Random(505)
    sizes = [(p, q) for p in range(2, 5) for q in range(2, 5)]
    agreements = {True: 0, False: 0}
    for trial in range(200):
        p, q = sizes[trial % len(sizes)]
        inst = filled_grid(p, q, "random", rng.randint(0, 10**9))
        verdict = linearize_grid(inst).linearizable
        oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False).linearizable
        assert verdict == oracle
        agreements[verdict] += 1
    report(
        5,
        f"200 grid verdicts equal the equality-system oracle "
        f"({agreements[True]} yes / {agreements[False]} no)",
    )


def test_criterion_06_length_class_closed_forms():
    rng = random.Random(606)
    for trial in range(50):
        n = 5 + trial % 3
        g = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        inst = normalize_knstar(random_q(g, 0, n - 1, rng))
        _, totals = path_class_costs(inst)
        observed = {k: Fraction(0) for k in range(2, n)}
        for path in enumerate_st_paths(g, 0, n - 1):
            observed[len(path)] += path_cost(inst, path)
        assert totals == observed
    example = normalize_knstar(worked_example(5))
    _, totals = path_class_costs(example)
    assert totals == {2: 0, 3: 2, 4: 2}
    assert not check_necessary_conditions(example).violated
    oracle = lp_oracle(build_path_matrix(example), require_nonneg=True)
    assert not oracle.linearizable
    report(
        6,
        "50 closed-form totals equal enumeration; the five-vertex example "
        "passes both conditions yet the oracle rejects it",
    )


def test_criterion_07_four_vertex_characterization():
    rng = random.Random(707)
    agree = {True: 0, False: 0}
    for _ in range(500):
        inst = normalize_knstar(biased_k4(rng, 4, 25))
        mine = k4_linearize(inst)
        oracle = lp_oracle(build_path_matrix(inst), require_nonneg=True)
        assert mine.linearizable == oracle.linearizable
        agree[mine.linearizable] += 1
    example = normalize_knstar(worked_example(4))
    result = k4_linearize(example)
    assert not result.linearizable
    pm = build_path_matrix(example)
    assert_valid_certificate(pm, result.witness.coefficients, require_nonneg=True)
    textbook = [Fraction(-1) if len(p) == 2 else Fraction(1) for p in pm.paths]
    assert_valid_certificate(pm, textbook, require_nonneg=True)
    assert sum(c * y for c, y in zip(pm.costs, textbook)) == -4
    report(
        7,
        f"500 four-vertex verdicts match the oracle "
        f"({agree[True]} yes / {agree[False]} no); worked example certified",
    )


def test_criterion_08_four_vertex_tournaments_always_linearizable():
    rng = random.Random(808)
    for _ in range(100):
        g = make_tournament(4, rng.getrandbits(6))
        s, t = rng.sample(range(4), 2)
        inst = random_costs(g, s, t, rng)
        result = tournament4_linearize(inst)
        assert result.linearizable
        assert vector_reproduces_costs(inst, result.vector)
    report(8, "100 tournament instances linearized and verified by enumeration")


def test_criterion_09_reduced_form_uniqueness():
    rng = random.Random(909)
    sizes = [(p, q) for p in range(2, 6) for q in range(2, 6)]
    for trial in range(100):
        p, q = sizes[trial % len(sizes)]
        g = make_grid(p, q)
        costs, shifted = potential_shift(g, rng)
        assert reduce_cost_vector(g, costs) == reduce_cost_vector(g, shifted)
    report(9, "100 potential-kernel shifts reduce identically")


def test_criterion_10_complexity_smoke():
    rng = random.Random(1010)
    for p, q in [(2, 2), (3, 4), (4, 6), (5, 5), (6, 6)]:
        inst = filled_grid(p, q, "random", rng.randint(0, 10**9))
        shape = grid_shape(inst.graph)
        fast = _critical_costs(inst, shape, p, q, inst.linear)
        for arc, path in critical_paths(p, q).items():
            assert fast[arc] == path_cost(inst, path)
    # every p x 12 and 12 x q weak-sum grid, each drawn outside the timing
    shapes = [(p, 12) for p in range(2, 13)] + [(12, q) for q in range(2, 12)]
    instances = [
        filled_grid(p, q, "weak-sum", 3 + 1000 * p + q)
        for p, q in shapes
    ]
    start = time.perf_counter()
    results = [linearize_grid(inst) for inst in instances]
    elapsed = time.perf_counter() - start
    assert len(results) == 21
    assert all(result.linearizable for result in results)
    assert elapsed < 120
    report(
        10,
        f"incremental path costs exact up to 6x6; 21 weak-sum decisions up to 12x12 "
        f"linearizable in {elapsed:.1f}s",
    )
