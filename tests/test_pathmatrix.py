import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspath
from qspath import (
    InfeasibilityCertificate,
    InternalError,
    QspathError,
    InteractionMatrix,
    PathLimitExceeded,
    PathMatrix,
    QsppInstance,
    ScaleError,
    build_path_matrix,
    linearize_grid,
    lp_oracle,
    make_grid,
    normalize_knstar,
    path_vertices,
)
from qspath import pathmatrix
from qspath.generate import worked_example
from qspath.pathmatrix import _verify_certificate, _verify_solution

from helpers import arc_index, assert_oracle_matches_reference, assert_valid_certificate
from helpers import traced_peak
from zoo import SHORT_PATHS_COSTLY, exclusive_pair_entries, filled_grid, grid_instance
from zoo import knstar_instance, random_costs, reference_digraphs, reference_grids
from zoo import reference_knstar, reference_priced_walk


def test_path_matrix_k4_content():
    inst = knstar_instance(4, SHORT_PATHS_COSTLY)
    pm = build_path_matrix(inst)
    assert len(pm.rows) == 4 and pm.arc_count == 6
    idx = arc_index(inst.graph)
    by_route = {path_vertices(inst.graph, p): i for i, p in enumerate(pm.paths)}
    # characteristic vectors hold exactly the arcs of each route
    expected = {
        (0, 1, 3): [(0, 1), (1, 3)],
        (0, 2, 3): [(0, 2), (2, 3)],
        (0, 1, 2, 3): [(0, 1), (1, 2), (2, 3)],
        (0, 2, 1, 3): [(0, 2), (2, 1), (1, 3)],
    }
    for route, arcs in expected.items():
        row = pm.rows[by_route[route]]
        assert sum(row) == len(arcs)
        assert all(row[idx[a]] == 1 for a in arcs)
    assert pm.costs[by_route[(0, 1, 3)]] == 2
    assert pm.costs[by_route[(0, 2, 3)]] == 2
    assert pm.costs[by_route[(0, 1, 2, 3)]] == 0
    assert pm.costs[by_route[(0, 2, 1, 3)]] == 0


def test_path_matrix_tiny_grid():
    g = make_grid(2, 2)
    inst = QsppInstance(g, 0, 3, (Fraction(0),) * 4, InteractionMatrix.zero(4))
    pm = build_path_matrix(inst)
    assert len(pm.rows) == 2
    assert all(sum(row) == 2 for row in pm.rows)


def test_oracle_zero_costs_feasible():
    inst = knstar_instance(4, {})
    result = lp_oracle(build_path_matrix(inst), require_nonneg=True)
    assert result.linearizable
    assert result.vector == (0,) * 6


def test_oracle_rejects_costly_short_paths_with_certificate():
    inst = knstar_instance(4, SHORT_PATHS_COSTLY)
    pm = build_path_matrix(inst)
    result = lp_oracle(pm, require_nonneg=True)
    assert not result.linearizable
    assert isinstance(result.witness, InfeasibilityCertificate)
    assert_valid_certificate(pm, result.witness.coefficients, require_nonneg=True)
    # the textbook combination (short paths -1, long paths +1) also certifies
    weights = {2: Fraction(-1), 3: Fraction(1)}
    y = [weights[len(p)] for p in pm.paths]
    assert_valid_certificate(pm, y, require_nonneg=True)
    assert sum(c * v for c, v in zip(pm.costs, y)) == -4
    # without the sign restriction the same system is solvable
    assert lp_oracle(pm, require_nonneg=False).linearizable


def test_certificate_check_raises_on_bad_certificates():
    """assert_valid_certificate raises AssertionError itself, so its checks
    also run under python -O, which strips bare asserts from helpers.py."""
    pm = build_path_matrix(knstar_instance(4, SHORT_PATHS_COSTLY))
    with pytest.raises(AssertionError, match="not negative"):
        assert_valid_certificate(pm, [0] * len(pm.paths), require_nonneg=True)
    with pytest.raises(AssertionError, match=r"\(B\^T y\)\[0\] = -"):
        assert_valid_certificate(pm, [-1] * len(pm.paths), require_nonneg=True)


def test_equality_sense_certificate_needs_a_zero_combination():
    """Short paths -1, long paths +1 give B^T y >= 0 and b^T y < 0 on the
    worked four-vertex example, which proves it not linearizable with a
    nonnegative vector; but B^T y is not 0 and the equality system is
    solvable, so in the equality sense y certifies nothing."""
    pm = build_path_matrix(normalize_knstar(worked_example(4)))
    y = [-1 if len(p) == 2 else 1 for p in pm.paths]
    assert [sum(row[col] * v for row, v in zip(pm.rows, y)) for col in range(6)] == [
        0, 0, 1, 0, 1, 0
    ]
    assert sum(c * v for c, v in zip(pm.costs, y)) == -4
    assert lp_oracle(pm, require_nonneg=False).linearizable
    _verify_certificate(pm, y, require_nonneg=True)
    assert_valid_certificate(pm, y, require_nonneg=True)
    with pytest.raises(InternalError, match=r"B\^T y = 0"):
        _verify_certificate(pm, y, require_nonneg=False)
    with pytest.raises(AssertionError, match=r"\(B\^T y\)\[2\] = 1, not 0"):
        assert_valid_certificate(pm, y, require_nonneg=False)


def test_oracle_feasible_interior_pair():
    inst = knstar_instance(4, {((0, 1), (1, 2)): 1})
    pm = build_path_matrix(inst)
    by_route = {path_vertices(inst.graph, p): i for i, p in enumerate(pm.paths)}
    assert pm.costs[by_route[(0, 1, 2, 3)]] == 2
    assert sum(pm.costs) == 2
    result = lp_oracle(pm, require_nonneg=True)
    assert result.linearizable
    idx = arc_index(inst.graph)
    # weight 2 on the interior arc reproduces all four costs
    explicit = [Fraction(0)] * 6
    explicit[idx[(1, 2)]] = Fraction(2)
    for row, cost in zip(pm.rows, pm.costs):
        assert sum(r * v for r, v in zip(row, explicit)) == cost


def test_oracle_unrestricted_certificate_on_unbalanced_grid():
    found = False
    for seed in range(40):
        inst = filled_grid(3, 3, "random", seed)
        pm = build_path_matrix(inst)
        result = lp_oracle(pm, require_nonneg=False)
        if result.linearizable:
            continue
        found = True
        y = result.witness.coefficients
        # equality-form certificate: rows combine to zero, costs do not
        for col in range(pm.arc_count):
            assert sum(pm.rows[i][col] * y[i] for i in range(len(y))) == 0
        assert sum(c * v for c, v in zip(pm.costs, y)) < 0
    assert found


def test_oracle_feasible_by_construction():
    rng = random.Random(15)
    for _ in range(15):
        g = make_grid(rng.randint(2, 4), rng.randint(2, 4))
        inst = QsppInstance(
            g, 0, g.n - 1, (Fraction(0),) * g.m, InteractionMatrix.zero(g.m)
        )
        pm = build_path_matrix(inst)
        planted = [Fraction(rng.randint(0, 9)) for _ in range(g.m)]
        costs = tuple(
            sum(r * v for r, v in zip(row, planted)) for row in pm.rows
        )
        planted_pm = PathMatrix(pm.rows, costs, pm.paths, pm.arc_count)
        for flag in (True, False):
            result = lp_oracle(planted_pm, require_nonneg=flag)
            assert result.linearizable
            for row, cost in zip(pm.rows, costs):
                assert sum(r * v for r, v in zip(row, result.vector)) == cost


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), nonneg=st.booleans())
def test_oracle_outcomes_always_verify(seed, nonneg):
    rng = random.Random(seed)
    g = make_grid(rng.randint(2, 3), rng.randint(2, 4))
    inst = random_costs(g, 0, g.n - 1, rng, 3)
    pm = build_path_matrix(inst)
    result = lp_oracle(pm, require_nonneg=nonneg)
    if result.linearizable:
        for row, cost in zip(pm.rows, pm.costs):
            assert sum(r * v for r, v in zip(row, result.vector)) == cost
        if nonneg:
            assert all(v >= 0 for v in result.vector)
    else:
        assert_valid_certificate(pm, result.witness.coefficients, require_nonneg=nonneg)


@pytest.mark.parametrize("p, q", [(6, 6), (6, 7), (7, 6), (7, 7)])
def test_grid_decision_matches_oracle_on_planted_grids(p, q):
    """The grid decision against the equality-sense oracle beyond weak-sum
    data: planted instances, and copies with one co-occurring pair changed,
    whose verdict the oracle decides."""
    rng = random.Random(p * 100 + q)
    verdicts = []
    for _ in range(2):
        entries = exclusive_pair_entries(p, q, rng)
        m = 2 * p * q - p - q
        linear = tuple(rng.randint(0, 9) for _ in range(m))
        planted = grid_instance(p, q, InteractionMatrix.from_entries(m, entries), linear)
        pm = build_path_matrix(planted)
        assert linearize_grid(planted).linearizable
        assert lp_oracle(pm, require_nonneg=False).linearizable
        for _ in range(3):
            arcs = rng.choice(pm.paths).arcs
            e, f = sorted(rng.sample(arcs, 2))
            changed = dict(entries)
            changed[(e, f)] += rng.randint(1, 9)
            inst = grid_instance(p, q, InteractionMatrix.from_entries(m, changed), linear)
            oracle = lp_oracle(build_path_matrix(inst), require_nonneg=False)
            assert linearize_grid(inst).linearizable == oracle.linearizable
            verdicts.append(oracle.linearizable)
    assert False in verdicts


def test_oracle_scale_guard():
    big = PathMatrix(((),) * 1001, (Fraction(0),) * 1001, (None,) * 1001, 0)
    with pytest.raises(ScaleError):
        lp_oracle(big)


def test_default_limit_refuses_before_building_what_the_oracle_refuses():
    """A 10x10 grid has 48,620 paths; the default limit is the oracle's, so
    enumeration stops at path 1001 instead of building every dense row."""
    inst = filled_grid(10, 10, "weak-sum", 3)

    def refuse():
        with pytest.raises(PathLimitExceeded):
            lp_oracle(build_path_matrix(inst))

    assert traced_peak(refuse) < 5 * 1024 * 1024


OPTIMIZED_CHECK = """
import sys
from fractions import Fraction
from qspath import InternalError, build_path_matrix, make_grid, normalize_knstar
from qspath.generate import filled_instance, worked_example
from qspath.pathmatrix import _verify_certificate, _verify_solution

if __debug__:
    sys.exit("expected to run under python -O")
g = make_grid(3, 3)
pm = build_path_matrix(filled_instance(g, 0, g.n - 1, "random", 1))
textbook_pm = build_path_matrix(normalize_knstar(worked_example(4)))
textbook_y = [-1 if len(p) == 2 else 1 for p in textbook_pm.paths]
failures = 0
for check in (
    lambda: _verify_certificate(pm, [Fraction(0)] * len(pm.rows), True),
    lambda: _verify_certificate(pm, [Fraction(-1)] * len(pm.rows), True),
    lambda: _verify_solution(pm, [Fraction(0)] * pm.arc_count, False),
    # B^T y >= 0 and b^T y < 0 on a solvable system: refused in the equality sense
    lambda: _verify_certificate(textbook_pm, textbook_y, False),
):
    try:
        check()
    except InternalError:
        failures += 1
_verify_certificate(textbook_pm, textbook_y, True)
sys.exit(0 if failures == 4 else 1)
"""


def test_result_checks_survive_optimized_mode():
    assert not issubclass(InternalError, QspathError)
    src = os.path.dirname(os.path.dirname(qspath.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "verify, wrong, nonneg, message",
    [
        (_verify_solution, lambda pm: [0] * pm.arc_count, False, "misses a path cost"),
        (_verify_solution, lambda pm: [-1] + [0] * (pm.arc_count - 1), True, "negative entry"),
        (_verify_certificate, lambda pm: [-1] * len(pm.rows), True, r"B\^T y >= 0"),
        (_verify_certificate, lambda pm: [0] * len(pm.rows), True, r"b\^T y < 0"),
    ],
    ids=["misses-a-cost", "negative-entry", "negative-combination", "nonnegative-cost"],
)
def test_the_oracle_refuses_its_own_wrong_answers(verify, wrong, nonneg, message):
    """Each wrong answer the oracle's self-checks exist for, in process: the
    run under -O above sees only that something was refused.  On the 3-by-3
    grid with Q = 0 and c = (-1, 0, ..., 0), c itself solves B c' = b but has
    a negative entry, and y = 0 meets B^T y >= 0 but not b^T y < 0."""
    linear = (-1,) + (0,) * 11
    pm = build_path_matrix(grid_instance(3, 3, InteractionMatrix.zero(12), linear))
    _verify_solution(pm, list(linear), False)
    with pytest.raises(InternalError, match=message):
        verify(pm, wrong(pm), nonneg)


REFERENCE_FAMILIES = {
    "grids": reference_grids,
    "knstar": reference_knstar,
    "digraphs": reference_digraphs,
    "priced-walk": reference_priced_walk,
}


def _reference_matrices(family: str) -> list[PathMatrix]:
    """The path matrices of the family's instances that have a path."""
    matrices = map(build_path_matrix, REFERENCE_FAMILIES[family]())
    return [pm for pm in matrices if pm.rows]


def test_reference_families_hold_at_least_500_instances():
    assert sum(len(_reference_matrices(family)) for family in REFERENCE_FAMILIES) >= 500


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_oracle_matches_the_dense_fraction_reference(family):
    """The integer kernels give the vectors and certificates, values and
    types, of plain Fraction elimination and simplex with the same pivot
    rules, in both senses."""
    for pm in _reference_matrices(family):
        for require_nonneg in (False, True):
            assert_oracle_matches_reference(pm, require_nonneg)


# 0/1 rows on which pivots of 2 and -2 meet entries of 1 and -1; on "five"
# elimination scales the row that ends up reading 0 = nonzero
ODD_ROWS = {
    "three": ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    "four": ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0)),
    "five": ((1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 0, 0, 0)),
}


@pytest.mark.parametrize(
    "rows, costs, require_nonneg, linearizable",
    [
        ("three", (1, 1, 1), False, True),
        ("three", (Fraction(1, 3), 1, Fraction(-2, 5)), False, True),
        ("four", (1, 2, 3, 4, 5), False, False),
        ("five", (-3, -2, 3, 0, 3), False, False),
        ("three", (1, 1, 1), True, True),
        ("four", (1, 1, 1, 1, 1), True, True),
        ("four", (-2, -2, 1, 1, 1), True, False),
    ],
)
def test_a_pivot_that_does_not_divide_scales_the_row(
    monkeypatch, rows, costs, require_nonneg, linearizable
):
    """Each kernel, on each outcome, meets a pivot that does not divide the
    entry it eliminates (the only time it takes a gcd) and still returns
    what Fraction arithmetic returns."""
    rows = ODD_ROWS[rows]
    pm = PathMatrix(rows, costs, (None,) * len(rows), len(rows[0]))
    inexact = []
    monkeypatch.setattr(
        pathmatrix, "gcd", lambda a, p: inexact.append((a, p)) or math.gcd(a, p)
    )
    assert lp_oracle(pm, require_nonneg).linearizable == linearizable
    assert inexact
    assert_oracle_matches_reference(pm, require_nonneg)
