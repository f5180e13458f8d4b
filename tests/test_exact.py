"""The exact-value rule: a whole number is an int, anything else a Fraction.

as_rational is where values become exact; these tests pin its token
handling, check that no float reaches a result, that integral grid data
stays int end to end, and that rational data (the Fraction path) gives the
scaled results of the integral data.
"""
import dataclasses
import random
import time
from fractions import Fraction

import pytest

from qspath import (
    InteractionMatrix,
    QsppInstance,
    brute_force_solve,
    build_path_matrix,
    check_necessary_conditions,
    detect_product,
    detect_weak_sum,
    emit_instance,
    k4_linearize,
    linearize_g2q,
    linearize_grid,
    linearize_weak_sum,
    lp_oracle,
    make_complete_symmetric,
    normalize_knstar,
    parse_instance,
    parse_qaplib,
    path_class_costs,
    path_cost,
    pseudo_linearize,
    reduce_cost_vector,
    shrink_target,
    solve_aqspp,
    solve_product_case,
)
from qspath.generate import filled_instance
from qspath.model import as_rational

from zoo import filled_grid, q_over

TOKENS = [
    "1_0", " 3", "-0", "+4", "07", "٣", "３", "3/1", "6/4",
    "1e3", "1.5", ".5", "0x10", "3/0", "+-3", "",
]


@pytest.mark.parametrize("token", TOKENS)
def test_token_agrees_with_fraction(token):
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            as_rational(token)
        return
    got = as_rational(token)
    assert got == expected
    assert type(got) is (int if expected.denominator == 1 else Fraction)


def test_a_value_past_the_digit_bound_is_refused_before_it_is_built():
    """Every numerator and denominator read from text has at most MAX_DIGITS
    digits, so str() can print it; a huge exponent is refused without
    multiplying it out, which takes about a second for 1e3000000."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 4300 digits"):
        as_rational("1e3000000")
    assert time.perf_counter() - start < 0.01
    for token in ("1e5000", "1e-5000", "2.5E+4400", "-1e4300", "1e-4300"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            as_rational(token)
    assert as_rational("1e4299") == 10**4299
    assert as_rational("-1e-4299") == Fraction(-1, 10**4299)
    assert as_rational("0e3000000") == 0


def test_exact_values_keep_their_form_and_floats_are_refused():
    assert type(as_rational(Fraction(6, 2))) is int
    thirds = Fraction(5, 3)
    assert as_rational(thirds) is thirds
    assert as_rational(-7) == -7
    for value in (0.5, 3.0):
        with pytest.raises(TypeError):
            as_rational(value)


def numbers(obj):
    """Every number inside a result, tuple, dict or dataclass."""
    if obj is None or isinstance(obj, (bool, str)):
        return
    if isinstance(obj, (int, float, Fraction)):
        yield obj
    elif isinstance(obj, InteractionMatrix):
        yield from numbers(obj.rows)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from numbers(getattr(obj, field.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from numbers(key)
            yield from numbers(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from numbers(item)
    else:
        raise TypeError(f"no rule for {type(obj).__name__}")


def assert_no_floats(result):
    found = list(numbers(result))
    assert found
    assert all(type(v) in (int, Fraction) for v in found)


def test_grid_results_hold_no_floats():
    yes = filled_grid(4, 4, "weak-sum", 1)
    no = filled_grid(4, 4, "random", 2)
    assert linearize_grid(yes).linearizable
    assert not linearize_grid(no).linearizable
    for inst in (yes, no, filled_grid(3, 4, "product", 3)):
        assert_no_floats(linearize_grid(inst))
        assert_no_floats(pseudo_linearize(inst))
    assert_no_floats(linearize_weak_sum(yes))
    assert_no_floats(linearize_g2q(filled_grid(2, 5, "random", 4)))
    assert_no_floats(solve_product_case(filled_grid(3, 3, "product", 5)))


def test_oracle_and_brute_force_results_hold_no_floats():
    verdicts = set()
    for inst in (filled_grid(3, 3, "weak-sum", 6), filled_grid(3, 3, "random", 7)):
        pm = build_path_matrix(inst)
        for nonneg in (False, True):
            result = lp_oracle(pm, require_nonneg=nonneg)
            verdicts.add(result.linearizable)
            assert_no_floats(result)
        assert_no_floats(brute_force_solve(inst))
    assert verdicts == {True, False}


def test_four_vertex_results_hold_no_floats():
    g = make_complete_symmetric(4, simplified=True, source=0, target=3)
    verdicts = set()
    for seed in range(8):
        result = k4_linearize(normalize_knstar(filled_instance(g, 0, 3, "random", seed)))
        verdicts.add(result.linearizable)
        assert_no_floats(result)
    assert verdicts == {True, False}


def test_qaplib_symmetrization_holds_no_floats():
    qap = parse_qaplib("2  0 1 2 0  0 3 5 0  1 2 3 4")
    assert qap.symmetrized == ("a", "b")
    assert qap.a[0][1] == Fraction(3, 2)
    assert qap.b[0][1] == 4 and type(qap.b[0][1]) is int
    assert_no_floats(qap)


def test_integral_grid_data_stays_int():
    for inst in (filled_grid(4, 5, "weak-sum", 8), filled_grid(4, 5, "random", 9)):
        parsed = parse_instance(emit_instance(inst))
        for data in (inst, parsed):
            assert all(type(v) is int for v in data.linear)
            assert all(type(v) is int for row in data.interaction.rows for v in row)
        result = linearize_grid(parsed)
        assert all(type(v) is int for v in numbers(result))
    assert type(brute_force_solve(filled_grid(3, 3, "random", 9))[1]) is int


@pytest.mark.parametrize("seed", range(6))
def test_thirds_scale_the_grid_result(seed):
    fill = "weak-sum" if seed % 2 else "random"
    base = filled_grid(4, 5, fill, seed)
    rng = random.Random(seed)
    linear = tuple(rng.randint(0, 9) for _ in range(base.graph.m))
    whole = QsppInstance(base.graph, 0, base.target, linear, base.interaction)
    third = q_over(whole, 3, tuple(Fraction(v, 3) for v in linear))
    assert any(type(v) is Fraction for v in third.linear)
    expected, got = linearize_grid(whole), linearize_grid(third)
    assert got.linearizable == expected.linearizable == (fill == "weak-sum")
    assert got.note == expected.note
    if expected.linearizable:
        assert got.vector == tuple(Fraction(v, 3) for v in expected.vector)
    else:
        assert got.witness.path == expected.witness.path
        assert got.witness.expected == Fraction(expected.witness.expected, 3)
        assert got.witness.got == Fraction(expected.witness.got, 3)


def test_whole_values_of_rational_data_come_back_as_int():
    """Sums of thirds that come out whole are ints, not Fraction(n, 1)."""
    results, verdicts = [], set()
    for p, fill in ((3, "random"), (3, "weak-sum"), (2, "random")):
        base = filled_grid(p, 3, fill, 5)
        inst = q_over(base, 3)
        decision = linearize_grid(inst)
        verdicts.add(decision.linearizable)
        pseudo = pseudo_linearize(inst)
        results += [
            decision,
            [path_cost(inst, path) for path in build_path_matrix(inst).paths],
            brute_force_solve(inst),
            pseudo,
            reduce_cost_vector(inst.graph, [Fraction(1, 3)] * inst.graph.m),
            shrink_target(pseudo, inst, base.target - 1),
        ]
        if p == 2:
            results.append(linearize_g2q(inst))
        if fill == "weak-sum":
            results.append(linearize_weak_sum(inst))
    adjacent = filled_grid(3, 3, "adjacent", 4)
    results.append(solve_aqspp(q_over(adjacent, 3)))
    assert verdicts == {True, False}
    values = list(numbers(results))
    assert any(type(v) is int and v for v in values)
    assert any(type(v) is Fraction for v in values)
    assert all(type(v) is int or v.denominator != 1 for v in values)


@pytest.mark.parametrize("unit", [1, Fraction(1, 2)])
def test_whole_values_of_special_and_class_results_are_int(unit):
    """The product factor, the weak-sum witness and the length-class sums,
    totals and conditions, on integer data and on the same data halved."""
    # a = (unit, 2 unit): Q = a a^T off the diagonal, c its diagonal
    product = detect_product(
        InteractionMatrix([[0, 2 * unit * unit], [2 * unit * unit, 0]]),
        (unit * unit, 4 * unit * unit),
    )
    assert product == (unit, 2 * unit)
    # a = (unit, 2 unit, 2 unit)
    weak_sum = detect_weak_sum(InteractionMatrix(
        [[0, 3 * unit, 3 * unit], [3 * unit, 0, 4 * unit], [3 * unit, 4 * unit, 0]]
    ))
    assert weak_sum == (unit, 2 * unit, 2 * unit)
    g = make_complete_symmetric(5, simplified=True, source=0, target=4)
    every = InteractionMatrix([[0 if e == f else unit for f in range(g.m)] for e in range(g.m)])
    inst = QsppInstance(g, 0, 4, (0,) * g.m, every)
    sums, totals = path_class_costs(inst)
    report = check_necessary_conditions(inst)
    values = [*product, *weak_sum, *sums.sums, *totals.values(), *report.totals.values()]
    values += [side for c in report.conditions for side in (c.lhs, c.rhs)]
    assert any(v for v in values if type(v) is int)
    assert all(type(v) is int or v.denominator != 1 for v in values)


def oracle_values(result):
    return result.vector if result.linearizable else result.witness.coefficients


def test_integral_oracle_results_stay_int():
    seen = set()
    for inst in (
        filled_grid(5, 5, "weak-sum", 10),
        filled_grid(5, 5, "random", 11),
        filled_grid(4, 5, "product", 12),
        filled_grid(4, 5, "adjacent", 13),
    ):
        pm = build_path_matrix(inst)
        assert all(type(v) is int for v in pm.costs)
        for nonneg in (False, True):
            result = lp_oracle(pm, require_nonneg=nonneg)
            seen.add((nonneg, result.linearizable))
            values = oracle_values(result)
            assert values
            assert all(
                type(v) is int or (type(v) is Fraction and v.denominator != 1)
                for v in values
            )
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


@pytest.mark.parametrize("seed", range(4))
def test_thirds_scale_the_oracle_result(seed):
    """Dividing every cost by 3 divides b by 3: the pivots do not depend on b
    beyond its signs and ratios, so a vector comes out divided by 3 and a
    certificate comes out the same."""
    fill = "weak-sum" if seed % 2 else "random"
    base = filled_grid(4, 4, fill, seed)
    rng = random.Random(seed)
    linear = tuple(rng.randint(0, 9) for _ in range(base.graph.m))
    whole = QsppInstance(base.graph, 0, base.target, linear, base.interaction)
    third = q_over(whole, 3, tuple(Fraction(v, 3) for v in linear))
    whole_pm, third_pm = build_path_matrix(whole), build_path_matrix(third)
    assert any(type(v) is Fraction for v in third_pm.costs)
    for nonneg in (False, True):
        expected = lp_oracle(whole_pm, require_nonneg=nonneg)
        got = lp_oracle(third_pm, require_nonneg=nonneg)
        assert got.linearizable == expected.linearizable
        if expected.linearizable:
            assert got.vector == tuple(Fraction(v, 3) for v in expected.vector)
        else:
            assert oracle_values(got) == oracle_values(expected)
        assert_no_floats(got)
