import argparse
from fractions import Fraction

import pytest

import random

import qspath.cli
from qspath import (
    InteractionMatrix,
    QsppInstance,
    brute_force_solve,
    emit_instance,
    make_complete_symmetric,
    make_cyclic_counterexample,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
    normalize_knstar,
    parse_instance,
)
from qspath import model
from qspath.cli import build_parser, main
from qspath.generate import filled_instance, random_digraph, random_qap
from qspath.reductions import (
    DisjointPathsInstance,
    decode_qap_path,
    disjoint_to_aqspp,
    qap_brute_force,
    qap_objective,
    qap_to_qspp,
)

from helpers import naive_emit, parallel_arcs_text, randint_fill, traced_peak
from zoo import filled_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.qspp", tmp_path / "b.qspp"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "generate", "grid", "3", "3",
            "--fill", "weak-sum", "--seed", "7", "--output", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    parse_instance(a.read_text())


def test_generate_to_stdout_and_parse(capsys):
    code, out, _ = run(capsys, "generate", "hypercube", "3", "--fill", "random", "--seed", "1")
    assert code == 0
    inst = parse_instance(out)
    assert inst.graph.n == 8


def test_generate_requires_seed_for_random_fills(capsys):
    code, _, err = run(capsys, "generate", "grid", "2", "2", "--fill", "random")
    assert code == 2
    assert "seed" in err


# generate families with the graph each builds, and the seeds each runs
GENERATED = [
    (["grid", "3", "4"], make_grid(3, 4), (1, 2, 3)),
    (["grid", "9", "9"], make_grid(9, 9), (1,)),
    (["complete", "5"], make_complete_symmetric(5, simplified=True, source=0, target=4), (1, 2)),
    (["complete", "4", "--full"], make_complete_symmetric(4, simplified=False, source=0, target=3), (1,)),
    (["cycle", "6"], make_directed_cycle(6), (1, 2)),
    (["hypercube", "3"], make_hypercube(3), (1, 2)),
    (["tournament", "5", "--orientation", "619"], make_tournament(5, 619), (1, 2)),
]


@pytest.mark.parametrize("fill", ["zero", "random", "weak-sum", "product", "adjacent"])
def test_generate_writes_the_naive_text_of_the_randint_fill(capsys, fill):
    """generate's file is emit_instance's of filled_instance, and it is also
    naive_emit's of the instance whose Q randint draws one pair at a time,
    on every family with a fill, every container the draws and the rows
    use (bytes below 255, lists above; a byte buffer up to 256) and tops on
    both sides of the cell table's bound."""
    for params, g, seeds in GENERATED:
        for max_entry in (0, 1, 9, 127, 128, 254, 255, 256, 1000):
            for seed in seeds:
                code, out, err = run(capsys, "generate", *params, "--fill", fill,
                                     "--seed", str(seed), "--max-entry", str(max_entry))
                assert (code, err) == (0, "")
                inst = filled_instance(g, 0, g.n - 1, fill, seed, max_entry)
                assert out == emit_instance(inst)
                assert parse_instance(out) == inst
                if fill == "zero":
                    linear, rows = (0,) * g.m, ((0,) * g.m,) * g.m
                else:
                    hi = min(max_entry, 3) if fill == "product" else max_entry
                    linear, rows = randint_fill(g, fill, random.Random(seed), hi)
                drawn = QsppInstance(g, 0, g.n - 1, linear, InteractionMatrix(rows))
                assert out == naive_emit(drawn) == naive_emit(inst)


def test_generate_builds_no_rows_of_a_dense_fill(capsys, monkeypatch):
    monkeypatch.setattr(InteractionMatrix, "_mirrored", None)
    for fill in ("random", "weak-sum", "product"):
        code, out, err = run(capsys, "generate", "grid", "4", "4", "--fill", fill, "--seed", "1")
        assert (code, err) == (0, "")
    monkeypatch.undo()
    assert parse_instance(out) == filled_grid(4, 4, "product", 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grid", "3", "3", "--fill", "zero", "--max-entry", "-1"],
         "generate grid: --max-entry must not be negative, got -1"),
        (["cycle", "5", "--fill", "random", "--seed", "1", "--max-entry", "-7"],
         "generate cycle: --max-entry must not be negative, got -7"),
        (["hypercube", "3", "--fill", "adjacent", "--max-entry", "-1"],
         "generate hypercube: --max-entry must not be negative, got -1"),
        (["grid", "3", "3", "--fill", "random"], "generate grid: fill 'random' needs a seed"),
        (["complete", "5", "--fill", "weak-sum"], "generate complete: fill 'weak-sum' needs a seed"),
        (["tournament", "4", "--orientation", "5", "--fill", "product"],
         "generate tournament: fill 'product' needs a seed"),
        (["grid", "1", "4", "--fill", "random", "--seed", "1"],
         "generate grid: grid needs p >= 2 and q >= 2"),
        (["grid", "3", "0", "--fill", "random", "--max-entry", "-1"],
         "generate grid: grid needs p >= 2 and q >= 2"),
        (["complete", "1", "--fill", "random", "--seed", "1"], "generate complete: need n >= 2"),
        (["cycle", "1", "--fill", "zero"], "generate cycle: need n >= 2"),
        (["hypercube", "0", "--fill", "zero"], "generate hypercube: need n >= 1"),
        (["tournament", "4", "--fill", "random"], "tournament needs --orientation or --seed"),
    ],
)
def test_generate_refuses_bad_fill_arguments_with_exit_two(capsys, argv, message):
    code, out, err = run(capsys, "generate", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_calls_in_one_process_share_the_parser_and_no_state(capsys):
    assert build_parser() is build_parser()
    argv = ["generate", "grid", "3", "3", "--fill", "random", "--seed", "3"]
    first = run(capsys, *argv)
    assert first[0] == 0
    code, zeros, _ = run(capsys, *argv, "--max-entry", "0")
    assert code == 0 and zeros != first[1]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--fill", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    # neither the --max-entry nor the rejected --fill carried over
    assert run(capsys, *argv) == first
    # nor the --seed: without one the random fill is still refused
    code, out, err = run(capsys, *argv[:-2])
    assert (code, out) == (2, "")
    assert "needs a seed" in err


def test_solve_brute_on_counterexample_file(tmp_path, capsys):
    path = tmp_path / "loop.qspp"
    path.write_text(emit_instance(make_cyclic_counterexample(Fraction(1, 2))))
    code, out, _ = run(capsys, "solve", str(path), "--method", "brute")
    assert code == 0
    assert "path 0 1 4" in out
    assert "cost 2" in out


def test_solve_aqspp_refuses_cyclic_file(tmp_path, capsys):
    path = tmp_path / "loop.qspp"
    path.write_text(emit_instance(make_cyclic_counterexample(Fraction(1, 2))))
    code, _, err = run(capsys, "solve", str(path), "--method", "aqspp")
    assert code == 2
    assert "acyclic" in err


def test_solve_spp_needs_zero_interaction(tmp_path, capsys):
    path = tmp_path / "grid.qspp"
    run(capsys, "generate", "grid", "2", "3", "--fill", "random", "--seed", "2",
        "--output", str(path))
    code, _, err = run(capsys, "solve", str(path), "--method", "spp")
    assert code == 2
    assert "zero interaction" in err


def test_solve_brute_and_spp_agree_without_interaction(tmp_path, capsys):
    path = tmp_path / "plain.qspp"
    run(capsys, "generate", "grid", "3", "3", "--output", str(path))
    code_a, out_a, _ = run(capsys, "solve", str(path), "--method", "brute")
    code_b, out_b, _ = run(capsys, "solve", str(path), "--method", "spp")
    assert code_a == code_b == 0
    assert out_a.splitlines()[2] == out_b.splitlines()[2]  # same cost line


def test_solve_product_method(tmp_path, capsys):
    path = tmp_path / "prod.qspp"
    run(capsys, "generate", "grid", "3", "3", "--fill", "product", "--seed", "5",
        "--output", str(path))
    code, out, _ = run(capsys, "solve", str(path), "--method", "product")
    assert code == 0
    assert out.startswith("method product")


def test_linearize_grid_weak_sum_exit_zero(tmp_path, capsys):
    path = tmp_path / "ws.qspp"
    run(capsys, "generate", "grid", "3", "3", "--fill", "weak-sum", "--seed", "7",
        "--output", str(path))
    code, out, _ = run(capsys, "linearize", str(path), "--mode", "grid")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict linearizable"
    vector = [Fraction(tok) for tok in lines[2].split()]
    inst = parse_instance(path.read_text())
    assert len(vector) == inst.graph.m


def test_linearize_k4_example_exit_three(tmp_path, capsys):
    path = tmp_path / "k4.qspp"
    run(capsys, "generate", "complete", "4", "--example", "--output", str(path))
    code, out, _ = run(capsys, "linearize", str(path), "--mode", "k4")
    assert code == 3
    assert "certificate" in out


@pytest.mark.parametrize("seed", range(6))
def test_linearize_k4_reads_raw_and_normalized_files_alike(tmp_path, capsys, seed):
    raw, normalized = tmp_path / "raw.qspp", tmp_path / "normalized.qspp"
    run(capsys, "generate", "complete", "4", "--fill", "random", "--seed", str(seed),
        "--output", str(raw))
    text = raw.read_text()
    normalized.write_text(emit_instance(normalize_knstar(parse_instance(text))))
    assert normalized.read_text() != text
    assert run(capsys, "linearize", str(raw), "--mode", "k4") == run(
        capsys, "linearize", str(normalized), "--mode", "k4"
    )


def test_linearize_k5_example_oracle_nonneg_exit_three(tmp_path, capsys):
    path = tmp_path / "k5.qspp"
    run(capsys, "generate", "complete", "5", "--example", "--output", str(path))
    code, out, _ = run(capsys, "linearize", str(path), "--mode", "oracle-nonneg")
    assert code == 3
    assert "certificate" in out
    # this instance is rejected even without the sign restriction
    code2, _, _ = run(capsys, "linearize", str(path), "--mode", "oracle")
    assert code2 == 3


def test_linearize_family_mismatch_exit_two(tmp_path, capsys):
    path = tmp_path / "k4.qspp"
    run(capsys, "generate", "complete", "4", "--example", "--output", str(path))
    code, _, err = run(capsys, "linearize", str(path), "--mode", "grid")
    assert code == 2
    assert "grid" in err


def test_linearize_t4_mode(tmp_path, capsys):
    path = tmp_path / "t4.qspp"
    run(capsys, "generate", "tournament", "4", "--orientation", "21",
        "--fill", "random", "--seed", "9", "--output", str(path))
    code, out, _ = run(capsys, "linearize", str(path), "--mode", "t4")
    assert code == 0
    assert out.startswith("verdict linearizable")


def test_generate_qap_reduce(tmp_path, capsys):
    qap_file = tmp_path / "tiny.dat"
    qap_file.write_text("2  0 1 1 0  0 2 2 0")
    out_file = tmp_path / "reduced.qspp"
    code, _, _ = run(capsys, "generate", "qap-reduce", str(qap_file),
                     "--output", str(out_file))
    assert code == 0
    inst = parse_instance(out_file.read_text())
    assert (inst.graph.n, inst.graph.m) == (3, 4)
    code, out, _ = run(capsys, "solve", str(out_file), "--method", "brute")
    assert code == 0
    assert "cost 4" in out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generate_qap_reduce_round_trips_and_decodes(tmp_path, capsys, n):
    """The written file parses to the instance built in-process, and the
    path solve finds on it decodes, from the parsed file, to a placement of
    the QAP's optimal value."""
    qap = random_qap(n, random.Random(n))
    qap_file = tmp_path / "qap.dat"
    values = [v for mat in (qap.a, qap.b, qap.c) for row in mat for v in row]
    qap_file.write_text(" ".join(map(str, [n, *values])))
    code, text, err = run(capsys, "generate", "qap-reduce", str(qap_file))
    assert (code, err) == (0, "")
    inst = parse_instance(text)
    assert inst == qap_to_qspp(qap)
    value = qap_brute_force(qap)[1]
    qspp_file = tmp_path / "reduced.qspp"
    qspp_file.write_text(text)
    code, out, _ = run(capsys, "solve", str(qspp_file), "--method", "brute")
    assert code == 0 and out.splitlines()[-1] == f"cost {value}"
    placement = decode_qap_path(inst, brute_force_solve(inst)[0].arcs)
    assert qap_objective(qap, placement) == value


def test_generate_disjoint_reduce(tmp_path, capsys):
    out_file = tmp_path / "dp.qspp"
    code, _, _ = run(capsys, "generate", "disjoint-reduce", "6", "--seed", "11",
                     "--output", str(out_file))
    assert code == 0
    inst = parse_instance(out_file.read_text())
    from qspath import is_adjacent_qspp

    assert is_adjacent_qspp(inst)
    # the reduction the command draws, built in-process
    rng = random.Random(11)
    g = random_digraph(6, 0.4, rng)
    assert inst == disjoint_to_aqspp(DisjointPathsInstance(g, *rng.sample(range(6), 4)))


def test_generate_disjoint_reduce_needs_four_vertices(capsys):
    code, out, err = run(capsys, "generate", "disjoint-reduce", "3", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "generate disjoint-reduce needs n >= 4" in err


def test_generate_disjoint_reduce_needs_a_seed(capsys):
    code, out, err = run(capsys, "generate", "disjoint-reduce", "6")
    assert (code, out, err) == (2, "", "error: disjoint-reduce needs --seed\n")


def test_negative_arc_count_exit_two(tmp_path, capsys):
    path = tmp_path / "negative.qspp"
    path.write_text("QSPP 1\nn 2\nm -1\ns 0\nt 1\nc\n\nQ sparse 0\n")
    code, out, err = run(capsys, "linearize", str(path), "--mode", "oracle")
    assert code == 2
    assert out == ""
    assert "arc count must not be negative" in err


def test_vertex_count_past_the_bound_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.qspp"
    text = "QSPP 1 n 999999999 m 2 s 0 t 2 arc 0 0 1 arc 1 1 2 c 0 0 Q sparse 0\n"
    assert len(text) < 100
    path.write_text(text)
    code, out, err = run(capsys, "linearize", str(path), "--mode", "grid")
    assert code == 2
    assert out == ""
    assert err == "error: vertex count 999999999 exceeds the bound of 1000000\n"


@pytest.mark.parametrize(
    "argv, count",
    [
        (["cycle", "1000000000"], "1000000000"),
        (["hypercube", "1000000000"], "2**1000000000"),
        (["tournament", "1000000000", "--seed", "1"], "1000000000"),
        (["disjoint-reduce", "1000000000", "--seed", "1"], "1000000000"),
    ],
)
def test_generate_past_the_vertex_bound_exit_two(capsys, argv, count):
    code, out, err = run(capsys, "generate", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: generate {argv[0]}: vertex count {count} exceeds the bound of 1000000\n"


def test_arc_count_past_the_bound_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(model, "MAX_ARCS", 100)
    path = tmp_path / "parallel.qspp"
    path.write_text(parallel_arcs_text(101))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out, err) == (2, "", "error: arc count 101 exceeds the bound of 100\n")


@pytest.mark.parametrize(
    "argv, builder, count",
    [
        (["grid", "8", "8", "--fill", "random", "--seed", "1"], "make_grid", 112),
        (["complete", "12"], "make_complete_symmetric", 110),
        (["complete", "11", "--full"], "make_complete_symmetric", 110),
        (["cycle", "101"], "make_directed_cycle", 101),
        (["hypercube", "6", "--fill", "random", "--seed", "1"], "make_hypercube", 192),
        (["tournament", "15", "--seed", "1"], "make_tournament", 105),
        (["tournament", "15", "--orientation", "0"], "make_tournament", 105),
    ],
)
def test_generate_refuses_an_arc_count_past_the_bound_before_building(
    capsys, monkeypatch, argv, builder, count
):
    monkeypatch.setattr(model, "MAX_ARCS", 100)

    def never(*args, **kwargs):
        raise AssertionError(f"{builder} was called")

    monkeypatch.setattr(qspath.cli, builder, never)
    code, out, err = run(capsys, "generate", *argv)
    message = f"error: generate {argv[0]}: arc count {count} exceeds the bound of 100\n"
    assert (code, out, err) == (2, "", message)


def test_family_arc_counts_are_the_builders():
    for n in range(2, 9):
        simplified = make_complete_symmetric(n, simplified=True, source=0, target=n - 1)
        assert qspath.cli._family_arcs("complete", [n], False) == simplified.m
        assert qspath.cli._family_arcs("complete", [n], True) == make_complete_symmetric(n).m
        assert qspath.cli._family_arcs("cycle", [n], False) == make_directed_cycle(n).m
        assert qspath.cli._family_arcs("tournament", [n], False) == make_tournament(n).m
    for n in range(1, 9):
        assert qspath.cli._family_arcs("hypercube", [n], False) == make_hypercube(n).m
    for p in range(2, 6):
        for q in range(2, 6):
            assert qspath.cli._family_arcs("grid", [p, q], False) == make_grid(p, q).m


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grid", "1", "5000"], "generate grid: grid needs p >= 2 and q >= 2"),
        (["complete", "-5000"], "generate complete: need n >= 2"),
        (["hypercube", "20"], "generate hypercube: vertex count 2**20 exceeds the bound of 1000000"),
        (["tournament", "5000"], "tournament needs --orientation or --seed"),
    ],
)
def test_the_arc_bound_leaves_a_builders_own_refusal_standing(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(model, "MAX_ARCS", 100)
    code, out, err = run(capsys, "generate", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_disjoint_reduce_refuses_its_arc_count_before_reducing(capsys, monkeypatch):
    monkeypatch.setattr(model, "MAX_ARCS", 100)

    def never(*args, **kwargs):
        raise AssertionError("disjoint_to_aqspp was called")

    monkeypatch.setattr(qspath.reductions, "disjoint_to_aqspp", never)
    count = 4 * random_digraph(12, 0.4, random.Random(1)).m + 1
    assert count > 100
    code, out, err = run(capsys, "generate", "disjoint-reduce", "12", "--seed", "1")
    message = f"error: generate disjoint-reduce: arc count {count} exceeds the bound of 100\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("bound, code", [(30, 2), (100, 2), (2000, 0)])
def test_disjoint_reduce_stops_drawing_at_the_first_arc_past_the_bound(
    capsys, monkeypatch, bound, code
):
    """Each ordered vertex pair draws one coin.  A digraph past MAX_ARCS
    stops its draw at the coin of its first arc past it; one within it
    draws all n(n - 1) coins, and is refused only if its reduction's
    4m + 1 arcs pass the bound."""
    monkeypatch.setattr(model, "MAX_ARCS", bound)
    n = 12
    coins, arcs = 0, 0
    replay = random.Random(1)
    while coins < n * (n - 1) and arcs <= bound:
        coins += 1
        arcs += replay.random() < 0.4
    assert (coins < n * (n - 1)) == (bound == 30)
    draws = []
    drawn = random.Random.random

    def counted(rng):
        draws.append(1)
        return drawn(rng)

    monkeypatch.setattr(random.Random, "random", counted)
    result = run(capsys, "generate", "disjoint-reduce", str(n), "--seed", "1")
    assert result[0] == code
    assert len(draws) == coins
    if bound == 30:
        refusal = "the digraph's arc count exceeds the bound of 30"
        assert result[1:] == ("", f"error: generate disjoint-reduce: {refusal}\n")


def test_bench_is_no_longer_a_command(capsys):
    """Timings are the benchmark's alone, so the CLI has no bench command and
    argparse refuses it as any unknown command."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--max-p", "3", "--max-q", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'bench'" in captured.err


def test_every_option_says_what_it_does():
    """Each option of each command has a help text in --help."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    silent = [
        (name, action.option_strings[0])
        for name, command in commands.choices.items()
        for action in command._actions
        if action.option_strings and not action.help
    ]
    assert silent == []
    assert set(commands.choices) >= {"generate", "linearize", "solve"}


def test_solve_brute_respects_path_limit(tmp_path, capsys):
    path = tmp_path / "grid.qspp"
    run(capsys, "generate", "grid", "4", "4", "--output", str(path))
    code, _, err = run(capsys, "solve", str(path), "--method", "brute", "--limit", "5")
    assert code == 2
    assert "limit" in err


@pytest.mark.parametrize("limit", [[], ["--limit", "2000"]], ids=["default-limit", "limit-2000"])
@pytest.mark.parametrize("mode", ["oracle", "oracle-nonneg"])
@pytest.mark.parametrize(
    "family",
    [["grid", "7", "8", "--fill", "weak-sum"], ["complete", "8", "--fill", "random"]],
    ids=["grid-7x8", "complete-8"],
)
def test_an_oracle_refusal_gives_no_advice_that_cannot_help(tmp_path, capsys, family, mode, limit):
    """The 7-by-8 grid has 1,716 paths and the cyclic complete 8 has 1,956,
    past the oracle's cap of 1000: a larger --limit only moves the refusal
    from the enumeration to the oracle, so neither tells the user to raise
    it."""
    path = tmp_path / "big.qspp"
    run(capsys, "generate", *family, "--seed", "1", "--output", str(path))
    code, out, err = run(capsys, "linearize", str(path), "--mode", mode, *limit)
    assert (code, out) == (2, "")
    assert "raise the limit" not in err


def test_solve_product_rejects_plain_instances(tmp_path, capsys):
    """A random fill, and a signed rank-one file: with c = (4, 9) and
    Q[0][1] = -6, Q + Diag(c) is a*a^T for a = (2, -3), which has no
    nonnegative factor: the refusal names the factor it lacks rather than
    saying the matrix is no rank-one product."""
    path = tmp_path / "rnd.qspp"
    run(capsys, "generate", "grid", "2", "3", "--fill", "random", "--seed", "3",
        "--output", str(path))
    signed = tmp_path / "signed.qspp"
    signed.write_text(
        "QSPP 1\nn 3\nm 2\ns 0\nt 2\narc 0 0 1\narc 1 1 2\nc\n4 9\nQ sparse 1\n0 1 -6\n"
    )
    for file in (path, signed):
        code, out, err = run(capsys, "solve", str(file), "--method", "product")
        assert code == 2
        assert out == ""
        assert "is not a rank-one product with a nonnegative rational factor" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.qspp")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "cycle"],
        ["generate", "complete"],
        ["generate", "disjoint-reduce"],
        ["generate", "grid", "3"],
    ],
)
def test_generate_with_missing_parameters_names_the_family(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"generate {argv[1]} needs" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "grid", "1", "5"], "grid needs p >= 2 and q >= 2"),
        (["generate", "grid", "a", "5"], "generate grid needs integer parameters"),
        (["generate", "complete", "6", "--example"], "worked examples exist for sizes 4 and 5"),
        (["generate", "disjoint-reduce", "6", "--seed", "1", "--density", "nan"],
         "generate disjoint-reduce: density must be in [0, 1], got nan"),
        (["generate", "disjoint-reduce", "6", "--seed", "1", "--density", "-1"],
         "generate disjoint-reduce: density must be in [0, 1], got -1.0"),
        (["generate", "disjoint-reduce", "6", "--seed", "1", "--density", "1.5"],
         "generate disjoint-reduce: density must be in [0, 1], got 1.5"),
    ],
)
def test_generate_rejects_bad_values_with_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_library_value_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "grid.qspp"
    run(capsys, "generate", "grid", "3", "3", "--output", str(path))

    def broken(*args, **kwargs):
        raise ValueError("a fault inside the library")

    monkeypatch.setattr(qspath.cli, "lp_oracle", broken)
    with pytest.raises(ValueError, match="a fault inside the library"):
        main(["linearize", str(path), "--mode", "oracle"])


@pytest.mark.parametrize("argv", [["solve", "{f}"], ["generate", "qap-reduce", "{f}"]])
def test_file_that_is_not_utf8_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"\xff\xfe\x00 not text")
    code, out, err = run(capsys, *[a.format(f=path) for a in argv])
    assert code == 2
    assert out == ""
    assert "not UTF-8 text" in err


BIG_VALUE_QSPP = "QSPP 1\nn 2\nm 1\ns 0\nt 1\narc 0 0 1\nc\n1e5000\nQ sparse 0\n"
# the largest value the parser takes, 4,300 nines: one arc costs it, and two
# arcs of that cost make a path whose 4,301-digit cost str() refuses
NINES = "9" * model.MAX_DIGITS
ONE_ARC_NINES = f"QSPP 1\nn 2\nm 1\ns 0\nt 1\narc 0 0 1\nc\n{NINES}\nQ sparse 0\n"
TWO_ARC_NINES = (
    f"QSPP 1\nn 3\nm 2\ns 0\nt 2\narc 0 0 1\narc 1 1 2\nc\n{NINES} {NINES}\nQ sparse 0\n"
)
# a QAP of 2,200-digit flows and distances, whose reduction's big M has
# about 4,400 digits
HALF_NINES = "9" * 2200
BIG_M_QAP = f"2\n0 {HALF_NINES}\n{HALF_NINES} 0\n0 {HALF_NINES}\n{HALF_NINES} 0\n"
PAST_STR = "error: a value has more than 4300 digits, the most str() prints\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["solve", "{f}", "--method", "spp"], BIG_VALUE_QSPP,
         "error: token 16 ('1e5000'): expected rational linear cost 0\n"),
        (["solve", "{f}", "--method", "brute"], BIG_VALUE_QSPP,
         "error: token 16 ('1e5000'): expected rational linear cost 0\n"),
        (["linearize", "{f}", "--mode", "oracle"], BIG_VALUE_QSPP,
         "error: token 16 ('1e5000'): expected rational linear cost 0\n"),
        (["generate", "qap-reduce", "{f}"], "1\n1e5000\n1\n",
         "error: token 2 ('1e5000') is not a number\n"),
        (["solve", "{f}", "--method", "spp"], TWO_ARC_NINES, PAST_STR),
        (["solve", "{f}", "--method", "brute"], TWO_ARC_NINES, PAST_STR),
        (["linearize", "{f}", "--mode", "oracle"], TWO_ARC_NINES, PAST_STR),
        (["linearize", "{f}", "--mode", "oracle-nonneg"], TWO_ARC_NINES, PAST_STR),
        (["generate", "qap-reduce", "{f}"], BIG_M_QAP, PAST_STR),
    ],
    ids=["solve-spp", "solve-brute", "linearize-oracle", "qap-reduce",
         "sum-solve-spp", "sum-solve-brute", "sum-linearize-oracle",
         "sum-linearize-oracle-nonneg", "big-m-qap-reduce"],
)
def test_a_value_past_the_digit_bound_exit_two(tmp_path, capsys, argv, text, message):
    """A 6-byte token whose value no int-to-string conversion would take
    is refused by the parser, not left to fail where a command prints it;
    a result computed from values inside the bound, a sum or a reduction's
    big M, that str() will not print is refused before any line is
    written."""
    path = tmp_path / "big.txt"
    path.write_text(text)
    assert run(capsys, *[a.format(f=path) for a in argv]) == (2, "", message)


def test_a_value_at_the_digit_bound_prints(tmp_path, capsys):
    path = tmp_path / "nines.qspp"
    path.write_text(ONE_ARC_NINES)
    expected = f"method spp\npath 0 1\ncost {NINES}\n"
    assert run(capsys, "solve", str(path), "--method", "spp") == (0, expected, "")


@pytest.mark.parametrize("fill", ["random", "weak-sum", "product", "adjacent"])
def test_generate_refuses_negative_max_entry(capsys, fill):
    code, out, err = run(capsys, "generate", "grid", "3", "3", "--fill", fill,
                         "--seed", "1", "--max-entry", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: generate grid: --max-entry must not be negative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "FILE", "--limit", "-3"],
        ["solve", "FILE", "--limit", "0"],
        ["linearize", "FILE", "--mode", "oracle", "--limit", "-1"],
        ["linearize", "FILE", "--mode", "grid", "--limit", "zz"],
    ],
)
def test_limit_below_one_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "grid.qspp"
    run(capsys, "generate", "grid", "2", "2", "--output", str(path))
    argv = [str(path) if a == "FILE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: qspath " + argv[0])
    bad = argv[-1]
    expected = "expected an integer" if bad == "zz" else f"must be at least 1, got {bad}"
    assert f"error: argument --limit: {expected}" in captured.err


def test_write_encodes_a_long_text_in_slices(tmp_path, capsys):
    """An 8.4 MB text is written without an encoded copy of all of it, to a
    file and to stdout alike."""
    text = "0 1 2 3 4 5 6\n" * 600_000
    target = tmp_path / "long.qspp"
    peak = traced_peak(lambda: qspath.cli._write(text, str(target)))
    assert target.read_text(encoding="utf-8") == text
    assert peak < len(text) // 2
    qspath.cli._write(text, None)
    assert capsys.readouterr().out == text
