"""Command-line front end: instance generation, solving, linearization, benchmarks.

Exit codes are a stable contract: 0 for success (and for the linearizable
verdict), 3 for a not-linearizable verdict, 2 for usage errors and violated
preconditions.  All output values are exact rationals; wall-clock timings in
``bench`` are the only floats anywhere.

Each process runs one command, so the module loads at import only the
layers of the common commands: ``generate``, ``linearize --mode
grid|oracle|oracle-nonneg`` and ``solve --method brute|spp``.  Their
handlers look those layers up on this module when they run, so a name
replaced here (the benchmark's span wrappers and the tests patch them) is
the one called.  The other handlers import their layer where they call it:
the adjacent and product solvers, the K4 and tournament closed forms and
the two reductions.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from .errors import FormatError, QspathError
from .fileio import emit_instance, parse_instance
from .generate import FILLS, filled_instance, random_digraph, worked_example
from .graphs import (
    DEFAULT_PATH_LIMIT,
    MAX_VERTICES,
    _check_vertex_count,
    count_grid_paths,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
    path_vertices,
)
from .grid import linearize_grid
from .model import QsppInstance, SppInstance, _check_arc_count, brute_force_solve, spp_solve
from .pathmatrix import (
    MAX_ORACLE_PATHS,
    CostMismatch,
    InfeasibilityCertificate,
    LinearizationResult,
    build_path_matrix,
    lp_oracle,
)


# characters handed to one write: the stream encodes each slice on its own,
# so it never holds an encoded copy of a whole instance text
_WRITE_CHARS = 1 << 20


def _write(text: str, output: str | None) -> None:
    with nullcontext(sys.stdout) if output is None else open(
        output, "w", encoding="utf-8"
    ) as handle:
        for start in range(0, len(text), _WRITE_CHARS):
            handle.write(text[start : start + _WRITE_CHARS])


# Parameters each generate family takes, in order.
FAMILY_PARAMS = {
    "grid": ("p", "q"),
    "complete": ("n",),
    "cycle": ("n",),
    "hypercube": ("n",),
    "tournament": ("n",),
    "qap-reduce": ("qap-file",),
    "disjoint-reduce": ("n",),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    expected = FAMILY_PARAMS[family]
    if len(args.params) != len(expected):
        word = "parameter" if len(expected) == 1 else "parameters"
        raise QspathError(
            f"generate {family} needs the {word} {' '.join(expected)}, "
            f"got {len(args.params)}"
        )
    try:
        inst = _generated_instance(args)
    except ValueError as exc:
        # the parameters and options are user input; the graph and instance
        # constructors refuse bad values with ValueError, a usage error here
        raise QspathError(f"generate {family}: {exc}") from exc
    _write(emit_instance(inst), args.output)
    return 0


def _generated_instance(args: argparse.Namespace) -> QsppInstance:
    family = args.family
    if family == "qap-reduce":
        from .reductions import parse_qaplib, qap_to_qspp

        return qap_to_qspp(parse_qaplib(_read_text(args.params[0])))
    try:
        sizes = [int(v) for v in args.params]
    except ValueError:
        raise QspathError(
            f"generate {family} needs integer parameters, got {' '.join(args.params)}"
        ) from None
    n = sizes[0]
    if family == "disjoint-reduce":
        if n < 4:
            raise QspathError(
                "generate disjoint-reduce needs n >= 4 for four distinct "
                f"terminals, got {n}"
            )
        if args.seed is None:
            raise QspathError("disjoint-reduce needs --seed")
        rng = random.Random(args.seed)
        g = random_digraph(n, args.density, rng)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        # the reduction has four arcs per arc of g and the bridge
        _check_arc_count(4 * g.m + 1)
        from .reductions import DisjointPathsInstance, disjoint_to_aqspp

        return disjoint_to_aqspp(DisjointPathsInstance(g, s1, t1, s2, t2))

    if family == "complete" and args.example:
        return worked_example(n)
    if family == "tournament" and args.orientation is None and args.seed is None:
        raise QspathError("tournament needs --orientation or --seed")
    _check_arc_count(_family_arcs(family, sizes, args.full))
    if family == "grid":
        g = make_grid(*sizes)
    elif family == "complete":
        g = make_complete_symmetric(n, simplified=not args.full, source=0, target=n - 1)
    elif family == "cycle":
        g = make_directed_cycle(n)
    elif family == "hypercube":
        g = make_hypercube(n)
    else:  # tournament
        bits = args.orientation
        if bits is None:
            # one bit per vertex pair, drawn only for a count inside the bounds
            _check_vertex_count(n)
            bits = random.Random(args.seed).getrandbits(n * (n - 1) // 2)
        g = make_tournament(n, bits)
    return filled_instance(g, 0, g.n - 1, args.fill, args.seed, args.max_entry)


def _family_arcs(family: str, sizes: list[int], full: bool) -> int:
    """Arcs of the graph the family's builder makes from ``sizes``, known
    before it builds one, or 0 for sizes the builder refuses on its own
    before any arc: too small, or past MAX_VERTICES, so that its message
    stands."""
    if family == "grid":
        p, q = sizes
        return 2 * p * q - p - q if min(p, q) >= 2 and p * q <= MAX_VERTICES else 0
    (n,) = sizes
    if family == "hypercube":
        # 2**n is within the bound exactly when n is below its bit length
        return n << (n - 1) if 1 <= n < MAX_VERTICES.bit_length() else 0
    if not 2 <= n <= MAX_VERTICES:
        return 0
    if family == "complete":
        # the simplified graph drops the n - 1 arcs into the source, the
        # n - 1 out of the target (one of them shared) and source -> target
        return n * (n - 1) if full else (n - 1) * (n - 2)
    return n if family == "cycle" else n * (n - 1) // 2


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _load(path: str) -> QsppInstance:
    return parse_instance(_read_text(path))


def _print_solution(method: str, inst: QsppInstance, path, cost: Fraction) -> None:
    verts = path_vertices(inst.graph, path)
    print(f"method {method}")
    print("path " + " ".join(str(v) for v in verts))
    print(f"cost {cost}")


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    if args.method == "brute":
        path, cost = brute_force_solve(inst, args.limit)
    elif args.method == "aqspp":
        from .adjacent import solve_aqspp

        path, cost = solve_aqspp(inst)
    elif args.method == "product":
        from .special import solve_product_case

        path, cost = solve_product_case(inst)
    else:
        if any(v for row in inst.interaction.rows for v in row):
            raise QspathError(
                "method spp needs a zero interaction matrix; use brute or aqspp"
            )
        path, cost = spp_solve(
            SppInstance(inst.graph, inst.source, inst.target, inst.linear)
        )
    _print_solution(args.method, inst, path, cost)
    return 0


def _print_result(inst: QsppInstance, result: LinearizationResult) -> int:
    if result.linearizable:
        print("verdict linearizable")
        print("vector")
        print(" ".join(str(v) for v in result.vector))
        return 0
    print("verdict not-linearizable")
    if result.note:
        print(f"note {result.note}")
    witness = result.witness
    if isinstance(witness, InfeasibilityCertificate):
        print("certificate")
        print(" ".join(str(v) for v in witness.coefficients))
    elif isinstance(witness, CostMismatch):
        verts = path_vertices(inst.graph, witness.path)
        print("witness-path " + " ".join(str(v) for v in verts))
        print(f"expected {witness.expected}")
        print(f"got {witness.got}")
    return 3


def _cmd_linearize(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    if args.mode == "grid":
        result = linearize_grid(inst)
    elif args.mode == "k4":
        from .complete import k4_linearize

        result = k4_linearize(inst)
    elif args.mode == "t4":
        from .complete import tournament4_linearize

        result = tournament4_linearize(inst)
    else:
        pm = build_path_matrix(inst, args.limit)
        result = lp_oracle(pm, require_nonneg=args.mode == "oracle-nonneg")
    return _print_result(inst, result)


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes: list[tuple[int, int]] = []
    if args.max_p >= 2 and args.max_q >= 2:
        for p in range(2, args.max_p + 1):
            sizes.append((p, args.max_q))
        for q in range(2, args.max_q):
            sizes.append((args.max_p, q))
    sizes.sort()
    print("p q arcs paths seconds verdict")
    for p, q in sizes:
        g = make_grid(p, q)
        inst = filled_instance(g, 0, g.n - 1, "weak-sum", args.seed + p * 1000 + q)
        start = time.perf_counter()
        result = linearize_grid(inst)
        elapsed = time.perf_counter() - start
        verdict = "linearizable" if result.linearizable else "not-linearizable"
        print(f"{p} {q} {g.m} {count_grid_paths(p, q)} {elapsed:.4f} {verdict}")
    return 0


def _path_limit(text: str) -> int:
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if limit < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {limit}")
    return limit


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every
    main call, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qspath",
        description="Quadratic shortest path toolkit: exact solvers and "
        "linearizability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file")
    gen.add_argument("family", choices=list(FAMILY_PARAMS))
    gen.add_argument("params", nargs="*", help="family parameters (sizes or a QAP file)")
    gen.add_argument("--fill", choices=sorted(FILLS), default="zero")
    gen.add_argument("--seed", type=int, default=None, help="64-bit seed for random fills")
    gen.add_argument(
        "--max-entry",
        type=int,
        default=9,
        help="largest value a seeded fill draws; the product fill draws at most 3",
    )
    gen.add_argument("--example", action="store_true", help="built-in worked example (complete 4 or 5)")
    gen.add_argument("--full", action="store_true", help="complete graph without arc removal")
    gen.add_argument("--orientation", type=int, default=None, help="tournament orientation bits")
    gen.add_argument("--density", type=float, default=0.4, help="arc probability for disjoint-reduce")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("file")
    solve.add_argument("--method", choices=["brute", "aqspp", "product", "spp"], default="brute")
    solve.add_argument("--limit", type=_path_limit, default=DEFAULT_PATH_LIMIT)
    solve.set_defaults(func=_cmd_solve)

    lin = sub.add_parser("linearize", help="decide linearizability of an instance file")
    lin.add_argument("file")
    lin.add_argument(
        "--mode",
        choices=["grid", "k4", "t4", "oracle", "oracle-nonneg"],
        required=True,
    )
    lin.add_argument("--limit", type=_path_limit, default=MAX_ORACLE_PATHS)
    lin.set_defaults(func=_cmd_linearize)

    bench = sub.add_parser("bench", help="time the grid decision across sizes")
    bench.add_argument("--max-p", type=int, required=True)
    bench.add_argument("--max-q", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QspathError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
