"""Command-line front end: instance generation, solving and linearization.

Exit codes are a stable contract: 0 for success (and for the linearizable
verdict), 3 for a not-linearizable verdict, 2 for usage errors and violated
preconditions.  Every value printed is exact, a whole number or a rational,
never a float, and no module of the library reads a clock.

Each handler returns its exit code and its whole text, which main writes
once through _write, to --output for generate and to stdout otherwise; a
result holding a value past the interpreter's digit limit, the most str()
prints, exits 2 with nothing written.

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
from contextlib import nullcontext

from .errors import FormatError, QspathError
from .fileio import emit_instance, parse_instance
from .generate import FILLS, filled_instance, random_digraph, worked_example
from .graphs import (
    DEFAULT_PATH_LIMIT,
    MAX_VERTICES,
    _check_vertex_count,
    make_complete_symmetric,
    make_directed_cycle,
    make_grid,
    make_hypercube,
    make_tournament,
    path_vertices,
)
from .grid import linearize_grid
from .model import (
    QsppInstance,
    SppInstance,
    _check_arc_count,
    _decimal_texts,
    brute_force_solve,
    spp_solve,
)
from .pathmatrix import (
    MAX_ORACLE_PATHS,
    CostMismatch,
    InfeasibilityCertificate,
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


def _cmd_generate(args: argparse.Namespace) -> tuple[int, str]:
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
    return 0, emit_instance(inst)


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


def _lines(*rows) -> str:
    """One line per row of words and exact values, separated by spaces."""
    return "".join(" ".join(_decimal_texts(row)) + "\n" for row in rows)


def _cmd_solve(args: argparse.Namespace) -> tuple[int, str]:
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
        if not inst.interaction.is_zero():
            raise QspathError(
                "method spp needs a zero interaction matrix; use brute or aqspp"
            )
        path, cost = spp_solve(
            SppInstance(inst.graph, inst.source, inst.target, inst.linear)
        )
    verts = path_vertices(inst.graph, path)
    return 0, _lines(("method", args.method), ("path", *verts), ("cost", cost))


def _cmd_linearize(args: argparse.Namespace) -> tuple[int, str]:
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
    if result.linearizable:
        return 0, _lines(("verdict", "linearizable"), ("vector",), result.vector)
    rows = [("verdict", "not-linearizable")]
    if result.note:
        rows.append(("note", result.note))
    witness = result.witness
    if isinstance(witness, InfeasibilityCertificate):
        rows += [("certificate",), witness.coefficients]
    elif isinstance(witness, CostMismatch):
        verts = path_vertices(inst.graph, witness.path)
        rows += [("witness-path", *verts), ("expected", witness.expected), ("got", witness.got)]
    return 3, _lines(*rows)


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
    gen.add_argument(
        "--fill",
        choices=sorted(FILLS),
        default="zero",
        help="how c and Q are filled (default zero); every other fill needs --seed",
    )
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
    gen.add_argument("--output", default=None, help="file to write (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("file")
    solve.add_argument(
        "--method",
        choices=["brute", "aqspp", "product", "spp"],
        default="brute",
        help="brute: branch and bound on any instance (default); aqspp: "
        "adjacent-only Q on a DAG; product: rank-one Q + Diag(c); spp: zero Q",
    )
    solve.add_argument(
        "--limit",
        type=_path_limit,
        default=DEFAULT_PATH_LIMIT,
        help="most source-target paths --method brute accepts, exit 2 past it "
        "(default %(default)s); the other methods ignore it",
    )
    solve.set_defaults(func=_cmd_solve)

    lin = sub.add_parser("linearize", help="decide linearizability of an instance file")
    lin.add_argument("file")
    lin.add_argument(
        "--mode",
        choices=["grid", "k4", "t4", "oracle", "oracle-nonneg"],
        required=True,
        help="grid: the grid decision; k4, t4: the four-vertex complete and "
        "tournament forms; oracle: the path-matrix LP, B c' = b; "
        "oracle-nonneg: the same with c' >= 0",
    )
    lin.add_argument(
        "--limit",
        type=_path_limit,
        default=MAX_ORACLE_PATHS,
        help="most source-target paths the oracle modes enumerate, exit 2 past "
        "it (default %(default)s, the oracle's cap: a larger limit only delays "
        "its refusal); the other modes ignore it",
    )
    lin.set_defaults(func=_cmd_linearize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
        _write(text, getattr(args, "output", None))
    except (QspathError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
