"""Independent checks of the output of qspath commands.

Each check recomputes the answer by another route than the command took.
Path rows, path costs and certificate products use this file's own
arithmetic (``st_paths``, ``arcs_cost``, ``sample_paths``).  Some checks
also compare with library functions: ``linearize_weak_sum`` and
``spp_solve`` are not on the checked commands' code path, but
``reduce_cost_vector``, ``pseudo_linearize`` and ``path_cost`` are (the grid
decision prices paths with the same ``cost_of_arcs`` that ``path_cost``
calls).  Those comparisons are consistency checks; each check that makes
one also has a part that does not depend on the library.  A check returns
True or False and never raises for malformed output: the caller counts an
exception as a failed check.
"""
from __future__ import annotations

import random
from fractions import Fraction

from qspath.graphs import Path
from qspath.grid import pseudo_linearize, reduce_cost_vector
from qspath.model import QsppInstance, SppInstance, linear_cost, path_cost, spp_solve
from qspath.special import linearize_weak_sum

SAMPLED = 16  # random paths a printed grid vector is priced on


def _out_arcs(inst: QsppInstance) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(inst.graph.n)]
    for a, arc in enumerate(inst.graph.arcs):
        out[arc.head].append(a)
    return out


def st_paths(inst: QsppInstance) -> list[list[int]]:
    """Every source-target path as a list of arc ids, lexicographic by arc id.

    That is the row order of the command's path matrix.  Instances here are
    grids, which are acyclic, so a plain depth-first search lists each simple
    path exactly once.
    """
    g = inst.graph
    out = _out_arcs(inst)
    paths: list[list[int]] = []
    stack: list[int] = []

    def extend(v: int) -> None:
        if v == inst.target:
            paths.append(list(stack))
            return
        for a in out[v]:
            stack.append(a)
            extend(g.arcs[a].tail)
            stack.pop()

    extend(inst.source)
    return paths


def sample_paths(inst: QsppInstance, count: int, seed: int) -> list[list[int]]:
    """``count`` seeded random source-target paths as lists of arc ids.

    Every walk from the source of a grid reaches the target, so each path
    is a walk that picks one of the current vertex's out-arcs at random.
    """
    g = inst.graph
    out = _out_arcs(inst)
    rng = random.Random(seed)
    paths = []
    for _ in range(count):
        v, path = inst.source, []
        while v != inst.target:
            a = rng.choice(out[v])
            path.append(a)
            v = g.arcs[a].tail
        paths.append(path)
    return paths


def arcs_cost(inst: QsppInstance, arcs: list[int]) -> Fraction:
    """Linear costs plus both ordered interaction entries of every arc pair."""
    rows, linear = inst.interaction.rows, inst.linear
    total = sum((linear[a] for a in arcs), Fraction(0))
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            total += rows[a][b] + rows[b][a]
    return total


def _lines(stdout: str) -> list[str]:
    return stdout.rstrip("\n").split("\n")


def _fractions(line: str) -> list[Fraction]:
    return [Fraction(token) for token in line.split()]


def _path_arcs(inst: QsppInstance, line: str) -> list[int]:
    """Arc ids of a printed source-target vertex sequence (``path 0 1 ...``)."""
    verts = [int(v) for v in line.split()[1:]]
    if verts[0] != inst.source or verts[-1] != inst.target:
        raise ValueError("printed path does not join source and target")
    arc_id = {(arc.head, arc.tail): a for a, arc in enumerate(inst.graph.arcs)}
    return [arc_id[(u, v)] for u, v in zip(verts, verts[1:])]


def grid_yes(stdout: str, inst: QsppInstance) -> bool:
    """The printed vector prices ``SAMPLED`` random paths at their true cost, and
    it is the reduced form of the weak-sum linearization."""
    lines = _lines(stdout)
    if lines[:2] != ["verdict linearizable", "vector"] or len(lines) != 3:
        return False
    x = _fractions(lines[2])
    reproduces = len(x) == inst.graph.m and all(
        sum(x[a] for a in path) == arcs_cost(inst, path)
        for path in sample_paths(inst, SAMPLED, seed=len(x))
    )
    expected = reduce_cost_vector(inst.graph, linearize_weak_sum(inst))
    return reproduces and tuple(x) == expected


def grid_no(stdout: str, inst: QsppInstance) -> bool:
    """The witness path's true cost is ``expected`` (also under
    ``path_cost``), and the pseudo-linearization prices it at ``got``,
    which differs."""
    lines = _lines(stdout)
    if lines[0] != "verdict not-linearizable" or len(lines) != 5:
        return False
    arcs = _path_arcs(inst, lines[2])
    expected = Fraction(lines[3].removeprefix("expected "))
    got = Fraction(lines[4].removeprefix("got "))
    truth = arcs_cost(inst, arcs)
    pseudo_price = linear_cost(pseudo_linearize(inst), Path(tuple(arcs)))
    return (
        truth == expected
        and path_cost(inst, Path(tuple(arcs))) == truth
        and truth != pseudo_price
        and pseudo_price == got
    )


def oracle(
    stdout: str,
    inst: QsppInstance,
    paths: list[list[int]],
    costs: list[Fraction],
    nonneg: bool,
    grid_linearizable: bool,
) -> bool:
    """A vector must reproduce every path cost (and be nonnegative in the
    nonnegative sense); a certificate y must give B^T y = 0 (>= 0 in the
    nonnegative sense) and b^T y < 0.  The equality verdict must agree with
    the grid decision, and a nonnegative "yes" implies an equality "yes".
    """
    lines = _lines(stdout)
    if lines[0] == "verdict linearizable":
        x = _fractions(lines[2])
        reproduces = len(x) == inst.graph.m and all(
            sum(x[a] for a in path) == cost for path, cost in zip(paths, costs)
        )
        return grid_linearizable and reproduces and (not nonneg or min(x) >= 0)
    if lines[0] != "verdict not-linearizable" or lines[-2] != "certificate":
        return False
    y = _fractions(lines[-1])
    if len(y) != len(paths):
        return False
    columns = [Fraction(0)] * inst.graph.m
    for coefficient, path in zip(y, paths):
        for a in path:
            columns[a] += coefficient
    value = sum((c * cost for c, cost in zip(y, costs)), Fraction(0))
    columns_ok = all(v >= 0 for v in columns) if nonneg else not any(columns)
    return columns_ok and value < 0 and (nonneg or not grid_linearizable)


def brute(stdout: str, inst: QsppInstance, vector: tuple[Fraction, ...] | None) -> bool:
    """The printed path costs what is printed, and that cost is optimal:
    equal to the shortest path under the linearization ``vector`` when the
    instance has one, otherwise to the minimum over this file's own
    enumeration."""
    lines = _lines(stdout)
    if lines[0] != "method brute" or len(lines) != 3:
        return False
    reported = Fraction(lines[2].removeprefix("cost "))
    if arcs_cost(inst, _path_arcs(inst, lines[1])) != reported:
        return False
    if vector is not None:
        spp = SppInstance(inst.graph, inst.source, inst.target, vector)
        return spp_solve(spp)[1] == reported
    return min(arcs_cost(inst, path) for path in st_paths(inst)) == reported
