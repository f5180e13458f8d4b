"""The benchmark's workloads: what one round of each holds.

BENCHMARK.json gives the reason each workload was chosen.

This module does not import qspath, so run.py can read it before it has put
the checkout's ``src/`` on the path.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

W, R = "weak-sum", "random"
EQ, NN = "oracle", "oracle-nonneg"
MIN_ROUNDS = 3  # whole rounds an untraced run makes at least


@dataclass(frozen=True)
class Item:
    """One instance of a round.

    kind "grid": generate, ``linearize --mode grid``, then ``solve --method
    brute`` on the instance's top-left 5x5 sub-grid (pipeline.CORNER).
    kind "oracle": generate, then ``linearize`` once per mode in ``modes``.
    kind "brute": generate, then ``solve --method brute``.
    """

    kind: str
    p: int
    q: int
    fill: str
    modes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    items: tuple[Item, ...]  # one round; every round shuffles them anew
    warmup: tuple[Item, ...]

    @property
    def verdicts_per_round(self) -> int:
        return sum(
            len(item.modes) if item.kind == "oracle" else int(item.kind == "grid")
            for item in self.items
        )


# Grid sizes sit on one anti-diagonal (p + q constant), so every instance of
# a round is about the same work and the medians do not depend on which
# sizes a seed draws; the seed sets the fills, the order of the shapes and
# the per-instance seeds.  The sums, 21 and 24, keep p and q within 8..14
# and 10..16, and keep a run of MIN_ROUNDS rounds, with its checks and
# set-up probes, near half a minute when the host is slow.  The oracle round
# lists its instances one by one.
# Nonnegative-sense runs stop at 5x5: at 5x6 their simplex takes 0.3 to 4 s
# depending on the values (half a minute at 6x6), which would dominate the
# round and scatter its timings.  Equality-sense runs stop at 5x6 and 6x5:
# two 6x6 ones (1.2 s each) made a round too long for three rounds to fit
# in a run when the host is slow; 6x6 grids stay in the brute-force set.
# 5x6 and 6x5 come in both fills, so that a run has more than ten verdicts
# in that slowest group and verdict_s.tail falls inside it, not at its edge,
# where the seed's values would move it.  For the same reason a round has
# eight verdicts below its three equality-sense 5x5 ones and eight above,
# so that verdict_s.p50 falls in the middle of the 5x5 group, and three 7x7
# grids put solve_s.p50 in the middle of the 7x7 solves.
WORKLOADS = {
    "grid-yes": Workload(
        items=tuple(Item("grid", p, 21 - p, W) for p in range(8, 14)),
        warmup=(Item("grid", 6, 6, W),),
    ),
    "grid-no": Workload(
        items=tuple(Item("grid", p, 24 - p, R) for p in range(10, 15)),
        warmup=(Item("grid", 6, 6, R),),
    ),
    "oracle": Workload(
        items=(
            Item("oracle", 4, 4, W, (EQ, NN)),
            Item("oracle", 4, 5, W, (EQ, NN)),
            Item("oracle", 5, 4, R, (EQ, NN)),
            Item("oracle", 4, 6, R, (EQ, NN)),
            Item("oracle", 6, 4, W, (EQ, NN)),
            Item("oracle", 5, 5, W, (EQ, NN)),
            Item("oracle", 5, 5, R, (EQ, NN)),
            Item("oracle", 5, 5, R, (EQ,)),
            Item("oracle", 5, 6, R, (EQ,)),
            Item("oracle", 5, 6, W, (EQ,)),
            Item("oracle", 6, 5, R, (EQ,)),
            Item("oracle", 6, 5, W, (EQ,)),
            Item("brute", 6, 6, R),
            Item("brute", 7, 7, W),
            Item("brute", 7, 7, R),
            Item("brute", 7, 7, W),
            Item("brute", 8, 8, W),
        ),
        warmup=(Item("oracle", 4, 4, W, (EQ, NN)), Item("brute", 4, 4, R)),
    ),
}


def rounds(name: str, workload: Workload, seed: int):
    """Endless seeded rounds of (instance id, item, instance seed)."""
    rng = random.Random(f"{name}/{seed}")
    number = 0
    while True:
        order = rng.sample(workload.items, len(workload.items))
        yield [(f"{number}.{k}", item, rng.getrandbits(32)) for k, item in enumerate(order)]
        number += 1
