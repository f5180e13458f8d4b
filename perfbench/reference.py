"""Fixed work that does not use qspath, timed to follow the host's speed.

run.py divides every timing by how much slower than on a quiet host this
work ran next to it.  Run as a script, it is the stand-in for set-up: a
fresh interpreter imports the standard library modules qspath uses and then
does the arithmetic SETUP_REPEATS times, in place of importing qspath and
running a warm-up.
"""
from __future__ import annotations

# argparse, dataclasses, heapq and random are imported only for their
# start-up cost: qspath imports them.
import argparse
import dataclasses
import heapq
import random
import time
from fractions import Fraction

SETUP_REPEATS = 20


def reference_seconds() -> float:
    """Time a fixed piece of exact-arithmetic work.

    It builds a 40x40 table of fractions, sums products across it, and
    prints and parses a few rows: the kinds of work the commands do.  It
    runs before and after every command, and run.py scales each command's
    time by the mean of the two, so that drift in the host's speed cancels.
    """
    start = time.perf_counter()
    rows = [[Fraction(i * j % 7, 1 + (i + j) % 3) for j in range(40)] for i in range(40)]
    total = Fraction(0)
    for i in range(40):
        for j in range(0, 40, 2):
            total += rows[i][j] * rows[j][i]
    text = " ".join(str(v) for row in rows[::8] for v in row)
    total += sum(Fraction(token) for token in text.split())
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(SETUP_REPEATS):
        reference_seconds()
