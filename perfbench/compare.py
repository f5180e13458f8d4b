"""Spread across seeds, drift between two sets of runs, and stdout digests.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of results files written by run.py (copy
``.bench_out/`` aside after each set).  For every workload and end-to-end
metric this prints the median over the set's seeds and the distance between
the first and third quartile as a share of the median, and flags a spread
above a third of the metric's bound in BENCHMARK.json (setup_s excepted).
With two sets it also prints how far the second median moved, flags a move
in the worse direction beyond the bound, and checks that every (workload,
seed) run in both sets printed the same first-round stdout and exit codes.
Exits 1 if anything is flagged.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, int, int], dict]:
    results = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        results[(result["workload"], result["seed"], result["trace"])] = result
    return results


def summary(results: dict, workload: str, metric: str) -> tuple[int, float, float]:
    values = [r["metrics"][metric]["value"] for (w, _, trace), r in results.items()
              if w == workload and trace == 0]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), median, (q3 - q1) / median


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sets = [load(directory) for directory in argv]
    flagged = False
    for workload in sorted({w for results in sets for w, _, t in results if t == 0}):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for results in sets:
                n, median, spread = summary(results, workload, name)
                wide = spread > bound / 3
                flagged |= wide
                medians.append(median)
                cells.append(f"n={n} median={median:.6g} spread={spread:.2%}{' WIDE' if wide else ''}")
            if len(medians) == 2:
                moved = medians[1] / medians[0] - 1
                worse = -moved if metric["better"] == "higher" else moved
                flagged |= worse > bound
                cells.append(f"moved={moved:+.2%}{' WORSE' if worse > bound else ''}")
            print(f"{name:18} bound {bound:.0%}  " + "  ".join(cells))
    digests: dict[tuple[str, int], list[str]] = {}
    for results in sets:
        for (workload, seed, _), result in results.items():
            digests.setdefault((workload, seed), []).append(result["first_round_digest"])
    differing = sorted(key for key, found in digests.items() if len(set(found)) > 1)
    compared = sum(1 for found in digests.values() if len(found) > 1)
    print(f"first-round stdout digests: {compared} (workload, seed) pairs, "
          f"{len(differing)} differ {differing if differing else ''}")
    return int(flagged or bool(differing))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
