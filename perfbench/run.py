"""qspath benchmark: time from generated instance file to checked verdict.

Run from the root of a checkout (Python 3.10+, standard library only):

    python3 perfbench/run.py --workload grid-yes --seed 1 --seconds 20 --trace 0

The benchmark imports qspath from ``src/`` of the same checkout and calls
``qspath.cli.main`` in-process, one command at a time: one client in a
closed loop, one thread.  It generates seeded grid instances with ``qspath
generate``, times every ``generate``, ``linearize`` and ``solve`` command,
checks each output independently (checks.py) and prints every metric by
name and unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; each command's time
is scaled by how fast a fixed reference computation ran around it, and
set-up time by how fast an interpreter started and ran that computation
(see end_to_end).  With ``--trace 1`` rounds alternate between untraced and
traced ones.  A traced round records spans around the calls into each layer
and times the layer functions that no command calls by itself; the metrics
are the per-layer ones, and the difference between the traced and untraced
verdict medians is the tracing overhead.

Instance files, one results file per run and the spans of traced runs go
to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MIN_ROUNDS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8  # spread over the timed loop
REFERENCE_START = [sys.executable, str(Path(__file__).resolve().parent / "reference.py")]
REFERENCE_START_S = 0.19  # reference_start() on a quiet 2.0 GHz Xeon vCPU
REFERENCE_S = 0.004  # median of reference_seconds() on a quiet 2.0 GHz Xeon vCPU

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_s.p50": "s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "solve_s.p50": "s",
    "roundtrips_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verdicts_ok": "ratio",
}

# Per-layer timings: metric -> span name.  The value is the median over
# traced instances of the summed durations of that span in one instance.
LAYER_SECONDS = {
    "generate.fill_s": "generate.fill",
    "fileio.emit_s": "fileio.emit",
    "fileio.parse_s": "fileio.parse",
    "model.validate_s": "model.validate",
    "grid.decide_s": "grid.decide",
    "grid.pseudo_s": "grid.pseudo",
    "grid.shrink_s": "grid.shrink",
    "grid.reduce_s": "grid.reduce",
    "graphs.enumerate_s": "graphs.enumerate",
    "pathmatrix.build_s": "pathmatrix.build",
    "pathmatrix.oracle_eq_s": "pathmatrix.oracle_eq",
    "pathmatrix.oracle_nonneg_s": "pathmatrix.oracle_nonneg",
    "model.brute_s": "model.brute",
}


def import_cli():
    """qspath.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qspath.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qspath from {src}: {exc}")
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"perfbench: qspath was imported from {cli.__file__}, not from {src}")
    return cli


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def reference_start() -> float:
    """Seconds to start an interpreter that runs reference.py: set-up with
    qspath's imports and warm-up replaced by fixed work."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_START, check=True)
    return time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> dict:
    """Start a fresh interpreter that imports qspath, runs the workload's
    warm-up and prints 'ready'.  Returns the seconds from start to 'ready'
    and the mean of two reference starts timed around it."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--probe"]
    before = reference_start()
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited {child.returncode}")
    return {"seconds": seconds, "reference_start_seconds": (before + reference_start()) / 2}


def quantile(values: list[float], fraction: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def subgrids(p: int, q: int, note: str) -> tuple[int, int]:
    """Sub-grids the grid decision checked, and how many it checks in all.

    linearize_grid checks sub-grid (r-1, j) for r = p..3 and j = 1..q-1,
    then the two-row base case, and stops at the first disagreement, which
    its note names.
    """
    total = (p - 2) * (q - 1) + 1
    if "sub-target (" not in note:
        return total, total
    rows, cols = (int(v) for v in note.split("sub-target (")[1].rstrip(")").split(","))
    return (p - rows - 1) * (q - 1) + cols, total


def end_to_end(runner, workload: Workload, elapsed: float, setup: list[dict]) -> tuple[dict, dict]:
    ops = runner.ops
    # The host is shared, and its speed drifts by tens of percent within
    # seconds.  Reference work that does not use qspath is timed right
    # before and after every command and slows down with the host, so each
    # command's seconds are divided by its slowdown: the mean of those two
    # reference times over REFERENCE_S.  The loop time behind
    # roundtrips_per_s is scaled by the commands' time-weighted slowdown.
    # Set-up time is interpreter start, imports and the warm-up, which
    # together slow down less than the arithmetic does, so each set-up probe
    # is scaled by two runs of reference.py as a script timed around it
    # instead.  Unscaled figures go to the results file.
    scale = {id(op): REFERENCE_S / statistics.mean(op["reference_seconds"]) for op in ops}
    # The highest percentile that leaves ten verdicts above it in the
    # shortest run (MIN_ROUNDS whole rounds), and at least the median.  It
    # is fixed per workload, so a run that fits more rounds reports the same
    # percentile.
    least = MIN_ROUNDS * workload.verdicts_per_round
    tail = max(0.5, (least - 11) / (least - 1))
    # Round trips per second of the timed loop, leaving out the loop's own
    # work: checks, building the check instances, reference timings and
    # set-up probes.
    loop_s = elapsed - runner.own_seconds

    def timings(scaled: bool) -> dict[str, float]:
        def seconds(prefix: str) -> list[float]:
            return [op["seconds"] * (scale[id(op)] if scaled else 1)
                    for op in ops if op["op"].startswith(prefix)]

        verdicts = seconds("linearize")
        return {
            "generate_s.p50": statistics.median(seconds("generate")),
            "verdict_s.p50": statistics.median(verdicts),
            "verdict_s.tail": quantile(verdicts, tail),
            "solve_s.p50": statistics.median(seconds("solve")),
            "roundtrips_per_s": len(runner.instances) / (
                loop_s * sum(seconds("")) / sum(op["seconds"] for op in ops)),
        }

    oks = [c["ok"] for c in runner.checks]
    metrics = {
        "setup_s": statistics.median(
            probe["seconds"] * REFERENCE_START_S / probe["reference_start_seconds"]
            for probe in setup),
        **timings(True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts_ok": sum(oks) / len(oks),
    }
    detail = {
        "host slowdown (median reference / REFERENCE_S)":
            statistics.median(r for op in ops for r in op["reference_seconds"]) / REFERENCE_S,
        "unscaled": {"setup_s": statistics.median(probe["seconds"] for probe in setup),
                     **timings(False)},
        "verdict_s.tail percentile": round(100 * tail, 2),
        "verdict samples": sum(1 for op in ops if op["op"].startswith("linearize")),
        "timed loop s without own work": loop_s,
        "setup probes": setup,
    }
    return metrics, detail


def per_layer(runner, spans: list[dict], workload: str) -> tuple[dict, dict]:
    from spans import layer_table, per_instance

    by_instance = per_instance(spans)

    def median(name: str, value) -> float:
        return statistics.median(value(e[name]) for e in by_instance.values() if name in e)

    metrics = {key: (median(name, lambda e: e["s"]), "s") for key, name in LAYER_SECONDS.items()}
    metrics["fileio.file_bytes"] = (median("fileio.emit", lambda e: e["bytes"]), "count")
    metrics["fileio.parse_mb_per_s"] = (
        median("fileio.parse", lambda e: e["bytes"] / e["s"] / 1e6), "MB/s")
    metrics["graphs.paths"] = (median("graphs.enumerate", lambda e: e["paths"]), "count")
    oracles = ("pathmatrix.oracle_eq", "pathmatrix.oracle_nonneg")
    metrics["pathmatrix.cert_nonzeros"] = (statistics.median(
        sum(e[name]["cert_nonzeros"] for name in oracles if name in e)
        for e in by_instance.values() if "pathmatrix.build" in e), "count")
    metrics["cli.other_s"] = (median("cli.linearize", lambda e: e["self"]), "s")
    counted = [subgrids(r["p"], r["q"], r["grid_note"])
               for r in runner.instances if r["traced"] and "grid_note" in r]
    metrics["grid.subgrids_checked"] = (statistics.median(c for c, _ in counted), "count")
    metrics["grid.subgrids_ratio"] = (statistics.median(c / t for c, t in counted), "ratio")

    def verdict_p50(traced: bool) -> float:
        return statistics.median(op["seconds"] for op in runner.ops
                                 if op["op"].startswith("linearize") and op["traced"] == traced)

    traced_p50, untraced_p50 = verdict_p50(True), verdict_p50(False)
    table = layer_table(spans)
    largest = table[0][0]  # most self time inside commands
    parse_validate = metrics["fileio.parse_s"][0] + metrics["model.validate_s"][0]
    # What each workload was built to stress, read off this run's trace.
    design = {
        "grid-yes": ("grid.decide_s over half of the traced verdict_s.p50",
                     metrics["grid.decide_s"][0] > traced_p50 / 2),
        "grid-no": ("fileio.parse_s + model.validate_s over grid.decide_s",
                    parse_validate > metrics["grid.decide_s"][0]),
        "oracle": ("pathmatrix has the most self time", largest == "pathmatrix"),
    }[workload]
    detail = {
        "verdict_s.p50 traced": traced_p50,
        "verdict_s.p50 untraced": untraced_p50,
        "tracing overhead s": traced_p50 - untraced_p50,
        "layers": table,
        "design check": design,
    }
    return metrics, detail


def report(result: dict, values: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} rev {result['git_rev'][:12]} "
          f"python {result['python']} cpus {result['cpu_count']}")
    print(f"{result['rounds']} rounds, {len(result['instances'])} instances, "
          f"{len(result['ops'])} commands in {result['timed_loop_s']:.1f} s; "
          f"first-round stdout digest {result['first_round_digest'][:16]}")
    for key, value in result["detail"].items():
        if key != "layers":
            print(f"{key}: {value}")
            continue
        print(f"{'layer':12} {'self s in commands':>19} {'share':>7} {'self s outside':>15}")
        for layer, seconds, share, outside in value:
            print(f"{layer:12} {seconds:19.4f} {share:7.1%} {outside:15.4f}")
    for name, (value, unit) in values.items():
        print(f"{name:28} {value:16.6f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up only, print 'ready' and exit (measures setup_s)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    cli = import_cli()
    from pipeline import Runner

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(cli, work)
        runner.warm_up(args.workload, workload, args.seed)
        if args.probe:
            print("ready", flush=True)
            return 0
        done, elapsed, setup = runner.run(
            args.workload, workload, args.seed, args.seconds, bool(args.trace),
            lambda: setup_probe(args.workload, args.seed), 0 if args.trace else SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = runner.tracer.spans
    if args.trace:
        values, detail = per_layer(runner, spans, args.workload)
    else:
        metrics, detail = end_to_end(runner, workload, elapsed, setup)
        values = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
    failed = sum(op["failed"] for op in runner.ops)
    correct = runner.warmup_ok and failed == 0 and all(c["ok"] for c in runner.checks)
    # Rounds are fixed by the seed, so the first one's exit codes and stdout
    # bytes must match between any two runs with the same seed.
    first_round = [[op["instance"], op["op"], op["exit"], op["stdout_sha256"]]
                   for op in runner.ops if op["instance"].startswith("0.")]
    result = {
        "workload": args.workload, "why": why(args.workload), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_rev": git_rev(),
        "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
        "rounds": done, "timed_loop_s": elapsed, "correct": correct,
        "first_round_digest": hashlib.sha256(json.dumps(first_round).encode()).hexdigest(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        "detail": detail, "instances": runner.instances, "ops": runner.ops,
        "checks": runner.checks,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    report(result, values)
    print(json.dumps({"correct": correct, "attempted": len(runner.ops), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
