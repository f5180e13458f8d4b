"""The commands each benchmark instance goes through, timed and checked.

Import this module only after run.py has put the checkout's ``src/`` on the
path: it imports qspath.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import random
import sys
import time
import traceback
from pathlib import Path
from types import ModuleType

import checks
from qspath.fileio import emit_instance
from qspath.generate import filled_instance
from qspath.graphs import enumerate_st_paths, make_grid
from qspath.grid import linearize_grid, pseudo_linearize, reduce_cost_vector, shrink_target
from qspath.model import InteractionMatrix, QsppInstance, validate_instance
from qspath.pathmatrix import build_path_matrix, lp_oracle
from reference import reference_seconds
from spans import Tracer, Untraced, traced_cli
from workloads import MIN_ROUNDS, NN, W, Item, Workload, rounds

CORNER = 5  # side of the top-left sub-grid that grid workloads brute-force


def corner(inst: QsppInstance, q: int) -> QsppInstance:
    """The instance on its top-left CORNER-by-CORNER sub-grid."""
    g = make_grid(CORNER, CORNER)
    arc_id = {(arc.head, arc.tail): a for a, arc in enumerate(inst.graph.arcs)}

    def outer(v: int) -> int:
        i, j = divmod(v, CORNER)
        return i * q + j

    ids = [arc_id[(outer(arc.head), outer(arc.tail))] for arc in g.arcs]
    rows = inst.interaction.rows
    matrix = InteractionMatrix([[rows[e][f] for f in ids] for e in ids])
    linear = tuple(inst.linear[e] for e in ids)
    return QsppInstance(g, 0, CORNER * CORNER - 1, linear, matrix)


class Runner:
    """Runs instances through the CLI in-process and keeps every record."""

    def __init__(self, cli: ModuleType, work: Path):
        self.cli = cli
        self.work = work
        self.tracer = Tracer()
        self.ops: list[dict] = []
        self.instances: list[dict] = []
        self.checks: list[dict] = []
        self.warmup_ok = True
        self.own_seconds = 0.0  # the benchmark's own work inside the timed loop

    @contextlib.contextmanager
    def own_work(self):
        """Count the enclosed work as the benchmark's, not the commands'."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.own_seconds += time.perf_counter() - start

    def command(self, tracer, iid: str, label: str, argv: list[str], expect: set[int]):
        """One timed CLI call; returns its stdout, or None if it failed."""
        with self.own_work():
            gc.collect()
            reference = reference_seconds()
        buf = io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.call(f"cli.{argv[0]}", self.cli.main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
        with self.own_work():
            reference_after = reference_seconds()
        stdout = buf.getvalue()
        failed = code not in expect
        self.ops.append({
            "instance": iid,
            "op": label,
            "traced": tracer is self.tracer,
            "seconds": seconds,
            "reference_seconds": [reference, reference_after],
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "failed": failed,
        })
        if failed:
            print(f"perfbench: {iid} {label} exited {code}, expected {sorted(expect)}",
                  file=sys.stderr)
            return None
        return stdout

    def check(self, iid: str, label: str, stdout: str | None, verify) -> None:
        ok = False
        if stdout is not None:
            try:
                ok = bool(verify(stdout))
            except Exception:
                traceback.print_exc()
        if not ok:
            print(f"perfbench: {iid} {label}: output failed its check", file=sys.stderr)
        self.checks.append({"instance": iid, "op": label, "ok": ok})

    def replay(self, inst: QsppInstance, q: int, exact: QsppInstance) -> None:
        """Traced rounds only: layer calls that no command makes on its own,
        timed one public function at a time."""
        call = self.tracer.call
        call("model.validate", validate_instance, inst)
        pseudo = call("grid.pseudo", pseudo_linearize, inst)
        call("grid.shrink", shrink_target, pseudo, inst, inst.target - q)
        call("grid.reduce", reduce_cost_vector, inst.graph, pseudo)
        call("graphs.enumerate", enumerate_st_paths, exact.graph, exact.source, exact.target)

    def instance(self, iid: str, item: Item, seed: int, traced: bool) -> None:
        """Runs one instance's commands, then checks their output.

        The benchmark builds its own copy of the instance only after the
        generate and linearize commands, so that the peak memory of those
        commands is qspath's alone.
        """
        tracer = self.tracer if traced else Untraced()
        self.tracer.instance = iid
        p, q = item.p, item.q
        file = self.work / f"{iid}.qspp"
        argv = ["generate", "grid", str(p), str(q), "--fill", item.fill,
                "--seed", str(seed), "--output", str(file)]
        if self.command(tracer, iid, "generate", argv, {0}) is None:
            return
        if item.kind == "grid":
            label = "linearize:grid"
            out = self.command(tracer, iid, label, ["linearize", str(file), "--mode", "grid"],
                               {0} if item.fill == W else {3})
        elif item.kind == "oracle":
            outs = {
                mode: self.command(tracer, iid, f"linearize:{mode}",
                                   ["linearize", str(file), "--mode", mode], {0, 3})
                for mode in item.modes
            }
        else:
            solved = self.command(tracer, iid, "solve:brute",
                                  ["solve", str(file), "--method", "brute"], {0})

        with self.own_work():
            inst = filled_instance(make_grid(p, q), 0, p * q - 1, item.fill, seed)
            record = {"id": iid, "traced": traced, "family": "grid", "kind": item.kind,
                      "p": p, "q": q, "fill": item.fill, "seed": seed,
                      "file_bytes": file.stat().st_size, "paths": math.comb(p + q - 2, p - 1)}
            self.instances.append(record)
            if item.kind == "grid":
                small = corner(inst, q)
                small_file = self.work / f"{iid}.corner.qspp"
                small_file.write_text(emit_instance(small), encoding="utf-8")
        if item.kind == "grid":
            solved = self.command(tracer, iid, "solve:brute",
                                  ["solve", str(small_file), "--method", "brute"], {0})

        with self.own_work():
            if item.kind == "grid":
                if out is not None:
                    notes = [line[5:] for line in out.split("\n") if line.startswith("note ")]
                    record["grid_note"] = notes[0] if notes else ""
                if traced:
                    self.replay(inst, q, small)
                    pm = tracer.call("pathmatrix.build", build_path_matrix, small)
                    tracer.call("pathmatrix.oracle_eq", lp_oracle, pm, require_nonneg=False)
                    tracer.call("pathmatrix.oracle_nonneg", lp_oracle, pm, require_nonneg=True)
                verify = checks.grid_yes if item.fill == W else checks.grid_no
                self.check(iid, label, out, lambda text: verify(text, inst))
                decision = linearize_grid(small)
                self.check(iid, "solve:brute", solved,
                           lambda text: checks.brute(text, small, decision.vector))
            elif item.kind == "oracle":
                if traced:
                    self.replay(inst, q, inst)
                decision = tracer.call("grid.decide", linearize_grid, inst)
                record["grid_note"] = decision.note
                paths = checks.st_paths(inst)
                costs = [checks.arcs_cost(inst, path) for path in paths]
                for mode, out in outs.items():
                    self.check(iid, f"linearize:{mode}", out,
                               lambda text, mode=mode: checks.oracle(
                                   text, inst, paths, costs, mode == NN, decision.linearizable))
            else:
                if traced:
                    self.replay(inst, q, inst)
                decision = linearize_grid(inst)
                self.check(iid, "solve:brute", solved,
                           lambda text: checks.brute(text, inst, decision.vector))
            for path in self.work.iterdir():
                path.unlink()

    def warm_up(self, name: str, workload: Workload, seed: int) -> None:
        rng = random.Random(f"{name}/{seed}/warm-up")
        for k, item in enumerate(workload.warmup):
            self.instance(f"warm-up.{k}", item, rng.getrandbits(32), False)
        self.warmup_ok = not any(op["failed"] for op in self.ops) and all(
            c["ok"] for c in self.checks)
        self.ops.clear()
        self.instances.clear()
        self.checks.clear()

    def run(self, name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            probe, probes: int):
        """Whole rounds until ``seconds`` have passed and enough rounds are
        done; with ``trace``, odd rounds are traced.  ``probe()`` runs
        ``probes`` times, spread over the first MIN_ROUNDS rounds, and counts
        as own work.  Returns the number of rounds, the seconds they took and
        the probes' results."""
        self.own_seconds = 0.0
        spread = MIN_ROUNDS * len(workload.items)
        results = []
        start = time.perf_counter()
        done = 0
        count = 0
        for batch in rounds(name, workload, seed):
            traced = trace and done % 2 == 1
            with traced_cli(self.tracer, self.cli) if traced else contextlib.nullcontext():
                for iid, item, instance_seed in batch:
                    self.instance(iid, item, instance_seed, traced)
                    count += 1
                    while len(results) < min(probes, count * probes // spread):
                        with self.own_work():
                            results.append(probe())
            done += 1
            enough = done >= (2 if trace else MIN_ROUNDS) and len(results) == probes
            elapsed = time.perf_counter() - start
            if enough and elapsed >= seconds:
                return done, elapsed, results
