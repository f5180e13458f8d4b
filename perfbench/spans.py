"""Spans around calls into qspath's layers, kept in memory, and self time.

A span records a name ``<module>.<call>``, start, end, the span that was
open when it began, and the instance being processed.  Counts measured at
the same boundary (bytes parsed, paths enumerated, certificate nonzeros)
ride on the span.  A layer's self time is its spans' duration minus the
time their child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType


def _cert_nonzeros(result) -> dict:
    coefficients = getattr(result.witness, "coefficients", ())
    return {"cert_nonzeros": sum(1 for v in coefficients if v)}


# Counts taken from a call's arguments or result, keyed by span name.
COUNTS = {
    "fileio.parse": lambda args, result: {"bytes": len(args[0])},
    "fileio.emit": lambda args, result: {"bytes": len(result)},
    "graphs.enumerate": lambda args, result: {"paths": len(result)},
    "pathmatrix.build": lambda args, result: {"paths": len(result.rows)},
    "pathmatrix.oracle_eq": lambda args, result: _cert_nonzeros(result),
    "pathmatrix.oracle_nonneg": lambda args, result: _cert_nonzeros(result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.instance: str | None = None
        self._open: list[dict] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "instance": self.instance,
        }
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        count = COUNTS.get(name)
        if count is not None:
            span.update(count(args, result))
        return result


class Untraced:
    """Same interface as Tracer, records nothing."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# Names the CLI module imported from the layers, and the span each call gets.
# lp_oracle is named by its sense, see _oracle_span.
CLI_CALLS = {
    "make_grid": "graphs.make_grid",
    "filled_instance": "generate.fill",
    "emit_instance": "fileio.emit",
    "parse_instance": "fileio.parse",
    "linearize_grid": "grid.decide",
    "build_path_matrix": "pathmatrix.build",
    "lp_oracle": None,
    "brute_force_solve": "model.brute",
}


def _oracle_span(args: tuple, kwargs: dict) -> str:
    nonneg = kwargs.get("require_nonneg", args[1] if len(args) > 1 else True)
    return "pathmatrix.oracle_nonneg" if nonneg else "pathmatrix.oracle_eq"


@contextmanager
def traced_cli(tracer: Tracer, cli: ModuleType):
    """Route the CLI module's calls into the layers through ``tracer``."""
    saved = {attr: getattr(cli, attr) for attr in CLI_CALLS}

    def wrap(attr: str, fn):
        def wrapper(*args, **kwargs):
            name = CLI_CALLS[attr] or _oracle_span(args, kwargs)
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    for attr, fn in saved.items():
        setattr(cli, attr, wrap(attr, fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def self_times(spans: list[dict]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def per_instance(spans: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    """instance -> span name -> summed duration ``s``, self time ``self``
    and counts, over every span of that name for the instance."""
    own = self_times(spans)
    out: dict[str, dict[str, dict[str, float]]] = defaultdict(dict)
    for span in spans:
        entry = out[span["instance"]].setdefault(span["name"], defaultdict(float))
        entry["s"] += span["end"] - span["start"]
        entry["self"] += own[span["id"]]
        for key in ("bytes", "paths", "cert_nonzeros"):
            entry[key] += span.get(key, 0)
    return out


def layer_table(spans: list[dict]) -> list[tuple[str, float, float, float]]:
    """Per layer, largest first: self seconds inside CLI commands, their
    share of all command time, and self seconds in calls the benchmark made
    itself (replays and checks) outside any command."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def root(span: dict) -> dict:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    in_commands: dict[str, float] = defaultdict(float)
    outside: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = span["name"].split(".")[0]
        in_command = root(span)["name"].startswith("cli.")
        (in_commands if in_command else outside)[layer] += own[span["id"]]
    command_total = sum(in_commands.values())
    rows = [
        (layer, in_commands[layer], in_commands[layer] / command_total, outside[layer])
        for layer in set(in_commands) | set(outside)
    ]
    return sorted(rows, key=lambda row: (-row[1], -row[3]))
