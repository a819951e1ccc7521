"""Spans around the calls the CLI makes into each module, for the traced run.

`Tracer` keeps the spans of one CLI call in memory (name, start, end,
parent); `patched` swaps the program's module-level names for
wrappers that open a span per call, and restores them on exit.  The
wrappers live here, in the benchmark, so the program is unchanged.

Span names are the per-layer metric names without their `_s` suffix:

  core.bits                 one bit drawn from PrefixGenerator.bits()
  trajectory.rows           one row drawn from iter_trajectory (X* included)
  trajectory.derived        one TrajectoryRow property (the exact rationals)
  trajectory.classify       classify()
  report.format             write_trajectory_csv, trajectory_csv_line, format_rational
  report.json               charset_to_json_dict, xstar_to_json_dict, json.dump
  characteristics.char_set / .solve / .xstar_decompose
  cli.write                 one write to the --out file, and its close
  cli.main                  the whole call; its self time is parsing and dispatch
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = (
    "core.bits", "trajectory.rows", "trajectory.derived", "trajectory.classify",
    "report.format", "report.json", "characteristics.char_set",
    "characteristics.solve", "characteristics.xstar_decompose", "cli.write", "cli.main",
)
COUNTS = ("trajectory.xstar_terms", "trajectory.n0_lifts")

# Names the CLI module calls, and the span each call opens.
CLI_CALLS = {
    "classify": "trajectory.classify",
    "write_trajectory_csv": "report.format",
    "format_rational": "report.format",
    "charset_to_json_dict": "report.json",
    "xstar_to_json_dict": "report.json",
    "char_set": "characteristics.char_set",
    "nth_realizer": "characteristics.solve",
    "xstar_decompose": "characteristics.xstar_decompose",
}


class Tracer:
    """In-memory spans and counts of the current call.

    Spans are kept as parallel lists (name, start_ns, end_ns, parent index,
    -1 for the root), so recording one allocates no object the garbage
    collector tracks.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def iterate(self, name: str, it, on_item=None):
        """Yield from `it`, one span per item drawn."""
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            if on_item is not None:
                on_item(item)
            yield item

    def self_times(self) -> dict[str, int]:
        """Nanoseconds per span name, each span less the time its children cover."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                covered[parent] += duration
        out = dict.fromkeys(LAYERS, 0)
        for name, duration, child in zip(self.names, durations, covered):
            out[name] = out.get(name, 0) + duration - child
        return out

    def record(self) -> dict:
        """The current call's spans, times relative to its first span."""
        t0 = self.starts[0] if self.starts else 0
        return {"name": self.names, "start_ns": [t - t0 for t in self.starts],
                "end_ns": [t - t0 for t in self.ends], "parent": self.parents}


class _TracedSource:
    """A bit source whose bits() iterator opens a core.bits span per bit."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def bits(self):
        return self._tracer.iterate("core.bits", self._gen.bits())

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _TracedFile:
    """The --out file, with a cli.write span per write and for the close."""

    def __init__(self, f, tracer: Tracer):
        self._f = f
        self._tracer = tracer

    def write(self, s):
        idx = self._tracer.begin("cli.write")
        try:
            return self._f.write(s)
        finally:
            self._tracer.end(idx)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        idx = self._tracer.begin("cli.write")
        try:
            return self._f.__exit__(*exc)
        finally:
            self._tracer.end(idx)


class _TracedJson:
    """The json module as the CLI sees it, with json.dump traced."""

    def __init__(self, tracer: Tracer):
        self.dump = tracer.wrap("report.json", json.dump)

    def __getattr__(self, name):
        return getattr(json, name)


def _rows_wrapper(tracer: Tracer, iter_trajectory):
    def traced_rows(gen, horizon):
        prev = None

        def count(row):
            nonlocal prev
            tracer.counts["trajectory.xstar_terms"] += row.m
            if prev is not None and row.N0 != prev:
                tracer.counts["trajectory.n0_lifts"] += 1
            prev = row.N0

        return tracer.iterate("trajectory.rows", iter_trajectory(gen, horizon), count)
    return traced_rows


@contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers in the program's modules; yield the names not found.

    A name the program no longer has is left alone and reported, so a later
    change to the program loses that layer's spans but not the run.
    """
    cli = importlib.import_module("collatz_parity.cli")
    trajectory = importlib.import_module("collatz_parity.trajectory")
    report = importlib.import_module("collatz_parity.report")
    swaps = []
    missing = []

    def swap(obj, attr, make):
        if not hasattr(obj, attr):
            missing.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return
        original = getattr(obj, attr)
        swaps.append((obj, attr, original))
        setattr(obj, attr, make(original))

    for attr, span in CLI_CALLS.items():
        swap(cli, attr, lambda fn, span=span: tracer.wrap(span, fn))
    swap(cli, "parse_generator",
         lambda fn: lambda spec: _TracedSource(fn(spec), tracer))
    swap(cli, "iter_trajectory", lambda fn: _rows_wrapper(tracer, fn))
    swap(trajectory, "iter_trajectory", lambda fn: _rows_wrapper(tracer, fn))
    swap(report, "trajectory_csv_line", lambda fn: tracer.wrap("report.format", fn))
    swap(cli, "json", lambda mod: _TracedJson(tracer))
    swap(cli, "_open_out", lambda fn: lambda args: _TracedFile(fn(args), tracer))
    row_type = getattr(trajectory, "TrajectoryRow", None)
    if row_type is None:
        missing.append("collatz_parity.trajectory.TrajectoryRow")
    else:
        for name, prop in list(vars(row_type).items()):
            if isinstance(prop, property) and name != "n":
                swap(row_type, name,
                     lambda p: property(tracer.wrap("trajectory.derived", p.fget)))
    try:
        yield missing
    finally:
        for obj, attr, original in reversed(swaps):
            setattr(obj, attr, original)


def write_trace(path, calls: list[dict]) -> None:
    """Write one JSON line per call: its index and its spans as parallel arrays."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, spans in enumerate(calls):
            fh.write(json.dumps({"call": i, **spans}, separators=(",", ":")) + "\n")
