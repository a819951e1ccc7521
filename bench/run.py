"""Benchmark of the collatz-parity CLI, one workload per run.

    python3 bench/run.py --workload trajectory-int --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  The run calls `collatz_parity.cli.main(argv)` in this process,
with `--out` to a file under `.bench_out/`, in whole rounds of the
workload's calls until `--seconds` have passed.  Each call's time is taken
with `perf_counter`; per call the fastest time over the rounds is kept,
which drops the short stalls a shared machine adds.  Outputs are checked
after the timed rounds: every call's output must be byte-identical to the
first output of its input, and that output must pass the workload's check.

--trace 0 reports the end-to-end metrics: setup_s (the median of fresh
interpreter starts made between rounds), call_s, bits_per_s and
peak_rss_mb.  --trace 1 alternates untraced rounds with rounds that
record spans around the calls into each module (see spans.py), and
reports the per-layer self times, counts and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import collatz_parity.cli; print('ready', flush=True)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import collatz_parity.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "collatz_parity" / "cli.py").is_file():
        fail(f"no program source at {SRC / 'collatz_parity'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import collatz_parity.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "collatz_parity":
        fail(f"collatz_parity was imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to collatz_parity.cli imported."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        fail("a fresh interpreter could not import collatz_parity.cli")
    return elapsed


class Runner:
    """Makes the workload's CLI calls and keeps what the metrics need."""

    def __init__(self, cli, calls, out_dir: Path):
        self.cli = cli
        self.calls = calls
        self.paths = [out_dir / f"{i}.out" for i in range(len(calls))]
        self.argvs = [list(c.argv) + ["--out", str(p)] for c, p in zip(calls, self.paths)]
        self.digests: list[bytes | None] = [None] * len(calls)
        self.failed = [0] * len(calls)    # calls that exited non-zero, per input
        self.wrong = [""] * len(calls)    # why an input's output is wrong
        self.attempted = 0

    def call(self, i: int, tracer=None) -> float:
        """Make call i once; return its wall time in seconds."""
        argv = self.argvs[i]
        if tracer is not None:
            tracer.reset()
            root = tracer.begin("cli.main")
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call; the run goes on
            print(f"bench: {' '.join(argv[:2])[:60]} raised {exc!r}", file=sys.stderr)
            rc = None
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
        self.attempted += 1
        if rc != 0:
            self.failed[i] += 1
            return elapsed
        digest = hashlib.blake2b(self.paths[i].read_bytes()).digest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif digest != self.digests[i]:
            self.wrong[i] = "output differs from the first output of this input"
        return elapsed

    def rounds(self, seconds: float, on_call=None, tracer=None, after_round=None) -> list[float]:
        """Whole rounds until `seconds` have passed; the fastest time per input."""
        best = [float("inf")] * len(self.calls)
        stop = perf_counter() + seconds
        while True:
            gc.collect()
            for i in range(len(self.calls)):
                elapsed = self.call(i, tracer)
                if on_call is not None:
                    on_call(i, elapsed)
                best[i] = min(best[i], elapsed)
            if after_round is not None:
                after_round()
            if perf_counter() >= stop:
                return best

    def check(self) -> tuple[bool, int]:
        """Check each input's output; return (outputs correct, failed calls).

        Every call of an input whose output is wrong counts as failed.
        """
        calls_per_input = self.attempted // len(self.calls)
        for i, (call, path) in enumerate(zip(self.calls, self.paths)):
            if not self.wrong[i] and self.digests[i] is not None:
                self.wrong[i] = call.check(path.read_text(encoding="utf-8"))
            if self.wrong[i]:
                print(f"bench: {' '.join(call.argv[:2])[:60]}: {self.wrong[i]}", file=sys.stderr)
                self.failed[i] = calls_per_input
        return not any(self.wrong), sum(self.failed)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> dict:
    # Interpreter starts are spread over the run, between rounds, so that
    # setup_s sees the machine as the calls do; the first start, which
    # writes the bytecode cache, is not counted.
    measure_setup()
    setup = []
    start = perf_counter()

    def sample_setup():
        if len(setup) < SETUP_SAMPLES * (perf_counter() - start) / seconds:
            setup.append(measure_setup())

    best = runner.rounds(seconds, after_round=sample_setup)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    bits = sum(c.bits for c in runner.calls)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "call_s": metric(sum(best) / len(best), "s"),
        "bits_per_s": metric(bits / sum(best), "bit/s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict:
    # Untraced and traced rounds alternate, so both see the machine alike
    # and their difference is the tracing overhead.
    tracer = spans.Tracer()
    fastest = [(float("inf"), None, None, None)] * len(runner.calls)

    def keep_fastest(i, elapsed):
        if elapsed < fastest[i][0]:
            fastest[i] = (elapsed, tracer.self_times(), dict(tracer.counts), tracer.record())

    untraced = traced = [float("inf")] * len(runner.calls)
    stop = perf_counter() + seconds
    while True:
        untraced = list(map(min, untraced, runner.rounds(0)))
        with spans.patched(tracer) as missing:
            traced = list(map(min, traced, runner.rounds(0, keep_fastest, tracer)))
        if perf_counter() >= stop:
            break
    if missing:
        print(f"bench: no spans for {', '.join(missing)}", file=sys.stderr)
    spans.write_trace(trace_path, [f[3] for f in fastest])

    k = len(runner.calls)
    out = {}
    for layer in spans.LAYERS:
        name = "cli.other_s" if layer == "cli.main" else f"{layer}_s"
        out[name] = metric(sum(f[1][layer] for f in fastest) / k / 1e9, "s")
    for count in spans.COUNTS:
        out[count] = metric(sum(f[2][count] for f in fastest) / k, "count")
    csv_bytes = [p.stat().st_size for c, p in zip(runner.calls, runner.paths)
                 if c.argv[0] == "trajectory"]
    out["report.csv_bytes"] = metric(sum(csv_bytes) / k, "B")
    out["trajectory.classify_peak_kib"] = metric(classify_peak_kib(runner), "KiB")
    base, with_spans = sum(untraced) / k, sum(traced) / k
    out["trace.untraced_call_s"] = metric(base, "s")
    out["trace.traced_call_s"] = metric(with_spans, "s")
    out["trace.overhead_pct"] = metric(100 * (with_spans - base) / base, "%")
    return out


def classify_peak_kib(runner: Runner) -> float:
    """Largest tracemalloc peak of classify() alone over the round's classify calls."""
    from collatz_parity.core import parse_generator
    from collatz_parity.trajectory import classify

    peak = 0
    for call in runner.calls:
        if call.argv[0] != "classify":
            continue
        args = runner.cli.build_parser().parse_args(list(call.argv))
        gen = parse_generator(args.spec)
        tracemalloc.start()
        try:
            classify(gen, args.horizon, args.window)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    calls = workloads.make_calls(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = OUT_DIR / f"run-{os.getpid()}"
    out_dir.mkdir()
    try:
        runner = Runner(cli, calls, out_dir)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(runner, args.seconds, trace_path)
        else:
            metrics = end_to_end(runner, args.seconds)
        correct, failed = runner.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
