#!/usr/bin/env python3
"""Benchmark for fmwb.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from its
`src` directory and driven in this one process through `fmwb.cli.main`, one
closed-loop client with `--jobs 1`.  Every reported time is reference-scaled
(see `Clock`).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from layers import traced_run  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

# The reference loop and its time on the reference host (R0).  A run's times
# are multiplied by R0 / R, where R is this process's mean loop time around
# and during the timed work, so they read as seconds on a host running at
# the reference speed.
REF_ITERS = 2000
REF_SECONDS = 0.0005
SAMPLE_EVERY_S = 0.025
BRACKET = 4
SETUP_REPEATS = 7
MEMORY_ROUNDS = 2
OUT_DIR = ROOT / ".perfbench_out"


def reference_loop() -> int:
    """Fixed interpreter work on ints and strings only: no fmwb code, and no
    object the cyclic garbage collector tracks."""
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + len(str(i))) % 1000003
    return acc


class Clock:
    """Times work and scales it by the host's momentary speed.

    The reference loop runs BRACKET times right before and right after the
    work, and once every SAMPLE_EVERY_S seconds during it from a SIGALRM
    handler.  Sampling during the work matters: the speed of this host
    drifts within a single two-second sweep, which loops taken only at the
    edges miss.  The handler's own time is subtracted from the raw time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.lengths.append(t1 - t0)

    def _tick(self, signum, frame) -> None:
        self._sample()

    def measure(self, fn, sample: bool = True):
        """Run fn(); return (its result, raw seconds, scaled seconds)."""
        self.starts.clear()
        self.lengths.clear()
        for _ in range(BRACKET):
            self._sample()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(length for start, length in zip(self.starts, self.lengths)
                     if t0 <= start < t1)
        for _ in range(BRACKET):
            self._sample()
        raw = t1 - t0 - inside
        return result, raw, raw * REF_SECONDS / statistics.fmean(self.lengths)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = time.perf_counter()

    def self_times(self) -> list[dict]:
        """Each span's duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "self": end - start - child[i]}
                for i, (name, start, end, parent) in enumerate(self.spans)]


def import_fmwb():
    """A fresh import of the program from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "fmwb" or m.startswith("fmwb.")]:
        del sys.modules[name]
    names = ("core", "aristotelian", "logic", "semantics", "machines", "cfg",
             "charsets", "forms", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"fmwb.{n}") for n in names})


def run_cli(fmwb, argv):
    """`fmwb <argv>` in this process: (exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fmwb.cli.main(argv)
        except Exception as caught:  # a crash is an answer the checks judge
            exc = caught
    return rc, out.getvalue(), exc


class Bench:
    def __init__(self, args):
        self.args = args
        self.clock = Clock()
        self.tracer = Tracer()
        self.workdir = OUT_DIR / f"{args.workload}-{args.seed}-in"
        self.correct = True
        self.attempted = self.failed = 0
        self.op_scaled: list[float] = []
        self.op_raw: list[float] = []
        self.structures = 0

    def cli(self, argv):
        return run_cli(self.fmwb, argv)

    def _setup_once(self):
        fmwb = import_fmwb()
        w = WORKLOADS[self.args.workload](fmwb, self.args.seed, self.workdir)
        w.setup()
        two = w.write("two.struct", "vocab E:2\nn = 2\nE = (0,1)")
        if run_cli(fmwb, ["enc", two])[:2] != (0, "0100\n"):
            raise Mismatch("warm-up: fmwb enc gave a wrong encoding")
        return fmwb, w

    def setup(self):
        """Import and input set-up, repeated; returns median scaled seconds."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            (self.fmwb, self.workload), r, s = self.clock.measure(self._setup_once)
            raw.append(r)
            scaled.append(s)
        self.setup_raw = statistics.median(raw)
        return statistics.median(scaled)

    def run_op(self, op, traced: bool = False):
        """Time one operation's calls, then check every answer."""
        def span(name):
            return self.tracer.span(name) if traced else contextlib.nullcontext()

        def calls():
            for call in op.calls:
                with span("cli." + call.argv[0]):
                    call.rc, call.out, call.exc = self.cli(call.argv)

        # Each operation starts as a separate `fmwb` process would: with the
        # program's memo caches empty, and with what earlier operations left
        # alive out of the collector's reach.  Otherwise the caches and the
        # heap grow by about 20,000 objects per forms operation, full
        # collections slow every later operation, and a run's timings
        # depend on its length.  Unfreezing afterwards lets the next
        # collection reclaim whatever became garbage.
        for module in vars(self.fmwb).values():
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        gc.collect()
        gc.freeze()
        try:
            with span("op." + op.kind):
                _, raw, scaled = self.clock.measure(calls, sample=op.timed)
        finally:
            gc.unfreeze()
        self.attempted += 1
        failed = False
        try:
            for call in op.calls:
                failed |= call.check(call.rc, call.out, call.exc) == "failed"
            for check in op.extra_checks:
                check()
        except Mismatch as exc:
            self.correct = False
            print(f"MISMATCH in {op.kind}: {exc}", file=sys.stderr)
        self.failed += failed
        if op.timed and not failed:
            self.op_raw.append(raw)
            self.op_scaled.append(scaled)
            self.structures += sum(call.structures for call in op.calls)
        return scaled

    def loop(self):
        """Whole rounds of operations until the run's seconds are used up.

        Peak memory is read after the first MEMORY_ROUNDS rounds: the
        program's caches grow with every operation, so a peak taken at the
        end would follow how many operations the host's speed allowed.
        """
        deadline = time.perf_counter() + self.args.seconds
        r = 0
        while r < MEMORY_ROUNDS or time.perf_counter() < deadline:
            for op in self.workload.round(r):
                self.run_op(op)
            r += 1
            if r == MEMORY_ROUNDS:
                self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(bench: Bench, setup_s: float) -> dict:
    metrics = {
        "op_ms": (statistics.median(bench.op_scaled) * 1000, "ms"),
        "structures_per_s": (bench.structures / sum(bench.op_scaled), "1/s"),
        "peak_rss_mb": (bench.peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {
        "op_ms": statistics.median(bench.op_raw) * 1000,
        "structures_per_s": bench.structures / sum(bench.op_raw),
        "setup_s": bench.setup_raw,
    }
    print(f"{bench.args.workload}: {len(bench.op_scaled)} timed operations, ms scaled (raw):")
    print("  " + " ".join(f"{s * 1000:.0f}({r * 1000:.0f})"
                          for s, r in zip(bench.op_scaled, bench.op_raw)))
    for name, (value, unit) in metrics.items():
        line = f"  {name:18s} {value:12.4f} {unit}"
        if name in raw:
            line += f"   (raw {raw[name]:.4f} {unit})"
        print(line)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fmwb" / "__init__.py").is_file():
        print(f"perfbench: no fmwb source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    oracle.self_check()

    bench = Bench(args)
    try:
        setup_s = bench.setup()
        if args.trace:
            metrics = traced_run(bench)
        else:
            bench.loop()
            metrics = end_to_end(bench, setup_s)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    print(f"  attempted {bench.attempted}, failed {bench.failed}, correct {bench.correct}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
