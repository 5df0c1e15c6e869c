"""Benchmark of the skewgentle command line, driven in process.

    python3 perfbench/run.py --workload relcycle|pathline|corpus --seed N \\
        --seconds S --trace 0|1

The package is imported from the checkout's ``src/`` and from nowhere else.
The seed's triples are built once, untimed.  A set-up imports the package,
draws the generator's triples (``corpus``), serializes every triple into an
input file under ``perfbench/_work/`` and checks ``parse(serialize(t)) == t``
for each; ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, made between
the timed passes.

The load is one client in a closed loop: ``skewgentle.cli.run(argv, out,
err)`` gets the next command only when the previous one has returned.  Whole
passes over the workload's command list run until ``--seconds`` have passed
and at least ``MIN_PASSES`` passes were made.  A command's latency is its
median over the passes; the end-to-end metrics are taken over those
latencies.  Every output is checked against the independent reference in
``reference.py``, and every repeat must be byte-identical to the first.

Timings are calibrated: a fixed amount of work (``calibration_ns``) is timed
between every two commands and around every set-up, and each measured time is
scaled by ``CAL_REF_MS`` over the calibration's time around it.  On a machine
where the calibration takes ``CAL_REF_MS`` they are plain milliseconds and
seconds; on a machine whose speed changes during a run, they do not follow
the change.
The plain figures are printed beside the calibrated ones.

With ``--trace 0`` nothing is traced.  With ``--trace 1`` untraced and traced
passes alternate; the per-layer metrics come from the traced passes (see
``spans.py``) and ``trace.overhead_ratio`` is the traced throughput over the
untraced one.  Human-readable lines come first; the last line of stdout is
the JSON result, also written to ``perfbench/_work/``.  The exit code is 1
when an output, a round trip or a repeated set-up is wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# The package's own standard-library imports, loaded before any timed import
# so that each set-up pays for the same work.
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import random  # noqa: F401
import re  # noqa: F401

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PACKAGE = "skewgentle"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    draw_corpus,
    make_commands,
    make_inputs,
    spec_of,
    to_triple,
)

SETUP_REPEATS = 15
MIN_PASSES = 3
CAL_REF_MS = 3.5  # the calibration's time at the reference speed

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "verdict_p50_ms": "ms",
    "invariants_p50_ms": "ms", "dim_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "decided_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "cli.busy_ms": "ms", "dsl.busy_ms": "ms", "dsl.kb": "KB",
    "validate.busy_ms": "ms", "validate.calls": "count", "validate.gentle_calls": "count",
    "validate.unique_ratio": "ratio", "validate.subsets": "count",
    "validate.admissible_ratio": "ratio",
    "construct.busy_ms": "ms", "construct.calls": "count", "construct.unique_ratio": "ratio",
    "cycles.busy_ms": "ms", "cycles.calls": "count",
    "quiver.busy_ms": "ms", "quiver.paths": "count", "quiver.fd_calls": "count",
    "algebra.busy_ms": "ms", "algebra.basis_size": "count", "algebra.oracle_busy_ms": "ms",
    "algebra.oracle_paths": "count", "algebra.oracle_rows": "count",
    "algebra.oracle_useful_ratio": "ratio",
    "reports.busy_ms": "ms", "generate.busy_ms": "ms", "generate.validations_per_triple": "count",
    "trace.overhead_ratio": "ratio",
}


class Unavailable(Exception):
    """The checkout does not hold the package's source."""


def import_package():
    """Import the package afresh from ``src/``, compiling it from source."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")  # the entry point, not loaded by the package
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise Unavailable(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


# A fixed module of small functions.  Compiling it runs the tokenizer, parser
# and code generator: C code that allocates many small objects and walks
# dicts, whose speed follows the machine's as the package's work does.
_CAL_SOURCE = "".join(
    f"def f{i}(x, y=({i}, 'a{i}')):\n"
    f"    z = [x * {i} + k for k in range(y[0])]\n"
    f"    return {{'k{i}': z, 'v': y}}\n"
    for i in range(20))


def calibration_ns() -> float:
    """Time a fixed amount of work to gauge the machine's current speed.

    The work is three compilations of ``_CAL_SOURCE``; the figure is three
    times their median, so one interruption does not count.  Compiling makes
    no reference cycles, so the collector is off meanwhile.
    """
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter_ns()
            compile(_CAL_SOURCE, "<calibration>", "exec")
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times) * 3
    finally:
        gc.enable()


def speed_scale(before_ns, after_ns) -> float:
    """Factor that takes a time measured between two calibrations to the reference speed."""
    return CAL_REF_MS * 2e6 / (before_ns + after_ns)


def write_inputs(pkg, workload, inputs, workdir):
    """The program's part of a set-up: draw, serialize, write and round-trip every input.

    Returns the generator's draws (``corpus``) and the files whose round trip
    failed.
    """
    drawn = draw_corpus(pkg) if workload == "corpus" else []
    broken = []
    for item in inputs:
        triple = to_triple(pkg, item.spec)
        text = pkg.serialize(triple)
        (workdir / item.file).write_text(text, encoding="utf-8")
        if pkg.parse(text) != triple:
            broken.append(item.file)
    return drawn, broken


def set_up(workload, inputs, workdir):
    """One timed set-up; returns its seconds, the package and its problems."""
    # Each set-up writes new files: ext4 flushes a file truncated and rewritten
    # on close, which takes ten times as long as a new file, and varies more.
    for item in inputs:
        (workdir / item.file).unlink(missing_ok=True)
    start = time.perf_counter()
    pkg = import_package()
    drawn, broken = write_inputs(pkg, workload, inputs, workdir)
    elapsed = time.perf_counter() - start
    problems = [f"parse(serialize(t)) != t for {name}" for name in broken]
    if workload == "corpus" and [spec_of(t) for t in drawn] != [i.info["drawn"] for i in inputs]:
        problems.append("random_triple drew other triples than when the inputs were built")
    return elapsed, pkg, problems


def matches(expect, code, out, err) -> bool:
    if code != expect.code:
        return False
    if expect.stderr_prefix:
        if not (err.startswith(expect.stderr_prefix) and err.count("\n") == 1
                and err.endswith("\n")):
            return False
    elif err:
        return False
    if expect.payload is not None:
        try:
            return json.loads(out) == expect.payload
        except ValueError:
            return False
    return out == expect.stdout


class Tally:
    """Latencies and verdicts of the timed commands, by command."""

    def __init__(self, commands):
        self.commands = commands
        self.latency_ns: list[list[float]] = [[] for _ in commands]  # calibrated
        self.plain_ns: list[list[int]] = [[] for _ in commands]  # as measured
        self.attempted = self.ok = self.capped = 0
        self.first: dict[int, tuple[str, bool]] = {}  # command index -> (digest, ok)
        self.problems: list[str] = []

    def record(self, index, code, out, err, elapsed_ns, scale):
        command = self.commands[index]
        self.attempted += 1
        self.latency_ns[index].append(elapsed_ns * scale)
        self.plain_ns[index].append(elapsed_ns)
        self.capped += code == 3
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        if index not in self.first:
            self.first[index] = (digest, matches(command.expect, code, out, err))
        first_digest, ok = self.first[index]
        ok = ok and digest == first_digest  # repeats must be byte-identical
        self.ok += ok
        if not ok and len(self.problems) < 5:
            self.problems.append(f"{' '.join(command.argv)}: exit {code}\n"
                                 f"stdout: {out[:300]!r}\nstderr: {err[-600:]!r}")

    def typical_ms(self, kinds=None, plain=False) -> list[float]:
        """Each command's median latency over the passes."""
        latencies = self.plain_ns if plain else self.latency_ns
        return [statistics.median(ns) / 1e6 for command, ns in zip(self.commands, latencies)
                if ns and (kinds is None or command.kind in kinds)]

    def ops_per_s(self, plain=False) -> float:
        """Commands per second over one pass of the list, at typical latencies."""
        typical = self.typical_ms(plain=plain)
        return len(typical) / (sum(typical) / 1e3)

    def quantile_ms(self, q, kinds=None) -> float:
        values = self.typical_ms(kinds)
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(pkg, commands, tally, recorder=None, layers=None):
    before = calibration_ns()
    for index, command in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter_ns()
        try:
            code = pkg.cli.run(list(command.argv), out, err)
        except Exception:  # a traceback is a failed command, not a crash of the benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - start
        after = calibration_ns()
        scale = speed_scale(before, after)
        before = after
        tally.record(index, code, out.getvalue(), err.getvalue(), elapsed, scale)
        if layers is not None:
            layers.add_command(command.kind, recorder.take(), scale)


def oracle_model(triple, which):
    """Paths the oracle enumerates for ``dimension_oracle(triple, which)``, and if it is capped."""
    spec = spec_of(triple)
    if which == "sg":
        return reference.sg_oracle(spec)
    if which == "g":
        return reference.g_oracle(spec)
    raise ValueError(f"no oracle model for {which!r}")


def end_to_end(tally, setups):
    return {
        "ops_per_s": tally.ops_per_s(),
        "op_p50_ms": tally.quantile_ms(50),
        "op_p90_ms": tally.quantile_ms(90),
        "verdict_p50_ms": tally.quantile_ms(50, {"validate"}),
        "invariants_p50_ms": tally.quantile_ms(50, {"invariants"}),
        "dim_p50_ms": tally.quantile_ms(50, {"dim"}),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": tally.ok / tally.attempted,
        "decided_ratio": (tally.attempted - tally.capped) / tally.attempted,
    }


def traced_run(pkg, workload, seed, inputs, workdir, commands, seconds, tally):
    """Alternate untraced and traced passes; return the per-layer metrics.

    Writes the traced calls per command, by command kind, and the collapsed
    stacks of every traced command beside the result.
    """
    recorder = spans.Recorder()
    with spans.installed(pkg, recorder):
        write_inputs(pkg, workload, inputs, workdir)
    generate = spans.generate_metrics(recorder.take())
    totals = spans.LayerTotals(oracle_model)
    plain, traced = Tally(commands), Tally(commands)
    start, passes = time.perf_counter(), 0
    while True:
        run_pass(pkg, commands, plain)
        with spans.installed(pkg, recorder):
            run_pass(pkg, commands, traced, recorder, totals)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.ok += part.ok
        tally.capped += part.capped
        tally.problems += part.problems
    stem = WORK / f"{workload}-seed{seed}"
    stem.with_suffix(".stacks").write_text(totals.collapsed_stacks(), encoding="utf-8")
    stem.with_suffix(".calls.json").write_text(
        json.dumps(totals.calls_per_command(), indent=2) + "\n", encoding="utf-8")
    metrics = totals.metrics()
    metrics.update(generate)
    metrics["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
    return metrics, passes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QSG_ORACLE_CAP", None)  # users run with the default cap
    # Compile the package from source on every import and write no bytecode,
    # so each set-up does the same work whatever caches the checkout holds.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(WORK / "no-bytecode")
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # The seed's triples, built once and untimed, and one untimed set-up: a
    # process's first set-ups grow its heap and take up to twice as long.
    inputs = make_inputs(args.workload, args.seed, import_package())
    set_up(args.workload, inputs, workdir)
    commands = make_commands(args.workload, args.seed, inputs, workdir)
    setups, plain_setups, digests, problems = [], [], set(), []

    def one_set_up():
        before = calibration_ns()
        elapsed, pkg, found = set_up(args.workload, inputs, workdir)
        setups.append(elapsed * speed_scale(before, calibration_ns()))
        plain_setups.append(elapsed)
        problems.extend(p for p in found if p not in problems)
        digests.add(hashlib.sha256(b"".join(
            (workdir / item.file).read_bytes() for item in inputs)).hexdigest())
        gc.collect()
        gc.freeze()  # keep the benchmark's own objects out of the program's collections
        return pkg

    pkg = one_set_up()
    tally = Tally(commands)
    if args.trace:
        metrics, passes = traced_run(pkg, args.workload, args.seed, inputs, workdir, commands,
                                     args.seconds, tally)
        units = PER_LAYER_UNITS
    else:
        # Set-ups alternate with passes, so both sample the machine over the whole run.
        start, passes = time.perf_counter(), 0
        while time.perf_counter() - start < args.seconds or passes < MIN_PASSES:
            run_pass(pkg, commands, tally)
            passes += 1
            if len(setups) < SETUP_REPEATS:
                pkg = one_set_up()
        while len(setups) < SETUP_REPEATS:
            one_set_up()
        metrics = end_to_end(tally, setups)
        units = END_TO_END_UNITS

    failed = tally.attempted - tally.ok
    if len(digests) != 1:
        problems.append("set-ups wrote different input files")
    correct = failed == 0 and not problems
    for problem in tally.problems:
        print(f"perfbench: output differs from the reference: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed} commands={len(commands)} passes={passes} "
          f"attempted={tally.attempted} failed={failed}")
    if not args.trace:
        typical = tally.typical_ms(plain=True)
        print(f"  as measured: ops_per_s {tally.ops_per_s(plain=True):.4f}"
              f"  op_p50_ms {statistics.median(typical):.4f}"
              f"  setup_s {statistics.median(plain_setups):.4f}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.4f} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Unavailable as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
