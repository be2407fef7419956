"""cmcurve benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from src/.  With
--trace 0 the last line of stdout is a JSON object carrying every end-to-end
metric of BENCHMARK.json; with --trace 1 it carries every per-layer metric
from a separate traced run.  The lines before it say what ran, the output
digest and any failures by kind.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from check import Crash

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
WALL_FACTOR = 4  # a run also stops after this many times --seconds of wall time
# the host's speed is sampled with a fixed reference computation after every
# SPEED_EVERY seconds of operation time and at the end of each round, for
# SPEED_SHARE of the operation time since the previous sample; times are
# scaled to a host on which one reference run takes SPEED_NOMINAL seconds
# (about the median on the 2-core test host)
SPEED_EVERY = 0.02
SPEED_SHARE = 0.03
SPEED_NOMINAL = 0.4e-3


def reference():
    """Pure-Python exact arithmetic that calls nothing in the package."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    return s


def speed_sample(least=0.0):
    """CPU seconds of one reference run, averaged over at least two runs and
    at least `least` seconds, with the collector paused."""
    gc.disable()
    start = time.process_time()
    runs = 0
    while True:
        reference()
        runs += 1
        now = time.process_time()
        if runs >= 2 and now - start >= least:
            break
    gc.enable()
    return (now - start) / runs


class Pass:
    """What one closed-loop pass over a workload measured."""

    def __init__(self):
        self.raw = []  # CPU seconds of each operation
        self.durations = []  # the same, scaled to the nominal host speed
        self.speed = [speed_sample()]
        self.busy = 0.0  # summed operation time (raw)
        self.scaled = 0.0  # the same, scaled
        self.classes = []  # (kind, level) of each operation
        self.failures = Counter()
        self.wrong = 0
        self.rounds = 0
        self.wall = 0.0  # whole pass, with input building and checks
        self.round_busy = []  # summed scaled operation time of each round
        self.round_raw = []  # the same, unscaled
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def rescale(self):
        """Sample the host's speed and scale the operations timed since the
        previous sample by the mean of the two samples around them."""
        pending = self.raw[len(self.durations):]
        now = speed_sample(SPEED_SHARE * sum(pending))
        k = 2 * SPEED_NOMINAL / (self.speed[-1] + now)
        self.speed.append(now)
        new = [d * k for d in pending]
        self.durations.extend(new)
        self.scaled += sum(new)


def run_pass(workload_cls, seed, caches, budget=None, rounds=None, tracer=None):
    """Run whole rounds until the summed scaled operation time reaches
    `budget` seconds (or `rounds` rounds).  Answers are checked after each round,
    outside the timed region; the first round's canonical outputs make the
    digest.  The workload's warm-up rounds run first, untimed and unchecked.

    A call's time is the CPU time of this process while it runs
    (time.process_time).  The package is single-threaded and CPU-bound, so
    this is its wall time less the stretches the process sat descheduled by
    other work on the machine, which otherwise land as multi-millisecond
    outliers on whichever call they hit.  The machine's speed itself moves
    by up to a factor of two in phases of a few seconds, so each call's time
    is also scaled by the reference timed next to it (see Pass.rescale)."""
    workload = workload_cls(random.Random(seed))
    caches.reset()
    workload.warm()
    for _ in range(workload.warm_rounds):
        for op in workload.round():
            if workload.cold:
                caches.reset()
            op.run()
    caches.mark()
    if tracer is None:
        return _loop(workload, caches, budget, rounds, None)
    tracer.install()  # after the warm-up, which is not traced
    try:
        return _loop(workload, caches, budget, rounds, tracer)
    finally:
        tracer.uninstall()


def _loop(workload, caches, budget, rounds, tracer):
    out = Pass()
    clock = time.process_time
    wall0 = time.monotonic()
    while True:
        if rounds is not None and out.rounds >= rounds:
            break
        if budget is not None and (out.scaled >= budget or time.monotonic() - wall0 > WALL_FACTOR * budget):
            break
        done = []
        first = len(out.raw)
        since = 0.0
        for op in workload.round():
            if workload.cold:
                caches.reset()
            if tracer is not None:
                tracer.op_id += 1
                tracer.level = op.level
            error = None
            # as in timeit, the cyclic collector waits while a call is timed:
            # its pauses scale with the benchmark's own heap too, and they
            # run between calls instead
            gc.disable()
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # recorded as a failure of this operation
                result, error = None, exc
            finally:
                end = clock()
                gc.enable()
            out.raw.append(end - start)
            out.busy += end - start
            since += end - start
            if since >= SPEED_EVERY:
                out.rescale()
                since = 0.0
            out.classes.append((op.kind, op.level))
            done.append((op, result, error))
        if len(out.durations) < len(out.raw):
            out.rescale()
        out.round_busy.append(sum(out.durations[first:]))
        out.round_raw.append(sum(out.raw[first:]))
        out.wall = time.monotonic() - wall0
        for op, result, error in done:
            if error is not None:
                canon, reason = ["exception", type(error).__name__], Crash(f"exception {type(error).__name__}")
            else:
                canon, reason = op.check(result)
            if reason is not None:
                out.failures[f"{op.kind}: {reason}"] += 1
                out.wrong += not isinstance(reason, Crash)
            if out.rounds == 0:
                out.digest.update(json.dumps([op.kind, op.level, canon], sort_keys=True).encode())
                out.digest_ops += 1
        out.rounds += 1
    return out


def setup_seconds(module):
    """(scaled, unscaled): the median over fresh interpreters of the CPU time
    from process start until `module` is imported and the first operation
    could run (the same clock as the operations), scaled by the median of
    reference samples taken between them.  The reference does not follow an
    import's cost from one probe to the next, but it does follow the slower
    drift of the host's speed, which moved unscaled medians of ten runs by up
    to 21 % between two sets of the same code."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        f"import {module}; print(time.process_time())"
    )
    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        speeds.append(speed_sample(0.005))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
        )
        times.append(float(proc.stdout.split()[-1]))
    raw = statistics.median(times)
    return raw * SPEED_NOMINAL / statistics.median(speeds), raw


def tail(durations, percentile):
    """(value, samples beyond it) of the nearest-rank percentile."""
    s = sorted(durations)
    i = max(0, math.ceil(percentile / 100 * len(s)) - 1)
    return s[i], len(s) - 1 - i


def report(name, seed, p: Pass, tail_percentile):
    n = len(p.durations)
    print(f"workload {name} seed {seed}: {p.rounds} rounds, {n} operations, "
          f"{p.busy:.3f} s busy, {p.wall:.3f} s wall")
    speed = sorted(s / SPEED_NOMINAL for s in p.speed)
    print(f"host speed: {len(speed)} reference samples took {speed[len(speed) // 4]:.3f}, "
          f"{statistics.median(speed):.3f}, {speed[3 * len(speed) // 4]:.3f} times nominal "
          f"(quartiles)")
    print(f"unscaled: ops_per_s {n / p.rounds / statistics.median(p.round_raw):.4f}, "
          f"latency_p50_ms {statistics.median(p.raw) * 1e3:.4f}, "
          f"latency_tail_ms {tail(p.raw, tail_percentile)[0] * 1e3:.4f}")
    print(f"output_digest {p.digest.hexdigest()} (first round, {p.digest_ops} operations)")
    failed = sum(p.failures.values())
    print(f"error_rate {failed / n:.6f} ({failed} of {n} failed, {p.wrong} wrong answers)")
    for kind, count in sorted(p.failures.items()):
        print(f"  failed {count:6d}  {kind}")
    by_class = {}
    for cls, dt in zip(p.classes, p.durations):
        by_class.setdefault(cls, []).append(dt)
    for (kind, level), times in sorted(by_class.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        where = f" N={level}" if level is not None else ""
        print(f"  {kind}{where}: {len(times)} ops, median {statistics.median(times) * 1e3:.3f} ms")


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def emit(section, values, p: Pass):
    metrics = {}
    for name, unit in declared(section):
        if name not in values:
            raise KeyError(f"declared metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": p.wrong == 0,
        "attempted": len(p.durations),
        "failed": sum(p.failures.values()),
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmcurve").is_dir():
        sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'cmcurve'}")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import tracing as tr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    if not args.trace:
        setup, setup_raw = setup_seconds(cls.entry_module)
        p = run_pass(cls, args.seed, tr.Caches(), budget=args.seconds)
        report(args.workload, args.seed, p, cls.tail_percentile)
        print(f"unscaled: setup_s {setup_raw:.4f}")
        value, beyond = tail(p.durations, cls.tail_percentile)
        print(f"latency_tail_ms is p{cls.tail_percentile} over {len(p.durations)} samples ({beyond} beyond)")
        n = len(p.durations)
        emit("end_to_end", {
            "setup_s": setup,
            "ops_per_s": n / p.rounds / statistics.median(p.round_busy),
            "latency_p50_ms": statistics.median(p.durations) * 1e3,
            "latency_tail_ms": value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, p)
        return 0

    caches = tr.Caches()
    tracer = tr.Tracer()
    p = run_pass(cls, args.seed, caches, budget=args.seconds / 2, tracer=tracer)
    ops = len(p.durations)
    values = tracer.metrics(p.busy, ops)
    values.update(tr.cache_metrics(caches, ops))
    plain = run_pass(cls, args.seed, tr.Caches(), rounds=p.rounds)
    values["trace_overhead_ratio"] = sum(p.durations) / sum(plain.durations)
    values["error_rate"] = sum(p.failures.values()) / ops
    report(args.workload, args.seed, p, cls.tail_percentile)
    print(f"trace_overhead_ratio {values['trace_overhead_ratio']:.3f} "
          f"(traced {sum(p.durations):.3f} s, untraced {sum(plain.durations):.3f} s scaled, "
          f"same {p.rounds} rounds)")
    print(f"{'layer':44s} {'calls':>10s} {'total_ms':>12s} {'self_ms':>12s} {'self%':>7s}")
    for name, _, calls, total, self_ms in tracer.table():
        if total is None:
            print(f"{name:44s} {calls:10d}")
        else:
            print(f"{name:44s} {calls:10d} {total:12.3f} {self_ms:12.3f} {100 * self_ms / 1e3 / p.busy:6.2f}%")
    for name, level, calls, total, self_ms in tracer.level_rows(tr.LEVEL_TABLE):
        print(f"{name}.N{level}: calls {calls} total_ms {total:.3f} self_ms {self_ms:.3f}")
    for name, value in sorted(tr.cache_metrics(caches, ops).items()):
        print(f"cache {name} {value}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    written = tracer.write_spans(path)
    print(f"spans: {written} written to {path.relative_to(ROOT)}, {tracer.dropped} over the cap not kept")
    emit("per_layer", values, p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
