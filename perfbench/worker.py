"""One workload process: generate inputs, or set up and run the timed loop.

    python3 perfbench/worker.py generate WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py setup INPUTS
    python3 perfbench/worker.py run INPUTS SECONDS TRACE SPANS

`run.py` starts each in a fresh interpreter. `setup` and `run` print one JSON
line; `setup` reports `t_first`, the CLOCK_MONOTONIC time at which the first
timed op would start, which the parent compares with its own launch time.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import coreinv  # noqa: E402  (must come from this checkout's src/)

if not os.path.abspath(coreinv.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"coreinv imported from {coreinv.__file__}, not from {SRC}")

import workloads as wl  # noqa: E402
from speed import SpeedLog  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        inp = wl.Inputs(json.load(fh))
    wl.execute(inp, inp.warmup)
    return inp


class Outcomes:
    """Checks each op right after its timing stops, and keeps only a hash of its output.

    The first run of a pool entry is checked; a repeat must hash the same. No
    output is kept, so memory does not grow with the number of ops run.
    """

    def __init__(self, inp):
        self.inp = inp
        self.checker = wl.Checker(inp)
        self.hashes = {}
        self.failures = []
        self.cli_bytes = 0

    def record(self, idx, res, err):
        op = self.inp.ops[idx]
        try:
            if err is not None:
                raise AssertionError(err)
            if op["k"] == "cli":
                self.cli_bytes += len(res[1])
            h = hashlib.sha256(wl.canonical(res).encode()).hexdigest()
            if idx in self.hashes:
                if self.hashes[idx] != h:
                    raise AssertionError("repeat of an op gave another output")
            else:
                self.checker.check(op, res)
                self.hashes[idx] = h
        except Exception as exc:  # every failed check is counted and reported, never fatal
            self.failures.append(f"op {idx} {op['k']}: {type(exc).__name__}: {exc}")

    def digest(self):
        return wl.digest(f"{idx}\t{self.hashes[idx]}" for idx in sorted(self.hashes))


def _loop(inp, outcomes, ops, seconds=None, tracer=None):
    """Run ops in order, wrapping, in whole pass blocks: stop at the first block
    boundary after `seconds`. Run them exactly once when `seconds` is None.

    Returns each op's latency as measured and scaled to the reference speed,
    and the scale factor as a function of time. Checks and the reference
    timings run between ops, outside every latency.
    """
    clock = time.perf_counter
    speed = SpeedLog()
    timed = []
    n = len(ops)
    speed.maybe_sample()
    deadline = clock() + seconds if seconds is not None else None
    i = 0
    while i < n if deadline is None else i % inp.block or clock() < deadline:
        speed.maybe_sample()
        idx = i % n
        if tracer is not None:
            tracer.op, tracer.paused = i, False
        t0 = clock()
        try:
            res, err = wl.execute(inp, ops[idx]), None
        except Exception as exc:  # a raising op is a failed op, counted and reported
            res, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.paused = True
        timed.append((t0, t1 - t0))
        outcomes.record(idx, res, err)
        i += 1
    speed.due = 0.0
    speed.maybe_sample()
    scaled = [w * speed.factor(t0 + w / 2) for t0, w in timed]
    return [w for _, w in timed], scaled, speed.factor


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    mode = argv[0]
    if mode == "generate":
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        data = wl.generate(workload, seed, workdir)
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return
    inp = _load(argv[1])
    if mode == "setup":
        print(json.dumps({"t_first": time.monotonic()}))
        return
    seconds, trace, spans_path = float(argv[2]), argv[3] == "1", argv[4]
    outcomes = Outcomes(inp)
    result = {}
    if not trace:
        raw, latencies, _ = _loop(inp, outcomes, inp.ops, seconds)
    else:
        # one fixed prefix of the pool, so the counts repeat exactly for a seed. A first
        # untraced pass warms up and checks; the untraced pass after the traced one is
        # the base of the tracing overhead
        from tracing import Tracer, unit_of

        ops = inp.ops[: inp.trace_ops]
        _loop(inp, outcomes, ops)
        tracer = Tracer()
        result["bindings"] = tracer.install()
        outcomes.cli_bytes = 0
        try:
            raw, latencies, speed = _loop(inp, outcomes, ops, tracer=tracer)
        finally:
            tracer.uninstall()
        cli_bytes = outcomes.cli_bytes
        plain = sum(_loop(inp, outcomes, ops)[1])
        layer = tracer.metrics(len(latencies), speed)
        layer["trace.overhead"] = sum(latencies) / plain
        layer["cli.main.out_bytes"] = cli_bytes
        tracer.dump(spans_path)
        result["layer"] = {k: [v, unit_of(k)] for k, v in layer.items()}
        result["plain_s"] = plain
    result.update(
        latencies=latencies, raw_s=sum(raw), rss_mb=_peak_rss_mb(), failures=outcomes.failures,
        digest=outcomes.digest(), unique=len(outcomes.hashes),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
