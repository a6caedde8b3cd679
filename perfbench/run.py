"""coreinv benchmark: one workload per call, closed loop, one client, one thread.

    python3 perfbench/run.py --workload qi-construct --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the slot lists):
  qi-construct    Q(i) constructors at dims 4/6/8 with a JSON round trip of each
                  certificate; coefficient growth puts the time in scalar and Mat.__mul__.
  q-characterize  Q characterizations at dims 2/4/8: weighted-EP tests, decompositions,
                  certificate replays, Gram formulas and in-process CLI calls.
  f3-oracle       the exhaustive M_2(F_3) x 18 weights cross_check sweep at n = 2,
                  started at a seeded offset.

The seed is turned into inputs by a generator process whose time is not
measured. Set-up (`setup_s`) runs from launching a fresh interpreter to its
first timed op: `import coreinv`, decoding the inputs through mat_from_json /
weight_from_json, and one untimed warm-up op; it is measured SETUP_PROBES
times and the median is reported. The loop then runs in one more fresh
interpreter, each op starting after the previous one returned, over whole pass
blocks of the op pool: it stops at the first block boundary after --seconds.
Each op's output is checked right after its timing stops. `ops_per_s` is ops
over the summed op latencies; `peak_rss_mb` is ru_maxrss of that process.

All times are scaled to a reference machine speed (see speed.py): on a shared
machine the speed of pure-Python code can drift by more than 50 % within a
minute, which a wall time alone cannot tell apart from a change to coreinv.
The times as measured are printed on a comment line.

With --trace 1 the loop instead runs one fixed pass block of the pool three
times (untraced to warm up and check, traced, untraced as the base of the
tracing overhead) and prints the per-layer metrics of the traced pass; its
counts repeat exactly for a seed, and --seconds is not used.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
DEFAULT_SEED is the seed to use by default; CONFIRM_SEED is kept back for
confirming a claimed gain on a seed not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S, reference_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("qi-construct", "q-characterize", "f3-oracle")
DEFAULT_SEED = 1
CONFIRM_SEED = 7919
SETUP_PROBES = 3
# every worker is killed by then, so that a run ends within 180 s
BUDGET_S = 170


def _child(args, deadline):
    """Run one worker process to completion; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _stamp():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = " ".join(fh.read().split()[:3])
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": sha,
        "loadavg": load,
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coreinv", "__init__.py")):
        print(f"error: no coreinv sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    stamp = _stamp()
    workdir = os.path.join(WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    _child(["generate", args.workload, str(args.seed), workdir], deadline)
    inputs = os.path.join(workdir, "inputs.json")

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            before = reference_time()
            t0 = time.monotonic()
            raw = _child(["setup", inputs], deadline)["t_first"] - t0
            setups.append((raw, raw * REFERENCE_S / ((before + reference_time()) / 2)))
    spans = os.path.join(WORKDIR, f"trace-{args.workload}.jsonl")
    res = _child(["run", inputs, str(args.seconds), str(args.trace), spans], deadline)

    lat = res["latencies"]
    attempted, failed = len(lat), len(res["failures"])
    print(f"# coreinv benchmark: workload {args.workload} seed {args.seed} "
          f"(default {DEFAULT_SEED}, confirm {CONFIRM_SEED}) seconds {args.seconds:g} trace {args.trace}")
    print("# " + " ".join(f"{k} {v}" for k, v in stamp.items()))
    print(f"# closed loop, 1 client; ops checked: {attempted}, failed: {failed}; "
          f"digest {res['digest']} over {res['unique']} unique ops")
    print(f"# times at reference speed; as measured: {attempted / res['raw_s']:.4f} ops/s"
          + (f", setup {statistics.median(r for r, _ in setups):.4f} s" if setups else ""))
    for line in res["failures"][:20]:
        print(f"# FAILED {line}")
    if args.trace:
        print(f"# traced {attempted / sum(lat):.4f} ops/s, untraced {attempted / res['plain_s']:.4f}"
              f" ops/s; {res['bindings']} bindings patched; spans in {os.path.relpath(spans, ROOT)}")
        rows = [(k, v, unit, attempted) for k, (v, unit) in res["layer"].items()]
    else:
        rows = [
            ("ops_per_s", attempted / sum(lat), "ops/s", attempted),
            ("op_p50_ms", statistics.median(lat) * 1e3, "ms", attempted),
            ("op_p90_ms", _quantile(lat, 90) * 1e3, "ms", attempted),
            ("fail_ratio", failed / attempted, "failed/attempted", f"{failed}/{attempted}"),
            ("setup_s", statistics.median(s for _, s in setups), "s", len(setups)),
            ("peak_rss_mb", res["rss_mb"], "MB", 1),
        ]
    print(f"{'metric':40} {'value':>14} {'unit':16} samples")
    for name, value, unit, n in rows:
        print(f"{name:40} {value:>14.6g} {unit:16} {n}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if name != "fail_ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
