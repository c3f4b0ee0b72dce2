"""Benchmark the quivsheaf CLI on seeded command batches.

    python3 perfbench/run.py --workload audit|sheaf|functors --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Commands go through ``quivsheaf.cli.main(argv)`` in this process, one at a
time in a closed loop, so each pays argument parsing, loading, deciding and
serialising as a CLI process does.  Rounds of commands run until ``S``
seconds of command time have passed; each round's inputs are generated, and
its outputs checked against ``oracle``, while the clock is stopped.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` the package's functions are wrapped in spans and the last
line holds per-command means of the per-layer metrics.  A second-to-last
line records the environment, and the same record is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Peak resident set is read once this many commands have run, so it counts
# the same work however fast the program is.
RSS_AFTER_COMMANDS = 1000

# Fresh processes timed from spawn to their first timed command, spread
# over the run between rounds so that they see the same machine as it.
SETUP_PROBES = 15
READY = "ready"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="quivsheaf CLI benchmark")
    p.add_argument("--workload", required=True, choices=("audit", "sheaf", "functors"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(workload, seed, workdir, trace):
    """Everything a run does before its first timed command: import the
    package, generate round 0, warm up, and freeze the garbage collector's
    view of what exists so far."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import quivsheaf
    import quivsheaf.cli
    import workloads

    if not Path(quivsheaf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"quivsheaf imported from {quivsheaf.__file__}, not {SRC}")
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install("quivsheaf")
    workdir.mkdir(parents=True, exist_ok=True)
    batch = workloads.WORKLOADS[workload](str(workdir), quivsheaf if trace else None)

    # one command of each kind, on inputs the timed rounds never see
    warm = {}
    for cmd in batch.round(random.Random(f"warm-up {seed}")):
        warm.setdefault(cmd.kind, cmd)
    for cmd in warm.values():
        invoke(quivsheaf.cli.main, cmd)
    rng = random.Random(seed)
    first = batch.round(rng)
    gc.collect()
    gc.freeze()
    return quivsheaf, workloads, batch, rng, first, tracer


def invoke(main, cmd):
    """Run one command; returns (exit code or None if it raised, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(cmd.argv)
    except Exception as exc:  # a crash is a failed command, not a verdict
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def probe_setup(args):
    """Seconds from spawning a fresh run to its first timed command."""
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != READY or child.returncode != 0:
        raise SystemExit(f"setup probe failed with exit {child.returncode}")
    return elapsed


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quivsheaf" / "__init__.py").is_file():
        print(f"error: no quivsheaf package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        try:
            prepare(args.workload, args.seed, workdir, trace=0)
            print(READY, flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    # byte-compile first so that no set-up below pays for compilation
    compileall.compile_dir(str(SRC / "quivsheaf"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    quivsheaf, wl, batch, rng, commands, tracer = prepare(args.workload, args.seed, workdir, args.trace)
    main = quivsheaf.cli.main
    latencies = []
    attempted = failed = 0
    bytes_in = bytes_out = 0
    mismatches = []
    batch_s = 0.0
    rounds = 0
    probes = []
    peak_rss_mb = None
    if tracer is not None:
        tracer.reset()
    while True:
        while not args.trace and len(probes) * args.seconds <= batch_s * SETUP_PROBES:
            probes.append(probe_setup(args))
        results = []
        round_start = time.perf_counter()
        for cmd in commands:
            if tracer is not None and cmd.prime is not None:
                cmd.prime()
            start = time.perf_counter()
            code, out, err = invoke(main, cmd)
            latencies.append(time.perf_counter() - start)
            results.append((cmd, code, out, err))
        batch_s += time.perf_counter() - round_start
        rounds += 1
        if peak_rss_mb is None and len(latencies) >= RSS_AFTER_COMMANDS:
            peak_rss_mb = max_rss_mb()
        for cmd, code, out, err in results:
            attempted += 1
            bytes_in += cmd.bytes_in
            bytes_out += len(out.encode())
            if code is None or code == 2:
                failed += 1
                if failed <= 3:
                    print(f"FAILED {' '.join(cmd.argv)}: exit {code}: {err.strip()[-300:]}", file=sys.stderr)
                continue
            try:
                cmd.check(code, out)
            except (wl.Mismatch, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                mismatches.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
        del results
        if batch_s >= args.seconds:
            break
        commands = batch.round(rng)
        gc.collect(1)
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))

    if args.trace:
        metrics = tracer.metrics(attempted, bytes_in, bytes_out)
    else:
        lat = sorted(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "commands_per_s": {"value": attempted / batch_s, "unit": "1/s"},
            "command_p50_ms": {"value": percentile(lat, 50) * 1e3, "unit": "ms"},
            "command_p99_ms": {"value": percentile(lat, 99) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb or max_rss_mb(), "unit": "MB"},
        }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "batch_s": batch_s,
        "commands_per_s": attempted / batch_s,
        "wall_s": time.perf_counter() - STARTED,
        "setup_probes_s": probes,
        "backend": quivsheaf.backend_name(),
        "python": platform.python_version(),
        "revision": git_revision(),
        "nproc": nproc(),
    }
    for m in mismatches[:20]:
        print(f"MISMATCH {m}", file=sys.stderr)
    result = {"correct": not mismatches, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record = {"env": env, **result, "latencies_ms": [x * 1e3 for x in latencies]}
    (results_dir / name).write_text(json.dumps(record) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
