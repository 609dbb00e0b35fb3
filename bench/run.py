"""Benchmark of the reachbudget stack: training, deployment and exact solvers.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload {train,deploy} --seed N --seconds S --trace {0,1}

The package is imported from src/ of that checkout; there is nothing
to build. BLAS is pinned to one thread before numpy loads.

The legs fall into three groups (legs.py): train, deploy and oracle. A
run repeats whole cycles for --seconds: a cycle is two units of the
workload's own group and one unit of each other group, so every
workload reports every end-to-end metric while spending about half its
time on its own legs. Each cycle attempts the same operations, so the
share of failed operations does not depend on how many cycles fit.
Each leg's figure is its median over the units of the run.

--trace 0 prints the end-to-end metrics. --trace 1 wraps the package's
functions (tracing.py) during the set-up and every second cycle, prints
per-layer figures per traced cycle and the tracing overhead (own units
of traced against untraced cycles), and writes the spans to bench/out/.
The last line of standard output is the JSON result; check failures go
to standard error and make "correct" false.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def build(seed: int):
    import legs

    return {name: cls(seed) for name, cls in legs.GROUPS.items()}


def setup_seconds(args) -> float:
    """Median time from process start to ready, over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def cycle(workload: str) -> list[str]:
    """Group names of one cycle: own units with foreign units between them."""
    import legs

    others = [g for g in legs.GROUPS if g != workload]
    return [workload, others[0], workload, *others[1:]]


def main(argv=None) -> int:
    # workloads, metric names and units; per-layer names read <span>.<field>
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args = parse_args(sys.argv[1:] if argv is None else argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "reachbudget", "__init__.py")):
        print(f"bench: no package at {SRC}/reachbudget; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        build(args.seed)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_self_s

        tracer = Tracer()
        tracer.install()
    groups = build(args.seed)
    if tracer:
        tracer.remove()
    setup_s = None if tracer else setup_seconds(args)

    setup_stats = tracer.take() if tracer else None
    own_times = {True: [], False: []}
    cycles = traced_cycles = 0
    traced_wall = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        for name in cycle(args.workload):
            t0 = time.perf_counter()
            groups[name].unit()
            dt = time.perf_counter() - t0
            traced_wall += dt if traced else 0.0
            if name == args.workload:
                own_times[traced].append(dt)
        if traced:
            tracer.remove()
            traced_cycles += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > args.seconds and cycles >= (2 if tracer else 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    for name, group in groups.items():
        try:
            errors += [f"{name}: {e}" for e in group.check()]
        except Exception as exc:  # a check that crashes is a failed check
            errors.append(f"{name}: check raised {type(exc).__name__}: {exc}")
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)

    if tracer is None:
        figures = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        for group in groups.values():
            figures.update(group.figures())
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        # checkpoints load during set-up; everything else is per traced cycle
        cycle_stats = tracer.take()
        figures = {f"layer.{layer}.self_s": s / traced_cycles
                   for layer, s in layer_self_s(cycle_stats).items()}
        figures["trace.traced_s"] = traced_wall / traced_cycles
        overhead = statistics.median(own_times[True]) / statistics.median(own_times[False]) - 1.0
        figures["trace.overhead_pct"] = 100.0 * overhead
        metrics = {}
        for m in spec["per_layer"]:
            span, field = m["name"].rsplit(".", 1)
            if m["name"] in figures:
                value = figures[m["name"]]
            elif span == "approx.load_checkpoint":
                value = getattr(setup_stats[span], field)
            elif field == "self_s":
                value = cycle_stats[span].self_s / traced_cycles
            else:  # counts: every traced cycle repeats the same calls
                value = getattr(cycle_stats[span], field) // traced_cycles
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            phases = {"setup": setup_stats, "cycles": cycle_stats}
            json.dump({"traced_cycles": traced_cycles, **tracer.dump(phases)}, fh)

    attempted = sum(g.attempted for g in groups.values())
    failed = sum(g.failed for g in groups.values())
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
