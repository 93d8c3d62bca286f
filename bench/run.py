"""vcspace benchmark: run one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {sweep,entropy,general,large} \
        --seed N --seconds S --trace {0,1} [--out DIR]

Run it from the root of a checkout; it imports vcspace from ./src.  With
--trace 0 a fresh child process repeats rounds of the workload's instances
until S seconds of instance time are measured; between rounds this process
checks the round's outputs and times one fresh-process set-up.  It reports
the end-to-end metrics.  With --trace 1 it replays a fixed number of rounds
with a span around every call into vcspace, follows each call with the same
call untraced, and reports the per-layer metrics.  Every output is checked
(checks.py) outside the timed or traced calls.  It prints one line per
metric, then one JSON line: {"correct", "attempted", "failed", "metrics"},
which it also writes to DIR (default bench/out/runs) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sweep", "entropy", "general", "large")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
SETUP_PROBES = 3
P90_MIN_INSTANCES = 100

UNITS = {"setup_s": "s", "instances_per_s": "1/s", "instance_p50_s": "s",
         "instance_p90_s": "s", "peak_rss_mb": "MB"}
LAYER_COUNTS = ("matching.matched_pairs", "rsg.unfrozen_nodes",
                "core_analysis.simplified_nodes", "core_analysis.core_pairs",
                "ke_growth.steps", "ke_growth.odd_cycle_steps",
                "ke_growth.contraction_freezes")
LAYER_SPANS = ("graph.generate_random_bipartite", "graph.generate_random_graph",
               "graph.leaf_removal", "graph.giant_component_fraction",
               "graph.check_bipartition", "matching.max_bipartite_matching",
               "rsg.build_rsg_bipartite", "rsg.build_rsg_bipartite_core",
               "core_analysis.unfrozen_core", "core_analysis.count_solutions",
               "core_analysis.cycle_simplification", "meanfield.solve_fixed_point",
               "ke_growth.bipartite_seed", "ke_growth.grow_step",
               "experiments.aggregate_rows", "experiments.write_csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "runs"),
                        help="directory for the run's result file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Instances attempted, and failed by an exception or by a check."""

    def __init__(self):
        self.attempted = self.raised = self.wrong = 0
        self.stats: dict[str, int] = {}

    def call(self, fn, spec, *args):
        self.attempted += spec.instances
        try:
            return fn(spec, *args)
        except Exception:
            self.raised += spec.instances
            print(f"instance {spec} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    def fail(self, spec, errors):
        self.wrong += spec.instances
        for e in errors[:5]:
            print(f"check failed for {spec}: {e}", file=sys.stderr)

    def check(self, workloads, done):
        for spec, out in done:
            errors = workloads.check(spec, out, self.stats)
            if errors:
                self.fail(spec, errors)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def worker_command(args, work: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "round_worker.py"), args.workload,
            str(args.seed), str(work)]


def setup_time(args, work: Path) -> float:
    """Wall time of a fresh process that imports vcspace and warms up."""
    start = perf_counter()
    subprocess.run(worker_command(args, work), stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - start


def timed_run(args, work: Path, workloads, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, and the extras kept out of the JSON line.

    The rounds run in a fresh child process (round_worker.py), so that its
    peak RSS is the workload's alone.  Between rounds this process checks
    the round's outputs and runs one set-up probe, which spreads the timed
    work over more of the run's wall time and so over more of the machine's
    slow and fast spells.
    """
    child = subprocess.Popen(worker_command(args, work), stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE)
    setup, times = [], []
    measured = 0.0
    rounds = 0
    try:
        while measured < args.seconds:
            if len(setup) < SETUP_PROBES:
                setup.append(setup_time(args, work))
            child.stdin.write(b"%d\n" % rounds)
            child.stdin.flush()
            seconds, round_times, done, raised = pickle.load(child.stdout)
            measured += seconds
            times += round_times
            for spec, out in done:
                tally.attempted += spec.instances
                if out is None:
                    tally.raised += spec.instances
            for text in raised:
                print(text, file=sys.stderr)
            tally.check(workloads, [(spec, out) for spec, out in done if out is not None])
            rounds += 1
        child.stdin.close()
        peak_kib = pickle.load(child.stdout)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(args, work))
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": (tally.attempted - tally.raised) / measured,
        "instance_p50_s": statistics.median(times),
        "peak_rss_mb": peak_kib / 1024,
    }
    print(f"{rounds} rounds, {len(times)} instances timed over {measured:.2f} s")
    # only sweep times enough instances for a tail; BENCHMARK.json lists the
    # metrics every workload reports, so p90 stays out of the JSON line
    extras = {}
    if len(times) >= P90_MIN_INSTANCES:
        extras["instance_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return metrics, extras


def traced_run(args, work: Path, workloads, tally: Tally, spans_path: Path) -> dict:
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    rounds = [wl.round(r) for r in range(wl.trace_rounds)]
    tr = Tracer()
    traced_time = untraced_time = 0.0
    done = []
    # each traced call is followed by the same call untraced, so that drift
    # over the run falls on both sides of trace.overhead_s
    for r, specs in enumerate(rounds):
        for k, spec in enumerate(specs):
            tr.instance = f"round {r}/{k}"
            start = perf_counter()
            got = tally.call(workloads.run_traced, spec, tr)
            if got is None:
                continue
            traced_time += perf_counter() - start
            start = perf_counter()
            out = workloads.run(spec, [])
            untraced_time += perf_counter() - start
            if args.workload == "entropy":
                workloads.probe_cycle_simplification(got[1], tr)
            if workloads.summary(spec, got[0]) != workloads.summary(spec, out):
                tally.fail(spec, ["traced replay differs from the untraced call"])
            else:
                done.append((spec, got[0]))
    # every traced run also traces the four warm-up inputs, so that every
    # layer has spans in every run (see README)
    for name in WORKLOAD_NAMES:
        for spec in workloads.warm_up_specs(name, work):
            tr.instance = f"coverage/{name}"
            out, rsg = workloads.run_traced(spec, tr)
            if rsg is not None and spec.entropy == "full":
                workloads.probe_cycle_simplification(rsg, tr)
    tally.check(workloads, done)
    tr.write(spans_path)
    own = tr.self_times()
    metrics = {f"{name}_s": sum(t for (n, _), t in own.items() if n == name)
               for name in LAYER_SPANS}
    metrics["ke_growth.grow_step_p50_s"] = tr.median_duration("ke_growth.grow_step")
    metrics["ke_growth.odd_cycle_step_s"] = own.get(("ke_growth.grow_step", "odd_cycle"), 0.0)
    metrics["trace.overhead_s"] = traced_time - untraced_time
    for name in LAYER_COUNTS:
        metrics[name] = tr.counts.get(name, 0)
    print(f"{len(rounds)} rounds traced in {traced_time:.2f} s, untraced {untraced_time:.2f} s;"
          f" {len(tr.spans)} spans written to {spans_path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "vcspace" / "__init__.py").is_file():
        print("error: src/vcspace not found; run from the root of a vcspace checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = BENCH_DIR / "out" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(src))
        import vcspace
        if Path(vcspace.__file__).resolve().parent != (src / "vcspace").resolve():
            print(f"error: imported vcspace from {vcspace.__file__}", file=sys.stderr)
            return 2
        import workloads
        tally = Tally()
        extras = {}
        if args.trace:
            for spec in workloads.warm_up_specs(args.workload, work):
                workloads.run(spec, [])
            spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
            measured = traced_run(args, work, workloads, tally, spans_path)
            metrics = {name: {"value": value, "unit": "count" if name in LAYER_COUNTS else "s"}
                       for name, value in measured.items()}
        else:
            measured, extras = timed_run(args, work, workloads, tally)
            metrics = {name: {"value": value, "unit": UNITS[name]}
                       for name, value in measured.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: {tally.attempted} instances attempted, "
          f"{tally.failed} failed ({tally.raised} raised, {tally.wrong} failed a check)")
    if "counted_rows" in tally.stats:
        print(f"independent exact count made on {tally.stats['exact_counts']} of "
              f"{tally.stats['counted_rows']} counted rows, bounds only on the rest")
    extras = {name: {"value": value, "unit": UNITS[name]} for name, value in extras.items()}
    for name, m in {**metrics, **extras}.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, extras=extras)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
