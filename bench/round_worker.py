"""The timed process of an untraced run, and the set-up probe.

    python3 bench/round_worker.py <workload> <seed> <work directory>

Run from the root of a checkout.  It imports vcspace from ./src and runs the
workload's warm-up instances.  Then it reads round numbers, one per line on
stdin, runs each round and answers with one pickle on stdout: (measured
seconds, instance times, [(spec, output or None)], [traceback text]).  At
the end of stdin it answers with its peak RSS in KiB and exits.  run.py
starts it once per run for the rounds, and three more times with an empty
stdin, timing each from start to exit, for `setup_s`.
"""

import os
import pickle
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main(workload: str, seed: int, work: Path) -> None:
    # pickles go to the original stdout; anything printed goes to stderr
    answers = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    for spec in workloads.warm_up_specs(workload, work):
        workloads.run(spec, [])
    rounds = None
    while line := sys.stdin.readline():
        if rounds is None:
            rounds = workloads.WORKLOADS[workload](seed, work)
        times, done, raised, measured = [], [], [], 0.0
        for spec in rounds.round(int(line)):
            start = perf_counter()
            try:
                out = workloads.run(spec, times)
            except Exception:
                out = None
                raised.append(f"instance {spec} raised:\n{traceback.format_exc()}")
            measured += perf_counter() - start
            done.append((spec, out))
        pickle.dump((measured, times, done, raised), answers)
        answers.flush()
    pickle.dump(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, answers)
    answers.close()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
