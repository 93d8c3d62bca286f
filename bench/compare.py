"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files that `bench/run.py --out DIR` writes,
one per run.  For each workload and end-to-end metric it prints the median
and quartiles of both sets, the spread of each set (quartile distance over
median) and the change of the median in the metric's worse direction, each
as a share of the base median.  A change beyond the bound is a regression;
a spread beyond the bound leaves the metric unresolved.  It also compares
the share of failed operations, and per-layer counts of traced runs made
with the same seed, which must repeat exactly.  Exit status 1 means a
regression, a differing failure share or a differing count.
Run it from the root of the checkout.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not runs:
        sys.exit(f"no result files in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':8} {'metric':16} {'base q1/med/q3':>32} {'new q1/med/q3':>32}"
          f" {'spread':>13} {'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted({r["workload"] for r in base + new}):
        sets = [[r for r in runs if r["workload"] == workload and r["trace"] == 0]
                for runs in (base, new)]
        if not all(sets):
            print(f"{workload:8} (untraced runs missing in one set)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            (b1, bm, b3), (n1, nm, n3) = (
                quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = (nm - bm) / bm if metric["better"] == "lower" else (bm - nm) / bm
            spreads = ((b3 - b1) / bm, (n3 - n1) / nm)
            if worse > metric["bound"]:
                verdict, bad = "REGRESSION", True
            elif max(spreads) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:8} {name:16} {b1:10.4g}/{bm:10.4g}/{b3:10.4g} "
                  f"{n1:10.4g}/{nm:10.4g}/{n3:10.4g} {spreads[0]:6.3f}/{spreads[1]:6.3f}"
                  f" {worse:+9.3f} {metric['bound']:6.3f}  {verdict}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        if shares[0] != shares[1]:
            bad = True
        print(f"{workload:8} failed share: base {shares[0]:.6f}, new {shares[1]:.6f}"
              f"{'  DIFFERS' if shares[0] != shares[1] else ''}")
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    traced = defaultdict(list)
    for runs in (base, new):
        for r in runs:
            if r["trace"] == 1:
                traced[r["workload"], r["seed"]].append(
                    {k: r["metrics"][k]["value"] for k in counts})
    for (workload, seed), found in sorted(traced.items()):
        if len(found) == 2 and found[0] != found[1]:
            bad = True
            diff = sorted(k for k in counts if found[0][k] != found[1][k])
            print(f"{workload} seed {seed}: per-layer counts differ: {diff}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
