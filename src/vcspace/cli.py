"""Command-line driver.

Subcommands: gen (emit a graph file), rsg (graph -> reduced solution graph),
entropy (graph -> exact counts), sweep (ensemble -> CSVs), theory (mean-field
CSV), ke (Konig-Egervary growth report), oracle (brute-force covers).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core_analysis import brute_force_min_covers, count_solutions
from .experiments import RunConfig, format_count, run_sweep
from .graph import (BipartitePartition, EnsembleParams, Graph, OddCycle,
                    check_bipartition, generate_random_bipartite, ratio_sizes,
                    read_graph, write_graph)
from .ke_growth import grow_all
from .meanfield import theory_csv_rows
from .rsg import (ReducedSolutionGraph, build_rsg_bipartite,
                  build_rsg_bipartite_core, write_rsg)


def _c_grid(args) -> list[float]:
    if args.c is not None:
        return [args.c]
    if args.c_from is None or args.c_to is None:
        raise ValueError("either --c or --c-from/--c-to must be given")
    step = args.c_step
    if step <= 0:
        raise ValueError("--c-step must be positive")
    grid = []
    value = args.c_from
    while value <= args.c_to + 1e-9:
        grid.append(round(value, 12))
        value += step
    return grid


def _rsg_for(g: Graph, partition: Optional[BipartitePartition]) -> ReducedSolutionGraph:
    if partition is None:
        partition = check_bipartition(g)
        if isinstance(partition, OddCycle):
            return build_rsg_bipartite_core(g)
    return build_rsg_bipartite(g, partition)


def _cmd_gen(args) -> int:
    if args.ratio is not None:
        n1, n2 = ratio_sizes(args.ratio, args.n)
    else:
        n1, n2 = args.n1, args.n2
    if n1 is None or n2 is None:
        raise ValueError("give --n1/--n2 or --ratio with --n")
    params = EnsembleParams(n1, n2, args.c, args.seed)
    g, part = generate_random_bipartite(params)
    write_graph(g, args.out, part)
    print(f"wrote {args.out}: n1={n1} n2={n2} m={g.edge_count}")
    return 0


def _cmd_rsg(args) -> int:
    g, partition = read_graph(args.graph)
    rsg = _rsg_for(g, partition)
    out = args.out or (str(args.graph) + ".rsg")
    write_rsg(rsg, out)
    plus, minus, zero = rsg.state_counts()
    print(f"wrote {out}: min_cover={rsg.min_cover_size} "
          f"uncovered_backbones={plus} covered_backbones={minus} unfrozen={zero}")
    return 0


def _cmd_entropy(args) -> int:
    g, partition = read_graph(args.graph)
    rsg = _rsg_for(g, partition)
    counts = count_solutions(rsg)
    print(f"S_n={format_count(counts.solution_count)} h_s={format(counts.entropy, '.12g')}")
    print(f"S_c={format_count(counts.core_count)} h_c={format(counts.core_entropy, '.12g')}")
    return 0


def _cmd_theory(args) -> int:
    rows = theory_csv_rows(args.ratio, _c_grid(args))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    if args.ratio is not None:
        n1, n2 = ratio_sizes(args.ratio, args.n)
    else:
        n1, n2 = args.n1, args.n2
    if n1 is None or n2 is None:
        raise ValueError("give --n1/--n2 or --ratio with --n")
    config = RunConfig(
        n1=n1, n2=n2, c_values=tuple(_c_grid(args)),
        instances=args.instances, base_seed=args.seed,
        entropy=args.entropy,
        big_ratio_threshold=args.threshold,
    )
    rows_path = f"{args.out}.rows.csv"
    agg_path = f"{args.out}.agg.csv"
    stats = run_sweep(config, rows_path, agg_path)
    for agg in stats.aggregates:
        print(f"c={format(agg.c, '.12g')} mean_x={format(agg.mean_x, '.6g')} "
              f"theory_x={format(agg.theory_x, '.6g')} rho={format(agg.rho, '.4g')}")
    print(f"wrote {rows_path} and {agg_path}")
    return 0


def _cmd_ke(args) -> int:
    g, _ = read_graph(args.graph)
    state = grow_all(g, seed=args.order_seed)
    print(f"accepted {len(state.accepted)}:")
    for u, v in sorted(state.accepted):
        print(f"  {u} {v}")
    print(f"discarded {len(state.discarded)}:")
    for u, v in sorted(state.discarded):
        print(f"  {u} {v}")
    print(f"contraction_freezes {state.contraction_freezes}")
    if args.rsg_out:
        write_rsg(state.rsg, args.rsg_out)
        print(f"wrote {args.rsg_out}")
    matching = state.matching_size
    cover = state.rsg.min_cover_size
    if matching != cover:  # never expected; surface loudly rather than swallow
        print(f"ke_fail matching={matching} cover={cover}")
        return 1
    print(state.certificate_line())
    return 0


def _cmd_oracle(args) -> int:
    g, _ = read_graph(args.graph)
    size, covers = brute_force_min_covers(g, limit=args.limit)
    print(f"min_cover_size={size} count={len(covers)}")
    for cover in sorted(sorted(c) for c in covers):
        print(" ".join(str(x) for x in cover))
    return 0


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=None, help="single mean degree")
    p.add_argument("--c-from", type=float, default=None)
    p.add_argument("--c-to", type=float, default=None)
    p.add_argument("--c-step", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcspace",
        description="Minimum vertex cover solution spaces on bipartite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random bipartite graph file")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--ratio", type=str, default=None, help="n1:n2 ratio, with --n")
    p.add_argument("--n", type=int, default=2000, help="total nodes when --ratio is used")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rsg", help="reduced solution graph of a graph file")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rsg)

    p = sub.add_parser("entropy", help="exact solution counts and entropies")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("theory", help="mean-field fixed points as CSV")
    p.add_argument("--ratio", type=str, required=True, help="n1:n2 ratio")
    _add_grid_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("sweep", help="ensemble sweep, CSV output")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--ratio", type=str, default=None)
    p.add_argument("--n", type=int, default=2000)
    _add_grid_flags(p)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--entropy", choices=["full", "core", "none"], default="full",
                   help="counting per instance: full counts, core counts only, or none")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ke", help="grow a Konig-Egervary subgraph")
    p.add_argument("graph")
    p.add_argument("--order-seed", type=int, default=None,
                   help="shuffle the pending-edge order with this seed")
    p.add_argument("--rsg-out", default=None)
    p.set_defaults(func=_cmd_ke)

    p = sub.add_parser("oracle", help="brute-force minimum covers (small graphs)")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_oracle)
    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point returning an exit code (0 ok, 1 failure, 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
