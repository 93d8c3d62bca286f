"""The four workloads: inputs made from a seed, the calls that are timed,
their traced replays, and the checks of their outputs.

An instance is one run_instance call (sweep, entropy, large), one grow_all
graph or one check_bipartition plus build_rsg_bipartite_core graph
(general).  A round is a fixed mix of instances; a run repeats rounds with
fresh inputs.  Traced replays make the same public calls in the same order
as run_instance, run_sweep and grow_all, with a span around each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import vcspace as v
from vcspace import experiments

import checks
from spans import Tracer

UNFROZEN = int(v.NodeState.UNFROZEN)
THRESHOLD = experiments.DEFAULT_BIG_RATIO_THRESHOLD
SEED_STRIDE = 10**7   # instance seeds of --seed s lie in [s * SEED_STRIDE, (s + 1) * SEED_STRIDE)
STREAM = 10**5        # each input stream of a run gets its own block of seeds


@dataclass(frozen=True)
class Bipartite:
    """One run_instance call."""
    n1: int
    n2: int
    c: float
    seed: int
    entropy: str
    instances = 1


@dataclass(frozen=True)
class Sweep:
    """One run_sweep call writing both CSVs."""
    config: v.RunConfig
    rows_path: str
    agg_path: str

    @property
    def instances(self) -> int:
        return len(self.config.c_values) * self.config.instances


@dataclass(frozen=True)
class Grow:
    """grow_all on G(n, c/n)."""
    n: int
    c: float
    seed: int
    instances = 1


@dataclass(frozen=True)
class Core:
    """check_bipartition and build_rsg_bipartite_core on G(n, c/n)."""
    n: int
    c: float
    seed: int
    instances = 1


# ---------------------------------------------------------------------------
# inputs


def has_bipartite_core(spec: Core) -> bool:
    g = v.generate_random_graph(spec.n, spec.c / spec.n, spec.seed)
    core, _ = checks.leaf_removal(spec.n, g.edges)
    return checks.is_bipartite(core, g.edges)


def unfrozen_share(spec: Bipartite) -> float:
    g, _ = v.generate_random_bipartite(v.EnsembleParams(spec.n1, spec.n2, spec.c, spec.seed))
    return checks.BipartiteTruth(spec.n1, spec.n2, g.edges).unfrozen_count / g.node_count


def interleave(many: list, few: list) -> list:
    """`many` spread evenly between the items of `few`.

    The machine's speed drifts over seconds, so the instances whose times
    decide the median are spread over the whole round, not run back to back.
    """
    out = []
    share = len(many) / len(few)
    for i, item in enumerate(few):
        out += many[round(i * share):round((i + 1) * share)]
        out.append(item)
    return out


def next_seed(start: int, accept) -> int:
    """The first seed from `start` on whose input `accept` takes."""
    seed = start
    while not accept(seed):
        seed += 1
    return seed


class Workload:
    """Rounds of instances for one --seed; round(r) is called for r = 0, 1, ..."""

    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_STRIDE
        self.workdir = workdir

    def round(self, r: int) -> list:
        raise NotImplementedError


class SweepWorkload(Workload):
    """run_sweep at n = 2000 (1:1), entropy 'none', c = 1..7, two seeds per c."""

    name = "sweep"
    trace_rounds = 8
    C_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    PER_C = 2

    def round(self, r):
        config = v.RunConfig(1000, 1000, self.C_VALUES, self.PER_C,
                             base_seed=self.base + r * self.PER_C, entropy="none")
        stem = self.workdir / f"sweep-{r}"
        return [Sweep(config, f"{stem}.rows.csv", f"{stem}.agg.csv")]


class EntropyWorkload(Workload):
    """run_instance(entropy='full') at n = 1000.

    Per round: 22 tree-like instances at c = 1; at each core-emergence c one
    seed-drawn instance with fewer than half of its nodes unfrozen (the
    typical case) and the two panel instances; at c = 7 one seed-drawn
    instance of each kind.

    At c = 7 about half of all seeds leave every node unfrozen, and counting
    then takes seconds instead of milliseconds; drawing each kind from its
    own seed stream keeps every round's mix the same.  In the core region
    the mostly-unfrozen instances are rarer and their counting time is
    heavy-tailed (0.2 s median, 4.5 s maximum over 120 seeds), so they come
    from a fixed panel: for each c the first two seeds from 0 with at least
    half of the nodes unfrozen, the same in every round and every run.  The
    c = 1 instances are two thirds of a round, spread through it, so the
    median instance is one of them, with tens of samples per run; they cost
    about 3% of the time.
    """

    name = "entropy"
    CORE_C = (2.5, 3.25, 4.0)
    TREE_LIKE = 22

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.panel = []
        for c in self.CORE_C:
            first = self._stratum_seed(0, c, True)
            second = self._stratum_seed(first + 1, c, True)
            self.panel += [self._spec(c, first), self._spec(c, second)]
        self.cursor: dict[tuple[float, bool], int] = {}

    @staticmethod
    def _spec(c, seed):
        return Bipartite(500, 500, c, seed, "full")

    def _stratum_seed(self, start, c, mostly_unfrozen):
        return next_seed(start, lambda s: (unfrozen_share(self._spec(c, s)) >= 0.5)
                         == mostly_unfrozen)

    def _draw(self, stream, c, mostly_unfrozen):
        key = (c, mostly_unfrozen)
        start = self.cursor.get(key, self.base + stream * STREAM)
        seed = self._stratum_seed(start, c, mostly_unfrozen)
        self.cursor[key] = seed + 1
        return self._spec(c, seed)

    def round(self, r):
        first = self.base + r * self.TREE_LIKE
        tree_like = [self._spec(1.0, s) for s in range(first, first + self.TREE_LIKE)]
        out = [self._draw(1 + i, c, False) for i, c in enumerate(self.CORE_C)]
        out += [self._draw(5, 7.0, False), self._draw(6, 7.0, True)]
        return interleave(tree_like, out + self.panel)


class GeneralWorkload(Workload):
    """grow_all on G(n, 4/n), plus check_bipartition and
    build_rsg_bipartite_core on G(2000, 2/2000) graphs whose leaf-removal
    core is bipartite.

    Per round: one seed-drawn G(200, 4/200), the panel G(600, 4/600) for
    seeds 0, 1 and 2, and eight seed-drawn core graphs.  grow_all time is
    heavy-tailed (at n = 400: 0.19 s to 2.1 s over 15 seeds, coefficient of
    variation 0.8), so most of the growth work is a fixed panel, the same in
    every round and every run.  The core graphs are two thirds of a round,
    spread through it, so the median instance is one of them, with tens of
    samples per run.
    """

    name = "general"
    trace_rounds = 2
    PANEL = (0, 1, 2)
    CORE_GRAPHS = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.core_cursor = self.base + 2 * STREAM

    def round(self, r):
        cores = []
        for _ in range(self.CORE_GRAPHS):
            seed = next_seed(self.core_cursor,
                             lambda s: has_bipartite_core(Core(2000, 2.0, s)))
            self.core_cursor = seed + 1
            cores.append(Core(2000, 2.0, seed))
        grows = [Grow(200, 4.0, self.base + STREAM + r)]
        return interleave(cores, grows + [Grow(600, 4.0, s) for s in self.PANEL])


class LargeWorkload(Workload):
    """run_instance at n = 2*10^5: c = 3 without counting, c = 1 with.

    Per round one c = 3 instance and three c = 1 instances, so that the
    median of a run is the mean of two c = 1 instances rather than of the
    slower c = 1 and the faster c = 3 instance, which swung by 0.29 of its
    median over ten runs with one instance of each kind per round.
    """

    name = "large"
    COUNTED = 3

    def round(self, r):
        first = self.base + STREAM + r * self.COUNTED
        counted = [Bipartite(100_000, 100_000, 1.0, s, "full")
                   for s in range(first, first + self.COUNTED)]
        return interleave(counted, [Bipartite(100_000, 100_000, 3.0, self.base + r, "none")])


WORKLOADS = {w.name: w for w in (SweepWorkload, EntropyWorkload, GeneralWorkload, LargeWorkload)}


def warm_up_specs(name: str, workdir: Path) -> list:
    """One small instance of each kind the workload runs."""
    if name == "sweep":
        config = v.RunConfig(100, 100, (3.0,), 1, base_seed=0, entropy="none")
        return [Sweep(config, str(workdir / "warm.rows.csv"), str(workdir / "warm.agg.csv"))]
    if name == "entropy":
        return [Bipartite(100, 100, 7.0, 0, "full")]
    if name == "general":
        return [Grow(60, 4.0, 0),
                Core(200, 2.0, next_seed(0, lambda s: has_bipartite_core(Core(200, 2.0, s))))]
    return [Bipartite(1000, 1000, 3.0, 0, "none"), Bipartite(1000, 1000, 1.0, 0, "full")]


# ---------------------------------------------------------------------------
# untraced calls


def run(spec, instance_times: list):
    """Make the workload's public call(s) for one spec; append instance times."""
    if isinstance(spec, Sweep):
        inner = experiments.run_instance

        def timed(*args, **kwargs):
            start = perf_counter()
            row = inner(*args, **kwargs)
            instance_times.append(perf_counter() - start)
            return row

        experiments.run_instance = timed
        try:
            return v.run_sweep(spec.config, spec.rows_path, spec.agg_path)
        finally:
            experiments.run_instance = inner
    start = perf_counter()
    if isinstance(spec, Bipartite):
        out = v.run_instance(spec.n1, spec.n2, spec.c, spec.seed, entropy=spec.entropy)
    elif isinstance(spec, Grow):
        g = v.generate_random_graph(spec.n, spec.c / spec.n, spec.seed)
        out = (g, v.grow_all(g))
    else:
        g = v.generate_random_graph(spec.n, spec.c / spec.n, spec.seed)
        out = (g, v.check_bipartition(g), v.build_rsg_bipartite_core(g))
    instance_times.append(perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# traced replays


def run_traced(spec, tr: Tracer):
    """The same calls as run(), one span each.

    Returns the output and, for a run_instance spec, its RSG.
    """
    if isinstance(spec, Sweep):
        return _traced_sweep(spec, tr), None
    with tr.span("instance"):
        if isinstance(spec, Bipartite):
            return _traced_instance(spec, tr)
        if isinstance(spec, Grow):
            return _traced_grow(spec, tr), None
        return _traced_core(spec, tr), None


def probe_cycle_simplification(rsg, tr: Tracer) -> None:
    """The extra call that shows the share of counting spent simplifying."""
    with tr.span("core_analysis.cycle_simplification"):
        simplified = v.cycle_simplification(rsg)
    tr.count("core_analysis.simplified_nodes", simplified.rsg.state_counts()[2])


def _traced_instance(spec: Bipartite, tr: Tracer):
    """experiments.run_instance, call by call."""
    c = checks.round12(spec.c)
    params = v.EnsembleParams(spec.n1, spec.n2, c, spec.seed)
    with tr.span("graph.generate_random_bipartite"):
        g, part = v.generate_random_bipartite(params)
    with tr.span("matching.max_bipartite_matching"):
        matching = v.max_bipartite_matching(g, part)
    tr.count("matching.matched_pairs", matching.size)
    with tr.span("rsg.build_rsg_bipartite"):
        rsg = v.build_rsg_bipartite(g, part, matching)
    tr.count("rsg.unfrozen_nodes", rsg.state_counts()[2])
    n = g.node_count
    with tr.span("rsg.state_ratios"):
        q_plus, q_minus, q_zero = v.state_ratios(rsg)
    with tr.span("core_analysis.unfrozen_core"):
        core = v.unfrozen_core(rsg)
    tr.count("core_analysis.core_pairs", len(core.pairs))
    h_s = h_c = s_n = s_c = None
    if spec.entropy == "full":
        with tr.span("core_analysis.count_solutions"):
            counts = v.count_solutions(rsg)
        h_s, h_c = counts.entropy, counts.core_entropy
        s_n, s_c = counts.solution_count, counts.core_count
    elif spec.entropy == "core":
        with tr.span("core_analysis.count_core_solutions"):
            counts = v.count_core_solutions(rsg, core, n)
        h_c, s_c = counts.core_entropy, counts.core_count
    with tr.span("graph.giant_component_fraction"):
        giant = v.giant_component_fraction(g)
    with tr.span("graph.leaf_removal"):
        leaf_core = v.leaf_removal(g).core_size
    r12 = checks.round12
    row = v.InstanceRow(
        seed=spec.seed, n1=spec.n1, n2=spec.n2, c=c, m=g.edge_count,
        x=r12(rsg.min_cover_size / n),
        q_plus=r12(q_plus), q_minus=r12(q_minus), q_zero=r12(q_zero),
        giant=r12(giant), leaf_core=r12(leaf_core / n),
        unfrozen_core=r12(core.node_fraction(n)),
        h_s=None if h_s is None else r12(h_s), h_c=None if h_c is None else r12(h_c),
        s_n=s_n, s_c=s_c, big_ratio=r12(q_plus) > THRESHOLD)
    return row, rsg


def _traced_sweep(spec: Sweep, tr: Tracer):
    """experiments.run_sweep, call by call; solve_fixed_point is reached
    through aggregate_rows, so its span comes from wrapping the module's
    reference to it."""
    config = spec.config
    inner = experiments.solve_fixed_point

    def traced_fixed_point(*args, **kwargs):
        with tr.span("meanfield.solve_fixed_point"):
            return inner(*args, **kwargs)

    round_id = tr.instance
    rows = []
    with tr.span("experiments.run_sweep"):
        for c in config.c_values:
            for i in range(config.instances):
                seed = config.base_seed + i
                tr.instance = f"{round_id}/c={c}/seed={seed}"
                with tr.span("instance"):
                    row, _ = _traced_instance(
                        Bipartite(config.n1, config.n2, c, seed, config.entropy), tr)
                rows.append(row)
        tr.instance = round_id
        experiments.solve_fixed_point = traced_fixed_point
        try:
            with tr.span("experiments.aggregate_rows"):
                aggregates = experiments.aggregate_rows(rows, config)
        finally:
            experiments.solve_fixed_point = inner
        stats = experiments.EnsembleStats(config, rows, aggregates)
        with tr.span("experiments.write_csv"):
            experiments.write_rows_csv(spec.rows_path, stats)
        with tr.span("experiments.write_csv"):
            experiments.write_aggregate_csv(spec.agg_path, stats)
    return stats


def _traced_grow(spec: Grow, tr: Tracer):
    """ke_growth.grow_all with the default order, step by step."""
    with tr.span("graph.generate_random_graph"):
        g = v.generate_random_graph(spec.n, spec.c / spec.n, spec.seed)
    with tr.span("ke_growth.bipartite_seed"):
        state = v.bipartite_seed(g)
    for u, w in list(state.pending):
        both_unfrozen = (state.rsg.state[u] == UNFROZEN and state.rsg.state[w] == UNFROZEN)
        with tr.span("ke_growth.grow_step", "odd_cycle" if both_unfrozen else ""):
            state = v.grow_step(state, (u, w))
        tr.count("ke_growth.steps", 1)
        tr.count("ke_growth.odd_cycle_steps", both_unfrozen)
    tr.count("ke_growth.contraction_freezes", state.contraction_freezes)
    tr.count("rsg.unfrozen_nodes", state.rsg.state_counts()[2])
    return g, state


def _traced_core(spec: Core, tr: Tracer):
    with tr.span("graph.generate_random_graph"):
        g = v.generate_random_graph(spec.n, spec.c / spec.n, spec.seed)
    with tr.span("graph.check_bipartition"):
        part = v.check_bipartition(g)
    with tr.span("rsg.build_rsg_bipartite_core"):
        rsg = v.build_rsg_bipartite_core(g)
    tr.count("rsg.unfrozen_nodes", rsg.state_counts()[2])
    return g, part, rsg


# ---------------------------------------------------------------------------
# outputs: comparable summaries and checks


def summary(spec, out):
    """Plain data that must be equal between a traced and an untraced call."""
    if isinstance(spec, Bipartite):
        return out
    if isinstance(spec, Sweep):
        return out.rows, out.aggregates
    if isinstance(spec, Grow):
        _, state = out
        return (sorted(state.accepted), sorted(state.discarded), state.pending,
                state.rsg.partner.tolist(), state.rsg.state.tolist(),
                state.contraction_freezes)
    _, part, rsg = out
    coloring = part.nodes if isinstance(part, v.OddCycle) else part.side_of.tolist()
    return coloring, rsg.partner.tolist(), rsg.state.tolist()


def check(spec, out, stats: dict) -> list[str]:
    """Independent checks of one spec's output (see checks.py)."""
    if isinstance(spec, Bipartite):
        return _check_row(out, spec.entropy, stats)
    if isinstance(spec, Sweep):
        errors = []
        for row in out.rows:
            errors += _check_row(row, spec.config.entropy, stats)
        errors += checks.check_aggregates(out.rows, out.aggregates, spec.config.c_values)
        errors += checks.check_csv(spec.rows_path, experiments.ROW_COLUMNS, len(out.rows))
        errors += checks.check_csv(spec.agg_path, experiments.AGGREGATE_COLUMNS,
                                   len(spec.config.c_values))
        return errors
    if isinstance(spec, Grow):
        g, state = out
        return checks.check_ke_growth(g.edges, state.accepted, state.discarded,
                                      state.pending, state.rsg.partner,
                                      state.matching_size, state.rsg.min_cover_size)
    g, part, rsg = out
    odd = part.nodes if isinstance(part, v.OddCycle) else None
    coloring = None if odd is not None else part.side_of
    return checks.check_bipartite_core(g.node_count, g.edges, coloring, odd,
                                       rsg.partner, rsg.min_cover_size)


def _check_row(row, entropy: str, stats: dict) -> list[str]:
    g, _ = v.generate_random_bipartite(v.EnsembleParams(row.n1, row.n2, row.c, row.seed))
    truth = checks.BipartiteTruth(row.n1, row.n2, g.edges)
    errors = checks.check_instance_row(row, truth, entropy, THRESHOLD, stats)
    return [f"seed {row.seed} c={row.c}: {e}" for e in errors]
