"""Ensemble experiments: per-instance observables, aggregation, CSV emission."""

from __future__ import annotations

import decimal
import statistics
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Optional, Sequence

from .core_analysis import count_core_solutions, count_solutions, unfrozen_core
from .graph import (EnsembleParams, generate_random_bipartite,
                    giant_component_fraction, leaf_removal)
from .matching import max_bipartite_matching
from .meanfield import solve_fixed_point
from .rsg import build_rsg_bipartite, state_ratios

DEFAULT_BIG_RATIO_THRESHOLD = 0.25


ENTROPY_MODES = ("full", "core", "none")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one sweep; serialized into every CSV header.

    entropy selects the counting work per instance: "full" computes the total
    and core solution counts, "core" only the core count (cheap even in the
    clustered regime), "none" skips counting.
    """

    n1: int
    n2: int
    c_values: tuple[float, ...]
    instances: int
    base_seed: int
    entropy: str = "full"
    big_ratio_threshold: float = DEFAULT_BIG_RATIO_THRESHOLD

    def __post_init__(self):
        # pin c values to the CSV precision so row/aggregate round-trips are exact
        object.__setattr__(self, "c_values",
                           tuple(float(format(c, ".12g")) for c in self.c_values))
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be >= 1")
        if not self.c_values:
            raise ValueError("at least one c value required")
        if any(c < 0 for c in self.c_values):
            raise ValueError("c values must be non-negative")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.entropy not in ENTROPY_MODES:
            raise ValueError(f"entropy must be one of {ENTROPY_MODES}")
        if not 0 < self.big_ratio_threshold < 1:
            raise ValueError("big-ratio threshold must be in (0, 1)")
        # every c must be feasible for the sizes
        for c in self.c_values:
            EnsembleParams(self.n1, self.n2, c, 0)

    def header_line(self) -> str:
        cs = ";".join(format(c, ".12g") for c in self.c_values)
        return (f"# config: n1={self.n1} n2={self.n2} c={cs} "
                f"instances={self.instances} base_seed={self.base_seed} "
                f"entropy={self.entropy} "
                f"big_ratio_threshold={format(self.big_ratio_threshold, '.12g')}")


@dataclass(frozen=True)
class InstanceRow:
    """Observables of one generated instance."""

    seed: int
    n1: int
    n2: int
    c: float
    m: int
    x: float
    q_plus: float
    q_minus: float
    q_zero: float
    giant: float
    leaf_core: float
    unfrozen_core: float
    h_s: Optional[float]
    h_c: Optional[float]
    s_n: Optional[int]
    s_c: Optional[int]
    big_ratio: bool


@dataclass(frozen=True)
class AggregateRow:
    """Mean/standard-error summary of the rows sharing one (n1, n2, c)."""

    n1: int
    n2: int
    c: float
    c1: float
    c2: float
    instances: int
    mean_x: float
    se_x: float
    mean_q_plus: float
    se_q_plus: float
    mean_q_zero: float
    se_q_zero: float
    mean_giant: float
    se_giant: float
    mean_leaf_core: float
    se_leaf_core: float
    mean_unfrozen_core: float
    se_unfrozen_core: float
    mean_h_s: Optional[float]
    median_h_c: Optional[float]
    rho: float
    theory_Q: float
    theory_x: float
    theory_q_plus: float
    theory_q_zero: float
    theory_residual: float


@dataclass
class EnsembleStats:
    config: RunConfig
    rows: list[InstanceRow]
    aggregates: list[AggregateRow]


def _round12(value: Optional[float]) -> Optional[float]:
    # rows are aggregated after CSV round-trips, so pin floats to CSV precision
    return value if value is None else float(format(value, ".12g"))


def run_instance(n1: int, n2: int, c: float, seed: int,
                 entropy: str = "full",
                 big_ratio_threshold: float = DEFAULT_BIG_RATIO_THRESHOLD
                 ) -> InstanceRow:
    """Generate one instance and run the full analysis pipeline on it."""
    c = _round12(c)
    params = EnsembleParams(n1, n2, c, seed)
    g, part = generate_random_bipartite(params)
    matching = max_bipartite_matching(g, part)
    rsg = build_rsg_bipartite(g, part, matching)
    n = g.node_count
    q_plus, q_minus, q_zero = state_ratios(rsg)
    core = unfrozen_core(rsg)
    h_s = h_c = None
    s_n = s_c = None
    if entropy == "full":
        counts = count_solutions(rsg)
        h_s, h_c = counts.entropy, counts.core_entropy
        s_n, s_c = counts.solution_count, counts.core_count
    elif entropy == "core":
        counts = count_core_solutions(rsg, core, n)
        h_c = counts.core_entropy
        s_c = counts.core_count
    return InstanceRow(
        seed=seed, n1=n1, n2=n2, c=c, m=g.edge_count,
        x=_round12(rsg.min_cover_size / n),
        q_plus=_round12(q_plus), q_minus=_round12(q_minus), q_zero=_round12(q_zero),
        giant=_round12(giant_component_fraction(g)),
        leaf_core=_round12(leaf_removal(g).core_size / n),
        unfrozen_core=_round12(core.node_fraction(n)),
        h_s=_round12(h_s), h_c=_round12(h_c), s_n=s_n, s_c=s_c,
        big_ratio=_round12(q_plus) > big_ratio_threshold,
    )


def classify_big_ratio(rows: Sequence[InstanceRow],
                       threshold: float = DEFAULT_BIG_RATIO_THRESHOLD) -> float:
    """Fraction of instances whose uncovered-backbone ratio exceeds threshold.

    All rows must share one (n1, n2, c) cell.
    """
    if not rows:
        raise ValueError("no rows to classify")
    cells = {(r.n1, r.n2, r.c) for r in rows}
    if len(cells) != 1:
        raise ValueError(f"rows span several cells: {sorted(cells)}")
    return sum(1 for r in rows if r.q_plus > threshold) / len(rows)


def _mean_se(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, statistics.stdev(values) / len(values) ** 0.5


def aggregate_rows(rows: Sequence[InstanceRow], config: RunConfig) -> list[AggregateRow]:
    """Recompute the per-c aggregates from instance rows (pure function)."""
    out = []
    for c in config.c_values:
        cell = [r for r in rows if r.c == c]
        if not cell:
            raise ValueError(f"no rows for c={c}")
        params = EnsembleParams(config.n1, config.n2, c, 0)
        theory = solve_fixed_point(params.c1, params.c2)
        mean_x, se_x = _mean_se([r.x for r in cell])
        mean_qp, se_qp = _mean_se([r.q_plus for r in cell])
        mean_qz, se_qz = _mean_se([r.q_zero for r in cell])
        mean_g, se_g = _mean_se([r.giant for r in cell])
        mean_lc, se_lc = _mean_se([r.leaf_core for r in cell])
        mean_uc, se_uc = _mean_se([r.unfrozen_core for r in cell])
        mean_h_s: Optional[float] = None
        median_h_c: Optional[float] = None
        if config.entropy == "full":
            mean_h_s = statistics.fmean([r.h_s for r in cell])
        if config.entropy in ("full", "core"):
            median_h_c = statistics.median([r.h_c for r in cell])
        out.append(AggregateRow(
            n1=config.n1, n2=config.n2, c=c, c1=params.c1, c2=params.c2,
            instances=len(cell),
            mean_x=mean_x, se_x=se_x,
            mean_q_plus=mean_qp, se_q_plus=se_qp,
            mean_q_zero=mean_qz, se_q_zero=se_qz,
            mean_giant=mean_g, se_giant=se_g,
            mean_leaf_core=mean_lc, se_leaf_core=se_lc,
            mean_unfrozen_core=mean_uc, se_unfrozen_core=se_uc,
            mean_h_s=mean_h_s, median_h_c=median_h_c,
            rho=classify_big_ratio(cell, config.big_ratio_threshold),
            theory_Q=theory.Q, theory_x=theory.x,
            theory_q_plus=theory.q_plus, theory_q_zero=theory.q_zero,
            theory_residual=theory.residual,
        ))
    return out


def run_sweep(config: RunConfig,
              rows_path=None, aggregate_path=None) -> EnsembleStats:
    """Run `instances` seeds at every c in the grid.

    Per-instance seeds are base_seed + instance index (the same seed list is
    reused at each c).  Any per-instance failure aborts the sweep with the
    failing seed in the exception message.
    """
    rows: list[InstanceRow] = []
    for c in config.c_values:
        for i in range(config.instances):
            seed = config.base_seed + i
            try:
                rows.append(run_instance(
                    config.n1, config.n2, c, seed,
                    entropy=config.entropy,
                    big_ratio_threshold=config.big_ratio_threshold))
            except Exception as exc:
                raise RuntimeError(
                    f"sweep aborted at c={c} seed={seed}: {exc}") from exc
    stats = EnsembleStats(config, rows, aggregate_rows(rows, config))
    if rows_path is not None:
        write_rows_csv(rows_path, stats)
    if aggregate_path is not None:
        write_aggregate_csv(aggregate_path, stats)
    return stats


# ---------------------------------------------------------------------------
# CSV serialization: floats at 12 significant digits, counts as decimal strings


def format_count(value: int) -> str:
    """Decimal digits of an integer of any size.

    str() refuses ints above 4300 digits (sys.get_int_max_str_digits), which
    exact counts pass at n ~ 10^5; the decimal module converts with no cap.
    """
    return format(decimal.Decimal(value), "f")


def parse_count(text: str) -> int:
    """Inverse of format_count, with no digit cap either."""
    return int(decimal.Decimal(text))


def _fmt(value, spec=".12g") -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, spec)
    return format_count(value)


ROW_COLUMNS = [f.name for f in fields(InstanceRow)]
AGGREGATE_COLUMNS = [f.name for f in fields(AggregateRow)]


def _header(stats: EnsembleStats, kind: str) -> list[str]:
    return [
        f"# vcspace {kind}",
        stats.config.header_line(),
        f"# generated_at = {datetime.now(timezone.utc).isoformat()}",
    ]


def write_rows_csv(path, stats: EnsembleStats) -> None:
    lines = _header(stats, "instance rows")
    lines.append(",".join(ROW_COLUMNS))
    for r in stats.rows:
        lines.append(",".join(_fmt(getattr(r, col)) for col in ROW_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_aggregate_csv(path, stats: EnsembleStats) -> None:
    lines = _header(stats, "aggregates")
    lines.append(",".join(AGGREGATE_COLUMNS))
    for r in stats.aggregates:
        lines.append(",".join(_fmt(getattr(r, col)) for col in AGGREGATE_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows_csv(path) -> list[InstanceRow]:
    """Parse a rows CSV back into InstanceRow values (for re-aggregation)."""
    rows = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    if header != ROW_COLUMNS:
        raise ValueError(f"unexpected columns: {header}")
    for ln in lines[1:]:
        if not ln:
            continue
        vals = dict(zip(header, ln.split(",")))
        rows.append(InstanceRow(
            seed=int(vals["seed"]), n1=int(vals["n1"]), n2=int(vals["n2"]),
            c=float(vals["c"]), m=int(vals["m"]), x=float(vals["x"]),
            q_plus=float(vals["q_plus"]), q_minus=float(vals["q_minus"]),
            q_zero=float(vals["q_zero"]), giant=float(vals["giant"]),
            leaf_core=float(vals["leaf_core"]),
            unfrozen_core=float(vals["unfrozen_core"]),
            h_s=float(vals["h_s"]) if vals["h_s"] else None,
            h_c=float(vals["h_c"]) if vals["h_c"] else None,
            s_n=parse_count(vals["s_n"]) if vals["s_n"] else None,
            s_c=parse_count(vals["s_c"]) if vals["s_c"] else None,
            big_ratio=vals["big_ratio"] == "1",
        ))
    return rows
