"""Checks of vcspace outputs, computed apart from the program.

Nothing here imports vcspace.  Bipartite instances are re-derived with
scipy: a maximum matching (Konig's theorem fixes the cover size), the
Dulmage-Mendelsohn split into uncovered backbones (even-alternating
reachable from unmatched nodes), covered backbones (their neighbours) and
unfrozen nodes, and an exact count of minimum covers as closed sets of the
implication digraph on unfrozen matched pairs.  General graphs are checked
with networkx maximum matchings.

Every check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_bipartite_matching)

# a non-tree component of the condensed pair digraph is counted by branching
# when it has at most BRANCH_BLOCKS blocks (the recursion is at most twice as
# deep) and the count needs at most BRANCH_CALLS calls; otherwise only the
# bounds are checked
BRANCH_BLOCKS = 400
BRANCH_CALLS = 50_000


def round12(value: float) -> float:
    """The CSV precision the program pins every float observable to."""
    return float(format(value, ".12g"))


# ---------------------------------------------------------------------------
# bipartite instances: X1 = ids 0..n1-1, X2 = ids n1..n-1, edges (u, v), u < v


class BipartiteTruth:
    """Matching size, backbone sets and the unfrozen pair system of one graph."""

    def __init__(self, n1: int, n2: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        n = n1 + n2
        if len(edges) and ((edges[:, 0] >= n1).any() or (edges[:, 1] < n1).any()):
            raise ValueError("edges must join X1 = 0..n1-1 to X2 = n1..n-1")
        self.n1, self.n2, self.n = n1, n2, n
        self.edges = edges
        u, v = edges[:, 0], edges[:, 1]
        bi = csr_matrix((np.ones(len(edges), np.int8), (u, v - n1)), shape=(n1, n2))
        col = maximum_bipartite_matching(bi, perm_type="column")
        partner = np.full(n, -1, dtype=np.int64)
        rows = np.flatnonzero(col >= 0)
        partner[rows] = n1 + col[rows]
        partner[n1 + col[rows]] = rows
        self.partner = partner
        self.matching_size = len(rows)

        # uncovered backbones: reachable from a virtual source over
        # source -> unmatched node and x -> partner(y) for every edge (x, y)
        src, dst = [np.full(int((partner < 0).sum()), n)], [np.flatnonzero(partner < 0)]
        for a, b in ((u, v), (v, u)):
            keep = partner[b] >= 0
            src.append(a[keep])
            dst.append(partner[b[keep]])
        src, dst = np.concatenate(src), np.concatenate(dst)
        digraph = csr_matrix((np.ones(len(src), np.int8), (src, dst)), shape=(n + 1, n + 1))
        reached = breadth_first_order(digraph, n, directed=True,
                                      return_predecessors=False)
        self.uncovered = np.zeros(n, dtype=bool)
        self.uncovered[reached[reached < n]] = True
        self.covered = np.zeros(n, dtype=bool)
        self.covered[v[self.uncovered[u]]] = True
        self.covered[u[self.uncovered[v]]] = True
        if (self.covered & self.uncovered).any():
            raise AssertionError("alternating path joins two unmatched nodes: "
                                 "the scipy matching is not maximum")
        self.unfrozen = ~(self.covered | self.uncovered)

    @property
    def unfrozen_count(self) -> int:
        return int(self.unfrozen.sum())

    def pair_arcs(self) -> tuple[int, np.ndarray]:
        """Unfrozen matched pairs as variables and their implication arcs.

        Variable t_p is true when the X1 end of pair p is covered.  A single
        edge (u, v) between unfrozen nodes demands u or v covered, that is
        t_q => t_p for u in pair p and v in pair q: arc q -> p.
        """
        n1 = self.n1
        ends = np.flatnonzero(self.unfrozen[:n1])
        pid = np.full(self.n, -1, dtype=np.int64)
        pid[ends] = np.arange(len(ends))
        pid[self.partner[ends]] = np.arange(len(ends))
        u, v = self.edges[:, 0], self.edges[:, 1]
        live = self.unfrozen[u] & self.unfrozen[v] & (self.partner[u] != v)
        arcs = np.stack([pid[v[live]], pid[u[live]]], axis=1)
        return len(ends), arcs


def count_closed_sets(k: int, arcs: np.ndarray):
    """Number of subsets of k variables closed under arcs (s in => d in).

    Strongly connected blocks take one value, so the count is a product over
    the weak components of the condensed digraph: a tree component is
    counted by dynamic programming, another one by branching.  Returns None
    when some component is too large to branch on.
    """
    if k == 0:
        return 1
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    graph = csr_matrix((np.ones(len(arcs), np.int8), (arcs[:, 0], arcs[:, 1])), shape=(k, k))
    n_blocks, block = connected_components(graph, directed=True, connection="strong")
    cond = np.unique(block[arcs], axis=0) if len(arcs) else np.zeros((0, 2), np.int64)
    cond = cond[cond[:, 0] != cond[:, 1]]
    cgraph = csr_matrix((np.ones(len(cond), np.int8), (cond[:, 0], cond[:, 1])),
                        shape=(n_blocks, n_blocks))
    n_comp, comp = connected_components(cgraph, directed=False)
    sizes = np.bincount(comp, minlength=n_comp)
    arc_comp = comp[cond[:, 0]]
    arcs_per_comp = np.bincount(arc_comp, minlength=n_comp)
    # an isolated block is free: a factor of 2 each
    total = 1 << int(((sizes == 1) & (arcs_per_comp == 0)).sum())
    blocks_by_comp = np.argsort(comp, kind="stable")
    block_start = np.concatenate([[0], np.cumsum(sizes)])
    arcs_by_comp = cond[np.argsort(arc_comp, kind="stable")]
    arc_start = np.concatenate([[0], np.cumsum(arcs_per_comp)])
    for c in np.flatnonzero(arcs_per_comp > 0):
        members = blocks_by_comp[block_start[c]:block_start[c + 1]]
        local = {int(b): i for i, b in enumerate(members)}
        comp_arcs = [(local[int(s)], local[int(d)])
                     for s, d in arcs_by_comp[arc_start[c]:arc_start[c + 1]]]
        if len(comp_arcs) == len(members) - 1:
            total *= _count_tree(len(members), comp_arcs)
            continue
        count = _count_by_branching(len(members), comp_arcs)
        if count is None:
            return None
        total *= count
    return total


def _count_tree(b: int, arcs: list[tuple[int, int]]) -> int:
    """Closed sets of a digraph whose underlying graph is a tree."""
    nbrs: list[list[tuple[int, bool]]] = [[] for _ in range(b)]
    for s, d in arcs:
        nbrs[s].append((d, True))   # s in forces d in
        nbrs[d].append((s, False))  # d out forces s out
    order, parent, seen = [], [-1] * b, [False] * b
    queue = deque([0])
    seen[0] = True
    while queue:
        x = queue.popleft()
        order.append(x)
        for y, _ in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                queue.append(y)
    out_count, in_count = [1] * b, [1] * b
    for x in reversed(order):
        for y, x_forces_y in nbrs[x]:
            if parent[y] != x:
                continue
            both = out_count[y] + in_count[y]
            if x_forces_y:      # x in => y in
                out_count[x] *= both
                in_count[x] *= in_count[y]
            else:               # y in => x in
                out_count[x] *= out_count[y]
                in_count[x] *= both
    return out_count[0] + in_count[0]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _TooLarge(Exception):
    pass


def _count_by_branching(b: int, arcs: list[tuple[int, int]]):
    """Closed sets of a DAG on b blocks, or None past the size or call limits.

    A block is either in, and with it every block it reaches, or out, and
    with it every block that reaches it; each case leaves a smaller DAG,
    counted again component by component.  Sets of blocks are bit masks.
    """
    if b > BRANCH_BLOCKS:
        return None
    succ, pred = [0] * b, [0] * b
    for s, d in arcs:
        succ[s] |= 1 << d
        pred[d] |= 1 << s
    indegree = [bin(p).count("1") for p in pred]
    order = [x for x in range(b) if indegree[x] == 0]
    for x in order:  # Kahn's topological order; the list grows as it is read
        for y in _bits(succ[x]):
            indegree[y] -= 1
            if indegree[y] == 0:
                order.append(y)
    down, up = [0] * b, [0] * b
    for x in reversed(order):
        down[x] = (1 << x) | _union(down, succ[x])
    for x in order:
        up[x] = (1 << x) | _union(up, pred[x])
    nbr = [succ[x] | pred[x] for x in range(b)]
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        if len(memo) >= BRANCH_CALLS:
            raise _TooLarge
        comp = frontier = mask & -mask
        while frontier:
            x = frontier.bit_length() - 1
            frontier ^= 1 << x
            new = nbr[x] & mask & ~comp
            comp |= new
            frontier |= new
        if comp != mask:
            out = count(comp) * count(mask & ~comp)
        else:
            pivot = max(_bits(mask), key=lambda x: bin(nbr[x] & mask).count("1"))
            out = count(mask & ~down[pivot]) + count(mask & ~up[pivot])
        memo[mask] = out
        return out

    try:
        return count((1 << b) - 1)
    except _TooLarge:
        return None


def _union(closure: list[int], mask: int) -> int:
    out = 0
    for y in _bits(mask):
        out |= closure[y]
    return out


def leaf_removal(n: int, edges) -> tuple[list[int], int]:
    """Remove a degree-1 node with its neighbour until none is left.

    Returns the core (nodes left with degree >= 2) and the number of removed
    (leaf, neighbour) pairs.  The core does not depend on the removal order.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        adj[a].add(b)
        adj[b].add(a)
    alive = [True] * n
    pairs = 0
    queue = deque(x for x in range(n) if len(adj[x]) == 1)
    while queue:
        leaf = queue.popleft()
        if not alive[leaf] or len(adj[leaf]) != 1:
            continue
        (support,) = adj[leaf]
        pairs += 1
        for x in (leaf, support):
            alive[x] = False
            for y in adj[x]:
                adj[y].discard(x)
                if alive[y] and len(adj[y]) == 1:
                    queue.append(y)
            adj[x] = set()
    return [x for x in range(n) if alive[x] and len(adj[x]) >= 2], pairs


def is_bipartite(nodes, edges) -> bool:
    """Two-colourability of the subgraph induced by `nodes`."""
    adj: dict[int, list[int]] = {int(x): [] for x in nodes}
    for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    side: dict[int, int] = {}
    for root in adj:
        if root in side:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in side:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return False
    return True


def giant_fraction(n: int, edges: np.ndarray) -> float:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    g = csr_matrix((np.ones(len(edges), np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, labels = connected_components(g, directed=False)
    return np.bincount(labels).max() / n


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_instance_row(row, truth: BipartiteTruth, entropy: str,
                       big_ratio_threshold: float = 0.25,
                       stats: dict | None = None) -> list[str]:
    """Compare one InstanceRow-like record with the independent truth.

    `stats`, when given, counts how many rows got an exact count check.
    """
    n = truth.n
    errors = []
    if (row.n1, row.n2) != (truth.n1, truth.n2) or row.m != len(truth.edges):
        errors.append(f"size mismatch: row ({row.n1}, {row.n2}, m={row.m}), "
                      f"graph ({truth.n1}, {truth.n2}, m={len(truth.edges)})")
        return errors
    expect = {
        "x": round12(truth.matching_size / n),
        "q_plus": round12(truth.uncovered.sum() / n),
        "q_minus": round12(truth.covered.sum() / n),
        "q_zero": round12(truth.unfrozen_count / n),
        "giant": round12(giant_fraction(n, truth.edges)),
        "leaf_core": round12(len(leaf_removal(n, truth.edges)[0]) / n),
    }
    for name, want in expect.items():
        got = getattr(row, name)
        if got != want:
            errors.append(f"{name} = {got}, independent value {want}")
    if not 0.0 <= row.unfrozen_core <= row.q_zero:
        errors.append(f"unfrozen_core {row.unfrozen_core} outside [0, q_zero]")
    if row.big_ratio != (row.q_plus > big_ratio_threshold):
        errors.append(f"big_ratio {row.big_ratio} disagrees with q_plus {row.q_plus}")
    if entropy == "none":
        if any(getattr(row, f) is not None for f in ("h_s", "h_c", "s_n", "s_c")):
            errors.append("entropy='none' row carries counts")
        return errors
    if entropy == "full":
        errors += _check_counts(row, truth, stats)
    return errors


def _check_counts(row, truth: BipartiteTruth, stats: dict | None) -> list[str]:
    n = truth.n
    errors = []
    s_n, s_c = row.s_n, row.s_c
    if not isinstance(s_n, int) or not isinstance(s_c, int):
        return [f"counts missing: s_n={s_n!r} s_c={s_c!r}"]
    pairs = truth.unfrozen_count // 2
    if not 1 <= s_n <= 1 << pairs:
        errors.append(f"s_n outside [1, 2^(unfrozen/2)] with unfrozen/2 = {pairs}")
    core_pairs = round(row.unfrozen_core * n / 2)
    if not 1 <= s_c <= min(s_n, 1 << core_pairs):
        errors.append(f"s_c outside [1, min(s_n, 2^core_pairs)], core_pairs = {core_pairs}")
    if s_n >= 1 and not _close(row.h_s, math.log2(s_n) / n):
        errors.append(f"h_s = {row.h_s}, log2(s_n)/n = {math.log2(s_n) / n}")
    if s_c >= 1 and not _close(row.h_c, math.log2(s_c) / n):
        errors.append(f"h_c = {row.h_c}, log2(s_c)/n = {math.log2(s_c) / n}")
    exact = count_closed_sets(*truth.pair_arcs())
    if exact is not None and exact != s_n:
        errors.append(f"s_n = {s_n}, independent count {exact}")
    if stats is not None:
        stats["exact_counts"] = stats.get("exact_counts", 0) + (exact is not None)
        stats["counted_rows"] = stats.get("counted_rows", 0) + 1
    return errors


def check_aggregates(rows, aggregates, c_values) -> list[str]:
    """Per-c means of the rows must match the aggregate rows."""
    errors = []
    if [a.c for a in aggregates] != list(c_values):
        return [f"aggregate c grid {[a.c for a in aggregates]} != {list(c_values)}"]
    for agg in aggregates:
        cell = [r for r in rows if r.c == agg.c]
        if agg.instances != len(cell):
            errors.append(f"c={agg.c}: {agg.instances} instances, {len(cell)} rows")
            continue
        for field in ("x", "q_plus", "q_zero", "giant", "leaf_core", "unfrozen_core"):
            want = sum(getattr(r, field) for r in cell) / len(cell)
            if not _close(getattr(agg, "mean_" + field), want):
                errors.append(f"c={agg.c}: mean_{field} {getattr(agg, 'mean_' + field)} != {want}")
        rho = sum(r.big_ratio for r in cell) / len(cell)
        if not _close(agg.rho, rho):
            errors.append(f"c={agg.c}: rho {agg.rho} != {rho}")
    return errors


def check_csv(path, header: list[str], line_count: int) -> list[str]:
    """A CSV the sweep wrote: three comment lines, the header, then the rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0].split(",") != header:
        return [f"{path}: header is not {header}"]
    if len(body) - 1 != line_count:
        return [f"{path}: {len(body) - 1} data lines, expected {line_count}"]
    return []


# ---------------------------------------------------------------------------
# general graphs


def max_matching_size(edges) -> int:
    # imported here so that a workload's peak memory does not include it
    import networkx as nx

    g = nx.Graph((int(a), int(b)) for a, b in edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


def _double_edges_form_matching(partner: np.ndarray, edge_set: set) -> list[str]:
    partner = np.asarray(partner)
    idx = np.flatnonzero(partner >= 0)
    if (partner[partner[idx]] != idx).any():
        return ["double edges are not an involution"]
    missing = [(int(a), int(partner[a])) for a in idx
               if a < partner[a] and (int(a), int(partner[a])) not in edge_set]
    return [f"double edge {missing[0]} is not an edge"] if missing else []


def check_ke_growth(host_edges, accepted, discarded, pending, partner,
                    matching_size: int, min_cover_size: int) -> list[str]:
    """A grown Konig-Egervary subgraph: partition, matching and cover sizes."""
    host = {(int(a), int(b)) for a, b in host_edges}
    accepted, discarded, pending = set(accepted), set(discarded), set(pending)
    errors = []
    if accepted & discarded or accepted & pending or discarded & pending:
        errors.append("accepted, discarded and pending overlap")
    if accepted | discarded | pending != host:
        errors.append("accepted, discarded and pending do not cover the host edges")
    if pending:
        errors.append(f"{len(pending)} edges still pending after grow_all")
    errors += _double_edges_form_matching(partner, accepted)
    if len(errors):
        return errors
    best = max_matching_size(accepted)
    if not best == matching_size == min_cover_size:
        errors.append(f"networkx maximum matching {best}, certificate matching "
                      f"{matching_size}, cover {min_cover_size}")
    return errors


def check_bipartite_core(n: int, edges, two_coloring, odd_cycle, partner,
                         min_cover_size: int) -> list[str]:
    """check_bipartition's answer and the cover size of a bipartite-core graph.

    The cover size must equal the maximum matching size.  A leaf edge lies
    in some maximum matching, so that size is the number of leaf-removal
    pairs plus the networkx maximum matching of the core.
    """
    edge_set = {(int(a), int(b)) for a, b in edges}
    errors = []
    if odd_cycle is not None:
        cyc = list(odd_cycle)
        closed = zip(cyc, cyc[1:] + cyc[:1])
        if len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc) or any(
                (min(a, b), max(a, b)) not in edge_set for a, b in closed):
            errors.append(f"odd-cycle witness of length {len(cyc)} is not an odd cycle")
    else:
        side = np.asarray(two_coloring)
        if any(side[a] == side[b] for a, b in edge_set):
            errors.append("two-coloring leaves a monochromatic edge")
    errors += _double_edges_form_matching(partner, edge_set)
    core, leaf_pairs = leaf_removal(n, edges)
    keep = set(core)
    core_edges = [(a, b) for a, b in edge_set if a in keep and b in keep]
    best = leaf_pairs + max_matching_size(core_edges)
    if best != min_cover_size:
        errors.append(f"min_cover_size {min_cover_size}, maximum matching {best}")
    return errors
