"""Unfrozen-core extraction, cycle simplification, and exact solution counting.

The unfrozen part of a reduced solution graph decomposes into double-edge
pairs (every unfrozen node sits in exactly one double edge).  Each pair is a
binary variable (which end is covered) and every single edge between
unfrozen nodes is an at-least-one-covered clause between two pairs.  Counting
minimum covers is exact counting over that clause system.  Cycle
simplification is SCC contraction of the implication digraph among unfrozen
nodes: each strongly connected class takes one value in every solution.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._kernels import UNFROZEN, build_csr, leaf_removal_peel
from .graph import Graph
from .rsg import ReducedSolutionGraph


class CountIntractableError(RuntimeError):
    """A residual component after simplification and peeling is too large."""


class BruteForceLimitError(RuntimeError):
    """Exhaustive cover search exceeded its enumeration limit."""


class CorruptedRsgError(ValueError):
    """Cycle simplification found structure a consistent RSG cannot contain."""


RESIDUAL_WORK_BUDGET = 500_000  # branch nodes one count may spend on stuck components


@dataclass
class UnfrozenCore:
    """Residual of pair-level leaf removal on the unfrozen part of an RSG.

    Pairs are the vertices (every unfrozen node sits in exactly one double
    edge) and two pairs are adjacent when a single edge constrains them.  A
    leaf is a pair with at most one neighbouring pair; leaf removal deletes
    it together with its support, so the residual has pair-degree >= 2.
    """

    pairs: list[tuple[int, int]]
    single_edges: list[tuple[int, int]]

    @cached_property
    def nodes(self) -> np.ndarray:
        flat = sorted({x for p in self.pairs for x in p})
        return np.array(flat, dtype=np.int32)

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def node_fraction(self, n_total: int) -> float:
        return 2 * len(self.pairs) / n_total if n_total else 0.0


@dataclass(frozen=True)
class CountResult:
    """Exact counts; entropies are normalized by the original node count."""

    solution_count: int
    core_count: int
    n_total: int

    @property
    def entropy(self) -> float:
        return _log2_big(self.solution_count) / self.n_total if self.n_total else 0.0

    @property
    def core_entropy(self) -> float:
        return _log2_big(self.core_count) / self.n_total if self.n_total else 0.0


@dataclass
class SimplifiedRSG:
    """RSG after cycle simplification plus the node relabelling that produced it.

    merge_map sends each original node to (super-node id, parity); parity is 0
    when the image is the lower end of its (super-)double edge, 0 as well for
    nodes without one.
    """

    rsg: ReducedSolutionGraph
    merge_map: dict[int, tuple[int, int]]

    @property
    def is_identity(self) -> bool:
        return all(new == old for old, (new, _) in self.merge_map.items())


def _log2_big(value: int) -> float:
    if value <= 0:
        raise ValueError("count must be positive")
    bits = value.bit_length()
    if bits <= 53:
        return math.log2(value)
    shift = bits - 53
    return math.log2(value >> shift) + shift


# ---------------------------------------------------------------------------
# pair-system extraction


def _system_partner(rsg: ReducedSolutionGraph) -> np.ndarray:
    """rsg.partner on unfrozen nodes, -1 on frozen ones."""
    return np.where(rsg.state == UNFROZEN, rsg.partner, -1)


def _unfrozen_pair_ends(rsg: ReducedSolutionGraph) -> np.ndarray:
    """Lower ends of the unfrozen double edges, in increasing order."""
    partner = rsg.partner
    return np.flatnonzero((partner > np.arange(len(partner))) & (rsg.state == UNFROZEN))


def _unfrozen_singles(rsg: ReducedSolutionGraph):
    """Ends of the single edges between unfrozen nodes, in host edge order."""
    unfrozen = rsg.state == UNFROZEN
    edges = rsg.host.edges
    u, v = edges[:, 0], edges[:, 1]
    keep = (rsg.partner[u] != v) & unfrozen[u] & unfrozen[v]
    return u[keep], v[keep]


def unfrozen_core(rsg: ReducedSolutionGraph) -> UnfrozenCore:
    """Leaf-removal on the pair graph of the unfrozen part."""
    lower = _unfrozen_pair_ends(rsg)
    upper = rsg.partner[lower]
    n_pairs = len(lower)
    if n_pairs == 0:
        return UnfrozenCore([], [])
    pid = np.full(rsg.host.node_count, -1, dtype=np.int64)
    pid[lower] = np.arange(n_pairs)
    pid[upper] = np.arange(n_pairs)
    su, sv = _unfrozen_singles(rsg)
    pu, pv = pid[su], pid[sv]
    lo = np.minimum(pu, pv)
    hi = np.maximum(pu, pv)
    keys = np.unique(lo * n_pairs + hi)
    pair_edges = np.stack([keys // n_pairs, keys % n_pairs], axis=1)
    indptr, indices = build_csr(n_pairs, pair_edges)
    alive, _ = leaf_removal_peel(indptr, indices, n_pairs)
    core_lower, core_upper = lower[alive], upper[alive]
    in_core = np.zeros(rsg.host.node_count, dtype=bool)
    in_core[core_lower] = True
    in_core[core_upper] = True
    keep = in_core[su] & in_core[sv]
    return UnfrozenCore(list(zip(core_lower.tolist(), core_upper.tolist())),
                        list(zip(su[keep].tolist(), sv[keep].tolist())))


# ---------------------------------------------------------------------------
# cycle simplification: SCC contraction of the implication digraph


def _contract_pair_system(partner: np.ndarray, su: np.ndarray, sv: np.ndarray):
    """Contract the strongly connected classes of a pair system's implications.

    partner[x] is the double-edge mate of x, or -1 for a node outside the
    system; (su[i], sv[i]) are the single edges.  A single (x, y) says x and y
    are not both uncovered, so "x uncovered" implies "partner(y) uncovered":
    arcs x -> partner(y) and y -> partner(x).  The nodes of one strongly
    connected class share a value in every solution, and partner maps each
    class onto its mirror class.

    Returns (rep, a, b): rep[x] is the smallest id in x's class (x itself
    outside the system), and (a[i], b[i]) with a < b are the distinct singles
    between representatives.  Singles between a class and its mirror are
    implied by the contracted double edge and dropped.
    """
    n = len(partner)
    src = np.concatenate([su, sv])
    dst = partner[np.concatenate([sv, su])]
    digraph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    _, labels = connected_components(digraph, directed=True, connection="strong")
    _, first = np.unique(labels, return_index=True)
    rep = first[labels]
    inside = np.flatnonzero(partner >= 0)
    clash = inside[rep[partner[inside]] == rep[inside]]
    if len(clash):
        raise CorruptedRsgError(f"node {clash[0]} shares a value class with its partner")
    ra, rb = rep[su], rep[sv]
    clash = np.flatnonzero(ra == rb)
    if len(clash):
        raise CorruptedRsgError(
            f"single edge inside one value class at node {su[clash[0]]}")
    keep = rep[partner[ra]] != rb
    keys = np.unique(np.minimum(ra, rb)[keep] * n + np.maximum(ra, rb)[keep])
    return rep, keys // n, keys % n


def cycle_simplification(rsg: ReducedSolutionGraph) -> SimplifiedRSG:
    """SCC contraction of the implication digraph among unfrozen nodes.

    Each strongly connected class (see `_contract_pair_system`) becomes one
    super-node named by its smallest id, and its double edge joins it to its
    mirror class.  This merges every alternating double/single cycle among
    unfrozen nodes.  Cycles through frozen (backbone) double edges are left in
    place: frozen values are fixed, so they do not change the count.

    The solution count is invariant: the nodes of one class take a common
    value in every consistent assignment, so collapsing each class to a
    super-node is a bijection on solutions.
    """
    n = rsg.host.node_count
    rep, _, _ = _contract_pair_system(_system_partner(rsg), *_unfrozen_singles(rsg))
    kept = np.flatnonzero(rep == np.arange(n))  # frozen nodes and representatives
    k = len(kept)
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[kept] = np.arange(k)
    image = new_id[rep]

    partnered = np.flatnonzero(rsg.partner >= 0)
    partner_new = np.full(k, -1, dtype=np.int32)
    partner_new[image[partnered]] = image[rsg.partner[partnered]]

    # singles mapped onto a double edge dedupe away: the double implies them
    eu, ev = image[rsg.host.edges[:, 0]], image[rsg.host.edges[:, 1]]
    clash = np.flatnonzero(eu == ev)
    if len(clash):
        u, v = rsg.host.edges[clash[0]]
        raise CorruptedRsgError(f"edge ({u}, {v}) collapsed to a self-edge")
    keys = np.unique(np.minimum(eu, ev) * k + np.maximum(eu, ev))
    host_new = Graph(k, np.stack([keys // k, keys % k], axis=1))
    out = ReducedSolutionGraph(host_new, rsg.state[kept], partner_new)

    mate = partner_new[image]
    parity = (mate >= 0) & (image > mate)
    merge_map = dict(enumerate(zip(image.tolist(), parity.astype(int).tolist())))
    return SimplifiedRSG(out, merge_map)


def expand_assignment(covered_simplified: frozenset[int],
                      merge_map: dict[int, tuple[int, int]]) -> frozenset[int]:
    """Pull a simplified-RSG assignment back to the original node set."""
    return frozenset(u for u, (img, _) in merge_map.items()
                     if img in covered_simplified)


# ---------------------------------------------------------------------------
# counting


def _count_pair_system(partner: np.ndarray, su: np.ndarray, sv: np.ndarray) -> int:
    """Exact number of pair orientations satisfying all single-edge clauses.

    The arguments describe a pair system as in `_contract_pair_system`.
    """
    rep, a, b = _contract_pair_system(partner, su, sv)
    nodes = np.flatnonzero(partner >= 0)
    reps = nodes[rep[nodes] == nodes]
    mates = rep[partner[reps]]
    lower, upper = reps[reps < mates], mates[reps < mates]
    n_pairs = len(lower)
    pid = np.zeros(len(partner), dtype=np.int64)
    pid[lower] = pid[upper] = np.arange(n_pairs)
    side = np.zeros(len(partner), dtype=np.int64)
    side[upper] = 1
    adj: dict[int, dict[int, list[tuple[int, int]]]] = {i: {} for i in range(n_pairs)}
    for p, sp, q, sq in zip(pid[a].tolist(), side[a].tolist(),
                            pid[b].tolist(), side[b].tolist()):
        adj[p].setdefault(q, []).append((sp, sq))
        adj[q].setdefault(p, []).append((sq, sp))
    weights = {i: (1, 1) for i in range(n_pairs)}
    return _count_system(adj, weights, [RESIDUAL_WORK_BUDGET])


def _count_system(adj: dict[int, dict[int, list[tuple[int, int]]]],
                  weights: dict[int, tuple[int, int]], budget: list[int]) -> int:
    """Peel-order DP with branch-and-decompose for the stuck remainder.

    Leaf pairs (at most one neighbouring pair) are absorbed into their
    neighbour as unary weights.  Whatever remains has pair-degree >= 2; each
    stuck component branches on a high-degree pair, unit-propagates, and
    recurses on the rest (assignments re-expose leaves, so each level peels
    further and splits into components again).  Consumes adj and weights.
    """
    total = 1
    queue = deque(p for p in adj if len(adj[p]) <= 1)
    removed: set[int] = set()
    while queue:
        p = queue.popleft()
        if p in removed or len(adj[p]) > 1:
            continue
        removed.add(p)
        wp = weights[p]
        if not adj[p]:
            total *= wp[0] + wp[1]
            continue
        (q, cls), = adj[p].items()
        wq = weights[q]
        new_wq = []
        for b in (0, 1):
            factor = 0
            for a in (0, 1):
                if all(a == sp or b == sq for sp, sq in cls):
                    factor += wp[a]
            new_wq.append(wq[b] * factor)
        weights[q] = (new_wq[0], new_wq[1])
        del adj[q][p]
        adj[p] = {}
        if len(adj[q]) <= 1:
            queue.append(q)
    residual = [p for p in adj if p not in removed]
    if not residual:
        return total
    for comp in _components(residual, adj):
        total *= _count_stuck_component(comp, adj, weights, budget)
    return total


def _components(vars_: list[int], adj) -> list[list[int]]:
    comps = []
    seen: set[int] = set()
    for start in vars_:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def _propagate_assignment(adj, weights, start: int, val: int):
    """Assign start=val and unit-propagate.  Returns (factor, assigned) or None."""
    assign = {start: val}
    factor = weights[start][val]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y, cls in adj[x].items():
            for sx, sy in cls:
                if assign[x] == sx:
                    continue
                if y in assign:
                    if assign[y] != sy:
                        return None
                else:
                    assign[y] = sy
                    factor *= weights[y][sy]
                    queue.append(y)
    return factor, assign


def _count_stuck_component(comp: list[int], adj, weights, budget: list[int]) -> int:
    """Branch on the highest-degree pair; each value propagates and re-peels.

    After the peel in `_count_system`, every neighbour of a residual pair is
    residual and in the same component, so adj is read without filtering.
    Each call spends one unit of the shared branch-node budget.
    """
    budget[0] -= 1
    if budget[0] < 0:
        raise CountIntractableError(
            f"count intractable: branching budget exhausted on a stuck "
            f"component of {len(comp)} pair variables")
    pivot = max(comp, key=lambda p: (len(adj[p]), -p))
    subtotal = 0
    for val in (0, 1):
        outcome = _propagate_assignment(adj, weights, pivot, val)
        if outcome is None:
            continue
        factor, assign = outcome
        # surviving propagation means the clauses into assigned pairs hold
        rest_adj = {p: {q: cls for q, cls in adj[p].items() if q not in assign}
                    for p in comp if p not in assign}
        rest_weights = {p: weights[p] for p in rest_adj}
        subtotal += factor * _count_system(rest_adj, rest_weights, budget)
    return subtotal


def count_solutions(rsg: ReducedSolutionGraph) -> CountResult:
    """Exact number of minimum vertex covers encoded by the RSG.

    Pipeline: SCC-contract the implication digraph among unfrozen nodes, peel
    leaf pairs with a weighted dynamic program, and branch each stuck
    component on a pivot pair, re-peeling after every assignment.  Raises
    CountIntractableError, naming the component size, once
    RESIDUAL_WORK_BUDGET branch nodes are spent.
    """
    s_n = _count_pair_system(_system_partner(rsg), *_unfrozen_singles(rsg))
    s_c = _count_core(unfrozen_core(rsg))
    return CountResult(s_n, s_c, rsg.host.node_count)


def _count_core(core: UnfrozenCore) -> int:
    if core.is_empty:
        return 1
    pairs = np.array(core.pairs, dtype=np.int64)
    singles = np.array(core.single_edges, dtype=np.int64).reshape(-1, 2)
    partner = np.full(int(core.nodes[-1]) + 1, -1, dtype=np.int64)
    partner[pairs[:, 0]] = pairs[:, 1]
    partner[pairs[:, 1]] = pairs[:, 0]
    return _count_pair_system(partner, singles[:, 0], singles[:, 1])


def count_core_solutions(rsg: ReducedSolutionGraph, core: UnfrozenCore,
                         n_total: int) -> CountResult:
    """Count assignments of the core's pairs under core-internal constraints only."""
    s_c = _count_core(core)
    return CountResult(s_c, s_c, n_total)


# ---------------------------------------------------------------------------
# independent oracle


def brute_force_min_covers(g: Graph, limit: int = 2_000_000
                           ) -> tuple[int, set[frozenset[int]]]:
    """Exhaustive minimum vertex covers, independent of every other module.

    Branch and bound on uncovered edges with a greedy-matching lower bound.
    Only intended for small graphs (roughly n <= 30); `limit` caps the number
    of search nodes.
    """
    edges = [(int(u), int(v)) for u, v in g.edges]
    if not edges:
        return 0, {frozenset()}
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    ticks = [0]

    def tick():
        ticks[0] += 1
        if ticks[0] > limit:
            raise BruteForceLimitError(f"search exceeded {limit} nodes")

    def uncovered(chosen: set[int]) -> list[tuple[int, int]]:
        return [(u, v) for u, v in edges if u not in chosen and v not in chosen]

    def matching_bound(free_edges, forbidden: set[int]) -> Optional[int]:
        used = set()
        size = 0
        for u, v in free_edges:
            if u in forbidden and v in forbidden:
                return None  # uncoverable
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                size += 1
        return size

    best = [len(adj)]

    def search_min(chosen: set[int], forbidden: set[int]):
        tick()
        free = uncovered(chosen)
        while True:
            forced = [v if u in forbidden else u
                      for u, v in free if (u in forbidden) != (v in forbidden)]
            if not forced:
                break
            chosen = chosen | set(forced)
            free = uncovered(chosen)
        if not free:
            best[0] = min(best[0], len(chosen))
            return
        lb = matching_bound(free, forbidden)
        if lb is None or len(chosen) + lb >= best[0]:
            return
        u, v = free[0]
        search_min(chosen | {u}, forbidden)
        search_min(chosen | {v}, forbidden | {u})

    search_min(set(), set())
    k = best[0]

    covers: set[frozenset[int]] = set()

    def search_all(chosen: set[int], forbidden: set[int]):
        tick()
        if len(chosen) > k:
            return
        free = uncovered(chosen)
        if not free:
            if len(chosen) == k:
                covers.add(frozenset(chosen))
            return
        lb = matching_bound(free, forbidden)
        if lb is None or len(chosen) + lb > k:
            return
        u, v = free[0]
        search_all(chosen | {u}, forbidden)
        search_all(chosen | {v}, forbidden | {u})

    search_all(set(), set())
    return k, covers
