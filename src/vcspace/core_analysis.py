"""Unfrozen-core extraction, cycle simplification, and exact solution counting.

The unfrozen part of a reduced solution graph decomposes into double-edge
pairs (every unfrozen node sits in exactly one double edge).  Each pair is a
binary variable (which end is covered) and every single edge between
unfrozen nodes is an at-least-one-covered clause between two pairs.  Counting
minimum covers is exact counting over that clause system.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._kernels import UNFROZEN, build_csr, leaf_removal_peel
from .graph import Graph
from .rsg import ReducedSolutionGraph


class CountIntractableError(RuntimeError):
    """A residual component after simplification and peeling is too large."""


class BruteForceLimitError(RuntimeError):
    """Exhaustive cover search exceeded its enumeration limit."""


class CorruptedRsgError(ValueError):
    """Cycle simplification found structure a consistent RSG cannot contain."""


RESIDUAL_VARIABLE_CAP = 25  # stuck components up to this size count by direct branching
RESIDUAL_WORK_BUDGET = 500_000  # branch-node budget for decomposing larger tangles


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


def _unfrozen_pairs_and_singles(rsg: ReducedSolutionGraph):
    """(partner dict, set of single edges) restricted to unfrozen nodes."""
    lower = _unfrozen_pair_ends(rsg)
    upper = rsg.partner[lower]
    partner = {}
    for u, v in zip(lower.tolist(), upper.tolist()):
        partner[u] = v
        partner[v] = u
    su, sv = _unfrozen_singles(rsg)
    return partner, set(zip(su.tolist(), sv.tolist()))


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
# cycle simplification engine (alternating double/single cycles)


def _build_forest(partner: dict, singles: dict):
    """BFS forest over the pair structure with every double edge in the tree.

    Visitation is pair-atomic (a node and its partner enter together), so each
    double edge is a tree edge.  Returns (parent, depth, tree_singles).
    """
    parent: dict[int, Optional[tuple[int, str]]] = {}
    depth: dict[int, int] = {}
    tree_singles: set[tuple[int, int]] = set()
    for root in sorted(partner):
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        pr = partner[root]
        parent[pr] = (root, "D")
        depth[pr] = 1
        queue = deque((root, pr))
        while queue:
            x = queue.popleft()
            for y in sorted(singles.get(x, ())):
                if y in parent:
                    continue
                parent[y] = (x, "S")
                depth[y] = depth[x] + 1
                tree_singles.add((min(x, y), max(x, y)))
                py = partner[y]
                parent[py] = (y, "D")
                depth[py] = depth[y] + 1
                queue.append(y)
                queue.append(py)
    return parent, depth, tree_singles


def _tree_cycle(parent, depth, a, b) -> list[tuple[int, int, str]]:
    """Edges of the fundamental cycle of non-tree single (a, b), in cyclic order."""
    ea: list[tuple[int, int, str]] = []
    eb: list[tuple[int, int, str]] = []
    x, y = a, b
    while depth[x] > depth[y]:
        px, kind = parent[x]
        ea.append((x, px, kind))
        x = px
    while depth[y] > depth[x]:
        py, kind = parent[y]
        eb.append((y, py, kind))
        y = py
    while x != y:
        px, kx = parent[x]
        ea.append((x, px, kx))
        x = px
        py, ky = parent[y]
        eb.append((y, py, ky))
        y = py
    return [(b, a, "S")] + ea + [(q, p, k) for p, q, k in reversed(eb)]


def _cycle_nodes_if_alternating(cycle_edges) -> Optional[list[int]]:
    kinds = [k for _, _, k in cycle_edges]
    if len(kinds) % 2 == 1:
        return None
    if any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))):
        return None
    return [p for _, p, _ in cycle_edges]


def _find_alternating_cycle(partner: dict, singles: dict) -> Optional[list[int]]:
    """Node cycle of some alternating double/single cycle, or None.

    Primary search: fundamental cycles of non-tree single edges with respect
    to a spanning forest containing all double edges, lowest-indexed edge
    first.  Backstop: directed search over pair traversals, which can expose
    alternating cycles whose fundamental decomposition is blocked.
    """
    parent, depth, tree_singles = _build_forest(partner, singles)
    all_singles = sorted({(min(x, y), max(x, y))
                          for x, nbrs in singles.items() for y in nbrs})
    for a, b in all_singles:
        if (a, b) in tree_singles:
            continue
        nodes = _cycle_nodes_if_alternating(_tree_cycle(parent, depth, a, b))
        if nodes is not None:
            return nodes
    return _backstop_alternating_cycle(partner, singles)


def _backstop_alternating_cycle(partner: dict, singles: dict) -> Optional[list[int]]:
    """DFS over 'arrived via double edge' states; a directed cycle with
    pairwise-distinct pairs is an alternating cycle."""
    color: dict[int, int] = {}  # 1 on stack, 2 done
    order: dict[int, int] = {}
    path: list[int] = []

    def arcs(u: int):
        for w in sorted(singles.get(u, ())):
            yield partner[w]

    for start in sorted(partner):
        if color.get(start):
            continue
        stack = [(start, arcs(start))]
        color[start] = 1
        order[start] = len(path)
        path.append(start)
        while stack:
            u, it = stack[-1]
            advanced = False
            for t in it:
                if color.get(t) == 1:
                    seg = path[order[t]:]
                    pair_keys = {min(s, partner[s]) for s in seg}
                    if len(pair_keys) == len(seg):
                        nodes: list[int] = []
                        for i, s in enumerate(seg):
                            nodes.append(s)
                            nxt = seg[(i + 1) % len(seg)]
                            nodes.append(partner[nxt])
                        return nodes
                elif color.get(t) is None:
                    color[t] = 1
                    order[t] = len(path)
                    path.append(t)
                    stack.append((t, arcs(t)))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                path.pop()
                stack.pop()
    return None


def _merge_cycle(cycle: list[int], partner: dict, singles: dict,
                 uf: dict[int, int]) -> None:
    """Collapse an alternating cycle into one super-pair, rewiring singles.

    Same-parity cycle nodes share a value in every solution, so each parity
    class becomes one node.  Singles parallel to the new double are implied by
    it and dropped; a single inside one class would freeze the class and
    cannot occur in a consistent RSG.
    """
    class_a = cycle[0::2]
    class_b = cycle[1::2]
    rep_a, rep_b = min(class_a), min(class_b)
    member_of = {x: rep_a for x in class_a}
    member_of.update({x: rep_b for x in class_b})
    ext: dict[int, set[int]] = {rep_a: set(), rep_b: set()}
    for x in cycle:
        rep = member_of[x]
        for t in singles.pop(x, set()):
            if t in member_of:
                if member_of[t] == rep:
                    raise CorruptedRsgError(
                        f"single edge inside one value class at node {x}")
                continue  # cycle edge or chord across classes: implied by the double
            singles[t].discard(x)
            ext[rep].add(t)
        del partner[x]
    partner[rep_a] = rep_b
    partner[rep_b] = rep_a
    singles[rep_a] = set()
    singles[rep_b] = set()
    for rep in (rep_a, rep_b):
        for t in ext[rep]:
            singles[rep].add(t)
            singles[t].add(rep)
    for x in class_a:
        _union_to(uf, x, rep_a)
    for x in class_b:
        _union_to(uf, x, rep_b)


def _find(uf: dict[int, int], x: int) -> int:
    root = x
    while uf.get(root, root) != root:
        root = uf[root]
    while uf.get(x, x) != x:
        uf[x], x = root, uf[x]
    return root


def _union_to(uf: dict[int, int], x: int, rep: int) -> None:
    uf[_find(uf, x)] = _find(uf, rep)


def _simplify_pair_system(partner: dict, singles_set: set[tuple[int, int]]):
    """Run alternating-cycle merges to fixpoint.

    Returns (partner, singles adjacency, union-find map over original ids).
    """
    singles: dict[int, set[int]] = {x: set() for x in partner}
    for a, b in singles_set:
        singles[a].add(b)
        singles[b].add(a)
    uf: dict[int, int] = {}
    while True:
        cycle = _find_alternating_cycle(partner, singles)
        if cycle is None:
            return partner, singles, uf
        _merge_cycle(cycle, partner, singles, uf)


def cycle_simplification(rsg: ReducedSolutionGraph) -> SimplifiedRSG:
    """Merge alternating double/single cycles among unfrozen nodes.

    Cycles through frozen (backbone) double edges are left in place: frozen
    values are fixed, so they do not change the count.

    The solution count is invariant: same-parity nodes of an alternating
    cycle take a common value in every consistent assignment, so collapsing
    each parity class to a super-node is a bijection on solutions.
    """
    partner, singles_set = _unfrozen_pairs_and_singles(rsg)
    partner = dict(partner)
    partner_after, _, uf = _simplify_pair_system(partner, singles_set)

    n = rsg.host.node_count
    frozen = [u for u in range(n) if rsg.state[u] != UNFROZEN]
    reps = sorted(set(partner_after))
    kept = sorted(set(frozen) | set(reps))
    new_id = {old: i for i, old in enumerate(kept)}

    def image(u: int) -> int:
        return u if rsg.state[u] != UNFROZEN else _find(uf, u)

    partner_new = np.full(len(kept), -1, dtype=np.int32)
    for u in range(n):
        p = int(rsg.partner[u])
        if p >= 0 and rsg.state[u] != UNFROZEN:
            partner_new[new_id[u]] = new_id[p]
    for a, b in partner_after.items():
        partner_new[new_id[a]] = new_id[b]

    # singles mapped onto a double edge dedupe away: the double implies them
    mapped_edges = set()
    for u, v in rsg.host.edges:
        mu, mv = new_id[image(int(u))], new_id[image(int(v))]
        if mu == mv:
            raise CorruptedRsgError(f"edge ({u}, {v}) collapsed to a self-edge")
        mapped_edges.add((min(mu, mv), max(mu, mv)))
    host_new = Graph(len(kept), sorted(mapped_edges))
    state_new = np.zeros(len(kept), dtype=np.int8)
    for old in kept:
        state_new[new_id[old]] = rsg.state[old]
    out = ReducedSolutionGraph(host_new, state_new, partner_new)

    merge_map: dict[int, tuple[int, int]] = {}
    for u in range(n):
        img = new_id[image(u)]
        mate = int(partner_new[img])
        parity = 0 if mate < 0 or img < mate else 1
        merge_map[u] = (img, parity)
    return SimplifiedRSG(out, merge_map)


def expand_assignment(covered_simplified: frozenset[int],
                      merge_map: dict[int, tuple[int, int]]) -> frozenset[int]:
    """Pull a simplified-RSG assignment back to the original node set."""
    return frozenset(u for u, (img, _) in merge_map.items()
                     if img in covered_simplified)


# ---------------------------------------------------------------------------
# counting


def _count_pair_system(partner: dict, singles_set: set[tuple[int, int]]) -> int:
    """Exact number of pair orientations satisfying all single-edge clauses."""
    if not partner:
        return 1
    partner, singles, _ = _simplify_pair_system(dict(partner), singles_set)
    pairs = sorted((u, v) for u, v in partner.items() if u < v)
    pid = {}
    for i, (u, v) in enumerate(pairs):
        pid[u] = (i, 0)
        pid[v] = (i, 1)
    adj: dict[int, dict[int, list[tuple[int, int]]]] = {
        i: {} for i in range(len(pairs))}
    seen = set()
    for x, nbrs in singles.items():
        for y in nbrs:
            key = (min(x, y), max(x, y))
            if key in seen:
                continue
            seen.add(key)
            (p, sp), (q, sq) = pid[x], pid[y]
            adj[p].setdefault(q, []).append((sp, sq))
            adj[q].setdefault(p, []).append((sq, sp))
    weights = {i: (1, 1) for i in range(len(pairs))}
    budget = [RESIDUAL_WORK_BUDGET]
    return _count_system(adj, weights, budget)


def _count_system(adj: dict[int, dict[int, list[tuple[int, int]]]],
                  weights: dict[int, tuple[int, int]], budget: list[int]) -> int:
    """Peel-order DP with branch-and-decompose for the stuck remainder.

    Leaf pairs (at most one neighbouring pair) are absorbed into their
    neighbour as unary weights.  Whatever remains has pair-degree >= 2; small
    stuck components count by direct branching, larger ones branch on a
    high-degree pair, unit-propagate, and recurse on the pieces (assignments
    re-expose leaves, so each level peels further).
    """
    adj = {p: dict(nb) for p, nb in adj.items()}
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


def _propagate_assignment(comp_adj, weights, start: int, val: int):
    """Assign start=val and unit-propagate.  Returns (factor, assigned) or None."""
    assign = {start: val}
    factor = weights[start][val]
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y, cls in comp_adj[x].items():
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
    budget[0] -= 1
    if budget[0] < 0:
        raise CountIntractableError(
            f"count intractable: branching budget exhausted on a stuck "
            f"component of {len(comp)} pair variables")
    comp_set = set(comp)
    comp_adj = {p: {q: cls for q, cls in adj[p].items() if q in comp_set}
                for p in comp}
    if len(comp) <= RESIDUAL_VARIABLE_CAP:
        return _count_small_component(comp, comp_adj, weights, budget)
    # branch on the highest-degree pair; each value propagates and re-peels
    pivot = max(comp, key=lambda p: (len(comp_adj[p]), -p))
    subtotal = 0
    for val in (0, 1):
        outcome = _propagate_assignment(comp_adj, weights, pivot, val)
        if outcome is None:
            continue
        factor, assign = outcome
        rest_adj: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for p in comp:
            if p in assign:
                continue
            rest_adj[p] = {}
            for q, cls in comp_adj[p].items():
                if q in assign:
                    continue  # surviving propagation means these clauses hold
                rest_adj[p][q] = cls
        rest_weights = {p: weights[p] for p in rest_adj}
        subtotal += factor * _count_system(rest_adj, rest_weights, budget)
    return subtotal


def _count_small_component(comp, comp_adj, weights, budget: list[int]) -> int:
    """Direct branching with unit propagation, for stuck components <= cap."""
    budget[0] -= 1
    if budget[0] < 0:
        raise CountIntractableError("count intractable: branching budget exhausted")

    def rec(adj_now, w_now, vars_now) -> int:
        # all stuck-component vars keep >= 1 pending clause until assigned
        best, best_deg = -1, -1
        for p in vars_now:
            deg = len(adj_now[p])
            if deg > best_deg:
                best, best_deg = p, deg
        if best < 0:
            return 1
        if best_deg == 0:
            out = 1
            for p in vars_now:
                out *= w_now[p][0] + w_now[p][1]
            return out
        subtotal = 0
        for val in (0, 1):
            outcome = _propagate_assignment(adj_now, w_now, best, val)
            if outcome is None:
                continue
            factor, assign = outcome
            rest_vars = [p for p in vars_now if p not in assign]
            rest_adj = {p: {q: cls for q, cls in adj_now[p].items()
                            if q not in assign}
                        for p in rest_vars}
            subtotal += factor * rec(rest_adj, w_now, rest_vars)
        return subtotal

    return rec(comp_adj, weights, comp)


def count_solutions(rsg: ReducedSolutionGraph) -> CountResult:
    """Exact number of minimum vertex covers encoded by the RSG.

    Pipeline: cycle-simplify the unfrozen pair system, peel leaf pairs with a
    weighted dynamic program, and brute-force any small residual component
    (error above RESIDUAL_VARIABLE_CAP pair variables).
    """
    n = rsg.host.node_count
    partner, singles = _unfrozen_pairs_and_singles(rsg)
    s_n = _count_pair_system(partner, singles)
    core = unfrozen_core(rsg)
    s_c = _count_core(core)
    return CountResult(s_n, s_c, n)


def _count_core(core: UnfrozenCore) -> int:
    if core.is_empty:
        return 1
    partner = {}
    for u, v in core.pairs:
        partner[u] = v
        partner[v] = u
    singles = {(min(a, b), max(a, b)) for a, b in core.single_edges}
    return _count_pair_system(partner, singles)


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
