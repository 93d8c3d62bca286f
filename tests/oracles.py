"""Independent oracles and corpus builders shared by the test modules.

Everything here avoids the code paths under test: matching sizes come from a
memoized branch-and-bound, maximality from a plain breadth-first search for
augmenting paths, covers from vcspace's exhaustive searcher (itself
oracle-grade: plain subset search over edges), and corpora are fixed by seed
arithmetic so every run sees identical instances.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

import vcspace as v

BASE_SEED = 20260810

# (n1, n2) cells for the small bipartite corpus, all with n1 + n2 <= 14
CORPUS_SIZES = [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5),
                (6, 5), (6, 6), (7, 6), (7, 7)]


def small_bipartite_corpus(count: int):
    """Deterministic corpus of random bipartite instances, n <= 14.

    The c values span [0.5, 6] across the corpus; for cells too small to
    realize large c (edge probability would exceed 1) the value is rescaled
    into the feasible range, so every instance is valid and the corpus as a
    whole covers the full span.
    """
    out = []
    for i in range(count):
        n1, n2 = CORPUS_SIZES[i % len(CORPUS_SIZES)]
        c_max = min(6.0, 2.0 * n1 * n2 / (n1 + n2))
        frac = (i * 7 % 25) / 24.0
        c = 0.5 + (c_max - 0.5) * frac
        params = v.EnsembleParams(n1, n2, c, BASE_SEED + i)
        g, part = v.generate_random_bipartite(params)
        out.append((params, g, part))
    return out


def small_general_corpus(count: int, n_max: int = 18, p: float = 0.25):
    """Random general graphs for the growth tests."""
    out = []
    for i in range(count):
        n = 4 + (i % (n_max - 3))
        out.append(v.generate_random_graph(n, p, BASE_SEED + 1_000_000 + i))
    return out


def brute_force_max_matching(g: v.Graph) -> int:
    """Maximum matching size by memoized branch and bound (general graphs)."""
    neighbors = {u: tuple(sorted(int(x) for x in g.neighbors(u)))
                 for u in range(g.node_count)}

    @lru_cache(maxsize=None)
    def best(alive: frozenset) -> int:
        pick = None
        for u in sorted(alive):
            if any(w in alive for w in neighbors[u]):
                pick = u
                break
        if pick is None:
            return 0
        rest = alive - {pick}
        result = best(rest)  # pick stays unmatched
        for w in neighbors[pick]:
            if w in alive:
                result = max(result, 1 + best(rest - {w}))
        return result

    return best(frozenset(range(g.node_count)))


def exhaustive_state_classification(g: v.Graph):
    """Per-node backbone states straight from the set of all minimum covers."""
    _, covers = v.brute_force_min_covers(g)
    always = set.intersection(*map(set, covers)) if covers else set()
    never = set(range(g.node_count)) - set().union(*map(set, covers)) if covers else set()
    states = {}
    for u in range(g.node_count):
        if u in always:
            states[u] = v.NodeState.COVERED_BACKBONE
        elif u in never:
            states[u] = v.NodeState.UNCOVERED_BACKBONE
        else:
            states[u] = v.NodeState.UNFROZEN
    return states


def has_alternating_cycle(rsg: v.ReducedSolutionGraph) -> bool:
    """Does the unfrozen part of rsg hold an alternating double/single cycle?

    Every unfrozen node has a double-edge partner.  A single edge (a, b)
    between unfrozen nodes reads as the implications "a uncovered => b
    covered => partner(b) uncovered" and the same with a and b swapped, that
    is arcs a -> partner(b) and b -> partner(a).  An alternating cycle
    x1 = y1 - x2 = y2 - ... - x1 gives the directed cycle y1 -> y2 -> ... -> y1,
    and a shortest directed cycle traces back to an alternating one, so the
    answer is whether Kahn's topological sort leaves any node unsorted.
    """
    unfrozen = rsg.state == int(v.NodeState.UNFROZEN)
    partner = {u: int(rsg.partner[u]) for u in range(rsg.host.node_count) if unfrozen[u]}
    successors = {u: [] for u in partner}
    indegree = dict.fromkeys(partner, 0)
    for a, b in rsg.host.edges.tolist():
        if a in partner and b in partner and partner[a] != b:
            for tail, head in ((a, partner[b]), (b, partner[a])):
                successors[tail].append(head)
                indegree[head] += 1
    ready = deque(u for u, d in indegree.items() if d == 0)
    sorted_count = 0
    while ready:
        u = ready.popleft()
        sorted_count += 1
        for w in successors[u]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return sorted_count < len(partner)


def _overlay_probe(rsg: v.ReducedSolutionGraph, node: int, covered: bool):
    """Unit-propagate a trial value for one node through an overlay.

    The real states are never touched.  Returns the overlay (node -> covered)
    of every value the trial implies, or None if the trial contradicts.
    uncovered => all neighbours covered; covered => double partner uncovered.
    """
    frozen = {int(v.NodeState.UNCOVERED_BACKBONE): False,
              int(v.NodeState.COVERED_BACKBONE): True}
    overlay = {node: covered}
    queue = deque([node])
    while queue:
        x = queue.popleft()
        if overlay[x]:
            implied = [int(rsg.partner[x])] if rsg.partner[x] >= 0 else []
        else:
            implied = [int(w) for w in rsg.host.neighbors(x)]
        for w in implied:
            value = overlay.get(w, frozen.get(int(rsg.state[w])))
            if value is overlay[x]:
                return None
            if value is None:
                overlay[w] = not overlay[x]
                queue.append(w)
    return overlay


def odd_cycle_breaking_sweep(rsg: v.ReducedSolutionGraph) -> v.ReducedSolutionGraph:
    """Reference for vcspace.odd_cycle_breaking: overlay probes swept to fixpoint.

    The input must already be frozen.  Every unfrozen node is probed both
    ways; when one value contradicts, the node takes the other and the
    surviving probe's implications are frozen at once.  Sweeps repeat until
    one freezes nothing.
    """
    out = rsg.copy()
    changed = True
    while changed:
        changed = False
        for u in range(out.host.node_count):
            if out.state[u] != int(v.NodeState.UNFROZEN):
                continue
            as_uncovered = _overlay_probe(out, u, covered=False)
            as_covered = _overlay_probe(out, u, covered=True)
            if as_uncovered is None and as_covered is None:
                raise v.rsg.PropagationConflictError(u)
            if as_uncovered is None or as_covered is None:
                for x, covered in (as_uncovered or as_covered).items():
                    out.state[x] = int(v.NodeState.COVERED_BACKBONE if covered
                                       else v.NodeState.UNCOVERED_BACKBONE)
                changed = True
    return out


def verify_matching_loop(g: v.Graph, m: v.Matching) -> bool:
    """Node-by-node reference for vcspace.verify_matching."""
    p = m.partner
    if len(p) != g.node_count:
        return False
    for u, w in enumerate(p):
        if w < 0:
            continue
        if w >= g.node_count or p[w] != u or u == w:
            return False
        if u < w and not g.has_edge(int(u), int(w)):
            return False
    return True


def has_augmenting_path(g: v.Graph, part: v.BipartitePartition, m: v.Matching) -> bool:
    """Does an alternating path join a free X1 node to a free X2 node?

    Breadth-first search from every free X1 node: an X1 node reaches its
    X2 neighbours over unmatched edges, and a matched X2 node continues to
    its partner in X1.  Reaching a free X2 node is an augmenting path.
    """
    partner = m.partner.tolist()
    adjacency = {u: [] for u in range(g.node_count)}
    for a, b in g.edges.tolist():
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {u for u in range(g.node_count)
            if part.side_of[u] == 0 and partner[u] < 0}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            x = partner[w]
            if x < 0:
                return True
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return False


def matching_is_maximum_bipartite(g: v.Graph, part: v.BipartitePartition,
                                  m: v.Matching) -> bool:
    """A valid matching with no augmenting path is maximum (Berge)."""
    return verify_matching_loop(g, m) and not has_augmenting_path(g, part, m)
