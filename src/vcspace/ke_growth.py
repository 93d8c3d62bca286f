"""Grow a Konig-Egervary subgraph of a general graph edge by edge.

Seed with a bipartite subgraph built around a matching, then examine the
remaining (same-side) edges one at a time, consulting the current reduced
solution graph: an edge into a covered backbone is free, an edge joining two
uncovered backbones would raise the cover size and is discarded, and the two
mixed cases are absorbed by freezing or odd-cycle breaking.  The minimum
cover size of the accepted subgraph never changes after seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import NEGATIVE, POSITIVE, UNFROZEN
from .graph import BipartitePartition, Graph
from .matching import heuristic_max_matching
from .rsg import (ReducedSolutionGraph, build_rsg_bipartite, freezing_influence,
                  odd_cycle_breaking)

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class KEGrowthState:
    """Accepted subgraph, its RSG, and the not-yet-examined edge backlog.

    accepted | discarded | pending always partitions the host graph's edges.
    contraction_freezes counts nodes frozen by odd-cycle breaking during
    growth steps; those freezes may shrink the represented solution space.
    """

    host: Graph
    rsg: ReducedSolutionGraph
    accepted: frozenset[Edge]
    discarded: frozenset[Edge]
    pending: tuple[Edge, ...]
    contraction_freezes: int = 0

    @property
    def subgraph(self) -> Graph:
        return self.rsg.host

    @property
    def matching_size(self) -> int:
        return int((self.rsg.partner >= 0).sum()) // 2

    def certificate_line(self) -> str:
        return f"ke_ok matching={self.matching_size} cover={self.rsg.min_cover_size}"


def bipartite_seed(g: Graph) -> KEGrowthState:
    """Steps 1-3: matching, side split, and the full bipartite subgraph.

    A heuristic matching (augmenting paths, no blossom contraction) is
    computed first; sides then come from a BFS two-coloring in which matched
    partners are forced onto opposite sides and other neighbors prefer them.
    On bipartite input this reproduces a proper two-coloring, so the seed is
    the whole graph.  Roots (lowest unvisited id) go to X1; deterministic.
    """
    matching = heuristic_max_matching(g)
    partner = matching.partner
    side = np.full(g.node_count, -1, dtype=np.int8)
    for root in range(g.node_count):
        if side[root] != -1:
            continue
        side[root] = 0
        if partner[root] >= 0:
            side[partner[root]] = 1
        queue = [root] if partner[root] < 0 else [root, int(partner[root])]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for w in sorted(int(t) for t in g.neighbors(x)):
                if side[w] != -1:
                    continue
                p = int(partner[w])
                if p >= 0 and side[p] != -1:
                    side[w] = 1 - side[p]
                else:
                    side[w] = 1 - side[x]
                queue.append(w)
    part = BipartitePartition(side)
    cross = [(int(u), int(v)) for u, v in g.edges if side[u] != side[v]]
    seed_graph = Graph(g.node_count, cross)
    rsg = build_rsg_bipartite(seed_graph, part)
    accepted = frozenset(_canon(u, v) for u, v in cross)
    pending = tuple(sorted(e for e in g.edge_set if e not in accepted))
    return KEGrowthState(host=g, rsg=rsg, accepted=accepted,
                         discarded=frozenset(), pending=pending)


def grow_step(state: KEGrowthState, edge: Edge) -> KEGrowthState:
    """Examine one pending edge (Steps 4-7) and return the successor state."""
    edge = _canon(*edge)
    if edge not in state.pending:
        raise ValueError(f"edge {edge} is not pending")
    u, v = edge
    rsg = state.rsg
    su, sv = int(rsg.state[u]), int(rsg.state[v])
    pending = tuple(e for e in state.pending if e != edge)
    freezes = state.contraction_freezes

    if su == NEGATIVE or sv == NEGATIVE:
        # covered end: the edge is satisfied in every minimum cover
        new_rsg = ReducedSolutionGraph(rsg.host.with_edge(u, v),
                                       rsg.state.copy(), rsg.partner.copy())
        return KEGrowthState(state.host, new_rsg, state.accepted | {edge},
                             state.discarded, pending, freezes)
    if su == POSITIVE and sv == POSITIVE:
        # both ends uncovered in every minimum cover: accepting would raise
        # the cover size
        return KEGrowthState(state.host, rsg, state.accepted,
                             state.discarded | {edge}, pending, freezes)
    if POSITIVE in (su, sv):
        # uncovered + unfrozen: freeze the unfrozen end covered
        target = v if su == POSITIVE else u
        new_rsg = ReducedSolutionGraph(rsg.host.with_edge(u, v),
                                       rsg.state.copy(), rsg.partner.copy())
        new_rsg.state[target] = NEGATIVE
        new_rsg = freezing_influence(new_rsg)
        return KEGrowthState(state.host, new_rsg, state.accepted | {edge},
                             state.discarded, pending, freezes)
    # both unfrozen: accept as a single edge, then break odd cycles
    new_rsg = ReducedSolutionGraph(rsg.host.with_edge(u, v),
                                   rsg.state.copy(), rsg.partner.copy())
    before = int((new_rsg.state != UNFROZEN).sum())
    new_rsg = odd_cycle_breaking(new_rsg)
    frozen_now = int((new_rsg.state != UNFROZEN).sum()) - before
    return KEGrowthState(state.host, new_rsg, state.accepted | {edge},
                         state.discarded, pending, freezes + frozen_now)


def grow_all(g: Graph, order: Optional[Sequence[Edge]] = None,
             seed: Optional[int] = None) -> KEGrowthState:
    """Run the growth process over every pending edge.

    `order` fixes the examination order (default: lexicographic by
    (min id, max id)); passing `seed` shuffles instead, for order-sensitivity
    studies.  The result is always Konig-Egervary; which edges survive may
    depend on the order.
    """
    state = bipartite_seed(g)
    pending = list(state.pending)
    if order is not None:
        ordered = [_canon(*e) for e in order]
        if sorted(ordered) != sorted(pending):
            raise ValueError("order must permute the pending edges")
        pending = ordered
    elif seed is not None:
        rng = np.random.default_rng(seed)
        pending = [pending[i] for i in rng.permutation(len(pending))]
    for edge in pending:
        state = grow_step(state, edge)
    return state
