"""Maximum matching on bipartite graphs, plus a general-graph heuristic."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import hopcroft_karp
from .graph import BipartitePartition, Graph


class InvalidPartitionError(ValueError):
    """The supplied bipartition does not two-color the graph's edges."""


@dataclass(frozen=True)
class Matching:
    """A set of node-disjoint edges, stored as a partner array.

    partner[u] is the matched neighbor of u, or -1; the array is an involution
    on matched nodes.
    """

    partner: np.ndarray

    @property
    def size(self) -> int:
        return int((self.partner >= 0).sum()) // 2

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for u, v in enumerate(self.partner):
            if v >= 0 and u < v:
                out.append((int(u), int(v)))
        return out


def max_bipartite_matching(g: Graph, part: BipartitePartition) -> Matching:
    """Maximum-cardinality matching via layered augmenting-path phases.

    Deterministic for a fixed input: vertices are scanned in increasing id.
    By Konig's theorem the size equals the minimum vertex cover size of g.
    """
    if not part.is_valid_for(g):
        raise InvalidPartitionError("partition does not two-color all edges")
    left = part.side1_nodes()
    right = part.side2_nodes()
    n1, n2 = len(left), len(right)
    partner = np.full(g.node_count, -1, dtype=np.int32)
    if g.edge_count == 0 or n1 == 0 or n2 == 0:
        return Matching(partner)
    local = np.empty(g.node_count, dtype=np.int64)
    local[left] = np.arange(n1)
    local[right] = np.arange(n2)
    a, b = g.edges[:, 0], g.edges[:, 1]
    swap = part.side_of[a] == 1
    lo = local[np.where(swap, b, a)]
    ro = local[np.where(swap, a, b)]
    # left->right CSR with each row sorted by right id
    order = np.lexsort((ro, lo))
    indptr = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n1), out=indptr[1:])
    match_l, _, _ = hopcroft_karp(indptr, ro[order], n1, n2)
    matched = match_l >= 0
    u = left[matched]
    v = right[match_l[matched]]
    partner[u] = v
    partner[v] = u
    return Matching(partner)


def verify_matching(g: Graph, m: Matching) -> bool:
    """True iff m is a valid matching of g (disjoint pairs, edges exist)."""
    p = np.asarray(m.partner)
    n = g.node_count
    if len(p) != n:
        return False
    u = np.flatnonzero(p >= 0)
    v = p[u].astype(np.int64)
    if (v >= n).any():
        return False
    if (p[v] != u).any() or (u == v).any():
        return False
    lower = u < v
    if g.edge_count == 0:
        return not lower.any()
    # g.edges is sorted lexicographically, so its keys u*n + v are sorted too
    keys = g.edges[:, 0].astype(np.int64) * n + g.edges[:, 1]
    wanted = u[lower] * n + v[lower]
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return bool((keys[pos] == wanted).all())


def heuristic_max_matching(g: Graph) -> Matching:
    """Greedy augmenting-path matching for general graphs.

    Repeated Kuhn-style alternating DFS without blossom contraction, so the
    result can fall short of maximum on odd structures; callers that need a
    certificate must verify independently.
    """
    n = g.node_count
    partner = np.full(n, -1, dtype=np.int64)

    def try_augment(start: int) -> bool:
        # iterative alternating DFS over (free node, edge, matched continuation)
        visited = set()
        parent: dict[int, int] = {}

        stack = [start]
        visited.add(start)
        while stack:
            u = stack.pop()
            for v in sorted(int(x) for x in g.neighbors(u)):
                if v in visited:
                    continue
                visited.add(v)
                parent[v] = u
                w = partner[v]
                if w < 0:
                    # augment along parent chain: v is free
                    x = v
                    while True:
                        prev = parent[x]
                        nxt = partner[prev]
                        partner[prev] = x
                        partner[x] = prev
                        if nxt < 0:
                            return True
                        x = int(nxt)
                else:
                    visited.add(int(w))
                    parent[int(w)] = v  # matched edge hop
                    stack.append(int(w))
        return False

    improved = True
    while improved:
        improved = False
        for u in range(n):
            if partner[u] < 0 and len(g.neighbors(u)):
                if try_augment(u):
                    improved = True
    return Matching(partner.astype(np.int32))
