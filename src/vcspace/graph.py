"""Undirected simple graphs, random bipartite ensembles, peeling, connectivity.

Node ids are dense integers 0..n-1.  Generated bipartite graphs place the X1
side on ids 0..n1-1 and the X2 side on ids n1..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._kernels import build_csr, leaf_removal_peel


class GraphFormatError(ValueError):
    """Raised for malformed graph/rsg text files."""


class Graph:
    """Immutable undirected simple graph.

    Edges are stored canonically as (u, v) with u < v, sorted
    lexicographically; adjacency is a CSR structure over both directions.
    """

    __slots__ = ("node_count", "edges", "indptr", "indices", "__dict__")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of node ids")
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        if arr.size:
            if arr.min() < 0 or arr.max() >= node_count:
                raise ValueError("edge endpoint out of range")
            if (arr[:, 0] == arr[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            arr = np.stack([lo, hi], axis=1)
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
            if len(arr) > 1 and (np.diff(arr, axis=0) == 0).all(axis=1).any():
                raise ValueError("duplicate edges are not allowed")
        self.node_count = int(node_count)
        self.edges = arr.astype(np.int32)
        self.indptr, self.indices = build_csr(self.node_count, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((int(u), int(v)) for u, v in self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edge_set

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with one extra edge."""
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        extended = np.vstack([self.edges, np.array([[min(u, v), max(u, v)]], np.int32)])
        return Graph(self.node_count, extended)

    def induced_subgraph(self, nodes: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on `nodes`; returns (subgraph, local->global id map)."""
        keep = np.asarray(sorted(set(int(x) for x in nodes)), dtype=np.int64)
        local = np.full(self.node_count, -1, np.int64)
        local[keep] = np.arange(len(keep))
        if len(self.edges):
            mask = (local[self.edges[:, 0]] >= 0) & (local[self.edges[:, 1]] >= 0)
            sub_edges = np.stack(
                [local[self.edges[mask, 0]], local[self.edges[mask, 1]]], axis=1)
        else:
            sub_edges = np.zeros((0, 2), np.int64)
        return Graph(len(keep), sub_edges), keep

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


@dataclass(frozen=True)
class BipartitePartition:
    """Two-coloring of the node set: side_of[u] is 0 for X1, 1 for X2."""

    side_of: np.ndarray

    @property
    def n1(self) -> int:
        return int((self.side_of == 0).sum())

    @property
    def n2(self) -> int:
        return int((self.side_of == 1).sum())

    def side1_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.side_of == 0)

    def side2_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.side_of == 1)

    def is_valid_for(self, g: Graph) -> bool:
        if len(self.side_of) != g.node_count:
            return False
        if g.edge_count == 0:
            return True
        s = self.side_of
        return bool((s[g.edges[:, 0]] != s[g.edges[:, 1]]).all())


@dataclass(frozen=True)
class OddCycle:
    """Witness that a graph is not bipartite: an odd cycle as a node list."""

    nodes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters of the random bipartite ensemble.

    Each X1 x X2 pair becomes an edge independently with probability p, where
    p is chosen so the whole-graph mean degree is c (so c1*n1 = c2*n2 = E[m]).
    """

    n1: int
    n2: int
    c: float
    seed: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be >= 1")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.p > 1.0:
            raise ValueError(
                f"c={self.c} is too large for sizes ({self.n1}, {self.n2}): p={self.p:.4g} > 1")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def expected_m(self) -> float:
        return self.c * self.n / 2.0

    @property
    def c1(self) -> float:
        return self.expected_m / self.n1

    @property
    def c2(self) -> float:
        return self.expected_m / self.n2

    @property
    def p(self) -> float:
        return self.c1 / self.n2


@dataclass
class PeelResult:
    """Outcome of leaf removal: residual core plus the removed (pendant, support) pairs."""

    core_nodes: np.ndarray
    leaf_matchings: np.ndarray  # shape (k, 2), removal order

    @property
    def core_size(self) -> int:
        return len(self.core_nodes)


def ratio_sizes(ratio: str | tuple[int, int], n: int) -> tuple[int, int]:
    """Split n nodes by an 'a:b' ratio string (or tuple); n1 gets the a share."""
    if isinstance(ratio, str):
        a_str, _, b_str = ratio.partition(":")
        a, b = int(a_str), int(b_str)
    else:
        a, b = ratio
    if a <= 0 or b <= 0:
        raise ValueError("ratio parts must be positive")
    n1 = round(n * a / (a + b))
    n1 = min(max(n1, 1), n - 1)
    return n1, n - n1


def generate_random_bipartite(params: EnsembleParams) -> tuple[Graph, BipartitePartition]:
    """Sample the bipartite ensemble; deterministic for a fixed seed.

    The edge count is Binomial(n1*n2, p) and the edge set is a uniform subset
    of that size, which is distributionally identical to independent per-pair
    Bernoulli(p) sampling.
    """
    rng = np.random.default_rng(params.seed)
    n1, n2 = params.n1, params.n2
    total = n1 * n2
    m = int(rng.binomial(total, params.p))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        need = m - chosen.size
        draw = rng.integers(0, total, size=need + need // 8 + 16, dtype=np.int64)
        chosen = np.unique(np.concatenate([chosen, draw]))
    if chosen.size > m:
        keep = rng.choice(chosen.size, size=m, replace=False)
        chosen = chosen[np.sort(keep)]
    u = chosen // n2
    v = n1 + chosen % n2
    g = Graph(n1 + n2, np.stack([u, v], axis=1))
    side = np.zeros(n1 + n2, dtype=np.int8)
    side[n1:] = 1
    return g, BipartitePartition(side)


_ROW_BLOCK = 128  # rows of uniforms drawn at once by generate_random_graph


def generate_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) on dense ids; used for general-graph experiments."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # row blocks continue one stream, so the edges equal those of one n x n draw
    blocks = []
    for start in range(0, n, _ROW_BLOCK):
        mask = rng.random((min(_ROW_BLOCK, n - start), n)) < p
        u, v = np.nonzero(np.triu(mask, k=start + 1))
        blocks.append(np.stack([u + start, v], axis=1))
    return Graph(n, np.concatenate(blocks) if blocks else [])


def leaf_removal(g: Graph) -> PeelResult:
    """Peel degree-1 nodes together with their unique neighbor, to exhaustion.

    The residual core is order-independent as a set and has minimum degree 2
    in its induced subgraph; the removed pairs form a matching.
    """
    core_mask, pairs = leaf_removal_peel(g.indptr, g.indices, g.node_count)
    return PeelResult(core_nodes=np.flatnonzero(core_mask).astype(np.int32),
                      leaf_matchings=pairs)


def giant_component_fraction(g: Graph) -> float:
    """|largest connected component| / node_count (0 for the empty graph)."""
    if g.node_count == 0:
        return 0.0
    if g.edge_count == 0:
        return 1.0 / g.node_count
    m = csr_matrix(
        (np.ones(len(g.indices), dtype=np.int8),
         g.indices.astype(np.int64),
         g.indptr),
        shape=(g.node_count, g.node_count),
    )
    _, labels = connected_components(m, directed=False)
    counts = np.bincount(labels)
    return float(counts.max()) / g.node_count


def check_bipartition(g: Graph) -> Union[BipartitePartition, OddCycle]:
    """Two-color each component, or return an odd-cycle witness.

    Roots are the lowest-id unvisited nodes and always get side 0, so the
    result is deterministic.
    """
    n = g.node_count
    side = np.full(n, -1, dtype=np.int8)
    parent = np.full(n, -1, dtype=np.int64)
    for root in range(n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in g.neighbors(u):
                v = int(v)
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u]:
                    return OddCycle(_odd_cycle_from(parent, u, v))
    return BipartitePartition(side)


def _odd_cycle_from(parent: np.ndarray, u: int, v: int) -> tuple[int, ...]:
    """Cycle through edge (u, v) plus the two BFS-tree paths to their LCA."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(int(parent[path_u[-1]]))
    path_v = [v]
    while parent[path_v[-1]] != -1:
        path_v.append(int(parent[path_v[-1]]))
    in_u = {node: i for i, node in enumerate(path_u)}
    for j, node in enumerate(path_v):
        if node in in_u:
            cycle = path_u[:in_u[node]] + [node] + path_v[:j][::-1]
            assert len(cycle) % 2 == 1
            return tuple(cycle)
    raise AssertionError("BFS paths must meet")


def write_graph(g: Graph, path, partition: Optional[BipartitePartition] = None) -> None:
    """Write the text format: header `n m` or `bipartite n1 n2 m`, then edges.

    The bipartite header is only usable when X1 occupies ids 0..n1-1.
    """
    lines = []
    if partition is not None:
        n1, n2 = partition.n1, partition.n2
        if not (partition.side_of[:n1] == 0).all() or not partition.is_valid_for(g):
            raise ValueError("partition must be valid with X1 on ids 0..n1-1")
        lines.append(f"bipartite {n1} {n2} {g.edge_count}")
    else:
        lines.append(f"{g.node_count} {g.edge_count}")
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> tuple[Graph, Optional[BipartitePartition]]:
    """Parse the graph text format; `#` starts a comment."""
    tokens: list[list[str]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    if not tokens:
        raise GraphFormatError("empty graph file")
    head = tokens[0]
    if head[0] == "bipartite":
        if len(head) != 4:
            raise GraphFormatError("bipartite header must be `bipartite n1 n2 m`")
        n1, n2, m = int(head[1]), int(head[2]), int(head[3])
        n = n1 + n2
        side = np.zeros(n, dtype=np.int8)
        side[n1:] = 1
        partition: Optional[BipartitePartition] = BipartitePartition(side)
    elif len(head) == 2:
        n, m = int(head[0]), int(head[1])
        partition = None
    else:
        raise GraphFormatError("header must be `n m` or `bipartite n1 n2 m`")
    body = tokens[1:]
    if len(body) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for t in body:
        if len(t) != 2:
            raise GraphFormatError(f"bad edge line: {' '.join(t)}")
        edges.append((int(t[0]), int(t[1])))
    g = Graph(n, edges)
    if partition is not None and not partition.is_valid_for(g):
        raise GraphFormatError("edges violate the declared bipartition")
    return g, partition
