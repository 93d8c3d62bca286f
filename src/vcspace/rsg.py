"""Reduced solution graphs: a compact, exact encoding of all minimum covers.

Node states: unfrozen, uncovered backbone (never covered in any minimum
cover), covered backbone (always covered).  Double edges mark matched pairs in
which exactly one end is covered in every minimum cover; all other edges are
single and only demand at-least-one-covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional

import numpy as np

from ._kernels import NEGATIVE, POSITIVE, UNFROZEN, unit_propagate
from .graph import (BipartitePartition, Graph, GraphFormatError, OddCycle,
                    check_bipartition, leaf_removal)
from .matching import Matching, max_bipartite_matching, verify_matching


class NodeState(IntEnum):
    UNFROZEN = UNFROZEN
    UNCOVERED_BACKBONE = POSITIVE
    COVERED_BACKBONE = NEGATIVE


class EdgeKind(Enum):
    SINGLE = "S"
    DOUBLE = "D"


class PropagationConflictError(RuntimeError):
    """A node was forced both covered and uncovered.

    Signals a non-Konig input or an inconsistent pre-marking; carries the
    conflicting node.
    """

    def __init__(self, node: int, message: str | None = None):
        self.node = int(node)
        super().__init__(message or f"freezing rules conflict at node {node}")


class NotBipartiteCoreError(ValueError):
    """The graph's leaf-removal core is not bipartite."""


class EnumerationLimitError(RuntimeError):
    """Assignment enumeration would exceed the caller's limit."""


@dataclass
class ReducedSolutionGraph:
    """Host graph plus per-node states and the double-edge partner map.

    partner[u] is u's double-edge partner or -1; double edges always form a
    matching.  Instances are treated as immutable: operations return copies.
    """

    host: Graph
    state: np.ndarray  # int8, values from NodeState
    partner: np.ndarray  # int32, -1 for no double edge

    def copy(self) -> "ReducedSolutionGraph":
        return ReducedSolutionGraph(self.host, self.state.copy(), self.partner.copy())

    def state_of(self, u: int) -> NodeState:
        return NodeState(int(self.state[u]))

    def edge_kind(self, u: int, v: int) -> EdgeKind:
        if not self.host.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        return EdgeKind.DOUBLE if self.partner[u] == v else EdgeKind.SINGLE

    @property
    def double_edges(self) -> list[tuple[int, int]]:
        lower = np.flatnonzero(self.partner > np.arange(len(self.partner)))
        return list(zip(lower.tolist(), self.partner[lower].tolist()))

    @property
    def min_cover_size(self) -> int:
        """Doubles contribute one covered end each; off-double covered backbones add one."""
        n_doubles = int((self.partner >= 0).sum()) // 2
        off_double_covered = int(((self.state == NEGATIVE) & (self.partner < 0)).sum())
        return n_doubles + off_double_covered

    def unfrozen_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.state == UNFROZEN)

    def state_counts(self) -> tuple[int, int, int]:
        """(uncovered backbones, covered backbones, unfrozen)."""
        return (int((self.state == POSITIVE).sum()),
                int((self.state == NEGATIVE).sum()),
                int((self.state == UNFROZEN).sum()))


def state_ratios(rsg: ReducedSolutionGraph) -> tuple[float, float, float]:
    """(q_plus, q_minus, q_zero): fractions of node states, summing to 1."""
    n = rsg.host.node_count
    plus, minus, zero = rsg.state_counts()
    return plus / n, minus / n, zero / n


def _freeze(rsg: ReducedSolutionGraph):
    """A frozen copy of rsg, plus its (bounds, flat, mate, st) kernel lists."""
    out = rsg.copy()
    st = out.state.tolist()
    lists = (out.host.indptr.tolist(), out.host.indices.tolist(), out.partner.tolist(), st)
    conflict, _ = unit_propagate(*lists, [u for u, s in enumerate(st) if s != UNFROZEN])
    if conflict >= 0:
        raise PropagationConflictError(conflict)
    out.state[:] = st
    return out, lists


def freezing_influence(rsg: ReducedSolutionGraph) -> ReducedSolutionGraph:
    """Unit-propagate the two freezing rules from every frozen node.

    (a) every neighbor of an uncovered backbone becomes a covered backbone;
    (b) the double partner of a covered backbone becomes an uncovered
    backbone.  States only ever move unfrozen -> frozen.  The same kernel
    runs the trial probes of `odd_cycle_breaking`.
    """
    return _freeze(rsg)[0]


def build_rsg_bipartite(g: Graph, part: BipartitePartition,
                        matching: Optional[Matching] = None) -> ReducedSolutionGraph:
    """Exact solution-space expression for a bipartite graph.

    Double edges are a maximum matching, unmatched nodes are frozen uncovered,
    and the freezing rules are propagated to fixpoint.  The consistent
    assignments of the result are exactly the minimum vertex covers of g.
    """
    if matching is None:
        matching = max_bipartite_matching(g, part)
    elif not verify_matching(g, matching):
        raise ValueError("matching is not a valid matching of g")
    state = np.zeros(g.node_count, dtype=np.int8)
    state[matching.partner < 0] = POSITIVE
    return freezing_influence(
        ReducedSolutionGraph(g, state, matching.partner.astype(np.int32)))


def odd_cycle_breaking(rsg: ReducedSolutionGraph) -> ReducedSolutionGraph:
    """Freeze every backbone left by odd cycles: one pass of failed-literal probes.

    The input is frozen first.  The RSG's constraints are a 2-CNF (each edge
    has a covered end, each double edge an uncovered one), so a value is a
    backbone exactly when unit propagation from the opposite value
    contradicts.  Each unfrozen node is probed both ways on the frozen
    state, and when one value fails the node takes the other.  Values
    implied by a probe that does not fail cannot fail and are not probed.
    Whatever a backbone implies is a backbone found by its own probe, so no
    propagation follows the pass.  An RSG from `build_rsg_bipartite` is left
    unchanged.
    """
    out, (bounds, flat, mate, st) = _freeze(rsg)
    implied = [0] * len(st)  # bit flags of values implied by non-failed probes
    for u in range(len(st)):
        if st[u] != UNFROZEN:
            continue
        failed = 0
        for value in (POSITIVE, NEGATIVE):
            if implied[u] & value:
                continue
            st[u] = value
            conflict, frozen = unit_propagate(bounds, flat, mate, st, [u])
            if conflict >= 0:
                failed |= value
            else:
                for x in frozen:
                    implied[x] |= st[x]
            st[u] = UNFROZEN
            for x in frozen:
                st[x] = UNFROZEN
        if failed == POSITIVE | NEGATIVE:
            raise PropagationConflictError(
                u, f"node {u} contradicts under both hypotheses; "
                   f"input is not a Konig-consistent structure")
        if failed:
            out.state[u] = NEGATIVE if failed == POSITIVE else POSITIVE
    return out


def build_rsg_bipartite_core(g: Graph) -> ReducedSolutionGraph:
    """Solution-space expression for graphs whose leaf-removal core is bipartite.

    Doubles are the leaf matchings plus a maximum matching of the bipartite
    core, and unmatched nodes are seeded uncovered.  `odd_cycle_breaking`
    then freezes the seed and, in one pass of failed-literal probes, every
    backbone the odd cycles of g leave.
    """
    peel = leaf_removal(g)
    partner = np.full(g.node_count, -1, dtype=np.int32)
    for pendant, support in peel.leaf_matchings:
        partner[pendant] = support
        partner[support] = pendant
    if peel.core_size:
        core_graph, core_nodes = g.induced_subgraph(peel.core_nodes)
        part = check_bipartition(core_graph)
        if isinstance(part, OddCycle):
            raise NotBipartiteCoreError(
                f"not a bipartite core graph: odd cycle of length {len(part)} in the core")
        core_matching = max_bipartite_matching(core_graph, part)
        for lu, lv in core_matching.pairs:
            u, v = int(core_nodes[lu]), int(core_nodes[lv])
            partner[u] = v
            partner[v] = u
    state = np.zeros(g.node_count, dtype=np.int8)
    state[partner < 0] = POSITIVE
    return odd_cycle_breaking(ReducedSolutionGraph(g, state, partner))


Assignment = frozenset  # set of covered node ids


def assignment_covers(g: Graph, covered: frozenset[int]) -> bool:
    """True iff every edge of g has at least one covered end."""
    return all(int(u) in covered or int(v) in covered for u, v in g.edges)


def consistent_assignments(rsg: ReducedSolutionGraph,
                           limit: int = 1_000_000) -> set[frozenset[int]]:
    """Enumerate every consistent assignment (intended for small instances).

    All returned assignments have exactly min_cover_size covered nodes.
    Raises EnumerationLimitError when more than `limit` assignments exist.
    """
    base = frozenset(int(x) for x in np.flatnonzero(rsg.state == NEGATIVE))
    pairs = [(u, v) for u, v in rsg.double_edges
             if rsg.state[u] == UNFROZEN]
    # single edges between unfrozen nodes are the only live constraints
    clauses = []
    pair_id = {}
    for i, (u, v) in enumerate(pairs):
        pair_id[u] = (i, 0)
        pair_id[v] = (i, 1)
    for u, v in rsg.host.edges:
        u, v = int(u), int(v)
        if rsg.partner[u] == v:
            continue
        if rsg.state[u] == UNFROZEN and rsg.state[v] == UNFROZEN:
            (pi, si), (pj, sj) = pair_id[u], pair_id[v]
            clauses.append((pi, si, pj, sj))
    by_pair: dict[int, list[tuple]] = {}
    for cl in clauses:
        by_pair.setdefault(cl[0], []).append(cl)
        by_pair.setdefault(cl[2], []).append(cl)

    out: set[frozenset[int]] = set()
    choice = [0] * len(pairs)

    def rec(i: int):
        if i == len(pairs):
            covered = set(base)
            for k, (u, v) in enumerate(pairs):
                covered.add(u if choice[k] == 0 else v)
            if len(out) >= limit:
                raise EnumerationLimitError(f"more than {limit} assignments")
            out.add(frozenset(covered))
            return
        for val in (0, 1):
            choice[i] = val
            ok = True
            for (pi, si, pj, sj) in by_pair.get(i, ()):  # check decided clauses
                if pi <= i and pj <= i:
                    if not ((choice[pi] == si) or (choice[pj] == sj)):
                        ok = False
                        break
            if ok:
                rec(i + 1)

    if not pairs:
        if rsg.host.node_count and assignment_covers(rsg.host, base) or not rsg.host.edge_count:
            out.add(base)
        return out
    rec(0)
    return out


def validate_rsg(rsg: ReducedSolutionGraph) -> None:
    """Raise ValueError if any structural invariant is violated."""
    n = rsg.host.node_count
    if len(rsg.state) != n or len(rsg.partner) != n:
        raise ValueError("array sizes do not match the host graph")
    for u in range(n):
        p = int(rsg.partner[u])
        if p >= 0:
            if p == u or rsg.partner[p] != u:
                raise ValueError(f"partner map is not an involution at {u}")
            if not rsg.host.has_edge(u, p):
                raise ValueError(f"double edge ({u}, {p}) is not a host edge")
            su, sp = rsg.state[u], rsg.state[p]
            if su != UNFROZEN and sp != UNFROZEN and su == sp:
                raise ValueError(f"double edge ({u}, {p}) joins equal frozen states")
            if (su == UNFROZEN) != (sp == UNFROZEN):
                raise ValueError(f"double edge ({u}, {p}) half-frozen")
    for u, v in rsg.host.edges:
        u, v = int(u), int(v)
        if rsg.state[u] == POSITIVE and rsg.state[v] == POSITIVE:
            raise ValueError(f"edge ({u}, {v}) joins two uncovered backbones")
        if rsg.state[u] == POSITIVE and rsg.state[v] == UNFROZEN:
            raise ValueError(f"edge ({u}, {v}): uncovered backbone with unfrozen neighbor")
        if rsg.state[v] == POSITIVE and rsg.state[u] == UNFROZEN:
            raise ValueError(f"edge ({u}, {v}): uncovered backbone with unfrozen neighbor")


_STATE_TO_CHAR = {UNFROZEN: "U", POSITIVE: "P", NEGATIVE: "N"}
_CHAR_TO_STATE = {v: k for k, v in _STATE_TO_CHAR.items()}


def write_rsg(rsg: ReducedSolutionGraph, path) -> None:
    """Text format: `id state` per node (U/P/N), then `u v kind` per edge (S/D)."""
    lines = []
    for u in range(rsg.host.node_count):
        lines.append(f"{u} {_STATE_TO_CHAR[int(rsg.state[u])]}")
    for u, v in rsg.host.edges:
        kind = "D" if rsg.partner[u] == v else "S"
        lines.append(f"{u} {v} {kind}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rsg(path) -> ReducedSolutionGraph:
    """Parse the RSG text format and validate its structure."""
    node_states: dict[int, int] = {}
    edge_rows: list[tuple[int, int, str]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            t = line.split()
            if len(t) == 2:
                node_states[int(t[0])] = _CHAR_TO_STATE.get(t[1], -1)
                if node_states[int(t[0])] < 0:
                    raise GraphFormatError(f"bad node state: {line}")
            elif len(t) == 3:
                if t[2] not in ("S", "D"):
                    raise GraphFormatError(f"bad edge kind: {line}")
                edge_rows.append((int(t[0]), int(t[1]), t[2]))
            else:
                raise GraphFormatError(f"bad rsg line: {line}")
    if not node_states:
        raise GraphFormatError("rsg file has no node lines")
    n = max(node_states) + 1
    if sorted(node_states) != list(range(n)):
        raise GraphFormatError("node ids must be dense 0..n-1")
    g = Graph(n, [(u, v) for u, v, _ in edge_rows])
    state = np.zeros(n, dtype=np.int8)
    for u, s in node_states.items():
        state[u] = s
    partner = np.full(n, -1, dtype=np.int32)
    for u, v, kind in edge_rows:
        if kind == "D":
            if partner[u] >= 0 or partner[v] >= 0:
                raise GraphFormatError("double edges must form a matching")
            partner[u], partner[v] = v, u
    rsg = ReducedSolutionGraph(g, state, partner)
    validate_rsg(rsg)
    return rsg
