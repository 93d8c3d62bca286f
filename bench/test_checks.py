"""Tests of the benchmark's independent checks.

The checks are compared with exhaustive search on tiny graphs, and must
reject rows and growth results that were deliberately corrupted.
"""

from __future__ import annotations

import dataclasses
import itertools

import networkx as nx
import numpy as np
import pytest

import vcspace as v

import checks


def min_covers(n: int, edges) -> list[frozenset[int]]:
    """Every minimum vertex cover, by enumerating all 2^n node subsets."""
    out = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in edges):
                out.append(frozenset(chosen))
        if out:
            return out
    return out


def tiny_bipartite(seed: int):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    p = rng.uniform(0.2, 0.8)
    edges = [(a, n1 + b) for a in range(n1) for b in range(n2) if rng.random() < p]
    return n1, n2, np.array(edges, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("seed", range(40))
def test_truth_matches_exhaustive_search(seed):
    n1, n2, edges = tiny_bipartite(seed)
    n = n1 + n2
    covers = min_covers(n, edges.tolist())
    truth = checks.BipartiteTruth(n1, n2, edges)
    assert truth.matching_size == len(covers[0])
    in_none = {x for x in range(n) if not any(x in c for c in covers)}
    in_all = {x for x in range(n) if all(x in c for c in covers)}
    assert set(np.flatnonzero(truth.uncovered)) == in_none
    assert set(np.flatnonzero(truth.covered)) == in_all
    assert checks.count_closed_sets(*truth.pair_arcs()) == len(covers)


def closed_sets(b: int, arcs) -> int:
    """Subsets of b variables closed under arcs, by enumerating all 2^b."""
    return sum(all(d in chosen for s, d in arcs if s in chosen)
               for size in range(b + 1)
               for chosen in map(set, itertools.combinations(range(b), size)))


@pytest.mark.parametrize("seed", range(20))
def test_tree_dp_and_branching_equal_enumeration(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 11))
    arcs = []
    for child in range(1, b):
        parent = int(rng.integers(0, child))
        arcs.append((parent, child) if rng.random() < 0.5 else (child, parent))
    assert checks._count_tree(b, arcs) == closed_sets(b, arcs)
    # extra forward arcs keep it acyclic but no longer a tree
    dag = sorted({(int(s), int(d)) for s, d in rng.integers(0, b, (b, 2)) if s < d} | set(
        (min(a), max(a)) for a in arcs))
    assert checks._count_by_branching(b, dag) == closed_sets(b, dag)


def test_count_contracts_cycles_and_gives_up_past_the_limits(monkeypatch):
    # a directed 3-cycle is one block: all in or all out
    assert checks.count_closed_sets(3, np.array([(0, 1), (1, 2), (2, 0)])) == 2
    ladder = [(i, i + 1) for i in range(11)] + [(i, i + 2) for i in range(10)]
    assert checks.count_closed_sets(12, np.array(ladder)) == closed_sets(12, ladder)
    monkeypatch.setattr(checks, "BRANCH_CALLS", 3)
    assert checks.count_closed_sets(12, np.array(ladder)) is None
    monkeypatch.setattr(checks, "BRANCH_BLOCKS", 11)
    assert checks._count_by_branching(12, ladder) is None


@pytest.mark.parametrize("seed", range(10))
def test_leaf_removal_and_bipartiteness(seed):
    g = v.generate_random_graph(30, 0.1, seed)
    core, _ = checks.leaf_removal(g.node_count, g.edges)
    assert core == v.leaf_removal(g).core_nodes.tolist()
    sub = nx.Graph()
    sub.add_nodes_from(core)
    sub.add_edges_from((a, b) for a, b in g.edges.tolist() if a in core and b in core)
    assert checks.is_bipartite(core, g.edges) == nx.is_bipartite(sub)


def small_row(entropy="full"):
    row = v.run_instance(6, 6, 2.5, 11, entropy=entropy)
    g, _ = v.generate_random_bipartite(v.EnsembleParams(6, 6, 2.5, 11))
    return row, checks.BipartiteTruth(6, 6, g.edges)


def test_row_passes_and_corrupted_rows_fail():
    row, truth = small_row()
    covers = min_covers(12, truth.edges.tolist())
    assert row.s_n == len(covers)
    stats = {}
    assert checks.check_instance_row(row, truth, "full", stats=stats) == []
    assert stats == {"exact_counts": 1, "counted_rows": 1}
    for change in ({"s_n": row.s_n + 1}, {"q_plus": row.q_plus + 1 / 12},
                   {"x": row.x - 1 / 12}, {"giant": 0.5}, {"big_ratio": not row.big_ratio},
                   {"h_s": row.h_s * 1.01}):
        bad = dataclasses.replace(row, **change)
        assert checks.check_instance_row(bad, truth, "full") != [], change


def test_uncounted_row_must_carry_no_counts():
    row, truth = small_row("none")
    assert checks.check_instance_row(row, truth, "none") == []
    assert checks.check_instance_row(dataclasses.replace(row, s_n=1), truth, "none") != []


def test_growth_result_passes_and_corruptions_fail():
    g = v.generate_random_graph(14, 0.3, 3)
    st = v.grow_all(g)
    args = (g.edges, st.accepted, st.discarded, st.pending, st.rsg.partner,
            st.matching_size, st.rsg.min_cover_size)
    assert checks.check_ke_growth(*args) == []
    dropped = set(st.accepted) - {min(st.accepted)}
    assert checks.check_ke_growth(g.edges, dropped, *args[2:]) != []
    assert checks.check_ke_growth(*args[:5], st.matching_size + 1, st.rsg.min_cover_size + 1) != []


def test_bipartite_core_cover_size():
    # a triangle with a pendant node: odd graph, empty leaf-removal core
    g = v.Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    rsg = v.build_rsg_bipartite_core(g)
    part = v.check_bipartition(g)
    assert isinstance(part, v.OddCycle)
    assert len(min_covers(4, g.edges.tolist())[0]) == rsg.min_cover_size
    assert checks.check_bipartite_core(4, g.edges, None, part.nodes, rsg.partner,
                                       rsg.min_cover_size) == []
    assert checks.check_bipartite_core(4, g.edges, None, part.nodes, rsg.partner,
                                       rsg.min_cover_size + 1) != []
    assert checks.check_bipartite_core(4, g.edges, None, (0, 1, 3), rsg.partner,
                                       rsg.min_cover_size) != []
