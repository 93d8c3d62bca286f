import numpy as np
import pytest

import vcspace as v
from vcspace.matching import InvalidPartitionError

from oracles import (BASE_SEED, brute_force_max_matching,
                     matching_is_maximum_bipartite, small_bipartite_corpus,
                     verify_matching_loop)


def path_graph(n):
    return v.Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_single_edge():
    g = v.Graph(2, [(0, 1)])
    m = v.max_bipartite_matching(g, v.check_bipartition(g))
    assert m.size == 1
    assert m.pairs == [(0, 1)]


def test_path_p5():
    g = path_graph(5)
    m = v.max_bipartite_matching(g, v.check_bipartition(g))
    assert m.size == 2


def test_invalid_partition_rejected():
    g = v.Graph(3, [(0, 1), (1, 2)])
    bad = v.BipartitePartition(np.array([0, 0, 1], dtype=np.int8))
    with pytest.raises(InvalidPartitionError):
        v.max_bipartite_matching(g, bad)


def test_konig_equality_on_corpus():
    # matching size == brute-force minimum cover size, 200 instances n <= 12
    for params, g, part in small_bipartite_corpus(200):
        if g.node_count > 12:
            continue
        m = v.max_bipartite_matching(g, part)
        size, _ = v.brute_force_min_covers(g)
        assert m.size == size, f"seed={params.seed}"


def test_no_augmenting_path_left():
    for params, g, part in small_bipartite_corpus(60):
        m = v.max_bipartite_matching(g, part)
        assert matching_is_maximum_bipartite(g, part, m), f"seed={params.seed}"


def test_matches_scipy_size():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    for seed in range(30):
        g, part = v.generate_random_bipartite(
            v.EnsembleParams(40, 25, 2.5, BASE_SEED + seed))
        m = v.max_bipartite_matching(g, part)
        bi = np.zeros((40, 25), dtype=np.int8)
        for a, b in g.edges:
            bi[a, b - 40] = 1
        perm = maximum_bipartite_matching(csr_matrix(bi), perm_type="column")
        assert m.size == int((perm != -1).sum())


def test_determinism():
    g, part = v.generate_random_bipartite(v.EnsembleParams(50, 50, 3.0, 5))
    m1 = v.max_bipartite_matching(g, part)
    m2 = v.max_bipartite_matching(g, part)
    assert np.array_equal(m1.partner, m2.partner)


class TestVerifyMatching:
    def test_empty_matching_ok(self):
        g = path_graph(4)
        assert v.verify_matching(g, v.Matching(np.full(4, -1, np.int32)))

    def test_shared_node_rejected(self):
        g = path_graph(3)
        partner = np.array([1, 0, 1], dtype=np.int32)  # 2 claims 1 too
        assert not v.verify_matching(g, v.Matching(partner))

    def test_non_edge_rejected(self):
        g = path_graph(4)
        partner = np.array([2, -1, 0, -1], dtype=np.int32)  # (0,2) not an edge
        assert not v.verify_matching(g, v.Matching(partner))

    def test_agrees_with_loop_reference_on_corrupted_partners(self):
        # vectorised check against the node-by-node loop, on valid matchings
        # and on swapped pairs, self-partners, non-involutions, non-edges and
        # out-of-range partners
        rng = np.random.default_rng(BASE_SEED)
        verdicts = []
        for seed in range(40):
            g, part = v.generate_random_bipartite(
                v.EnsembleParams(12, 9, 0.8 + 0.1 * seed, BASE_SEED + seed))
            good = v.max_bipartite_matching(g, part).partner
            n = g.node_count
            matched = np.flatnonzero(good >= 0)
            free = np.flatnonzero(good < 0)
            variants = [good.copy()]
            if len(matched) >= 4:
                p = good.copy()  # re-pair (a, b), (c, d) as (a, d), (c, b)
                a, c = rng.choice(matched[matched < 12], size=2, replace=False)
                b, d = p[a], p[c]
                p[a], p[d], p[c], p[b] = d, a, b, c
                variants.append(p)
            p = good.copy()  # self-partner
            p[rng.integers(n)] = rng.integers(n)
            variants.append(p)
            if len(matched) and len(free):
                p = good.copy()  # a free node claims a matched node's partner
                p[rng.choice(free)] = good[rng.choice(matched)]
                variants.append(p)
            if len(matched):
                p = good.copy()  # non-involution: one end points elsewhere
                u = rng.choice(matched)
                p[u] = (p[u] + 1) % n
                variants.append(p)
            if len(free) >= 2:
                p = good.copy()  # pair two free nodes, edge or not
                a, b = rng.choice(free, size=2, replace=False)
                p[a], p[b] = b, a
                variants.append(p)
            p = good.copy()
            p[rng.integers(n)] = n + 3  # out of range
            variants.append(p)
            variants.append(np.full(n - 1, -1, dtype=np.int32))  # wrong length
            for p in variants:
                m = v.Matching(p.astype(np.int32))
                expected = verify_matching_loop(g, m)
                assert v.verify_matching(g, m) == expected, f"seed={seed} partner={p}"
                verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


def test_heuristic_matching_on_general_graphs():
    # valid matching always; maximum on these small instances
    for seed in range(40):
        g = v.generate_random_graph(10 + seed % 6, 0.3, BASE_SEED + seed)
        m = v.heuristic_max_matching(g)
        assert v.verify_matching(g, m)
        assert m.size <= brute_force_max_matching(g)


def test_heuristic_exact_on_bipartite():
    for params, g, part in small_bipartite_corpus(40):
        m = v.heuristic_max_matching(g)
        exact = v.max_bipartite_matching(g, part)
        assert m.size == exact.size, f"seed={params.seed}"
