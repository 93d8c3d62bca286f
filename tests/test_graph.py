import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcspace as v
from vcspace.graph import _ROW_BLOCK


def path_graph(n):
    return v.Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return v.Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            v.Graph(2, [(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            v.Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            v.Graph(2, [(0, 2)])

    def test_adjacency_consistent(self):
        g = v.Graph(4, [(2, 0), (1, 2), (2, 3)])
        assert sorted(g.neighbors(2).tolist()) == [0, 1, 3]
        assert g.degrees.tolist() == [1, 1, 3, 1]
        assert g.has_edge(0, 2) and not g.has_edge(0, 1)

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, nodes = g.induced_subgraph([0, 1, 2])
        assert nodes.tolist() == [0, 1, 2]
        assert sub.edge_count == 2


class TestEnsembleParams:
    def test_degree_identities(self):
        p = v.EnsembleParams(800, 200, 3.0, 0)
        assert p.c1 * p.n1 == pytest.approx(p.c2 * p.n2)
        assert 2 * p.c1 * p.c2 / (p.c1 + p.c2) == pytest.approx(3.0)

    def test_rejects_p_above_one(self):
        with pytest.raises(ValueError):
            v.EnsembleParams(4, 4, 7.0, 0)


class TestGenerator:
    def test_zero_degree_gives_empty_graph(self):
        g, _ = v.generate_random_bipartite(v.EnsembleParams(1000, 1000, 0.0, 3))
        assert g.edge_count == 0

    def test_determinism(self):
        p = v.EnsembleParams(60, 40, 2.5, 1234)
        g1, _ = v.generate_random_bipartite(p)
        g2, _ = v.generate_random_bipartite(p)
        assert np.array_equal(g1.edges, g2.edges)

    def test_edges_cross_sides(self):
        g, part = v.generate_random_bipartite(v.EnsembleParams(50, 30, 2.0, 7))
        assert part.is_valid_for(g)
        assert part.n1 == 50 and part.n2 == 30

    def test_edge_count_in_four_sigma(self):
        # binomial mean/variance over repeated seeds
        p = v.EnsembleParams(1000, 1000, 4.0, 0)
        total = 0
        reps = 20
        for seed in range(reps):
            g, _ = v.generate_random_bipartite(
                v.EnsembleParams(1000, 1000, 4.0, seed))
            total += g.edge_count
        mean = p.expected_m * reps
        sigma = math.sqrt(reps * p.expected_m * (1 - p.p))
        assert abs(total - mean) < 4 * sigma

    def test_side_degree_ratio(self):
        # c1*n1 == c2*n2 on realized samples: per-side degree sums are both m
        g, part = v.generate_random_bipartite(v.EnsembleParams(800, 200, 3.0, 11))
        deg = g.degrees
        assert deg[:800].sum() == deg[800:].sum() == g.edge_count
        realized_c1 = g.edge_count / 800
        realized_c2 = g.edge_count / 200
        assert realized_c1 / realized_c2 == pytest.approx(200 / 800)


class TestRandomGraph:
    def test_equals_dense_draw(self):
        # n is not a multiple of the row block, so the last block is partial
        n, p, seed = 2 * _ROW_BLOCK + 7, 0.05, 11
        rng = np.random.default_rng(seed)
        u, w = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
        g = v.generate_random_graph(n, p, seed)
        assert np.array_equal(g.edges, v.Graph(n, np.stack([u, w], axis=1)).edges)


class TestLeafRemoval:
    def test_tree_peels_completely(self):
        g = v.Graph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)])
        res = v.leaf_removal(g)
        assert res.core_size == 0
        # removed pairs form a matching: node-disjoint
        flat = res.leaf_matchings.ravel().tolist()
        assert len(flat) == len(set(flat))

    def test_cycle_is_all_core(self):
        res = v.leaf_removal(cycle_graph(4))
        assert res.core_nodes.tolist() == [0, 1, 2, 3]
        assert len(res.leaf_matchings) == 0

    def test_pairs_are_edges(self):
        g = v.generate_random_graph(40, 0.08, 5)
        res = v.leaf_removal(g)
        for pendant, support in res.leaf_matchings:
            assert g.has_edge(int(pendant), int(support))

    def test_idempotent_on_core(self):
        g = v.generate_random_graph(80, 0.05, 9)
        res = v.leaf_removal(g)
        core_graph, nodes = g.induced_subgraph(res.core_nodes)
        again = v.leaf_removal(core_graph)
        assert again.core_size == res.core_size
        assert len(again.leaf_matchings) == 0
        assert (core_graph.degrees >= 2).all() or res.core_size == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_peel_matching_disjoint(self, seed):
        g = v.generate_random_graph(30, 0.1, seed)
        res = v.leaf_removal(g)
        flat = res.leaf_matchings.ravel().tolist()
        assert len(flat) == len(set(flat))
        assert not set(flat) & set(res.core_nodes.tolist())

    def test_random_bipartite_core_fractions(self):
        # at c=2 the core is (nearly) absent; at c=4 it holds >30% of nodes
        lo = hi = 0.0
        for seed in range(5):
            g2, _ = v.generate_random_bipartite(v.EnsembleParams(1000, 1000, 2.0, seed))
            g4, _ = v.generate_random_bipartite(v.EnsembleParams(1000, 1000, 4.0, seed))
            lo += v.leaf_removal(g2).core_size / 2000
            hi += v.leaf_removal(g4).core_size / 2000
        assert lo / 5 < 0.01
        assert hi / 5 > 0.3


class TestGiantComponent:
    def test_empty_graph(self):
        assert v.giant_component_fraction(v.Graph(0, [])) == 0.0

    def test_edgeless(self):
        assert v.giant_component_fraction(v.Graph(10, [])) == pytest.approx(0.1)

    def test_complete_bipartite(self):
        g = v.Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert v.giant_component_fraction(g) == 1.0

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
    def test_matches_fixed_point_within_3se(self, c):
        sol = v.solve_fixed_point(c, c)
        vals = []
        for seed in range(100):
            g, _ = v.generate_random_bipartite(v.EnsembleParams(1000, 1000, c, 40_000 + seed))
            vals.append(v.giant_component_fraction(g))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / 10.0
        assert abs(mean - sol.Q) < 3 * se


class TestBipartition:
    def test_even_cycle(self):
        part = v.check_bipartition(cycle_graph(4))
        assert isinstance(part, v.BipartitePartition)
        assert part.side_of[0] == 0

    def test_odd_cycle_witness(self):
        res = v.check_bipartition(cycle_graph(3))
        assert isinstance(res, v.OddCycle)
        assert len(res) == 3

    def test_chorded_hexagon(self):
        # C6 plus a chord creating a triangle
        g = v.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
        res = v.check_bipartition(g)
        assert isinstance(res, v.OddCycle)
        assert len(res) % 2 == 1
        # witness is a closed walk in g
        cyc = list(res.nodes)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)


class TestGraphIO:
    def test_roundtrip_bipartite(self, tmp_path):
        g, part = v.generate_random_bipartite(v.EnsembleParams(10, 6, 1.5, 3))
        path = tmp_path / "g.txt"
        v.write_graph(g, path, part)
        g2, part2 = v.read_graph(path)
        assert np.array_equal(g.edges, g2.edges)
        assert part2 is not None and part2.n1 == 10

    def test_roundtrip_general(self, tmp_path):
        g = v.generate_random_graph(12, 0.3, 1)
        path = tmp_path / "g.txt"
        v.write_graph(g, path)
        g2, part2 = v.read_graph(path)
        assert np.array_equal(g.edges, g2.edges)
        assert part2 is None

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n3 2\n0 1\n# another\n1 2\n")
        g, _ = v.read_graph(path)
        assert g.edge_count == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2 9 9\n0 1\n1 2\n")
        with pytest.raises(v.graph.GraphFormatError):
            v.read_graph(path)
