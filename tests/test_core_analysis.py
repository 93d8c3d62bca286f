import math
from pathlib import Path

import numpy as np
import pytest

import vcspace as v
from vcspace import core_analysis
from vcspace.core_analysis import (BruteForceLimitError, CorruptedRsgError,
                                   _contract_pair_system, _system_partner,
                                   _unfrozen_singles)

from oracles import has_alternating_cycle, small_bipartite_corpus


def cycle_graph(n):
    return v.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def rsg_with(g, doubles, positives=()):
    state = np.zeros(g.node_count, dtype=np.int8)
    for u in positives:
        state[u] = int(v.NodeState.UNCOVERED_BACKBONE)
    partner = np.full(g.node_count, -1, dtype=np.int32)
    for a, b in doubles:
        partner[a], partner[b] = b, a
    return v.ReducedSolutionGraph(g, state, partner)


def alternating_hexagon():
    g = cycle_graph(6)
    return rsg_with(g, [(0, 1), (2, 3), (4, 5)])


def pair_ring(k):
    """k unfrozen pairs (a_i, b_i) = (2i, 2i + 1) with singles (a_i, a_{i+1 mod k})."""
    doubles = [(2 * i, 2 * i + 1) for i in range(k)]
    singles = [(2 * i, 2 * ((i + 1) % k)) for i in range(k)]
    return rsg_with(v.Graph(2 * k, doubles + singles), doubles)


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestBruteForce:
    def test_single_edge(self):
        size, covers = v.brute_force_min_covers(v.Graph(2, [(0, 1)]))
        assert size == 1 and covers == {frozenset({0}), frozenset({1})}

    def test_c5(self):
        size, covers = v.brute_force_min_covers(cycle_graph(5))
        assert size == 3 and len(covers) == 5

    def test_k33(self):
        g = v.Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        size, covers = v.brute_force_min_covers(g)
        assert size == 3
        assert covers == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_limit(self):
        g = v.Graph(24, [(2 * i, 2 * i + 1) for i in range(12)])
        with pytest.raises(BruteForceLimitError):
            v.brute_force_min_covers(g, limit=50)

    def test_every_cover_is_minimal_and_covering(self):
        for params, g, part in small_bipartite_corpus(60):
            size, covers = v.brute_force_min_covers(g)
            for cov in covers:
                assert len(cov) == size
                assert v.rsg.assignment_covers(g, cov)


class TestUnfrozenCore:
    def test_p3_empty(self):
        g = v.Graph(3, [(0, 1), (1, 2)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert v.unfrozen_core(rsg).is_empty

    def test_c4_peels_away(self):
        # each double pair constrains only the other pair
        g = cycle_graph(4)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        core = v.unfrozen_core(rsg)
        assert core.is_empty
        assert v.count_solutions(rsg).solution_count == 2

    def test_alternating_hexagon_is_core(self):
        rsg = alternating_hexagon()
        core = v.unfrozen_core(rsg)
        assert sorted(core.nodes.tolist()) == [0, 1, 2, 3, 4, 5]
        # every core pair keeps two neighbouring pairs
        assert len(core.pairs) == 3

    def test_ensemble_emergence(self):
        # mean core size is negligible at c=2 and substantial at c=4; a small
        # share of c=2 instances does carry a few-pair core, so emptiness is
        # asserted on the mean size, matching the ensemble curves
        frac_c2 = []
        frac_c4 = []
        reps = 60
        for seed in range(reps):
            r2 = v.run_instance(1000, 1000, 2.0, 60_000 + seed, entropy="none")
            r4 = v.run_instance(1000, 1000, 4.0, 60_000 + seed, entropy="none")
            frac_c2.append(r2.unfrozen_core)
            frac_c4.append(r4.unfrozen_core)
        assert sum(frac_c2) / reps < 0.005
        assert sum(frac_c4) / reps > 0.02
        assert max(frac_c2) < 0.05  # never extensive below the transition


class TestCycleSimplification:
    def test_alternating_hexagon_merges_to_one_pair(self):
        simp = v.cycle_simplification(alternating_hexagon())
        out = simp.rsg
        assert out.host.node_count == 2
        assert out.host.edge_count == 1
        assert out.edge_kind(0, 1) is v.EdgeKind.DOUBLE
        assert len(v.consistent_assignments(out)) == 2
        # merge parities: the two value classes land on different super-nodes
        images = {simp.merge_map[u][0] for u in range(6)}
        assert images == {0, 1}
        assert simp.merge_map[0][0] == simp.merge_map[2][0] == simp.merge_map[4][0]

    def test_identity_when_no_alternating_cycle(self):
        g = v.Graph(3, [(0, 1), (1, 2)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        simp = v.cycle_simplification(rsg)
        assert simp.is_identity

    def test_count_preserved_on_corpus(self):
        from vcspace.rsg import validate_rsg

        for params, g, part in small_bipartite_corpus(100):
            rsg = v.build_rsg_bipartite(g, part)
            simp = v.cycle_simplification(rsg)
            validate_rsg(simp.rsg)
            before = v.consistent_assignments(rsg)
            after = v.consistent_assignments(simp.rsg)
            assert len(before) == len(after), f"seed={params.seed}"
            # expansion maps simplified assignments onto original ones
            expanded = {v.expand_assignment(a, simp.merge_map) for a in after}
            assert expanded == before, f"seed={params.seed}"

    def test_unfrozen_core_after_simplification_mostly_empty(self):
        # Counting never depends on this, but the residual structure matters:
        # after merging alternating cycles, almost every instance peels empty.
        # The exceptions are pair cycles attached through a single end of some
        # pair (hub attachments) - see test_archived_stuck_core_fixture.
        stuck = []
        for params, g, part in small_bipartite_corpus(100):
            rsg = v.build_rsg_bipartite(g, part)
            simp = v.cycle_simplification(rsg)
            if not v.unfrozen_core(simp.rsg).is_empty:
                stuck.append(params.seed)
                # exactness is unaffected
                _, covers = v.brute_force_min_covers(g)
                assert v.count_solutions(rsg).solution_count == len(covers)
        assert len(stuck) <= 5, stuck

    def test_archived_stuck_core_fixture(self):
        # Minimal graph whose pair graph is a triangle attached via hub ends:
        # no alternating cycle exists, the pair-level core survives
        # simplification, and counting stays exact via the branching fallback.
        g, _ = v.read_graph(
            Path(__file__).parent / "fixtures" / "pair_core_stuck_hub_triangle.txt")
        part = v.check_bipartition(g)
        rsg = v.build_rsg_bipartite(g, part)
        simp = v.cycle_simplification(rsg)
        assert simp.is_identity
        core = v.unfrozen_core(simp.rsg)
        assert len(core.pairs) == 3
        _, covers = v.brute_force_min_covers(g)
        assert v.consistent_assignments(rsg) == covers
        assert v.count_solutions(rsg).solution_count == len(covers) == 4


class TestSccContraction:
    def test_hexagon_collapses_to_one_super_pair(self):
        partner = np.array([1, 0, 3, 2, 5, 4])
        su, sv = np.array([0, 1, 3]), np.array([5, 2, 4])
        rep, a, b = _contract_pair_system(partner, su, sv)
        assert rep.tolist() == [0, 1, 0, 1, 0, 1]
        # every single joins the class {0, 2, 4} to its mirror {1, 3, 5}
        assert len(a) == len(b) == 0

    def test_hub_triangle_stays_identity(self):
        g, _ = v.read_graph(
            Path(__file__).parent / "fixtures" / "pair_core_stuck_hub_triangle.txt")
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        su, sv = _unfrozen_singles(rsg)
        rep, a, b = _contract_pair_system(_system_partner(rsg), su, sv)
        assert rep.tolist() == list(range(g.node_count))
        assert sorted(zip(a.tolist(), b.tolist())) == \
            sorted(zip(su.tolist(), sv.tolist()))

    def test_node_sharing_class_with_partner_is_corrupt(self):
        # K4 with doubles (0, 1) and (2, 3): all four nodes fall into one class
        g = v.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(CorruptedRsgError, match="partner"):
            v.cycle_simplification(rsg_with(g, [(0, 1), (2, 3)]))

    def test_single_inside_one_class_is_corrupt(self):
        # the alternating square 0-1-2-3 makes {0, 2} one class; chord (0, 2)
        # lies inside it
        g = v.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        with pytest.raises(CorruptedRsgError, match="inside one value class"):
            v.cycle_simplification(rsg_with(g, [(0, 1), (2, 3)]))


class TestAlternatingCycleSearch:
    def test_topological_sort_oracle(self):
        # the oracle agrees with the known cases, and on the corpus it sees a
        # cycle exactly when simplification changes the RSG
        assert has_alternating_cycle(alternating_hexagon())
        g, _ = v.read_graph(
            Path(__file__).parent / "fixtures" / "pair_core_stuck_hub_triangle.txt")
        assert not has_alternating_cycle(v.build_rsg_bipartite(g, v.check_bipartition(g)))
        for params, g, part in small_bipartite_corpus(100):
            rsg = v.build_rsg_bipartite(g, part)
            simp = v.cycle_simplification(rsg)
            assert has_alternating_cycle(rsg) != simp.is_identity, f"seed={params.seed}"


class TestCounting:
    def test_single_edge(self):
        g = v.Graph(2, [(0, 1)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        res = v.count_solutions(rsg)
        assert res.solution_count == 2
        assert res.entropy == pytest.approx(0.5)

    def test_c4(self):
        g = cycle_graph(4)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        res = v.count_solutions(rsg)
        assert res.solution_count == 2
        assert res.entropy == pytest.approx(0.25)

    def test_counts_match_oracle_500(self):
        for params, g, part in small_bipartite_corpus(500):
            rsg = v.build_rsg_bipartite(g, part)
            _, covers = v.brute_force_min_covers(g)
            assert v.count_solutions(rsg).solution_count == len(covers), \
                f"seed={params.seed}"

    def test_component_additivity_of_entropy(self):
        # h_s equals the sum of per-component log2 counts over n
        g = v.Graph(6, [(0, 1), (2, 3), (3, 4)])  # edge + path + isolated node
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        res = v.count_solutions(rsg)
        assert res.solution_count == 2 * 1
        assert res.entropy == pytest.approx(math.log2(2) / 6)

    def test_core_counts(self):
        rsg = alternating_hexagon()
        core = v.unfrozen_core(rsg)
        res = v.count_core_solutions(rsg, core, 6)
        assert res.core_count == 2
        assert res.core_entropy == pytest.approx(math.log2(2) / 6)

    def test_empty_core_counts_one(self):
        g = v.Graph(3, [(0, 1), (1, 2)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        core = v.unfrozen_core(rsg)
        res = v.count_core_solutions(rsg, core, 3)
        assert res.core_count == 1 and res.core_entropy == 0.0

    def test_big_integer_counts(self):
        # 60 disjoint edges: count is 2^60, beyond float precision
        g = v.Graph(120, [(2 * i, 2 * i + 1) for i in range(60)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        res = v.count_solutions(rsg)
        assert res.solution_count == 2 ** 60
        assert res.entropy == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [10, 30])
    def test_pair_ring_counts_lucas_number(self, k):
        # no two neighbouring a_i uncovered: the cyclic binary strings without
        # two adjacent zeros, L_k of them; k = 30 is one stuck component
        rsg = pair_ring(k)
        assert len(v.unfrozen_core(rsg).pairs) == k
        res = v.count_solutions(rsg)
        assert res.solution_count == res.core_count == lucas(k)

    def test_exhausted_budget_names_component_size(self, monkeypatch):
        monkeypatch.setattr(core_analysis, "RESIDUAL_WORK_BUDGET", 0)
        with pytest.raises(v.CountIntractableError,
                           match="stuck component of 30 pair variables"):
            v.count_solutions(pair_ring(30))

    def test_core_at_most_total(self):
        for params, g, part in small_bipartite_corpus(150):
            rsg = v.build_rsg_bipartite(g, part)
            res = v.count_solutions(rsg)
            assert res.core_count <= res.solution_count, f"seed={params.seed}"

    def test_counts_on_bipartite_core_graphs(self):
        # odd cycles allowed outside the core: counting runs on the broken RSG
        rng = np.random.default_rng(17)
        checked = 0
        for seed in range(250):
            g = v.generate_random_graph(int(rng.integers(4, 13)), 0.22,
                                        88_000 + seed)
            try:
                rsg = v.build_rsg_bipartite_core(g)
            except v.NotBipartiteCoreError:
                continue
            checked += 1
            _, covers = v.brute_force_min_covers(g)
            assert v.count_solutions(rsg).solution_count == len(covers), \
                f"seed={88_000 + seed}"
            simp = v.cycle_simplification(rsg)
            assert len(v.consistent_assignments(simp.rsg)) == len(covers), \
                f"seed={88_000 + seed}"
        assert checked > 50
