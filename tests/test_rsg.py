import numpy as np
import pytest

import vcspace as v
from vcspace.rsg import (EnumerationLimitError, PropagationConflictError,
                         validate_rsg)

from oracles import (exhaustive_state_classification, odd_cycle_breaking_sweep,
                     small_bipartite_corpus)

U = v.NodeState.UNFROZEN
P = v.NodeState.UNCOVERED_BACKBONE
N = v.NodeState.COVERED_BACKBONE


def path_graph(n):
    return v.Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return v.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def states_of(rsg):
    return [rsg.state_of(u) for u in range(rsg.host.node_count)]


def rsg_with(g, doubles, positives=()):
    state = np.zeros(g.node_count, dtype=np.int8)
    for u in positives:
        state[u] = int(P)
    partner = np.full(g.node_count, -1, dtype=np.int32)
    for a, b in doubles:
        partner[a], partner[b] = b, a
    return v.ReducedSolutionGraph(g, state, partner)


class TestFreezingInfluence:
    def test_p3(self):
        g = path_graph(3)
        rsg = rsg_with(g, [(0, 1)], positives=[2])
        out = v.freezing_influence(rsg)
        assert states_of(out) == [P, N, P]
        assert out.min_cover_size == 1

    def test_star(self):
        g = v.Graph(4, [(0, 1), (0, 2), (0, 3)])
        rsg = rsg_with(g, [(0, 1)], positives=[2, 3])
        out = v.freezing_influence(rsg)
        assert states_of(out) == [N, P, P, P]

    def test_c4_fixpoint_is_input(self):
        g = cycle_graph(4)
        rsg = rsg_with(g, [(0, 1), (2, 3)])
        out = v.freezing_influence(rsg)
        assert states_of(out) == [U, U, U, U]

    def test_conflict_detected(self):
        # two adjacent pre-marked uncovered backbones cannot coexist
        g = v.Graph(2, [(0, 1)])
        rsg = rsg_with(g, [], positives=[0, 1])
        with pytest.raises(PropagationConflictError):
            v.freezing_influence(rsg)

    def test_monotone_frozen_only_grows(self):
        for params, g, part in small_bipartite_corpus(60):
            rsg = v.build_rsg_bipartite(g, part)
            again = v.freezing_influence(rsg)
            assert np.array_equal(rsg.state, again.state)


class TestBuildBipartite:
    def test_single_edge(self):
        g = v.Graph(2, [(0, 1)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert states_of(rsg) == [U, U]
        assert rsg.edge_kind(0, 1) is v.EdgeKind.DOUBLE
        assert v.consistent_assignments(rsg) == {frozenset({0}), frozenset({1})}

    def test_p3(self):
        g = path_graph(3)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert states_of(rsg) == [P, N, P]
        assert v.consistent_assignments(rsg) == {frozenset({1})}

    def test_exactness_500_instances(self):
        # consistent assignments == exhaustively enumerated minimum covers
        for params, g, part in small_bipartite_corpus(500):
            rsg = v.build_rsg_bipartite(g, part)
            _, covers = v.brute_force_min_covers(g)
            assert v.consistent_assignments(rsg) == covers, f"seed={params.seed}"

    def test_states_match_solution_space(self):
        for params, g, part in small_bipartite_corpus(120):
            rsg = v.build_rsg_bipartite(g, part)
            want = exhaustive_state_classification(g)
            got = {u: rsg.state_of(u) for u in range(g.node_count)}
            assert got == want, f"seed={params.seed}"

    def test_min_cover_size_is_matching_size(self):
        for params, g, part in small_bipartite_corpus(100):
            m = v.max_bipartite_matching(g, part)
            rsg = v.build_rsg_bipartite(g, part, m)
            assert rsg.min_cover_size == m.size
            validate_rsg(rsg)

    def test_assignments_cover_and_have_min_size(self):
        for params, g, part in small_bipartite_corpus(80):
            rsg = v.build_rsg_bipartite(g, part)
            for covered in v.consistent_assignments(rsg):
                assert len(covered) == rsg.min_cover_size
                assert v.rsg.assignment_covers(g, covered)


class TestConsistentAssignments:
    def test_alternating_hexagon_has_two(self):
        g = cycle_graph(6)
        rsg = rsg_with(g, [(0, 1), (2, 3), (4, 5)])
        out = v.consistent_assignments(rsg)
        assert out == {frozenset({1, 3, 5}), frozenset({0, 2, 4})}

    def test_limit_enforced(self):
        # 8 isolated edges -> 256 assignments
        g = v.Graph(16, [(2 * i, 2 * i + 1) for i in range(8)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        with pytest.raises(EnumerationLimitError):
            v.consistent_assignments(rsg, limit=100)


class TestStateRatios:
    def test_p3(self):
        g = path_graph(3)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert v.state_ratios(rsg) == pytest.approx((2 / 3, 1 / 3, 0.0))

    def test_single_edge(self):
        g = v.Graph(2, [(0, 1)])
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert v.state_ratios(rsg) == (0.0, 0.0, 1.0)

    def test_c4(self):
        g = cycle_graph(4)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        assert v.state_ratios(rsg) == (0.0, 0.0, 1.0)


class TestOddCycleBreaking:
    def test_triangle_with_pendant(self):
        # doubles (d=3,a=0), (b=1, c=2); breaking freezes a covered
        g = v.Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        rsg = rsg_with(g, [(3, 0), (1, 2)])
        out = v.odd_cycle_breaking(rsg)
        assert states_of(out) == [N, U, U, P]
        _, covers = v.brute_force_min_covers(g)
        assert v.consistent_assignments(out) == covers == {
            frozenset({0, 1}), frozenset({0, 2})}

    def test_c5_with_pendant(self):
        # C5 on 1..5 plus pendant 6 on node 1 (0-based: 0..4 and 5)
        g = v.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
        rsg = rsg_with(g, [(5, 0), (1, 2), (3, 4)])
        out = v.odd_cycle_breaking(rsg)
        assert out.state_of(0) is N
        assert out.state_of(5) is P
        _, covers = v.brute_force_min_covers(g)
        got = v.consistent_assignments(out)
        assert got == covers
        assert got == {frozenset({0, 2, 4}), frozenset({0, 2, 3}),
                       frozenset({0, 1, 3})}

    def test_noop_on_bipartite(self):
        for params, g, part in small_bipartite_corpus(200):
            rsg = v.build_rsg_bipartite(g, part)
            out = v.odd_cycle_breaking(rsg)
            assert np.array_equal(out.state, rsg.state), f"seed={params.seed}"

    def test_k4_contradicts_both_ways(self):
        # two doubles cover K4 with 2 nodes, but its minimum cover has 3:
        # node 0 uncovered forces 1, 2, 3 covered; 0 covered forces 1
        # uncovered, then 2 and 3 covered across their double
        g = v.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(PropagationConflictError):
            v.odd_cycle_breaking(rsg_with(g, [(0, 1), (2, 3)]))


class TestBuildBipartiteCore:
    def test_trees_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 14))
            edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
            g = v.Graph(n, edges)
            rsg = v.build_rsg_bipartite_core(g)
            _, covers = v.brute_force_min_covers(g)
            assert v.consistent_assignments(rsg) == covers

    def test_triangle_with_pendant(self):
        g = v.Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        rsg = v.build_rsg_bipartite_core(g)
        _, covers = v.brute_force_min_covers(g)
        assert v.consistent_assignments(rsg) == covers

    def test_c4_with_pendant_path(self):
        # C4 plus a path of length 2 hanging off node 0
        g = v.Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
        rsg = v.build_rsg_bipartite_core(g)
        assert rsg.min_cover_size == 3
        _, covers = v.brute_force_min_covers(g)
        assert v.consistent_assignments(rsg) == covers

    def test_rejects_non_bipartite_core(self):
        # two triangles sharing no leaf structure: core is non-bipartite
        g = v.Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(v.NotBipartiteCoreError):
            v.build_rsg_bipartite_core(g)

    def test_general_bipartite_core_instances(self):
        # random graphs kept only when their core is bipartite
        rng = np.random.default_rng(9)
        checked = 0
        for seed in range(300):
            g = v.generate_random_graph(int(rng.integers(4, 13)), 0.22,
                                        77_000 + seed)
            try:
                rsg = v.build_rsg_bipartite_core(g)
            except v.NotBipartiteCoreError:
                continue
            checked += 1
            _, covers = v.brute_force_min_covers(g)
            assert v.consistent_assignments(rsg) == covers, f"seed={77_000 + seed}"
            want = exhaustive_state_classification(g)
            assert states_of(rsg) == [want[u] for u in range(g.node_count)], \
                f"seed={77_000 + seed}"
        assert checked > 50

    def test_one_pass_equals_sweep_to_fixpoint(self):
        checked = 0
        for seed in range(12):
            g = v.generate_random_graph(600, 2 / 600, seed)
            try:
                rsg = v.build_rsg_bipartite_core(g)
            except v.NotBipartiteCoreError:
                continue
            checked += 1
            state = np.where(rsg.partner < 0, int(P), int(U)).astype(np.int8)
            seed_rsg = v.ReducedSolutionGraph(g, state, rsg.partner.copy())
            want = odd_cycle_breaking_sweep(v.freezing_influence(seed_rsg))
            assert np.array_equal(rsg.state, want.state), f"seed={seed}"
        assert checked >= 4


class TestRsgIO:
    def test_roundtrip(self, tmp_path):
        g, part = v.generate_random_bipartite(v.EnsembleParams(8, 6, 1.8, 2))
        rsg = v.build_rsg_bipartite(g, part)
        path = tmp_path / "out.rsg"
        v.write_rsg(rsg, path)
        back = v.read_rsg(path)
        assert np.array_equal(back.state, rsg.state)
        assert np.array_equal(back.partner, rsg.partner)
        assert np.array_equal(back.host.edges, rsg.host.edges)

    def test_format_lines(self, tmp_path):
        g = path_graph(3)
        rsg = v.build_rsg_bipartite(g, v.check_bipartition(g))
        path = tmp_path / "p3.rsg"
        v.write_rsg(rsg, path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["0 P", "1 N", "2 P"]
        assert set(lines[3:]) == {"0 1 D", "1 2 S"}

    def test_rejects_overlapping_doubles(self, tmp_path):
        path = tmp_path / "bad.rsg"
        path.write_text("0 U\n1 U\n2 U\n0 1 D\n1 2 D\n")
        with pytest.raises(v.graph.GraphFormatError):
            v.read_rsg(path)

    def test_rejects_bad_state_char(self, tmp_path):
        path = tmp_path / "bad.rsg"
        path.write_text("0 X\n1 U\n0 1 S\n")
        with pytest.raises(v.graph.GraphFormatError):
            v.read_rsg(path)

    def test_rejects_inconsistent_states(self, tmp_path):
        # two adjacent uncovered backbones violate the structure
        path = tmp_path / "bad.rsg"
        path.write_text("0 P\n1 P\n0 1 S\n")
        with pytest.raises(ValueError):
            v.read_rsg(path)
