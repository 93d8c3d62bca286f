import hashlib
import statistics

import pytest

import vcspace as v
from vcspace.experiments import (AGGREGATE_COLUMNS, ROW_COLUMNS, EnsembleStats,
                                 aggregate_rows, read_rows_csv, write_aggregate_csv,
                                 write_rows_csv)

from oracles import BASE_SEED


def small_config(**overrides):
    base = dict(n1=120, n2=80, c_values=(1.0, 2.5), instances=12,
                base_seed=BASE_SEED, entropy="full")
    base.update(overrides)
    return v.RunConfig(**base)


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("# generated_at"))


def digest_without_timestamp(path) -> str:
    body = "".join(ln for ln in path.read_text().splitlines(keepends=True)
                   if not ln.startswith("# generated_at"))
    return hashlib.sha256(body.encode()).hexdigest()


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            v.RunConfig(n1=0, n2=5, c_values=(1.0,), instances=1, base_seed=0)
        with pytest.raises(ValueError):
            small_config(c_values=())
        with pytest.raises(ValueError):
            small_config(instances=0)
        with pytest.raises(ValueError):
            small_config(entropy="sometimes")
        with pytest.raises(ValueError):
            small_config(c_values=(100.0,))  # p > 1 for these sizes

    def test_header_line_mentions_everything(self):
        line = small_config().header_line()
        for token in ("n1=120", "n2=80", "instances=12", f"base_seed={BASE_SEED}"):
            assert token in line


class TestRunInstance:
    def test_row_consistency(self):
        row = v.run_instance(100, 100, 1.5, BASE_SEED)
        assert row.q_plus + row.q_minus + row.q_zero == pytest.approx(1.0)
        assert 0 <= row.x <= 0.5
        assert row.s_n >= 1 and row.s_c >= 1
        # coverage equals 1 - q_plus - q_zero/2 exactly on every instance
        assert row.x == pytest.approx(1 - row.q_plus - row.q_zero / 2, abs=1e-9)

    def test_entropy_modes(self):
        full = v.run_instance(60, 60, 2.0, BASE_SEED, entropy="full")
        core = v.run_instance(60, 60, 2.0, BASE_SEED, entropy="core")
        none = v.run_instance(60, 60, 2.0, BASE_SEED, entropy="none")
        assert full.h_s is not None and full.h_c is not None
        assert core.h_s is None and core.h_c is not None
        assert none.h_s is None and none.h_c is None
        assert core.h_c == full.h_c
        assert full.x == core.x == none.x

    def test_determinism(self):
        a = v.run_instance(80, 80, 2.0, BASE_SEED + 3)
        b = v.run_instance(80, 80, 2.0, BASE_SEED + 3)
        assert a == b


class TestClassifyBigRatio:
    def test_requires_rows(self):
        with pytest.raises(ValueError):
            v.classify_big_ratio([])

    def test_requires_single_cell(self):
        r1 = v.run_instance(60, 60, 1.0, 1, entropy="none")
        r2 = v.run_instance(60, 60, 2.0, 1, entropy="none")
        with pytest.raises(ValueError):
            v.classify_big_ratio([r1, r2])

    def test_all_big_at_unit_degree(self):
        rows = [v.run_instance(200, 200, 1.0, BASE_SEED + i, entropy="none")
                for i in range(20)]
        assert v.classify_big_ratio(rows) == 1.0

    def test_threshold_insensitivity_at_c6(self):
        # the per-instance q+ histogram is bimodal around 0.5 and 0, so the
        # classification barely moves when the cut shifts by +-0.1
        rows = [v.run_instance(1000, 1000, 6.0, BASE_SEED + i, entropy="none")
                for i in range(60)]
        rho_mid = v.classify_big_ratio(rows, 0.25)
        rho_lo = v.classify_big_ratio(rows, 0.15)
        rho_hi = v.classify_big_ratio(rows, 0.35)
        assert abs(rho_lo - rho_mid) <= 0.05
        assert abs(rho_hi - rho_mid) <= 0.05


class TestSweep:
    def test_rows_and_aggregates(self, tmp_path):
        config = small_config()
        stats = v.run_sweep(config, tmp_path / "r.csv", tmp_path / "a.csv")
        assert len(stats.rows) == 24
        assert len(stats.aggregates) == 2
        agg = stats.aggregates[0]
        cell = [r for r in stats.rows if r.c == agg.c]
        assert agg.mean_x == pytest.approx(statistics.fmean(r.x for r in cell))
        assert agg.instances == 12

    def test_reproducible_csv_bytes(self, tmp_path):
        config = small_config(instances=6)
        v.run_sweep(config, tmp_path / "r1.csv", tmp_path / "a1.csv")
        v.run_sweep(config, tmp_path / "r2.csv", tmp_path / "a2.csv")
        assert strip_timestamp((tmp_path / "r1.csv").read_text()) == \
            strip_timestamp((tmp_path / "r2.csv").read_text())
        assert strip_timestamp((tmp_path / "a1.csv").read_text()) == \
            strip_timestamp((tmp_path / "a2.csv").read_text())

    def test_golden_csv_digests(self, tmp_path):
        # The unfrozen_core, s_c and h_c columns depend on which maximum
        # matching is used: scipy's maximum_bipartite_matching gives other
        # unfrozen cores for seeds 13, 16, 19 and 21 at c = 3 and seeds 12
        # and 21 at c = 3.5.  The digests pin the bytes across versions of
        # the matching and RSG code.
        config = v.RunConfig(500, 500, (3.0, 3.5), 30, base_seed=0, entropy="core")
        v.run_sweep(config, tmp_path / "rows.csv", tmp_path / "agg.csv")
        assert digest_without_timestamp(tmp_path / "rows.csv") == \
            "8e6436dc9d8134645e3ed076aa34fc0348a3785eaf1e3e9c94a0917c61b5a8ae"
        assert digest_without_timestamp(tmp_path / "agg.csv") == \
            "6051e74dceb8798eb845ee00524e4e7ee8566d552d2fe2497841574a1be9d0ee"

    def test_golden_csv_digests_full_entropy(self, tmp_path):
        # 9 of these 24 instances contract nontrivial classes among unfrozen
        # nodes, so the digests pin s_n, s_c and h_s through real cycle
        # simplification, not only the identity case.
        config = v.RunConfig(300, 300, (3.25, 4.0, 7.0), 8, base_seed=0, entropy="full")
        v.run_sweep(config, tmp_path / "rows.csv", tmp_path / "agg.csv")
        assert digest_without_timestamp(tmp_path / "rows.csv") == \
            "e7d5deeaa1f4d834166d3454aa67e87387d293ced68e62a15c263244d9d98119"
        assert digest_without_timestamp(tmp_path / "agg.csv") == \
            "b37f48863bdd08bc311db7effe0331b0c930805188ae09072b465aa0e95d6da1"

    def test_counts_beyond_int_str_digit_limit_round_trip(self, tmp_path):
        # 3**20000 has 9543 digits, above the 4300-digit cap of str(int)
        config = small_config(instances=1, c_values=(1.0,))
        row = v.InstanceRow(
            seed=0, n1=120, n2=80, c=1.0, m=100, x=0.25, q_plus=0.5,
            q_minus=0.25, q_zero=0.25, giant=0.5, leaf_core=0.0,
            unfrozen_core=0.0, h_s=0.125, h_c=0.0, s_n=3**20000, s_c=1,
            big_ratio=True)
        write_rows_csv(tmp_path / "rows.csv", EnsembleStats(config, [row], []))
        assert read_rows_csv(tmp_path / "rows.csv") == [row]

    def test_aggregates_recomputable_from_rows_csv(self, tmp_path):
        config = small_config(instances=6)
        stats = v.run_sweep(config, tmp_path / "rows.csv", tmp_path / "agg.csv")
        parsed = read_rows_csv(tmp_path / "rows.csv")
        assert parsed == stats.rows
        again = EnsembleStats(config, parsed, aggregate_rows(parsed, config))
        write_aggregate_csv(tmp_path / "agg2.csv", again)
        assert strip_timestamp((tmp_path / "agg.csv").read_text()) == \
            strip_timestamp((tmp_path / "agg2.csv").read_text())

    def test_theory_join_matches_solver(self, tmp_path):
        config = small_config(instances=4)
        stats = v.run_sweep(config)
        for agg in stats.aggregates:
            params = v.EnsembleParams(config.n1, config.n2, agg.c, 0)
            sol = v.solve_fixed_point(params.c1, params.c2)
            assert agg.theory_x == pytest.approx(sol.x, abs=1e-12)
            assert agg.theory_q_plus == pytest.approx(sol.q_plus, abs=1e-12)
            assert agg.theory_q_zero == pytest.approx(sol.q_zero, abs=1e-12)
            assert agg.theory_Q == pytest.approx(sol.Q, abs=1e-12)

    def test_theory_join_matches_theory_subcommand(self, tmp_path):
        # at a ratio that divides n exactly, the sweep's theory columns equal
        # the `theory` output for the same grid at the full 12 digits
        from vcspace.meanfield import theory_csv_rows

        n1, n2 = v.ratio_sizes("1:1", 200)
        config = v.RunConfig(n1=n1, n2=n2, c_values=(1.0, 3.0), instances=2,
                             base_seed=BASE_SEED, entropy="none")
        stats = v.run_sweep(config)
        theory_lines = theory_csv_rows("1:1", [1.0, 3.0])
        header = theory_lines[0].split(",")
        for agg, line in zip(stats.aggregates, theory_lines[1:]):
            row = dict(zip(header, line.split(",")))
            assert format(agg.theory_Q, ".12g") == row["Q"]
            assert format(agg.theory_x, ".12g") == row["x"]
            assert format(agg.theory_q_plus, ".12g") == row["q_plus"]
            assert format(agg.theory_q_zero, ".12g") == row["q_zero"]

    def test_column_layout(self, tmp_path):
        config = small_config(instances=2, c_values=(1.0,))
        v.run_sweep(config, tmp_path / "rows.csv", tmp_path / "agg.csv")
        rows_lines = [ln for ln in (tmp_path / "rows.csv").read_text().splitlines()
                      if not ln.startswith("#")]
        assert rows_lines[0].split(",") == ROW_COLUMNS
        agg_lines = [ln for ln in (tmp_path / "agg.csv").read_text().splitlines()
                     if not ln.startswith("#")]
        assert agg_lines[0].split(",") == AGGREGATE_COLUMNS
