import json
import math
import statistics
from dataclasses import asdict

import pytest

import csr.synthetic as synthetic_module
from csr.catalog import catalog_stats, to_document
from csr.sqlrefs import extract_relevant_set
from csr.synthetic import (
    GeneratorProfile,
    ProfileError,
    build_group_catalog,
    generate_synthetic,
    solve_size_distribution,
)


class TestProfile:
    def test_defaults_are_valid(self):
        GeneratorProfile()

    def test_bad_probability_rejected(self):
        with pytest.raises(ProfileError):
            GeneratorProfile(tables_per_query_p_ge7=1.5)

    def test_bad_counts_rejected(self):
        with pytest.raises(ProfileError):
            GeneratorProfile(table_count=0)

    def test_table_count_beyond_the_name_pool_is_rejected_at_once(self):
        with pytest.raises(ProfileError, match=r"exceeds name pool \(960\)"):
            GeneratorProfile(table_count=10**9)
        GeneratorProfile(table_count=960)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ProfileError, match="infeasible"):
            generate_synthetic(
                GeneratorProfile(fk_median_target=12, columns_per_table_mean=10)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "fk_median_target",
            "tables_per_query_p_ge7",
            "tables_per_query_stddev",
            "columns_per_table_mean",
        ],
    )
    def test_non_finite_targets_rejected(self, field, value):
        with pytest.raises(ProfileError, match="finite"):
            GeneratorProfile(**{field: value})

    def test_round_trips_dict(self):
        profile = GeneratorProfile(table_count=30, seed=4)
        assert GeneratorProfile.from_dict(asdict(profile)) == profile


class TestGeneration:
    def test_same_seed_is_identical(self):
        a_cat, a_trace = generate_synthetic(GeneratorProfile(table_count=15, query_count=40))
        b_cat, b_trace = generate_synthetic(GeneratorProfile(table_count=15, query_count=40))
        assert to_document(a_cat) == to_document(b_cat)
        assert a_trace == b_trace

    def test_distinct_seeds_differ(self):
        _, a_trace = generate_synthetic(
            GeneratorProfile(table_count=15, query_count=40, seed=1)
        )
        _, b_trace = generate_synthetic(
            GeneratorProfile(table_count=15, query_count=40, seed=2)
        )
        assert a_trace != b_trace

    def test_group4_scale_density(self):
        catalog, _ = generate_synthetic(
            GeneratorProfile(table_count=246, query_count=10)
        )
        assert 3021 * 0.85 <= catalog.column_count <= 3021 * 1.15

    def test_generated_sql_references_exactly_planted_tables(self):
        catalog, trace = generate_synthetic(
            GeneratorProfile(table_count=25, query_count=60, seed=8)
        )
        for entry in trace:
            rel = extract_relevant_set(entry["sql"], catalog)
            assert rel.tables, entry["sql"]
            # Every table mentioned in the question text is a planted table.
            for tid in rel.tables:
                name_words = catalog.table(tid).name.replace("_", " ")
                assert name_words in entry["question"]

    def test_trace_is_valid_jsonl_material(self):
        _, trace = generate_synthetic(GeneratorProfile(table_count=10, query_count=8))
        for entry in trace:
            line = json.dumps(entry)
            assert json.loads(line) == entry

    def test_fk_median_hits_target(self):
        catalog, _ = generate_synthetic(GeneratorProfile(query_count=10))
        assert catalog_stats(catalog).median_fk_per_table >= 7


class TestSizeDistribution:
    def test_tail_mass_matches_probability(self):
        pmf = solve_size_distribution(0.25, 3.3)
        tail = sum(p for s, p in pmf if s >= 7)
        assert tail == pytest.approx(0.25, abs=1e-9)
        assert sum(p for _, p in pmf) == pytest.approx(1.0, abs=1e-9)

    def test_solver_hits_std_target(self):
        pmf = solve_size_distribution(0.25, 3.3)
        mean = sum(s * p for s, p in pmf)
        var = sum(s * s * p for s, p in pmf) - mean * mean
        assert abs(var**0.5 - 3.3) < 0.15

    def test_empirical_sizes_track_profile(self):
        catalog, trace = generate_synthetic(GeneratorProfile())
        sizes = [len(extract_relevant_set(e["sql"], catalog).tables) for e in trace]
        p7 = sum(1 for s in sizes if s >= 7) / len(sizes)
        assert abs(p7 - 0.25) <= 0.05
        assert abs(statistics.pstdev(sizes) - 3.3) <= 0.4


class TestGroupCatalog:
    @pytest.mark.parametrize(
        "tables,columns", [(50, 701), (100, 1486), (200, 2567), (246, 3021)]
    )
    def test_exact_column_totals(self, tables, columns):
        catalog = build_group_catalog(tables, columns)
        assert len(catalog.tables) == tables
        assert catalog.column_count == columns

    def test_table_count_beyond_the_name_pool_is_rejected_before_drawing(
        self, monkeypatch
    ):
        def refuse(seed):
            raise AssertionError("drew from the generator")

        monkeypatch.setattr(synthetic_module.random, "Random", refuse)
        with pytest.raises(ProfileError, match=r"exceeds name pool \(960\)"):
            build_group_catalog(961, 10**4)

    def test_rejects_fewer_columns_than_tables(self):
        with pytest.raises(ProfileError):
            build_group_catalog(10, 5)
