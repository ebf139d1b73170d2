"""Tests for the Tables I-V reproduction."""

import pytest

from repro.analysis.tables import (
    table1_model_configurations,
    table2_fpga_utilization,
    table3_module_resources,
    table5_related_work,
)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1_model_configurations()

    def test_six_rows(self, rows):
        assert [row.model_name for row in rows] == [f"DLRM({i})" for i in range(1, 7)]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row.resource: row for row in table2_fpga_utilization()}

    def test_all_resources_reported(self, rows):
        assert set(rows) == {"ALM", "Block memory bits", "RAM blocks", "DSP", "PLL"}

    def test_utilization_below_one(self, rows):
        assert all(row.utilization < 1.0 for row in rows.values())

    def test_ram_blocks_are_the_most_utilized_resource(self, rows):
        """The paper's Table II: RAM blocks are the binding constraint."""
        ram_utilization = rows["RAM blocks"].utilization
        assert all(
            ram_utilization >= row.utilization
            for name, row in rows.items()
            if name != "RAM blocks"
        )


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3_module_resources()

    def test_every_paper_row_has_a_counterpart(self, rows):
        keys = {f"{row.group}/{row.name}" for row in rows}
        assert "Sparse/Reduction unit" in keys
        assert "Dense/MLP unit" in keys
        assert "Others/Misc." in keys
        assert len(rows) == 9


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5_related_work()

    def test_centaur_checks_every_box(self, rows):
        centaur = rows[-1]
        assert centaur.system.startswith("Centaur")
        assert all(
            [
                centaur.transparent_to_hardware,
                centaur.transparent_to_software,
                centaur.accelerates_dense_dnn,
                centaur.accelerates_gathers,
                centaur.handles_small_vector_loads,
                centaur.studies_recommendation,
            ]
        )

    def test_column_counts_match_paper(self, rows):
        """The number of checkmarks per row of Table V."""
        assert sum(row.transparent_to_hardware for row in rows) == 5
        assert sum(row.transparent_to_software for row in rows) == 5
        assert sum(row.accelerates_dense_dnn for row in rows) == 5
        assert sum(row.accelerates_gathers for row in rows) == 3
        assert sum(row.handles_small_vector_loads for row in rows) == 2
        assert sum(row.studies_recommendation for row in rows) == 2

    def test_only_centaur_and_tensordimm_study_recommendations(self, rows):
        studied = {row.system for row in rows if row.studies_recommendation}
        assert studied == {"TensorDIMM", "Centaur (Ours)"}
