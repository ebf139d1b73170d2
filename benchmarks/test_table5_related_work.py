"""Table V: qualitative comparison between Centaur and prior accelerators."""

from repro.analysis import render_table5, table5_related_work


def test_table5_related_work(report_sink):
    rows = table5_related_work()
    report_sink("table5_related_work", render_table5(rows))

    assert len(rows) == 7
    centaur = rows[-1]
    assert centaur.system == "Centaur (Ours)"
    # Centaur is the only entry that checks every column of the matrix.
    full_rows = [
        row
        for row in rows
        if all(
            [
                row.transparent_to_hardware,
                row.transparent_to_software,
                row.accelerates_dense_dnn,
                row.accelerates_gathers,
                row.handles_small_vector_loads,
                row.studies_recommendation,
            ]
        )
    ]
    assert full_rows == [centaur]
