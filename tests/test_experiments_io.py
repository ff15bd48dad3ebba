"""Tests for repro.experiments.io (JSON persistence)."""

import pytest

from repro.experiments.base import FigureResult, TableResult
from repro.experiments.io import load_result, save_result


class TestRoundTrip:
    def test_figure(self, tmp_path):
        figure = FigureResult(
            figure_id="fig3", title="demo", x_label="n", x_values=[1, 2]
        )
        figure.add_series("a", [0.5, 0.6])
        figure.notes.append("note")
        path = save_result(figure, tmp_path / "sub" / "fig3.json")
        loaded = load_result(path)
        assert isinstance(loaded, FigureResult)
        assert loaded.figure_id == "fig3"
        assert loaded.series == {"a": [0.5, 0.6]}
        assert loaded.notes == ["note"]
        assert loaded.to_text() == figure.to_text()

    def test_table(self, tmp_path):
        table = TableResult(table_id="t", title="demo", headers=["x", "y"])
        table.add_row([1, "yes"])
        path = save_result(table, tmp_path / "t.json")
        loaded = load_result(path)
        assert isinstance(loaded, TableResult)
        assert loaded.rows == [[1, "yes"]]
        assert loaded.to_text() == table.to_text()


class TestErrors:
    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_result({"not": "a result"}, tmp_path / "x.json")

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_result(path)

