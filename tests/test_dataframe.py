"""Unit tests for the DataFrame layer."""

import pytest

from repro.common.errors import ConfigError
from repro.dataflow.dataframe import DataFrame


def make_df(sc, rows, schema):
    return DataFrame(sc.parallelize(rows), schema)


@pytest.fixture
def people(sc):
    rows = [
        (1, "ann", 34, 1200.0),
        (2, "bob", 28, 800.0),
        (3, "cyd", 34, 1500.0),
        (4, "dan", 51, 700.0),
    ]
    return make_df(sc, rows, ["id", "name", "age", "spend"])


class TestBasics:
    def test_duplicate_columns_rejected(self, sc):
        with pytest.raises(ConfigError):
            make_df(sc, [], ["a", "a"])

    def test_columns(self, people):
        assert people.columns == ["id", "name", "age", "spend"]

    def test_count_and_collect(self, people):
        assert people.count() == 4
        rows = people.collect()
        assert rows[0]["name"] in {"ann", "bob", "cyd", "dan"}
        assert len(rows) == 4

    def test_collect_tuples(self, people):
        tuples = people.collect_tuples()
        assert all(len(t) == 4 for t in tuples)

    def test_show_returns_table(self, people, capsys):
        out = people.show()
        assert "id" in out
        assert out.count("\n") >= 4
