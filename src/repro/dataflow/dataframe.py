"""DataFrame: a relational veneer over RDDs.

"Dataframe and Dataset extend RDD with relational schema, enabling SQL query
and pipeline execution" (Sec. III-C).  PSGraph's public API (Listing 1) takes
and returns DataFrames, so the reproduction provides what those pipelines
use: named columns over an RDD of rows, collected as dicts or tuples,
counted or shown.  A row is a tuple; a frame may hold its rows as
:class:`~repro.common.batch.RowBatch` columns (CommonNeighbor scores one
batch per PS round trip; LINE and DeepWalk hand the driver's embedding
over as one), which every action treats per row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.rdd import RDD


class DataFrame:
    """An RDD of rows with a column schema.

    Attributes:
        rdd: the underlying RDD whose records are tuples or row batches.
        schema: ordered column names.
    """

    def __init__(self, rdd: "RDD", schema: Sequence[str]) -> None:
        if len(set(schema)) != len(schema):
            raise ConfigError(f"duplicate column names in {list(schema)}")
        self.rdd = rdd
        self.schema = list(schema)

    @property
    def columns(self) -> List[str]:
        """Column names."""
        return list(self.schema)

    # -- actions -----------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """All rows as dicts."""
        schema = self.schema
        return [dict(zip(schema, row)) for row in self.rdd.collect()]

    def collect_tuples(self) -> Sequence[tuple]:
        """All rows as raw tuples: a list, or one row batch whose ``len``,
        indexing and iteration give them."""
        return self.rdd.collect()

    def count(self) -> int:
        """Number of rows."""
        return self.rdd.count()

    #: Rows :meth:`show` prints, as Spark's ``show()`` does.
    show_rows = 20

    def show(self) -> str:
        """Format the first :attr:`show_rows` rows as an ASCII table (also
        returned)."""
        rows = self.rdd.take(self.show_rows)
        widths = [
            max(len(str(c)), *(len(str(r[i])) for r in rows)) if rows
            else len(str(c))
            for i, c in enumerate(self.schema)
        ]
        def fmt(vals: Sequence[Any]) -> str:
            cells = [str(v).ljust(w) for v, w in zip(vals, widths)]
            return "| " + " | ".join(cells) + " |"

        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep, fmt(self.schema), sep]
        lines.extend(fmt(r) for r in rows)
        lines.append(sep)
        table = "\n".join(lines)
        print(table)
        return table
