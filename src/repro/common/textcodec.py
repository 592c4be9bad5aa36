"""The integer-column text codec of edge lists and landing files.

Edge lists live on HDFS as ``src<TAB>dst`` lines (Sec. IV); streaming
landing files add marker columns (``-e``/``-v``).  Both directions work
on whole buffers, with no Python step per line:

* :func:`encode_rows` turns columns into the file's bytes: one line
  per row, from a printf template (``b"%d\\t%d\\n"``, markers such as
  ``-e`` written into it), filled for every row by one format call.
* :func:`parse_int_pairs` turns a file's bytes into its ``(src, dst)``
  pairs when every non-empty line is exactly two integer tokens, and
  returns None otherwise, so the caller can take its per-line loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Byte classes of the array parse: 0 a byte it does not take, 1 the
#: separator (tab or space), 2 newline, 3 digit, 4 sign.
_SEP, _NEWLINE, _DIGIT, _SIGN = 1, 2, 3, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[9, 32]] = _SEP
_BYTE_CLASS[10] = _NEWLINE
_BYTE_CLASS[48:58] = _DIGIT
_BYTE_CLASS[[43, 45]] = _SIGN

#: Longest token (sign included) the array parse takes: 18 digits always
#: fit an int64, so a longer token goes to the caller's loop, which parses
#: it exactly or raises.
_MAX_TOKEN = 18


def encode_rows(line: bytes, columns: Sequence[np.ndarray]) -> bytes:
    """The text of equal-length ``columns``, one ``line`` per row.

    ``line`` is a printf template with one field per column, such as
    ``b"%d\\t%d\\n"``; row ``i`` fills it with ``column[i]`` of each
    column, as a Python scalar (``%d`` writes an int as ``f"{v}"`` does,
    ``%.6f`` a float as ``f"{v:.6f}"``).  One format call fills every
    row; no rows give no bytes.
    """
    rows, width = len(columns[0]), len(columns)
    values = [None] * (rows * width)
    for k, column in enumerate(columns):
        values[k::width] = np.asarray(column).tolist()
    return line * rows % tuple(values)


def parse_int_pairs(data: bytes) -> Optional[np.ndarray]:
    """``[[src, dst], ...]`` (int64) when every non-empty line of
    ``data`` is ``<int><TAB or SPACE><int>``, else None.

    An int is ``[+-]?[0-9]+``, at most 18 bytes long: on such lines
    ``int()`` of the two ``str.split()`` tokens and numpy's parse agree.
    The byte scan proves the shape before the parse, so a short line can
    never borrow a token from a long one.  Empty lines hold no pair, as a
    line reader drops them.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    kind = np.take(_BYTE_CLASS, np.frombuffer(data, dtype=np.uint8))
    if not kind.all():
        return None
    newlines = np.flatnonzero(kind == _NEWLINE)
    seps = np.flatnonzero(kind == _SEP)
    starts = np.concatenate([[0], newlines[:-1] + 1])
    filled = newlines > starts
    starts, ends = starts[filled], newlines[filled]
    # Separator k strictly inside the k-th non-empty line, a byte from
    # either end: every such line holds exactly one, between two tokens.
    if not (len(seps) == len(starts) and (seps > starts).all()
            and (seps + 1 < ends).all()):
        return None
    if len(seps) and max((seps - starts).max(),
                         (ends - seps - 1).max()) > _MAX_TOKEN:
        return None
    if np.count_nonzero(kind == _SIGN):
        signs = np.flatnonzero(kind == _SIGN)
        if not (np.isin(signs, np.concatenate([starts, seps + 1])).all()
                and (kind[signs + 1] == _DIGIT).all()):
            return None
    if not len(seps):  # numpy reads a buffer without tokens as [0]
        return np.empty((0, 2), dtype=np.int64)
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 2)
