"""The integer-column text codec of edge lists and landing files.

Edge lists live on HDFS as ``src<TAB>dst`` lines (Sec. IV); streaming
landing files add marker columns (``-e``/``-v``).  Both directions work
on whole buffers, with no Python step per line:

* :func:`encode_rows` turns columns into the file's bytes: one line
  per row, from a printf template (``b"%d\\t%d\\n"``, markers such as
  ``-e`` written into it), filled for every row by one format call.
* :func:`parse_edges` turns an edge file's bytes into its edges: one byte
  scan proves the edge grammar on every line, ``np.fromstring`` reads the
  proven buffer, and a line the grammar does not take is an error.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import GraphLoadError

#: Byte classes of the edge grammar.  A token is a run of bytes of class
#: ``_DIGIT`` or above; a mark is a token byte other than a digit.
_BLANK, _NEWLINE, _DIGIT, _PLUS, _MINUS, _DOT, _EXP, _OTHER = range(8)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[[9, 11, 12, 13, 32]] = _BLANK  # \t \v \f \r and space
_CLASS[10] = _NEWLINE
_CLASS[48:58] = _DIGIT
_CLASS[[43, 45, 46, 69, 101]] = _PLUS, _MINUS, _DOT, _EXP, _EXP

_INT64_MAX = b"9223372036854775807"  #: a shorter id always fits


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


def parse_edges(data: bytes, name: str, weighted: bool,
                rows: slice) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The int64 ``[[src, dst], ...]`` of the edge file ``data`` and, when
    ``weighted``, their float64 weights (else None): the edges of the
    ``rows`` slice of its non-empty lines.

    A line of blanks (``\\t \\v \\f \\r`` and space) holds no edge; any
    other is ``id id`` (``id id weight`` when ``weighted``) amid runs of
    blanks.  An id is ``+?[0-9]+`` within int64; a weight is
    ``[-+]?([0-9]+\\.?[0-9]*|\\.[0-9]+)([eE][-+]?[0-9]+)?``.  The first line
    that one byte scan finds against it raises :class:`GraphLoadError`
    naming ``name`` and the line's number.  Then ``np.fromstring`` reads
    ids as int64 and weights as float64 (Python's ``float``, bit for bit).
    """
    # Positions are in ``text``, so line k (1-based) ends at newlines[k].
    text = b"\n" + data + b"\n" * (not data.endswith(b"\n"))
    raw = np.frombuffer(text + b"0", dtype=np.uint8)  # + one token to scan
    kind = np.take(_CLASS, raw)
    word = kind >= _DIGIT
    flips = np.flatnonzero(word[1:] != word[:-1])
    bounds = flips + 1
    starts, ends = bounds[::2], bounds[1::2]  # token t is text[starts[t]:ends[t]]
    # Line k ends at newlines[k] and holds tokens before[k - 1] to before[k];
    # bad[k - 1] is its verdict.  If each newline is the byte before a
    # token (no blank-only line, no line opening with a blank), one lookup
    # a token finds them; any other file searches each newline's place.
    ahead = flips[::2]
    opens = kind.take(ahead) == _NEWLINE
    is_newline = kind == _NEWLINE
    if np.count_nonzero(opens) == np.count_nonzero(is_newline):
        newlines, before = ahead[opens], np.flatnonzero(opens)
    else:
        newlines = np.flatnonzero(is_newline)
        before = np.searchsorted(starts, newlines)
    raw, starts = raw[:-1], starts[:-1]
    per_line = before[1:] - before[:-1]
    bad = (per_line != 0) & (per_line != 2 + weighted)
    marks = np.flatnonzero(kind > _DIGIT)
    if len(marks):
        token = np.searchsorted(starts, marks, "right") - 1
        line = np.searchsorted(newlines, marks)
        ok = _marks_ok(kind, marks, token, starts,
                       weighted & (token - before[line - 1] == 2))
        bad[line[~ok] - 1] = True
    long = np.flatnonzero(ends - starts >= len(_INT64_MAX))
    if len(long):  # ids this long may not fit an int64
        line = np.searchsorted(newlines, starts[long])
        is_id = long - before[line - 1] < 2
        for token, k in zip(long[is_id], line[is_id]):
            digits = text[starts[token]:ends[token]].lstrip(b"+").lstrip(b"0")
            bad[k - 1] |= (len(digits), digits) > (len(_INT64_MAX), _INT64_MAX)
    if bad.any():
        line = int(np.argmax(bad)) + 1
        got = text[newlines[line - 1] + 1:newlines[line]]
        raise GraphLoadError(
            f"{name}:{line}: expected 'src dst{' weight' * weighted}' "
            f"with ids >= 0, got {got[:80]!r}")
    weights = np.empty(0) if weighted else None
    if not len(starts):  # numpy reads a buffer without tokens as [0]
        return np.empty((0, 2), dtype=np.int64), weights
    if weighted:  # each column type from a copy with the other blanked
        edges = np.zeros(len(raw) + 1, dtype=np.int8)
        edges[starts[2::3]], edges[ends[2::3]] = 1, -1
        in_weight = np.cumsum(edges[:-1], dtype=np.int8).view(bool)
        weights = np.fromstring(np.where(in_weight, raw, 32).tobytes(),
                                dtype=np.float64, sep=" ")
        text = np.where(in_weight, 32, raw).tobytes()
    pairs = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)
    if rows != slice(None):  # keep the edges of the kept non-empty lines
        filled = newlines[1:] - newlines[:-1] > 1
        kept = np.isin(np.cumsum(filled)[per_line > 0] - 1,
                       np.arange(np.count_nonzero(filled))[rows])
        return pairs[kept], weights[kept] if weighted else None
    return pairs, weights


def _marks_ok(kind: np.ndarray, marks: np.ndarray, token: np.ndarray,
              starts: np.ndarray, in_weight: np.ndarray) -> np.ndarray:
    """Whether each mark, in token ``token``, stands where the grammar
    lets it.  In an id: a ``+`` that opens it, before a digit.  In a
    weight: a sign that opens it (before a digit or ``.``) or its exponent
    (after ``e``, before a digit); one ``.`` next to a digit, before any
    ``e``; one ``e`` after a digit or ``.``, before a digit or sign."""
    mark, prev, after = kind[marks], kind[marks - 1], kind[marks + 1]
    opens = marks == starts[token]
    digit_after = after == _DIGIT
    # The '.' (1) and 'e' (2) marks before each one in its token.
    code = (mark == _DOT) + 2 * (mark == _EXP)
    seen = np.cumsum(code) - code
    seen -= seen[np.searchsorted(token, token)]
    weight_ok = np.select(
        [(mark == _PLUS) | (mark == _MINUS), mark == _DOT, mark == _EXP],
        [opens & (digit_after | (after == _DOT))
         | (prev == _EXP) & digit_after,
         (seen == 0) & ((prev == _DIGIT) | digit_after),
         (seen < 2) & ((prev == _DIGIT) | (prev == _DOT))
         & (digit_after | (after == _PLUS) | (after == _MINUS))],
        default=False)
    return np.where(in_weight, weight_ok,
                    (mark == _PLUS) & opens & digit_after)
