"""Independent references and the check ledger behind ``check_pass_ratio``.

Every expected value here is computed in set-up from the generated
arrays alone — scipy and numpy, none of the program's code — and
compared with the program's outputs after the timed body, never inside
it.  A cell that raises, or ends in the wrong status, fails its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


@dataclass
class Checks:
    """Ledger of output checks: name, verdict, and what was seen."""

    items: List[Tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [item for item in self.items if not item[1]]

    @property
    def ratio(self) -> float:
        """Checks passed / attempted (1.0 only when every one passed)."""
        if not self.items:
            return 0.0
        return 1.0 - len(self.failed) / len(self.items)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _num_vertices(src: np.ndarray, dst: np.ndarray) -> int:
    return int(max(src.max(), dst.max())) + 1


def undirected_simple(src: np.ndarray, dst: np.ndarray) -> sp.csr_matrix:
    """0/1 symmetric adjacency: duplicates and direction dropped."""
    n = _num_vertices(src, dst)
    a = sp.csr_matrix(
        (np.ones(2 * len(src)), (np.concatenate([src, dst]),
                                 np.concatenate([dst, src]))), shape=(n, n))
    a.data[:] = 1.0
    return a


def pagerank_ref(src: np.ndarray, dst: np.ndarray, iterations: int,
                 start: float, damping: float = 0.85
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalised PageRank by scipy power iteration on the full ranks.

    ``r <- (1-d) + d * M (r / outdeg)`` from ``r0 = start`` on every
    vertex that has an edge; multi-edges count with multiplicity, dangling
    mass is dropped — the recurrence both systems implement (PSGraph in
    its delta form from ``1-d``, GraphX from ``1``), so ``iterations``
    rounds agree to rounding.
    """
    n = _num_vertices(src, dst)
    m = sp.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    present = np.zeros(n, dtype=bool)
    present[src] = True
    present[dst] = True
    base = np.where(present, 1.0 - damping, 0.0)
    rank = np.where(present, start, 0.0)
    for _ in range(iterations):
        rank = base + damping * (m @ (rank / np.maximum(outdeg, 1.0)))
    ids = np.flatnonzero(present)
    return ids, rank[ids]


def common_neighbor_ref(src: np.ndarray, dst: np.ndarray,
                        rows_per_block: int = 1024) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for every input edge ``(u, v)``, in input order:
    the ``(u, v)`` entry of the squared 0/1 adjacency, computed a block of
    rows at a time so the oracle never outweighs the program in memory."""
    a = undirected_simple(src, dst)
    out = np.empty(len(src), dtype=np.int64)
    for lo in range(0, a.shape[0], rows_per_block):
        picked = np.flatnonzero((src >= lo) & (src < lo + rows_per_block))
        if len(picked):
            block = (a[lo:lo + rows_per_block] @ a).tocsr()
            out[picked] = np.asarray(
                block[src[picked] - lo, dst[picked]]).ravel()
    return out


def modularity(src: np.ndarray, dst: np.ndarray,
               community: np.ndarray) -> float:
    """Newman modularity of an assignment over the unit-weight multigraph."""
    two_m = 2.0 * len(src)
    inside = float((community[src] == community[dst]).sum()) * 2.0
    degree = np.bincount(np.concatenate([src, dst]),
                         minlength=len(community)).astype(np.float64)
    totals = np.bincount(community, weights=degree)
    return inside / two_m - float((totals ** 2).sum()) / two_m ** 2


def num_components(src: np.ndarray, dst: np.ndarray) -> int:
    """Weakly connected components among vertices that have an edge."""
    a = undirected_simple(src, dst)
    _count, labels = connected_components(a, directed=False)
    touched = np.unique(np.concatenate([src, dst]))
    return len(np.unique(labels[touched]))


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------


def same_ranks(ids: np.ndarray, ranks: np.ndarray, ref_ids: np.ndarray,
               ref_ranks: np.ndarray, rtol: float = 1e-9) -> bool:
    """Same vertex set and ranks equal to rounding."""
    order = np.argsort(ids)
    return (len(ids) == len(ref_ids)
            and np.array_equal(np.asarray(ids)[order], ref_ids)
            and bool(np.allclose(np.asarray(ranks)[order], ref_ranks,
                                 rtol=rtol, atol=0.0)))


def edge_counts(triples: Iterable[Tuple[int, int, int]]
                ) -> Dict[Tuple[int, int], int]:
    """``(src, dst) -> count`` (duplicate edges carry the same count)."""
    return {(int(s), int(d)): int(c) for s, d, c in triples}
