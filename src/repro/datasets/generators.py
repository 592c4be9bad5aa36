"""Synthetic graph generators.

The paper's datasets are proprietary WeChat-scale graphs; the reproduction
substitutes seeded synthetic graphs that preserve the properties the
evaluation depends on: power-law degree distributions (who OOMs under
vertex replication), the edges/vertex ratio (shuffle and PS traffic
volumes), community structure (fast unfolding / label propagation have
something to find) and learnable vertex labels (GraphSage accuracy is
meaningful).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng

#: Power-law exponent of :func:`powerlaw_graph`'s degree distribution.
POWERLAW_EXPONENT = 2.2
#: Cap on any single vertex's share of :func:`powerlaw_graph`'s edge
#: endpoints.  Friendship graphs have hard degree caps (WeChat historically
#: 5000 friends vs ~275 average, i.e. hubs at most ~20x the mean), whereas
#: a small graph sampled from the raw power-law would hand its hub a far
#: larger *relative* share — distorting the memory profile the
#: reproduction scales down.  This keeps ``max_degree ~ 15-20x mean
#: degree``.
MAX_DEGREE_SHARE = 0.002

def powerlaw_graph(num_vertices: int, num_edges: int, *,
                   seed: int | None = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Directed Chung-Lu style power-law graph.

    Endpoint ``i`` is drawn with probability proportional to
    ``(i+1)^(-1/(POWERLAW_EXPONENT-1))``, giving an (approximate) power-law
    degree distribution — hubs exist, as in social graphs — with no vertex
    above :data:`MAX_DEGREE_SHARE` of the endpoints.

    Returns:
        ``(src, dst)`` int64 arrays of length ``num_edges`` (self-loops
        removed by resampling the destination).
    """
    if num_vertices < 2:
        raise ConfigError("need at least 2 vertices")
    if num_edges <= 0:
        raise ConfigError("need at least 1 edge")
    rng = make_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (POWERLAW_EXPONENT - 1.0))
    probs = weights / weights.sum()
    for _ in range(8):  # iterative water-filling to respect the cap
        over = probs > MAX_DEGREE_SHARE
        if not over.any():
            break
        excess = (probs[over] - MAX_DEGREE_SHARE).sum()
        probs[over] = MAX_DEGREE_SHARE
        under = ~over
        probs[under] += excess * probs[under] / probs[under].sum()
    probs = probs / probs.sum()
    src = rng.choice(num_vertices, size=num_edges, p=probs)
    dst = rng.choice(num_vertices, size=num_edges, p=probs)
    loops = src == dst
    while loops.any():
        dst[loops] = rng.choice(num_vertices, size=int(loops.sum()), p=probs)
        loops = src == dst
    # Scatter ids so vertex index does not encode degree rank.
    perm = rng.permutation(num_vertices)
    return perm[src].astype(np.int64), perm[dst].astype(np.int64)


def community_graph(num_vertices: int, num_communities: int, *,
                    avg_degree: float = 8.0, mixing: float = 0.1,
                    seed: int | None = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planted-partition graph with known communities.

    Each vertex draws ``avg_degree`` endpoints, a fraction ``mixing`` of
    them outside its community.

    Returns:
        ``(src, dst, communities)``: edge arrays plus the ground-truth
        community id per vertex.
    """
    if num_communities < 1 or num_communities > num_vertices:
        raise ConfigError("bad num_communities")
    if not 0.0 <= mixing <= 1.0:
        raise ConfigError("mixing must be in [0, 1]")
    rng = make_rng(seed)
    communities = rng.integers(0, num_communities, size=num_vertices)
    # Community c's members, ascending: order[first[c]:first[c] + size[c]].
    order = np.argsort(communities, kind="stable")
    size = np.bincount(communities, minlength=num_communities)
    first = np.cumsum(size) - size
    num_edges = max(1, int(num_vertices * avg_degree / 2))
    src = rng.integers(0, num_vertices, size=num_edges)
    outside = rng.random(num_edges) < mixing
    own = communities[src]
    # One bounded draw per edge, in edge order: any vertex for an outside
    # edge, a position among its community's members otherwise.
    dst = rng.integers(0, np.where(outside, num_vertices, size[own]))
    inside = ~outside
    dst[inside] = order[first[own[inside]] + dst[inside]]
    keep = src != dst
    return (src[keep].astype(np.int64), dst[keep].astype(np.int64),
            communities.astype(np.int64))


def vertex_features(communities: np.ndarray, feature_dim: int,
                    num_classes: int | None = None, *,
                    noise: float = 1.0, seed: int | None = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Community-correlated Gaussian features and labels.

    Each community gets a random mean vector; vertices sample around their
    community mean, and the label is the community modulo ``num_classes``.
    A GNN that aggregates neighborhoods (which are community-biased) can
    denoise the features — the learnable task behind Table I.

    Returns:
        ``(features float32 (n, d), labels int64 (n,))``.
    """
    rng = make_rng(seed)
    communities = np.asarray(communities)
    num_comm = int(communities.max()) + 1
    if num_classes is None:
        num_classes = num_comm
    means = rng.standard_normal((num_comm, feature_dim)) * 2.0
    feats = (means[communities]
             + rng.standard_normal((len(communities), feature_dim)) * noise)
    labels = (communities % num_classes).astype(np.int64)
    return feats.astype(np.float32), labels
