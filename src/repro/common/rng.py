"""Seeded random-number helpers.

Everything stochastic in the reproduction — graph generation, negative
sampling, neighbor sampling, weight init — draws from generators created
here, so experiments are bit-reproducible given a seed.
"""

from __future__ import annotations

import numpy as np

#: Seed used by examples and benches unless overridden.
DEFAULT_SEED = 20200420  # ICDE 2020, Dallas — the paper's venue date.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a numpy Generator from ``seed`` (default: DEFAULT_SEED)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def derive_seed(seed: int, *streams: int | str) -> int:
    """Derive a child seed from a parent seed and a stream identifier.

    Used to give each partition / worker / epoch its own independent stream
    without correlated draws.
    """
    mask = (1 << 64) - 1
    h = int(seed) & mask
    for s in streams:
        if isinstance(s, str):
            s = sum((i + 1) * b for i, b in enumerate(s.encode("utf-8")))
        h = (h * 6364136223846793005
             + (int(s) % (2 ** 63)) + 1442695040888963407) & mask
    return h % (2 ** 63 - 1)


# ----------------------------------------------------------------------
# Stream-exact batched draws
# ----------------------------------------------------------------------

_WORD = 1 << 32
_LOW = np.uint64(_WORD - 1)
#: numpy's ``Generator.choice(replace=False)`` shuffles a tail of
#: ``arange(p)`` instead of running Floyd's algorithm when
#: ``p > _TAIL_POOL`` and the sample is more than ``p // _TAIL_CUTOFF``.
_TAIL_POOL = 10_000
_TAIL_CUTOFF = 50


def bounded_draws(rng: np.random.Generator, bounds) -> np.ndarray:
    """``[rng.integers(0, e) for e in bounds]`` as one int64 array.

    Same values, and ``rng`` left in the same state: numpy draws a value
    below ``e <= 2**32`` as Lemire's ``(u * e) >> 32`` from one 32-bit
    word ``u``, and draws a fresh word while the low half of ``u * e`` is
    below ``2**32 % e``.  A bound of 1 draws nothing and gives 0.  The
    words come as one block; a rejected word is dropped and the words
    after it move up by one, with one more word drawn at the end.
    """
    e = np.asarray(bounds, dtype=np.int64)
    out = np.zeros(len(e), dtype=np.int64)
    live = e > 1
    e = e[live].astype(np.uint64)
    if len(e) == 0:
        return out
    if e.max() > _WORD:
        raise ValueError("bounded_draws takes bounds up to 2**32")
    threshold = _WORD % e
    u = rng.integers(0, _WORD, size=len(e), dtype=np.uint32)
    m = u * e
    bad = (m & _LOW) < threshold
    start = 0
    while bad.any():
        start += int(bad.argmax())
        u = np.concatenate((u[:start], u[start + 1:], rng.integers(
            0, _WORD, size=1, dtype=np.uint32)))
        m[start:] = u[start:] * e[start:]
        bad = (m[start:] & _LOW) < threshold[start:]
    out[live] = m >> 32
    return out


def choice_positions(rng: np.random.Generator, sizes, k: int,
                     replace: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every pool's ``rng.choice(p, ...)`` positions, from one pass.

    For pools of sizes ``p_i >= 1`` in order, the result equals calling
    ``rng.choice(p_i, k, replace=True)`` or, without replacement,
    ``rng.choice(p_i, min(k, p_i), replace=False)`` per pool, and leaves
    ``rng`` in the same state.  Returns ``(row, pos)``: the pool of each
    drawn position, ascending, and the position.

    With replacement that is ``k`` draws below ``p_i``.  Without it numpy
    (``Generator.choice``) keeps ``k' = min(k, p)`` positions by Floyd's
    algorithm: step ``t`` draws ``v`` below ``L + t + 1`` for
    ``L = p - k'`` and keeps ``v``, or ``L + t`` if an earlier step kept
    ``v``.  It then shuffles them by Fisher–Yates: position ``q`` swaps
    with a draw ``r_q`` below ``q + 1``, from the last position down to 1.
    For ``p > 10,000`` and ``k' > p // 50`` it runs the same shuffle over
    the last ``k'`` positions of ``arange(p)`` instead.  Every bound is
    known before any draw, so the draws are one :func:`bounded_draws`
    call, and both sequential passes become array steps:

    - Floyd's step ``t`` collides when an earlier step drew the same
      value, or when its value is ``L + u`` for an earlier step ``u`` that
      collided.  That clause points to a strictly earlier step, so
      pointer doubling resolves it in ``log2 k`` rounds.
    - After the shuffle, position ``q`` holds what position ``r_q`` held
      before step ``q``: the entry that step ``q'`` moved there, where
      ``q'`` is the first later position that drew the same ``r``; else
      the original entry at ``r_q``.  What position ``q'`` held before
      its own step follows the same rule (the first later position that
      drew ``q'``), a chain to strictly later positions, resolved the same
      way.  (Position 0 takes part with ``r_0 = 0``.)
    """
    p = np.asarray(sizes, dtype=np.int64)
    n = len(p)
    pools = np.arange(n)
    if replace:
        row = np.repeat(pools, k)
        return row, bounded_draws(rng, p[row])
    kept = np.minimum(p, k)
    row = np.repeat(pools, kept)
    if len(row) == 0:
        return row, np.zeros(0, dtype=np.int64)
    cols = np.arange(k)
    cells = np.arange(n * k)
    flat = cells[::k, None]
    rounds = (k - 1).bit_length()
    live = cols < kept[:, None]
    low = (p - kept)[:, None]
    tail = ((p > _TAIL_POOL) & (kept > p // _TAIL_CUTOFF))[:, None]
    # A tail pool shuffles positions L..p-1 of arange(p); the others
    # shuffle Floyd's k' picks, positions 0..k'-1.
    base = np.where(tail, low, 0)
    bounds = np.empty((n, 2 * k), dtype=np.int64)
    bounds[:, :k] = np.where(live & ~tail, low + cols + 1, 1)
    bounds[:, :k - 1:-1] = np.where(live, base + cols + 1, 1)
    draws = bounded_draws(rng, bounds.ravel()).reshape(n, 2 * k)

    # Floyd: a value drawn before collides; so does L + u for a step u
    # that collided.  (A dead step comes after every live one, so its
    # value of 0 collides with nothing.)
    val = draws[:, :k]
    order = np.argsort(val, axis=1, kind="stable") + flat
    ordered = val.ravel()[order]
    hit = np.zeros(n * k, dtype=bool)
    hit[order[:, 1:]] = ordered[:, 1:] == ordered[:, :-1]
    u = val - low
    link = (flat + np.where((u >= 0) & (u < cols), u, cols)).ravel()
    for _ in range(rounds):
        hit = hit | hit[link]
        link = link[link]
    picks = np.where(hit.reshape(n, k), low + cols, val).ravel()

    # Fisher–Yates: ``later`` is the next position that drew the same r,
    # ``drawn`` the first position that drew each window position, and
    # ``link`` leads from a position to the first later one that drew it:
    # at the end of that chain is what the position held before its step.
    r = np.where(live, draws[:, :k - 1:-1], -1 - cols)  # dead: distinct
    order = np.argsort(r, axis=1, kind="stable") + flat
    ordered = r.ravel()[order]
    same = ordered[:, 1:] == ordered[:, :-1]
    later = np.full(n * k, -1)
    later[order[:, :-1]] = np.where(same, order[:, 1:], -1)
    y = ordered - base  # a window position, else negative
    first = y >= 0
    first[:, 1:] &= ~same
    drawn = np.full(n * k, -1)
    drawn[(flat + y)[first]] = order[first]
    link = np.where(drawn == cells, later, drawn)
    link = np.where(link >= 0, link, cells)
    for _ in range(rounds):
        link = link[link]
    held = np.where(tail, base + cols, picks.reshape(n, k)).ravel()[link]
    # (dead cells index garbage here; the last line drops them)
    pos = np.where(later >= 0, held[later], np.where(
        tail, r, picks[flat + np.minimum(r, k - 1)]).ravel())
    return row, pos[live.ravel()]
