"""The sweep kernel: one numpy pass over a whole family of systems.

``family_histograms`` sweeps every combination of per-vertex local tables
and histograms three quantities of the induced map on serialized states:
image count (rank), eventual-image count (periodic rank) and fixed-point
count. All aggregation is integer bin counts, so the histograms do not
depend on the order in which systems are visited.

Input: ``w`` of shape (n_vertices, max_tables, n_states) where row ``w[v, t]``
is the already weighted contribution of table ``t`` at vertex ``v`` (local
value times q^(v-1)), and ``counts[v]`` gives how many rows of ``w[v]`` are
live. The map of a combination is the sum of its chosen rows.

Maps are built in state-major blocks: C-contiguous (n_states, B) arrays of
about ``BLOCK_CELLS`` cells whose column c holds one map. Vertices are taken
largest table list outermost. The table product of the innermost vertices
that fits in one block is built once per call by broadcast adds; the next
vertex out (the boundary) contributes a slice of its tables to each block,
and every vertex further out adds one prefix column. No system costs a
division or a gather.

Up to 64 states a set of states is a bitset in the narrowest unsigned word
that holds ``n_states`` bits, one word per column:

- rank is the popcount of the image, the OR over states x of 1 << f(x);
- periodic rank iterates S <- f(S) from the image, where f(S) is the OR of
  1 << f(x) over x in S. The sets shrink, so a column that stays put once
  stays put for good, and the limit is the set of periodic points. A block
  is done when no column moves, after n_states - 1 steps at the latest.
  With words wider than a byte, settled columns are counted and dropped once
  at most a quarter of the block still moves;
- fixed points take one compare per state.

Above 64 states no word holds a set. Each block is turned to one map per
row; rank counts the distinct values of each sorted row, and periodic rank
does the same on f^(2^k) with 2^k >= n_states, squared through flat indices.
"""

from __future__ import annotations

import itertools

import numpy as np

# blocks small enough for their bitsets to stay in cache: 2^17 cells swept
# 8- and 27-state families 1.2-1.4x faster than 2^19 on a 2-vCPU Xeon VM
# with 2 MiB of L2 per core
BLOCK_CELLS = 1 << 17
_UINTS = (np.uint8, np.uint16, np.uint32, np.uint64)


def _uint(bits: int):
    """Narrowest unsigned dtype of at least ``bits`` bits."""
    for dtype in _UINTS:
        if bits <= np.iinfo(dtype).bits:
            return dtype
    raise ValueError(f"no unsigned dtype has {bits} bits")


def _blocks(w, counts, n_states, dtype):
    """Yield (n_states, B) blocks of maps that together cover the table product.

    A yielded block is overwritten by the next one.
    """
    order = sorted(range(len(counts)), key=lambda v: -int(counts[v]))
    # force C order: a transposed view keeps Fortran order through astype,
    # and broadcast adds over it run several times slower
    rows = [np.ascontiguousarray(w[v, : int(counts[v])].T, dtype=dtype) for v in order]
    cols = max(1, BLOCK_CELLS // n_states)
    inner = np.zeros((n_states, 1), dtype=dtype)
    b = len(rows)
    while b > 0 and inner.shape[1] * rows[b - 1].shape[1] <= cols:
        b -= 1
        inner = (rows[b][:, :, None] + inner[:, None, :]).reshape(n_states, -1)
    if b == 0:
        yield inner
        return
    boundary = rows[b - 1]
    per_block = cols // inner.shape[1]
    buf = np.empty((n_states, per_block, inner.shape[1]), dtype=dtype)
    for digits in itertools.product(*(range(r.shape[1]) for r in rows[: b - 1])):
        prefix = np.zeros((n_states, 1), dtype=dtype)
        for r, t in zip(rows, digits):
            prefix += r[:, t : t + 1]
        for start in range(0, boundary.shape[1], per_block):
            head = boundary[:, start : start + per_block] + prefix
            out = buf[:, : head.shape[1]]
            np.add(head[:, :, None], inner[:, None, :], out=out)
            yield out.reshape(n_states, -1)


def _count_bitsets(m, hist):
    n_states = m.shape[0]
    word = _uint(n_states)
    one = word(1)
    singletons = one << m  # singletons[x] = {f(x)}
    image = np.bitwise_or.reduce(singletons, axis=0)
    hist[0] += np.bincount(np.bitwise_count(image), minlength=n_states + 1)
    shifts = np.arange(n_states, dtype=word)[:, None]
    picked = np.empty_like(singletons)
    # a gather costs less than an iteration only for words wider than a byte
    drop_settled = singletons.itemsize > 1
    s = image
    while True:
        # picked[x] = {f(x)} if x in S else {}
        np.right_shift(s, shifts, out=picked)
        picked &= one
        picked *= singletons
        nxt = np.bitwise_or.reduce(picked, axis=0)
        moving = nxt != s
        n_moving = np.count_nonzero(moving)
        if n_moving == 0:
            break
        if drop_settled and 4 * n_moving <= s.size:
            # a column that stayed put is done: count it, iterate on without it
            hist[1] += np.bincount(np.bitwise_count(nxt[~moving]), minlength=n_states + 1)
            singletons = np.compress(moving, singletons, axis=1)
            picked = picked[:, :n_moving]
            nxt = nxt[moving]
        s = nxt
    hist[1] += np.bincount(np.bitwise_count(s), minlength=n_states + 1)


def _distinct_per_row(a):
    srt = np.sort(a, axis=1)
    return 1 + np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1)


def _count_sorted(m, hist):
    n_states, cols = m.shape
    # one map per row, so that sorts and gathers stay inside a row
    a = np.ascontiguousarray(m.T)
    hist[0] += np.bincount(_distinct_per_row(a), minlength=n_states + 1)
    base = (np.arange(cols, dtype=np.intp) * n_states)[:, None]
    k = 1
    while k < n_states:
        # a[c, x] <- a[c, a[c, x]]: f^k becomes f^(2k) in every row
        a = a.ravel()[a + base]
        k <<= 1
    hist[1] += np.bincount(_distinct_per_row(a), minlength=n_states + 1)


def family_histograms(w: np.ndarray, counts: np.ndarray,
                      n_states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms (rank, periodic rank, fixed points) over the table product."""
    hist = np.zeros((3, n_states + 1), dtype=np.int64)
    dtype = _uint((n_states - 1).bit_length())
    tally = _uint(n_states.bit_length())
    states = np.arange(n_states, dtype=dtype)[:, None]
    count_sets = _count_bitsets if n_states <= 64 else _count_sorted
    for m in _blocks(w, counts, n_states, dtype):
        count_sets(m, hist)
        fixed = np.add.reduce((m == states).view(np.uint8), axis=0, dtype=tally)
        hist[2] += np.bincount(fixed, minlength=n_states + 1)
    return hist[0], hist[1], hist[2]
