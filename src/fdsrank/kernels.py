"""The sweep kernel: one numpy pass over a whole family of systems.

``family_histograms`` sweeps every combination of per-vertex local tables
and histograms three quantities of the induced map on serialized states:
image count (rank), eventual-image count (periodic rank) and fixed-point
count. All aggregation is integer bin counts, so the histograms do not
depend on the order in which systems are visited.

Input: ``w`` of shape (n_vertices, max_tables, n_states) where row ``w[v, t]``
is the already weighted contribution of table ``t`` at vertex ``v`` (local
value times q^(v-1)), and ``counts[v]`` gives how many rows of ``w[v]`` are
live. The map of a combination is the sum of its chosen rows. ``mult[v]``,
when given, holds an integer multiplicity for each live row of ``w[v]``,
and a combination counts the product of its rows' multiplicities.

Maps are built in state-major blocks: C-contiguous (n_states, B) arrays of
about ``BLOCK_CELLS`` cells whose column c holds one map. Vertices whose
rows do not all share one multiplicity are taken outermost, then the rest;
either way largest table list outermost. The table product of the innermost
vertices that fits in one block is built once per call by broadcast adds;
the next vertex out (the boundary) contributes a slice of its tables to
each block, and every vertex further out adds one prefix column. No system
costs a division or a gather.

Every block is binned once, unweighted, into the histograms of its weight
when all its columns share one: a weighted boundary is sliced where its
multiplicity changes, and shared multiplicities fold into one factor. When
the inner product holds a weighted vertex, the columns fall into classes of
equal weight; one bin count over (class, value) pairs and a product with
the class weights add them up. Histograms stay int64 throughout.

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


def _classes(col_mult):
    """The class of each column and the weight of each class, by distinct weight."""
    if (col_mult == col_mult[0]).all():
        return np.zeros(col_mult.size, dtype=np.intp), col_mult[:1]
    weights, index = np.unique(col_mult, return_inverse=True)
    return index, weights


def _weighting(index, weights, n_bins):
    """(weight factor, classes) of columns in the given classes."""
    if weights.size == 1:
        return int(weights[0]), None
    return 1, (index * n_bins, weights)


def _blocks(w, counts, n_states, dtype, mult):
    """Yield (block, weight, classes) over blocks that together cover the table product.

    ``block`` is an (n_states, B) array of maps, overwritten by the next one.
    Each of its systems counts ``weight`` times, and when ``classes`` is
    (per-column bin offsets, class weights) rather than None, times the
    weight of its column's class as well.
    """
    live = [np.ones(int(c), dtype=np.int64) if mult is None
            else np.asarray(mult[v][: int(c)], dtype=np.int64) for v, c in enumerate(counts)]
    # a vertex whose rows share one weight folds it into ``weight``; the others
    # go outermost with their rows sorted by weight, so that most blocks have one
    weight = 1
    for v, m in enumerate(live):
        if (m == m[0]).all():
            weight *= int(m[0])
            live[v] = None
    order = sorted(range(len(counts)), key=lambda v: (live[v] is None, -int(counts[v])))
    rows, mults = [], []
    for v in order:
        r, m = w[v, : int(counts[v])], live[v]
        if m is None:
            m = np.ones(r.shape[0], dtype=np.int64)
        else:
            by_weight = np.argsort(m, kind="stable")
            r, m = r[by_weight], m[by_weight]
        # force C order: a transposed view keeps Fortran order through astype,
        # and broadcast adds over it run several times slower
        rows.append(np.ascontiguousarray(r.T, dtype=dtype))
        mults.append(m)
    cols = max(1, BLOCK_CELLS // n_states)
    n_bins = n_states + 1
    inner = np.zeros((n_states, 1), dtype=dtype)
    inner_mult = np.ones(1, dtype=np.int64)
    b = len(rows)
    while b > 0 and inner.shape[1] * rows[b - 1].shape[1] <= cols:
        b -= 1
        inner = (rows[b][:, :, None] + inner[:, None, :]).reshape(n_states, -1)
        inner_mult = np.outer(mults[b], inner_mult).ravel()
    inner_index, inner_weights = _classes(inner_mult)
    if b == 0:
        factor, classes = _weighting(inner_index, inner_weights, n_bins)
        yield inner, weight * factor, classes
        return
    boundary, boundary_mult = rows[b - 1], mults[b - 1]
    per_block = cols // inner.shape[1]
    slices = []  # (start, stop, weight factor, classes) of each boundary slice
    if inner_weights.size == 1:
        # cut the boundary where its weight changes: each block has one weight
        start = 0
        for end in (np.flatnonzero(np.diff(boundary_mult)) + 1).tolist() + [boundary_mult.size]:
            factor = int(boundary_mult[start] * inner_weights[0])
            slices += [(s, min(s + per_block, end), factor, None)
                       for s in range(start, end, per_block)]
            start = end
    else:
        outer_index, outer_weights = _classes(boundary_mult)
        weights = np.outer(outer_weights, inner_weights).ravel()
        for s in range(0, boundary_mult.size, per_block):
            index = outer_index[s : s + per_block, None] * inner_weights.size + inner_index
            slices.append((s, min(s + per_block, boundary_mult.size),
                           *_weighting(index.ravel(), weights, n_bins)))
    buf = np.empty((n_states, per_block, inner.shape[1]), dtype=dtype)
    for digits in itertools.product(*(range(r.shape[1]) for r in rows[: b - 1])):
        prefix = np.zeros((n_states, 1), dtype=dtype)
        prefix_weight = weight
        for r, m, t in zip(rows, mults, digits):
            prefix += r[:, t : t + 1]
            prefix_weight *= int(m[t])
        for start, stop, factor, classes in slices:
            head = boundary[:, start:stop] + prefix
            out = buf[:, : head.shape[1]]
            np.add(head[:, :, None], inner[:, None, :], out=out)
            yield out.reshape(n_states, -1), prefix_weight * factor, classes


def _add(row, values, classes):
    """Add to ``row`` the bin counts of ``values``, weighted by column class."""
    if classes is None:
        row += np.bincount(values, minlength=row.size)
    else:
        offsets, weights = classes
        binned = np.bincount(values + offsets, minlength=weights.size * row.size)
        row += weights @ binned.reshape(weights.size, row.size)


def _count_bitsets(m, hist, classes):
    n_states = m.shape[0]
    word = _uint(n_states)
    one = word(1)
    singletons = one << m  # singletons[x] = {f(x)}
    image = np.bitwise_or.reduce(singletons, axis=0)
    _add(hist[0], np.bitwise_count(image), classes)
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
            _add(hist[1], np.bitwise_count(nxt[~moving]),
                 None if classes is None else (classes[0][~moving], classes[1]))
            singletons = np.compress(moving, singletons, axis=1)
            if classes is not None:
                classes = (classes[0][moving], classes[1])
            picked = picked[:, :n_moving]
            nxt = nxt[moving]
        s = nxt
    _add(hist[1], np.bitwise_count(s), classes)


def _distinct_per_row(a):
    srt = np.sort(a, axis=1)
    return 1 + np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1)


def _count_sorted(m, hist, classes):
    n_states, cols = m.shape
    # one map per row, so that sorts and gathers stay inside a row
    a = np.ascontiguousarray(m.T)
    _add(hist[0], _distinct_per_row(a), classes)
    base = (np.arange(cols, dtype=np.intp) * n_states)[:, None]
    k = 1
    while k < n_states:
        # a[c, x] <- a[c, a[c, x]]: f^k becomes f^(2k) in every row
        a = a.ravel()[a + base]
        k <<= 1
    _add(hist[1], _distinct_per_row(a), classes)


def family_histograms(w: np.ndarray, counts: np.ndarray, n_states: int,
                      mult: list[np.ndarray] | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms (rank, periodic rank, fixed points) over the table product.

    ``mult[v]``, when given, holds an integer multiplicity for each live row
    of ``w[v]``; a system then counts the product of its rows' multiplicities.
    """
    # unweighted counts by block weight, scaled once at the end
    by_weight: dict[int, np.ndarray] = {}
    dtype = _uint((n_states - 1).bit_length())
    tally = _uint(n_states.bit_length())
    states = np.arange(n_states, dtype=dtype)[:, None]
    count_sets = _count_bitsets if n_states <= 64 else _count_sorted
    for m, weight, classes in _blocks(w, counts, n_states, dtype, mult):
        hist = by_weight.get(weight)
        if hist is None:
            hist = by_weight[weight] = np.zeros((3, n_states + 1), dtype=np.int64)
        count_sets(m, hist, classes)
        fixed = np.add.reduce((m == states).view(np.uint8), axis=0, dtype=tally)
        _add(hist[2], fixed, classes)
    hist = sum((weight * h for weight, h in by_weight.items()),
               np.zeros((3, n_states + 1), dtype=np.int64))
    return hist[0], hist[1], hist[2]
