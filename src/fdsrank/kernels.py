"""The sweep kernel: one numpy pass over a whole family of systems.

``family_histograms`` sweeps every combination of per-vertex local tables
and histograms three quantities of the induced map on serialized states:
image count (rank), eventual-image count (periodic rank) and fixed-point
count. All aggregation is integer bin counts, so the histograms do not
depend on the order in which systems are visited.

Input: ``w`` of shape (n_vertices, max_tables, n_states) where row ``w[v, t]``
is the already weighted contribution of table ``t`` at vertex ``v`` (local
value times q^(v-1)). The map of a combination is the sum of its chosen
rows. The sweep is a table product over factors, ``counts[f]`` rows each.
A factor lists its rows as sub-products, each a contiguous range of every
one of its vertices' rows, cut into runs of a weight; a vertex on its own
is a factor of one sub-product, one run over all its rows. ``mult[v]``
holds an integer multiplicity for each row of ``w[v]``, and a combination
counts the product of its rows' multiplicities and run weights.
``flags[v]`` marks each row of ``w[v]`` 0 or 1, and the same pass also
histograms the combinations whose rows are all marked: the strict family
inside the loose one.

The product of the factors' sub-products gives the pieces of the sweep,
each a table product of row ranges. Maps are built in state-major blocks:
C-contiguous (n_states, B) arrays of ``BLOCK_CELLS`` cells whose column c
holds one map, filled across pieces, so that only the last block of a
call is short. In each piece vertices are taken largest table list
outermost. The table product of the innermost vertices that fits in one
block is built once per piece by broadcast adds; the next vertex out (the
boundary) gives the heads, each added to every inner column, and every
vertex further out adds one prefix column. A piece of one vertex, like
a vertex with more rows than a block holds, gives heads on one zero
inner column. No system costs a division or a gather. A piece whose
product overruns a block continues in the next one, inside a head if
need be.

Every column carries a class: a mixed-radix number over the vertices,
one digit for each row's multiplicity, flag and run weight (0 at a
vertex whose rows all count alike), indexing a small table of weights
(orbit size times multinomial, in the twin split). The table has two
rows: the weight, and the weight times the product of the column's
flags, so the flagged histograms cost no second pass. Every block takes
one bin count per quantity over (class, value) pairs into unweighted
counts of the call, and the class weights apply once, at the end of the
call. Histograms stay int64 throughout.

Up to 64 states a set of states is a bitset in the narrowest unsigned word
that holds ``n_states`` bits, one word per column:

- rank is the popcount of the image, the OR over states x of 1 << f(x);
- periodic rank iterates S <- f(S) from the image, where f(S) is the OR of
  1 << f(x) over x in S. The sets shrink, so a column that stays put once
  stays put for good, and the limit is the set of periodic points. A block
  is done when no column moves, after n_states - 1 steps at the latest;
- fixed points take one compare per state.

Above 64 states no word holds a set. Each block is turned to one map per
row; rank counts the distinct values of each sorted row, and periodic rank
does the same on f^(2^k) with 2^k >= n_states, squared through flat indices.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# blocks small enough for their bitsets to stay in cache: 2^17 cells swept
# 8- and 27-state families 1.2-1.4x faster than 2^19 on a 2-vCPU Xeon VM
# with 2 MiB of L2 per core
BLOCK_CELLS = 1 << 17
_UINTS = (np.uint8, np.uint16, np.uint32, np.uint64)


@lru_cache(maxsize=None)
def _uint(bits: int):
    """Narrowest unsigned dtype of at least ``bits`` bits."""
    for dtype in _UINTS:
        if bits <= np.iinfo(dtype).bits:
            return dtype
    raise ValueError(f"no unsigned dtype has {bits} bits")


def _weight_classes(live, mult, flags, pieces, n_bins, cols):
    """Each vertex's per-row class digit, and the weights of each class.

    A column's raw class is the sum of its rows' digits, a mixed-radix
    number over the vertices: a row's digit names its multiplicity, its
    flag and the weight of its run, and is 0 where a vertex's rows all
    count alike.
    Returns (each vertex's digits, the digit step of each of its run
    weights, the weights of each class, raw class -> class). The weights
    are two rows: a column's weight, and that weight times the product of
    its rows' flags. Raw classes are mapped to their distinct weights only
    when their bins would outnumber a block's columns, else the map is None.
    """
    digits, steps = [], []
    # each class's weight, and whether all its rows are flagged
    table = flagged = np.ones(1, dtype=np.int64)
    for v, rows in enumerate(live):
        # the flag as the lowest bit
        key = 2 * np.asarray(mult[v][:rows], dtype=np.int64) + flags[v][:rows]
        runs = sorted({weight for piece in pieces for _, _, weight in piece[v]})
        values = _distinct(key)
        radix = table.size
        digits.append(np.searchsorted(values, key) * radix)
        steps.append({weight: i * values.size * radix for i, weight in enumerate(runs)})
        flagged = np.concatenate([np.multiply.outer(values & 1, flagged).ravel()] * len(runs))
        table = np.multiply.outer(values >> 1, table).ravel()
        table = np.concatenate([table * weight for weight in runs])
    # raw classes in the narrowest word that holds them, so that the
    # class sums written for every column cost the fewest bytes
    rtype = _uint((table.size - 1).bit_length())
    digits = [d.astype(rtype) for d in digits]
    remap = None
    if table.size * n_bins > cols:
        key = 2 * table + flagged
        values = _distinct(key)
        remap = np.searchsorted(values, key)
        table, flagged = values >> 1, values & 1
    return digits, steps, np.array([table, table * flagged]), remap


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, increasing. (``np.unique`` imports
    ``numpy.ma`` on its first call, 6 ms of a process's set-up.)"""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _piece_rows(rows, digits, steps, piece, memo):
    """Each vertex's rows in a piece, (n_states, r), and their raw class
    digits. ``memo`` keeps them by vertex and runs across the pieces of a
    call."""
    out = []
    for v, runs in enumerate(piece):
        got = memo.get((v, runs))
        if got is None:
            raw = np.concatenate([digits[v][a:b] + steps[v][weight] for a, b, weight in runs])
            got = memo[v, runs] = (rows[v][:, runs[0][0] : runs[-1][1]], raw)
        out.append(got)
    return out


def _segments(picked, cols, dtype):
    """Yield (head, head classes, inner, inner classes) covering one piece.

    ``picked`` holds each vertex's rows and raw classes, outermost first.
    The piece's maps are every head column plus every inner column, head
    major. The inner product is built once, from the innermost vertices
    while it fits in a block; the next vertex out (the boundary) gives the
    heads, a slice at a time, each plus one prefix column of the vertices
    further out. A piece of one vertex, or a vertex with more rows than a
    block holds, gives heads on one zero inner column.
    """
    n_states = picked[0][0].shape[0]
    b = len(picked) - 1
    inner, inner_raw = picked[b]
    # the boundary stays out of the inner product even when all would fit:
    # heads plus inner columns are written straight into the block
    while b > 1 and inner.shape[1] * picked[b - 1][0].shape[1] <= cols:
        b -= 1
        r, raw = picked[b]
        inner_raw = (raw[:, None] + inner_raw).ravel()
        inner = (r[:, :, None] + inner[:, None, :]).reshape(n_states, -1)
    if b == 0 or inner.shape[1] > cols:
        b += 1
        inner, inner_raw = np.zeros((n_states, 1), dtype=dtype), np.zeros(1, dtype=inner_raw.dtype)
    boundary, boundary_raw = picked[b - 1]
    per_block = max(1, cols // inner.shape[1])
    for prefix_rows in itertools.product(*(range(r.shape[1]) for r, _ in picked[: b - 1])):
        prefix, prefix_raw = None, 0
        for (r, raw), t in zip(picked, prefix_rows):
            prefix = r[:, t : t + 1] if prefix is None else prefix + r[:, t : t + 1]
            prefix_raw += int(raw[t])
        for start in range(0, boundary.shape[1], per_block):
            head = boundary[:, start : start + per_block]
            if prefix is not None:
                head = head + prefix
            yield head, boundary_raw[start : start + per_block] + prefix_raw, inner, inner_raw


def _blocks(rows, order, pieces, n_states, cols, dtype, digits, steps, remap):
    """Yield (block, classes) over full blocks of maps that together cover
    every piece, the last block possibly short.

    ``block`` is an (n_states, B) array of maps, overwritten by the next
    one. ``classes`` holds the class of every column.
    """
    systems = sum(math.prod(runs[-1][1] - runs[0][0] for runs in piece) for piece in pieces)
    cols = min(cols, systems)  # a sweep of one block fills it
    buf = np.empty((n_states, cols), dtype=dtype)
    raw_buf = np.empty(cols, dtype=digits[0].dtype)
    pos, memo = 0, {}

    def block():
        m = buf if pos == cols else np.ascontiguousarray(buf[:, :pos])
        return m, raw_buf[:pos] if remap is None else remap[raw_buf[:pos]]

    for piece in pieces:
        picked = _piece_rows(rows, digits, steps, piece, memo)
        for head, head_raw, inner, inner_raw in _segments([picked[v] for v in order], cols, dtype):
            h, i = head.shape[1], inner.shape[1]
            j = t = 0  # next head column, and next inner column of it
            while j < h:
                room = cols - pos
                if t == 0 and room >= i:
                    take = min(h - j, room // i)
                    n = take * i
                    # columns head major or inner major, the longer run
                    # innermost; class sums go straight into raw_buf, since
                    # a temporary a segment costs the allocator fresh pages
                    if take > i:
                        shape = (i, take)
                        np.add(inner[:, :, None], head[:, None, j : j + take],
                               out=buf[:, pos : pos + n].reshape(n_states, *shape))
                        np.add(inner_raw[:, None], head_raw[j : j + take],
                               out=raw_buf[pos : pos + n].reshape(shape))
                    else:
                        shape = (take, i)
                        np.add(head[:, j : j + take, None], inner[:, None, :],
                               out=buf[:, pos : pos + n].reshape(n_states, *shape))
                        np.add(head_raw[j : j + take, None], inner_raw,
                               out=raw_buf[pos : pos + n].reshape(shape))
                    j += take
                else:  # part of one head column: the block ends inside it
                    n = min(i - t, room)
                    np.add(head[:, j : j + 1], inner[:, t : t + n], out=buf[:, pos : pos + n])
                    np.add(head_raw[j], inner_raw[t : t + n], out=raw_buf[pos : pos + n])
                    t += n
                    if t == i:
                        j, t = j + 1, 0
                pos += n
                if pos == cols:
                    yield block()
                    pos = 0
    if pos:
        yield block()


def _add(row, values, classes):
    """Add to ``row`` the count of each (column class, value) pair, in bin
    class times the bins plus value.

    ``classes`` is (each column's class times the bins, a scratch column as
    long as a block).
    """
    offsets, scratch = classes
    row += np.bincount(np.add(values, offsets, out=scratch[: values.size]), minlength=row.size)


def _count_bitsets(m, hist, classes):
    n_states = m.shape[0]
    word = _uint(n_states)
    one = word(1)
    singletons = one << m  # singletons[x] = {f(x)}
    image = np.bitwise_or.reduce(singletons, axis=0)
    _add(hist[0], np.bitwise_count(image), classes)
    shifts = np.arange(n_states, dtype=word)[:, None]
    picked = np.empty_like(singletons)
    s = image
    while True:
        # picked[x] = {f(x)} if x in S else {}
        np.right_shift(s, shifts, out=picked)
        picked &= one
        picked *= singletons
        nxt = np.bitwise_or.reduce(picked, axis=0)
        if np.array_equal(nxt, s):
            break
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


def family_histograms(w: np.ndarray, counts, n_states: int, mult: list[np.ndarray],
                      factors, flags) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms (rank, periodic rank, fixed points) over a table product.

    The product runs over factors, factor f having ``counts[f]`` rows.
    ``factors[f]`` is (vertices, sub-products): the factor's rows are the
    tuples of rows of its vertices that some sub-product lists, one of them
    each, and a sub-product gives each of its vertices a contiguous list of
    runs (start, stop, weight) of its rows.

    ``mult[v]`` holds an integer multiplicity for each row of ``w[v]``; a
    system counts the product of its rows' multiplicities and of the
    weights of their runs. ``flags[v]`` marks each row of ``w[v]`` 0 or 1.
    Each histogram has 2 (n_states + 1) bins: those of every system, then
    those of the systems whose rows are all marked 1, from the same pass.
    """
    n = w.shape[0]
    listed = [sum(math.prod(runs[-1][1] - runs[0][0] for runs in sub) for sub in subs)
              for _, subs in factors]
    if listed != [int(c) for c in counts]:
        raise ValueError(f"factors list {listed} rows, counts say {list(counts)}")
    pieces = []
    for combo in itertools.product(*(subs for _, subs in factors)):
        piece = [None] * n
        for (vertices, _), sub in zip(factors, combo):
            for v, runs in zip(vertices, sub):
                piece[v] = runs
        pieces.append(piece)
    pieces = [piece for piece in pieces if all(runs[-1][1] > runs[0][0] for runs in piece)]
    n_bins = n_states + 1
    if not pieces:
        return tuple(np.zeros((3, 2 * n_bins), dtype=np.int64))
    live = [max(piece[v][-1][1] for piece in pieces) for v in range(n)]
    dtype = _uint((n_states - 1).bit_length())
    # one table per column, state-major, so that a piece's rows are a view;
    # force C order: a transposed view keeps Fortran order through astype,
    # and broadcast adds over it run several times slower
    rows = [np.ascontiguousarray(w[v, : live[v]].T, dtype=dtype) for v in range(n)]
    cols = max(1, BLOCK_CELLS // n_states)
    digits, steps, weights, remap = _weight_classes(live, mult, flags, pieces, n_bins, cols)
    order = sorted(range(n), key=lambda v: -live[v])  # largest table list outermost
    tally = _uint(n_states.bit_length())
    states = np.arange(n_states, dtype=dtype)[:, None]
    count_sets = _count_bitsets if n_states <= 64 else _count_sorted
    # unweighted counts by (class, value), weighted once at the end
    binned = np.zeros((3, weights.shape[1] * n_bins), dtype=np.int64)
    # the class offsets and the binned indices of a block, allocated once a
    # call: block-sized temporaries, freed and taken again each block, cost
    # the allocator fresh pages
    scratch = np.empty((2, cols), dtype=np.intp)
    for m, cls in _blocks(rows, order, pieces, n_states, cols, dtype, digits, steps, remap):
        classes = np.multiply(cls, n_bins, out=scratch[0, : cls.size], dtype=np.intp), scratch[1]
        count_sets(m, binned, classes)
        fixed = np.add.reduce((m == states).view(np.uint8), axis=0, dtype=tally)
        _add(binned[2], fixed, classes)
    hist = weights @ binned.reshape(3, weights.shape[1], n_bins)
    return tuple(hist.reshape(3, 2 * n_bins))
