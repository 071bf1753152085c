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
By default vertex v is factor v, with the first ``counts[v]`` rows of
``w[v]``. A factor of several vertices lists its rows as sub-products,
each a contiguous range of every one of its vertices' rows, cut into runs
of a weight. ``mult[v]``, when given, holds an integer multiplicity for
each row of ``w[v]``, and a combination counts the product of its rows'
multiplicities and run weights.

The product of the factors' sub-products gives the pieces of the sweep,
each a table product of row ranges. Maps are built in state-major blocks:
C-contiguous (n_states, B) arrays of ``BLOCK_CELLS`` cells whose column c
holds one map, filled across pieces, so that only the last block of a
call is short. In each piece vertices whose rows do not all count equally
are taken outermost, then the rest, either way largest table list
outermost. The table product of the innermost vertices that fits in one
block is built once per piece by broadcast adds; the next vertex out (the
boundary) gives the heads, each added to every inner column, and every
vertex further out adds one prefix column. No system costs a division or
a gather. A piece whose product overruns a block continues in the next
one, inside a head if need be.

Every column carries a class: a mixed-radix number over the vertices
whose rows count unequally, one digit for each row's multiplicity and run
weight, indexing a small table of weights (orbit size times multinomial,
in the twin split). A block whose columns all share one class is binned
once, unweighted, into the histograms of its class, scaled once at the
end. Other blocks take one bin count over (class, value) pairs and a
product with the class weights. Histograms stay int64 throughout.

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


def _weight_classes(live, mult, pieces, n_bins, cols):
    """Each vertex's per-row class digit, and the weight of each class.

    A column's raw class is the sum of its rows' digits, a mixed-radix
    number over the vertices whose rows do not all count equally: a row's
    digit names its multiplicity and the weight of its run. Returns (each
    vertex's digits, the digit step of each of its run weights, the weight
    of each class, raw class -> class); a vertex whose rows all count
    equally has no digits (None). Raw classes are mapped to their distinct
    weights only when their bins would outnumber a block's columns, else
    the map is None.
    """
    digits, steps = [None] * len(live), [None] * len(live)
    table, scale = np.ones(1, dtype=np.int64), 1
    for v, rows in enumerate(live):
        m = np.ones(rows, dtype=np.int64) if mult is None else np.asarray(
            mult[v][:rows], dtype=np.int64)
        runs = sorted({weight for piece in pieces for _, _, weight in piece[v]})
        if len(runs) == 1 and (m == m[0]).all():
            scale *= runs[0] * int(m[0])
            continue
        values = _distinct(m)
        radix = table.size
        digits[v] = np.searchsorted(values, m) * radix
        steps[v] = {weight: i * values.size * radix for i, weight in enumerate(runs)}
        table = np.multiply.outer(np.multiply.outer(np.array(runs, dtype=np.int64), values),
                                  table).ravel()
    table *= scale
    if table.size * n_bins <= cols:
        return digits, steps, table, None
    weights = _distinct(table)
    return digits, steps, weights, np.searchsorted(weights, table)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, increasing. (``np.unique`` imports
    ``numpy.ma`` on its first call, 6 ms of a process's set-up.)"""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _piece_rows(rows, digits, steps, piece):
    """Each vertex's rows in a piece, (n_states, r), and their raw class
    digits, None where all are 0."""
    out = []
    for v, runs in enumerate(piece):
        raw = digits[v]
        if raw is not None:
            parts = [raw[a:b] + steps[v][weight] for a, b, weight in runs]
            raw = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out.append((rows[v][:, runs[0][0] : runs[-1][1]], raw))
    return out


def _product_classes(outer, inner, outer_n, inner_n):
    """Raw classes of the product of two row lists of ``outer_n`` and
    ``inner_n`` rows, ``outer`` outermost; None stands for all 0."""
    if outer is None:
        return None if inner is None else np.tile(inner, outer_n)
    if inner is None:
        return np.repeat(outer, inner_n)
    return (outer[:, None] + inner[None, :]).ravel()


def _segments(picked, cols, dtype):
    """Yield (head, head classes, inner, inner classes) covering one piece.

    ``picked`` holds each vertex's rows and raw classes, outermost first.
    The piece's maps are every head column plus every inner column, head
    major. The inner product is built once, from the innermost vertices
    while it fits in a block; the next vertex out (the boundary) gives the
    heads, a slice at a time, each plus one prefix column of the vertices
    further out. A piece of one vertex has one head, None, the zero map.
    Head classes are an int when the slice's heads share one;
    raw classes are None when all 0.
    """
    n_states = picked[0][0].shape[0]
    b = len(picked) - 1
    inner, inner_raw = picked[b]
    if b == 0:
        yield None, 0, inner, inner_raw
        return
    # the boundary stays out of the inner product even when all would fit:
    # heads plus inner columns are written straight into the block
    while b > 1 and inner.shape[1] * picked[b - 1][0].shape[1] <= cols:
        b -= 1
        r, raw = picked[b]
        inner_raw = _product_classes(raw, inner_raw, r.shape[1], inner.shape[1])
        inner = (r[:, :, None] + inner[:, None, :]).reshape(n_states, -1)
    if inner.shape[1] > cols:  # one vertex has more rows than a block holds
        b += 1
        inner, inner_raw = np.zeros((n_states, 1), dtype=dtype), None
    boundary, boundary_raw = picked[b - 1]
    per_block = max(1, cols // inner.shape[1])
    for prefix_rows in itertools.product(*(range(r.shape[1]) for r, _ in picked[: b - 1])):
        prefix, prefix_raw = None, 0
        for (r, raw), t in zip(picked, prefix_rows):
            prefix = r[:, t : t + 1] if prefix is None else prefix + r[:, t : t + 1]
            prefix_raw += 0 if raw is None else int(raw[t])
        for start in range(0, boundary.shape[1], per_block):
            head = boundary[:, start : start + per_block]
            if prefix is not None:
                head = head + prefix
            head_raw = prefix_raw
            if boundary_raw is not None:
                raw = boundary_raw[start : start + per_block]
                if (raw != raw[0]).any():
                    head_raw = raw + prefix_raw
                else:
                    head_raw += int(raw[0])
            yield head, head_raw, inner, inner_raw


def _blocks(rows, order, pieces, n_states, cols, dtype, digits, steps, remap):
    """Yield (block, classes) over full blocks of maps that together cover
    every piece, the last block possibly short.

    ``block`` is an (n_states, B) array of maps, overwritten by the next
    one. ``classes`` holds the class of every column, or is an int when
    all columns share one.
    """
    systems = sum(math.prod(runs[-1][1] - runs[0][0] for runs in piece) for piece in pieces)
    cols = min(cols, systems)  # a sweep of one block fills it
    buf = np.empty((n_states, cols), dtype=dtype)
    # raw classes only where some rows count unequally: else every class is 0
    raw_buf = np.zeros(cols, dtype=np.intp) if any(r is not None for r in digits) else None
    pos = 0

    def block():
        m = buf if pos == cols else np.ascontiguousarray(buf[:, :pos])
        if raw_buf is None:
            return m, 0 if remap is None else int(remap[0])
        raw = raw_buf[:pos] if remap is None else remap[raw_buf[:pos]]
        return m, int(raw[0]) if (raw == raw[0]).all() else raw

    for piece in pieces:
        picked = _piece_rows(rows, digits, steps, piece)
        for head, head_raw, inner, inner_raw in _segments([picked[v] for v in order], cols, dtype):
            h, i = 1 if head is None else head.shape[1], inner.shape[1]
            j = t = 0  # next head column, and next inner column of it
            while j < h:
                room = cols - pos
                whole = t == 0 and room >= i
                if whole:
                    take = min(h - j, room // i)
                    n = take * i
                    # columns head major or inner major, the longer run innermost
                    flip = take > i
                    out = buf[:, pos : pos + n].reshape(n_states, *((i, take) if flip else (take, i)))
                    if head is None:
                        out[:, 0] = inner
                    elif flip:
                        np.add(inner[:, :, None], head[:, None, j : j + take], out=out)
                    else:
                        np.add(head[:, j : j + take, None], inner[:, None, :], out=out)
                    ir = inner_raw
                else:  # part of one head column: the block ends inside it
                    take, n, flip = 1, min(i - t, room), False
                    if head is None:
                        buf[:, pos : pos + n] = inner[:, t : t + n]
                    else:
                        np.add(head[:, j : j + 1], inner[:, t : t + n], out=buf[:, pos : pos + n])
                    ir = None if inner_raw is None else inner_raw[t : t + n]
                if raw_buf is not None:
                    hr = head_raw if isinstance(head_raw, int) else head_raw[j : j + take]
                    if flip:  # (inner, head) columns
                        ir = None if ir is None else ir[:, None]
                    elif not isinstance(hr, int):  # (head, inner) columns
                        hr = hr[:, None]
                    raw_buf[pos : pos + n].reshape(-1, take if flip else n // take)[...] = \
                        hr if ir is None else hr + ir
                if whole:
                    j += take
                else:
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


def family_histograms(w: np.ndarray, counts, n_states: int,
                      mult: list[np.ndarray] | None = None, factors=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms (rank, periodic rank, fixed points) over a table product.

    The product runs over factors, factor f having ``counts[f]`` rows. By
    default vertex v is factor v, its rows the first counts[v] rows of
    ``w[v]``. ``factors[f]``, when given, is (vertices, sub-products): the
    factor's rows are the tuples of rows of its vertices that some
    sub-product lists, one of them each, and a sub-product gives each of its
    vertices a contiguous list of runs (start, stop, weight) of its rows.

    ``mult[v]``, when given, holds an integer multiplicity for each row of
    ``w[v]``; a system counts the product of its rows' multiplicities and of
    the weights of their runs.
    """
    n = w.shape[0]
    if factors is None:
        pieces = [[((0, int(c), 1),) for c in counts]]
    else:
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
    if not pieces:
        empty = np.zeros(n_states + 1, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    live = [max(piece[v][-1][1] for piece in pieces) for v in range(n)]
    dtype = _uint((n_states - 1).bit_length())
    # one table per column, state-major, so that a piece's rows are a view;
    # force C order: a transposed view keeps Fortran order through astype,
    # and broadcast adds over it run several times slower
    rows = [np.ascontiguousarray(w[v, : live[v]].T, dtype=dtype) for v in range(n)]
    cols = max(1, BLOCK_CELLS // n_states)
    n_bins = n_states + 1
    digits, steps, weights, remap = _weight_classes(live, mult, pieces, n_bins, cols)
    # vertices whose rows count unequally outermost, then largest table list
    order = sorted(range(n), key=lambda v: (digits[v] is None, -live[v]))
    tally = _uint(n_states.bit_length())
    states = np.arange(n_states, dtype=dtype)[:, None]
    count_sets = _count_bitsets if n_states <= 64 else _count_sorted
    # single-class blocks binned unweighted by class, scaled once at the end
    by_class: dict[int, np.ndarray] = {}
    mixed = np.zeros((3, n_bins), dtype=np.int64)
    for m, cls in _blocks(rows, order, pieces, n_states, cols, dtype, digits, steps, remap):
        if isinstance(cls, int):
            hist = by_class.get(cls)
            if hist is None:
                hist = by_class[cls] = np.zeros((3, n_bins), dtype=np.int64)
            classes = None
        else:
            hist, classes = mixed, (cls * n_bins, weights)
        count_sets(m, hist, classes)
        fixed = np.add.reduce((m == states).view(np.uint8), axis=0, dtype=tally)
        _add(hist[2], fixed, classes)
    hist = sum((int(weights[c]) * h for c, h in by_class.items()), mixed)
    return hist[0], hist[1], hist[2]
