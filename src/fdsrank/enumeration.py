"""Exhaustive statistics over all systems with a prescribed interaction graph.

``enumerate_stats`` sweeps the table product for a digraph: the strict
family fixes the interaction graph exactly (every local table must depend
essentially on each declared input), the loose family only requires
containment. Averages are exact rationals. Each kernel call of the sweep
and ``minrank_exact`` read a narrow tensor built by :func:`_sweep_tensor`
from the rows they keep, once a call. One guard,
:func:`price_family`, refuses oversized sweeps with the projected size:
the state-space guard of :mod:`fds`, a function-count guard
(``DEFAULT_MAX_FUNCS`` unless the caller passes ``max_funcs``), and a cap on
the bytes the sweep set-up allocates, in that order.

The sweep keeps, at every vertex, one table per orbit of a group of
alphabet relabellings, and weights it by the orbit size (Burnside's lemma).
The groups form a chain. Vertices are taken most tables first, lowest index
on ties: v_0, v_1, ... Vertex v_i claims D_i, the coordinates of {v_i} and
its inputs that no earlier vertex claimed, and its group is K_i = S_q^D_i,
one permutation σ_u of the alphabet on each coordinate u of D_i. K_i acts
on a system by conjugation (σ ∘ f ∘ σ⁻¹, identity off D_i), and so on a
table t of v_i by (σ·t)(x) = σ_v_i(t(σ⁻¹x)), where σ_v_i is the identity
unless v_i is in D_i, and one σ_v_i moves both the input digit and the
output of a vertex that reads itself. This is exact:

- conjugation maps the family onto itself: it keeps every local table's
  inputs, and it keeps essential dependence, so strict tables stay strict;
  it keeps rank, periodic rank and the number of fixed points;
- K_i fixes the tables already chosen: the table of an earlier vertex v_j
  reads and writes only coordinates of {v_j} and its inputs, which D_0 to
  D_j cover, and D_i is disjoint from those;
- so for a prefix t_0, ..., t_(i-1) of chosen tables, K_i maps the systems
  with that prefix onto themselves, and sends those with t at v_i onto
  those with σ·t at v_i.

By induction along the chain, the histograms of the systems with a prefix
and t at v_i equal those with σ·t there. So the family's histograms are the
sum, over one representative per orbit at every vertex, of the product of
the orbit sizes times the histograms of that one system. The weight is a
product over vertices, so the sweep stays one table product, which
``kernels.family_histograms`` takes with each row's orbit size as its
multiplicity. A vertex with nothing left to claim keeps all its tables at
weight 1. ``minrank_exact`` tries the same rows: conjugating a system by an
element of K_0 puts a representative at v_0, then one of K_1, which keeps
v_0's table, puts one at v_1, and so on, and the rank does not change.

Twin vertices cut the sweep further. Two vertices are twins when swapping
them is an automorphism of the graph (``digraph.twin_classes``). Every
table has a key, its class under the key group: any permutation of its
input positions, together with an independent alphabet permutation on
each input and on the output (:func:`_key_group`; at q=2 these are the NPN
classes, 14 on three inputs). :func:`_table_orbits` labels them, with the
swaps of adjacent input positions as generators besides the alphabet
ones. For each class C of twins, the sweep takes one ordering of each
multiset of keys over C, weighted by the number |C|! / (m_1! m_2! ...) of
key tuples with that multiset, and takes the Cartesian product of these
across classes. This is exact:

- a twin transposition (u v) conjugates the family onto itself, since it
  is an automorphism: it keeps every table's inputs up to their order and
  keeps essential dependence, so strict tables stay strict. It keeps rank,
  periodic rank and fixed points. It carries the table at u to one at v
  with its input positions permuted, which the key group contains, so key
  κ_u at u becomes κ_u at v, and every other vertex keeps its key;
- so the systems of key tuples in one orbit of the permutations of C,
  which the twin transpositions generate, have equal histograms, and any
  one tuple of a multiset stands for all of them;
- each key class is a union of chain orbits: K_i permutes the alphabet on
  some inputs and, with the same or another permutation, on the output,
  which the key group contains too. So K_i maps the systems of one key
  tuple onto themselves, and the chain's argument holds inside a key
  tuple: it keeps the chain's rows of its keys, with their orbit sizes.

The ordering is chosen to be cheap. Twins are ordered most kept rows
first, so the chain's first vertex, which keeps only orbit leaders, comes
last; keys are ranked by the ratio of the rows the first twin keeps of a
key to those the last one keeps, smallest first; each multiset is swept
in rank order. When every twin but the last keeps equal rows of each key,
exchanging the keys of two twins cannot lower a multiset's rows, so no
ordering is cheaper: on the complete looped 3-vertex graph at q=2 this
order sweeps as few systems as the best order of each multiset, found by
trying them all.

The twin split is packed into the same single kernel call
(``kernels.family_histograms``). Each class of twins is one
factor whose rows are listed as sub-products: a sub-product fixes the key
of every twin but the last in rank order, and the last twin takes every
key from that one on, as two runs of its key-sorted rows. The run of the
same key counts the multinomial weight of the multiset with that key
twice, the run of later keys the weight with one new key. The sweep takes
whichever plan, the chain's rows whole or the twin split, packs into fewer
kernel blocks (:func:`_sweep_plan`).

A loose sweep bins its strict family in the same kernel call. Every
strict system is a loose one, and every group above keeps essential
dependence, so each chain orbit and each key class is all essential or
all not. The arguments above therefore hold inside the strict family: its
histograms are those of the loose sweep's systems whose rows are all
essential, counted with the same orbit sizes and multinomials. This needs
no particular chain, since any chain is exact, so the strict histograms
are read off the loose chain's rows even where the strict chain would take
the vertices in another order (at q=2 in-degrees 0 and 1 tie at 2 strict
tables each, and the loose chain puts in-degree 1 first). The loose sweep
flags each row it keeps as essential or not (cached with the orbit
leaders), and keeps the flagged histograms with its own.

The sweep runs once per weak component. A table reads only its own
component, so a family, loose or strict, is the product of its
components' families. The image, the periodic points and the fixed points
of a product map are the products of its factors', so each quantity
multiplies, and each histogram is the multiplicative convolution of the
components' (out[x·y] += a[x]·b[y]). A component is relabelled 1..k in
increasing vertex order, which keeps its chain and twins, so the price of
the whole family covers each component's set-up. Its histograms are
memoized under (component, alphabet), for 2,048 of them: the strict
family's, and the loose family's once a loose sweep made them. A request
is priced first, so a refusal keeps its message and projected size, and
the product passes the total check against the family size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .canonical import canonicalize, product_bound
from .constructions import conjunctive_rank
from .digraph import Digraph, fingerprint, twin_classes, weak_components
from .errors import IntegrityError, SizeLimitExceeded, projected_size
from .fds import (
    DEFAULT_MAX_STATES,
    TABLE_BYTE_CAP,
    check_states,
    depends_on,
    digits,
    input_index,
)

DEFAULT_MAX_FUNCS = 10 ** 8


def essential_table_count(q: int, d: int) -> int:
    """Number of q-ary tables on d inputs depending essentially on all of them."""
    return sum((-1) ** k * math.comb(d, k) * q ** (q ** (d - k)) for k in range(d + 1))


@lru_cache(maxsize=64)
def _all_tables(q: int, d: int) -> np.ndarray:
    """Matrix of every table on d inputs, one row of q^d outputs each, narrowest dtype."""
    return digits(q, q ** d).astype(np.min_scalar_type(q - 1))


@lru_cache(maxsize=64)
def _essential_selector(q: int, d: int) -> np.ndarray:
    """Indices of the tables essential in every input."""
    tables = _all_tables(q, d)
    keep = np.ones(tables.shape[0], dtype=bool)
    for j in range(d):
        keep &= depends_on(tables, q, j)
    return np.nonzero(keep)[0]


@lru_cache(maxsize=64)
def _table_orbits(
    q: int, k: int, coords: tuple[tuple[int | None, bool], ...],
    swaps: tuple[tuple[int, int], ...] = (),
) -> np.ndarray:
    """For every table on k inputs, the least code in its orbit under ``coords``
    and ``swaps``.

    A table's code is its row in ``_all_tables(q, k)``. The group permutes
    the alphabet independently on each coordinate of ``coords``: a pair
    (input digit or None, whether it moves the output). A vertex's own
    coordinate moves its output, and its input digit too when it reads
    itself; the other coordinates are input digits. Each pair (i, j) of
    ``swaps`` exchanges input positions i and j. The group is generated by
    transpositions, each its own inverse, so the code a generator sends
    every table to is one gather index. Labels take the least label across
    each generator, then jump to their own label's label, until a round
    moves none. Orbits never mix essential and inessential tables, so one
    labelling serves both families.
    """
    moves = _orbit_moves(q, k, coords, swaps)
    label = np.arange(q ** (q ** k), dtype=np.min_scalar_type(q ** (q ** k) - 1))
    while True:
        before = label.copy()
        for move in moves:
            np.minimum(label, label[move], out=label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def _orbit_moves(q: int, k: int, coords, swaps=()) -> list[np.ndarray]:
    """The code each generator of :func:`_table_orbits` sends every table to.

    The codes, in the narrowest unsigned dtype that holds them, form a grid
    with one axis per cell, indexed by the cell's value (Fortran order, as
    codes are little-endian). A generator (τ·t)(x) = τ_out(t(τ_in x)) moves
    the value of cell y to cell τ_in y, an axis permutation, and maps it by
    τ_out, a gather along every axis.
    """
    cells = np.arange(q ** k)
    codes = np.arange(q ** cells.size, dtype=np.min_scalar_type(q ** cells.size - 1))
    grid = codes.reshape((q,) * cells.size, order="F")
    generators = []  # (the axis each cell's value lands on, the output's permutation or None)
    for j, output in coords:
        for a in range(q - 1):
            swap = np.arange(q)
            swap[[a, a + 1]] = a + 1, a
            moved = cells
            if j is not None:
                digit = cells // q ** j % q
                moved = cells + (swap[digit] - digit) * q ** j
            generators.append((moved, swap if output else None))
    for i, j in swaps:
        di, dj = cells // q ** i % q, cells // q ** j % q
        generators.append((cells + (dj - di) * q ** i + (di - dj) * q ** j, None))
    moves = []
    for moved, out in generators:
        code = grid
        for axis in range(cells.size if out is not None else 0):
            code = np.take(code, out, axis=axis)
        moves.append(code.transpose(moved).ravel(order="F"))
    return moves


def _key_group(k: int) -> tuple[tuple, tuple]:
    """``coords`` and ``swaps`` of the key group on k inputs: every
    permutation of the input positions, and an alphabet permutation on each
    input and on the output, independently."""
    return (tuple((j, False) for j in range(k)) + ((None, True),),
            tuple((j, j + 1) for j in range(k - 1)))


@dataclass(frozen=True, eq=False)
class QuantityStats:
    minimum: int
    maximum: int
    average: Fraction
    histogram: dict[int, int]


@dataclass(frozen=True, eq=False)
class StatsReport:
    graph: str
    q: int
    strict: bool
    function_count: int
    rank: QuantityStats
    periodic_rank: QuantityStats
    fixed_points: QuantityStats
    fixed_point_free_fraction: Fraction

    def quantities(self) -> dict[str, QuantityStats]:
        return {
            "rank": self.rank,
            "periodic_rank": self.periodic_rank,
            "fixed_points": self.fixed_points,
        }

    def to_json_dict(self) -> dict:
        def qdict(s: QuantityStats) -> dict:
            return {
                "min": s.minimum,
                "max": s.maximum,
                "average": str(s.average),
                "histogram": {str(k): v for k, v in sorted(s.histogram.items())},
            }

        return {
            "graph": self.graph,
            "q": self.q,
            "strict": self.strict,
            "function_count": self.function_count,
            "rank": qdict(self.rank),
            "periodic_rank": qdict(self.periodic_rank),
            "fixed_points": qdict(self.fixed_points),
            "fixed_point_free_fraction": str(self.fixed_point_free_fraction),
        }

    def to_text_table(self) -> str:
        rows = [
            ("quantity", "min", "max", "average"),
            ("rank", str(self.rank.minimum), str(self.rank.maximum), str(self.rank.average)),
            (
                "periodic_rank",
                str(self.periodic_rank.minimum),
                str(self.periodic_rank.maximum),
                str(self.periodic_rank.average),
            ),
            (
                "fixed_points",
                str(self.fixed_points.minimum),
                str(self.fixed_points.maximum),
                str(self.fixed_points.average),
            ),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]
        head = f"functions: {self.function_count} (strict={self.strict}, q={self.q})"
        return "\n".join([head] + lines) + "\n"


def _quantity_from_hist(pairs: tuple, total: int) -> QuantityStats:
    """A quantity's stats from its nonzero (value, count) pairs, increasing."""
    histogram = dict(pairs)
    return QuantityStats(
        minimum=pairs[0][0],
        maximum=pairs[-1][0],
        average=Fraction(sum(v * c for v, c in pairs), total),
        histogram=histogram,
    )


def _table_counts(d: Digraph, q: int, strict: bool) -> list[int]:
    """Number of local tables each vertex ranges over in the family."""
    ins = d.in_map()
    return [
        essential_table_count(q, len(ins[v])) if strict else q ** (q ** len(ins[v]))
        for v in d.vertices()
    ]


def _log2_tables(q: int, k: int, strict: bool) -> float:
    """log2 of the number of tables on k inputs, in floating point.

    The essential share is 1 + sum_j (-1)^j C(k, j) q^(q^(k-j) - q^k), whose
    terms past the first few underflow to 0.
    """
    log2_q = math.log2(q)
    bits = q ** k * log2_q
    if strict:
        share = 1 + sum((-1) ** j * math.comb(k, j) * 2.0 ** ((q ** (k - j) - q ** k) * log2_q)
                        for j in range(1, k + 1))
        bits += math.log2(share)
    return bits


def family_size(d: Digraph, q: int, strict: bool) -> int:
    """Exact number of systems in the family, computed before any materialization."""
    return math.prod(_table_counts(d, q, strict))


def _log2_sum(terms: list[float]) -> float:
    """log2 of the sum of 2^t over ``terms``, without forming any 2^t."""
    top = max(terms)
    return top + math.log2(sum(2.0 ** (t - top) for t in terms))


def _over(log2: float, exact, cap: float) -> bool:
    """Whether a size is over ``cap``: by its float log2, or by ``exact()``
    when that is within a bit of the cap's."""
    limit = math.log2(cap) if cap >= 1 else -math.inf
    if abs(log2 - limit) > 1:
        return log2 > limit
    return exact() > cap


def price_family(
    d: Digraph, q: int, strict: bool, max_funcs: float, max_states: int
) -> tuple[int, int]:
    """Systems and states of a family sweep; refuses the sweep over any guard.

    The guards are on states, systems and the bytes the sweep set-up
    allocates, in that order. Systems and table bytes are priced by their
    float log2 first, and exactly only near the guard, so a family of
    tables too many to count is refused at once. The bytes of the set-up
    are priced in two steps. First the tables: the narrow table matrices,
    the int64 digit matrix the largest is decoded from, and the orbit steps
    of the chain's groups in turn, each one code column of at most 8 bytes
    a table per generator plus three working columns, over the labels the
    earlier steps keep. When those fit, the labellings (cached for the
    set-up) give the rows each vertex keeps. When those take more than one
    kernel block, so that the plan looks for twins, the key labelling of
    each class of twins is priced as one more orbit step, with one
    generator per input transposition, before the plan allocates it, and
    so are the sorted copies of the rows the plan sweeps (codes, orbit
    sizes and their order, 24 bytes a kept row). Last come the padded
    tensor and one vertex's gather (rows x states), at the most rows any
    vertex keeps. ``max_funcs`` is an already resolved limit.
    """
    n_states = check_states(d.n, q, max_states)
    ins = d.in_map()
    degrees = [len(ins[v]) for v in d.vertices()]
    log2_total = sum(_log2_tables(q, k, strict) for k in degrees)
    if _over(log2_total, lambda: family_size(d, q, strict), max_funcs):
        total = projected_size(log2_total, lambda: family_size(d, q, strict))
        raise SizeLimitExceeded(
            f"family has {total} systems, over the guard {max_funcs}", projected=total
        )
    value, state = (np.min_scalar_type(x - 1).itemsize for x in (q, n_states))
    cell_bits = [_log2_tables(q, k, False) + k * math.log2(q) for k in set(degrees)]
    log2_tables = _log2_sum([math.log2(value) + c for c in cell_bits] + [3 + max(cell_bits)])

    def table_bytes():
        cells = [q ** (q ** k) * q ** k for k in set(degrees)]
        return value * sum(cells) + 8 * max(cells)

    if _over(log2_tables, table_bytes, TABLE_BYTE_CAP):
        nbytes = projected_size(log2_tables, table_bytes)
        raise SizeLimitExceeded(
            f"sweep set-up needs {nbytes} bytes, over {TABLE_BYTE_CAP}", projected=nbytes
        )
    groups = _chain_groups(d, q, strict)
    held = orbit = 0

    def orbit_step(k, generators):
        nonlocal held, orbit
        orbit = max(orbit, held + 8 * q ** (q ** k) * (generators + 3))
        held += 8 * q ** (q ** k)

    for k, coords in dict.fromkeys(zip(degrees, groups)):
        orbit_step(k, (q - 1) * len(coords))
    nbytes = table_bytes() + orbit
    if nbytes <= TABLE_BYTE_CAP:
        kept = [_orbit_leaders(q, k, coords, strict)[0].size for k, coords in zip(degrees, groups)]
        nbytes = (d.n * state + value) * max(kept) * n_states
        if _kernel_blocks(math.prod(kept), max(1, kernels.BLOCK_CELLS // n_states)) > 1:
            # the plan labels the tables of twins by key, one more orbit
            # step, and sorts copies of the rows
            for k in {degrees[c[0] - 1] for c in twin_classes(d) if len(c) > 1}:
                coords, swaps = _key_group(k)
                orbit_step(k, (q - 1) * len(coords) + len(swaps))
            nbytes += 24 * sum(kept)
        nbytes += table_bytes() + orbit
    if nbytes > TABLE_BYTE_CAP:
        raise SizeLimitExceeded(
            f"sweep set-up needs {nbytes} bytes, over {TABLE_BYTE_CAP}", projected=nbytes
        )
    return family_size(d, q, strict), n_states


@lru_cache(maxsize=2048)
def _chain_groups(
    d: Digraph, q: int, strict: bool
) -> tuple[tuple[tuple[int | None, bool], ...], ...]:
    """For each vertex from 0, the coordinates its alphabet group K_i permutes.

    Vertices are taken most tables first, lowest index on ties; each claims
    the coordinates of itself and its inputs that no earlier vertex claimed,
    as :func:`_table_orbits` reads them. Cached, with room for the 1,310
    families a ``verify`` run sweeps: its guard and its sweep read them.
    """
    counts = _table_counts(d, q, strict)
    ins = d.in_map()
    claimed: set[int] = set()
    groups: list[tuple] = [()] * d.n
    for v in sorted(range(d.n), key=lambda v: (-counts[v], v)):
        own, inputs = v + 1, sorted(ins[v + 1])
        claim = {own, *inputs} - claimed
        claimed |= claim
        coords = tuple((j, u == own) for j, u in enumerate(inputs) if u in claim)
        groups[v] = coords + ((None, True),) * (own in claim and own not in inputs)
    return tuple(groups)


@lru_cache(maxsize=64)
def _orbit_leaders(
    q: int, k: int, coords, strict: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the tables on k inputs that lead their orbit under ``coords``,
    increasing, the size of each one's orbit, and whether each is essential.

    Strict keeps the essential tables only. An orbit is all essential or
    all not, so the flags mark the strict family's rows among the loose ones.
    """
    essential = np.zeros(q ** (q ** k), dtype=bool)
    essential[_essential_selector(q, k)] = True
    label = _table_orbits(q, k, coords)
    sizes = np.bincount(label, minlength=label.size)
    live = sizes > 0
    if strict:
        live &= essential
    codes = np.flatnonzero(live)
    return codes, sizes[codes], essential[codes]


def _chain_rows(
    d: Digraph, q: int, strict: bool
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each vertex from 0, the codes of the tables it keeps, one per orbit
    of its chain group, each one's orbit size, and whether each is essential."""
    ins = d.in_map()
    inputs = [sorted(ins[v]) for v in d.vertices()]
    for k in {len(i) for i in inputs}:  # free each int64 digit matrix before any tensor exists
        _essential_selector(q, k)
    return [_orbit_leaders(q, len(i), coords, strict)
            for i, coords in zip(inputs, _chain_groups(d, q, strict))]


def _sweep_tensor(
    d: Digraph, q: int, rows: list[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Padded tensor ``w``, live row counts and each live row's multiplicity.

    ``rows[v]`` holds the codes of the tables vertex v+1 keeps and their
    multiplicities, then their flags. ``w[v, t]`` is the t-th kept table
    times q^v.
    """
    ins = d.in_map()
    counts = np.array([row[0].size for row in rows], dtype=np.int64)
    w = np.zeros((d.n, int(counts.max()), q ** d.n), dtype=np.min_scalar_type(q ** d.n - 1))
    for v, (codes, *_) in enumerate(rows):
        inputs = sorted(ins[v + 1])
        tables = _all_tables(q, len(inputs))
        np.multiply(tables[np.ix_(codes, input_index(d.n, q, inputs))], w.dtype.type(q ** v),
                    out=w[v, : counts[v]], casting="unsafe")
    return w, counts, [row[1] for row in rows]


def _multinomial(combo: tuple[int, ...]) -> int:
    """The number of tuples whose multiset is ``combo``: len! / (m_1! m_2! ...)."""
    return math.factorial(len(combo)) // math.prod(
        math.factorial(combo.count(key)) for key in set(combo))


def _kernel_blocks(systems: int, cols: int) -> int:
    """Kernel blocks of ``cols`` maps that ``systems`` maps fill."""
    return -(-systems // cols)


def _whole(rows: list[tuple[np.ndarray, ...]], vertices) -> list:
    """Each of ``vertices`` as a factor of its own: one sub-product, one
    run over all its rows."""
    return [((v,), [(((0, rows[v][0].size, 1),),)]) for v in vertices]


def _twin_split(d: Digraph, q: int, rows: list[tuple[np.ndarray, ...]], cols: int,
                plain: int):
    """The twin split as (rows, counts, factors) for the kernel, when it packs
    into fewer kernel blocks than ``plain``, else None.

    Each class of twins is one factor. Its members are ordered most kept
    rows first, and their rows sorted by key rank, so that each key's rows
    are one range. A sub-product fixes the key of every member but the
    last, in rank order, and the last takes every key from the one before
    on, in two runs: that key, at the multinomial weight of the multiset
    with it twice, then the later keys. The split's rows are counted before
    any sub-product is listed.
    """
    ins = d.in_map()
    classes = [[v - 1 for v in c] for c in twin_classes(d) if len(c) > 1]
    if not classes:
        return None
    rows = list(rows)
    split = []  # (members, start of each rank's rows at each member, rows of the class)
    for c in classes:
        members = sorted(c, key=lambda v: (-rows[v][0].size, v))
        label = _table_orbits(q, len(ins[c[0] + 1]), *_key_group(len(ins[c[0] + 1])))
        # twins read equally many inputs, and each keeps rows of every key of
        # their tables, since each key class is a union of chain orbits
        keys = [label[rows[v][0]] for v in members]
        names = np.flatnonzero(np.bincount(keys[0]))
        index = [np.searchsorted(names, key) for key in keys]
        per_key = [np.bincount(i, minlength=names.size).tolist() for i in index]
        # the cheapest order: keys ranked by the first member's rows of a key
        # over the last one's, smallest first (the module docstring)
        ranked = sorted(range(names.size),
                        key=lambda x: (Fraction(per_key[0][x], per_key[-1][x]), x))
        rank = np.empty(names.size, dtype=np.intp)
        rank[ranked] = np.arange(names.size)
        starts = []
        for v, i, counts in zip(members, index, per_key):
            order = np.argsort(rank[i], kind="stable")
            rows[v] = tuple(a[order] for a in rows[v])
            starts.append(np.cumsum([0] + [counts[x] for x in ranked]).tolist())
        # tuples of rows along non-decreasing ranks, one member at a time
        tuples = [b - a for a, b in zip(starts[0], starts[0][1:])]
        for s in starts[1:]:
            below = list(itertools.accumulate(tuples))
            tuples = [total * (b - a) for total, a, b in zip(below, s, s[1:])]
        split.append((members, starts, sum(tuples)))
    in_class = {v for members, _, _ in split for v in members}
    others = [v for v in range(d.n) if v not in in_class]
    counts = [total for _, _, total in split] + [rows[v][0].size for v in others]
    if _kernel_blocks(math.prod(counts), cols) >= plain:
        return None
    factors = []
    for members, starts, _ in split:
        subs = []
        for prefix in itertools.combinations_with_replacement(range(len(starts[0]) - 1),
                                                              len(members) - 1):
            r, last = prefix[-1], starts[-1]
            runs = [(last[r], last[r + 1], _multinomial(prefix + (r,)))]
            if last[r + 1] < last[-1]:
                runs.append((last[r + 1], last[-1], _multinomial(prefix + (-1,))))
            subs.append(tuple(((s[x], s[x + 1], 1),) for s, x in zip(starts, prefix))
                        + (tuple(runs),))
        factors.append((tuple(members), subs))
    return rows, counts, factors + _whole(rows, others)


def _sweep_plan(d: Digraph, q: int, strict: bool, n_states: int):
    """The rows, the factor row counts and the factors of the sweep's one
    kernel call.

    The plan is the chain's rows whole, each vertex its own factor, or the
    twin split, whichever packs into fewer kernel blocks of cols maps. A
    plain plan of one block is kept without looking for twins.
    """
    rows = _chain_rows(d, q, strict)
    cols = max(1, kernels.BLOCK_CELLS // n_states)
    counts = [row[0].size for row in rows]
    plain = _kernel_blocks(math.prod(counts), cols)
    if plain == 1:
        return rows, counts, _whole(rows, range(d.n))
    return _twin_split(d, q, rows, cols, plain) or (rows, counts, _whole(rows, range(d.n)))


def _sweep_component(c: Digraph, q: int, strict: bool) -> dict[bool, tuple]:
    """The histograms of a connected graph's family, from one kernel call,
    as each quantity's nonzero (value, count) pairs: under ``strict``, and
    under True also when a loose sweep binned its strict family."""
    n_states = q ** c.n
    rows, counts, factors = _sweep_plan(c, q, strict, n_states)
    w, _live, mult = _sweep_tensor(c, q, rows)
    hists = np.array(kernels.family_histograms(
        w, counts, n_states, mult, factors, [row[2] for row in rows]))
    # a sweep's histograms run on into those of its strict family: the
    # same ones when it is strict, since it keeps essential rows only
    loose, flagged = hists[:, : n_states + 1], hists[:, n_states + 1 :]
    halves = {True: loose} if strict else {False: loose, True: flagged}
    return {s: tuple(tuple(zip(nz.tolist(), h[nz].tolist()))
                     for h in half for nz in [np.flatnonzero(h)])
            for s, half in halves.items()}


def _convolve(a: tuple, b: tuple) -> tuple:
    """The histogram of a product x·y of independent quantities, from the
    (value, count) pairs of each: out[x·y] += a[x]·b[y], in exact integers."""
    out: dict[int, int] = {}
    for x, m in a:
        for y, n in b:
            out[x * y] = out.get(x * y, 0) + m * n
    return tuple(sorted(out.items()))


# each weak component's histograms (:func:`_sweep_component`) under
# (component, alphabet), least recently used first, kept once a product
# with them passed its total check
_component_memo: dict[tuple[Digraph, int], dict[bool, tuple]] = {}


def enumerate_stats(
    d: Digraph,
    q: int,
    strict: bool = False,
    max_funcs: int | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> StatsReport:
    """Exact min/average/max and histograms of rank, periodic rank, fixed points.

    ``max_funcs`` defaults to ``DEFAULT_MAX_FUNCS``, read at call time. The
    whole family is priced; then each weak component is swept, or read from
    the memo, and the histograms multiply over components. A loose sweep
    bins the strict family too, for a later strict request.
    """
    if max_funcs is None:
        max_funcs = DEFAULT_MAX_FUNCS
    total, _n_states = price_family(d, q, strict, max_funcs, max_states)
    entries: dict[Digraph, dict[bool, tuple]] = {}
    hists = None
    for vertices in weak_components(d):
        index = {v: i for i, v in enumerate(vertices, 1)}
        c = Digraph(len(vertices), [(index[u], index[v]) for u, v in d.arcs if u in index])
        if c not in entries:
            entry = _component_memo.get((c, q), {})
            entries[c] = entry if strict in entry else _sweep_component(c, q, strict)
        part = entries[c][strict]
        hists = part if hists is None else tuple(map(_convolve, hists, part))
    # the only guard against a kernel, a weight or a flag that drops or
    # double-counts systems
    for name, hist in zip(("rank", "periodic rank", "fixed point"), hists):
        counted = sum(count for _, count in hist)
        if counted != total:
            raise IntegrityError(f"{name} histogram counts {counted} systems, family has {total}")
    for c, entry in entries.items():
        _component_memo.pop((c, q), None)
        _component_memo[c, q] = entry
    while len(_component_memo) > 2048:
        del _component_memo[next(iter(_component_memo))]
    rank, periodic_rank, fixed_points = (_quantity_from_hist(h, total) for h in hists)
    return StatsReport(
        graph=fingerprint(d),
        q=q,
        strict=strict,
        function_count=total,
        rank=rank,
        periodic_rank=periodic_rank,
        fixed_points=fixed_points,
        fixed_point_free_fraction=Fraction(fixed_points.histogram.get(0, 0), total),
    )


def minrank_exact(
    d: Digraph,
    q: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """Minimum rank over the strict family, by branch and bound over local tables.

    Each vertex tries one table per orbit of its chain group, as the sweep
    keeps them: every system has a conjugate of equal rank with a
    representative at each vertex in turn (see the module docstring).
    Partial table assignments are priced by the number of distinct projected
    image tuples, which only grows as more vertices are assigned.
    """
    # the search prunes the strict family instead of sweeping it, so it has no
    # function-count guard; it holds the sweep's tensor
    price_family(d, q, True, math.inf, max_states)

    # the AND network, read over alphabet q, keeps its image and so its rank
    incumbent = conjunctive_rank(d, max_states)

    global_lower = product_bound(canonicalize(d))
    if incumbent <= global_lower:
        return incumbent

    # every vertex tries one table per orbit of its chain group: some minimizer
    # has a representative at each vertex (see the module docstring)
    w, counts, _mult = _sweep_tensor(d, q, _chain_rows(d, q, True))

    def search(depth: int, partial: np.ndarray, n_cls: int) -> None:
        # distinct sums of the chosen rows are distinct prefix tuples
        nonlocal incumbent
        if incumbent <= global_lower:
            return
        if depth == d.n:
            if n_cls < incumbent:
                incumbent = n_cls
            return
        for row in w[depth, : counts[depth]]:
            extended = partial + row
            cnt = int(np.unique(extended).size)
            if cnt < incumbent:
                search(depth + 1, extended, cnt)

    search(0, np.zeros_like(w[0, 0]), 1)
    return incumbent


@dataclass(frozen=True, eq=False)
class UnivariateBaseline:
    q: int
    closed_form_average_rank: Fraction
    enumerated_average_rank: Fraction
    fixed_point_free_count: int
    rank_histogram: dict[int, int]


def univariate_baseline(q: int) -> UnivariateBaseline:
    """Average rank over all q^q self-maps, closed form next to brute force.

    The q^q self-maps are the loose family of one looped vertex.
    """
    report = enumerate_stats(Digraph(1, [(1, 1)]), q)
    enumerated = report.rank.average
    closed = (1 - Fraction(q - 1, q) ** q) * q
    if closed != enumerated:
        raise IntegrityError(
            f"closed form {closed} disagrees with enumeration {enumerated} at q={q}"
        )
    return UnivariateBaseline(
        q=q,
        closed_form_average_rank=closed,
        enumerated_average_rank=enumerated,
        fixed_point_free_count=report.fixed_points.histogram.get(0, 0),
        rank_histogram=dict(report.rank.histogram),
    )
