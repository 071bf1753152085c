"""Exhaustive statistics over all systems with a prescribed interaction graph.

``enumerate_stats`` sweeps the table product for a digraph: the strict
family fixes the interaction graph exactly (every local table must depend
essentially on each declared input), the loose family only requires
containment. Averages are exact rationals. Each kernel call of the sweep
and ``minrank_exact`` read a narrow tensor built by :func:`_sweep_tensor`
from the rows they keep. One guard,
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
table has a key, its sorted value frequencies (:func:`_table_keys`):
relabelling a table's inputs permutes its cells and an alphabet
permutation permutes its values, so neither changes the key. For each
class C of twins, the sweep takes one sub-product per multiset of keys
over C, the sorted key tuple in vertex order, weighted by the number
|C|! / (m_1! m_2! ...) of key tuples with that multiset, and takes the
Cartesian product of these across classes. This is exact:

- a twin transposition (u v) conjugates the family onto itself, since it
  is an automorphism: it keeps every table's inputs up to their order and
  keeps essential dependence, so strict tables stay strict. It keeps rank,
  periodic rank and fixed points. It carries the table at u to one at v
  with cells permuted, so key κ_u at u becomes κ_u at v, and every other
  vertex keeps its key;
- so the systems of key tuples in one orbit of the permutations of C,
  which the twin transpositions generate, have equal histograms;
- each key class is a union of chain orbits, since K_i only permutes the
  cells and values of a table, so K_i maps the systems of one key tuple
  onto themselves and the chain's argument holds inside a sub-product: it
  keeps the chain's rows of its keys, with their orbit sizes.

One kernel call sweeps each sub-product, and its histograms are scaled by
the sub-product's weight in int64. The sweep takes whichever plan, the
chain's rows whole or the twin split, takes fewer kernel blocks
(:func:`_sweep_plan`).
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
from .digraph import Digraph, fingerprint, twin_classes
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
def _table_orbits(q: int, k: int, coords: tuple[tuple[int | None, bool], ...]) -> np.ndarray:
    """For every table on k inputs, the least code in its orbit under ``coords``.

    A table's code is its row in ``_all_tables(q, k)``. The group permutes
    the alphabet independently on each coordinate of ``coords``: a pair
    (input digit or None, whether it moves the output). A vertex's own
    coordinate moves its output, and its input digit too when it reads
    itself; the other coordinates are input digits. The group is generated
    by adjacent transpositions, each its own inverse, so the code a
    generator sends every table to is one gather index. Labels take the
    least label across each generator, then jump to their own label's
    label, until a round moves none. Orbits never mix essential and
    inessential tables, so one labelling serves both families.
    """
    moves = _orbit_moves(q, k, coords)
    label = np.arange(q ** (q ** k), dtype=np.min_scalar_type(q ** (q ** k) - 1))
    while True:
        before = label.copy()
        for move in moves:
            np.minimum(label, label[move], out=label)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def _orbit_moves(q: int, k: int, coords) -> list[np.ndarray]:
    """The code each generator of :func:`_table_orbits` sends every table to.

    Codes are held in the narrowest unsigned dtype that holds them.
    """
    tables = _all_tables(q, k)
    code_type = np.min_scalar_type(tables.shape[0] - 1)
    cells = np.arange(q ** k, dtype=np.int64)
    weight = (q ** cells).astype(code_type)
    moves = []
    for j, output in coords:
        for a in range(q - 1):
            swap = np.arange(q, dtype=np.int64)
            swap[[a, a + 1]] = a + 1, a
            # (τ·t)(x) = τ_out(t(τ_in x)): the value of cell y lands in cell τ_in y
            moved = cells
            if j is not None:
                digit = cells // q ** j % q
                moved = cells + (swap[digit] - digit) * q ** j
            narrow = swap.astype(tables.dtype)
            code = np.zeros(tables.shape[0], dtype=code_type)
            for y in cells:  # one cell at a time: no wide copy of the table matrix
                column = tables[:, y]
                code += (narrow[column] if output else column) * weight[moved[y]]
            moves.append(code)
    return moves


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


def _quantity_from_hist(hist: np.ndarray, total: int) -> QuantityStats:
    nz = np.nonzero(hist)[0]
    histogram = {int(v): int(hist[v]) for v in nz}
    weighted = sum(v * c for v, c in histogram.items())
    return QuantityStats(
        minimum=int(nz.min()),
        maximum=int(nz.max()),
        average=Fraction(weighted, total),
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
    set-up) give the rows each vertex keeps, and the padded tensor and one
    vertex's gather (rows x states) are priced at the most rows any vertex
    keeps; a sub-product of the twin split keeps fewer. The split's key
    labels, at most 4 bytes a table, fit in the freed int64 digit matrix,
    and its row positions, 8 bytes a kept row, in fewer than the tensor's
    bytes a kept row. ``max_funcs`` is an already resolved limit.
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
    for k, coords in dict.fromkeys(zip(degrees, groups)):
        if coords:
            orbit = max(orbit, held + 8 * q ** (q ** k) * ((q - 1) * len(coords) + 3))
            held += 8 * q ** (q ** k)
    nbytes = table_bytes() + orbit
    if nbytes <= TABLE_BYTE_CAP:
        kept = max(_orbit_leaders(q, k, coords, strict)[0].size
                   for k, coords in zip(degrees, groups))
        nbytes += (d.n * state + value) * kept * n_states
    if nbytes > TABLE_BYTE_CAP:
        raise SizeLimitExceeded(
            f"sweep set-up needs {nbytes} bytes, over {TABLE_BYTE_CAP}", projected=nbytes
        )
    return family_size(d, q, strict), n_states


@lru_cache(maxsize=64)
def _chain_groups(
    d: Digraph, q: int, strict: bool
) -> tuple[tuple[tuple[int | None, bool], ...], ...]:
    """For each vertex from 0, the coordinates its alphabet group K_i permutes.

    Vertices are taken most tables first, lowest index on ties; each claims
    the coordinates of itself and its inputs that no earlier vertex claimed,
    as :func:`_table_orbits` reads them. Cached: the guard and the sweep of
    one family both read them.
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
def _orbit_leaders(q: int, k: int, coords, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the tables on k inputs that lead their orbit under ``coords``,
    increasing, and the size of each one's orbit.

    Strict keeps the essential tables only.
    """
    if not coords:
        codes = _essential_selector(q, k) if strict else np.arange(q ** (q ** k))
        return codes, np.ones(codes.size, dtype=np.int64)
    label = _table_orbits(q, k, coords)
    sizes = np.bincount(label, minlength=label.size)
    live = sizes > 0
    if strict:
        essential = np.zeros_like(live)
        essential[_essential_selector(q, k)] = True
        live &= essential
    codes = np.flatnonzero(live)
    return codes, sizes[codes]


def _chain_rows(d: Digraph, q: int, strict: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each vertex from 0, the codes of the tables it keeps, one per orbit
    of its chain group, and each one's orbit size."""
    ins = d.in_map()
    inputs = [sorted(ins[v]) for v in d.vertices()]
    for k in {len(i) for i in inputs}:  # free each int64 digit matrix before any tensor exists
        (_essential_selector if strict else _all_tables)(q, k)
    return [_orbit_leaders(q, len(i), coords, strict)
            for i, coords in zip(inputs, _chain_groups(d, q, strict))]


def _sweep_tensor(
    d: Digraph, q: int, rows: list[tuple[np.ndarray, np.ndarray]],
    picks: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Padded tensor ``w``, live row counts and each live row's multiplicity.

    ``rows[v]`` holds the codes of the tables vertex v+1 keeps and their
    multiplicities. ``picks``, when given, keeps at each vertex v it names
    only the rows at positions ``picks[v]``. ``w[v, t]`` is the t-th kept
    table times q^v.
    """
    if picks:
        rows = [(codes[picks[v]], sizes[picks[v]]) if v in picks else (codes, sizes)
                for v, (codes, sizes) in enumerate(rows)]
    ins = d.in_map()
    counts = np.array([codes.size for codes, _ in rows], dtype=np.int64)
    w = np.zeros((d.n, int(counts.max()), q ** d.n), dtype=np.min_scalar_type(q ** d.n - 1))
    for v, (codes, _) in enumerate(rows):
        inputs = sorted(ins[v + 1])
        tables = _all_tables(q, len(inputs))
        np.multiply(tables[np.ix_(codes, input_index(d.n, q, inputs))], w.dtype.type(q ** v),
                    out=w[v, : counts[v]], casting="unsafe")
    return w, counts, [sizes for _, sizes in rows]


@lru_cache(maxsize=64)
def _table_keys(q: int, k: int) -> np.ndarray:
    """For every table on k inputs, a label of its sorted value frequencies.

    A table's code is its row in ``_all_tables(q, k)``. Relabelling inputs
    permutes a table's cells and an alphabet permutation permutes its
    values, so neither changes the label.
    """
    tables = _all_tables(q, k)
    cells = q ** k
    freq = np.zeros((tables.shape[0], q), dtype=np.min_scalar_type(cells))
    for y in range(cells):  # one cell at a time: no wide copy of the table matrix
        for a in range(q):
            freq[:, a] += tables[:, y] == a
    freq.sort(axis=1)
    label = np.zeros(tables.shape[0], dtype=np.min_scalar_type((cells + 1) ** q - 1))
    for a in range(q):
        label *= label.dtype.type(cells + 1)
        label += freq[:, a]
    return label


def _key_multisets(keys: list[int], size: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each multiset of ``size`` keys as a sorted tuple, with the number of
    key tuples it is the multiset of: size! / (m_1! m_2! ...)."""
    return [(math.factorial(size) // math.prod(math.factorial(combo.count(key))
                                               for key in set(combo)), combo)
            for combo in itertools.combinations_with_replacement(keys, size)]


def _kernel_blocks(systems: int, cols: int) -> int:
    """Kernel blocks of ``cols`` maps that a table product of ``systems`` takes."""
    return -(-systems // cols)


def _twin_split(
    d: Digraph, q: int, rows: list[tuple[np.ndarray, np.ndarray]], cols: int, plain: int
) -> list[tuple[int, dict[int, np.ndarray]]]:
    """The sub-products of the twin split, when they take fewer kernel blocks
    than ``plain``, else [].

    A sub-product is its weight and, for each twin vertex, the positions of
    the rows it keeps there. When there are at least as many sub-products as
    ``plain`` blocks, none is listed.
    """
    ins = d.in_map()
    classes = [[v - 1 for v in c] for c in twin_classes(d) if len(c) > 1]
    if not classes:
        return []
    # twins read equally many inputs, and each keeps rows of every key of
    # their tables, since each key class is a union of chain orbits
    labels = [_table_keys(q, len(ins[c[0] + 1])) for c in classes]
    keys = [np.unique(label[rows[c[0]][0]]).tolist() for c, label in zip(classes, labels)]
    count = math.prod(math.comb(len(c) + len(k) - 1, len(c)) for c, k in zip(classes, keys))
    if count >= plain:
        return []
    parts = {}  # the positions of each key's rows at each twin vertex
    for c, label, ks in zip(classes, labels, keys):
        for v in c:
            key = label[rows[v][0]]
            parts[v] = {k: np.flatnonzero(key == k) for k in ks}
    split, blocks = [], 0
    for choice in itertools.product(*(_key_multisets(k, len(c)) for c, k in zip(classes, keys))):
        picks = {v: parts[v][key]
                 for c, (_, combo) in zip(classes, choice) for v, key in zip(c, combo)}
        systems = math.prod(picks[v].size if v in picks else codes.size
                            for v, (codes, _) in enumerate(rows))
        if systems:  # a key missing at some twin leaves the totals short
            split.append((math.prod(weight for weight, _ in choice), picks))
            blocks += _kernel_blocks(systems, cols)
    return split if blocks < plain else []


def _sweep_plan(
    d: Digraph, q: int, strict: bool, n_states: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[tuple[int, dict[int, np.ndarray]]]]:
    """The chain's rows and the sweep's kernel calls, each a weight and its picks.

    The plan is the chain's rows whole, one call at weight 1 with no picks,
    or the twin split's sub-products at their multinomial weights, whichever
    takes fewer kernel blocks: the sum over calls of ceil(rows product /
    cols), where a block holds cols maps. A plain plan of one block is kept
    without looking for twins.
    """
    rows = _chain_rows(d, q, strict)
    cols = max(1, kernels.BLOCK_CELLS // n_states)
    plain = _kernel_blocks(math.prod(codes.size for codes, _ in rows), cols)
    split = _twin_split(d, q, rows, cols, plain) if plain > 1 else []
    return rows, split or [(1, {})]


def enumerate_stats(
    d: Digraph,
    q: int,
    strict: bool = False,
    max_funcs: int | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> StatsReport:
    """Exact min/average/max and histograms of rank, periodic rank, fixed points.

    ``max_funcs`` defaults to ``DEFAULT_MAX_FUNCS``, read at call time.
    """
    if max_funcs is None:
        max_funcs = DEFAULT_MAX_FUNCS
    total, n_states = price_family(d, q, strict, max_funcs, max_states)
    hists = np.zeros((3, n_states + 1), dtype=np.int64)
    rows, plan = _sweep_plan(d, q, strict, n_states)
    for weight, picks in plan:
        w, counts, mult = _sweep_tensor(d, q, rows, picks)
        hists += weight * np.array(kernels.family_histograms(w, counts, n_states, mult))
    # the only guard against a kernel or a weight that drops or double-counts systems
    for name, hist in zip(("rank", "periodic rank", "fixed point"), hists):
        if int(hist.sum()) != total:
            raise IntegrityError(
                f"{name} histogram counts {int(hist.sum())} systems, family has {total}"
            )
    hist_rank, hist_per, hist_fix = hists
    return StatsReport(
        graph=fingerprint(d),
        q=q,
        strict=strict,
        function_count=total,
        rank=_quantity_from_hist(hist_rank, total),
        periodic_rank=_quantity_from_hist(hist_per, total),
        fixed_points=_quantity_from_hist(hist_fix, total),
        fixed_point_free_fraction=Fraction(int(hist_fix[0]), total),
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
    image tuples, multiplied by the canonical product bound of the unassigned
    remainder whenever the two blocks read disjoint coordinates.
    """
    # the search prunes the strict family instead of sweeping it, so it has no
    # function-count guard; it holds the sweep's tensor
    price_family(d, q, True, math.inf, max_states)

    # the AND network, read over alphabet q, keeps its image and so its rank
    incumbent = conjunctive_rank(d, max_states)

    global_lower = product_bound(canonicalize(d))
    if incumbent <= global_lower:
        return incumbent

    ins = d.in_map()
    # every vertex tries one table per orbit of its chain group: some minimizer
    # has a representative at each vertex (see the module docstring)
    w, counts, _mult = _sweep_tensor(d, q, _chain_rows(d, q, True))

    # product factors for suffixes whose coordinates are disjoint from the prefix
    factors = [1] * (d.n + 1)
    for k in range(1, d.n):
        prefix_coords = set()
        for v in range(1, k + 1):
            prefix_coords |= ins[v]
        rest_coords = set()
        for v in range(k + 1, d.n + 1):
            rest_coords |= ins[v]
        if prefix_coords & rest_coords:
            continue
        rest_arcs = [(u, v) for u, v in d.arcs if v > k]
        if rest_arcs:
            factors[k] = product_bound(canonicalize(Digraph(d.n, rest_arcs)))

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
            if cnt * factors[depth + 1] < incumbent:
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
