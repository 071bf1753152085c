"""Exhaustive statistics over all systems with a prescribed interaction graph.

``enumerate_stats`` sweeps the full table product for a digraph: the strict
family fixes the interaction graph exactly (every local table must depend
essentially on each declared input), the loose family only requires
containment. Averages are exact rationals. The sweep and ``minrank_exact``
read one narrow tensor, built by :func:`_sweep_tensor`. One guard,
:func:`price_family`, refuses oversized sweeps with the projected size: a
function-count guard (``DEFAULT_MAX_FUNCS`` unless the caller passes
``max_funcs``), the state-space guard of :mod:`fds`, and a cap on the bytes
the sweep set-up allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import kernels
from .canonical import canonicalize, product_bound
from .constructions import conjunctive_rank
from .digraph import Digraph, fingerprint
from .errors import IntegrityError, SizeLimitExceeded
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


def family_size(d: Digraph, q: int, strict: bool) -> int:
    """Exact number of systems in the family, computed before any materialization."""
    return math.prod(_table_counts(d, q, strict))


def price_family(
    d: Digraph, q: int, strict: bool, max_funcs: float, max_states: int
) -> tuple[int, int]:
    """Systems and states of a family sweep; refuses the sweep over any guard.

    The guards are on systems, states and the bytes the sweep set-up
    allocates: the padded tensor, one vertex's gather (tables x states), the
    narrow table matrices and the int64 digit matrix the largest is decoded
    from. ``max_funcs`` is an already resolved limit.
    """
    counts = _table_counts(d, q, strict)
    total = math.prod(counts)
    if total > max_funcs:
        raise SizeLimitExceeded(
            f"family has {total} systems, over the guard {max_funcs}", projected=total
        )
    n_states = check_states(d.n, q, max_states)
    value, state = (np.min_scalar_type(x - 1).itemsize for x in (q, n_states))
    cells = [q ** (q ** k) * q ** k for k in {len(ins) for ins in d.in_map().values()}]
    nbytes = (d.n * state + value) * max(counts) * n_states + value * sum(cells) + 8 * max(cells)
    if nbytes > TABLE_BYTE_CAP:
        raise SizeLimitExceeded(
            f"sweep set-up needs {nbytes} bytes, over {TABLE_BYTE_CAP}", projected=nbytes
        )
    return total, n_states


def _sweep_tensor(d: Digraph, q: int, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Padded tensor ``w`` and live row counts: ``w[v, t]`` is table t of vertex v+1 times q^v."""
    ins = d.in_map()
    counts = np.array(_table_counts(d, q, strict), dtype=np.int64)
    for k in {len(i) for i in ins.values()}:  # free each int64 digit matrix before w exists
        (_essential_selector if strict else _all_tables)(q, k)
    w = np.zeros((d.n, int(counts.max()), q ** d.n), dtype=np.min_scalar_type(q ** d.n - 1))
    for v in range(d.n):
        inputs = sorted(ins[v + 1])
        tables = _all_tables(q, len(inputs))
        if strict:
            tables = tables[_essential_selector(q, len(inputs))]
        np.multiply(tables[:, input_index(d.n, q, inputs)], w.dtype.type(q ** v),
                    out=w[v, : counts[v]], casting="unsafe")
    return w, counts


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
    hists = kernels.family_histograms(*_sweep_tensor(d, q, strict), n_states)
    # the only guard against a kernel that drops or double-counts systems
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
    w, counts = _sweep_tensor(d, q, strict=True)

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
