"""Upper and lower bounds on the maximum number of fixed points.

``fix_bounds_report`` assembles every applicable bound for a graph and
alphabet into one consistency-checked record. Constituents that exceed their
guards are omitted and recorded as skipped, never approximated. The entropy
exponent is exact: the transversal number when the cycle packing number or
the clique-partition bound reaches it (proof in :func:`entropy_report`),
else an exact ``Fraction`` from a certified solve of the program's dual,
refused past ``ENTROPY_VERTEX_CAP`` core vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import ratlp
from .constructions import loopfull_maxfix
from .digraph import Digraph, structure_stats, weak_components
from .errors import InconsistentBounds, IntegrityError, SizeLimitExceeded
from .fds import digits
from .invariants import (
    clique_partition_number,
    cycle_packing_number,
    transversal_number,
)

CODE_STATE_CAP = 1 << 14
# the dual certifies every 9-vertex program tried in about 4 s and fails on
# 10-vertex cycles after half a minute (measured table in CHANGES.md)
ENTROPY_VERTEX_CAP = 9


# --- maximum code size ----------------------------------------------------------

def _max_clique_bitset(adj: list[int], n: int) -> int:
    best = 0

    def color_order(cand: int):
        order: list[int] = []
        bound: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                rest &= ~(1 << v)
                order.append(v)
                bound.append(color)
        return order, bound

    def expand(size: int, cand: int) -> None:
        nonlocal best
        order, bound = color_order(cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            v = order[i]
            cand &= ~(1 << v)
            if size + 1 > best:
                best = size + 1
            nxt = cand & adj[v]
            if nxt:
                expand(size + 1, nxt)

    expand(0, (1 << n) - 1)
    return best


@lru_cache(maxsize=1024)
def max_code_size(n: int, q: int, d) -> int:
    """Largest set of q-ary words of length n at pairwise Hamming distance >= d."""
    if d is None or (isinstance(d, float) and math.isinf(d)) or d > n:
        return 1
    if d <= 1:
        return q ** n
    if d == 2:
        # Singleton's bound q^(n-1), met by the words whose digits sum to 0
        # mod q; the clique search would recurse once per codeword
        return q ** (n - 1)
    total = q ** n
    if total > CODE_STATE_CAP:
        raise SizeLimitExceeded(
            f"code search over {total} words exceeds {CODE_STATE_CAP}", projected=total
        )
    words = digits(q, n)
    adj = []
    # one row of distances at a time: the full matrix is (q^n)^2 cells
    for w in words:
        far = (words != w).sum(1) >= d
        adj.append(int.from_bytes(np.packbits(far, bitorder="little").tobytes(), "little"))
    return _max_clique_bitset(adj, total)


# --- entropy linear program -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EntropyReport:
    value: Fraction
    peeled: tuple[int, ...]  # iteratively removed in-degree-0 vertices
    # "peeled-empty": no core is left; "pinned": the program's own pins fix
    # h(V); "exact-dual": the exact optimum of the entropy program's dual,
    # certified by a solve or met by its integer ends
    method: str

    @property
    def degenerate(self) -> bool:
        return bool(self.peeled)


def _source_core(d: Digraph) -> tuple[Digraph | None, tuple[int, ...]]:
    """The iteratively source-peeled core, relabelled 1..k in vertex order
    (None when nothing is left), and the peeled vertices."""
    core = set(d.vertices())
    peeled: list[int] = []
    while True:
        srcs = [v for v in core if not any(u in core and (u, v) in d.arcs for u in core)]
        if not srcs:
            break
        core -= set(srcs)
        peeled.extend(srcs)
    if not core:
        return None, tuple(sorted(peeled))
    pos = {v: i + 1 for i, v in enumerate(sorted(core))}
    arcs = [(pos[u], pos[v]) for u, v in d.arcs if u in pos and v in pos]
    return Digraph(len(pos), arcs), tuple(sorted(peeled))


def _integer_pin(core: Digraph, tau: int | None = None,
                 clique_end: int | None = None) -> int | None:
    """tau when max(nu, k - kappa) reaches it, else None.

    ``tau`` and ``clique_end`` (k - kappa), when given, are the core's
    values already computed; the others are computed here. An invariant
    refused by its own guard leaves its end out. nu enumerates every cycle
    (up to 100,000 of them on dense cores), so it runs only when tau and
    k - kappa have not met already.
    """
    try:
        high = transversal_number(core) if tau is None else tau
    except SizeLimitExceeded:
        return None
    for low in (lambda: core.n - clique_partition_number(core) if clique_end is None
                else clique_end,
                lambda: cycle_packing_number(core)):
        try:
            if low() == high:
                return high
        except SizeLimitExceeded:
            pass
    return None


def _join_classes(core: Digraph) -> tuple[list[int], dict[int, Fraction]]:
    """The join class of every vertex mask of a source-peeled core, and the
    values the empty-set and singleton pins fix, by class."""
    k = core.n
    full = (1 << k) - 1
    nin_mask = [0] * k
    for u, v in core.arcs:
        nin_mask[v - 1] |= 1 << (u - 1)

    # h(N(i) + i) = h(N(i)) joins two masks into one variable. The classes are
    # the weak components of a graph on the masks (mask m is vertex m + 1) with
    # one arc per vertex; each class is keyed by its least mask.
    root = [0] * (full + 1)
    joins = Digraph(full + 1, ((nin_mask[i] + 1, (nin_mask[i] | 1 << i) + 1) for i in range(k)))
    for comp in weak_components(joins):
        for v in comp:
            root[v - 1] = comp[0] - 1

    const: dict[int, Fraction] = {root[0]: Fraction(0)}
    for i in range(k):
        r = root[1 << i]
        if r in const and const[r] != 1:
            raise IntegrityError("pinned-value clash survived source peeling")
        const[r] = Fraction(1)
    return root, const


def _entropy_program(core: Digraph):
    """The entropy program of a source-peeled core.

    Returns h(V) as a ``Fraction`` when the singleton and empty-set pins
    fix it, else the arguments of :func:`ratlp.solve_exact` for the dual.
    """
    k = core.n
    full = (1 << k) - 1
    root, const = _join_classes(core)
    var_index: dict[int, int] = {}
    for r in root:
        if r not in const and r not in var_index:
            var_index[r] = len(var_index)

    def term(mask: int, coef: int, row: dict, folded: list) -> None:
        r = root[mask]
        if r in const:
            folded[0] += coef * const[r]
        else:
            j = var_index[r]
            row[j] = row.get(j, 0) + coef

    rows, rhs = [], []

    def add_le(terms) -> None:
        # sum coef*h(mask) <= 0 after folding constants
        row: dict[int, int] = {}
        folded = [Fraction(0)]
        for mask, coef in terms:
            term(mask, coef, row, folded)
        row = {j: c for j, c in row.items() if c}
        if not row:
            if folded[0] > 0:
                raise IntegrityError("constant constraint violated in entropy program")
            return
        rows.append(row)
        rhs.append(-folded[0])

    # Shannon's cone is cut out by its elemental inequalities (Yeung, IEEE
    # Trans. IT 1997): monotonicity only at h(N - i) <= h(N), and every
    # submodularity row h(S + i + j) + h(S) <= h(S + i) + h(S + j)
    for i in range(k):
        add_le([(full & ~(1 << i), 1), (full, -1)])
    for mask in range(full + 1):
        for i in range(k):
            if mask & (1 << i):
                continue
            for j in range(i + 1, k):
                if mask & (1 << j):
                    continue
                add_le(
                    [
                        (mask | (1 << i) | (1 << j), 1),
                        (mask, 1),
                        (mask | (1 << i), -1),
                        (mask | (1 << j), -1),
                    ]
                )

    full_root = root[full]
    if full_root in const:
        return const[full_root]

    nvar = len(var_index)
    c = [0] * nvar
    c[var_index[full_root]] = 1

    # HiGHS gets the dual: at 9 vertices its certificate holds where the
    # primal's fails on cycles
    dual_rows = [dict() for _ in range(nvar)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            dual_rows[j][i] = a
    return rhs, dual_rows, [">="] * nvar, c


def _solve_dual(program) -> Fraction:
    return Fraction(ratlp.solve_exact(*program, maximize=False).value)


def _entropy_lp(d: Digraph) -> Fraction:
    """The program's optimum as posed, with no integer pin and no vertex cap."""
    core, _peeled = _source_core(d)
    if core is None:
        return Fraction(0)
    program = _entropy_program(core)
    return program if isinstance(program, Fraction) else _solve_dual(program)


@lru_cache(maxsize=1024)
def entropy_report(d: Digraph, tau: int | None = None,
                   clique_end: int | None = None) -> EntropyReport:
    """Optimal value of the shared-entropy program bounding log_q of max fixed points.

    Vertices with no in-arcs force their coordinate in every fixed point, so
    the program is posed on the iteratively source-peeled core V, with
    h(empty) = 0, h(v) = 1 for every core vertex, the join rows
    h(N(v) + v) = h(N(v)) (N is the in-neighbourhood in the core) and
    Shannon's inequalities; it maximizes h(V). A fully peeled graph
    reports exponent 0.

    Its optimum H lies between integer ends, max(nu, k - kappa) <= H <= tau,
    where k = |V|, nu is the cycle packing number, kappa the clique
    partition number and tau the transversal number of the core:

    - H <= tau. Let F be a minimum feedback vertex set, so V - F is acyclic
      and loopless; add its vertices to S = F in topological order. Each
      new v has N(v) inside S, so submodularity and the join row give
      h(S + v) - h(S) <= h(N(v) + v) - h(N(v)) = 0. Hence h(V) <= h(F),
      and h(F) <= sum of h(f) over F = tau by subadditivity.
    - H >= nu and H >= k - kappa. Any random vector's entropy, in bits, is
      a point of Shannon's cone, so one with H(X_v) = 1 for every core
      vertex v and X_v a function of X_N(v) is feasible. Every core vertex
      has an in-neighbour p(v) in the core. For nu: each cycle of a maximum
      packing carries one uniform bit, copied by its vertices; every other
      vertex copies X_p(v). Following p from an unpacked vertex reaches the
      packing, or the p-arcs would close a cycle disjoint from it. So
      H(X_V) = nu. For k - kappa: on each clique of a minimum partition of
      size s >= 2, the X_v are uniform bits summing to 0, of joint entropy
      s - 1, and each is the sum of the others, its in-neighbours. Every
      singleton copies X_p(v), except that one vertex of each cycle the
      p-arcs close among singletons carries a fresh uniform bit. So H(X_V)
      >= sum of (s - 1) = k - kappa.

    The pins and the integer ends are checked before any row is written.
    Within ``ENTROPY_VERTEX_CAP`` core vertices the join classes come
    first: a value fixed by the empty-set and singleton pins alone reports
    method ``"pinned"``. Next, when the ends meet, the value is tau. Only
    when both fail is the program written, and its value is an exact
    ``Fraction`` certified by :func:`ratlp.solve_exact`. A larger core
    skips the join classes; if its ends do not meet it raises
    ``SizeLimitExceeded``, as does a program whose optimum is not certified.

    ``tau`` and ``clique_end`` (n - kappa), when given, are those of ``d``
    itself, which the caller has already computed. They are the core's
    too: peeling removes vertices on no cycle, so tau stays, and in no
    clique of two or more, since a peeled vertex has no in-arc from any
    vertex peeled after it or left in the core, so each was a clique of
    its own and k - kappa stays.
    """
    core, peeled = _source_core(d)
    if core is None:
        return EntropyReport(Fraction(0), peeled, "peeled-empty")
    if core.n > ENTROPY_VERTEX_CAP:
        pin = _integer_pin(core, tau, clique_end)
        if pin is None:
            raise SizeLimitExceeded(
                f"entropy program capped at {ENTROPY_VERTEX_CAP} core vertices, "
                "and its integer ends do not meet",
                projected=core.n,
            )
        return EntropyReport(Fraction(pin), peeled, "exact-dual")
    root, const = _join_classes(core)
    full_root = root[-1]  # the full mask is the last
    if full_root in const:
        return EntropyReport(const[full_root], peeled, "pinned")
    pin = _integer_pin(core, tau, clique_end)
    value = _solve_dual(_entropy_program(core)) if pin is None else Fraction(pin)
    return EntropyReport(value, peeled, "exact-dual")


def _floor_power(q: int, exponent: Fraction) -> int:
    """floor(q**exponent), exactly."""
    num, den = exponent.numerator, exponent.denominator
    if num < 0:
        return 0
    target = q ** num
    hi = 1
    while hi ** den <= target:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** den <= target:
            lo = mid
        else:
            hi = mid
    return lo


# --- combined report -----------------------------------------------------------------

@dataclass(eq=False)
class BoundsReport:
    target: str
    strict: bool
    q: int
    upper: dict[str, int] = field(default_factory=dict)
    lower: dict[str, int] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    entropy_exponent: object = None
    entropy: EntropyReport | None = None  # the report behind the exponent
    best_upper: int = 0
    best_lower: int = 0
    consistent: bool = True

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "strict": self.strict,
            "q": self.q,
            "upper": dict(sorted(self.upper.items())),
            "lower": dict(sorted(self.lower.items())),
            "best_upper": self.best_upper,
            "best_lower": self.best_lower,
            "consistent": self.consistent,
            "entropy_exponent": None
            if self.entropy_exponent is None
            else str(self.entropy_exponent),
            "provenance": dict(sorted(self.provenance.items())),
            "skipped": dict(sorted(self.skipped.items())),
        }


def _refusable(invariant, d: Digraph):
    """``invariant(d)``, or the ``SizeLimitExceeded`` its guard raised."""
    try:
        return invariant(d)
    except SizeLimitExceeded as exc:
        return exc


def _answer(value):
    """A value from :func:`_refusable`, raising its refusal again."""
    if isinstance(value, SizeLimitExceeded):
        raise value
    return value


def fix_bounds_report(d: Digraph, q: int, strict: bool = False) -> BoundsReport:
    """Every applicable fixed-point bound for the family, with a consistency verdict."""
    return _fix_bounds(d, q, strict, _refusable(transversal_number, d),
                       _refusable(clique_partition_number, d))


def _fix_bounds(d: Digraph, q: int, strict: bool, tau, kappa) -> BoundsReport:
    """:func:`fix_bounds_report`, given the transversal and clique partition
    numbers of ``d`` (or their refusals), each computed once and shared
    with the entropy pin and the ghost alphabet."""
    report = BoundsReport(target="max_fixed_points", strict=strict, q=q)
    stats = structure_stats(d)

    def attempt(name, kind, fn, why):
        try:
            value = fn()
        except SizeLimitExceeded as exc:
            report.skipped[name] = f"size({exc.projected})"
            return
        (report.upper if kind == "upper" else report.lower)[name] = int(value)
        report.provenance[name] = why

    g = stats.girth
    attempt(
        "girth",
        "upper",
        lambda: max_code_size(d.n, q, None if math.isinf(g) else int(g)),
        "distinct fixed points differ on a cycle, so they form a code at girth distance",
    )
    attempt(
        "feedback",
        "upper",
        lambda: q ** _answer(tau),
        "fixed points are determined by their values on a feedback vertex set",
    )

    def entropy_bound():
        known_tau = None if isinstance(tau, SizeLimitExceeded) else tau
        clique_end = None if isinstance(kappa, SizeLimitExceeded) else d.n - kappa
        rep = entropy_report(d, known_tau, clique_end)
        report.entropy = rep
        report.entropy_exponent = rep.value
        return _floor_power(q, rep.value)

    attempt("entropy", "upper", entropy_bound, "entropy program exponent, floored")

    all_looped = all((v, v) in d.arcs for v in d.vertices())
    if all_looped:
        def loopfull_value():
            base = Digraph(d.n, {(u, v) for u, v in d.arcs if u != v})
            return loopfull_maxfix(base, q)

        attempt(
            "loopfull",
            "lower",
            loopfull_value,
            "exact in-domination closed form for loop-on-every-vertex graphs",
        )

    if strict:
        if q >= 3:
            attempt(
                "ghost",
                "lower",
                lambda: _fix_bounds(d, q - 1, False, tau, kappa).best_lower,
                "padding letters never used by a smaller-alphabet witness",
            )
        if q == 2:
            attempt(
                "packing_plus_one",
                "lower",
                lambda: cycle_packing_number(d) + 1,
                "threshold states over a maximum cycle packing",
            )
    else:
        attempt(
            "clique_cover",
            "lower",
            lambda: q ** (d.n - _answer(kappa)),
            "modular-sum witness on each clique of a minimum partition",
        )
        attempt(
            "packing",
            "lower",
            lambda: q ** cycle_packing_number(d),
            "independent shift witnesses on a maximum cycle packing",
        )
        attempt(
            "code",
            "lower",
            lambda: max_code_size(d.n, q, d.n - stats.min_in_degree + 1),
            "codeword fixed points at distance past the minimum in-degree deficit",
        )
        attempt(
            "degree",
            "lower",
            lambda: -(-(q ** stats.min_in_degree) // d.n),
            "counting argument on the minimum in-degree, rounded up",
        )

    # the whole state space / a constant witness back the trivial extremes
    report.best_upper = min(report.upper.values(), default=q ** d.n)
    report.best_lower = max(report.lower.values(), default=1)
    for lname, lval in report.lower.items():
        for uname, uval in report.upper.items():
            if lval > uval:
                report.consistent = False
                raise InconsistentBounds(
                    f"lower bound {lname}={lval} exceeds upper bound {uname}={uval} "
                    f"on {d!r} at q={q}"
                )
    return report
