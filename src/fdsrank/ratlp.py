"""Small LP solver: exact rational optima from a certified float solve.

All programs are of the form

    optimize  c . x   subject to  A_i . x  (<= | = | >=)  b_i,  x >= 0.

:func:`solve_exact` certifies rather than pivots (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", Oper. Res.
Lett. 2007):

1. Each row and the objective are scaled by a positive integer to whole
   numbers, and scipy's HiGHS solves that program in floats.
2. Its primal ``x`` and row duals ``y`` are snapped to the nearest
   rationals of denominator at most ``SNAP_DENOMINATOR``.
3. The pair is accepted only if, in exact integer arithmetic, ``x >= 0``
   meets every row, each ``y_i`` has the sign its row's sense needs, ``y``
   meets every dual row, and ``c . x == b . y``. Weak duality then makes
   ``c . x`` the exact optimum.
4. In every other case (a failed check, or any HiGHS verdict but optimal)
   the program goes to :func:`solve_tableau`, the two-phase tableau simplex
   over ``Fraction`` entries with Bland's rule, which terminates on
   degenerate systems. An infeasible or unbounded verdict therefore always
   comes from the tableau.

The tableau holds rows x (columns + slacks + artificials + 1) ``Fraction``
cells and refuses with ``SizeLimitExceeded`` past ``TABLEAU_CELL_CAP`` before
it allocates them, so every :func:`solve_exact` answer is certified, pivoted
on a small tableau, or refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeLimitExceeded

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# a float within 1/(2 q D) of a rational p/q with q <= D snaps to it exactly;
# HiGHS solves to 1e-9, far inside that for D = 1000
SNAP_DENOMINATOR = 1000
SENSES = ("<=", ">=", "=")
FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}
# Fraction cells of the tableau; entropy duals took 0.2 s at 2,688 cells,
# 1.7 s at 17,799 and 44 s at 102,378 (table in CHANGES.md)
TABLEAU_CELL_CAP = 20_000


@dataclass
class LpResult:
    status: str
    value: Fraction | None = None
    x: list | None = None


def _items(row):
    return row.items() if isinstance(row, dict) else enumerate(row)


def _whole(values) -> tuple[list[int], int]:
    """``values`` times the least positive integer that makes them all whole."""
    exact = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (scale // v.denominator) for v in exact], scale


def _highs(nvar, rows, senses, rhs, cost):
    """``min cost . x`` by scipy's HiGHS; returns the result and the row duals.

    ``rows`` are ``{column: coefficient}`` dicts. The duals ``y`` are those
    of ``max b . y`` subject to ``A^T y <= cost``, with ``y_i <= 0`` on
    ``<=`` rows and ``y_i >= 0`` on ``>=`` rows; ``None`` unless HiGHS
    reports an optimum.
    """
    import numpy as np
    from scipy import optimize, sparse

    for s in senses:
        if s not in SENSES:
            raise ValueError(f"bad sense {s!r}")
    # HiGHS takes <= and = blocks: a >= row enters negated
    sign = [-1.0 if s == ">=" else 1.0 for s in senses]
    blocks = []
    for eq in (False, True):
        idx = [i for i, s in enumerate(senses) if (s == "=") == eq]
        data, r, col = [], [], []
        for k, i in enumerate(idx):
            for j, a in rows[i].items():
                data.append(sign[i] * float(a))
                r.append(k)
                col.append(j)
        matrix = sparse.csr_array((data, (r, col)), shape=(len(idx), nvar)) if idx else None
        bound = np.array([sign[i] * float(rhs[i]) for i in idx]) if idx else None
        blocks.append((idx, matrix, bound))
    (ub, a_ub, b_ub), (eq, a_eq, b_eq) = blocks
    res = optimize.linprog(
        np.array([float(a) for a in cost]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    if res.status != 0:
        return res, None
    y = [0.0] * len(senses)
    for i, m in zip(ub, res.ineqlin.marginals):
        y[i] = sign[i] * m
    for i, m in zip(eq, res.eqlin.marginals):
        y[i] = m
    return res, y


def _snap(values) -> tuple[list[Fraction], list[int], int]:
    """The nearest rationals of denominator at most ``SNAP_DENOMINATOR``,
    their numerators over a common denominator, and that denominator."""
    snapped = [Fraction(v).limit_denominator(SNAP_DENOMINATOR) for v in values]
    den = math.lcm(*(v.denominator for v in snapped))
    return snapped, [v.numerator * (den // v.denominator) for v in snapped], den


def _certified_cost(rows, senses, rhs, cost, x, xden, y, yden):
    """``cost . x`` if x and y certify it as the minimum, else None.

    The program is in whole numbers and x, y are whole over the common
    denominators ``xden`` and ``yden``, so every check is integer arithmetic:
    ``x >= 0`` meets every row, each ``y_i`` has its row's sign, ``A^T y <=
    cost``, and ``cost . x == b . y`` (weak duality then makes it optimal).
    """
    if any(v < 0 for v in x):
        return None
    reduced = [a * yden for a in cost]
    for row, s, b, yi in zip(rows, senses, rhs, y):
        ax, bx = sum(a * x[j] for j, a in row.items()), b * xden
        if s == "<=":
            ok = ax <= bx and yi <= 0
        elif s == ">=":
            ok = ax >= bx and yi >= 0
        else:
            ok = ax == bx
        if not ok:
            return None
        if yi:
            for j, a in row.items():
                reduced[j] -= a * yi
    if any(r < 0 for r in reduced):
        return None
    primal = sum(a * v for a, v in zip(cost, x))
    if primal * yden != sum(b * v for b, v in zip(rhs, y)) * xden:
        return None
    return Fraction(primal, xden)


def solve_exact(c, rows, senses, rhs, maximize=False) -> LpResult:
    """Exact optimum of the stated (max or min) problem.

    ``rows`` may mix dense sequences and sparse ``{index: coeff}`` dicts.
    A certified HiGHS answer when there is one, else :func:`solve_tableau`.
    """
    # scaling a row or the objective by a positive number keeps the optimal
    # x, so the certificate works on whole numbers
    whole_rows, whole_rhs = [], []
    for row, b in zip(rows, rhs):
        items = list(_items(row))
        scaled, _scale = _whole([a for _j, a in items] + [b])
        whole_rows.append({j: a for (j, _a), a in zip(items, scaled) if a})
        whole_rhs.append(scaled[-1])
    cost, cost_scale = _whole(c)
    if maximize:
        cost = [-a for a in cost]
    try:
        res, y = _highs(len(cost), whole_rows, senses, whole_rhs, cost)
    except OverflowError:  # a coefficient past the float range
        y = None
    if y is not None:
        x, xw, xden = _snap(res.x)
        _y, yw, yden = _snap(y)
        best = _certified_cost(whole_rows, senses, whole_rhs, cost, xw, xden, yw, yden)
        if best is not None:
            return LpResult(OPTIMAL, (-best if maximize else best) / cost_scale, x)
    return solve_tableau(c, rows, senses, rhs, maximize)


def solve_tableau(c, rows, senses, rhs, maximize=False) -> LpResult:
    """Two-phase tableau simplex over exact rationals, with Bland's rule.

    ``rows`` may mix dense sequences and sparse ``{index: coeff}`` dicts.
    Returns the optimum of the stated (max or min) problem, or raises
    ``SizeLimitExceeded`` when the tableau would pass ``TABLEAU_CELL_CAP``.
    """
    nvar = len(c)
    obj = [Fraction(x) for x in c]
    if maximize:
        obj = [-x for x in obj]

    for s in senses:
        if s not in SENSES:
            raise ValueError(f"bad sense {s!r}")
    b = [Fraction(x) for x in rhs]
    # a row with b < 0 enters negated, with its sense flipped
    sense = [FLIPPED[s] if v < 0 else s for s, v in zip(senses, b)]
    m = len(sense)

    # slack (+1) for <=, surplus (-1) plus artificial for >=, artificial for =
    slack_of = {}
    art_of = {}
    ncol = nvar
    for i, s in enumerate(sense):
        if s != "=":
            slack_of[i] = ncol
            ncol += 1
        if s != "<=":
            art_of[i] = ncol
            ncol += 1
    cells = m * (ncol + 1)
    if cells > TABLEAU_CELL_CAP:
        raise SizeLimitExceeded(
            f"exact tableau of {cells} cells exceeds {TABLEAU_CELL_CAP}", projected=cells
        )

    tab = [[Fraction(0)] * (ncol + 1) for _ in range(m)]
    basis = [0] * m
    for i, row in enumerate(rows):
        sign = -1 if b[i] < 0 else 1
        for j, v in _items(row):
            tab[i][j] = sign * Fraction(v)
        tab[i][ncol] = sign * b[i]
        if i in slack_of:
            tab[i][slack_of[i]] = Fraction(1 if sense[i] == "<=" else -1)
            basis[i] = slack_of[i]
        if i in art_of:
            tab[i][art_of[i]] = Fraction(1)
            basis[i] = art_of[i]

    artificials = set(art_of.values())

    def pivot(prow, pcol):
        pv = tab[prow][pcol]
        tab[prow] = [x / pv for x in tab[prow]]
        for i in range(m):
            if i != prow and tab[i][pcol]:
                f = tab[i][pcol]
                rowp = tab[prow]
                tab[i] = [x - f * y for x, y in zip(tab[i], rowp)]
        basis[prow] = pcol

    def run_phase(cost, allowed):
        # cost: per-column objective; returns False when unbounded
        while True:
            # reduced costs z_j - c_j under current basis
            red = list(cost)
            for i in range(m):
                cb = cost[basis[i]]
                if cb:
                    row = tab[i]
                    for j in allowed:
                        if row[j]:
                            red[j] -= cb * row[j]
            enter = -1
            for j in allowed:  # Bland: smallest eligible index
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return True
            leave = -1
            best = None
            for i in range(m):
                if tab[i][enter] > 0:
                    ratio = tab[i][ncol] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return False
            pivot(leave, enter)

    if artificials:
        cost1 = [Fraction(0)] * (ncol + 1)
        for j in artificials:
            cost1[j] = Fraction(1)
        run_phase(cost1, list(range(ncol)))
        phase1 = sum(tab[i][ncol] for i in range(m) if basis[i] in artificials)
        if phase1 > 0:
            return LpResult(INFEASIBLE)
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncol):
                    if j not in artificials and tab[i][j]:
                        pivot(i, j)
                        break
        allowed = [j for j in range(ncol) if j not in artificials]
    else:
        allowed = list(range(ncol))

    cost2 = [Fraction(0)] * (ncol + 1)
    cost2[:nvar] = obj
    if not run_phase(cost2, allowed):
        return LpResult(UNBOUNDED)

    x = [Fraction(0)] * nvar
    for i in range(m):
        if basis[i] < nvar:
            x[basis[i]] = tab[i][ncol]
    value = sum(o * v for o, v in zip(obj, x))
    if maximize:
        value = -value
    return LpResult(OPTIMAL, value, x)
