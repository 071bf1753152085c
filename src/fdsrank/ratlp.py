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

In every other case (a failed check, a coefficient past the float range,
or any HiGHS verdict but optimal) the program is refused with
``SizeLimitExceeded``. So every answer is a certified optimum; an
infeasible, unbounded or uncertified program has no answer at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeLimitExceeded

# a float within 1/(2 q D) of a rational p/q with q <= D snaps to it exactly;
# HiGHS solves to 1e-9, far inside that for D = 1000
SNAP_DENOMINATOR = 1000
SENSES = ("<=", ">=", "=")


@dataclass
class LpResult:
    value: Fraction
    x: list


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
    """Exact optimum of the stated (max or min) problem, certified or refused.

    ``rows`` may mix dense sequences and sparse ``{index: coeff}`` dicts.
    Raises ``SizeLimitExceeded``, with the program's rows x columns as
    ``projected``, when HiGHS reports no optimum, a coefficient is past the
    float range, or the certificate fails.
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
    except OverflowError:
        res = y = None
    if y is not None:
        x, xw, xden = _snap(res.x)
        _y, yw, yden = _snap(y)
        best = _certified_cost(whole_rows, senses, whole_rhs, cost, xw, xden, yw, yden)
        if best is not None:
            return LpResult((-best if maximize else best) / cost_scale, x)
    why = ("a coefficient is past the float range" if res is None
           else f"HiGHS reported no optimum (status {res.status})" if y is None
           else "the certificate failed")
    raise SizeLimitExceeded(
        f"linear program of {len(rows)} rows x {len(c)} columns refused: {why}",
        projected=len(rows) * len(c),
    )
