"""Small dense LP solver in exact rational arithmetic, with a float fallback.

The exact path is a textbook two-phase tableau simplex over ``Fraction``
entries using Bland's rule, so it terminates on degenerate systems. It is
meant for the small programs produced elsewhere in the package (columns up
to a few thousand, rows up to a few hundred); anything larger should go
through :func:`solve_float`, which wraps scipy's HiGHS backend.

All programs are of the form

    optimize  c . x   subject to  A_i . x  (<= | = | >=)  b_i,  x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILED = "failed"  # the float solver stopped without a verdict (iteration limit, numerics)


@dataclass
class LpResult:
    status: str
    value: object = None  # Fraction (exact path) or float (float path)
    x: list | None = None


def _to_fraction_row(row, width):
    out = [Fraction(0)] * width
    if isinstance(row, dict):
        for j, a in row.items():
            out[j] = Fraction(a)
    else:
        for j, a in enumerate(row):
            out[j] = Fraction(a)
    return out


def solve_exact(c, rows, senses, rhs, maximize=False) -> LpResult:
    """Two-phase simplex over exact rationals.

    ``rows`` may mix dense sequences and sparse ``{index: coeff}`` dicts.
    Returns the optimum of the stated (max or min) problem.
    """
    nvar = len(c)
    obj = [Fraction(x) for x in c]
    if maximize:
        obj = [-x for x in obj]

    a = [_to_fraction_row(r, nvar) for r in rows]
    b = [Fraction(x) for x in rhs]
    sense = list(senses)
    m = len(a)
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
            sense[i] = {"<=": ">=", ">=": "<=", "=": "="}[sense[i]]

    # slack (+1) for <=, surplus (-1) plus artificial for >=, artificial for =
    slack_of = {}
    art_of = {}
    ncol = nvar
    for i in range(m):
        if sense[i] == "<=":
            slack_of[i] = ncol
            ncol += 1
        elif sense[i] == ">=":
            slack_of[i] = ncol
            ncol += 1
            art_of[i] = ncol
            ncol += 1
        elif sense[i] == "=":
            art_of[i] = ncol
            ncol += 1
        else:
            raise ValueError(f"bad sense {sense[i]!r}")

    tab = [[Fraction(0)] * (ncol + 1) for _ in range(m)]
    basis = [0] * m
    for i in range(m):
        tab[i][:nvar] = a[i]
        tab[i][ncol] = b[i]
        if sense[i] == "<=":
            tab[i][slack_of[i]] = Fraction(1)
            basis[i] = slack_of[i]
        elif sense[i] == ">=":
            tab[i][slack_of[i]] = Fraction(-1)
            tab[i][art_of[i]] = Fraction(1)
            basis[i] = art_of[i]
        else:
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


def solve_float(c, rows, senses, rhs, maximize=False) -> LpResult:
    """Float path via scipy HiGHS; 1e-9 feasibility tolerance."""
    import numpy as np
    from scipy import optimize

    nvar = len(c)

    def dense(row):
        out = [0.0] * nvar
        if isinstance(row, dict):
            for j, a in row.items():
                out[j] = float(a)
        else:
            for j, a in enumerate(row):
                out[j] = float(a)
        return out

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, s, b in zip(rows, senses, rhs):
        r = dense(row)
        if s == "<=":
            a_ub.append(r)
            b_ub.append(float(b))
        elif s == ">=":
            a_ub.append([-x for x in r])
            b_ub.append(-float(b))
        else:
            a_eq.append(r)
            b_eq.append(float(b))
    cvec = np.array([float(x) for x in c])
    if maximize:
        cvec = -cvec
    res = optimize.linprog(
        cvec,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    if res.status == 2:
        return LpResult(INFEASIBLE)
    if res.status == 3:
        return LpResult(UNBOUNDED)
    if not res.success:
        return LpResult(FAILED)
    value = -res.fun if maximize else res.fun
    return LpResult(OPTIMAL, value, list(res.x))
