"""Exact linear programming over rationals.

Primal simplex on the full tableau. Bland's rule (lowest-index entering
column, lowest-index basic variable on ratio ties) guarantees termination on
degenerate programs. Inputs and answers are fractions.Fraction and no float
is used. Inside, the tableau holds exact integers (Edmonds 1967; Bareiss
1968): rows are scaled to integers and share one denominator d > 0. A pivot
on p = T[r][c] maps each other row to (p * row - row[c] * T[r]) // d, always
exact, and sets d = p.

A `Polytope` runs phase 1 once, when it is built; each objective then runs
phase 2 on a copy of that feasible basis, so any number of objectives over
the same constraints pay for phase 1 once. `em` builds one per EM knowledge
base, with one column per class of worlds that satisfy the same formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

LE = "<="
GE = ">="
EQ = "=="


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def maximize(objective, constraints):
    """Maximize objective . x subject to constraints and x >= 0.

    Each constraint is a (coefficients, relation, rhs) triple with relation
    one of "<=", ">=", "==". Returns (optimal value, solution vector).
    """
    return Polytope(len(objective), constraints).maximize(objective)


def minimize(objective, constraints):
    return Polytope(len(objective), constraints).minimize(objective)


def _integers(values):
    """(s, [v * s]) for the least positive integer s that makes them integers."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class Polytope:
    """The region {x in Q^n : x >= 0 and every constraint holds}, with a
    feasible basis found once. Constraints are as for `maximize`; the
    constructor raises Infeasible when the region is empty."""

    def __init__(self, n, constraints):
        rows = []
        for coeffs, rel, rhs in constraints:
            co = [Fraction(v) for v in coeffs]
            if len(co) != n:
                raise ValueError("constraint width does not match objective")
            b = Fraction(rhs)
            if rel not in (LE, GE, EQ):
                raise ValueError(f"bad relation: {rel!r}")
            if b < 0:
                co = [-v for v in co]
                b = -b
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            # Scaling row i by s_i leaves x alone and rescales its slack and
            # artificial, whose coefficients stay +-1.
            scale, row = _integers(co + [b])
            rows.append((row, rel, scale))

        m = len(rows)
        ncols = n
        slack_col = [None] * m
        art_col = [None] * m
        for i, (_, rel, _) in enumerate(rows):
            if rel in (LE, GE):
                slack_col[i] = ncols
                ncols += 1
        first_artificial = ncols
        for i, (_, rel, _) in enumerate(rows):
            if rel in (GE, EQ):
                art_col[i] = ncols
                ncols += 1

        tableau = []
        basis = []
        for i, (co, rel, _) in enumerate(rows):
            row = co[:-1] + [0] * (ncols - n) + co[-1:]
            if slack_col[i] is not None:
                row[slack_col[i]] = 1 if rel == LE else -1
            if art_col[i] is not None:
                row[art_col[i]] = 1
            tableau.append(row)
            basis.append(art_col[i] if art_col[i] is not None else slack_col[i])

        d = 1
        if ncols > first_artificial:
            # Phase 1 maximizes -(sum of the unscaled artificials), times the
            # lcm L of their rows' scales s_i: artificial i costs -L / s_i.
            scales = [s for _, rel, s in rows if rel != LE]
            common = lcm(*scales)
            crow = [0] * first_artificial + [-(common // s) for s in scales]
            d = _run(tableau, basis, crow, d)
            if sum(crow[bi] * tableau[i][-1] for i, bi in enumerate(basis)):
                raise Infeasible
            d = _drive_out_artificials(tableau, basis, first_artificial, d)
            # No artificial is basic any more, and none may enter in
            # phase 2, so their columns go.
            tableau = [row[:first_artificial] + row[-1:] for row in tableau]

        self.n = n
        self._width = first_artificial
        self._tableau = tableau
        self._basis = basis
        self._d = d

    def maximize(self, objective):
        """(optimal value, solution vector) of objective . x over the polytope."""
        c = [Fraction(v) for v in objective]
        if len(c) != self.n:
            raise ValueError("objective width does not match the polytope")
        scale, crow = _integers(c)
        crow += [0] * (self._width - self.n)
        # Pivots replace rows instead of editing them, so a shallow copy
        # leaves the phase-1 tableau intact for the next objective.
        tableau = list(self._tableau)
        basis = list(self._basis)
        d = _run(tableau, basis, crow, self._d)
        total = sum(crow[bi] * tableau[i][-1] for i, bi in enumerate(basis))
        x = [Fraction(0)] * self.n
        for i, bi in enumerate(basis):
            if bi < self.n:
                x[bi] = Fraction(tableau[i][-1], d)
        return Fraction(total, d * scale), x

    def minimize(self, objective):
        value, x = self.maximize([-Fraction(v) for v in objective])
        return -value, x


def _run(tableau, basis, crow, d):
    """Bland's rule from basis to an optimum of crow; returns the new d."""
    ncols = len(crow)
    # Reduced costs for the current basis, times d: their signs are the
    # true ones, which is all pricing needs.
    z = [d * v for v in crow] + [0]
    for i, bi in enumerate(basis):
        if crow[bi]:
            z = [a - crow[bi] * b for a, b in zip(z, tableau[i])]
    while True:
        enter = -1
        for j in range(ncols):
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            return d
        # Ratios rhs / a share the denominator d, so they compare by
        # cross-multiplication on the integers.
        leave, best_rhs, best_a = -1, 0, 1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            raise Unbounded
        z, d = _pivot(tableau, z, basis, d, leave, enter)


def _pivot(tableau, z, basis, d, r, c):
    """Pivot on tableau[r][c]; returns the updated z row and denominator."""
    prow = tableau[r]
    p = prow[c]
    if p < 0:
        # Negating the pivot row negates every new row, so d stays positive.
        prow = tableau[r] = [-v for v in prow]
        p = -p
    for k, row in enumerate(tableau):
        if k != r:
            tableau[k] = _eliminate(row, prow, p, c, d)
    if z is not None:
        z = _eliminate(z, prow, p, c, d)
    basis[r] = c
    return z, p


def _eliminate(row, prow, p, c, d):
    f = row[c]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, prow)]
    return row if p == d else [p * a // d for a in row]


def _drive_out_artificials(tableau, basis, first_artificial, d):
    # Artificial columns are the ones from first_artificial on. A basic
    # artificial at value zero either pivots out on a structural column or
    # marks a redundant row, which is dropped.
    drop = []
    for i in range(len(tableau)):
        if basis[i] >= first_artificial:
            for j in range(first_artificial):
                if tableau[i][j] != 0:
                    _, d = _pivot(tableau, None, basis, d, i, j)
                    break
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    return d
