"""Exact linear programming over rationals.

Primal simplex on the full tableau. All arithmetic is done with
fractions.Fraction, so optima are exact. Bland's rule (lowest-index entering
column, lowest-index basic variable on ratio ties) guarantees termination on
degenerate programs.

A `Polytope` runs phase 1 once, when it is built; each objective then runs
phase 2 on a copy of that feasible basis, so any number of objectives over
the same constraints pay for phase 1 once. `em` builds one per EM knowledge
base, with one column per class of worlds that satisfy the same formulas.
"""

from __future__ import annotations

from fractions import Fraction

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
            rows.append((co, rel, b))

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

        zero = Fraction(0)
        tableau = []
        basis = []
        for i, (co, rel, b) in enumerate(rows):
            row = co + [zero] * (ncols - n) + [b]
            if slack_col[i] is not None:
                row[slack_col[i]] = Fraction(1) if rel == LE else Fraction(-1)
            if art_col[i] is not None:
                row[art_col[i]] = Fraction(1)
            tableau.append(row)
            basis.append(art_col[i] if art_col[i] is not None else slack_col[i])

        if ncols > first_artificial:
            crow = [zero] * first_artificial + [Fraction(-1)] * (ncols - first_artificial)
            _run(tableau, basis, crow)
            value = sum(crow[basis[i]] * tableau[i][-1] for i in range(len(tableau)))
            if value != 0:
                raise Infeasible
            _drive_out_artificials(tableau, basis, first_artificial)
            # No artificial is basic any more, and none may enter in
            # phase 2, so their columns go.
            tableau = [row[:first_artificial] + row[-1:] for row in tableau]

        self.n = n
        self._width = first_artificial
        self._tableau = tableau
        self._basis = basis

    def maximize(self, objective):
        """(optimal value, solution vector) of objective . x over the polytope."""
        c = [Fraction(v) for v in objective]
        if len(c) != self.n:
            raise ValueError("objective width does not match the polytope")
        # Pivots replace rows instead of editing them, so a shallow copy
        # leaves the phase-1 tableau intact for the next objective.
        tableau = list(self._tableau)
        basis = list(self._basis)
        zero = Fraction(0)
        crow = c + [zero] * (self._width - self.n)
        _run(tableau, basis, crow)
        value = sum(crow[basis[i]] * tableau[i][-1] for i in range(len(tableau)))
        x = [zero] * self.n
        for i, bi in enumerate(basis):
            if bi < self.n:
                x[bi] = tableau[i][-1]
        return value, x

    def minimize(self, objective):
        value, x = self.maximize([-Fraction(v) for v in objective])
        return -value, x


def _run(tableau, basis, crow):
    ncols = len(crow)
    # Reduced costs for the current basis.
    z = list(crow) + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = crow[bi]
        if cb:
            row = tableau[i]
            for j in range(ncols + 1):
                if row[j]:
                    z[j] -= cb * row[j]
    while True:
        enter = -1
        for j in range(ncols):
            if z[j] > 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        best_basic = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_basic):
                    best = ratio
                    leave = i
                    best_basic = basis[i]
        if leave < 0:
            raise Unbounded
        _pivot(tableau, z, basis, leave, enter)


def _pivot(tableau, z, basis, i, j):
    pivot = tableau[i][j]
    tableau[i] = [v / pivot for v in tableau[i]]
    row = tableau[i]
    for k, other in enumerate(tableau):
        if k != i and other[j]:
            f = other[j]
            tableau[k] = [a - f * b for a, b in zip(other, row)]
    if z is not None and z[j]:
        f = z[j]
        for idx in range(len(z)):
            z[idx] -= f * row[idx]
    basis[i] = j


def _drive_out_artificials(tableau, basis, first_artificial):
    # Artificial columns are the ones from first_artificial on. A basic
    # artificial at value zero either pivots out on a structural column or
    # marks a redundant row, which is dropped.
    drop = []
    for i in range(len(tableau)):
        if basis[i] >= first_artificial:
            for j in range(first_artificial):
                if tableau[i][j] != 0:
                    _pivot(tableau, None, basis, i, j)
                    break
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
