"""Exact linear programming over rationals.

Primal simplex on the full tableau, with bounded slacks. Dantzig's rule
prices: the column of largest reduced cost enters, and the lowest-index
basic variable leaves on ratio ties. Dantzig's rule can cycle on a
degenerate program, so after BLAND_AFTER degenerate pivots in a row Bland's
rule (lowest-index entering column) prices until the objective rises. The
objective never falls and rises only finitely often, and Bland's rule does
not cycle (Bland 1977), so every run ends. Phase 1 stops as soon as the
artificials sum to 0, the most it can reach, and phase 2 starts from that
tableau as it stands: artificials stay as columns fixed at 0 that never
enter. Inputs are ints and fractions.Fraction (a float raises ValueError:
its binary expansion is not the number it was written as), answers are
Fractions, and no float is used.

Every constraint is a range, lo <= a . x <= hi with None for an open end,
and becomes one row whose slack is bounded by hi - lo; ranges with equal
coefficients, wherever they sit, merge into their intersection, and an
empty one raises Infeasible. The ratio test also stops where a basic slack
reaches its bound, or where the entering slack does. One substitution serves
both events (Dantzig 1955): the slack is complemented (s becomes U - s: its
column is negated and rhs -= column * U), so every nonbasic variable stays
at zero. A slack that leaves at its bound is complemented while still basic,
which changes its row only, and the pivot on that row follows.

Inside, the tableau holds exact integers (Edmonds 1967; Bareiss 1968).
Integer coefficients and objectives go in as they are, and a row of
fractions is scaled, ends and all, by the lcm of its denominators. The
variables are solved for in units of 1/unit, with unit the lcm of the ends'
denominators, so only the ends and slack bounds carry that scale, and the
0/1 rows of `em` keep their small minors. Rows, ranges and bounds are built
from numerators and denominators, with no Fraction arithmetic; Fractions
are made only for the answers. All rows share one denominator d > 0. A
pivot on p = T[r][c] maps each other row to (p * row - row[c] * T[r]) // d,
always exact, and sets d = p.

A `Polytope` runs phase 1 once, when it is built; each objective then runs
phase 2 on a copy of that feasible basis, so any number of objectives over
the same constraints pay for phase 1 once. `em` builds one per EM knowledge
base, with one column per formula signature that some world has.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def maximize(objective, constraints):
    """Maximize objective . x subject to constraints and x >= 0.

    Each constraint is a (coefficients, lo, hi) triple, lo <= coefficients . x
    <= hi, where None is an open end. Returns (optimal value, solution vector).
    """
    return Polytope(len(objective), constraints).maximize(objective)


def minimize(objective, constraints):
    return Polytope(len(objective), constraints).minimize(objective)


def _exact(value):
    """(numerator, denominator) of an int or a rational."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise ValueError(f"inexact float {value!r}: pass an int or a Fraction")
        value = Fraction(value)
    return value.numerator, value.denominator


def _integers(values):
    """(s, [v * s]) for the least positive integer s that makes the values
    integers; a list of ints comes back as it is."""
    if {*map(type, values)} == {int}:
        return 1, values
    values = [_exact(v) for v in values]
    scale = lcm(*[den for _, den in values])
    return scale, [num * (scale // den) for num, den in values]


class Polytope:
    """The region {x in Q^n : x >= 0 and every constraint holds}, with a
    feasible basis found once. Constraints are as for `maximize`; the
    constructor raises Infeasible when the region is empty."""

    def __init__(self, n, constraints):
        # Each row is scaled to integer coefficients, its ends with it. The
        # variables are then solved for in units of 1/unit, x = y / unit,
        # with unit the lcm of the ends' denominators, so the ends and slack
        # bounds become integers too while the coefficients stay as they
        # are. Rows with equal coefficients share one range, the greatest
        # of their lower ends to the least of their upper ones.
        ranges = {}
        unit = 1
        for coeffs, lo, hi in constraints:
            scale, co = _integers(coeffs)
            if len(co) != n:
                raise ValueError("constraint width does not match objective")
            ends = ranges.setdefault(tuple(co), ([], []))
            for side, end in zip(ends, (lo, hi)):
                if end is not None:
                    num, den = _exact(end)
                    side.append((num * scale, den))
                    unit = lcm(unit, den)

        # Each range becomes the row sign * (a . y) +- slack (+ artificial)
        # = sign * b >= 0, where b is lo or hi; the slack is bounded by
        # hi - lo. The slack is basic when the origin satisfies the range.
        # Otherwise the row is the >= form, slack -1, and needs an
        # artificial, as does an equality, which has no slack. A range with
        # no end is no row.
        rows = []
        for co, (los, his) in ranges.items():
            lo = max((num * (unit // den) for num, den in los), default=None)
            hi = min((num * (unit // den) for num, den in his), default=None)
            if lo is None and hi is None:
                continue
            bound = None
            if lo is not None and hi is not None:
                if lo > hi:
                    raise Infeasible
                bound = hi - lo
            if lo == hi:
                sign, b, slack = (1 if lo >= 0 else -1), lo, 0
            elif (lo is None or lo <= 0) and (hi is None or hi >= 0):
                sign, b, slack = (1, hi, 1) if hi is not None else (-1, lo, 1)
            elif lo is not None and lo > 0:
                sign, b, slack = 1, lo, -1
            else:
                sign, b, slack = -1, hi, -1
            if sign < 0:
                co = [-v for v in co]
            rows.append((co, sign * b, slack, bound))

        # Slacks take the columns after the structural ones, in row order,
        # and the artificials the columns after those.
        first_artificial = n + sum(1 for row in rows if row[2])
        ncols = first_artificial + sum(1 for row in rows if row[2] != 1)
        tableau = []
        basis = []
        bounds = [None] * ncols
        zeros = [0] * (ncols - n)
        s, a = n, first_artificial
        for co, b, slack, bound in rows:
            row = [*co, *zeros, b]
            if slack:
                row[s], bounds[s] = slack, bound
                basic, s = s, s + 1
            if slack != 1:
                row[a] = 1
                basic, a = a, a + 1
            tableau.append(row)
            basis.append(basic)

        d = 1
        if ncols > first_artificial:
            # Phase 1 maximizes -(sum of the artificials), which reaches 0
            # exactly when every artificial is 0: when the region is nonempty.
            crow = [0] * first_artificial + [-1] * (ncols - first_artificial)
            d, total = _run(tableau, basis, crow, d, bounds, first_artificial, zero_is_max=True)
            if total:
                raise Infeasible
            # Every artificial is now 0 and stays there: its bound is 0, so
            # one still basic leaves at a ratio of 0, and none ever enters.
            bounds[first_artificial:] = [0] * (ncols - first_artificial)

        self.n = n
        self._width = ncols
        self._enterable = first_artificial
        self._tableau = tableau
        self._basis = basis
        self._bounds = bounds
        self._d = d
        self._unit = unit

    def maximize(self, objective):
        """(optimal value, solution vector) of objective . x over the polytope."""
        return self._optimum(objective, 1)

    def minimize(self, objective):
        return self._optimum(objective, -1)

    def optimum(self, objective, sign):
        """The maximum (sign 1) or minimum (sign -1) of objective . x over
        the polytope, without a solution vector."""
        return self._optimum(objective, sign, vector=False)[0]

    def _optimum(self, objective, sign, vector=True):
        scale, crow = _integers(objective)
        if len(crow) != self.n:
            raise ValueError("objective width does not match the polytope")
        crow = [sign * v for v in crow] + [0] * (self._width - self.n)
        # Pivots and bound flips replace rows instead of editing them, so a
        # shallow copy leaves the phase-1 tableau intact for the next
        # objective.
        tableau = list(self._tableau)
        basis = list(self._basis)
        d, total = _run(tableau, basis, crow, self._d, self._bounds, self._enterable)
        d *= self._unit
        value = Fraction(sign * total, d * scale)
        if not vector:
            return value, None
        x = [Fraction(0)] * self.n
        for i, bi in enumerate(basis):
            if bi < self.n:
                x[bi] = Fraction(tableau[i][-1], d)
        return value, x


# Consecutive degenerate pivots after which Bland's rule prices.
BLAND_AFTER = 8


def _run(tableau, basis, crow, d, bounds, enterable, zero_is_max=False):
    """Simplex pivots from basis to an optimum of crow; returns the new d
    and the objective's value there, times d. bounds[j] is the upper bound
    of column j, or None, and only columns below enterable may enter. With
    zero_is_max the objective is known to be at most 0, and reaching 0 ends
    the run.

    The artificials never enter, so once one leaves it stays nonbasic at 0,
    and the run is the simplex method on the program without it. Phase 1
    still reaches 0 exactly when the region is nonempty, as every feasible
    point has all its artificials at 0. In phase 2 an artificial still
    basic is bounded by 0: it leaves at a ratio of 0, and a redundant row
    keeps it as its basic variable.

    Dantzig's rule enters the column of largest reduced cost. It can cycle,
    but only through degenerate pivots, which leave the objective where it
    is; after BLAND_AFTER of them in a row Bland's rule (lowest index enters)
    prices until the objective rises. Each rise is strict, so no basis (with
    its complemented slacks) seen before it comes back after it, and there
    are finitely many bases: the rises end.
    A run of degenerate pivots then ends too, since Bland's rule does not
    cycle (Bland 1977). No column that may enter has a bound of 0 (an
    equality has no slack), so a bound flip is never degenerate."""
    # Reduced costs for the current basis, times d, and -d times the
    # objective's value in z[-1]. They share the denominator d > 0, so
    # the integers compare as the costs do.
    z = [d * v for v in crow] + [0]
    for i, bi in enumerate(basis):
        if crow[bi]:
            z = [a - crow[bi] * b for a, b in zip(z, tableau[i])]
    stalled = 0
    while True:
        if zero_is_max and not z[-1]:
            return d, -z[-1]
        if stalled < BLAND_AFTER:
            best = max(z[:enterable], default=0)
            enter = z.index(best) if best > 0 else -1
        else:
            enter = next((j for j, v in enumerate(z[:enterable]) if v > 0), -1)
        if enter < 0:
            return d, -z[-1]
        # The entering column rises by t until a basic variable falls to 0,
        # a basic slack rises to its bound, or it reaches its own bound
        # (leave = -1, which wins a tie). Each limit is a ratio of integers
        # over d, compared by cross-multiplication.
        leave, best_rhs, best_a = -1, bounds[enter], 1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                rhs = row[-1]
            elif a < 0 and bounds[basis[i]] is not None:
                rhs, a = bounds[basis[i]] * d - row[-1], -a
            else:
                continue
            if best_rhs is None:
                leave, best_rhs, best_a = i, rhs, a
                continue
            lhs, rhs_best = rhs * best_a, best_rhs * a
            if lhs < rhs_best or (
                lhs == rhs_best and leave >= 0 and basis[i] < basis[leave]
            ):
                leave, best_rhs, best_a = i, rhs, a
        if best_rhs is None:
            raise Unbounded
        # An entering bound is positive: only a zero-ratio pivot is degenerate.
        stalled = stalled + 1 if leave >= 0 and not best_rhs else 0
        if leave < 0:
            _complement(tableau, z, enter, bounds[enter])
            continue
        if tableau[leave][enter] < 0:
            # The basic variable leaves at its bound: complement it, which
            # changes its row only, and _pivot negates that row.
            _complement(tableau, z, basis[leave], bounds[basis[leave]])
        z, d = _pivot(tableau, z, basis, d, leave, enter)


def _complement(tableau, z, c, bound):
    """Substitute bound - x for column c: negate the column and take
    column * bound off every right-hand side. A basic column is a unit
    column with reduced cost 0, so then only its row changes."""
    for i, row in enumerate(tableau):
        a = row[c]
        if a:
            row = row[:]
            row[c] = -a
            row[-1] -= a * bound
            tableau[i] = row
    z[-1] -= z[c] * bound
    z[c] = -z[c]


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
    z = _eliminate(z, prow, p, c, d)
    basis[r] = c
    return z, p


def _eliminate(row, prow, p, c, d):
    f = row[c]
    if f:
        return [(p * a - f * b) // d for a, b in zip(row, prow)]
    return row if p == d else [p * a // d for a in row]
