"""Small exact linear-program solver over rationals.

Two-phase primal simplex with Bland's rule on a fraction-free tableau
(Edmonds/Bareiss integer-preserving pivoting). Every entry is a Python int
over one shared positive denominator ``det``: the rational tableau of the
textbook method is ``rows / det``, entry by entry. A pivot on (r, c) with
``q = rows[r][c]`` keeps row r, replaces every other row i by

    rows[i][j] = (q * rows[i][j] - rows[i][c] * rows[r][j]) // det

and makes q the new denominator (negating the tableau when q < 0, so that
``det`` stays positive and signs read as true signs). Each entry is a minor
of the row-scaled input, so by Sylvester's identity the divisions are exact,
entries stay as small as those minors, and no gcd is ever taken. Ratios are
compared by cross-multiplication with the same (ratio, basis index)
tie-break, so the pivot sequence, the optimal vertex and the solution are
those of the same method run over ``Fraction``.

Inputs may be ints, Fractions, floats or anything else ``Fraction`` accepts;
they are read exactly. Built for the desk-scale capacity programs in this
package (tens of rows, a few hundred columns), where exact optima let
certificates verify to arbitrary tolerance and keep results deterministic.
Not intended as a general-purpose LP code.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """The values scaled to integers by their least common denominator, and
    that denominator."""
    exact = [v if isinstance(v, int) else Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (d // v.denominator) for v in exact], d


class _Tableau:
    """Constraint rows ``[coefficients..., rhs]`` over the common denominator
    ``det``, and the objective row ``[reduced costs..., -value]`` over
    ``det * obj_scale``."""

    def __init__(self, rows: list[list[int]], basis: list[int], det: int):
        self.rows = rows
        self.basis = basis
        self.det = det
        self.obj: list[int] = []
        self.obj_scale = 1

    def set_objective(self, cost: list[int], scale: int) -> None:
        """Load reduced costs c_j - z_j for the current basis, where the
        costs are ``cost / scale``."""
        obj = [self.det * c for c in cost] + [0]
        for row, bi in zip(self.rows, self.basis):
            cb = cost[bi]
            if cb:
                obj = [o - cb * a for o, a in zip(obj, row)]
        self.obj = obj
        self.obj_scale = scale

    def value(self) -> Fraction:
        return Fraction(-self.obj[-1], self.det * self.obj_scale)

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        q = prow[c]
        # Dividing by det carrying q's sign negates the tableau when q < 0.
        d = self.det if q > 0 else -self.det

        def update(row: list[int]) -> list[int]:
            f = row[c]
            if f:
                return [(q * a - f * b) // d for a, b in zip(row, prow)]
            if q == d:
                return row
            return [q * a // d for a in row]

        self.rows = [
            (prow if q > 0 else [-b for b in prow]) if i == r else update(row)
            for i, row in enumerate(self.rows)
        ]
        self.obj = update(self.obj)
        self.det = abs(q)
        self.basis[r] = c

    def maximize(self, eligible: int) -> str:
        """Run primal simplex steps until optimal or unbounded (Bland's rule);
        only the first `eligible` columns may enter the basis."""
        while True:
            obj = self.obj
            enter = next((j for j in range(eligible) if obj[j] > 0), -1)
            if enter < 0:
                return OPTIMAL
            leave = -1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave >= 0:
                        # rhs / a against the best ratio num / den, both
                        # denominators positive; ties go to the lower basis index.
                        lhs, rhs = row[-1] * den, num * a
                        if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leave]):
                            continue
                    leave, num, den = i, row[-1], a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (status, optimal value, solution vector); value and vector are
    None unless status is "optimal".
    """
    n = len(objective)
    # (integer coefficients + rhs, row denominator, kind); a row with a
    # negative bound is negated first.
    norm_rows: list[tuple[list[int], int, str]] = []
    for rows, bounds, kind in ((a_ub, b_ub, "le"), (a_eq, b_eq, "eq")):
        for row, b in zip(rows, bounds):
            ints, d = _integer_row([*row, b])
            if ints[-1] < 0:
                norm_rows.append(([-v for v in ints], d, "ge" if kind == "le" else "eq"))
            else:
                norm_rows.append((ints, d, kind))

    n_slack = sum(1 for _, _, k in norm_rows if k == "le")
    n_surplus = sum(1 for _, _, k in norm_rows if k == "ge")
    n_art = sum(1 for _, _, k in norm_rows if k in ("ge", "eq"))
    total = n + n_slack + n_surplus + n_art
    art_start = n + n_slack + n_surplus

    # Row i scaled by its denominator d_i, slack and artificial entries
    # included, has the basis matrix diag(d_i). Its adjugate times the scaled
    # rows is p0 times the rational tableau, with p0 = prod d_i its
    # determinant: the starting point of integer-preserving pivoting.
    p0 = math.prod(d for _, d, _ in norm_rows)
    rows: list[list[int]] = []
    basis: list[int] = []
    i_slack, i_surplus, i_art = n, n + n_slack, art_start
    for ints, d, kind in norm_rows:
        s = p0 // d
        row = [0] * (total + 1)
        row[:n] = [s * v for v in ints[:-1]]
        row[-1] = s * ints[-1]
        if kind == "le":
            row[i_slack] = p0
            basis.append(i_slack)
            i_slack += 1
        elif kind == "ge":
            row[i_surplus] = -p0
            i_surplus += 1
            row[i_art] = p0
            basis.append(i_art)
            i_art += 1
        else:
            row[i_art] = p0
            basis.append(i_art)
            i_art += 1
        rows.append(row)

    tab = _Tableau(rows, basis, p0)

    if n_art:
        tab.set_objective([0] * art_start + [-1] * n_art, 1)
        status = tab.maximize(total)
        assert status == OPTIMAL  # phase 1 is always bounded
        if tab.value() != 0:
            return INFEASIBLE, None, None
        # Pivot leftover artificials out of the basis; a row where that is
        # impossible is redundant and can be dropped.
        for i in reversed(range(len(tab.rows))):
            if tab.basis[i] < art_start:
                continue
            row = tab.rows[i]
            piv_col = next((j for j in range(art_start) if row[j] != 0), None)
            if piv_col is None:
                del tab.rows[i], tab.basis[i]
            else:
                tab.pivot(i, piv_col)

    cost, scale = _integer_row(objective)
    tab.set_objective(cost + [0] * (total - n), scale)
    status = tab.maximize(art_start)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for row, bi in zip(tab.rows, tab.basis):
        if bi < n:
            x[bi] = Fraction(row[-1], tab.det)
    return OPTIMAL, tab.value(), x
