"""Small exact linear-program solver over the integers.

Two-phase primal simplex with Bland's rule on a fraction-free tableau
(Edmonds/Bareiss integer-preserving pivoting). The constraint rows
``[coefficients..., rhs]`` and the objective row ``[reduced costs...,
-value]`` share one positive denominator ``det``, which starts at 1: the
rational tableau of the textbook method is the integer one divided through,
entry by entry. A pivot on (r, c) with ``q = T[r][c]`` keeps row r and
replaces the whole tableau ``T``, objective row included, by

    T = (q * T - outer(T[:, c], T[r])) // det

and makes q the new denominator (negating the tableau when q < 0, so that
``det`` stays positive and signs read as true signs). Each entry is a minor
of the input, so by Sylvester's identity the divisions are exact, entries
stay as small as those minors, and no gcd is ever taken.

The tableau is held in one of two ways, with the same integers in each:

- a 2-D ``int64`` array, pivoted by whole-array operations. It is used only
  while every entry is below ``INT64_BOUND = 2**31`` in magnitude, so that
  ``q * a - f * b`` cannot overflow. The bound is checked when the array is
  built and, unless it is proven for the whole solve (below), when an
  objective row is loaded and before every pivot;
- a list of Python-int rows, pivoted row by row. A tableau starts here when
  it has fewer than ``ARRAY_MIN_ENTRIES`` entries (the measured size below
  which numpy's per-call cost outweighs its speed) or an entry of 2**31 or
  more, and it moves here, for good, as soon as the array fails the bound.

When the array is built, one inequality can prove the bound for the whole
solve, so that the array skips those checks. With m constraint rows, every
entry any later tableau holds is a minor of the input rows, each with its
unit slack or artificial column, stacked with the phase-1 and phase-2 cost
rows: ``det`` and the constraint rows' entries, right-hand side included,
are minors of order m of the rows alone, and the objective row's are those
minors bordered by that phase's cost row, of order m + 1. (A row dropped as
redundant is zero in every column that can still enter, so the others
pivot as they would with it kept.) By Hadamard's inequality such a minor is
at most the product of the m + 1 largest column norms of the stacked
matrix, both cost rows counted in every column's norm and a zero norm
counted as 1. If the product of their squared norms is below
``INT64_BOUND**2``, no entry of any tableau can reach ``INT64_BOUND``: the
proof is exact, and a proven tableau neither scans before a pivot nor when
an objective row is loaded, and never leaves the array. The norms are
summed in int64, so the proof is tried only for fewer than
``PROOF_MAX_ROWS`` rows and cost rows with every entry below
``PROOF_MAX_ENTRY``, where no square sum can overflow. Any other tableau is
unproven and keeps every check and the move to Python-int rows.

Bland's entering column is the first positive reduced cost. The ratio test
cross-multiplies ratios on columns read out as Python ints, with the same
(ratio, basis index) tie-break. Both see the same numbers on either path,
so the pivot sequence, the optimal vertex and the solution are those of the
same method run over ``Fraction``, whichever path runs and wherever it
switches. ``det``, the solution and the value leave the tableau as Python
ints and ``Fraction``s.

The input is taken in the one form the capacity program is built in: every
coefficient, objective entry and bound an int, and every bound >= 0, so
that each row starts on its own slack or artificial column and x = 0 is
the first basis. Anything else raises ValueError; a rational program
scales each row and the objective by their denominators first. Built for
the desk-scale capacity programs in this package (tens of rows, up to a few
thousand columns), where exact optima let certificates verify to arbitrary
tolerance and keep results deterministic. Not intended as a general-purpose
LP code.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Entries below this in magnitude keep q * a - f * b inside int64.
INT64_BOUND = 1 << 31
# Below this many entries a tableau pivots faster as Python-int rows.
ARRAY_MIN_ENTRIES = 220
# Below these, squared column norms summed in int64 cannot overflow:
# PROOF_MAX_ROWS * PROOF_MAX_ENTRY**2 <= 2**63.
PROOF_MAX_ROWS = 128
PROOF_MAX_ENTRY = 1 << 28
_INT_TYPES = {int, bool}


def _fits(t: np.ndarray, bound: int | None = None) -> bool:
    """Every entry is below `bound`, by default INT64_BOUND, in magnitude."""
    bound = INT64_BOUND if bound is None else bound
    return int(t.max()) < bound and int(t.min()) > -bound


def _minor_bound_sq(rows: np.ndarray, costs: np.ndarray) -> int:
    """The square of Hadamard's bound on every minor of order at most
    ``len(rows) + 1`` of the int64 `rows` stacked with the int64 `costs`
    rows: the product of that many largest squared column norms, each norm
    taken over all the rows and costs and a zero one counted as 1. Every
    entry must be below PROOF_MAX_ENTRY in magnitude and there must be fewer
    than PROOF_MAX_ROWS rows and costs together, so that no sum overflows."""
    sq = (rows * rows).sum(axis=0) + (costs * costs).sum(axis=0)
    k = min(len(rows) + 1, len(sq))
    # sorted, not np.partition, which would page in 0.25 MB of numpy code.
    return math.prod(v or 1 for v in sorted(sq.tolist())[len(sq) - k:])


def _proven(t: np.ndarray, costs: list[list[int]]) -> bool:
    """Whether no entry of any tableau pivoted from the array `t`, whose
    last row is the objective's, can reach INT64_BOUND in magnitude under
    any of the `costs` rows (see the module docstring)."""
    if len(t) + len(costs) >= PROOF_MAX_ROWS or not _fits(t, PROOF_MAX_ENTRY):
        return False
    try:
        c = np.array(costs, dtype=np.int64)
    except OverflowError:
        return False
    return _fits(c, PROOF_MAX_ENTRY) and _minor_bound_sq(t[:-1], c) < INT64_BOUND * INT64_BOUND


class _Tableau:
    """Constraint rows ``[coefficients..., rhs]``, then the objective row
    ``[reduced costs..., -value]``, over the common denominator ``det``:
    the int64 array ``t`` while it is in use, else the Python-int lists
    ``rows``. The other of the two is None. ``proven`` says
    that the array can hold every later tableau under each of the cost rows
    the tableau was built with, so it is never scanned again."""

    def __init__(self, rows: list[list[int]], basis: list[int], costs: list[list[int]]):
        self.rows: list[list[int]] | None = rows
        self.t: np.ndarray | None = None
        self.basis = basis
        self.det = 1
        self.proven = False
        if len(rows) * len(rows[0]) >= ARRAY_MIN_ENTRIES:
            try:
                t = np.array(rows, dtype=np.int64)
            except OverflowError:
                return
            if _fits(t):
                self.rows, self.t = None, t
                self.proven = _proven(t, costs)

    def row(self, i: int) -> list[int]:
        return self.rows[i] if self.t is None else self.t[i].tolist()

    def column(self, j: int) -> list[int]:
        """Column j, the objective row's entry last."""
        if self.t is None:
            return [row[j] for row in self.rows]
        return self.t[:, j].tolist()

    def to_rows(self) -> None:
        self.rows, self.t = self.t.tolist(), None

    def drop(self, i: int) -> None:
        if self.t is None:
            del self.rows[i]
        else:
            self.t = np.delete(self.t, i, axis=0)
        del self.basis[i]

    def set_objective(self, cost: list[int]) -> None:
        """Load reduced costs c_j - z_j for the current basis; `cost` has
        one entry per column, the right-hand side's 0 last."""
        obj = [self.det * c for c in cost]
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb:
                obj = [o - cb * a for o, a in zip(obj, self.row(i))]
        if self.t is not None and not self.proven and max(map(abs, obj)) >= INT64_BOUND:
            self.to_rows()
        if self.t is None:
            self.rows[-1] = obj
        else:
            self.t[-1] = obj

    def value(self) -> Fraction:
        return Fraction(-self.column(-1)[-1], self.det)

    def entering(self, eligible: int) -> int:
        """Bland's rule: the first of the `eligible` columns with a positive
        reduced cost, or -1."""
        if self.t is None:
            obj = self.rows[-1]
            return next((j for j in range(eligible) if obj[j] > 0), -1)
        if not eligible:
            return -1
        # argmax finds the first True; one index read says if there is one.
        positive = self.t[-1, :eligible] > 0
        j = int(positive.argmax())
        return j if positive[j] else -1

    def pivot(self, r: int, c: int) -> None:
        if self.t is not None and not self.proven and not _fits(self.t):
            self.to_rows()
        q = self.rows[r][c] if self.t is None else int(self.t[r, c])
        # Dividing by det carrying q's sign negates the tableau when q < 0.
        d = self.det if q > 0 else -self.det
        if self.t is None:
            prow = self.rows[r]

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
        else:
            t = self.t
            prow = t[r].copy()
            f = t[:, c].copy()
            if q != 1:
                t *= q
            t -= f[:, None] * prow
            if d != 1:
                t //= d
            t[r] = prow if q > 0 else -prow
        self.det = abs(q)
        self.basis[r] = c

    def maximize(self, eligible: int) -> str:
        """Run primal simplex steps until optimal or unbounded (Bland's rule);
        only the first `eligible` columns may enter the basis."""
        while True:
            enter = self.entering(eligible)
            if enter < 0:
                return OPTIMAL
            leave = -1
            # zip stops at the last constraint row: basis has one entry per row.
            for i, (_, a, b) in enumerate(zip(self.basis, self.column(enter), self.column(-1))):
                if a > 0:
                    if leave >= 0:
                        # b / a against the best ratio num / den, both
                        # denominators positive; ties go to the lower basis index.
                        lhs, rhs = b * den, num * a
                        if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leave]):
                            continue
                    leave, num, den = i, b, a
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve_lp(
    objective: Sequence[int],
    a_ub: Sequence[Sequence[int]] = (),
    b_ub: Sequence[int] = (),
    a_eq: Sequence[Sequence[int]] = (),
    b_eq: Sequence[int] = (),
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Maximize objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Every row must have one coefficient per objective entry and one bound,
    and every coefficient, objective entry and bound must be an int (a bool
    is one) and every bound >= 0, else ValueError is raised. Returns (status,
    optimal value, solution vector); value and vector are None unless
    status is "optimal".
    """
    n = len(objective)
    if not set(map(type, objective)) <= _INT_TYPES:
        raise ValueError("objective entries must be ints")
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("every constraint row needs exactly one bound")
    n_slack, n_art = len(a_ub), len(a_eq)
    total = n + n_slack + n_art
    art_start = n + n_slack

    # The <= rows, then the equality rows; row i has a 1 in its own slack
    # or artificial column n + i, so the basis matrix is the identity, det
    # is 1, and the rows are already the starting tableau.
    rows: list[list[int]] = []
    for i, (row, b) in enumerate([*zip(a_ub, b_ub), *zip(a_eq, b_eq)]):
        if (len(row) != n or not set(map(type, row)) <= _INT_TYPES
                or type(b) not in _INT_TYPES or b < 0):
            raise ValueError(f"constraint row {i} (the <= rows first) needs {n} int "
                             f"coefficients and an int bound >= 0, got bound {b!r}")
        built = [0] * (total + 1)
        built[:n] = row
        built[n + i] = 1
        built[-1] = b
        rows.append(built)
    rows.append([0] * (total + 1))  # the objective row, loaded per phase

    # The cost rows of both phases, one entry per column, the right-hand
    # side's 0 last.
    cost = [*objective] + [0] * (total + 1 - n)
    costs = [cost]
    if n_art:
        costs.insert(0, [0] * art_start + [-1] * n_art + [0])
    tab = _Tableau(rows, list(range(n, total)), costs)

    if n_art:
        tab.set_objective(costs[0])
        status = tab.maximize(total)
        if status != OPTIMAL:
            raise RuntimeError(f"simplex phase 1 ended {status}, but it is always bounded")
        if tab.value() != 0:
            return INFEASIBLE, None, None
        # Pivot leftover artificials out of the basis; a row where that is
        # impossible is redundant and can be dropped.
        for i in reversed(range(len(tab.basis))):
            if tab.basis[i] < art_start:
                continue
            row = tab.row(i)
            piv_col = next((j for j in range(art_start) if row[j] != 0), None)
            if piv_col is None:
                tab.drop(i)
            else:
                tab.pivot(i, piv_col)

    tab.set_objective(cost)
    status = tab.maximize(art_start)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for v, bi in zip(tab.column(-1), tab.basis):
        if bi < n:
            x[bi] = Fraction(v, tab.det)
    return OPTIMAL, tab.value(), x
