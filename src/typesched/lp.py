"""Exact-arithmetic linear programming with extreme-point guarantees.

The rounding arguments of both approximation pipelines count *exactly*
fractional variables, so the solver is exact end to end and "fractional"
means value not in {0, 1} with no tolerance.  The two-phase simplex below
uses Bland's rule (termination without cycling) and returns basic feasible
solutions: the number of variables with positive value never exceeds the
number of constraint rows, which is the sparsity the rounding counting
arguments rely on.  Every solve checks that bound and raises
InvariantViolation if it fails, so ``python -O`` cannot strip the check.

The tableau holds Python ints.  Each row is its rational row, rhs last,
times one positive integer of its own: the lcm of the row's denominators
when it is read from the sparse constraint, and afterwards whatever the
integer-preserving elimination of Edmonds (1967) and Bareiss (1968) leaves.
A pivot on (r, c) replaces every other row with a nonzero in column c by
``row*piv - row[c]*pivot_row`` divided by the gcd of its entries; the
reduced-cost row is carried the same way.  A positive scale changes no sign
and no ratio rhs/a within a row, so Bland's entering rule (first negative
reduced cost), the ratio test (integer cross-multiplication, ties to the
lower basis index) and the phase-1 verdict decide exactly as a rational
tableau would: the pivot sequence, bases and vertices are the same.
Rationals appear only where the constraints are read and the basic values
are returned, through integer numerators and denominators, so the tableau
does not depend on the rational backend.

Equality constraints are handled natively via phase-1 artificials rather
than split into inequality pairs, keeping row counts aligned with the
counting arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import Infeasible, InvariantViolation, PivotLimitExceeded, Unbounded
from .rationals import ZERO, rat, rat_str

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass
class Constraint:
    coeffs: dict[str, object]
    rel: str
    rhs: object

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        self.coeffs = {v: rat(c) for v, c in self.coeffs.items() if rat(c) != 0}
        self.rhs = rat(self.rhs)

    def holds(self, values: dict) -> bool:
        """Whether the row holds exactly at values (absent variables count as 0)."""
        lhs = sum((a * values.get(v, ZERO) for v, a in self.coeffs.items()), ZERO)
        if self.rel == LE:
            return lhs <= self.rhs
        if self.rel == GE:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class LinearProgram:
    """min c.x  s.t. rows, x >= 0.  Empty objective = pure feasibility."""

    variables: list[str] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self._index = {v: j for j, v in enumerate(self.variables)}

    def add_variable(self, name: str, objective=0) -> str:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self._index[name] = len(self.variables)
        self.variables.append(name)
        coeff = rat(objective)
        if coeff != 0:
            self.objective[name] = coeff
        return name

    def add_constraint(self, coeffs: dict, rel: str, rhs) -> None:
        for v in coeffs:
            if v not in self._index:
                raise ValueError(f"constraint references undeclared variable {v!r}")
        self.constraints.append(Constraint(dict(coeffs), rel, rhs))

    @property
    def num_rows(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class ExtremePointSolution:
    values: dict[str, object]
    basis: tuple[str, ...]
    objective_value: object
    # pivots taken as (phase 1 including driving out artificials, phase 2)
    pivots: tuple[int, int] = field(default=(0, 0), compare=False)

    def positives(self) -> dict[str, object]:
        return {v: x for v, x in self.values.items() if x > 0}


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """row with column c cleared against prow (prow[c] > 0), divided by its gcd."""
    piv, f = prow[c], row[c]
    if piv == 1:
        new = [a - f * b for a, b in zip(row, prow)]
    else:
        new = [a * piv - f * b for a, b in zip(row, prow)]
    g = math.gcd(*new)
    return [a // g for a in new] if g > 1 else new


class _Tableau:
    """Dense simplex tableau over Python ints, one positive scale per row.

    rows[i] is constraint row i with its rhs last, times a positive integer,
    so rows[i][basis[i]] is that integer.  cost is the reduced-cost row of
    the current basis, held the same way; only its signs are read.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.cost = [0] * (ncols + 1)

    def price(self, cost: list[int]) -> None:
        """Install cost (one int per column, then 0) as reduced costs of the basis."""
        for row, b in zip(self.rows, self.basis):
            if cost[b]:
                cost = _eliminate(cost, row, b)
        self.cost = cost

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        if row[c] < 0:  # only driving out an artificial meets a negative pivot
            self.rows[r] = row = [-a for a in row]
        for k, other in enumerate(self.rows):
            if k != r and other[c]:
                self.rows[k] = _eliminate(other, row, c)
        if self.cost[c]:
            self.cost = _eliminate(self.cost, row, c)
        self.basis[r] = c


def _run_simplex(tab: _Tableau) -> int:
    """Bland's-rule pivots until no reduced cost is negative; returns their count."""
    rows, basis, cols = tab.rows, tab.basis, range(tab.ncols)
    limit = 2000 + 200 * (len(rows) + tab.ncols)
    pivots = 0
    while True:
        if pivots >= limit:  # Bland's rule terminates; this is a bug trip-wire
            raise PivotLimitExceeded(f"simplex exceeded its guard of {limit} pivots")
        cost = tab.cost
        enter = next((c for c in cols if cost[c] < 0), -1)
        if enter < 0:
            return pivots
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_b, best_a = r, row[-1], a
        if leave < 0:
            raise Unbounded("objective unbounded below")
        tab.pivot(leave, enter)
        pivots += 1


def _int_row(coeffs: dict, index: dict[str, int], rhs, width: int) -> tuple[list[int], int]:
    """(row, scale): coeffs and rhs as ints over the lcm of their denominators."""
    scale = math.lcm(int(rhs.denominator), *(int(a.denominator) for a in coeffs.values()))
    row = [0] * width
    for v, a in coeffs.items():
        row[index[v]] = int(a.numerator) * (scale // int(a.denominator))
    row[-1] = int(rhs.numerator) * (scale // int(rhs.denominator))
    return row, scale


def solve_extreme_point(lp: LinearProgram) -> ExtremePointSolution:
    """Optimal basic feasible solution of lp, exact.

    Raises Infeasible when no point satisfies the constraints and Unbounded
    when the minimum does not exist.  For feasibility-sense programs (empty
    objective) any vertex of the feasible region is returned.
    """
    nvars = len(lp.variables)
    index = {v: j for j, v in enumerate(lp.variables)}
    nslack = sum(1 for c in lp.constraints if c.rel != EQ)
    art_start = nvars + nslack

    # Normalize every row to  a.x (+ slack) = b with b >= 0.  A slack whose
    # coefficient stays positive after the sign flip seeds the basis; every
    # other row gets a phase-1 artificial.
    seeded = [c.rel != EQ and (c.rel == LE) == (c.rhs >= 0) for c in lp.constraints]
    nart = seeded.count(False)
    total = art_start + nart
    rows: list[list[int]] = []
    basis: list[int] = []
    slack, art = nvars, art_start
    for c, slack_basic in zip(lp.constraints, seeded):
        row, scale = _int_row(c.coeffs, index, c.rhs, total + 1)
        if c.rel != EQ:
            row[slack] = scale if c.rel == LE else -scale
        if c.rhs < 0:
            row = [-a for a in row]
        if slack_basic:
            basis.append(slack)
        else:
            row[art] = scale
            basis.append(art)
            art += 1
        if c.rel != EQ:
            slack += 1
        rows.append(row)

    tab = _Tableau(rows, basis, total)
    phase1 = 0
    if nart:
        tab.price([0] * art_start + [1] * nart + [0])
        phase1 = _run_simplex(tab)
        if any(b >= art_start and row[-1] > 0 for row, b in zip(tab.rows, tab.basis)):
            raise Infeasible("phase-1 optimum positive")
        # Drive leftover zero-valued artificials out of the basis; a row with
        # no structural pivot candidate is redundant and can be dropped.
        drop = []
        for r in range(len(tab.rows)):
            if tab.basis[r] >= art_start:
                row = tab.rows[r]
                c = next((c for c in range(art_start) if row[c]), -1)
                if c < 0:
                    drop.append(r)
                else:
                    tab.pivot(r, c)
                    phase1 += 1
        for r in reversed(drop):
            del tab.rows[r]
            del tab.basis[r]
        # artificials are never basic again and never enter: cut their columns
        tab = _Tableau([row[:art_start] + row[-1:] for row in tab.rows], tab.basis, art_start)

    objective = {v: rat(a) for v, a in lp.objective.items()}
    tab.price(_int_row(objective, index, ZERO, tab.ncols + 1)[0])
    phase2 = _run_simplex(tab)

    values = {v: ZERO for v in lp.variables}
    for row, b in zip(tab.rows, tab.basis):
        if b < nvars:
            values[lp.variables[b]] = rat(row[-1], row[b])
    objective_value = sum((a * values[v] for v, a in objective.items()), ZERO)
    basis_names = tuple(
        lp.variables[b] if b < nvars else f"_col{b}" for b in sorted(tab.basis)
    )
    sol = ExtremePointSolution(values, basis_names, objective_value, (phase1, phase2))
    if len(sol.positives()) > lp.num_rows:
        raise InvariantViolation(
            f"extreme point lost basic sparsity: {len(sol.positives())} positive "
            f"values over {lp.num_rows} rows"
        )
    return sol


def lp_format(lp: LinearProgram) -> str:
    """Text rendering in LP-file style, for eyeballing and external cross-checks."""
    def term(v, a):
        a = rat(a)
        sign = "+" if a >= 0 else "-"
        mag = abs(a)
        return f"{sign} {rat_str(mag)} {v}"

    lines = ["Minimize"]
    obj = " ".join(term(v, a) for v, a in lp.objective.items()) or "+ 0 zero"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    for i, c in enumerate(lp.constraints):
        body = " ".join(term(v, a) for v, a in c.coeffs.items()) or "+ 0 zero"
        lines.append(f" r{i}: {body} {c.rel} {rat_str(c.rhs)}")
    lines.append("Bounds")
    for v in lp.variables:
        lines.append(f" 0 <= {v}")
    lines.append("End")
    return "\n".join(lines)
