"""Exact-arithmetic linear programming with extreme-point guarantees.

The rounding arguments of both approximation pipelines count *exactly*
fractional variables, so the solver is exact end to end and "fractional"
means value not in {0, 1} with no tolerance.  The two-phase simplex below
uses Bland's rule (termination without cycling) and returns basic feasible
solutions: the number of variables with positive value never exceeds the
number of constraint rows, which is the sparsity the rounding counting
arguments rely on.  Every solve checks that bound and raises
InvariantViolation if it fails, so ``python -O`` cannot strip the check.

The tableau holds Python ints.  Each row is its rational row times one
positive integer of its own: the lcm of the row's denominators when it is
read from the sparse constraint, and afterwards whatever the
integer-preserving elimination of Edmonds (1967) and Bareiss (1968) leaves.
A row is stored sparse, as a dict from column to its nonzero entries, with
the rhs (when nonzero) under the key RHS = -1; an entry that becomes 0 is
deleted, so no row holds a 0.  A pivot on (r, c) replaces every other row
with a nonzero in column c by ``row*piv - row[c]*pivot_row`` divided by the
gcd of its entries, touching only the pivot row's nonzeros; the
reduced-cost row is carried the same way.  These are the integers a dense
row would hold (the gcd of the nonzeros is the gcd of the row).  A positive
scale changes no sign and no ratio rhs/a within a row, so Bland's entering
rule (first negative reduced cost), the ratio test (integer
cross-multiplication, ties to the lower basis index) and the phase-1
verdict decide exactly as a rational tableau would: the pivot sequence,
bases and vertices are the same.  Rationals appear only where the
constraints are read and the basic values are returned, through integer
numerators and denominators.

Equality constraints are handled natively via phase-1 artificials rather
than split into inequality pairs, keeping row counts aligned with the
counting arguments.

Phase 1 (the integer rows, the artificials, driving them out and cutting
their columns) reads no objective.  Every solution carries its feasible
phase-1 tableau as ``start``; a caller that prices another objective over
the same rows passes it back, and phase 2 begins from the basis a fresh
solve would reach, so the pivots, vertex and objective value are the same.
Without a start, a solve runs phase 1 on the rows the program holds now.

A start can also be built at a known vertex instead of by phase 1, as a
crash basis (Bixby, ORSA J. Computing 1992): vertex_start.  It sets up the
rows, slacks and artificials as phase 1 does.  Then each column positive at
the point, the variables in column order and then the slacks in row order,
pivots into the first row whose basic column is 0 at the point, an
artificial's row first; a seeded slack is basic already.  The artificials
left basic are at 0 and are driven out, and redundant rows dropped, as in
phase 1.  Every positive coordinate is then basic and every other one 0, so
the basic solution is the point, after at most one pivot per row.  It is
None when the point violates a row, when a column finds no row (its
positive columns are dependent, so the point is no vertex), or when a basic
value comes out negative; the caller then runs phase 1.  Phase 2 from this
basis reaches the minimum value, but may stop at another optimal vertex
than a fresh solve, whose pivots begin elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

from .errors import Infeasible, InvariantViolation, PivotLimitExceeded, Unbounded
from .rationals import ZERO, rat

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
RHS = -1  # the key of the rhs in a tableau row; columns are numbered from 0


@dataclass
class Constraint:
    coeffs: dict[Hashable, object]
    rel: str
    rhs: object

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        self.coeffs = {v: a for v, c in self.coeffs.items() if (a := rat(c)) != 0}
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
    """min c.x  s.t. rows, x >= 0.  Empty objective = pure feasibility.

    A variable is any hashable key, such as the object its column stands
    for; the solver reads only the order in which variables were added.
    """

    variables: list[Hashable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[Hashable, object] = field(default_factory=dict)

    def __post_init__(self):
        self._index = {v: j for j, v in enumerate(self.variables)}

    def add_variable(self, name: Hashable, objective=0) -> Hashable:
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
    values: dict[Hashable, object]
    basis: tuple
    objective_value: object
    # pivots this call took, as (phase 1 including driving out artificials,
    # phase 2); phase 1 is 0 when the call was handed its start
    pivots: tuple[int, int] = field(default=(0, 0), compare=False)
    # the phase-1 tableau phase 2 began from, to hand to a solve over the same rows
    start: _Phase1 | None = field(default=None, compare=False, repr=False)

    def positives(self) -> dict[Hashable, object]:
        return {v: x for v, x in self.values.items() if x > 0}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """row with column c cleared against prow (prow[c] > 0), divided by its gcd."""
    piv, f = prow[c], row[c]
    new = {k: a * piv for k, a in row.items()} if piv != 1 else dict(row)
    get = new.get
    for k, b in prow.items():
        a = get(k, 0) - f * b
        if a:
            new[k] = a
        else:  # f and b are nonzero, so only a key already in new reaches 0
            del new[k]
    g = math.gcd(*new.values())
    return {k: a // g for k, a in new.items()} if g > 1 else new


class _Tableau:
    """Sparse simplex tableau over Python ints, one positive scale per row.

    rows[i] maps the columns where constraint row i is nonzero, and RHS to
    its rhs when that is nonzero, to the row's entries times a positive
    integer, so rows[i][basis[i]] is that integer.  No row stores a 0.  cost
    is the reduced-cost row of the current basis, held the same way; only its
    signs are read.
    """

    def __init__(self, rows: list[dict[int, int]], basis: list[int], ncols: int):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.cost: dict[int, int] = {}

    def price(self, cost: dict[int, int]) -> None:
        """Install cost (the nonzero cost per column) as reduced costs of the basis."""
        for row, b in zip(self.rows, self.basis):
            if b in cost:
                cost = _eliminate(cost, row, b)
        self.cost = cost

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        if row[c] < 0:  # only driving out an artificial meets a negative pivot
            self.rows[r] = row = {k: -a for k, a in row.items()}
        for k, other in enumerate(self.rows):
            if k != r and c in other:
                self.rows[k] = _eliminate(other, row, c)
        if c in self.cost:
            self.cost = _eliminate(self.cost, row, c)
        self.basis[r] = c


class _Phase1(NamedTuple):
    """Tableau rows and basis after phase 1, artificial columns cut."""

    rows: list[dict[int, int]]
    basis: list[int]
    ncols: int
    pivots: int  # phase-1 pivots, drive-out included


def _run_simplex(tab: _Tableau) -> int:
    """Bland's-rule pivots until no reduced cost is negative; returns their count."""
    rows, basis = tab.rows, tab.basis
    limit = 2000 + 200 * (len(rows) + tab.ncols)
    pivots = 0
    while True:
        if pivots >= limit:  # Bland's rule terminates; this is a bug trip-wire
            raise PivotLimitExceeded(f"simplex exceeded its guard of {limit} pivots")
        enter = min((c for c, a in tab.cost.items() if a < 0 and c != RHS), default=-1)
        if enter < 0:
            return pivots
        leave = -1
        for r, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                b = row.get(RHS, 0)
                if leave < 0:
                    leave, best_b, best_a = r, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_b, best_a = r, b, a
        if leave < 0:
            raise Unbounded("objective unbounded below")
        tab.pivot(leave, enter)
        pivots += 1


def _int_row(coeffs: dict, index: dict[Hashable, int], rhs) -> tuple[dict[int, int], int]:
    """(row, scale): the nonzero coeffs and rhs as ints over the lcm of their denominators."""
    scale = math.lcm(rhs.denominator, *(a.denominator for a in coeffs.values()))
    row = {
        index[v]: a.numerator * (scale // a.denominator)
        for v, a in coeffs.items() if a
    }
    if rhs:
        row[RHS] = rhs.numerator * (scale // rhs.denominator)
    return row, scale


def _phase_one_rows(lp: LinearProgram) -> tuple[list[dict[int, int]], list[int], int, int]:
    """(rows, basis, art_start, ncols): lp's rows as  a.x (+ slack)
    (+ artificial) = b  with b >= 0, over ncols columns numbered variables,
    slacks in row order, then artificials from art_start; each row's slack
    or artificial is basic."""
    nvars = len(lp.variables)
    art_start = nvars + sum(1 for c in lp.constraints if c.rel != EQ)
    # A slack whose coefficient stays positive after the sign flip seeds the
    # basis; every other row gets a phase-1 artificial.
    rows: list[dict[int, int]] = []
    basis: list[int] = []
    slack, art = nvars, art_start
    for c in lp.constraints:
        row, scale = _int_row(c.coeffs, lp._index, c.rhs)
        if c.rel != EQ:
            row[slack] = scale if c.rel == LE else -scale
        if c.rhs < 0:
            row = {k: -a for k, a in row.items()}
        if c.rel != EQ and row[slack] > 0:
            basis.append(slack)
        else:
            row[art] = scale
            basis.append(art)
            art += 1
        if c.rel != EQ:
            slack += 1
        rows.append(row)
    return rows, basis, art_start, art


def _drive_out(tab: _Tableau, art_start: int, pivots: int) -> _Phase1:
    """The _Phase1 of tab, a feasible basis whose basic artificials are all
    at 0, after driving them out; pivots counts those taken before."""
    # A row whose artificial has no structural pivot candidate is redundant
    # and is dropped.  No cost is read again, so the pivots carry none.
    tab.price({})
    drop = []
    for r in range(len(tab.rows)):
        if tab.basis[r] >= art_start:
            row = tab.rows[r]
            c = min((c for c in row if 0 <= c < art_start), default=-1)
            if c < 0:
                drop.append(r)
            else:
                tab.pivot(r, c)
                pivots += 1
    for r in reversed(drop):
        del tab.rows[r]
        del tab.basis[r]
    # artificials are never basic again and never enter: cut their columns
    rows = [{k: a for k, a in row.items() if k < art_start} for row in tab.rows]
    return _Phase1(rows, tab.basis, art_start, pivots)


def _phase_one(lp: LinearProgram) -> _Phase1:
    """A feasible basis of lp's constraints, artificial columns cut.

    Reads no objective.  Raises Infeasible when no point satisfies the rows.
    """
    rows, basis, art_start, total = _phase_one_rows(lp)
    if total == art_start:
        return _Phase1(rows, basis, total, 0)
    tab = _Tableau(rows, basis, total)
    tab.price(dict.fromkeys(range(art_start, total), 1))
    pivots = _run_simplex(tab)
    if any(b >= art_start and row.get(RHS, 0) > 0 for row, b in zip(tab.rows, tab.basis)):
        raise Infeasible("phase-1 optimum positive")
    return _drive_out(tab, art_start, pivots)


def vertex_start(lp: LinearProgram, point: dict) -> _Phase1 | None:
    """A feasible phase-1 tableau of lp whose basic solution is point, built
    without the simplex (see the module docstring); None when point
    violates a row or is no vertex of lp's region.

    point maps variables to exact values; an absent variable counts as 0.
    """
    rows, basis, art_start, ncols = _phase_one_rows(lp)
    # the point over the lcm of its denominators, keyed by column in column order
    x, scale = _int_row({v: rat(point.get(v, ZERO)) for v in lp.variables}, lp._index, ZERO)
    if any(a < 0 for a in x.values()):
        return None
    slack_positive = []
    slack = len(lp.variables)
    for row, c in zip(rows, lp.constraints):
        # the slack's entry times its value, times scale
        residual = row.get(RHS, 0) * scale - sum(a * x.get(k, 0) for k, a in row.items() if k >= 0)
        if c.rel == EQ:
            if residual:
                return None
            continue
        if residual * row[slack] < 0:
            return None  # the slack would be negative
        if residual:
            slack_positive.append(slack)
        slack += 1
    # Pivot each positive column in, structural columns first, into the first
    # row whose basic column is 0 at point, preferring an artificial's row.
    # A seeded slack is basic in its own row already.
    seeded = set(basis).intersection(slack_positive)
    at_zero = [b not in seeded for b in basis]
    tab = _Tableau(rows, basis, ncols)
    pivots = 0
    for c in [*x, *(s for s in slack_positive if s not in seeded)]:
        candidates = [r for r, row in enumerate(tab.rows) if at_zero[r] and c in row]
        if not candidates:  # c depends on the positive columns before it
            return None
        leave = next((r for r in candidates if tab.basis[r] >= art_start), candidates[0])
        tab.pivot(leave, c)
        at_zero[leave] = False
        pivots += 1
    start = _drive_out(tab, art_start, pivots)
    if any(row.get(RHS, 0) < 0 for row in start.rows):
        return None
    return start


def solve_extreme_point(lp: LinearProgram, start: _Phase1 | None = None) -> ExtremePointSolution:
    """Optimal basic feasible solution of lp, exact.

    Raises Infeasible when no point satisfies the constraints and Unbounded
    when the minimum does not exist.  For feasibility-sense programs (empty
    objective) any vertex of the feasible region is returned.  start is the
    ``start`` of an earlier solution of a program with these same variables
    and rows, or what vertex_start builds for them: phase 2 then begins from
    it and the call reports no phase-1 pivots.  Without it, phase 1 runs on
    lp's rows.
    """
    phase1 = 0
    if start is None:
        start = _phase_one(lp)
        phase1 = start.pivots
    # pivots replace rows and never write into one, so start's rows are shared
    tab = _Tableau(list(start.rows), list(start.basis), start.ncols)

    nvars = len(lp.variables)
    objective = {v: rat(a) for v, a in lp.objective.items()}
    tab.price(_int_row(objective, lp._index, ZERO)[0])
    phase2 = _run_simplex(tab)

    values = {v: ZERO for v in lp.variables}
    for row, b in zip(tab.rows, tab.basis):
        if b < nvars:
            values[lp.variables[b]] = rat(row.get(RHS, 0), row[b])
    objective_value = sum((a * values[v] for v, a in objective.items()), ZERO)
    basis_names = tuple(
        lp.variables[b] if b < nvars else f"_col{b}" for b in sorted(tab.basis)
    )
    sol = ExtremePointSolution(values, basis_names, objective_value, (phase1, phase2), start)
    if len(sol.positives()) > lp.num_rows:
        raise InvariantViolation(
            f"extreme point lost basic sparsity: {len(sol.positives())} positive "
            f"values over {lp.num_rows} rows"
        )
    return sol
