"""Exact simplex tests, including a differential test against the old tableau.

The reference functions below are the dense Fraction tableau that
solve_extreme_point ran before its rows became scaled Python ints.  The
integer tableau must take the same pivots and return the same basis,
values and objective, or raise the same exception.  Further down,
DenseTableau is the integer tableau with dense list rows that ran before
the rows became sparse dicts; after every pivot the sparse rows must hold
its integers with the zeros dropped.
"""

import ast
import copy
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from typesched import convex, lp as lp_module, lpnorm, rounding
from typesched.audits import random_lp, vertex_enumeration_optimum
from typesched.errors import Infeasible, InvariantViolation, PivotLimitExceeded, Unbounded
from typesched.lp import EQ, GE, LE, LinearProgram, solve_extreme_point
from typesched.lpnorm import lpnorm_ptas
from typesched.makespan import Guided, makespan_ptas
from typesched.model import GeneratorSpec, generate_instance, greedy_schedule
from typesched.oracle import exact_solve
from typesched.rationals import rat

SRC = Path(__file__).resolve().parent.parent / "src"
ZERO, ONE = Fraction(0), Fraction(1)


class RefTableau:
    """Dense simplex tableau over exact rationals."""

    def __init__(self, rows, rhs, ncols):
        self.rows = rows            # list of lists, len ncols each
        self.rhs = rhs              # list
        self.ncols = ncols
        self.basis = [-1] * len(rows)

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        piv = row[c]
        if piv != ONE:
            inv = ONE / piv
            self.rows[r] = row = [a * inv for a in row]
            self.rhs[r] = self.rhs[r] * inv
        for k, other in enumerate(self.rows):
            if k == r:
                continue
            factor = other[c]
            if factor == 0:
                continue
            self.rows[k] = [a - factor * b for a, b in zip(other, row)]
            self.rhs[k] = self.rhs[k] - factor * self.rhs[r]
        self.basis[r] = c


def ref_reduced_costs(tab, cost):
    red = list(cost)
    offset = ZERO
    for r, b in enumerate(tab.basis):
        cb = red[b]
        if cb == 0:
            continue
        row = tab.rows[r]
        red = [a - cb * e for a, e in zip(red, row)]
        offset = offset + cb * tab.rhs[r]
    return red, offset


def ref_run_simplex(tab, cost, banned):
    red, offset = ref_reduced_costs(tab, cost)
    guard = 0
    limit = 2000 + 200 * (len(tab.rows) + tab.ncols)
    while True:
        guard += 1
        if guard > limit:
            raise RuntimeError("simplex exceeded its pivot guard")
        enter = -1
        for c in range(tab.ncols):
            if c in banned:
                continue
            if red[c] < 0:
                enter = c
                break
        if enter < 0:
            return offset
        leave = -1
        best = None
        for r, row in enumerate(tab.rows):
            a = row[enter]
            if a > 0:
                ratio = tab.rhs[r] / a
                if best is None or ratio < best or (
                    ratio == best and tab.basis[r] < tab.basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise Unbounded("objective unbounded below")
        piv_cost = red[enter]
        tab.pivot(leave, enter)
        row = tab.rows[leave]
        red = [a - piv_cost * b for a, b in zip(red, row)]
        red[enter] = ZERO
        offset = offset + piv_cost * tab.rhs[leave]


def ref_solve_extreme_point(lp):
    """(basis names, values, objective value) of the old Fraction tableau."""
    nvars = len(lp.variables)
    index = {v: j for j, v in enumerate(lp.variables)}
    nslack = sum(1 for c in lp.constraints if c.rel != EQ)
    rows, rhs, seed_col = [], [], []
    col = nvars
    for c in lp.constraints:
        coeffs = [ZERO] * (nvars + nslack)
        for v, a in c.coeffs.items():
            coeffs[index[v]] = Fraction(a)
        b = Fraction(c.rhs)
        slack = None
        if c.rel != EQ:
            coeffs[col] = ONE if c.rel == LE else -ONE
            slack = col
            col += 1
        if b < 0:
            coeffs = [-a for a in coeffs]
            b = -b
        rows.append(coeffs)
        rhs.append(b)
        seed_col.append(slack if slack is not None and coeffs[slack] == ONE else None)

    nart = sum(1 for s in seed_col if s is None)
    total = nvars + nslack + nart
    art_cols = set()
    ai = nvars + nslack
    tab_rows, basis_seed = [], []
    for r in range(len(rows)):
        row = rows[r] + [ZERO] * nart
        if seed_col[r] is None:
            row[ai] = ONE
            basis_seed.append(ai)
            art_cols.add(ai)
            ai += 1
        else:
            basis_seed.append(seed_col[r])
        tab_rows.append(row)

    tab = RefTableau(tab_rows, list(rhs), total)
    tab.basis = basis_seed
    if art_cols:
        phase1 = [ZERO] * total
        for c in art_cols:
            phase1[c] = ONE
        if ref_run_simplex(tab, phase1, banned=set()) > 0:
            raise Infeasible("phase-1 optimum positive")
        drop = []
        for r in range(len(tab.rows)):
            if tab.basis[r] in art_cols:
                for c in range(total):
                    if c not in art_cols and tab.rows[r][c] != 0:
                        tab.pivot(r, c)
                        break
                else:
                    drop.append(r)
        for r in reversed(drop):
            del tab.rows[r]
            del tab.rhs[r]
            del tab.basis[r]

    cost = [ZERO] * total
    for v, a in lp.objective.items():
        cost[index[v]] = Fraction(a)
    ref_run_simplex(tab, cost, banned=art_cols)

    values = {v: ZERO for v in lp.variables}
    for r, b in enumerate(tab.basis):
        if b < nvars:
            values[lp.variables[b]] = tab.rhs[r]
    objective_value = sum((Fraction(a) * values[v] for v, a in lp.objective.items()), ZERO)
    basis_names = tuple(
        lp.variables[b] if b < nvars else f"_col{b}" for b in sorted(tab.basis)
    )
    return basis_names, values, objective_value


def test_feasibility_vertex_of_simplex():
    lp = LinearProgram()
    lp.add_variable("x1")
    lp.add_variable("x2")
    lp.add_constraint({"x1": 1, "x2": 1}, EQ, 1)
    sol = solve_extreme_point(lp)
    # a vertex of the segment has exactly one coordinate equal to 1
    assert sorted(sol.values.values()) == [0, 1]
    assert len(sol.positives()) <= 1


def test_infeasible_negative_rhs():
    lp = LinearProgram()
    lp.add_variable("x1")
    lp.add_constraint({"x1": 1}, EQ, -1)
    with pytest.raises(Infeasible):
        solve_extreme_point(lp)


def test_empty_row_infeasible():
    # assignment row of a job with no routes
    lp = LinearProgram()
    lp.add_variable("x1")
    lp.add_constraint({}, EQ, 1)
    with pytest.raises(Infeasible):
        solve_extreme_point(lp)


def test_unbounded_detection():
    lp = LinearProgram()
    lp.add_variable("x1", objective=-1)
    lp.add_constraint({"x1": -1}, LE, 0)
    with pytest.raises(Unbounded):
        solve_extreme_point(lp)


def test_textbook_optimum_two_thirds():
    # min x1+x2 st x1+2x2 >= 2, 2x1+x2 >= 2; optimum 4/3 at (2/3, 2/3).
    # Expected value frozen from the vertex-enumeration oracle below.
    lp = LinearProgram()
    lp.add_variable("x1", objective=1)
    lp.add_variable("x2", objective=1)
    lp.add_constraint({"x1": 1, "x2": 2}, GE, 2)
    lp.add_constraint({"x1": 2, "x2": 1}, GE, 2)
    oracle_opt, oracle_arg = vertex_enumeration_optimum(lp)
    assert oracle_opt == rat(4, 3)
    assert oracle_arg == {"x1": rat(2, 3), "x2": rat(2, 3)}
    sol = solve_extreme_point(lp)
    assert sol.objective_value == oracle_opt
    assert sol.values == oracle_arg


def test_equality_mix_exact():
    lp = LinearProgram()
    lp.add_variable("a", objective=3)
    lp.add_variable("b", objective=1)
    lp.add_variable("c", objective=0)
    lp.add_constraint({"a": 1, "b": 1, "c": 1}, EQ, rat(7, 2))
    lp.add_constraint({"a": 2, "b": -1}, GE, 1)
    lp.add_constraint({"b": 1, "c": 2}, LE, 4)
    expected, _ = vertex_enumeration_optimum(lp)
    sol = solve_extreme_point(lp)
    assert sol.objective_value == expected


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(20240901)
    solved = 0
    infeasible = 0
    for _ in range(100):
        lp = random_lp(rng, max_vars=5, max_rows=4)
        oracle_opt, _ = vertex_enumeration_optimum(lp)
        if oracle_opt is None:
            infeasible += 1
            with pytest.raises(Infeasible):
                solve_extreme_point(lp)
            continue
        sol = solve_extreme_point(lp)
        assert sol.objective_value == oracle_opt
        assert len(sol.positives()) <= lp.num_rows
        solved += 1
    assert solved > 20 and infeasible > 5  # generator exercises both outcomes


def test_sparsity_on_degenerate_program():
    lp = LinearProgram()
    for j in range(6):
        lp.add_variable(f"x{j}")
    lp.add_constraint({f"x{j}": 1 for j in range(6)}, EQ, 1)
    lp.add_constraint({"x0": 1, "x1": 1}, LE, 1)
    sol = solve_extreme_point(lp)
    assert len(sol.positives()) <= 2


def test_redundant_rows_are_tolerated():
    lp = LinearProgram()
    lp.add_variable("x", objective=1)
    lp.add_variable("y", objective=1)
    lp.add_constraint({"x": 1, "y": 1}, EQ, 2)
    lp.add_constraint({"x": 2, "y": 2}, EQ, 4)  # same hyperplane
    sol = solve_extreme_point(lp)
    assert sol.objective_value == 2


# ---------------------------------------------------------------------------
# differential test: integer tableau against the Fraction reference

DENOMS = (1, 2, 3, 4, 5, 7, 12)


def diff_lp(rng):
    """Random LP with mixed denominators, signed rhs, all relations, and
    sometimes a redundant equality (a multiple of an equality already there)."""
    nvars = rng.randint(2, 6)
    lp = LinearProgram()
    for j in range(nvars):
        kind = rng.random()
        if kind < 0.4:
            objective = rat(rng.uniform(-1, 1))  # float gradients, as convex's LMO
        elif kind < 0.8:
            objective = rng.randint(-2, 3)
        else:
            objective = 0
        lp.add_variable(f"x{j}", objective=objective)
    equalities = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {
            f"x{j}": rat(rng.randint(-3, 4), rng.choice(DENOMS))
            for j in range(nvars) if rng.random() < 0.7
        }
        rel = rng.choice((LE, EQ, GE))
        # a zero rhs makes degenerate vertices and ratio ties likely
        rhs = rat(rng.randint(-3, 6), rng.choice(DENOMS)) if rng.random() < 0.7 else 0
        lp.add_constraint(coeffs, rel, rhs)
        if rel == EQ:
            equalities.append((coeffs, rhs))
    if equalities and rng.random() < 0.3:
        coeffs, rhs = rng.choice(equalities)
        k = rat(rng.choice((-3, -1, 1, 2)), rng.choice(DENOMS))
        lp.add_constraint({v: k * a for v, a in coeffs.items()}, EQ, k * rhs)
    return lp


@pytest.fixture
def pivot_logs(monkeypatch):
    """(new, reference) pivot logs of (row, col), plus tallies of the new
    side's negative pivots and of ties at a positive ratio."""
    logs = {"new": [], "ref": [], "negative": 0, "ties": 0}
    new_pivot, ref_pivot = lp_module._Tableau.pivot, RefTableau.pivot

    def record_new(tab, r, c):
        rows, rhs = tab.rows, lp_module.RHS
        a, b = rows[r][c], rows[r].get(rhs, 0)
        if a < 0:
            logs["negative"] += 1
        elif b > 0 and any(  # drive-out pivots have rhs 0
            k != r and row.get(c, 0) > 0 and row.get(rhs, 0) * a == b * row[c]
            for k, row in enumerate(rows)
        ):
            logs["ties"] += 1
        logs["new"].append((r, c))
        new_pivot(tab, r, c)

    def record_ref(tab, r, c):
        logs["ref"].append((r, c))
        ref_pivot(tab, r, c)

    monkeypatch.setattr(lp_module._Tableau, "pivot", record_new)
    monkeypatch.setattr(RefTableau, "pivot", record_ref)
    return logs


def assert_same_as_reference(lp, logs):
    """Both tableaux on lp; returns the new solution or the exception type."""
    logs["new"].clear()
    logs["ref"].clear()
    try:
        expected = ref_solve_extreme_point(lp)
    except (Infeasible, Unbounded) as exc:
        with pytest.raises(type(exc)):
            solve_extreme_point(lp)
        assert logs["new"] == logs["ref"]
        return type(exc)
    sol = solve_extreme_point(lp)
    assert logs["new"] == logs["ref"]
    assert (sol.basis, sol.values, sol.objective_value) == expected
    assert sum(sol.pivots) == len(logs["new"])
    return sol


def test_integer_tableau_pivots_like_the_fraction_tableau(pivot_logs):
    rng = random.Random(20261018)
    outcomes = {"optimal": 0, Infeasible: 0, Unbounded: 0}
    dropped = 0
    for i in range(400):
        lp = diff_lp(rng) if i % 4 else random_lp(rng, max_vars=5, max_rows=4)
        outcome = assert_same_as_reference(lp, pivot_logs)
        if isinstance(outcome, type):
            outcomes[outcome] += 1
            continue
        outcomes["optimal"] += 1
        dropped += len(outcome.basis) < lp.num_rows
    # the stream reaches every outcome, the row-drop path, negative
    # drive-out pivots and degenerate ratio ties
    assert min(outcomes.values()) >= 10, outcomes
    assert dropped >= 5
    assert pivot_logs["negative"] >= 5 and pivot_logs["ties"] >= 5, pivot_logs


def test_pipeline_lps_pivot_like_the_fraction_tableau(pivot_logs, monkeypatch):
    from test_pinned_outputs import guided_instance

    # the LPs the pipelines really solve: slot LPs of the rounding engine and
    # Frank-Wolfe LMO calls with rat(float) objectives
    captured = []

    def capture(lp, start=None):
        captured.append(copy.deepcopy(lp))  # the LMO rewrites lp.objective in place
        return solve_extreme_point(lp, start)

    monkeypatch.setattr(convex, "solve_extreme_point", capture)
    monkeypatch.setattr(rounding, "solve_extreme_point", capture)
    for seed in range(3, 13):
        inst = generate_instance(GeneratorSpec(7, 1, (2, 2), 1, 10), seed)
        lpnorm_ptas(inst, 2, rat(1, 2), Guided(exact_solve(inst, "lp_norm", p=2).witness))
        inst = generate_instance(GeneratorSpec(6, 2, (2, 2), 1, 10), seed)
        makespan_ptas(inst, rat(1, 2), Guided(exact_solve(inst).witness))
    small = len(captured)
    # the lpnorm-guided shape (n=20, machines (3,3), greedy certificate),
    # whose LPs are the size the sparse rows were made for
    inst = guided_instance(56)
    lpnorm_ptas(inst, 2, rat(1, 2), Guided(greedy_schedule(inst, 2)))
    assert any(
        any(a.denominator > 2**20 for a in lp.objective.values()) for lp in captured
    )
    assert small >= 20 and len(captured) > small
    assert max(lp.num_rows for lp in captured[small:]) >= 40
    for lp in captured:
        assert_same_as_reference(lp, pivot_logs)


# ---------------------------------------------------------------------------
# sparse integer rows against the dense integer rows they replaced


def dense_eliminate(row, prow, c):
    """row with column c cleared against prow (prow[c] > 0), divided by its gcd."""
    piv, f = prow[c], row[c]
    if piv == 1:
        new = [a - f * b for a, b in zip(row, prow)]
    else:
        new = [a * piv - f * b for a, b in zip(row, prow)]
    g = math.gcd(*new)
    return [a // g for a in new] if g > 1 else new


class DenseTableau:
    """Integer tableau with every row a list of ncols entries, then the rhs."""

    def __init__(self, rows, basis, ncols):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.cost = [0] * (ncols + 1)

    def price(self, cost):
        for row, b in zip(self.rows, self.basis):
            if cost[b]:
                cost = dense_eliminate(cost, row, b)
        self.cost = cost

    def pivot(self, r, c):
        row = self.rows[r]
        if row[c] < 0:
            self.rows[r] = row = [-a for a in row]
        for k, other in enumerate(self.rows):
            if k != r and other[c]:
                self.rows[k] = dense_eliminate(other, row, c)
        if self.cost[c]:
            self.cost = dense_eliminate(self.cost, row, c)
        self.basis[r] = c


def assert_sparse_row(row, ncols):
    """row stores no 0 and no key but a column below ncols or the rhs key."""
    assert 0 not in row.values(), row
    assert all(0 <= k < ncols or k == lp_module.RHS for k in row), (row, ncols)


def densify(row, ncols):
    dense = [0] * (ncols + 1)
    for k, a in row.items():
        dense[ncols if k == lp_module.RHS else k] = a
    return dense


def sparsify(dense, ncols):
    return {lp_module.RHS if k == ncols else k: a for k, a in enumerate(dense) if a}


@pytest.fixture
def dense_shadow(monkeypatch):
    """Runs a DenseTableau beside every _Tableau from its pricing on, and
    checks after each price and pivot that the sparse rows and cost are the
    dense ones with their zeros dropped; returns the tally of pivots checked."""
    real_price, real_pivot = lp_module._Tableau.price, lp_module._Tableau.pivot
    tally = {"pivots": 0, "negative": 0}

    def assert_same(tab):
        ncols, dense = tab.ncols, tab.dense
        assert tab.basis == dense.basis and len(tab.rows) == len(dense.rows)
        for row, drow in zip([*tab.rows, tab.cost], [*dense.rows, dense.cost]):
            assert_sparse_row(row, ncols)
            assert row == sparsify(drow, ncols)

    def price(tab, cost):
        for row in [*tab.rows, cost]:
            assert_sparse_row(row, tab.ncols)
        rows = [densify(row, tab.ncols) for row in tab.rows]
        tab.dense = DenseTableau(rows, list(tab.basis), tab.ncols)
        tab.dense.price(densify(cost, tab.ncols))
        real_price(tab, cost)
        assert_same(tab)

    def pivot(tab, r, c):
        tally["negative"] += tab.rows[r][c] < 0
        tab.dense.pivot(r, c)
        real_pivot(tab, r, c)
        assert_same(tab)
        tally["pivots"] += 1

    monkeypatch.setattr(lp_module._Tableau, "price", price)
    monkeypatch.setattr(lp_module._Tableau, "pivot", pivot)
    return tally


def test_sparse_rows_are_the_dense_integer_rows(dense_shadow):
    rng = random.Random(20261021)
    solved = 0
    for i in range(300):
        lp = diff_lp(rng) if i % 4 else random_lp(rng, max_vars=5, max_rows=4)
        # the second objective prices the first solve's phase-1 rows
        start = None
        for objective in (lp.objective, random_objective(rng, lp)):
            lp.objective = objective
            try:
                start = solve_extreme_point(lp, start).start
            except Infeasible:
                break
            except Unbounded:
                continue
            solved += 1
    assert solved >= 150 and dense_shadow["negative"] >= 5, (solved, dense_shadow)
    assert dense_shadow["pivots"] >= 500, dense_shadow


# ---------------------------------------------------------------------------
# phase 1 once per constraint set, handed on as a solution's start


def random_objective(rng, lp):
    """Float-derived (as convex's LMO) or integer coefficients on most variables."""
    use_floats = rng.random() < 0.5
    return {
        v: rat(rng.uniform(-1, 1)) if use_floats else rng.randint(-2, 3)
        for v in lp.variables if rng.random() < 0.8
    }


def fresh_outcome(lp):
    """Solution of a deep copy of lp, solved from scratch, or the exception type."""
    try:
        return solve_extreme_point(copy.deepcopy(lp))
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def assert_solves_like(lp, expected, previous):
    """Solve lp from the start of previous (an earlier solution over its rows,
    or none) and check it against expected (a fresh_outcome); returns the outcome."""
    start = previous.start if previous else None
    if isinstance(expected, type):
        with pytest.raises(expected):
            solve_extreme_point(lp, start)
        return expected
    sol = solve_extreme_point(lp, start)
    assert (sol.basis, sol.values, sol.objective_value) == (
        expected.basis, expected.values, expected.objective_value
    )
    assert sol.pivots == ((0, expected.pivots[1]) if previous else expected.pivots)
    return sol


def test_reused_phase_one_solves_like_a_fresh_copy():
    rng = random.Random(20261019)
    outcomes = {"optimal": 0, Infeasible: 0, Unbounded: 0}
    reused = 0
    for i in range(200):
        lp = diff_lp(rng) if i % 4 else random_lp(rng, max_vars=5, max_rows=4)
        previous = None  # the last solution of lp, whose start the next solve reuses
        phase1 = None  # phase-1 pivots of a fresh copy at the first optimum
        for _ in range(rng.randint(3, 5)):
            lp.objective = random_objective(rng, lp)
            expected = fresh_outcome(lp)
            outcome = assert_solves_like(lp, expected, previous)
            outcomes[outcome if isinstance(outcome, type) else "optimal"] += 1
            if isinstance(outcome, type):
                if outcome is Unbounded and previous is None:
                    # the rows are feasible: their phase 1 is a feasibility solve's start
                    previous = solve_extreme_point(LinearProgram(lp.variables, lp.constraints))
                continue
            # every fresh solve runs the same phase 1
            phase1 = expected.pivots[0] if phase1 is None else phase1
            assert expected.pivots[0] == phase1
            reused += previous is not None
            previous = outcome
    assert min(outcomes.values()) >= 20, outcomes
    assert reused >= 150, reused


def positives(outcome):
    return outcome if isinstance(outcome, type) else outcome.positives()


def test_changing_the_rows_drops_the_phase_one_memo():
    rng = random.Random(20261020)
    changed = {"add_constraint": 0, "add_variable": 0, "assign": 0}
    for i in range(300):
        lp = diff_lp(rng)
        try:
            before = solve_extreme_point(lp)
        except Infeasible:
            continue
        except Unbounded:
            before = Unbounded
        how = tuple(changed)[i % 3]
        coeffs = {v: rat(rng.randint(-3, 4), rng.choice(DENOMS)) for v in lp.variables}
        rel, rhs = rng.choice((LE, EQ, GE)), rng.randint(-2, 4)
        if how == "add_constraint":
            lp.add_constraint(coeffs, rel, rhs)
        elif how == "add_variable":  # a new column in no row: unbounded iff priced below 0
            lp.add_variable("y", objective=rng.randint(-1, 1))
        else:
            lp.constraints = [*lp.constraints, lp_module.Constraint(coeffs, rel, rhs)]
        expected = fresh_outcome(lp)
        outcome = assert_solves_like(lp, expected, False)
        changed[how] += positives(outcome) != positives(before)
    assert min(changed.values()) >= 5, changed


def test_rows_added_through_a_shallow_copy_drop_the_phase_one_memo():
    # copy.copy shares the constraint and variable lists, so the copy's
    # add_constraint and add_variable change lp's rows behind its memo
    lp = _lp(["x"], [({"x": 1}, LE, 5)], {"x": -1})
    assert solve_extreme_point(lp).values == {"x": 5}
    shallow = copy.copy(lp)
    shallow.add_constraint({"x": 1}, LE, 2)
    assert lp.num_rows == 2
    sol = solve_extreme_point(lp)
    assert sol.values == {"x": 2} and sol.pivots == (0, 1)
    assert all(row.holds(sol.values) for row in lp.constraints)
    shallow = copy.copy(lp)
    shallow.add_variable("y")
    lp.objective = {"y": -1}  # y is in no row
    with pytest.raises(Unbounded):
        solve_extreme_point(lp)


def test_a_plain_solve_reads_rows_replaced_or_edited_in_place():
    lp = _lp(["x"], [({"x": 1}, LE, 5)], {"x": -1})
    assert solve_extreme_point(lp).values == {"x": 5}
    lp.constraints[0] = lp_module.Constraint({"x": 1}, LE, 2)
    assert solve_extreme_point(lp).values == {"x": 2}
    lp.constraints[0].rhs = rat(1)
    assert solve_extreme_point(lp).values == {"x": 1}


def test_convex_solves_run_phase_one_once(monkeypatch):
    from test_pinned_outputs import guided_instance

    # (phase-1 pivots, its start's pivots) of each solve_extreme_point call,
    # per convex solve
    per_solve = []

    def convex_solve(*args, **kwargs):
        per_solve.append([])
        return convex.solve_convex_over_polytope(*args, **kwargs)

    def solve(lp, start=None):
        sol = solve_extreme_point(lp, start)
        per_solve[-1].append((sol.pivots[0], sol.start.pivots))
        return sol

    monkeypatch.setattr(lpnorm, "solve_convex_over_polytope", convex_solve)
    monkeypatch.setattr(convex, "solve_extreme_point", solve)
    inst = guided_instance(56)  # the lpnorm-guided shape: n=20, machines (3,3)
    lpnorm_ptas(inst, 2, rat(1, 2), Guided(greedy_schedule(inst, 2)))
    # the guided solve has a warm start: every call, the first too, begins
    # from the tableau vertex_start built at it with pivots of its own
    guided = per_solve[0]
    assert len(guided) > 1 and all(calls == (0, guided[0][1]) for calls in guided), guided
    assert guided[0][1] > 0
    inst = generate_instance(GeneratorSpec(3, 1, (1, 1), 1, 10), 30)
    lpnorm_ptas(inst, 2, rat(1, 2), lpnorm.FullEnum(10**6))
    full = per_solve[1:]
    assert len(full) >= 2
    # without one, the first call runs phase 1 and the later calls reuse it
    assert all(
        pivots[1:] == [(0, pivots[0][0])] * (len(pivots) - 1) for pivots in full
    ), full
    assert any(pivots[0][0] > 0 and len(pivots) > 1 for pivots in full)


# ---------------------------------------------------------------------------
# a vertex's phase-1 tableau, built without the simplex


def lp_vertices(rng, lp, tries):
    """Distinct vertices of lp's region from fresh solves under random
    objectives, in the order found; lp's objective is left as the last tried."""
    found = []
    for _ in range(tries):
        lp.objective = random_objective(rng, lp)
        outcome = fresh_outcome(lp)
        if outcome is Infeasible:
            return []
        if not isinstance(outcome, type) and outcome.values not in found:
            found.append(outcome.values)
    return found


def basic_values(lp, start):
    """The values start's basic solution gives lp's variables, after
    checking that start is a feasible tableau over lp's columns and slacks."""
    nvars = len(lp.variables)
    assert start.ncols == nvars + sum(1 for c in lp.constraints if c.rel != EQ)
    values = {v: ZERO for v in lp.variables}
    for r, (row, b) in enumerate(zip(start.rows, start.basis)):
        assert row[b] > 0 and row.get(lp_module.RHS, 0) >= 0
        assert all(-1 <= k < start.ncols for k in row)
        assert not any(b in other for k, other in enumerate(start.rows) if k != r)
        if b < nvars:
            values[lp.variables[b]] = Fraction(row.get(lp_module.RHS, 0), row[b])
    return values


def violates(lp, point):
    return any(x < 0 for x in point.values()) or not all(c.holds(point) for c in lp.constraints)


def test_vertex_start_is_a_basis_at_the_vertex():
    rng = random.Random(20261025)
    tally = {"vertices": 0, "phase 2 pivoted": 0, "rows dropped": 0, "midpoints": 0,
             "infeasible points": 0}
    for i in range(300):
        lp = diff_lp(rng) if i % 4 else random_lp(rng, max_vars=5, max_rows=4)
        found = lp_vertices(rng, lp, 4)
        for x in found:
            start = lp_module.vertex_start(lp, x)
            assert start is not None
            assert basic_values(lp, start) == x
            positive = sum(1 for v in x.values() if v > 0)
            assert start.pivots <= positive + lp.num_rows
            tally["vertices"] += 1
            tally["rows dropped"] += len(start.rows) < lp.num_rows
            # phase 2 from the vertex reaches the optimum value, maybe at
            # another optimal vertex than a fresh solve
            lp.objective = random_objective(rng, lp)
            expected = fresh_outcome(lp)
            if isinstance(expected, type):
                with pytest.raises(expected):
                    solve_extreme_point(lp, start)
                continue
            sol = solve_extreme_point(lp, start)
            assert sol.objective_value == expected.objective_value
            assert sol.pivots[0] == 0 and sol.start is start
            assert len(sol.positives()) <= lp.num_rows
            assert all(c.holds(sol.values) for c in lp.constraints)
            tally["phase 2 pivoted"] += sol.pivots[1] > 0
            # a point off the region has no basis
            shifted = {v: a + rat(rng.randint(-2, 2), rng.choice(DENOMS)) for v, a in x.items()}
            if violates(lp, shifted):
                assert lp_module.vertex_start(lp, shifted) is None
                tally["infeasible points"] += 1
        if len(found) >= 2:  # on the region, but no vertex of it
            a, b = found[:2]
            assert lp_module.vertex_start(lp, {v: (a[v] + b[v]) / 2 for v in a}) is None
            tally["midpoints"] += 1
    assert min(tally.values()) >= 10, tally


def test_vertex_start_pivots_on_hand_solved_programs():
    # columns x, y, then the slack (2); x + y <= 1, x = 1 at (1, 0): x enters
    # the artificial's row, not the slack's (0 at the point), so nothing is
    # left to drive out
    lp = _lp(["x", "y"], [({"x": 1, "y": 1}, LE, 1), ({"x": 1}, EQ, 1)])
    start = lp_module.vertex_start(lp, {"x": 1})
    assert (start.basis, start.pivots) == ([2, 0], 1)
    # x + y = 1, x - y = 1 at (1, 0): x enters row 1, which leaves row 2 as
    # -2y - a1 + a2 = 0; driving a2 out pivots on y
    lp = _lp(["x", "y"], [({"x": 1, "y": 1}, EQ, 1), ({"x": 1, "y": -1}, EQ, 1)])
    start = lp_module.vertex_start(lp, {"x": 1})
    assert (start.basis, start.pivots) == ([0, 1], 2)
    # a repeated equality: x enters row 1, and the copy's row is dropped
    lp = _lp(["x", "y"], [({"x": 1, "y": 1}, EQ, 1), ({"x": 2, "y": 2}, EQ, 2)])
    start = lp_module.vertex_start(lp, {"x": 1})
    assert (start.basis, start.pivots, len(start.rows)) == ([0], 1, 1)
    # x <= 2: at 2 x replaces the seeded slack; at 1 x and the slack are
    # both positive over one row, no vertex
    lp = _lp(["x"], [({"x": 1}, LE, 2)])
    assert lp_module.vertex_start(lp, {"x": 2}).basis == [0]
    assert lp_module.vertex_start(lp, {"x": 1}) is None


# ---------------------------------------------------------------------------
# pivot counts and trip-wires


def _lp(variables, rows, objective=None):
    lp = LinearProgram()
    for v in variables:
        lp.add_variable(v, objective=(objective or {}).get(v, 0))
    for coeffs, rel, rhs in rows:
        lp.add_constraint(coeffs, rel, rhs)
    return lp


def test_pivot_counts_on_hand_solved_programs():
    # min x1+x2, x1+2x2 >= 2, 2x1+x2 >= 2: phase 1 enters x1 (ratio 1 on
    # row 2), then x2 (ratio 2/3 on row 1); both artificials leave, and the
    # slacks price out at 1/3, so phase 2 takes no pivot
    lp = _lp(["x1", "x2"], [({"x1": 1, "x2": 2}, GE, 2), ({"x1": 2, "x2": 1}, GE, 2)],
             {"x1": 1, "x2": 1})
    assert solve_extreme_point(lp).pivots == (2, 0)
    # min -x-y, x <= 1, y <= 2: the slacks start basic, phase 2 enters x, then y
    lp = _lp(["x", "y"], [({"x": 1}, LE, 1), ({"y": 1}, LE, 2)], {"x": -1, "y": -1})
    sol = solve_extreme_point(lp)
    assert sol.pivots == (0, 2) and sol.values == {"x": 1, "y": 2}
    # x+y = 1, x = 1: phase 1 enters x on row 1 (tie, lower artificial), which
    # leaves row 2 as -y - a1 + a2 = 0; driving a2 out pivots on the -1 at y
    lp = _lp(["x", "y"], [({"x": 1, "y": 1}, EQ, 1), ({"x": 1}, EQ, 1)], {"y": 1})
    sol = solve_extreme_point(lp)
    assert sol.pivots == (2, 0) and sol.basis == ("x", "y")
    assert sol.values == {"x": 1, "y": 0}
    # a repeated equality: one phase-1 pivot, then the copy's row is dropped
    lp = _lp(["x", "y"], [({"x": 1, "y": 1}, EQ, 2), ({"x": 2, "y": 2}, EQ, 4)])
    sol = solve_extreme_point(lp)
    assert sol.pivots == (1, 0) and sol.basis == ("x",)


def test_pivot_count_is_not_part_of_equality():
    lp = _lp(["x"], [({"x": 1}, LE, 1)], {"x": -1})
    sol = solve_extreme_point(lp)
    assert sol.pivots == (0, 1)
    assert sol == lp_module.ExtremePointSolution(sol.values, sol.basis, sol.objective_value)


def test_stalled_simplex_hits_the_pivot_guard(monkeypatch):
    # a pivot that changes nothing makes Bland's rule pick it again forever
    monkeypatch.setattr(lp_module._Tableau, "pivot", lambda tab, r, c: None)
    lp = _lp(["x"], [({"x": 1}, LE, 1)], {"x": -1})
    with pytest.raises(PivotLimitExceeded):
        solve_extreme_point(lp)


class UnderCountedLP(LinearProgram):
    """Reports zero rows, so any positive value breaks the sparsity bound."""

    @property
    def num_rows(self) -> int:
        return 0


def test_sparsity_check_raises_invariant_violation():
    lp = UnderCountedLP()
    lp.add_variable("x", objective=-1)
    lp.add_constraint({"x": 1}, LE, 1)
    with pytest.raises(InvariantViolation):
        solve_extreme_point(lp)


TRIP_WIRES_UNDER_O = """
import sys
from typesched import lp as lp_module
from typesched.errors import InvariantViolation, PivotLimitExceeded
from typesched.lp import LE, LinearProgram, solve_extreme_point

assert False, "assert statements must be stripped"

class UnderCountedLP(LinearProgram):
    num_rows = property(lambda self: 0)

lp = UnderCountedLP()
lp.add_variable("x", objective=-1)
lp.add_constraint({"x": 1}, LE, 1)
try:
    solve_extreme_point(lp)
except InvariantViolation:
    print("sparsity checked")
real_pivot = lp_module._Tableau.pivot
lp_module._Tableau.pivot = lambda tab, r, c: None
try:
    solve_extreme_point(lp)
except PivotLimitExceeded:
    print("guard checked")
lp_module._Tableau.pivot = real_pivot
# a second solve from the first one's start is still checked
from typesched.lp import EQ
lp = LinearProgram()
lp.add_variable("x", objective=1)
lp.add_variable("y")
lp.add_constraint({"x": 1, "y": 1}, EQ, 1)
first = solve_extreme_point(lp)
print("phase-1 pivots", first.pivots[0])
real_run = lp_module._run_simplex
runs = []
def non_basic(tab):
    runs.append(tab)
    pivots = real_run(tab)
    # a second basic variable, at 1
    tab.rows.append(dict.fromkeys([*range(tab.ncols), lp_module.RHS], 1))
    tab.basis.append(1 - tab.basis[0])
    return pivots
lp_module._run_simplex = non_basic
lp.objective = {"y": 1}
try:
    solve_extreme_point(lp, first.start)
except InvariantViolation:
    print("sparsity checked on reuse, simplex runs", len(runs))
lp_module._run_simplex = real_run
from typesched.rounding import FinalAssignment, RoundingProblem, assemble_schedule
empty = FinalAssignment({}, {}, {}, {}, {})
try:
    assemble_schedule(RoundingProblem(1, {}, {}, {}, {}), empty, 1)
except InvariantViolation:
    print("assembler checked")
from typesched import lpnorm, makespan
for calibrate in (lambda eps: makespan.calibrate_eps(eps, 1), lpnorm.calibrate_eps):
    try:
        calibrate("2")
    except ValueError as exc:
        print(exc)
from typesched import rounding
from typesched.errors import Infeasible
from typesched.model import make_instance
from typesched.modes import FullEnum
from typesched.rationals import rat
from typesched.rounding import JobRoutes, RoundingEngine
inst = make_instance(1, [1], [[[5]]])
makespan.evaluate_makespan = lambda inst, sched: 10**9
try:
    makespan.makespan_decision(inst, 5, rat(1, 2), FullEnum())
except InvariantViolation as exc:
    print(exc)
# full mode decides the greedy schedule's rung, which it knows accepts, only
# at the end; here every decision is made to reject
def reject(*args):
    raise Infeasible("rejected")
makespan.decide = reject
try:
    makespan.makespan_ptas(inst, rat(1, 2), FullEnum())
except InvariantViolation as exc:
    print(exc)
# job 0 splits over machines 0 and 1, job 1 over 1 and 2; dropping machine 0
# leaves job 1 live, and its reduced LP is made to fail
one, half = (rat(1),), (rat(1, 2),)
problem = RoundingProblem(
    1, {0: JobRoutes({(0, 0): one, (0, 1): one}, set()),
        1: JobRoutes({(0, 1): one, (0, 2): one}, set())}, {},
    {(0, 0): half, (0, 1): one, (0, 2): half}, {(0, k): rat(1) for k in range(3)},
)
solves = []
def solve_first_only(lp, start=None):
    solves.append(lp)
    if len(solves) > 1:
        raise Infeasible("reduced")
    return solve_extreme_point(lp, start)
rounding.solve_extreme_point = solve_first_only
try:
    RoundingEngine(problem).run()
except InvariantViolation as exc:
    print(exc)
print("optimize", sys.flags.optimize)
# guided mode decides the certificate's rung, which it knows accepts, only
# at the end; here rung 0, made to reject
from typesched.model import Schedule, evaluate_makespan
from typesched.modes import Guided
makespan.evaluate_makespan = evaluate_makespan
try:
    makespan.makespan_ptas(inst, rat(1, 2), Guided(Schedule(((0, 0),))))
except InvariantViolation as exc:
    print(exc)
# a vertex gets its basis; a point between two vertices and one off the
# region fall back to phase 1
from typesched.lp import vertex_start
lp = LinearProgram()
lp.add_variable("x")
lp.add_variable("y")
lp.add_constraint({"x": 1, "y": 1}, EQ, 1)
print("vertex start", vertex_start(lp, {"x": 1}).pivots,
      vertex_start(lp, {"x": rat(1, 2), "y": rat(1, 2)}), vertex_start(lp, {"x": 2}))
# an allowance frozen below its small load makes the rounding reject the
# convex point: a broken invariant, not an infeasible instance
from typesched.model import GeneratorSpec, generate_instance, greedy_schedule
rounding.solve_extreme_point = solve_extreme_point
real_cp = lpnorm.solve_slot_cp
def one_allowance_low(model, *args, **kwargs):
    cp = real_cp(model, *args, **kwargs)
    j, mk = next((j, mk) for j, r in sorted(model.routes.items()) for mk in r.machine_costs
                 if cp.x["m", j, mk] == 1)
    cp.t_star[mk] = model.routes[j].machine_costs[mk][0] / 2
    return cp
lpnorm.solve_slot_cp = one_allowance_low
inst = generate_instance(GeneratorSpec(24, 1, (20, 2), 1, 10), 0)
try:
    lpnorm.lpnorm_ptas(inst, 2, 1, Guided(greedy_schedule(inst, 2)))
except InvariantViolation as exc:
    print(exc)
"""


def test_trip_wires_survive_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-c", TRIP_WIRES_UNDER_O],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:14] == [
        "sparsity checked", "guard checked",
        "phase-1 pivots 1", "sparsity checked on reuse, simplex runs 1", "assembler checked",
        "eps must lie in (0, 1], got 2", "eps must lie in (0, 1], got 2",
        "decision exceeded its guarantee factor",
        "decision rejected a rung its certificate proves",
        "reduced LP became infeasible; reduction invariants broken", "optimize 1",
        "decision rejected a rung its certificate proves", "vertex start 1 None None",
        "the rounding LP rejected the convex solution",
    ]


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so paper invariants raise instead
    offenders = []
    for path in sorted((SRC / "typesched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_rationals_touches_fractions():
    # every solver rational comes from rat(), so it is a FastFraction
    offenders = []
    for path in sorted((SRC / "typesched").glob("*.py")):
        if path.name == "rationals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                hit = any(a.name.split(".")[0] == "fractions" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[0] == "fractions"
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (isinstance(func, ast.Name) and func.id == "Fraction") or (
                    isinstance(func, ast.Attribute) and func.attr == "Fraction"
                )
            else:
                hit = False
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
