"""Exact linear and integer programming over rationals.

Primal simplex with Bland's pivoting rule on the bounded-variable form
``lower <= x <= upper`` (every lower bound finite, an upper bound optional),
plus a depth-first branch-and-bound wrapper for integer programs.  Column j
of the simplex is variable j minus its lower bound, so it ranges over
``[0, upper - lower]``.  Every coefficient is a Fraction, so feasibility and
optimality hold exactly; there is no tolerance anywhere.  The program types
turn ints into Fractions and reject floats when they are built.  Simplex
rows are sparse: each holds only its nonzero entries, and the artificial
start basis is one entry per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
RELATIONS = ("<=", "=", ">=")


def frac(value) -> Fraction:
    """Coerce an int or Fraction; floats would break exactness and are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Variable:
    name: str
    lower: Fraction = _ZERO
    upper: Fraction | None = None

    def __post_init__(self) -> None:
        if self.lower is None:
            raise ValueError(f"variable {self.name!r} needs a finite lower bound")
        object.__setattr__(self, "lower", frac(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", frac(self.upper))


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(frac(a) for a in self.coeffs))
        object.__setattr__(self, "rhs", frac(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    direction: str
    variables: tuple[Variable, ...]
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {self.direction!r}")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if len(self.objective) != len(self.variables):
            raise ValueError("objective length does not match variable count")
        if any(len(con.coeffs) != len(self.variables) for con in self.constraints):
            raise ValueError("constraint length does not match variable count")
        object.__setattr__(self, "objective", tuple(frac(c) for c in self.objective))


def linear_program(direction, variables, objective, constraints=()) -> LinearProgram:
    """Convenience constructor: variables as (name, lower, upper), constraints
    as (coeffs, relation, rhs)."""
    return LinearProgram(
        direction,
        tuple(Variable(*var) for var in variables),
        tuple(objective),
        tuple(Constraint(*con) for con in constraints),
    )


@dataclass(frozen=True)
class IntegerProgram:
    base: LinearProgram
    integral: frozenset[str]

    def __post_init__(self) -> None:
        by_name = {v.name: v for v in self.base.variables}
        for name in self.integral:
            var = by_name.get(name)
            if var is None:
                raise ValueError(f"integral variable {name!r} is not in the program")
            if var.upper is None:
                raise ValueError(f"integral variable {name!r} must have a finite upper bound")


@dataclass(frozen=True)
class LPSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    assignment: dict[str, Fraction] = field(default_factory=dict)
    objective_value: Fraction | None = None

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


class _Simplex:
    """Bounded-variable primal simplex on equality rows with columns in [0, u].

    Each row is a dict of its nonzero entries, column -> coefficient; a pivot
    touches only the rows that hold the entering column and, in them, only
    the pivot row's nonzero columns.  Nonbasic columns sit at one of their
    bounds (`at_upper` flags the upper one); `beta` holds the current value
    of each basic column.  Bland's rule picks the smallest-index eligible
    entering column and, among the ties of the ratio test, the smallest-index
    leaving variable, which guarantees termination even on degenerate
    instances.  Only columns below `entering` are priced: phase 2 leaves out
    the artificials.
    """

    def __init__(self, rows, rhs, col_upper):
        # Rows with rhs < 0 are negated so that one artificial column per row,
        # a single entry 1 in that row, is a feasible start basis.
        self.m = len(rows)
        self.art_start = len(col_upper)
        self.ncols = self.entering = self.art_start + self.m
        self.rows: list[dict[int, Fraction]] = []
        self.beta: list[Fraction] = []
        for r, (row, b) in enumerate(zip(rows, rhs)):
            row = dict(row) if b >= 0 else {j: -a for j, a in row.items()}
            row[self.art_start + r] = _ONE
            self.rows.append(row)
            self.beta.append(abs(b))
        self.upper: list[Fraction | None] = list(col_upper) + [None] * self.m
        self.basis = list(range(self.art_start, self.ncols))
        self.at_upper = [False] * self.ncols
        self.in_basis = [False] * self.art_start + [True] * self.m

    # -- helpers ---------------------------------------------------------

    def _reduced_costs(self, costs: dict[int, Fraction]) -> list[Fraction]:
        z = [_ZERO] * self.ncols
        for j, c in costs.items():
            z[j] = c
        for r in range(self.m):
            cb = costs.get(self.basis[r], 0)
            if cb != 0:
                for j, a in self.rows[r].items():
                    z[j] -= cb * a
        return z

    def column_value(self, col: int) -> Fraction:
        if self.in_basis[col]:
            return self.beta[self.basis.index(col)]
        if self.at_upper[col]:
            return self.upper[col]
        return _ZERO

    def _pivot(self, r: int, col: int, z: list[Fraction]) -> None:
        row = self.rows[r]
        piv = row[col]
        if piv != 1:
            row = {j: a / piv for j, a in row.items()}
            self.rows[r] = row
        for rr, other in enumerate(self.rows):
            f = other.get(col)
            if f is None or rr == r:
                continue
            for j, b in row.items():
                a = other.get(j, _ZERO) - f * b
                if a:
                    other[j] = a
                else:
                    del other[j]  # the entry cancelled
        f = z[col]
        if f != 0:
            for j, b in row.items():
                z[j] -= f * b

    # -- core loop -------------------------------------------------------

    def iterate(self, z: list[Fraction]) -> str:
        while True:
            enter = -1
            direction = 0
            for j in range(self.entering):
                if self.in_basis[j]:
                    continue
                zj = z[j]
                if not self.at_upper[j] and zj < 0:
                    enter, direction = j, 1
                    break
                if self.at_upper[j] and zj > 0:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"
            column = [row.get(enter, 0) for row in self.rows]
            best_t = None
            best_var = -1
            best_row = -1
            best_kind = ""
            own = self.upper[enter]
            if own is not None:
                best_t, best_var, best_row, best_kind = own, enter, -1, "flip"
            for r, yr in enumerate(column):
                if yr == 0:
                    continue
                delta = yr if direction == 1 else -yr
                bvar = self.basis[r]
                if delta > 0:
                    t = self.beta[r] / delta
                    kind = "lower"
                else:
                    ub = self.upper[bvar]
                    if ub is None:
                        continue
                    t = (ub - self.beta[r]) / (-delta)
                    kind = "upper"
                if best_t is None or t < best_t or (t == best_t and bvar < best_var):
                    best_t, best_var, best_row, best_kind = t, bvar, r, kind
            if best_t is None:
                return "unbounded"
            t = best_t
            if t != 0:
                for r, yr in enumerate(column):
                    if yr != 0:
                        self.beta[r] -= t * yr if direction == 1 else -t * yr
            if best_kind == "flip":
                self.at_upper[enter] = not self.at_upper[enter]
                continue
            r = best_row
            leave = self.basis[r]
            self.in_basis[leave] = False
            self.at_upper[leave] = best_kind == "upper"
            value = t if direction == 1 else self.upper[enter] - t
            self.at_upper[enter] = False
            self.in_basis[enter] = True
            self.basis[r] = enter
            self.beta[r] = value
            self._pivot(r, enter, z)

    # -- phases ----------------------------------------------------------

    def phase_one(self) -> bool:
        z = self._reduced_costs(dict.fromkeys(range(self.art_start, self.ncols), _ONE))
        if self.iterate(z) != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise RuntimeError("internal: phase 1 cannot be unbounded")
        if any(self.beta[r] for r in range(self.m) if self.basis[r] >= self.art_start):
            return False
        # Artificials are fixed at zero and never priced again.  One still
        # basic (its row may be dependent) then leaves at the first pivot that
        # would move it, since the ratio test bounds it above by 0.
        for col in range(self.art_start, self.ncols):
            self.upper[col] = _ZERO
        self.entering = self.art_start
        return True

    def phase_two(self, costs: dict[int, Fraction]) -> str:
        return self.iterate(self._reduced_costs(costs))


def _verify_solution(lp: LinearProgram, assignment: dict[str, Fraction]) -> None:
    for var in lp.variables:
        val = assignment[var.name]
        if val < var.lower or (var.upper is not None and val > var.upper):
            raise RuntimeError(f"internal: bound violation on {var.name}")
    values = [assignment[v.name] for v in lp.variables]
    for con in lp.constraints:
        lhs = sum((a * x for a, x in zip(con.coeffs, values) if a != 0), _ZERO)
        ok = (
            lhs <= con.rhs
            if con.relation == "<="
            else lhs >= con.rhs if con.relation == ">=" else lhs == con.rhs
        )
        if not ok:
            raise RuntimeError("internal: constraint violation in reported solution")


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve exactly; an optimal solution is re-verified by substitution.

    Column j is variable j minus its lower bound, of width upper - lower; a
    negative width (crossed bounds) makes the program infeasible.
    """
    lower = [v.lower for v in lp.variables]
    width = [None if v.upper is None else v.upper - v.lower for v in lp.variables]
    if any(u is not None and u < 0 for u in width):
        return LPSolution("infeasible")
    # Each inequality row gets a slack column with coefficient +1, after the
    # structural columns; a '>=' row is negated first.
    slack = len(width)
    rows, rhs = [], []
    for con in lp.constraints:
        row = {j: a for j, a in enumerate(con.coeffs) if a}
        b = con.rhs - sum((a * lower[j] for j, a in row.items()), _ZERO)
        if con.relation == ">=":
            row, b = {j: -a for j, a in row.items()}, -b
        if con.relation != "=":
            row[slack] = _ONE
            slack += 1
        rows.append(row)
        rhs.append(b)

    simplex = _Simplex(rows, rhs, width + [None] * (slack - len(width)))
    if not simplex.phase_one():
        return LPSolution("infeasible")
    sense = 1 if lp.direction == "min" else -1
    if simplex.phase_two({j: sense * c for j, c in enumerate(lp.objective) if c}) == "unbounded":
        return LPSolution("unbounded")
    assignment = {v.name: v.lower + simplex.column_value(j) for j, v in enumerate(lp.variables)}
    _verify_solution(lp, assignment)
    value = sum((c * assignment[v.name] for c, v in zip(lp.objective, lp.variables)), _ZERO)
    return LPSolution("optimal", assignment, value)


def _with_bounds(lp: LinearProgram, overrides: dict[int, tuple[Fraction, Fraction]]) -> LinearProgram:
    if not overrides:
        return lp
    new_vars = list(lp.variables)
    for idx, (lo, hi) in overrides.items():
        new_vars[idx] = Variable(new_vars[idx].name, lo, hi)
    return LinearProgram(lp.direction, tuple(new_vars), lp.objective, lp.constraints)


def solve_ilp(ip: IntegerProgram) -> LPSolution:
    """Depth-first branch and bound over LP relaxations.

    Branches on the fractional integral variable whose value has the largest
    denominator (ties to the smallest index), explores the nearer integer
    side first, and prunes against the best incumbent.  Bounds and
    incumbents are compared as ``sense * value`` (``sense`` is -1 for
    ``max``), so smaller is better in both directions.  When the objective is
    supported on integral variables with integer coefficients, relaxation
    bounds are rounded before pruning.
    """
    lp = ip.base
    sense = 1 if lp.direction == "min" else -1
    int_idx = [i for i, v in enumerate(lp.variables) if v.name in ip.integral]
    int_set = set(int_idx)
    can_round = all(
        lp.objective[i] == 0 or (i in int_set and lp.objective[i].denominator == 1)
        for i in range(len(lp.variables))
    )

    best: LPSolution | None = None
    stack: list[dict[int, tuple[Fraction, Fraction]]] = [{}]
    while stack:
        overrides = stack.pop()
        sol = solve_lp(_with_bounds(lp, overrides))
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            return LPSolution("unbounded")
        if best is not None:
            bound = sense * sol.objective_value
            if (math.ceil(bound) if can_round else bound) >= sense * best.objective_value:
                continue
        fractional = [
            (i, sol.assignment[lp.variables[i].name])
            for i in int_idx
            if sol.assignment[lp.variables[i].name].denominator != 1
        ]
        if not fractional:
            best = sol
            continue
        idx, val = max(fractional, key=lambda item: (item[1].denominator, -item[0]))
        var = lp.variables[idx]
        lo, hi = overrides.get(idx, (var.lower, var.upper))
        floor_val = Fraction(math.floor(val))
        down = dict(overrides)
        down[idx] = (lo, floor_val)
        up = dict(overrides)
        up[idx] = (floor_val + 1, hi)
        if val - floor_val <= Fraction(1, 2):
            stack.append(up)
            stack.append(down)  # nearer side explored first (LIFO)
        else:
            stack.append(down)
            stack.append(up)
    return best if best is not None else LPSolution("infeasible")
