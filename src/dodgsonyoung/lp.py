"""Exact linear and integer programming over rationals.

One bounded dual simplex with Bland's rule in dual form on boxed programs,
``lower <= x <= upper`` with both bounds finite and every row ``<=`` or
``>=``, plus a depth-first branch-and-bound wrapper for pure integer
programs, in which every variable is integral.  Every score program is
boxed, since each of its variables counts voters, and a boxed program is
either infeasible or has an optimum.  Column j of the simplex is variable j
minus its lower bound, so it ranges over ``[0, upper - lower]``.  Every row
starts basic in its own slack and every column at the bound its cost
prefers, which is dual feasible, so there is one phase and no artificial
column.  Every coefficient is a Fraction, so feasibility and optimality
hold exactly; there is no tolerance anywhere.  The program types are named
tuples that turn ints into Fractions and reject floats in their
``__new__``.  Programs are sparse from end to end: a
`Constraint` is built from a ``{column: coefficient}`` mapping and holds the
``(column, coefficient)`` pairs of its nonzero entries, and each simplex row
starts as a dict of them, so building and checking a program cost its
nonzeros, not rows times columns.

A caller that already knows a good point can pass it to `solve_lp` with a
dual vector as a certificate.  The point is checked by substitution and the
dual vector by `dual_bound`, with Fraction sums alone; when the point's
value meets the bound, weak duality proves it optimal and no simplex is
built.  Otherwise the program is solved as usual, so a bad certificate
costs time, never correctness.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
RELATIONS = ("<=", ">=")


def frac(value) -> Fraction:
    """Coerce an int or Fraction; floats would break exactness and are rejected."""
    if type(value) is int:  # the common case; the ABC check below is slower
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Variable(namedtuple("Variable", "name lower upper")):
    __slots__ = ()

    def __new__(cls, name, lower, upper):
        bounds = []
        for side, bound in (("lower", lower), ("upper", upper)):
            if bound is None:
                raise ValueError(f"variable {name!r} needs a finite {side} bound")
            bounds.append(frac(bound))
        return super().__new__(cls, name, *bounds)


class Constraint(namedtuple("Constraint", "coeffs relation rhs")):
    """A row ``sum_j a_j x_j <relation> rhs``.

    ``coeffs`` is given as a ``{column: coefficient}`` mapping and is kept as
    the ``(column, coefficient)`` pairs of its nonzero entries in ascending
    column order.  Every entry is coerced before zeros are dropped, so a
    float is rejected wherever it sits.
    """

    __slots__ = ()

    def __new__(cls, coeffs, relation, rhs):
        if relation not in RELATIONS:
            raise ValueError(f"bad relation {relation!r}")
        if not isinstance(coeffs, Mapping):
            raise TypeError(f"constraint coefficients must be a {{column: coefficient}} mapping, "
                            f"got {type(coeffs).__name__}")
        if not all(type(j) is int and j >= 0 for j in coeffs):
            raise ValueError("constraint columns must be non-negative ints")
        pairs = tuple((j, x) for j, a in sorted(coeffs.items()) if (x := frac(a)))
        return super().__new__(cls, pairs, relation, frac(rhs))

    def __getnewargs__(self):
        # as a mapping, since the pairs are not one
        return dict(self.coeffs), self.relation, self.rhs


class LinearProgram(namedtuple("LinearProgram", "direction variables objective constraints")):
    __slots__ = ()

    def __new__(cls, direction, variables, objective, constraints=()):
        if direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if len(objective) != len(variables):
            raise ValueError("objective length does not match variable count")
        n = len(variables)
        for con in constraints:
            if con.coeffs and con.coeffs[-1][0] >= n:
                raise ValueError(f"constraint column {con.coeffs[-1][0]} out of range 0..{n - 1}")
        return super().__new__(cls, direction, variables, tuple(frac(c) for c in objective), constraints)


def linear_program(direction, variables, objective, constraints=()) -> LinearProgram:
    """Convenience constructor: variables as (name, lower, upper), constraints
    as (coeffs, relation, rhs) with coeffs a {column: coefficient} mapping
    (see `Constraint`)."""
    return LinearProgram(
        direction,
        tuple(Variable(*var) for var in variables),
        tuple(objective),
        tuple(Constraint(*con) for con in constraints),
    )


class LPSolution(namedtuple("LPSolution", "status assignment objective_value")):
    """``status`` is 'optimal' or 'infeasible'; a boxed program has no other
    outcome.  ``sol[name]`` reads the value of a variable."""

    __slots__ = ()

    def __new__(cls, status, assignment=None, objective_value=None):
        return super().__new__(cls, status, {} if assignment is None else assignment, objective_value)

    def __getitem__(self, name: str) -> Fraction:
        return self.assignment[name]


class _Simplex:
    """Bounded dual simplex on equality rows with columns in [0, u].

    Column n + r is row r's slack, with a single entry 1 in that row; it
    starts basic, and every other column starts at the bound its cost
    prefers (upper for a negative cost, lower otherwise), so every reduced
    cost has the right sign from the start.  Each step takes the basic column
    of smallest index that lies outside its bounds, moves it to the bound it
    violates, and enters the nonbasic column of the pivot row whose reduced
    cost reaches zero first, ties to the smallest index: Bland's rule in dual
    form, which terminates on dual degenerate programs too.  Each row is a
    dict of its nonzero entries, column -> coefficient, so the ratio test
    reads only the pivot row, and a pivot touches only the rows that hold the
    entering column.  `basis` holds the basic column of each row, `x` the
    value of every column and `z` the reduced cost of every column.  A
    nonbasic column sits at 0 or at its upper bound, so a nonzero value marks
    the upper one.  Program columns are boxed; a slack's upper bound is None,
    since no row bounds its surplus.
    """

    def __init__(self, rows, rhs, upper, costs):
        # The row dicts and lists are taken over, not copied.
        n = len(upper) - len(rows)
        self.rows: list[dict[int, Fraction]] = rows
        self.upper: list[Fraction | None] = upper
        self.z: list[Fraction] = costs
        self.basis = list(range(n, len(upper)))
        self.x = [u if c < 0 else _ZERO for u, c in zip(upper, costs)]
        for col, row, b in zip(self.basis, rows, rhs):
            self.x[col] = b - sum((a * self.x[j] for j, a in row.items() if self.x[j]), _ZERO)

    def _pivot(self, r: int, col: int) -> None:
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
        f = self.z[col]
        if f != 0:
            for j, b in row.items():
                self.z[j] -= f * b

    def solve(self) -> bool:
        """Pivot until every basic column is within its bounds; False when a
        row shows that none of its values is reachable (infeasible)."""
        x = self.x
        while True:
            leave = -1
            for i, col in enumerate(self.basis):
                value, ub = x[col], self.upper[col]
                if (value < 0 or (ub is not None and value > ub)) and (leave < 0 or col < leave):
                    r, leave = i, col
            if leave < 0:
                return True
            to_upper = x[leave] > 0
            target = self.upper[leave] if to_upper else _ZERO
            # Moving an eligible column off its bound moves `leave` towards
            # `target`; the first reduced cost to reach zero decides.  Fixed
            # columns are skipped first, so a nonzero value is the upper bound.
            enter, ratio = -1, None
            for j, a in self.rows[r].items():
                if j == leave or self.upper[j] == 0 or ((a > 0) != to_upper) != (x[j] != 0):
                    continue
                t = abs(self.z[j] / a)
                if ratio is None or t < ratio or (t == ratio and j < enter):
                    enter, ratio = j, t
            if enter < 0:
                return False
            step = (x[leave] - target) / self.rows[r][enter]
            for col, row in zip(self.basis, self.rows):
                a = row.get(enter)
                if a is not None:
                    x[col] -= a * step
            x[leave] = target
            x[enter] += step
            self.basis[r] = enter
            self._pivot(r, enter)


def _verify_solution(lp: LinearProgram, assignment: dict[str, Fraction]) -> None:
    for var in lp.variables:
        val = assignment[var.name]
        if not var.lower <= val <= var.upper:
            raise RuntimeError(f"internal: bound violation on {var.name}")
    values = [assignment[v.name] for v in lp.variables]
    for con in lp.constraints:
        lhs = sum((a * values[j] for j, a in con.coeffs if values[j]), _ZERO)
        if not (lhs <= con.rhs if con.relation == "<=" else lhs >= con.rhs):
            raise RuntimeError("internal: constraint violation in reported solution")


def dual_bound(lp: LinearProgram, duals) -> Fraction | None:
    """The bound on lp's optimum that the multipliers ``duals`` (one per
    constraint) prove: a lower bound for ``min``, an upper bound for ``max``.

    With ``sense`` = -1 for ``max``, rows read as ``>=`` (a ``<=`` row
    negated) and r = sense * c - A^T y, every feasible x has
    sense * c.x >= b.y + r.x, and r.x is smallest with each column at the
    bound its r prefers.  So the bound is b.y plus r_j times the lower bound
    where r_j >= 0, or times the upper bound where r_j < 0.  None when a
    multiplier is negative.
    """
    if len(duals) != len(lp.constraints):
        raise ValueError("one multiplier per constraint expected")
    sense = 1 if lp.direction == "min" else -1
    reduced = list(lp.objective) if sense > 0 else [-c for c in lp.objective]
    total = _ZERO
    for con, y in zip(lp.constraints, map(frac, duals)):
        if y < 0:
            return None
        if not y:
            continue
        if con.relation == "<=":
            y = -y
        total += y * con.rhs
        for j, a in con.coeffs:
            reduced[j] -= a if y == 1 else y * a
    for var, r in zip(lp.variables, reduced):
        if r > 0:
            total += r * var.lower
        elif r < 0:
            total += r * var.upper
    return sense * total


def solve_lp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Solve exactly; an optimal solution is re-verified by substitution.

    ``certificate`` is an optional ``(point, duals)`` pair: a value per
    variable and a multiplier per constraint.  An infeasible point is a
    caller's bug and raises.  A feasible point whose value equals
    ``dual_bound(lp, duals)`` is optimal and is returned at once; any other
    certificate is ignored.

    Column j is variable j minus its lower bound, of width upper - lower; a
    negative width (crossed bounds) makes the program infeasible.
    """
    if certificate is not None:
        point, duals = certificate
        if len(point) != len(lp.variables):
            raise ValueError("one value per variable expected")
        assignment = {v.name: frac(x) for v, x in zip(lp.variables, point)}
        _verify_solution(lp, assignment)
        value = _objective_value(lp, assignment)
        if value == dual_bound(lp, duals):
            return LPSolution("optimal", assignment, value)
    lower = [v.lower for v in lp.variables]
    upper = [v.upper - v.lower for v in lp.variables]
    if any(u < 0 for u in upper):
        return LPSolution("infeasible")
    sense = 1 if lp.direction == "min" else -1
    costs = [sense * c for c in lp.objective]
    # Row r gets slack column n + r with coefficient +1; a '>=' row is
    # negated first.
    n = len(upper)
    rows, rhs = [], []
    for r, con in enumerate(lp.constraints):
        row = dict(con.coeffs)
        b = con.rhs - sum((a * lower[j] for j, a in row.items() if lower[j]), _ZERO)
        if con.relation == ">=":
            row, b = {j: -a for j, a in row.items()}, -b
        row[n + r] = _ONE
        rows.append(row)
        rhs.append(b)

    simplex = _Simplex(rows, rhs, upper + [None] * len(rows), costs + [_ZERO] * len(rows))
    if not simplex.solve():
        return LPSolution("infeasible")
    assignment = {v.name: v.lower + x for v, x in zip(lp.variables, simplex.x)}
    _verify_solution(lp, assignment)
    return LPSolution("optimal", assignment, _objective_value(lp, assignment))


def _objective_value(lp: LinearProgram, assignment: dict[str, Fraction]) -> Fraction:
    return sum((c * assignment[v.name] for c, v in zip(lp.objective, lp.variables)), _ZERO)


def solve_ilp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Depth-first branch and bound over LP relaxations, with every variable
    integral.

    ``certificate`` is an optional ``(point, duals)`` pair for the root
    relaxation alone, passed to `solve_lp`: a certified root is an LP optimum
    with no simplex, and when it is integral the search ends there.  Nodes
    below the root are solved without one.

    A row of integer coefficients has an integral left-hand side, so its
    right-hand side is rounded first (up for ``>=``, down for ``<=``), which
    cuts off the half votes of a weak threshold before any branching.  A
    certificate is made for the program as given, so a rounding drops it.

    A node is ``lp`` with tightened bounds, and the stack holds the node
    programs themselves: each child is its parent with one `Variable`
    replaced.  Branches on the fractional variable whose value has the
    largest denominator (ties to the smallest index), explores the nearer
    integer side first, and prunes against the best incumbent.  Bounds and
    incumbents are compared as ``sense * value`` (``sense`` is -1 for
    ``max``), so smaller is better in both directions.  When every objective
    coefficient is an integer, relaxation bounds are rounded before pruning.
    """
    rows = tuple(
        con._replace(rhs=Fraction(math.ceil(con.rhs) if con.relation == ">=" else math.floor(con.rhs)))
        if con.rhs.denominator != 1 and all(a.denominator == 1 for _, a in con.coeffs)
        else con
        for con in lp.constraints
    )
    if rows != lp.constraints:
        lp, certificate = lp._replace(constraints=rows), None
    sense = 1 if lp.direction == "min" else -1
    can_round = all(c.denominator == 1 for c in lp.objective)

    best: LPSolution | None = None
    stack = [lp]
    while stack:
        node = stack.pop()
        sol = solve_lp(node, certificate)
        certificate = None  # nodes below the root get none
        if sol.status == "infeasible":
            continue
        if best is not None:
            bound = sense * sol.objective_value
            if (math.ceil(bound) if can_round else bound) >= sense * best.objective_value:
                continue
        fractional = [
            (i, value)
            for i, var in enumerate(node.variables)
            if (value := sol.assignment[var.name]).denominator != 1
        ]
        if not fractional:
            best = sol
            continue
        idx, val = max(fractional, key=lambda item: (item[1].denominator, -item[0]))
        name, lo, hi = node.variables[idx]
        floor_val = Fraction(math.floor(val))
        head, tail = node.variables[:idx], node.variables[idx + 1:]
        # the same names, so nothing to check
        down = node._replace(variables=head + (Variable(name, lo, floor_val),) + tail)
        up = node._replace(variables=head + (Variable(name, floor_val + 1, hi),) + tail)
        if val - floor_val <= Fraction(1, 2):
            stack.append(up)
            stack.append(down)  # nearer side explored first (LIFO)
        else:
            stack.append(down)
            stack.append(up)
    return best if best is not None else LPSolution("infeasible")
