"""Exact linear and integer programming over rationals.

One bounded dual simplex on boxed programs, ``lower <= x <= upper`` with
both bounds finite and every row ``<=`` or ``>=``, plus a depth-first
branch-and-bound wrapper for pure integer programs, in which every
variable is integral.  Every score program is boxed, since each of its
variables counts voters, and a boxed program is either infeasible or has an
optimum.  Column j of the simplex is variable j minus its lower bound, so
it ranges over ``[0, upper - lower]``.  Every row starts basic in its own
slack and every column at the bound its cost prefers, which is dual
feasible, so there is one phase and no artificial column.  Each step
leaves on the row furthest outside its bounds, and its ratio test flips a
boxed column to its other bound instead of entering it while the row stays
short (the bound-flipping or long-step test); the step after a degenerate
one falls back to Bland's rule in dual form, which keeps the search finite
(see `_Simplex`).  Branch and bound starts each child from its parent's
final simplex with one column's bounds moved.  Every coefficient is a
Fraction, so feasibility and optimality hold exactly; there is no tolerance
anywhere.  Every optimum is checked by substitution and proved by the final
basis's multipliers through `dual_bound`.  The program types are named
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
    cost has the right sign from the start.  Each row is a dict of its
    nonzero entries, column -> coefficient, so the ratio test reads only the
    pivot row, and a pivot touches only the rows that hold the entering
    column.  `basis` holds the basic column of each row, `x` the value of
    every column and `z` the reduced cost of every column.  A nonbasic
    column sits at 0 or at its upper bound, so a nonzero value marks the
    upper one.  Program columns are boxed; a slack's upper bound is None,
    since no row bounds its surplus.

    Each step takes the basic column that lies furthest outside its bounds
    (ties to the smallest index) and moves it to the bound it violates.  The
    ratio test walks the nonbasic columns of its row in the order their
    reduced costs reach zero, ties to the smallest index, and passes a boxed
    column whose flip to its other bound still leaves the row short of that
    bound: the flip moves the basic values, and the next column enters.  A
    row that passes every column proves the program infeasible.  The step
    right after a degenerate one (entering ratio 0) is a Bland step: the
    basic column of smallest index outside its bounds leaves, and the first
    column to reach zero enters, with no flip.  That keeps the search
    finite.  The dual objective never falls, and rises on every step of
    nonzero ratio, so a cycle is made of degenerate steps alone; every step
    of it would follow a degenerate one and so be a Bland step, and Bland's
    rule in dual form cannot cycle.

    Branch and bound starts a child from a `copy` of its parent's final
    state, with one column's bounds moved by `bound`: the reduced costs are
    untouched, so the start stays dual feasible and the same loop repairs
    the basic values.
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

    def copy(self) -> _Simplex:
        other = object.__new__(_Simplex)
        other.rows = [dict(row) for row in self.rows]
        other.upper, other.z, other.basis, other.x = self.upper[:], self.z[:], self.basis[:], self.x[:]
        return other

    def bound(self, j: int, lower: Fraction, upper: Fraction) -> bool:
        """Narrow column j to [lower, upper] in its current units, and make
        lower its new 0; False when the bounds cross.  A nonbasic column that
        falls outside moves to the bound it sat at."""
        if upper < lower:
            return False
        x = self.x
        x[j] -= lower
        self.upper[j] = upper = upper - lower
        if j not in self.basis and not 0 <= x[j] <= upper:
            self._move(((j, (_ZERO if x[j] < 0 else upper) - x[j]),))
        return True

    def _move(self, moves) -> None:
        """Move each nonbasic column j by d, for (j, d) in moves, and the
        basic values with them."""
        x = self.x
        for j, d in moves:
            x[j] += d
        for col, row in zip(self.basis, self.rows):
            for j, d in moves:
                a = row.get(j)
                if a is not None:
                    x[col] -= a * d

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

    def _leaving_row(self, bland: bool) -> int:
        """The row whose basic column leaves, or -1 when every basic column
        is within its bounds: the furthest outside, or with ``bland`` the
        smallest column outside, ties to the smallest column."""
        x, upper = self.x, self.upper
        r, leave, worst = -1, -1, _ZERO
        for i, col in enumerate(self.basis):
            value, ub = x[col], upper[col]
            if value < 0:
                gap = -value
            elif ub is not None and value > ub:
                gap = value - ub
            else:
                continue
            if leave < 0 or (col < leave if bland or gap == worst else gap > worst):
                r, leave, worst = i, col, gap
        return r

    def solve(self) -> bool:
        """Pivot until every basic column is within its bounds; False when a
        row shows that none of its values is reachable (infeasible)."""
        x, upper, z = self.x, self.upper, self.z
        bland = False
        while True:
            r = self._leaving_row(bland)
            if r < 0:
                return True
            leave, row = self.basis[r], self.rows[r]
            to_upper = x[leave] > 0
            target = upper[leave] if to_upper else _ZERO
            # Moving an eligible column off its bound moves `leave` towards
            # `target`; the first reduced cost to reach zero decides.  Fixed
            # columns are skipped first, so a nonzero value is the upper bound.
            enter, ratio, breakpoints = -1, None, []
            for j, a in row.items():
                if j == leave or upper[j] == 0 or ((a > 0) != to_upper) != (x[j] != 0):
                    continue
                t = abs(z[j] / a)
                breakpoints.append((t, j, a))
                if ratio is None or t < ratio or (t == ratio and j < enter):
                    enter, ratio = j, t
            if enter < 0:
                return False
            step = (x[leave] - target) / row[enter]
            if not bland and upper[enter] is not None and abs(step) > upper[enter]:
                # Entering would carry the column past its other bound: pass
                # breakpoints while a flip leaves the row short.
                short, flips = abs(x[leave] - target), []
                for ratio, enter, a in sorted(breakpoints):
                    u = upper[enter]
                    if u is None or abs(a) * u >= short:
                        break
                    short -= abs(a) * u
                    flips.append((enter, -u if x[enter] else u))
                else:
                    return False
                self._move(flips)
                step = (x[leave] - target) / row[enter]
            for col, other in zip(self.basis, self.rows):
                a = other.get(enter)
                if a is not None:
                    x[col] -= a * step
            x[leave] = target
            x[enter] += step
            self.basis[r] = enter
            self._pivot(r, enter)
            bland = ratio == 0


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
        if r and (bound := var.lower if r > 0 else var.upper):
            total += r * bound
    return sense * total


def _start(lp: LinearProgram) -> _Simplex | None:
    """The slack-basis simplex of lp, or None when a column's bounds cross.

    Column j is variable j minus its lower bound, of width upper - lower.
    Row r gets slack column n + r with coefficient +1; a '>=' row is
    negated first.
    """
    lower = [v.lower for v in lp.variables]
    upper = [v.upper - v.lower if v.lower else v.upper for v in lp.variables]
    if any(u < 0 for u in upper):
        return None
    costs = list(lp.objective) if lp.direction == "min" else [-c for c in lp.objective]
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
    return _Simplex(rows, rhs, upper + [None] * len(rows), costs + [_ZERO] * len(rows))


def solve_lp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Solve exactly; an optimum is re-verified by substitution and proved by
    the final basis's duals.

    ``certificate`` is an optional ``(point, duals)`` pair: a value per
    variable and a multiplier per constraint.  An infeasible point is a
    caller's bug and raises.  A feasible point whose value equals
    ``dual_bound(lp, duals)`` is optimal and is returned at once; any other
    certificate is ignored.  `solve_ilp` passes a `_Simplex` instead: a
    dual feasible start for lp, which is solved from there and left in its
    final state.

    Crossed bounds make the program infeasible.  The reduced costs of the
    slacks are the final basis's multipliers, one per constraint; an
    optimum whose value they do not prove raises, as a point that breaks a
    row does.
    """
    if type(certificate) is _Simplex:
        simplex = certificate
    else:
        if certificate is not None:
            point, duals = certificate
            if len(point) != len(lp.variables):
                raise ValueError("one value per variable expected")
            assignment = {v.name: frac(x) for v, x in zip(lp.variables, point)}
            _verify_solution(lp, assignment)
            value = _objective_value(lp, assignment)
            if value == dual_bound(lp, duals):
                return LPSolution("optimal", assignment, value)
        simplex = _start(lp)
    if simplex is None or not simplex.solve():
        return LPSolution("infeasible")
    assignment = {v.name: v.lower + x if v.lower else x for v, x in zip(lp.variables, simplex.x)}
    _verify_solution(lp, assignment)
    value = _objective_value(lp, assignment)
    if dual_bound(lp, simplex.z[len(lp.variables):]) != value:
        raise RuntimeError("internal: the final basis's duals do not prove the optimum")
    return LPSolution("optimal", assignment, value)


def _objective_value(lp: LinearProgram, assignment: dict[str, Fraction]) -> Fraction:
    return sum((c * x for c, v in zip(lp.objective, lp.variables) if (x := assignment[v.name])), _ZERO)


def solve_ilp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Depth-first branch and bound over LP relaxations, with every variable
    integral.

    ``certificate`` is an optional ``(point, duals)`` pair for the root
    relaxation alone, passed to `solve_lp`: a certified root is an LP optimum
    with no simplex, and when it is integral the search ends there.

    A row of integer coefficients has an integral left-hand side, so its
    right-hand side is rounded first (up for ``>=``, down for ``<=``), which
    cuts off the half votes of a weak threshold before any branching.  A
    certificate is made for the program as given, so a rounding drops it.

    A node is ``lp`` with tightened bounds, and the stack holds each node
    program, a child being its parent with one `Variable` replaced, with the
    `_Simplex` its `solve_lp` call starts from.  A child starts from its
    parent's final simplex with the branched column's bounds moved, so that
    only the basic values need repair; a child of a root that had a
    certificate, which built no simplex for it, starts from the slack basis.
    Branches on the fractional variable whose value has the largest
    denominator (ties to the smallest index), explores the nearer integer
    side first, and prunes against the best incumbent.  Bounds and
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
    stack = [(lp, certificate)]
    while stack:
        node, start = stack.pop()
        if start is None:
            start = _start(node)
        sol = solve_lp(node, start)
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
        if type(start) is _Simplex:
            # down starts from a copy and up from the parent's own state; a
            # child whose bounds cross gets None, which solve_lp reports
            # infeasible without building a simplex
            down_start = start.copy()
            if not down_start.bound(idx, _ZERO, floor_val - lo):
                down_start = None
            up_start = start if start.bound(idx, floor_val + 1 - lo, hi - lo) else None
        else:
            down_start = up_start = None
        if val - floor_val <= Fraction(1, 2):
            stack.append((up, up_start))
            stack.append((down, down_start))  # nearer side explored first (LIFO)
        else:
            stack.append((down, down_start))
            stack.append((up, up_start))
    return best if best is not None else LPSolution("infeasible")
