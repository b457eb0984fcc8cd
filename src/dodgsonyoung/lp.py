"""Exact linear and integer programming over rationals.

One bounded dual simplex on boxed programs, ``lower <= x <= upper`` with
both bounds finite and every row ``<=`` or ``>=``, plus a depth-first
branch-and-bound wrapper for pure integer programs, in which every
variable is integral.  Every score program is boxed, since each of its
variables counts voters, and a boxed program is either infeasible or has an
optimum.  `_Simplex(lp)` starts every row basic in its own slack and every
column at the bound its cost prefers, which is dual feasible, so there is
one phase and no artificial column.  Each step leaves on the row furthest
outside its bounds, and its ratio test flips a boxed column to its other
bound instead of entering it while the row stays short (the bound-flipping
or long-step test); the step after a degenerate one falls back to Bland's
rule in dual form, which keeps the search finite (see `_Simplex`).  Branch
and bound rounds every box to integers, and each child copies its parent's
solved simplex and sets one basic column's bounds to the child's; only a
root can have crossed bounds, which `solve_lp` reports.  Every coefficient
is a Fraction, so feasibility and optimality hold exactly; there is no
tolerance anywhere.  Every optimum, from the simplex or from a certificate,
passes one check: substitution, and a value that its multipliers prove
through `dual_bound`.  The program types are named tuples that turn ints
into Fractions and reject floats in their ``__new__``.  Columns are
positional: a `Variable` is the ``(lower, upper)`` pair of its column, and
a solution's assignment is ``{column: value}`` in column order.  Programs
are sparse from end to end: a `Constraint` is built from a
``{column: coefficient}`` mapping and holds the ``(column, coefficient)``
pairs of its nonzero entries, and each simplex row starts as a dict of
them, so building and checking a program cost its nonzeros, not rows times
columns.

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


class Variable(namedtuple("Variable", "lower upper")):
    """The bounds of one column."""

    __slots__ = ()

    def __new__(cls, lower, upper):
        for side, bound in (("lower", lower), ("upper", upper)):
            if bound is None:
                raise ValueError(f"a variable needs a finite {side} bound")
        return super().__new__(cls, frac(lower), frac(upper))

    # namedtuple's `_replace` builds through `_make`, which skips `__new__`
    _make = classmethod(lambda cls, fields: cls(*fields))


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

    @classmethod
    def _make(cls, fields):  # as in Variable, with the pairs as a mapping again
        coeffs, relation, rhs = fields
        return cls(dict(coeffs), relation, rhs)


class LinearProgram(namedtuple("LinearProgram", "direction variables objective constraints")):
    """A program whose variables, objective and constraints are stored as tuples."""

    __slots__ = ()

    def __new__(cls, direction, variables, objective, constraints=()):
        if direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
        variables, constraints = tuple(variables), tuple(constraints)
        if not all(isinstance(v, Variable) for v in variables):
            raise TypeError("variables must be Variable records")
        if len(objective) != len(variables):
            raise ValueError("objective length does not match variable count")
        n = len(variables)
        for con in constraints:
            if not isinstance(con, Constraint):
                raise TypeError("constraints must be Constraint records")
            if con.coeffs and con.coeffs[-1][0] >= n:
                raise ValueError(f"constraint column {con.coeffs[-1][0]} out of range 0..{n - 1}")
        return super().__new__(cls, direction, variables, tuple(frac(c) for c in objective), constraints)

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in Variable


def linear_program(direction, variables, objective, constraints=()) -> LinearProgram:
    """Convenience constructor: variables as (lower, upper), constraints
    as (coeffs, relation, rhs) with coeffs a {column: coefficient} mapping
    (see `Constraint`)."""
    return LinearProgram(direction, (Variable(*var) for var in variables), tuple(objective),
                         (Constraint(*con) for con in constraints))


class LPSolution(namedtuple("LPSolution", "status assignment objective_value")):
    """``status`` is 'optimal' or 'infeasible'; a boxed program has no other
    outcome.  ``assignment`` maps each column to its value, in column order."""

    __slots__ = ()

    def __new__(cls, status, assignment=None, objective_value=None):
        return super().__new__(cls, status, {} if assignment is None else assignment, objective_value)


class _Simplex:
    """Bounded dual simplex on equality rows with columns in [lower, upper].

    `_Simplex(lp)` is the slack-basis start of a `LinearProgram`: column j
    keeps variable j's bounds, costs are negated for ``max``, and row r, a
    ``>=`` row negated first, gets column n + r as its slack, with a single
    entry 1 in that row.  The slacks start basic, and every other column
    starts at the bound its cost prefers (upper for a negative cost, lower
    otherwise), so every reduced cost has the right sign from the start;
    the basic values follow row by row.  Each row is a dict of its
    nonzero entries, column -> coefficient, so the ratio test reads only the
    pivot row, and a pivot touches only the rows that hold the entering
    column.  `basis` holds the basic column of each row, `x` the value of
    every column and `z` the reduced cost of every column.  A nonbasic
    column sits at its lower or its upper bound.  Program columns are boxed;
    a slack's bounds are 0 and None, since no row bounds its surplus.  Every
    change of values, a flip or an entering step, goes through `_move`, and
    every change of basis through `_pivot`.  Crossed bounds are not checked
    here: `solve_lp` reports them before it solves.

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

    Branch and bound starts a child from a `copy` of its parent's solved
    state with the bounds of one basic column set to the child's: its
    reduced cost is 0, so the start stays dual feasible and the same loop
    repairs its value.
    """

    def __init__(self, lp: LinearProgram):
        # A zero lower bound is kept as the int 0, cheaper to mix with a Fraction.
        costs = list(lp.objective) if lp.direction == "min" else [-c for c in lp.objective]
        n, m = len(costs), len(lp.constraints)
        self.rows: list[dict[int, Fraction]] = []
        rhs = []
        for r, con in enumerate(lp.constraints):
            row, b = dict(con.coeffs), con.rhs
            if con.relation == ">=":
                row, b = {j: -a for j, a in row.items()}, -b
            row[n + r] = _ONE
            self.rows.append(row)
            rhs.append(b)
        self.lower: list[Fraction | int] = [v.lower or 0 for v in lp.variables] + [0] * m
        self.upper: list[Fraction | None] = [v.upper for v in lp.variables] + [None] * m
        self.z: list[Fraction] = costs + [_ZERO] * m
        self.basis = list(range(n, n + m))
        self.x = [u if c < 0 else lo for lo, u, c in zip(self.lower, self.upper, self.z)]
        for col, row, b in zip(self.basis, self.rows, rhs):
            self.x[col] = b - sum((a * self.x[j] for j, a in row.items() if self.x[j]), _ZERO)

    def copy(self) -> _Simplex:
        other = object.__new__(_Simplex)
        other.rows = [dict(row) for row in self.rows]
        other.lower, other.upper = self.lower[:], self.upper[:]
        other.z, other.basis, other.x = self.z[:], self.basis[:], self.x[:]
        return other

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
        """Make col the basic column of row r."""
        self.basis[r] = col
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
        x, lower, upper = self.x, self.lower, self.upper
        r, leave, worst = -1, -1, _ZERO
        for i, col in enumerate(self.basis):
            value, ub = x[col], upper[col]
            if value < lower[col]:
                gap = lower[col] - value
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
        x, lower, upper, z = self.x, self.lower, self.upper, self.z
        bland = False
        while True:
            r = self._leaving_row(bland)
            if r < 0:
                return True
            leave, row = self.basis[r], self.rows[r]
            to_upper = x[leave] > lower[leave]
            target = upper[leave] if to_upper else lower[leave]
            # Moving an eligible column off its bound moves `leave` towards
            # `target`; the first reduced cost to reach zero decides.  Fixed
            # columns are skipped first, so a value off the lower bound is the upper one.
            enter, ratio, breakpoints = -1, None, []
            for j, a in row.items():
                if j == leave or upper[j] == lower[j] or ((a > 0) != to_upper) != (x[j] != lower[j]):
                    continue
                t = abs(z[j] / a)
                breakpoints.append((t, j, a))
                if ratio is None or t < ratio or (t == ratio and j < enter):
                    enter, ratio = j, t
            if enter < 0:
                return False
            step = (x[leave] - target) / row[enter]
            if not bland and upper[enter] is not None and abs(step) > upper[enter] - lower[enter]:
                # Entering would carry the column past its other bound: pass
                # breakpoints while a flip leaves the row short.
                short, flips = abs(x[leave] - target), []
                for ratio, enter, a in sorted(breakpoints):
                    width = None if upper[enter] is None else upper[enter] - lower[enter]
                    if width is None or abs(a) * width >= short:
                        break
                    short -= abs(a) * width
                    flips.append((enter, width if x[enter] == lower[enter] else -width))
                else:
                    return False
                self._move(flips)
                step = (x[leave] - target) / row[enter]
            self._move(((enter, step),))  # exact, so `leave` lands on `target`
            self._pivot(r, enter)
            bland = ratio == 0


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


def _optimal(lp: LinearProgram, values: list[Fraction], duals) -> LPSolution | None:
    """The optimum at ``values``, one per column, when the multipliers
    ``duals`` prove its value through `dual_bound`, else None.  A value
    outside its bounds or a broken row raises: every point that reaches
    here claims to be feasible."""
    for j, (var, x) in enumerate(zip(lp.variables, values)):
        if not var.lower <= x <= var.upper:
            raise RuntimeError(f"internal: bound violation on column {j}")
    for con in lp.constraints:
        lhs = sum((a * values[j] for j, a in con.coeffs if values[j]), _ZERO)
        if not (lhs <= con.rhs if con.relation == "<=" else lhs >= con.rhs):
            raise RuntimeError("internal: constraint violation in reported solution")
    value = sum((c * x for c, x in zip(lp.objective, values) if x), _ZERO)
    if dual_bound(lp, duals) != value:
        return None
    return LPSolution("optimal", dict(enumerate(values)), value)


def solve_lp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Solve exactly; every optimum, certified or from the simplex, passes
    the one check `_optimal`: substitution, and a value its multipliers prove.

    ``certificate`` is an optional ``(point, duals)`` pair: a value per
    variable and a multiplier per constraint.  An infeasible point is a
    caller's bug and raises.  A feasible point whose value equals
    ``dual_bound(lp, duals)`` is optimal and is returned at once; any other
    certificate is ignored.  `solve_ilp` passes a `_Simplex` instead: a
    dual feasible start for lp, which is solved from there and left in its
    final state.

    Crossed bounds, which a branch-and-bound child never has, are checked
    here alone, before any simplex solves: the program is infeasible.  The
    reduced costs of the slacks are the final basis's multipliers, one per
    constraint; an optimum whose value they do not prove raises, as a point
    that breaks a row does.
    """
    if certificate is not None and type(certificate) is not _Simplex:
        point, duals = certificate
        if len(point) != len(lp.variables):
            raise ValueError("one value per variable expected")
        sol = _optimal(lp, [frac(x) for x in point], duals)
        if sol is not None:
            return sol
    if any(v.upper < v.lower for v in lp.variables):
        return LPSolution("infeasible")
    simplex = certificate if type(certificate) is _Simplex else _Simplex(lp)
    if not simplex.solve():
        return LPSolution("infeasible")
    values = [x or _ZERO for x in simplex.x[:len(lp.variables)]]  # no int 0 leaves the simplex
    sol = _optimal(lp, values, simplex.z[len(values):])
    if sol is None:
        raise RuntimeError("internal: the final basis's duals do not prove the optimum")
    return sol


def solve_ilp(lp: LinearProgram, certificate=None) -> LPSolution:
    """Depth-first branch and bound over LP relaxations, with every variable
    integral.

    ``certificate`` is an optional ``(point, duals)`` pair for the root
    relaxation alone, passed to `solve_lp`: a certified root is an LP optimum
    with no simplex, and when it is integral the search ends there.

    A row of integer coefficients has an integral left-hand side, so its
    right-hand side is rounded first (up for ``>=``, down for ``<=``), which
    cuts off the half votes of a weak threshold before any branching; each
    box is rounded inward too, to ``[ceil(lower), floor(upper)]``.  A
    certificate is made for the program as given, so a rounding drops it.

    A node is ``lp`` with tightened bounds, and the stack holds each node
    program, a child being its parent with one `Variable` replaced, with the
    `_Simplex` its `solve_lp` call starts from.  A node branches only from
    the simplex that solved it, whose nonbasic columns sit at integral
    bounds: the fractional column is basic, and each child copies the
    simplex and sets that column's bounds, which never cross.  A root given
    a certificate has no simplex, so before it branches it is pushed back
    once with `_Simplex(node)`.  Branches on the fractional variable whose
    value has the largest denominator (ties to the smallest index), explores
    the nearer integer side first, and prunes against the best incumbent.
    Bounds and incumbents are compared as ``sense * value`` (``sense`` is -1
    for ``max``), so smaller is better in both directions.  When every
    objective coefficient is an integer, relaxation bounds are rounded
    before pruning.
    """
    rows = tuple(
        con._replace(rhs=Fraction(math.ceil(con.rhs) if con.relation == ">=" else math.floor(con.rhs)))
        if con.rhs.denominator != 1 and all(a.denominator == 1 for _, a in con.coeffs)
        else con
        for con in lp.constraints
    )
    box = tuple(var if var.lower.denominator == var.upper.denominator == 1
                else Variable(math.ceil(var.lower), math.floor(var.upper)) for var in lp.variables)
    if rows != lp.constraints or box != lp.variables:
        lp, certificate = lp._replace(variables=box, constraints=rows), None
    sense = 1 if lp.direction == "min" else -1
    can_round = all(c.denominator == 1 for c in lp.objective)

    best: LPSolution | None = None
    stack = [(lp, _Simplex(lp) if certificate is None else certificate)]
    while stack:
        node, start = stack.pop()
        sol = solve_lp(node, start)
        if sol.status == "infeasible":
            continue
        if best is not None:
            bound = sense * sol.objective_value
            if (math.ceil(bound) if can_round else bound) >= sense * best.objective_value:
                continue
        fractional = [(i, value) for i, value in sol.assignment.items() if value.denominator != 1]
        if not fractional:
            best = sol
            continue
        if type(start) is not _Simplex:  # a root given a certificate: solve it, then branch
            stack.append((node, _Simplex(node)))
            continue
        idx, val = max(fractional, key=lambda item: (item[1].denominator, -item[0]))
        lo, hi = node.variables[idx]
        floor_val = Fraction(math.floor(val))
        head, tail = node.variables[:idx], node.variables[idx + 1:]
        # down starts from a copy and up from the parent's own state; the
        # nearer side is pushed last, so it is explored first (LIFO)
        children = [(lo, floor_val, start.copy()), (floor_val + 1, hi, start)]
        if val - floor_val <= Fraction(1, 2):
            children.reverse()
        for lower, upper, child in children:
            child.lower[idx], child.upper[idx] = lower, upper
            stack.append((node._replace(variables=head + (Variable(lower, upper),) + tail), child))
    return best if best is not None else LPSolution("infeasible")
