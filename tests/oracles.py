"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from dodgsonyoung import Graph, Profile, graph, set_family
from dodgsonyoung.lp import IntegerProgram, LinearProgram, Variable, linear_program, solve_lp

CANDIDATE_POOL = ("a", "b", "c", "d", "e", "f")
INF = float("inf")


def random_profile(rng: random.Random, max_candidates: int, max_voters: int,
                   min_candidates: int = 2, min_voters: int = 1) -> Profile:
    k = rng.randint(min_candidates, max_candidates)
    n = rng.randint(min_voters, max_voters)
    candidates = CANDIDATE_POOL[:k]
    entries = []
    for _ in range(n):
        order = list(candidates)
        rng.shuffle(order)
        entries.append((tuple(order), 1))
    return Profile(candidates, tuple(entries))


def random_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    # attach every isolated vertex somewhere
    for i in range(n):
        if not any(i in e for e in edges):
            j = (i + 1) % n
            edges.add((min(i, j), max(i, j)))
    return graph(vertices, [(vertices[i], vertices[j]) for i, j in sorted(edges)])


def random_packing_family(rng: random.Random, kappa_target: int, max_base: int = 8,
                          max_sets: int = 4):
    """Family over <= max_base elements with maximum packing exactly kappa_target.

    kappa_target chunks partition the ground set, so any extra set intersects
    some chunk and cannot enlarge the packing.
    """
    assert kappa_target <= max_sets
    base_size = rng.randint(kappa_target, max_base)
    base = [f"e{i}" for i in range(base_size)]
    shuffled = base[:]
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, base_size), kappa_target - 1)) if kappa_target > 1 else []
    chunks = []
    prev = 0
    for cut in cuts + [base_size]:
        chunks.append(shuffled[prev:cut])
        prev = cut
    family = [sorted(chunk) for chunk in chunks]
    for _ in range(rng.randint(0, max_sets - kappa_target)):
        size = rng.randint(1, base_size)
        family.append(sorted(rng.sample(base, size)))
    rng.shuffle(family)
    return set_family(base, family)


def grid_solve_ilp(ip: IntegerProgram):
    """Exhaustive grid enumeration over the integral lattice; None if infeasible.

    Only valid when every variable is integral with finite bounds.
    """
    lp = ip.base
    ranges = []
    for var in lp.variables:
        lo = var.lower
        hi = var.upper
        lo_int = -(-lo.numerator // lo.denominator)  # ceil
        hi_int = hi.numerator // hi.denominator  # floor
        if lo_int > hi_int:
            return None
        ranges.append(range(lo_int, hi_int + 1))
    best = None
    maximize = lp.direction == "max"
    for point in product(*ranges):
        ok = True
        for con in lp.constraints:
            lhs = sum(a * x for a, x in zip(con.coeffs, point))
            if con.relation == "<=" and not lhs <= con.rhs:
                ok = False
            elif con.relation == ">=" and not lhs >= con.rhs:
                ok = False
            elif con.relation == "=" and not lhs == con.rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or (value > best if maximize else value < best):
            best = value
    return best


def random_bounded_ilp(rng: random.Random, max_vars: int = 12, max_range: int = 6,
                       max_grid: int = 4096) -> IntegerProgram:
    nv = rng.randint(1, max_vars)
    ranges = []
    budget = max_grid
    for _ in range(nv):
        cap = max_range
        while cap > 0 and (cap + 1) > budget:
            cap -= 1
        size = rng.randint(0, cap)
        budget //= size + 1
        lo = rng.randint(-3, 2)
        ranges.append((lo, lo + size))
    variables = [(f"v{i}", lo, hi) for i, (lo, hi) in enumerate(ranges)]
    objective = [rng.randint(-5, 5) for _ in range(nv)]
    anchor = [rng.randint(lo, hi) for lo, hi in ranges]
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.choice((0, 0, 1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(nv)]
        rel = rng.choice(("<=", ">=", "="))
        rhs = sum(a * x for a, x in zip(coeffs, anchor)) + rng.randint(-3, 3)
        constraints.append((coeffs, rel, rhs))
    lp = linear_program(rng.choice(("min", "max")), variables, objective, constraints)
    return IntegerProgram(lp, frozenset(name for name, _, _ in variables))


def random_lp(rng: random.Random, max_vars: int = 5) -> LinearProgram:
    nv = rng.randint(1, max_vars)
    variables = []
    for i in range(nv):
        lo = rng.randint(-4, 1)
        hi = lo + rng.randint(0, 7)
        variables.append((f"v{i}", lo, hi))
    objective = [rng.randint(-5, 5) for _ in range(nv)]
    constraints = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [rng.randint(-4, 4) for _ in range(nv)]
        rel = rng.choice(("<=", ">=", "="))
        rhs = rng.randint(-8, 8)
        constraints.append((coeffs, rel, rhs))
    return linear_program(rng.choice(("min", "max")), variables, objective, constraints)


def random_lp_any_bounds(rng: random.Random, max_vars: int = 4) -> LinearProgram:
    """`random_lp` with each upper bound dropped with probability 1/2: variables
    are boxed (fixed when the box is a point) or bounded below only."""
    lp = random_lp(rng, max_vars)
    variables = tuple(Variable(v.name, v.lower, rng.choice((v.upper, None))) for v in lp.variables)
    return LinearProgram(lp.direction, variables, lp.objective, lp.constraints)


def _float_program(lp: LinearProgram):
    """lp as a float minimisation: (sense, costs, bounds, rows of (coeffs, low, high))."""
    sense = 1 if lp.direction == "min" else -1
    costs = [sense * float(x) for x in lp.objective]
    bounds = [(float(v.lower), None if v.upper is None else float(v.upper)) for v in lp.variables]
    rows = []
    for con in lp.constraints:
        rhs = float(con.rhs)
        low, high = {"<=": (-INF, rhs), ">=": (rhs, INF), "=": (rhs, rhs)}[con.relation]
        rows.append(([float(x) for x in con.coeffs], low, high))
    return sense, costs, bounds, rows


def scipy_linprog(scipy_opt, lp: LinearProgram):
    """HiGHS on the same program as a minimisation: returns (sense, result)."""
    sense, costs, bounds, rows = _float_program(lp)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, low, high in rows:
        if low == high:
            a_eq.append(coeffs)
            b_eq.append(low)
        elif high < INF:
            a_ub.append(coeffs)
            b_ub.append(high)
        else:
            a_ub.append([-x for x in coeffs])
            b_ub.append(-low)
    res = scipy_opt.linprog(
        costs,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=bounds,
        method="highs",
    )
    return sense, res


def scipy_milp(scipy_opt, lp: LinearProgram):
    """HiGHS branch and cut on the same program with every variable integral:
    returns (sense, result)."""
    sense, costs, bounds, rows = _float_program(lp)
    box = scipy_opt.Bounds(
        [low for low, _ in bounds],
        [INF if high is None else high for _, high in bounds],
    )
    constraints = None
    if rows:
        coeffs, lows, highs = zip(*rows)
        constraints = scipy_opt.LinearConstraint(list(coeffs), list(lows), list(highs))
    res = scipy_opt.milp(costs, integrality=[1] * len(costs), bounds=box, constraints=constraints)
    return sense, res


def per_voter_dodgson_star(profile: Profile, c: str) -> Fraction:
    """Reference Dodgson*: the lift-fraction LP with one row per expanded voter.

    x[i,j] is the share of voter i's replicas lifting c by j positions (j=0
    stays put); each voter's shares sum to 1, and every rival needs n/2
    voters preferring c.
    """
    orders = profile.expanded()
    variables, objective, meta = [], [], []
    for i, order in enumerate(orders):
        for j in range(order.index(c) + 1):
            variables.append((f"x[{i + 1},{j}]", 0, 1))
            objective.append(j)
            meta.append((i, j))
    constraints = [([1 if vi == i else 0 for vi, _ in meta], "=", 1) for i in range(len(orders))]
    for k in profile.candidates:
        if k == c:
            continue
        baseline = sum(1 for order in orders if order.index(c) < order.index(k))
        coeffs = []
        for i, j in meta:
            idx = orders[i].index(c)
            coeffs.append(1 if idx - j <= orders[i].index(k) < idx else 0)
        constraints.append((coeffs, ">=", Fraction(len(orders), 2) - baseline))
    return solve_lp(linear_program("min", variables, objective, constraints)).objective_value


def per_voter_young_star(profile: Profile, c: str) -> Fraction:
    """Reference Young*: the keep-weight LP with one column y[i] in [0, 1] per expanded voter."""
    orders = profile.expanded()
    variables = [(f"y[{i + 1}]", 0, 1) for i in range(len(orders))]
    constraints = [
        ([1 if order.index(c) < order.index(k) else -1 for order in orders], ">=", 0)
        for k in profile.candidates
        if k != c
    ]
    return solve_lp(linear_program("max", variables, [1] * len(orders), constraints)).objective_value


def parse_frac(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
