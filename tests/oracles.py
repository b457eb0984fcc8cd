"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

from dodgsonyoung import Graph, Profile, gain_matrix, graph, set_family, tally
from dodgsonyoung.exact import majority_threshold
from dodgsonyoung.lp import LinearProgram, linear_program, solve_lp

CANDIDATE_POOL = ("a", "b", "c", "d", "e", "f")
INF = float("inf")


def dense(con, n: int) -> list[Fraction]:
    """A constraint's coefficients as a dense list over n variables, zeros included."""
    row = [Fraction(0)] * n
    for j, a in con.coeffs:
        row[j] = a
    return row


def sparse(row) -> dict:
    """A dense row as the ``{column: coefficient}`` mapping a `Constraint` takes;
    the reverse of `dense`.  Zeros are kept, for the constraint to check and drop."""
    return dict(enumerate(row))


def ic_grid(seed: int) -> list[Profile]:
    """The six ic-distinct benchmark cells (k 4-6, n 15-31) drawn from
    ``random.Random(seed)``: every order distinct."""
    rng = random.Random(seed)
    profiles = []
    for k, n in ((4, 15), (4, 23), (5, 15), (5, 31), (6, 15), (6, 31)):
        candidates = tuple("abcdef"[:k])
        orders = rng.sample(list(permutations(candidates)), n)
        profiles.append(Profile(candidates, tuple((order, 1) for order in orders)))
    return profiles


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


def grid_solve_ilp(lp: LinearProgram):
    """Exhaustive grid enumeration over the integral lattice; None if infeasible."""
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
    rows = [dense(con, len(lp.variables)) for con in lp.constraints]
    for point in product(*ranges):
        ok = True
        for con, coeffs in zip(lp.constraints, rows):
            lhs = sum(a * x for a, x in zip(coeffs, point))
            if not (lhs <= con.rhs if con.relation == "<=" else lhs >= con.rhs):
                ok = False
                break
        if not ok:
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or (value > best if maximize else value < best):
            best = value
    return best


def _rows(coeffs, rel, rhs):
    """The rows of one drawn constraint: an ``=`` draw is a ``<=`` row and a
    ``>=`` row, since programs have no ``=`` rows."""
    return [(sparse(coeffs), r, rhs) for r in (("<=", ">=") if rel == "=" else (rel,))]


def random_bounded_ilp(rng: random.Random, max_vars: int = 12, max_range: int = 6,
                       max_grid: int = 4096) -> LinearProgram:
    nv = rng.randint(1, max_vars)
    variables = []
    budget = max_grid
    for _ in range(nv):
        cap = max_range
        while cap > 0 and (cap + 1) > budget:
            cap -= 1
        size = rng.randint(0, cap)
        budget //= size + 1
        lo = rng.randint(-3, 2)
        variables.append((lo, lo + size))
    objective = [rng.randint(-5, 5) for _ in range(nv)]
    anchor = [rng.randint(lo, hi) for lo, hi in variables]
    constraints = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [rng.choice((0, 0, 1, -1, 2, -2, 3, -3, 4, -4)) for _ in range(nv)]
        rel = rng.choice(("<=", ">=", "="))
        rhs = sum(a * x for a, x in zip(coeffs, anchor)) + rng.randint(-3, 3)
        constraints += _rows(coeffs, rel, rhs)
    return linear_program(rng.choice(("min", "max")), variables, objective, constraints)


def random_lp(rng: random.Random, max_vars: int = 5, max_rows: int = 4, min_width: int = 0) -> LinearProgram:
    nv = rng.randint(1, max_vars)
    variables = []
    for _ in range(nv):
        lo = rng.randint(-4, 1)
        hi = lo + rng.randint(min_width, 7)
        variables.append((lo, hi))
    objective = [rng.randint(-5, 5) for _ in range(nv)]
    constraints = []
    for _ in range(rng.randint(0, max_rows)):
        coeffs = [rng.randint(-4, 4) for _ in range(nv)]
        rel = rng.choice(("<=", ">=", "="))
        rhs = rng.randint(-8, 8)
        constraints += _rows(coeffs, rel, rhs)
    return linear_program(rng.choice(("min", "max")), variables, objective, constraints)


def _float_program(lp: LinearProgram):
    """lp as a float minimisation: (sense, costs, bounds, rows of (coeffs, low, high))."""
    sense = 1 if lp.direction == "min" else -1
    costs = [sense * float(x) for x in lp.objective]
    bounds = [(float(v.lower), float(v.upper)) for v in lp.variables]
    rows = []
    for con in lp.constraints:
        rhs = float(con.rhs)
        low, high = (-INF, rhs) if con.relation == "<=" else (rhs, INF)
        rows.append(([float(x) for x in dense(con, len(lp.variables))], low, high))
    return sense, costs, bounds, rows


def scipy_linprog(scipy_opt, lp: LinearProgram):
    """HiGHS on the same program as a minimisation: returns (sense, result)."""
    sense, costs, bounds, rows = _float_program(lp)
    a_ub, b_ub = [], []
    for coeffs, low, high in rows:
        if high < INF:
            a_ub.append(coeffs)
            b_ub.append(high)
        else:
            a_ub.append([-x for x in coeffs])
            b_ub.append(-low)
    res = scipy_opt.linprog(
        costs,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        bounds=bounds,
        method="highs",
    )
    return sense, res


def scipy_milp(scipy_opt, lp: LinearProgram):
    """HiGHS branch and cut on the same program with every variable integral:
    returns (sense, result)."""
    sense, costs, bounds, rows = _float_program(lp)
    box = scipy_opt.Bounds([low for low, _ in bounds], [high for _, high in bounds])
    constraints = None
    if rows:
        coeffs, lows, highs = zip(*rows)
        constraints = scipy_opt.LinearConstraint(list(coeffs), list(lows), list(highs))
    res = scipy_opt.milp(costs, integrality=[1] * len(costs), bounds=box, constraints=constraints)
    return sense, res


def per_order_dodgson_rows(profile: Profile, c: str, *, weak: bool):
    """Reference lift program with no merging: one column per distinct order g
    and lift j, a capacity row per order that can lift c, and one majority row
    per rival still short of the threshold."""
    table, baseline = gain_matrix(profile, c)
    n = profile.num_voters
    thr = Fraction(n, 2) if weak else majority_threshold(n)
    # Lifting c j positions passes the j rivals just above it.
    cols = [
        (g, j, frozenset(order[order.index(c) - j : order.index(c)]))
        for g, (order, _) in enumerate(table)
        for j in range(1, order.index(c) + 1)
    ]
    variables = [(0, table[g][1]) for g, _, _ in cols]
    objective = [j for _, j, _ in cols]
    constraints = [
        (sparse(1 if h == g else 0 for h, _, _ in cols), "<=", count)
        for g, (order, count) in enumerate(table)
        if order.index(c)
    ]
    for k, have in baseline.items():
        if thr > have:
            constraints.append((sparse(1 if k in gains else 0 for _, _, gains in cols), ">=", thr - have))
    return variables, objective, constraints


def short_rivals(profile: Profile, c: str, *, weak: bool) -> tuple[str, ...]:
    """The rivals that fewer voters than the threshold (n // 2 + 1, or n/2 when
    ``weak``) put below c, read from the tally, in candidate order."""
    counts = tally(profile)
    thr = Fraction(profile.num_voters, 2) if weak else majority_threshold(profile.num_voters)
    return tuple(k for k in profile.candidates if k != c and counts.count(c, k) < thr)


def per_order_young_rows(profile: Profile, c: str, *, weak: bool):
    """Reference keep program with no merging: one column per distinct order
    and one row per rival."""
    counts: dict = {}
    for order, mult in profile.voters:
        counts[order] = counts.get(order, 0) + mult
    variables = [(0, count) for count in counts.values()]
    constraints = [
        (sparse(1 if order.index(c) < order.index(k) else -1 for order in counts), ">=", 0 if weak else 1)
        for k in profile.candidates
        if k != c
    ]
    return variables, [1] * len(counts), constraints


def dodgson_score_dp(profile: Profile, c: str, cap: int = 200_000) -> int:
    """Reference Dodgson score by a dynamic program over the rivals' deficits,
    sharing nothing with the lift rows or the ILP.

    A rival k is short by n // 2 + 1 - N(c, k) voters.  An optimal set of
    swaps lifts c some positions in each voter, and may as well stop each
    lift just above a rival that is still short when that voter is reached:
    passing a rival that is no longer short gains nothing.  So the voters are
    taken one at a time, by distinct order, and each either stays or lifts c
    just above one short rival, at a cost of the positions it climbs; the
    state is the vector of deficits left, and its minimum cost is kept.  An
    order takes at most as many lifts as the deficits sum to.  Raises
    ValueError when the product of (deficit + 1) over the rivals, which bounds
    the number of states, exceeds ``cap``.
    """
    counts = tally(profile)
    need = profile.num_voters // 2 + 1
    short = [k for k in profile.candidates if k != c and counts.count(c, k) < need]
    start = tuple(need - counts.count(c, k) for k in short)
    states = prod(d + 1 for d in start)
    if states > cap:
        raise ValueError(f"{states} deficit states exceed the cap {cap}")
    index = {k: i for i, k in enumerate(short)}
    orders: dict = {}
    for order, mult in profile.voters:
        orders[order] = orders.get(order, 0) + mult
    best = {start: 0}
    for order, count in orders.items():
        pos = order.index(c)
        # One lift per short rival above c: its cost and the short rivals it
        # passes, the target last.
        lifts = []
        for top in range(pos - 1, -1, -1):
            if order[top] in index:
                passed = [index[k] for k in reversed(order[top:pos]) if k in index]
                lifts.append((pos - top, passed))
        for _ in range(min(count, sum(start))):
            after = dict(best)
            for state, cost in best.items():
                for lift, passed in lifts:
                    if not state[passed[-1]]:
                        continue
                    left = list(state)
                    for i in passed:
                        left[i] = max(left[i] - 1, 0)
                    left, total = tuple(left), cost + lift
                    if after.get(left, total + 1) > total:
                        after[left] = total
            best = after
    return best[(0,) * len(short)]


def per_voter_dodgson_star(profile: Profile, c: str) -> Fraction:
    """Reference Dodgson*: the lift-fraction LP with one row per expanded voter.

    The column of (i, j) is the share of voter i's replicas lifting c by j
    positions (j=0 stays put); each voter's shares sum to 1 (a ``<=`` and a ``>=`` row), and
    every rival needs n/2 voters preferring c.
    """
    orders = profile.expanded()
    variables, objective, meta = [], [], []
    for i, order in enumerate(orders):
        for j in range(order.index(c) + 1):
            variables.append((0, 1))
            objective.append(j)
            meta.append((i, j))
    constraints = [
        (sparse(1 if vi == i else 0 for vi, _ in meta), relation, 1)
        for i in range(len(orders))
        for relation in ("<=", ">=")
    ]
    for k in profile.candidates:
        if k == c:
            continue
        baseline = sum(1 for order in orders if order.index(c) < order.index(k))
        coeffs = []
        for i, j in meta:
            idx = orders[i].index(c)
            coeffs.append(1 if idx - j <= orders[i].index(k) < idx else 0)
        constraints.append((sparse(coeffs), ">=", Fraction(len(orders), 2) - baseline))
    return solve_lp(linear_program("min", variables, objective, constraints)).objective_value


def per_voter_young_star(profile: Profile, c: str) -> Fraction:
    """Reference Young*: the keep-weight LP with one column in [0, 1] per expanded voter."""
    orders = profile.expanded()
    variables = [(0, 1)] * len(orders)
    constraints = [
        (sparse(1 if order.index(c) < order.index(k) else -1 for order in orders), ">=", 0)
        for k in profile.candidates
        if k != c
    ]
    return solve_lp(linear_program("max", variables, [1] * len(orders), constraints)).objective_value


def parse_frac(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
