"""Exact Dodgson and Young scores, their decision problems, and independent
brute-force oracles.

Each score has one program, built by :func:`dodgson_rows` or
:func:`young_rows`.  A program sees an order only through a small key: the
rivals c beats in it (Young) or the short rivals above c, nearest first,
with their distances (Dodgson; a rival is short while c lacks the threshold
against it).  Orders with the same key form one group, and each group has
one bounded variable (per lift, for Dodgson) counting its voters, so there
are at most 2^(k-1) Young columns; Young rival rows that coincide are kept
once, and a Dodgson lift is kept only when it ends just above a short
rival.  This presolve is exact for the ILP and the LP, since a group's
value splits back over its orders; witnesses are split back that way and
stay per distinct order.  The exact score solves the program as an ILP at
the strict majority threshold; its LP relaxation at the weak threshold is
the starred score of :mod:`homogeneous`.  All four scores take the one step
:func:`solve_program`: certify, solve, read the status and split the
witness.  Exact Young certifies with :func:`young_certificate`, so that when
the one-row bound min(n, 2 N(c,k) - 1) is met by an integral point no
simplex is built; exact Dodgson passes no certificate.  The oracle routes
never touch the ILP machinery: Dodgson is a shortest-path search over the
literal adjacent-swap graph, Young an exhaustive subset enumeration.
Winner and Ranking are the methods of a :class:`Scheme` row, ``DODGSON``
or ``YOUNG``.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import CapExceededError
from .lp import LinearProgram, linear_program, solve_ilp
from .profiles import CandidateId, PreferenceOrder, Profile, condorcet_winner, tally


# Largest profiles the brute-force oracles accept: the swap-graph search
# (Dodgson) and the subset enumeration (Young).
SWAP_MAX_VOTERS = 5
SWAP_MAX_CANDIDATES = 5
SUBSET_MAX_VOTERS = 22


def _require_candidate(profile: Profile, c: CandidateId) -> None:
    if c not in profile.candidates:
        raise ValueError(f"unknown candidate {c!r}")


def _require_voters(profile: Profile) -> None:
    if profile.num_voters == 0:
        raise ValueError("scores are undefined on an empty electorate")


def majority_threshold(n: int) -> int:
    """Smallest integer vote count that is a strict majority of n."""
    return n // 2 + 1


def _order_counts(profile: Profile) -> dict[PreferenceOrder, int]:
    """Voters per distinct order, keyed in order of first appearance."""
    counts: dict[PreferenceOrder, int] = {}
    for order, mult in profile.voters:
        counts[order] = counts.get(order, 0) + mult
    return counts


def _take(profile: Profile, picks):
    """Check ``(group, count)`` picks against the distinct orders' multiplicities;
    return the picked orders and the ``(order, count)`` entries left over."""
    groups = list(_order_counts(profile).items())
    left = [mult for _, mult in groups]
    for g, count in picks:
        if not (isinstance(g, int) and 0 <= g < len(groups)):
            raise ValueError(f"group {g!r} out of range 0..{len(groups) - 1}")
        if not (isinstance(count, int) and 1 <= count <= left[g]):
            raise ValueError(f"count {count!r} out of range 1..{left[g]} for group {g}")
        left[g] -= count
    return [groups[g][0] for g, _ in picks], [(o, n) for (o, _), n in zip(groups, left) if n]


def gain_matrix(profile: Profile, c: CandidateId):
    """Lift table for c: one ``(order, count)`` entry per distinct order, by
    first appearance, plus ``baseline[k]``, the voters already preferring c
    over rival k, in candidate order."""
    _require_candidate(profile, c)
    _require_voters(profile)
    t = tally(profile)
    return list(_order_counts(profile).items()), {k: t.count(c, k) for k in profile.candidates if k != c}


def _merge(keyed):
    """Merge ``(key, g, count)`` entries that share a key: one ``(key, members)``
    pair per key by first appearance, members being its ``(g, count)`` entries."""
    groups: dict = {}
    for key, g, count in keyed:
        groups.setdefault(key, []).append((g, count))
    return list(groups.items())


def _dodgson_program(profile: Profile, c: CandidateId, weak: bool):
    """:func:`dodgson_rows` and its groups for :func:`solve_program`, where a
    lift of j positions is labelled ``(j,)``."""
    table, baseline = gain_matrix(profile, c)
    n = profile.num_voters
    thr = Fraction(n, 2) if weak else majority_threshold(n)
    # One row per short rival: one that c does not yet beat at the threshold.
    rival = {k: {} for k, have in baseline.items() if thr > have}

    def key(order):
        # The short rivals above c, nearest first, each with the lift that ends just above it.
        idx = order.index(c)
        return tuple((j, order[idx - j]) for j in range(1, idx + 1) if order[idx - j] in rival)

    groups = _merge((key(order), g, count) for g, (order, count) in enumerate(table))
    groups = [(lifts, members) for lifts, members in groups if lifts]
    variables, objective, constraints = [], [], []
    for h, (lifts, members) in enumerate(groups):
        cap = sum(count for _, count in members)
        start = len(variables)
        for i, (j, k) in enumerate(lifts):
            variables.append((f"m[{h},{j}]", 0, cap))
            objective.append(j)
            # Rival k's row holds this lift and every deeper one of the group.
            rival[k].update(dict.fromkeys(range(start + i, start + len(lifts)), 1))
        if len(lifts) > 1:
            constraints.append((dict.fromkeys(range(start, len(variables)), 1), "<=", cap))
    constraints += [(cols, ">=", thr - baseline[k]) for k, cols in rival.items()]
    labelled = [(tuple((j,) for j, _ in lifts), members) for lifts, members in groups]
    return (variables, objective, constraints), labelled


def dodgson_rows(profile: Profile, c: CandidateId, *, weak: bool):
    """Lift program for c as the ``(variables, objective, constraints)`` of
    :func:`linear_program`.

    Each rival must end up with at least ``floor(n/2)+1`` voters preferring
    c (the strict majority of the exact score) or, when ``weak``, ``n/2``
    (its closure, whose LP value is the starred score); a rival short of it
    gets a row.  Only the lifts that end just above a short rival are kept:
    any other lift covers the same rows as the nearest kept lift below it,
    at a higher cost and against the same capacity.  Orders with the same
    short rivals above c, nearest first, at the same distances form one
    group, and an order with none gets no column, so a (weak) Condorcet
    winner's program is empty.  Variable ``m[h,j]`` counts the voters of
    group h in which c is lifted j positions; it costs j swaps per voter and
    is bounded by the group's voters, which a capacity row shares out over
    the lifts when there are two or more.  No two rival rows coincide: every
    short rival stands above c in some order, and in a group the lift that
    ends just above the nearer of two short rivals, or above the only one of
    them there, passes that rival and not the other.

    Rows are ``{column: coefficient}`` mappings of their nonzeros: a capacity
    row holds its group's lifts, and a rival row the lifts that pass that
    rival, filled group by group as the columns are made.  So the build costs
    the program's nonzeros, not rows times columns.
    """
    return _dodgson_program(profile, c, weak)[0]


def _young_program(profile: Profile, c: CandidateId, weak: bool):
    """:func:`young_rows` and its groups for :func:`solve_program`: one column
    each, labelled ``()``."""
    _require_candidate(profile, c)
    _require_voters(profile)
    rivals = tuple(name for name in profile.candidates if name != c)

    def key(order):
        # c's position once per order: the rivals it beats come after it.
        beaten = set(order[order.index(c) + 1 :])
        return tuple(k in beaten for k in rivals)

    groups = _merge((key(order), g, count) for g, (order, count) in enumerate(_order_counts(profile).items()))
    variables = [(f"y[{h}]", 0, sum(count for _, count in members)) for h, (_, members) in enumerate(groups)]
    objective = [1] * len(groups)
    rhs = 0 if weak else 1
    rows = dict.fromkeys(tuple(1 if beaten[i] else -1 for beaten, _ in groups) for i in range(len(rivals)))
    constraints = [(dict(enumerate(coeffs)), ">=", rhs) for coeffs in rows]
    return (variables, objective, constraints), [(((),), members) for _, members in groups]


def young_rows(profile: Profile, c: CandidateId, *, weak: bool):
    """Keep program for c as the ``(variables, objective, constraints)`` of
    :func:`linear_program`.

    Orders in which c beats the same rivals form one group.  Variable
    ``y[h]`` counts the kept voters of group h.  Against every rival,
    supporters of c minus opponents among the kept voters must be at least
    1 (a strict majority) or, when ``weak``, 0 (its closure, whose LP value
    is the starred score); rivals with the same row share one.  Rows are
    ``{column: coefficient}`` mappings over every column, since each entry
    is +1 or -1 and none is zero.
    """
    return _young_program(profile, c, weak)[0]


def dodgson_certificate(program: LinearProgram):
    """A ``(point, duals)`` certificate for a lift program built from
    :func:`dodgson_rows`, at either threshold, or None when the greedy below
    misses the deficit bound.

    The duals are 1 on every rival row and 0 on the capacity rows.  They
    prove the deficit bound, the sum of the rival rows' right-hand sides: a
    lift of j positions passes j rivals, so it covers at most j rival rows at
    cost j.  A lift that passes only rivals still short of their row fills
    one unit of each of its j rows per voter, at cost j, so a point made of
    such lifts that fills every row exactly costs the bound.  The greedy
    takes the deepest such lift over all groups (the columns of one capacity
    row, or a lone column), in a batch of the smaller of its group's voters
    left and the smallest shortfall it passes, until no lift qualifies.  A
    batch ends a group or a shortfall, so the steps do not depend on the
    voter counts.
    """
    cons = program.constraints
    short = {}
    covers = [[] for _ in program.variables]
    # A column's group is its capacity row, or the column alone.
    group = [-1 - j for j in range(len(program.variables))]
    left = {-1 - j: var.upper for j, var in enumerate(program.variables)}
    for r, con in enumerate(cons):
        if con.relation == ">=":
            short[r] = con.rhs
            for j, _ in con.coeffs:
                covers[j].append(r)
        else:
            for j, _ in con.coeffs:
                group[j] = r
            left[r] = con.rhs
    # Lifts whose cost the duals meet: every rival they pass has a row.
    fair = [j for j, cost in enumerate(program.objective) if cost == len(covers[j])]
    point = [0] * len(program.variables)
    while True:
        ok = [j for j in fair if left[group[j]] and all(short[r] for r in covers[j])]
        if not ok:
            break
        j = max(ok, key=lambda j: program.objective[j])
        step = min([left[group[j]]] + [short[r] for r in covers[j]])
        point[j] += step
        left[group[j]] -= step
        for r in covers[j]:
            short[r] -= step
    if any(short.values()):
        return None
    return point, [int(con.relation == ">=") for con in cons]


def young_certificate(program: LinearProgram):
    """A ``(point, duals)`` certificate for a keep program built from
    :func:`young_rows`, at either threshold, or None when the greedy below
    misses the bound.

    With N the voters of the columns that support c in a rival row of
    right-hand side b, that row alone allows at most 2N - b kept voters; the
    duals are 1 on the row with the least such bound, or all 0 when keeping
    all n voters is no more.  The greedy starts from every voter kept and
    removes n minus the bound of them.  A row's slack is its surplus plus the
    removals left; it starts at the row's bound minus the target, falls by 2
    per removed supporter and stays put per removed opponent, and while it is
    not negative the removals left can still satisfy the row.  Among the
    groups that support c in no row of slack 0, the greedy takes the one that
    opposes c in the most rows still short, then the one that supports c in
    the fewest rows, in a batch that ends the group, the removals, or the
    slack of a row it supports.  So the steps do not depend on the voter
    counts, and at the end every row holds.
    """
    cons = program.constraints
    kept = [var.upper for var in program.variables]
    supports = [[False] * len(cons) for _ in kept]
    for r, con in enumerate(cons):
        for h, a in con.coeffs:
            supports[h][r] = a > 0
    n = sum(kept)
    bounds = [
        2 * sum(u for u, up in zip(kept, supports) if up[r]) - con.rhs for r, con in enumerate(cons)
    ]
    target = min([n] + bounds)
    if target < 0:
        return None
    duals = [0] * len(cons)
    if target < n:
        duals[bounds.index(target)] = 1
    left = n - target
    slack = [b - target for b in bounds]
    while left:
        best, rank = -1, None
        for h, voters in enumerate(kept):
            if not voters or any(up and not s for up, s in zip(supports[h], slack)):
                continue
            short = sum(1 for up, s in zip(supports[h], slack) if not up and s < left)
            key = (short, -sum(supports[h]))
            if rank is None or key > rank:
                best, rank = h, key
        if best < 0:
            return None
        step = min([kept[best], left] + [s / 2 for up, s in zip(supports[best], slack) if up])
        kept[best] -= step
        left -= step
        slack = [s - 2 * step if up else s for up, s in zip(supports[best], slack)]
    return kept, duals


def solve_program(lp: LinearProgram, solve, certificate=None, groups=None):
    """Certify, solve and read one score program: ``(value, witness)``.

    ``solve`` (:func:`solve_ilp` or ``solve_lp``) gets the program and the
    ``(point, duals)`` pair, or None, of the greedy ``certificate``.  Only
    the strict keep program can be infeasible, as keeping nobody fails its
    rows; then no nonempty subset makes c the winner: 0 and ``()``.

    Without ``groups`` the value is the LP optimum, a Fraction, and the
    witness None.  With them it is the integral optimum, an int.  ``groups``
    holds ``(labels, members)`` per column group, in column order: a witness
    label per column and the ``(g, count)`` orders merged into it.  Each
    column's value is split over its group's orders by first appearance,
    each up to its count; the witness is the sorted ``(g, *label, count)``.
    """
    sol = solve(lp, None if certificate is None else certificate(lp))
    if sol.status != "optimal":
        if lp.direction == "max" and any(con.rhs > 0 for con in lp.constraints):
            return 0, ()
        raise RuntimeError("internal: score program must be feasible")  # pragma: no cover
    if groups is None:
        return sol.objective_value, None
    columns = iter(lp.variables)
    witness = []
    for labels, members in groups:
        left = [count for _, count in members]
        i = 0
        for label in labels:
            value = int(sol[next(columns).name])
            while value:
                share = min(left[i], value)
                witness.append((members[i][0], *label, share))
                left[i] -= share
                value -= share
                if not left[i]:
                    i += 1
    return int(sol.objective_value), tuple(sorted(witness))


def dodgson_score(profile: Profile, c: CandidateId) -> int:
    """Minimum number of adjacent swaps making c the Condorcet winner."""
    score, _ = dodgson_score_with_moves(profile, c)
    return score


def dodgson_score_with_moves(profile: Profile, c: CandidateId):
    """Score plus a witness: sorted ``(group, lift, count)`` triples, each lifting
    c ``lift`` positions in ``count`` voters of the g-th distinct order (by
    first appearance, as in :func:`gain_matrix`).  The strict program is
    solved by branch and bound with no certificate."""
    rows, groups = _dodgson_program(profile, c, False)
    return solve_program(linear_program("min", *rows), solve_ilp, None, groups)


def apply_moves(profile: Profile, c: CandidateId, moves) -> Profile:
    """Replay a sequence of ``(group, lift, count)`` triples on the distinct
    orders, lifting each voter at most once.  Every lifted order becomes its
    own entry; the untouched rest of each group stays one entry."""
    _require_candidate(profile, c)
    orders, rest = _take(profile, [(g, count) for g, _, count in moves])
    lifted = []
    for order, (g, j, count) in zip(orders, moves):
        idx = order.index(c)
        if not (isinstance(j, int) and 1 <= j <= idx):
            raise ValueError(f"lift {j!r} out of range 1..{idx} for group {g}")
        lifted.append((order[: idx - j] + (c,) + order[idx - j : idx] + order[idx + 1 :], count))
    return Profile(profile.candidates, tuple(rest + lifted))


def validate_dodgson_witness(profile: Profile, c: CandidateId, score: int, moves) -> bool:
    """Replay the triples: their cost must equal score and c must end up the
    Condorcet winner.  A malformed witness gives False."""
    _require_candidate(profile, c)
    try:
        moves = tuple(moves)
        replayed = apply_moves(profile, c, moves)
    except (TypeError, ValueError):
        return False
    return sum(j * count for _, j, count in moves) == score and condorcet_winner(replayed) == c


def dodgson_score_bruteforce(profile: Profile, c: CandidateId, *, heuristic: bool = True) -> int:
    """Shortest-path search over profiles reachable by single adjacent swaps.

    Swap moves are applied to every voter and every adjacent pair, so the
    search follows the definition directly.  States are canonicalized by
    sorting the expanded orders (voters are interchangeable) and the search
    may be guided by an admissible lower bound: each swap changes exactly one
    head-to-head count involving the swapped pair by one, so the summed
    majority deficits of c never drop by more than one per swap.
    """
    _require_candidate(profile, c)
    _require_voters(profile)
    n = profile.num_voters
    if n > SWAP_MAX_VOTERS or len(profile.candidates) > SWAP_MAX_CANDIDATES:
        raise CapExceededError(
            f"swap search capped at {SWAP_MAX_VOTERS} voters / {SWAP_MAX_CANDIDATES} candidates"
        )
    thr = majority_threshold(n)
    rivals = tuple(name for name in profile.candidates if name != c)

    beats_cache: dict[PreferenceOrder, tuple[int, ...]] = {}

    def beats(order: PreferenceOrder) -> tuple[int, ...]:
        cached = beats_cache.get(order)
        if cached is None:
            pos = order.index(c)
            cached = tuple(1 if order.index(k) > pos else 0 for k in rivals)
            beats_cache[order] = cached
        return cached

    def deficit(state) -> int:
        totals = [0] * len(rivals)
        for order in state:
            row = beats(order)
            for i, b in enumerate(row):
                totals[i] += b
        return sum(max(0, thr - tot) for tot in totals)

    h = deficit if heuristic else (lambda state: 0)

    start = tuple(sorted(profile.expanded()))
    dist = {start: 0}
    counter = 0
    heap = [(h(start), 0, counter, start)]
    while heap:
        f, g, _, state = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        if deficit(state) == 0:
            return g
        width = len(state[0])
        for vi in range(len(state)):
            order = state[vi]
            for s in range(width - 1):
                swapped = order[:s] + (order[s + 1], order[s]) + order[s + 2 :]
                nxt = list(state)
                nxt[vi] = swapped
                nxt_state = tuple(sorted(nxt))
                nd = g + 1
                if nd < dist.get(nxt_state, nd + 1):
                    dist[nxt_state] = nd
                    counter += 1
                    heapq.heappush(heap, (nd + h(nxt_state), nd, counter, nxt_state))
    raise RuntimeError("internal: swap graph search exhausted")  # pragma: no cover


def young_score(profile: Profile, c: CandidateId) -> int:
    """Size of a largest voter subset for which c is the Condorcet winner."""
    score, _ = young_score_with_subset(profile, c)
    return score


def young_score_with_subset(profile: Profile, c: CandidateId):
    """Score plus a witness: sorted ``(group, count)`` pairs, each keeping
    ``count`` voters of the g-th distinct order.

    The root relaxation gets :func:`young_certificate` of the program; when
    its point is integral and meets the bound, it is the optimum and branch
    and bound ends at once, and otherwise the search runs as usual."""
    rows, groups = _young_program(profile, c, False)
    return solve_program(linear_program("max", *rows), solve_ilp, young_certificate, groups)


def validate_young_witness(profile: Profile, c: CandidateId, score: int, kept) -> bool:
    """Rebuild the kept sub-profile from distinct groups: its size must equal
    score and c must be its Condorcet winner.  A malformed witness gives False."""
    _require_candidate(profile, c)
    try:
        kept = tuple(kept)
        orders, _ = _take(profile, kept)
    except (TypeError, ValueError):
        return False
    counts = [count for _, count in kept]
    if len({g for g, _ in kept}) < len(kept) or sum(counts) != score:
        return False
    return score == 0 or condorcet_winner(Profile(profile.candidates, tuple(zip(orders, counts)))) == c


def young_score_bruteforce(profile: Profile, c: CandidateId) -> int:
    """Exhaustive subset enumeration, largest cardinality first."""
    _require_candidate(profile, c)
    _require_voters(profile)
    n = profile.num_voters
    if n > SUBSET_MAX_VOTERS:
        raise CapExceededError(f"subset enumeration capped at {SUBSET_MAX_VOTERS} voters")
    orders = profile.expanded()
    rivals = [name for name in profile.candidates if name != c]
    masks = []
    for k in rivals:
        mask = 0
        for i, order in enumerate(orders):
            if order.index(c) < order.index(k):
                mask |= 1 << i
        masks.append(mask)
    # check the scarcest head-to-head supporters first
    masks.sort(key=lambda m: m.bit_count())
    # a subset of size T needs more than T/2 supporters against every rival
    limit = min([n] + [2 * m.bit_count() - 1 for m in masks])
    for size in range(limit, 0, -1):
        need = size + 1
        for combo in combinations(range(n), size):
            w = 0
            for i in combo:
                w |= 1 << i
            if all(2 * (w & m).bit_count() >= need for m in masks):
                return size
    return 0


# -- decision problems ----------------------------------------------------


class Scheme(namedtuple("Scheme", "name score better")):
    """A scoring scheme: its name, its ``score(profile, c)`` and the extreme
    that wins (``min`` for Dodgson, ``max`` for Young).  Winner and Ranking
    compare scores the same way for every scheme."""

    __slots__ = ()

    def scores(self, profile: Profile) -> dict[CandidateId, int | Fraction]:
        return {c: self.score(profile, c) for c in profile.candidates}

    def winners(self, profile: Profile) -> tuple[CandidateId, ...]:
        """All candidates with the best score, in candidate display order."""
        scores = self.scores(profile)
        best = self.better(scores.values())
        return tuple(c for c, score in scores.items() if score == best)

    def winner(self, profile: Profile, c: CandidateId) -> bool:
        """Is c's score the best over all candidates?"""
        _require_candidate(profile, c)
        return c in self.winners(profile)

    def ranking(self, profile: Profile, c: CandidateId, d: CandidateId) -> bool:
        """Does c tie-or-defeat d, i.e. is score(c) at least as good as score(d)?"""
        _require_candidate(profile, c)
        _require_candidate(profile, d)
        score = self.score(profile, c)
        return self.better(score, self.score(profile, d)) == score


# The scorers are looked up at call time, so that rebinding them (as a tracer does) is seen.
DODGSON = Scheme("dodgson", lambda p, c: dodgson_score(p, c), min)
YOUNG = Scheme("young", lambda p, c: young_score(p, c), max)

dodgson_winner = DODGSON.winner
dodgson_ranking = DODGSON.ranking
young_winner = YOUNG.winner
young_ranking = YOUNG.ranking
