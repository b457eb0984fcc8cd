"""Exact Dodgson and Young scores, their decision problems, and independent
brute-force oracles.

Each score has one program, built by :func:`dodgson_rows` or
:func:`young_rows`.  It groups identical voters into one bounded variable
per distinct order (and lift, for Dodgson); with all multiplicities 1 this
is exactly a 0/1 variable per voter.  The exact score solves it as an ILP at
the strict majority threshold; its LP relaxation at the weak threshold is
the starred score of :mod:`homogeneous`.  The oracle routes never touch the
ILP machinery: Dodgson is a shortest-path search over the literal
adjacent-swap graph, Young an exhaustive subset enumeration.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceededError
from .lp import IntegerProgram, linear_program, solve_ilp
from .profiles import CandidateId, PreferenceOrder, Profile, condorcet_winner, tally


def _require_candidate(profile: Profile, c: CandidateId) -> None:
    if c not in profile.candidates:
        raise ValueError(f"unknown candidate {c!r}")


def _require_voters(profile: Profile) -> None:
    if profile.num_voters == 0:
        raise ValueError("scores are undefined on an empty electorate")


def majority_threshold(n: int) -> int:
    """Smallest integer vote count that is a strict majority of n."""
    return n // 2 + 1


@dataclass(frozen=True)
class DodgsonMoveEncoding:
    """Lift effects for a designated candidate, one row per distinct order.

    ``orders[g]`` is the g-th distinct order (by first appearance in file
    order) and ``counts[g]`` the number of voters holding it.
    ``passed[g][j-1]`` is the set of rivals overtaken when the candidate is
    lifted j positions in that order; it grows monotonically with j.
    ``baseline[k]`` counts voters already preferring the candidate over
    rival k.  :func:`dodgson_rows` reads it to build the one grouped lift
    program: its ILP at the strict threshold gives the Dodgson score, and
    its LP relaxation at the weak threshold gives the Dodgson* score.
    """

    candidate: CandidateId
    rivals: tuple[CandidateId, ...]
    total: int
    orders: tuple[PreferenceOrder, ...]
    counts: tuple[int, ...]
    passed: tuple[tuple[frozenset[CandidateId], ...], ...]
    baseline: dict[CandidateId, int]

    def gains(self, group: int, lift: int) -> frozenset[CandidateId]:
        return self.passed[group][lift - 1]


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


def gain_matrix(profile: Profile, c: CandidateId) -> DodgsonMoveEncoding:
    _require_candidate(profile, c)
    _require_voters(profile)
    t = tally(profile)
    rivals = tuple(name for name in profile.candidates if name != c)
    counts = _order_counts(profile)
    passed = []
    for order in counts:
        idx = order.index(c)
        passed.append(tuple(frozenset(order[idx - j : idx]) for j in range(1, idx + 1)))
    baseline = {k: t.count(c, k) for k in rivals}
    return DodgsonMoveEncoding(
        c, rivals, profile.num_voters, tuple(counts), tuple(counts.values()), tuple(passed), baseline
    )


def dodgson_rows(profile: Profile, c: CandidateId, *, weak: bool):
    """Lift program for c as the ``(variables, objective, constraints)`` of
    :func:`linear_program`.

    Variable ``m[g,j]`` counts the voters of distinct order g in which c is
    lifted j positions; it costs j swaps per voter.  Each rival must end up
    with at least ``floor(n/2)+1`` voters preferring c (the strict majority
    of the exact score) or, when ``weak``, ``n/2`` (its closure, whose LP
    value is the starred score).
    """
    enc = gain_matrix(profile, c)
    thr = Fraction(enc.total, 2) if weak else majority_threshold(enc.total)
    meta = [(g, j) for g, lifts in enumerate(enc.passed) for j in range(1, len(lifts) + 1)]
    variables = [(f"m[{g},{j}]", 0, enc.counts[g]) for g, j in meta]
    objective = [j for _, j in meta]
    constraints = []
    for g, count in enumerate(enc.counts):
        coeffs = [1 if h == g else 0 for h, _ in meta]
        if any(coeffs):
            constraints.append((coeffs, "<=", count))
    for k in enc.rivals:
        need = thr - enc.baseline[k]
        if need > 0:
            constraints.append(([1 if k in enc.gains(g, j) else 0 for g, j in meta], ">=", need))
    return variables, objective, constraints


def young_rows(profile: Profile, c: CandidateId, *, weak: bool):
    """Keep program for c as the ``(variables, objective, constraints)`` of
    :func:`linear_program`.

    Variable ``y[g]`` counts the kept voters of distinct order g.  Against
    every rival, supporters of c minus opponents among the kept voters must
    be at least 1 (a strict majority) or, when ``weak``, 0 (its closure,
    whose LP value is the starred score).
    """
    _require_candidate(profile, c)
    _require_voters(profile)
    counts = _order_counts(profile)
    rivals = tuple(name for name in profile.candidates if name != c)
    variables = [(f"y[{g}]", 0, count) for g, count in enumerate(counts.values())]
    objective = [1] * len(counts)
    rhs = 0 if weak else 1
    constraints = [
        ([1 if order.index(c) < order.index(k) else -1 for order in counts], ">=", rhs)
        for k in rivals
    ]
    return variables, objective, constraints


def _integer_program(direction: str, rows) -> IntegerProgram:
    lp = linear_program(direction, *rows)
    return IntegerProgram(lp, frozenset(var.name for var in lp.variables))


def dodgson_score(profile: Profile, c: CandidateId) -> int:
    """Minimum number of adjacent swaps making c the Condorcet winner."""
    score, _ = dodgson_score_with_moves(profile, c)
    return score


def dodgson_score_with_moves(profile: Profile, c: CandidateId):
    """Score plus a witness: a ``(group, lift, count)`` triple for each nonzero
    ``m[g,j]``, lifting c ``lift`` positions in ``count`` voters of the g-th
    distinct order (by first appearance, as in :func:`gain_matrix`)."""
    sol = solve_ilp(_integer_program("min", dodgson_rows(profile, c, weak=False)))
    if sol.status != "optimal":  # pragma: no cover - always feasible for n >= 1
        raise RuntimeError("internal: Dodgson program must be feasible")
    moves = (
        (g, j, int(sol.assignment[f"m[{g},{j}]"]))
        for g, order in enumerate(_order_counts(profile))
        for j in range(1, order.index(c) + 1)
    )
    return int(sol.objective_value), tuple(move for move in moves if move[2])


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


def dodgson_score_bruteforce(
    profile: Profile,
    c: CandidateId,
    *,
    max_voters: int = 5,
    max_candidates: int = 5,
    heuristic: bool = True,
) -> int:
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
    if n > max_voters or len(profile.candidates) > max_candidates:
        raise CapExceededError(
            f"swap search capped at {max_voters} voters / {max_candidates} candidates"
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
    """Score plus a witness: a ``(group, count)`` pair for each nonzero
    ``y[g]``, keeping ``count`` voters of the g-th distinct order."""
    ip = _integer_program("max", young_rows(profile, c, weak=False))
    sol = solve_ilp(ip)
    if sol.status == "infeasible":
        return 0, ()
    kept = enumerate(int(sol.assignment[var.name]) for var in ip.base.variables)
    return int(sol.objective_value), tuple((g, count) for g, count in kept if count)


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


def young_score_bruteforce(profile: Profile, c: CandidateId, *, max_voters: int = 22) -> int:
    """Exhaustive subset enumeration, largest cardinality first."""
    _require_candidate(profile, c)
    _require_voters(profile)
    n = profile.num_voters
    if n > max_voters:
        raise CapExceededError(f"subset enumeration capped at {max_voters} voters")
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


def dodgson_scores(profile: Profile) -> dict[CandidateId, int]:
    return {c: dodgson_score(profile, c) for c in profile.candidates}


def young_scores(profile: Profile) -> dict[CandidateId, int]:
    return {c: young_score(profile, c) for c in profile.candidates}


def dodgson_winner(profile: Profile, c: CandidateId) -> bool:
    """Is c's Dodgson score minimal over all candidates?"""
    _require_candidate(profile, c)
    scores = dodgson_scores(profile)
    return scores[c] <= min(scores.values())


def dodgson_ranking(profile: Profile, c: CandidateId, d: CandidateId) -> bool:
    """Does c tie-or-defeat d, i.e. DodgsonScore(c) <= DodgsonScore(d)?"""
    _require_candidate(profile, c)
    _require_candidate(profile, d)
    return dodgson_score(profile, c) <= dodgson_score(profile, d)


def young_winner(profile: Profile, c: CandidateId) -> bool:
    """Is c's Young score maximal over all candidates?"""
    _require_candidate(profile, c)
    scores = young_scores(profile)
    return scores[c] >= max(scores.values())


def young_ranking(profile: Profile, c: CandidateId, d: CandidateId) -> bool:
    """Does c tie-or-defeat d, i.e. YoungScore(c) >= YoungScore(d)?"""
    _require_candidate(profile, c)
    _require_candidate(profile, d)
    return young_score(profile, c) >= young_score(profile, d)


def dodgson_winners(profile: Profile) -> tuple[CandidateId, ...]:
    scores = dodgson_scores(profile)
    best = min(scores.values())
    return tuple(c for c in profile.candidates if scores[c] == best)


def young_winners(profile: Profile) -> tuple[CandidateId, ...]:
    scores = young_scores(profile)
    best = max(scores.values())
    return tuple(c for c in profile.candidates if scores[c] == best)


@dataclass(frozen=True)
class ScoreReport:
    """Scores for a set of candidates under one scheme, in display order."""

    scheme: str
    scores: tuple[tuple[CandidateId, int | Fraction], ...]
    witnesses: tuple[tuple[CandidateId, tuple], ...] | None = None


def dodgson_report(profile: Profile, *, with_witnesses: bool = False) -> ScoreReport:
    """Full-candidate Dodgson report; witnesses are ``(group, lift, count)`` triples."""
    if not with_witnesses:
        return ScoreReport("dodgson", tuple(dodgson_scores(profile).items()))
    results = [(c, dodgson_score_with_moves(profile, c)) for c in profile.candidates]
    return ScoreReport(
        "dodgson",
        tuple((c, score) for c, (score, _) in results),
        tuple((c, moves) for c, (_, moves) in results),
    )


def young_report(profile: Profile, *, with_witnesses: bool = False) -> ScoreReport:
    """Full-candidate Young report; witnesses are ``(group, count)`` kept pairs."""
    if not with_witnesses:
        return ScoreReport("young", tuple(young_scores(profile).items()))
    results = [(c, young_score_with_subset(profile, c)) for c in profile.candidates]
    return ScoreReport(
        "young",
        tuple((c, score) for c, (score, _) in results),
        tuple((c, kept) for c, (_, kept) in results),
    )
