import math
import random
from collections import Counter
from itertools import permutations

import pytest

from dodgsonyoung import (
    CapExceededError,
    Profile,
    condorcet_winner,
    dodgson_score,
    dodgson_score_bruteforce,
    dodgson_score_with_moves,
    dodgson_star_score,
    gain_matrix,
    parse_profile,
    replicate,
    validate_dodgson_witness,
    validate_young_witness,
    winner_set,
    young_score,
    young_score_bruteforce,
    young_score_with_subset,
    young_star_score,
)
from dodgsonyoung.exact import (
    DODGSON,
    SUBSET_MAX_VOTERS,
    YOUNG,
    apply_moves,
    dodgson_rows,
    young_rows,
)
from dodgsonyoung.lp import linear_program, solve_ilp, solve_lp
from oracles import (
    dodgson_score_dp,
    ic_grid,
    per_order_dodgson_rows,
    per_order_young_rows,
    random_profile,
    scipy_linprog,
    scipy_milp,
    short_rivals,
)

CYCLE = parse_profile("candidates: A B C\nvoter: A > B > C\nvoter: B > C > A\nvoter: C > A > B\n")
SINGLE = parse_profile("candidates: c d e\nvoter: c > d > e\n")
OPPOSED = parse_profile("candidates: c d\nvoter: c > d\nvoter: d > c\n")
HUGE = parse_profile("candidates: a b\nvoter 99999999999999: a > b\n")


def lift_simulation(order, c, j):
    """Rivals passed when c is lifted j steps: direct simulation."""
    idx = order.index(c)
    lifted = list(order)
    del lifted[idx]
    lifted.insert(idx - j, c)
    return frozenset(k for k in order if lifted.index(c) < lifted.index(k) <= idx)


def lifted_baseline(profile, c, g, j):
    """Baseline of c once it is lifted j positions in one voter of group g."""
    return gain_matrix(apply_moves(profile, c, [(g, j, 1)]), c)[1]


class TestGainMatrix:
    def test_one_swap_passes_the_rival(self):
        p = parse_profile("candidates: a b\nvoter: b > a")
        table, baseline = gain_matrix(p, "a")
        assert table == [(("b", "a"), 1)]
        assert baseline == {"b": 0}
        assert lifted_baseline(p, "a", 0, 1) == {"b": 1}

    def test_top_ranked_candidate_has_empty_lift_range(self):
        p = parse_profile("candidates: a b\nvoter: a > b")
        table, baseline = gain_matrix(p, "a")
        assert table == [(("a", "b"), 1)]
        assert baseline == {"b": 1}

    def test_cycle_voter_gains(self):
        table, baseline = gain_matrix(CYCLE, "A")
        # voter 2 is B > C > A
        order, count = table[1]
        assert (order, count) == (("B", "C", "A"), 1)
        assert baseline == {"B": 2, "C": 1}

    def test_unknown_candidate(self):
        with pytest.raises(ValueError):
            gain_matrix(CYCLE, "Z")

    def test_matches_direct_lift_simulation(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            table, baseline = gain_matrix(p, c)
            assert sorted(table) == sorted(Counter(p.expanded()).items())
            for g, (order, _) in enumerate(table):
                for j in range(1, order.index(c) + 1):
                    passed = lift_simulation(order, c, j)
                    gained = lifted_baseline(p, c, g, j)
                    assert gained == {k: have + (k in passed) for k, have in baseline.items()}

    def test_monotone_in_lift_distance(self):
        table, baseline = gain_matrix(CYCLE, "B")
        for g, (order, _) in enumerate(table):
            gains = [baseline] + [lifted_baseline(CYCLE, "B", g, j) for j in range(1, order.index("B") + 1)]
            for j in range(1, len(gains)):
                assert all(gains[j - 1][k] <= gains[j][k] for k in gains[j])


class TestDodgsonScore:
    def test_top_of_single_voter(self):
        assert dodgson_score(SINGLE, "c") == 0
        assert dodgson_score_bruteforce(SINGLE, "c") == 0

    def test_cycle(self):
        assert dodgson_score(CYCLE, "A") == 1
        assert dodgson_score_bruteforce(CYCLE, "A") == 1

    def test_two_opposed_voters(self):
        assert dodgson_score(OPPOSED, "c") == 1
        assert dodgson_score_bruteforce(OPPOSED, "c") == 1

    def test_zero_iff_condorcet_winner(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_profile(rng, 4, 5)
            c = rng.choice(p.candidates)
            assert (dodgson_score(p, c) == 0) == (condorcet_winner(p) == c)
            assert (young_score(p, c) == p.num_voters) == (condorcet_winner(p) == c)

    def test_witness_replays(self):
        rng = random.Random(13)
        cases = [(p, c) for p in (CYCLE, SINGLE, OPPOSED) for c in p.candidates]
        for _ in range(25):
            p = random_profile(rng, 4, 5)
            cases.append((p, rng.choice(p.candidates)))
        for p, c in cases:
            score, moves = dodgson_score_with_moves(p, c)
            assert validate_dodgson_witness(p, c, score, moves)

    def test_apply_moves_rejects_bad_lifts(self):
        with pytest.raises(ValueError):
            apply_moves(SINGLE, "c", [(0, 1, 1)])  # c already on top
        with pytest.raises(ValueError):
            apply_moves(CYCLE, "A", [(1, 1, 1), (1, 1, 1)])  # group 1 holds one voter

    def test_bruteforce_cap(self):
        p = random_profile(random.Random(1), 4, 6, min_voters=6)
        with pytest.raises(CapExceededError):
            dodgson_score_bruteforce(p, p.candidates[0])
        big = random_profile(random.Random(2), 6, 3, min_candidates=6)
        with pytest.raises(CapExceededError):
            dodgson_score_bruteforce(big, big.candidates[0])

    def test_heuristic_matches_blind_search(self):
        rng = random.Random(17)
        for _ in range(15):
            p = random_profile(rng, 3, 3)
            c = rng.choice(p.candidates)
            assert dodgson_score_bruteforce(p, c, heuristic=True) == dodgson_score_bruteforce(
                p, c, heuristic=False
            )

    def test_ilp_equals_bruteforce_random(self):
        rng = random.Random(19)
        for _ in range(50):
            p = random_profile(rng, 4, 5)
            c = rng.choice(p.candidates)
            assert dodgson_score(p, c) == dodgson_score_bruteforce(p, c)

    def test_ilp_equals_deficit_dp_on_the_ic_grid(self):
        # Past the swap search's cap (k <= 6, n <= 31): the deficit DP reads
        # only the orders and the tally, not the lift rows.
        pairs = [(p, c) for seed in range(3) for p in ic_grid(seed) for c in p.candidates]
        assert len(pairs) == 90
        for p, c in pairs:
            assert dodgson_score(p, c) == dodgson_score_dp(p, c)
        p, c = next((p, c) for p, c in pairs if dodgson_score(p, c) > 0)
        with pytest.raises(ValueError, match="exceed the cap"):
            dodgson_score_dp(p, c, cap=1)


class TestYoungScore:
    def test_single_voter(self):
        assert young_score(SINGLE, "c") == 1
        assert young_score_bruteforce(SINGLE, "c") == 1

    def test_cycle(self):
        for c in CYCLE.candidates:
            assert young_score(CYCLE, c) == 1
            assert young_score_bruteforce(CYCLE, c) == 1

    def test_bottom_everywhere_scores_zero(self):
        p = parse_profile("candidates: a b z\nvoter: a > b > z\nvoter: b > a > z\n")
        assert young_score(p, "z") == 0
        assert young_score_bruteforce(p, "z") == 0
        score, kept = young_score_with_subset(p, "z")
        assert score == 0 and kept == ()

    def test_witness_replays(self):
        rng = random.Random(23)
        cases = [(p, c) for p in (CYCLE, SINGLE, OPPOSED) for c in p.candidates]
        for _ in range(25):
            p = random_profile(rng, 4, 7)
            cases.append((p, rng.choice(p.candidates)))
        for p, c in cases:
            score, kept = young_score_with_subset(p, c)
            assert validate_young_witness(p, c, score, kept)

    def test_bruteforce_cap(self):
        p = Profile(("a", "b"), ((("a", "b"), SUBSET_MAX_VOTERS + 1),))
        with pytest.raises(CapExceededError):
            young_score_bruteforce(p, "a")

    def test_ilp_equals_bruteforce_random_n16(self):
        rng = random.Random(29)
        for _ in range(40):
            p = random_profile(rng, 4, 16)
            c = rng.choice(p.candidates)
            assert young_score(p, c) == young_score_bruteforce(p, c)

    def test_keep_relaxation_upper_bounds_integer_value(self):
        rng = random.Random(31)
        for _ in range(25):
            p = random_profile(rng, 4, 8)
            c = rng.choice(p.candidates)
            relaxed = solve_lp(linear_program("max", *young_rows(p, c, weak=False)))
            score = young_score(p, c)
            if relaxed.status == "optimal":
                assert relaxed.objective_value >= score
            else:
                assert score == 0


@pytest.mark.parametrize("score", [dodgson_score, young_score])
def test_scores_reject_an_empty_electorate(score):
    with pytest.raises(ValueError, match="scores are undefined on an empty electorate"):
        score(Profile(("a", "b"), ()), "a")


class TestDeciders:
    def test_cycle_everybody_wins(self):
        for scheme in (DODGSON, YOUNG):
            assert scheme.scores(CYCLE) == {"A": 1, "B": 1, "C": 1}
            assert all(scheme.winner(CYCLE, c) for c in CYCLE.candidates)
            assert scheme.winners(CYCLE) == CYCLE.candidates

    def test_single_voter_unique_winner(self):
        for scheme in (DODGSON, YOUNG):
            assert scheme.winner(SINGLE, "c") and not scheme.winner(SINGLE, "d")
            assert scheme.winners(SINGLE) == ("c",)

    def test_ranking(self):
        for scheme in (DODGSON, YOUNG):
            assert scheme.ranking(CYCLE, "A", "B")
            assert scheme.ranking(SINGLE, "c", "d") and not scheme.ranking(SINGLE, "d", "c")
            assert scheme.ranking(SINGLE, "c", "c")

    def test_unknown_candidates(self):
        for scheme in (DODGSON, YOUNG):
            with pytest.raises(ValueError):
                scheme.winner(CYCLE, "Z")
            with pytest.raises(ValueError):
                scheme.ranking(CYCLE, "A", "Z")


class TestReplication:
    def test_aggregated_ilp_matches_oracles_under_replication(self):
        rng = random.Random(37)
        for _ in range(10):
            p = random_profile(rng, 3, 2)
            c = rng.choice(p.candidates)
            for q in (2, 4):
                big = replicate(p, q)
                if big.num_voters <= 5:
                    assert dodgson_score(big, c) == dodgson_score_bruteforce(big, c)
                if big.num_voters <= 16:
                    assert young_score(big, c) == young_score_bruteforce(big, c)


# CYCLE's distinct orders are groups 0: A > B > C, 1: B > C > A, 2: C > A > B;
# its scores for A are Dodgson 1 (witnesses ((1, 1, 1),) and ((2, 1, 1),)) and Young 1.
MALFORMED_WITNESSES = {
    "young-group-listed-thrice": ("young", 3, ((0, 1), (0, 1), (0, 1))),
    "young-count-over-multiplicity": ("young", 2, ((0, 2),)),
    "young-group-out-of-range": ("young", 1, ((3, 1),)),
    "young-negative-group": ("young", 1, ((-1, 1),)),
    "young-zero-count": ("young", 0, ((0, 0),)),
    "young-size-not-score": ("young", 2, ((0, 1),)),
    "young-not-a-pair": ("young", 1, ((0,),)),
    "young-not-a-sequence": ("young", 1, None),
    "dodgson-negative-group": ("dodgson", 1, ((-1, 1, 1),)),
    "dodgson-group-out-of-range": ("dodgson", 1, ((3, 1, 1),)),
    "dodgson-cost-not-score": ("dodgson", 2, ((2, 1, 1),)),
    "dodgson-group-over-lifted": ("dodgson", 2, ((2, 1, 1), (2, 1, 1))),
    "dodgson-lift-past-top": ("dodgson", 2, ((2, 2, 1),)),
    "dodgson-lift-of-top": ("dodgson", 1, ((0, 1, 1),)),
    "dodgson-zero-lift": ("dodgson", 0, ((2, 0, 1),)),
    "dodgson-zero-count": ("dodgson", 0, ((2, 1, 0),)),
    "dodgson-fractional-count": ("dodgson", 1, ((2, 1, 1.0),)),
    "dodgson-voter-index-pair": ("dodgson", 1, ((3, 1),)),
}


class TestWitnessValidation:
    def test_cycle_witnesses(self):
        # Lifting A one place in group 1 or in group 2 both cost 1; the
        # simplex's pivot path decides which one is returned.
        score, witness = dodgson_score_with_moves(CYCLE, "A")
        assert (score, witness) == (1, ((1, 1, 1),))
        assert validate_dodgson_witness(CYCLE, "A", score, witness)
        assert validate_dodgson_witness(CYCLE, "A", 1, ((2, 1, 1),))
        assert validate_young_witness(CYCLE, "A", 1, ((0, 1),))

    @pytest.mark.parametrize("case", sorted(MALFORMED_WITNESSES))
    def test_malformed_witness_is_rejected(self, case):
        scheme, score, witness = MALFORMED_WITNESSES[case]
        validate = validate_dodgson_witness if scheme == "dodgson" else validate_young_witness
        assert validate(CYCLE, "A", score, witness) is False

    def test_huge_multiplicity_witnesses(self):
        assert dodgson_score_with_moves(HUGE, "b") == (50000000000000, ((0, 1, 50000000000000),))
        assert young_score_with_subset(HUGE, "a") == (99999999999999, ((0, 99999999999999),))
        lifted = apply_moves(HUGE, "b", ((0, 1, 50000000000000),))
        assert lifted.voters == ((("a", "b"), 49999999999999), (("b", "a"), 50000000000000))


class TestMergedPrograms:
    """The row builders merge the orders a program cannot tell apart (Young: the
    rivals c beats; Dodgson: the short rivals above c and their distances) and
    Young's duplicate rival rows (Dodgson has none), and Dodgson keeps only
    the lifts that end just above a short rival; `oracles.per_order_*_rows`
    build the unmerged, unpresolved reference programs."""

    @staticmethod
    def _optimum(sense, rows, weak):
        lp = linear_program(sense, *rows)
        sol = solve_lp(lp) if weak else solve_ilp(lp)
        return sol.status, sol.objective_value

    def test_same_optimum_and_replayable_witnesses_on_a_seeded_grid(self):
        rng = random.Random(1995)
        programs = shrunk = 0
        for i in range(36):
            k = 3 + i % 4
            candidates = tuple("abcdef"[:k])
            entries = tuple(
                (tuple(rng.sample(candidates, k)), rng.randint(1, 4)) for _ in range(rng.randint(2, 10))
            )
            p = Profile(candidates, entries)
            for c in candidates:
                for sense, merged, reference in (
                    ("min", dodgson_rows, per_order_dodgson_rows),
                    ("max", young_rows, per_order_young_rows),
                ):
                    for weak in (False, True):
                        rows, ref = merged(p, c, weak=weak), reference(p, c, weak=weak)
                        rival_rows = [tuple(a.items()) for a, rel, _ in rows[2] if rel == ">="]
                        assert len(set(rival_rows)) == len(rival_rows)
                        assert self._optimum(sense, rows, weak) == self._optimum(sense, ref, weak)
                        programs += 1
                        shrunk += len(rows[0]) < len(ref[0]) or len(rows[2]) < len(ref[2])
                score, moves = dodgson_score_with_moves(p, c)
                assert list(moves) == sorted(moves)
                assert validate_dodgson_witness(p, c, score, moves)
                score, kept = young_score_with_subset(p, c)
                assert list(kept) == sorted(kept)
                assert validate_young_witness(p, c, score, kept)
        assert (programs, shrunk) == (648, 575)

    def test_merged_value_splits_across_orders_of_different_multiplicity(self):
        # Young of a: both a-first orders beat b and c (one column, bound 2 + 3),
        # both a-last orders beat neither (one column, bound 3 + 2), and the two
        # rival rows are the same row.  The optimum keeps 5 and 4 voters; the 4
        # fill order 1 (3 voters) and then one voter of order 3.
        p = parse_profile(
            "candidates: a b c\nvoter 2: a > b > c\nvoter 3: b > c > a\n"
            "voter 3: a > c > b\nvoter 2: c > b > a\n"
        )
        variables, _, constraints = young_rows(p, "a", weak=False)
        assert [(name, upper) for name, _, upper in variables] == [("y[0]", 5), ("y[1]", 5)]
        assert constraints == [({0: 1, 1: -1}, ">=", 1)]
        score, kept = young_score_with_subset(p, "a")
        assert (score, kept) == (9, ((0, 2), (1, 3), (2, 3), (3, 1)))
        assert validate_young_witness(p, "a", score, kept)
        # Dodgson of a: b is the one short rival, just above a in both orders
        # (one column m[0,1], bound 1 + 2, no capacity row); two lifts split 1 + 1.
        p = parse_profile("candidates: a b c d\nvoter: b > a > c > d\nvoter 2: b > a > d > c\n")
        variables, _, constraints = dodgson_rows(p, "a", weak=False)
        assert [(name, upper) for name, _, upper in variables] == [("m[0,1]", 3)]
        assert constraints == [({0: 1}, ">=", 2)]
        score, moves = dodgson_score_with_moves(p, "a")
        assert (score, moves) == (2, ((0, 1, 1), (1, 1, 1)))
        assert validate_dodgson_witness(p, "a", score, moves)


class TestDodgsonPresolve:
    """`dodgson_rows` keeps only the lifts that end just above a short rival:
    one that fewer voters than the threshold put below c.  Checked on a seeded
    grid past the swap search's caps (k up to 7, up to 3 voters per order)
    against the deficit DP and the unpresolved per-order programs, and
    structurally against the short rivals of the tally."""

    @staticmethod
    def grid():
        rng = random.Random(2222)
        profiles = []
        for i in range(20):
            k = 3 + i % 5
            candidates = tuple("abcdefg"[:k])
            entries = tuple(
                (tuple(rng.sample(candidates, k)), rng.randint(1, 3)) for _ in range(rng.randint(2, 5))
            )
            profiles.append(Profile(candidates, entries))
        return profiles

    def test_same_optima_as_the_unpresolved_programs(self):
        def rounded(rows):
            # Every row and column is integral, so rounding each right-hand
            # side up keeps the ILP optimum, and spares branch and bound the
            # half votes of the weak threshold.
            variables, objective, constraints = rows
            ceiled = [(a, rel, math.ceil(b)) for a, rel, b in constraints]
            return linear_program("min", variables, objective, ceiled)

        for p in self.grid():
            for c in p.candidates:
                score, moves = dodgson_score_with_moves(p, c)
                assert score == dodgson_score_dp(p, c)
                assert validate_dodgson_witness(p, c, score, moves)
                for weak in (False, True):
                    rows, ref = dodgson_rows(p, c, weak=weak), per_order_dodgson_rows(p, c, weak=weak)
                    lp, ref_lp = linear_program("min", *rows), linear_program("min", *ref)
                    assert solve_lp(lp).objective_value == solve_lp(ref_lp).objective_value
                    assert solve_ilp(rounded(rows)).objective_value == solve_ilp(rounded(ref)).objective_value

    def test_every_column_ends_just_above_a_short_rival(self):
        columns = dropped = 0
        for p in self.grid():
            orders = list(dict.fromkeys(order for order, _ in p.voters))
            for c in p.candidates:
                for weak in (False, True):
                    short = short_rivals(p, c, weak=weak)
                    variables, objective, constraints = dodgson_rows(p, c, weak=weak)
                    rows = [cols for cols, rel, _ in constraints if rel == ">="]
                    assert len(rows) == len(short)
                    # A column's lift: its distance and the short rivals it passes.
                    lifts = [
                        (j, frozenset(k for k, cols in zip(short, rows) if col in cols))
                        for col, j in enumerate(objective)
                    ]
                    assert all(name.endswith(f",{j}]") for (name, _, _), j in zip(variables, objective))
                    # Each column is such a lift in some order, and each such lift has a column.
                    wanted = set()
                    for order in orders:
                        idx = order.index(c)
                        for j in range(1, idx + 1):
                            if order[idx - j] in short:
                                wanted.add((j, frozenset(order[idx - j : idx]) & frozenset(short)))
                            else:
                                dropped += 1
                    assert set(lifts) == wanted
                    columns += len(lifts)
        assert columns > 0 and dropped > 0

class TestCertifiedYoungScores:
    """`young_score_with_subset` hands `young_certificate` of its strict program
    to the root of branch and bound.  Its score must be the subset
    enumeration's up to SUBSET_MAX_VOTERS voters and the uncertified ILP's
    above, and its witness must replay."""

    @staticmethod
    def check(p):
        scores = []
        for c in p.candidates:
            score, kept = young_score_with_subset(p, c)
            if p.num_voters <= SUBSET_MAX_VOTERS:
                assert score == young_score_bruteforce(p, c)
            else:
                sol = solve_ilp(linear_program("max", *young_rows(p, c, weak=False)))
                assert score == (sol.objective_value if sol.status == "optimal" else 0)
            assert validate_young_witness(p, c, score, kept)
            scores.append(score)
        return scores

    def test_impartial_culture_grid(self):
        for seed in range(3):
            for p in ic_grid(seed):
                self.check(p)

    def test_few_orders_of_many_voters(self):
        rng = random.Random(1919)
        scores = []
        for _ in range(30):
            candidates = tuple("abcdef"[: rng.randint(3, 6)])
            orders = rng.sample(list(permutations(candidates)), rng.randint(2, 5))
            scores += self.check(Profile(candidates, tuple((o, rng.randint(1, 40)) for o in orders)))
        assert scores.count(0) > 0 and len(set(scores)) > 20

    def test_two_orders_of_200001_voters(self):
        # a keeps every a > b > c voter and all but one b > c > a voter; b is
        # the Condorcet winner; c beats b in no voter.
        p = Profile(("a", "b", "c"), ((("a", "b", "c"), 100000), (("b", "c", "a"), 100001)))
        assert self.check(p) == [199999, 200001, 0]


class TestNoVoterExpansion:
    def test_scoring_and_validation_never_expand(self, monkeypatch):
        def refuse(self):
            raise AssertionError("voters expanded")

        monkeypatch.setattr(Profile, "expanded", refuse)
        rng = random.Random(41)
        profiles = [HUGE]
        for _ in range(30):
            p = random_profile(rng, 4, 5)
            profiles += [p, replicate(p, 7)]
        for p in profiles:
            for c in p.candidates:
                score, moves = dodgson_score_with_moves(p, c)
                assert validate_dodgson_witness(p, c, score, moves)
                score, kept = young_score_with_subset(p, c)
                assert validate_young_witness(p, c, score, kept)
                dodgson_star_score(p, c)
                young_star_score(p, c)
            for scheme in ("dodgson", "young", "dodgson-star", "young-star"):
                winner_set(p, scheme)


class TestScoresAgainstScipy:
    """HiGHS as an independent oracle above the brute-force caps: the exact
    scores are the rounded `milp` optima of the strict-threshold programs,
    and the starred scores the `linprog` optima of the weak-threshold ones."""

    def test_seeded_profiles(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(8080)
        young_infeasible = 0
        for i in range(15):
            k = 3 + i % 5
            candidates = tuple("abcdefg"[:k])
            entries = tuple(
                (tuple(rng.sample(candidates, k)), rng.randint(1, 3))
                for _ in range(rng.randint(5, 20))
            )
            p = Profile(candidates, entries)
            for c in candidates:
                exact = linear_program("min", *dodgson_rows(p, c, weak=False))
                relaxed = linear_program("min", *dodgson_rows(p, c, weak=True))
                # No short rival, no column: c is the (weak) Condorcet winner.
                if not exact.variables:
                    assert dodgson_score(p, c) == 0
                else:
                    _, res = scipy_milp(scipy_opt, exact)
                    assert res.status == 0 and dodgson_score(p, c) == round(res.fun)
                if not relaxed.variables:
                    assert dodgson_star_score(p, c) == 0
                else:
                    _, res = scipy_linprog(scipy_opt, relaxed)
                    assert res.status == 0
                    assert abs(float(dodgson_star_score(p, c)) - res.fun) < 1e-6

                sense, res = scipy_milp(scipy_opt, linear_program("max", *young_rows(p, c, weak=False)))
                if res.status == 2:
                    young_infeasible += 1
                    assert young_score(p, c) == 0
                else:
                    assert res.status == 0 and young_score(p, c) == round(sense * res.fun)
                sense, res = scipy_linprog(scipy_opt, linear_program("max", *young_rows(p, c, weak=True)))
                assert res.status == 0
                assert abs(float(young_star_score(p, c)) - sense * res.fun) < 1e-6
        assert young_infeasible > 0
