import random
from collections import Counter

import pytest

from dodgsonyoung import (
    CapExceededError,
    Profile,
    condorcet_winner,
    dodgson_ranking,
    dodgson_score,
    dodgson_score_bruteforce,
    dodgson_score_with_moves,
    dodgson_star_score,
    dodgson_winner,
    dodgson_winners,
    gain_matrix,
    parse_profile,
    replicate,
    validate_dodgson_witness,
    validate_young_witness,
    winner_set,
    young_ranking,
    young_score,
    young_score_bruteforce,
    young_score_with_subset,
    young_star_score,
    young_winner,
    young_winners,
)
from dodgsonyoung.exact import apply_moves, young_rows
from dodgsonyoung.lp import linear_program, solve_lp
from oracles import random_profile

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


class TestGainMatrix:
    def test_one_swap_passes_the_rival(self):
        p = parse_profile("candidates: a b\nvoter: b > a")
        enc = gain_matrix(p, "a")
        assert enc.gains(0, 1) == frozenset({"b"})
        assert enc.baseline == {"b": 0}

    def test_top_ranked_candidate_has_empty_lift_range(self):
        p = parse_profile("candidates: a b\nvoter: a > b")
        enc = gain_matrix(p, "a")
        assert enc.passed[0] == ()
        assert enc.baseline == {"b": 1}

    def test_cycle_voter_gains(self):
        enc = gain_matrix(CYCLE, "A")
        # voter 2 is B > C > A
        assert enc.gains(1, 1) == frozenset({"C"})
        assert enc.gains(1, 2) == frozenset({"B", "C"})

    def test_unknown_candidate(self):
        with pytest.raises(ValueError):
            gain_matrix(CYCLE, "Z")

    def test_matches_direct_lift_simulation(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            enc = gain_matrix(p, c)
            assert sorted(zip(enc.orders, enc.counts)) == sorted(Counter(p.expanded()).items())
            for g, order in enumerate(enc.orders):
                for j in range(1, order.index(c) + 1):
                    assert enc.gains(g, j) == lift_simulation(order, c, j)

    def test_monotone_in_lift_distance(self):
        enc = gain_matrix(CYCLE, "B")
        for row in enc.passed:
            for j in range(1, len(row)):
                assert row[j - 1] <= row[j]


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
        for _ in range(25):
            p = random_profile(rng, 4, 5)
            c = rng.choice(p.candidates)
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
        for _ in range(25):
            p = random_profile(rng, 4, 7)
            c = rng.choice(p.candidates)
            score, kept = young_score_with_subset(p, c)
            assert validate_young_witness(p, c, score, kept)

    def test_bruteforce_cap(self):
        p = random_profile(random.Random(3), 3, 5)
        with pytest.raises(CapExceededError):
            young_score_bruteforce(p, p.candidates[0], max_voters=4)

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


class TestDeciders:
    def test_cycle_everybody_wins(self):
        for c in CYCLE.candidates:
            assert dodgson_winner(CYCLE, c)
            assert young_winner(CYCLE, c)
        assert dodgson_winners(CYCLE) == CYCLE.candidates
        assert young_winners(CYCLE) == CYCLE.candidates

    def test_single_voter_unique_winner(self):
        assert dodgson_winner(SINGLE, "c") and not dodgson_winner(SINGLE, "d")
        assert young_winner(SINGLE, "c") and not young_winner(SINGLE, "d")
        assert dodgson_winners(SINGLE) == ("c",)
        assert young_winners(SINGLE) == ("c",)

    def test_ranking(self):
        assert dodgson_ranking(CYCLE, "A", "B")
        assert young_ranking(CYCLE, "A", "B")
        assert dodgson_ranking(SINGLE, "c", "d") and not dodgson_ranking(SINGLE, "d", "c")
        assert young_ranking(SINGLE, "c", "c")

    def test_unknown_candidates(self):
        with pytest.raises(ValueError):
            dodgson_winner(CYCLE, "Z")
        with pytest.raises(ValueError):
            young_ranking(CYCLE, "A", "Z")


class TestScoreReports:
    def test_witnesses_revalidate(self):
        from dodgsonyoung.exact import dodgson_report, young_report

        for p in (CYCLE, SINGLE, OPPOSED):
            rep = dodgson_report(p, with_witnesses=True)
            for (c, score), (c2, moves) in zip(rep.scores, rep.witnesses):
                assert c == c2
                assert validate_dodgson_witness(p, c, score, moves)
            rep = young_report(p, with_witnesses=True)
            for (c, score), (c2, kept) in zip(rep.scores, rep.witnesses):
                assert c == c2
                assert validate_young_witness(p, c, score, kept)

    def test_plain_reports_have_no_witnesses(self):
        from dodgsonyoung.exact import dodgson_report

        rep = dodgson_report(CYCLE)
        assert rep.witnesses is None
        assert rep.scores == (("A", 1), ("B", 1), ("C", 1))


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
# its scores for A are Dodgson 1 (witness ((2, 1, 1),)) and Young 1.
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
        assert dodgson_score_with_moves(CYCLE, "A") == (1, ((2, 1, 1),))
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
