import random
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest

from dodgsonyoung import (
    SCHEMES,
    Profile,
    condorcet_winner,
    dodgson_score,
    dodgson_score_with_moves,
    dodgson_star_ranking,
    dodgson_star_score,
    homogeneity_check,
    parse_profile,
    replicate,
    tally,
    winner_set,
    young_score,
    young_score_with_subset,
    young_star_ranking,
    young_star_score,
)
from dodgsonyoung.homogeneous import (
    DODGSON_STAR,
    YOUNG_STAR,
    dodgson_star_program,
    young_star_program,
)
from dodgsonyoung.exact import dodgson_certificate, dodgson_rows, young_certificate, young_rows
from dodgsonyoung.lp import linear_program, solve_lp
from oracles import dense, ic_grid, per_voter_dodgson_star, per_voter_young_star, random_profile

CYCLE = parse_profile("candidates: A B C\nvoter: A > B > C\nvoter: B > C > A\nvoter: C > A > B\n")
SINGLE = parse_profile("candidates: c d e\nvoter: c > d > e\n")
OPPOSED = parse_profile("candidates: c d\nvoter: c > d\nvoter: d > c\n")
TWO_ORDER = parse_profile("candidates: a b c d\nvoter 100000: b > d > a > c\nvoter 100001: c > a > d > b\n")
STARRED = (
    ("dodgson-star", dodgson_star_program, dodgson_certificate),
    ("young-star", young_star_program, young_certificate),
)


def is_weak_condorcet(profile, c):
    t = tally(profile)
    return all(t.count(c, k) >= t.count(k, c) for k in profile.candidates if k != c)


class TestDodgsonStarProgram:
    def test_structure_matches_move_encoding(self):
        # n = 5, so a rival is short while fewer than 5/2 voters put c above
        # it: a and b are (none do), d is not (three do).
        p = parse_profile("candidates: a b c d\nvoter 3: a > b > c > d\nvoter 2: b > d > a > c\n")
        prog = dodgson_star_program(p, "c")
        # One column per (group, lift that ends just above a short rival),
        # named by its real distance and bounded by the group's voters: in
        # b > d > a > c the lift of 2 ends above d and is dropped.
        assert [(v.name, v.lower, v.upper) for v in prog.variables] == [
            ("m[0,1]", 0, 3), ("m[0,2]", 0, 3), ("m[1,1]", 0, 2), ("m[1,3]", 0, 2),
        ]
        assert list(prog.objective) == [1, 2, 1, 3]
        # a capacity row per group with two or more lifts, then one weak-majority
        # row per short rival, holding the lifts that pass it
        assert [(dense(con, 4), con.relation, con.rhs) for con in prog.constraints] == [
            ([1, 1, 0, 0], "<=", 3),
            ([0, 0, 1, 1], "<=", 2),
            ([0, 1, 1, 1], ">=", F(5, 2)),
            ([1, 1, 0, 1], ">=", F(5, 2)),
        ]
        # In the cycle only C is short of 3/2 for A, and it sits just above A
        # in both orders that rank A below anyone: one group, one lift, no
        # capacity row.
        prog = dodgson_star_program(CYCLE, "A")
        assert [(v.name, v.upper) for v in prog.variables] == [("m[0,1]", 2)]
        assert [(dense(con, 1), con.relation, con.rhs) for con in prog.constraints] == [([1], ">=", F(1, 2))]

    def test_majority_rows_use_half_total(self):
        # a tie already meets n/2, so the rival needs no row
        prog = dodgson_star_program(OPPOSED, "c")
        assert not any(con.relation == ">=" for con in prog.constraints)
        p = parse_profile("candidates: c d\nvoter: c > d\nvoter 3: d > c\n")
        ge = [con for con in dodgson_star_program(p, "c").constraints if con.relation == ">="]
        assert len(ge) == 1
        assert ge[0].rhs == F(4, 2) - 1  # n/2 - w_d with n=4, w_d=1


class TestDodgsonStarScore:
    def test_zero_for_condorcet_winner(self):
        assert dodgson_star_score(SINGLE, "c") == 0

    def test_cycle_value_is_one_half(self):
        for c in CYCLE.candidates:
            assert dodgson_star_score(CYCLE, c) == F(1, 2)

    def test_weak_tie_scores_zero(self):
        # Closure of the strict majority to >= n/2 gives 0 on a weak Condorcet
        # winner: one adjacent swap in a single replica already breaks the tie,
        # so dodgson_score(qV)/q = 1/q -> 0.
        assert dodgson_star_score(OPPOSED, "c") == 0
        for q in (1, 2, 4, 8):
            assert dodgson_score(replicate(OPPOSED, q), "c") == 1

    def test_zero_iff_weak_condorcet_winner(self):
        rng = random.Random(41)
        for _ in range(30):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            assert (dodgson_star_score(p, c) == 0) == is_weak_condorcet(p, c)

    def test_never_exceeds_exact_score(self):
        rng = random.Random(43)
        for _ in range(30):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            assert 0 <= dodgson_star_score(p, c) <= dodgson_score(p, c)


class TestYoungStarScore:
    def test_single_voter(self):
        assert young_star_score(SINGLE, "c") == 1

    def test_cycle_value_is_two(self):
        for c in CYCLE.candidates:
            assert young_star_score(CYCLE, c) == 2

    def test_bottom_everywhere_scores_zero(self):
        p = parse_profile("candidates: a b z\nvoter: a > b > z\nvoter: b > a > z\n")
        assert young_star_score(p, "z") == 0

    def test_full_weight_iff_weak_condorcet_winner(self):
        rng = random.Random(47)
        for _ in range(30):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            score = young_star_score(p, c)
            assert 0 <= score <= p.num_voters
            assert (score == p.num_voters) == is_weak_condorcet(p, c)

    def test_at_least_exact_score(self):
        rng = random.Random(53)
        for _ in range(30):
            p = random_profile(rng, 4, 5)
            c = rng.choice(p.candidates)
            assert young_star_score(p, c) >= young_score(p, c)

    def test_program_shape(self):
        prog = young_star_program(CYCLE, "A")
        assert prog.direction == "max"
        assert [(v.name, v.lower, v.upper) for v in prog.variables] == [
            ("y[0]", 0, 1),
            ("y[1]", 0, 1),
            ("y[2]", 0, 1),
        ]
        assert all(c == 1 for c in prog.objective)
        assert len(prog.constraints) == 2
        for con in prog.constraints:
            assert con.relation == ">=" and con.rhs == 0
            assert set(dense(con, 3)) <= {F(1), F(-1)}


class TestCertificates:
    def test_single_candidate(self):
        p = Profile(("a",), ((("a",), 3),))
        assert dodgson_certificate(dodgson_star_program(p, "a")) == ([], [])
        assert young_certificate(young_star_program(p, "a")) == ([3], [])
        assert (dodgson_star_score(p, "a"), young_star_score(p, "a")) == (0, 3)

    def test_weak_condorcet_winner_needs_no_multiplier(self):
        # c ties d: Dodgson* has no short rival, so no column and no row; Young* keeps both voters.
        assert dodgson_certificate(dodgson_star_program(OPPOSED, "c")) == ([], [])
        assert young_certificate(young_star_program(OPPOSED, "c")) == ([1, 1], [0])

    def test_rival_no_voter_ranks_below_c(self):
        p = parse_profile("candidates: a b c\nvoter 3: a > b > c\nvoter 2: b > a > c\n")
        # Both rivals are 5/2 short: lift c over both in 5/2 voters of the first order.
        point, duals = dodgson_certificate(dodgson_star_program(p, "c"))
        assert (point, duals) == ([0, F(5, 2), 0, 0], [0, 0, 1, 1])
        # N(c, a) = N(c, b) = 0 (one shared row), so no voter may be kept.
        assert young_certificate(young_star_program(p, "c")) == ([0], [1])
        assert (dodgson_star_score(p, "c"), young_star_score(p, "c")) == (5, 0)

    def test_two_order_profile_in_batches(self):
        # Each greedy step ends a group, a shortfall or a row's slack, never a
        # single voter: 10**15 times the voters give the same steps, scaled.
        huge = replicate(TWO_ORDER, 10**15)
        for c in TWO_ORDER.candidates:
            for _, build, certify in STARRED:
                program = build(TWO_ORDER, c)
                point, duals = certify(program)
                assert solve_lp(program, (point, duals)).objective_value == solve_lp(program).objective_value
                assert certify(build(huge, c)) == ([10**15 * x for x in point], duals)

    def test_dodgson_greedy_at_the_strict_threshold(self):
        # The same greedy on the exact score's program: integer deficits give
        # integer batches, and a certified point is an optimal set of lifts.
        for p in ic_grid(0):
            for c in p.candidates:
                program = linear_program("min", *dodgson_rows(p, c, weak=False))
                point, _ = dodgson_certificate(program)
                assert all(x == int(x) for x in point)
                assert sum(j * x for j, x in zip(program.objective, point)) == dodgson_score(p, c)

    def test_certified_values_equal_the_simplex_and_hit_counts(self):
        # The ic-distinct cells of seeds 0-2 and q-fold copies of six
        # 5-order bases: every certified value is the certificate-free
        # optimum, and the scores read it.
        profiles = [p for seed in range(3) for p in ic_grid(seed)]
        rng = random.Random(15)
        for _ in range(6):
            base = Profile(tuple("abcd"), tuple((o, 1) for o in rng.sample(list(permutations("abcd")), 5)))
            profiles += [replicate(base, q) for q in (1, 2, 16)]
        certified = {name: 0 for name, _, _ in STARRED}
        pairs = 0
        for p in profiles:
            for c in p.candidates:
                pairs += 1
                for name, build, certify in STARRED:
                    program = build(p, c)
                    want = solve_lp(program).objective_value
                    certificate = certify(program)
                    if certificate is not None:
                        certified[name] += 1
                        assert solve_lp(program, certificate).objective_value == want
                    assert SCHEMES[name].score(p, c) == want
        assert pairs == 162
        assert certified == {"dodgson-star": 159, "young-star": 155}


class TestStarDeciders:
    def test_cycle_everyone_wins(self):
        for scheme in (DODGSON_STAR, YOUNG_STAR):
            assert all(scheme.winner(CYCLE, c) for c in CYCLE.candidates)
            assert scheme.winners(CYCLE) == CYCLE.candidates

    def test_strict_condorcet_winner_is_unique_dodgson_star_winner(self):
        p = parse_profile(
            "candidates: w x y\nvoter: w > x > y\nvoter: w > y > x\nvoter: x > w > y\n"
        )
        assert condorcet_winner(p) == "w"
        assert DODGSON_STAR.winners(p) == ("w",)
        assert dodgson_star_score(p, "x") > 0 and dodgson_star_score(p, "y") > 0

    def test_ranking_reflexive(self):
        for scheme in (DODGSON_STAR, YOUNG_STAR):
            assert scheme.ranking(CYCLE, "A", "A")

    def test_ranking_follows_scores(self):
        rng = random.Random(59)
        for _ in range(15):
            p = random_profile(rng, 4, 4)
            c, d = rng.sample(p.candidates, 2)
            assert dodgson_star_ranking(p, c, d) == (
                dodgson_star_score(p, c) <= dodgson_star_score(p, d)
            )
            assert young_star_ranking(p, c, d) == (
                young_star_score(p, c) >= young_star_score(p, d)
            )


class TestScaleInvariance:
    def test_exact_scaling(self):
        rng = random.Random(61)
        for _ in range(12):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            ds = dodgson_star_score(p, c)
            ys = young_star_score(p, c)
            for q in (2, 3):
                big = replicate(p, q)
                assert dodgson_star_score(big, c) == q * ds
                assert young_star_score(big, c) == q * ys

    def test_winner_sets_invariant(self):
        rng = random.Random(67)
        for _ in range(8):
            p = random_profile(rng, 4, 4)
            for q in (2, 3):
                for scheme in (DODGSON_STAR, YOUNG_STAR):
                    assert scheme.winners(replicate(p, q)) == scheme.winners(p)


class TestProgramSize:
    def test_four_schemes_on_the_seed_0_grid(self):
        # Summed (rows, columns, nonzeros) of every candidate's program on the
        # six seed-0 ic-distinct cells.  Young's nonzeros were counted on the
        # dense rows the builders made before rows became sparse, so the sparse
        # builders drop zeros and nothing else.  Dodgson's keep only the lifts
        # that end just above a short rival: 452 rows and 1,315 columns before.
        builders = {
            "dodgson": lambda p, c: linear_program("min", *dodgson_rows(p, c, weak=False)),
            "young": lambda p, c: linear_program("max", *young_rows(p, c, weak=False)),
            "dodgson-star": dodgson_star_program,
            "young-star": young_star_program,
        }
        sizes = {}
        for name, build in builders.items():
            rows = cols = nonzeros = 0
            for p in ic_grid(0):
                for c in p.candidates:
                    lp = build(p, c)
                    n = len(lp.variables)
                    for con in lp.constraints:
                        assert all(a for _, a in con.coeffs)
                        assert len(con.coeffs) == sum(1 for a in dense(con, n) if a)
                    rows += len(lp.constraints)
                    cols += n
                    nonzeros += sum(len(con.coeffs) for con in lp.constraints)
            sizes[name] = (rows, cols, nonzeros)
        assert sizes == {
            "dodgson": (255, 609, 1638),
            "young": (124, 342, 1477),
            "dodgson-star": (255, 609, 1638),
            "young-star": (124, 342, 1477),
        }

    def test_rows_and_columns_do_not_depend_on_replication(self):
        rng = random.Random(79)
        for _ in range(10):
            p = random_profile(rng, 4, 5)
            c = rng.choice(p.candidates)
            for build in (dodgson_star_program, young_star_program):
                small, big = build(p, c), build(replicate(p, 64), c)
                assert [v.name for v in big.variables] == [v.name for v in small.variables]
                assert [con.coeffs for con in big.constraints] == [
                    con.coeffs for con in small.constraints
                ]
                assert [v.upper for v in big.variables] == [64 * v.upper for v in small.variables]
                assert [con.rhs for con in big.constraints] == [
                    64 * con.rhs for con in small.constraints
                ]

    def test_grouped_relaxation_equals_per_voter_programs(self):
        rng = random.Random(83)
        for _ in range(100):
            p = replicate(random_profile(rng, 5, 9), rng.choice((1, 2, 3)))
            c = rng.choice(p.candidates)
            assert dodgson_star_score(p, c) == per_voter_dodgson_star(p, c)
            assert young_star_score(p, c) == per_voter_young_star(p, c)


class TestConvergence:
    def test_cycle_sequences_approach_the_limits(self):
        star_d = dodgson_star_score(CYCLE, "A")
        star_y = young_star_score(CYCLE, "A")
        for q in (1, 2, 4, 8, 16):
            big = replicate(CYCLE, q)
            ratio_d = F(dodgson_score(big, "A"), q)
            ratio_y = F(young_score(big, "A"), q)
            assert ratio_d >= star_d
            assert ratio_y <= star_y
            if q == 16:
                assert ratio_d - star_d <= F(1, 2)
                assert star_y - ratio_y <= F(1, 2)

    def test_gap_bound(self):
        rng = random.Random(71)
        for _ in range(6):
            p = random_profile(rng, 4, 4)
            c = rng.choice(p.candidates)
            star = dodgson_star_score(p, c)
            size = len(p.candidates) * p.num_voters + 1
            for q in (1, 2, 4):
                gap = F(dodgson_score(replicate(p, q), c), q) - star
                assert 0 <= gap <= F(size, q)


class TestHomogeneityCheck:
    def test_q_one_is_trivially_true(self):
        for scheme in SCHEMES:
            assert homogeneity_check(scheme, CYCLE, 1)

    def test_starred_schemes_on_random_profiles(self):
        rng = random.Random(73)
        for _ in range(8):
            p = random_profile(rng, 4, 4)
            for q in (2, 3):
                assert homogeneity_check("dodgson-star", p, q)
                assert homogeneity_check("young-star", p, q)

    def test_exact_schemes_report_on_small_cases(self):
        assert homogeneity_check("dodgson", CYCLE, 2)
        assert homogeneity_check("young", CYCLE, 2)

    def test_exact_schemes_have_no_voter_cap(self):
        big = replicate(CYCLE, 100)
        assert homogeneity_check("dodgson", big, 2)
        assert homogeneity_check("young", big, 2)
        assert homogeneity_check("young", CYCLE, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            homogeneity_check("borda", CYCLE, 2)
        with pytest.raises(ValueError):
            homogeneity_check("young", CYCLE, 0)
        with pytest.raises(ValueError):
            winner_set(CYCLE, "nope")


class TestSchemeTable:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_deciders_agree_with_scores(self, name):
        scheme = SCHEMES[name]
        assert scheme.name == name
        rng = random.Random(89)
        for _ in range(5):
            p = random_profile(rng, 4, 5)
            scores = scheme.scores(p)
            winners = scheme.winners(p)
            assert winner_set(p, name) == winners
            for c in p.candidates:
                assert scheme.winner(p, c) == (c in winners)
                for d in p.candidates:
                    better = scheme.better(scores[c], scores[d]) == scores[c]
                    assert scheme.ranking(p, c, d) == better
        with pytest.raises(ValueError):
            scheme.winner(CYCLE, "Z")
        with pytest.raises(ValueError):
            scheme.ranking(CYCLE, "Z", "A")
        with pytest.raises(ValueError):
            winner_set(CYCLE, name.upper())

    @pytest.mark.parametrize(
        "name, special",
        [
            ("dodgson", (SINGLE, "c", 0)),  # a Condorcet winner's empty program
            ("young", (SINGLE, "e", 0)),  # an infeasible strict program
            ("dodgson-star", (OPPOSED, "c", 0)),  # a weak Condorcet winner's empty program
            ("young-star", (OPPOSED, "c", 2)),  # every voter kept
        ],
    )
    def test_result_types(self, name, special):
        # Exact scores are ints and starred ones Fractions, integral values included.
        kind = F if name.endswith("-star") else int
        with_witness = {"dodgson": dodgson_score_with_moves, "young": young_score_with_subset}.get(name)
        profile, c, value = special
        assert SCHEMES[name].score(profile, c) == value
        fixtures = sorted((Path(__file__).parent / "fixtures").glob("*.elect"))
        profiles = [SINGLE, OPPOSED] + [parse_profile(f.read_text()) for f in fixtures if f.stem != "bad"]
        for p in profiles + ic_grid(0):
            for c, score in SCHEMES[name].scores(p).items():
                assert type(score) is kind
                if with_witness:
                    score_too, witness = with_witness(p, c)
                    assert (score_too, type(score_too), type(witness)) == (score, int, tuple)
