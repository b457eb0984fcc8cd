"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact; the randomized parts use fixed seeds.
"""
import random
import time
from fractions import Fraction as F

from dodgsonyoung import (
    MSPCInstance,
    alpha,
    amplify_for_winner,
    dodgson_score,
    dodgson_score_bruteforce,
    dodgson_star_score,
    inc_to_mspc,
    kappa,
    mspc_to_young_ranking,
    parse_profile,
    replicate,
    young_ranking,
    young_score,
    young_score_bruteforce,
    young_star_score,
)
from dodgsonyoung.cli import run
from dodgsonyoung.homogeneous import DODGSON_STAR, YOUNG_STAR
from dodgsonyoung.lp import linear_program, solve_ilp, solve_lp
from dodgsonyoung.reductions import young_scores_bruteforce_all
from oracles import (
    dense,
    grid_solve_ilp,
    random_bounded_ilp,
    random_graph,
    random_lp,
    random_packing_family,
    random_profile,
    sparse,
)
from test_cli import GOLDEN, GOLDEN_CASES, _expand

# Fixed convergence/scale-invariance suite: every profile has |C| <= 4, n <= 4.
SUITE = [
    parse_profile(text)
    for text in (
        # majority cycle
        "candidates: A B C\nvoter: A > B > C\nvoter: B > C > A\nvoter: C > A > B\n",
        # single voter
        "candidates: a b c\nvoter: a > b > c\n",
        # perfectly opposed pair (weak tie)
        "candidates: c d\nvoter: c > d\nvoter: d > c\n",
        # rotating 4-candidate cycle
        "candidates: a b c d\nvoter: a > b > c > d\nvoter: b > c > d > a\nvoter: c > d > a > b\n",
        # pairwise tie between a and b, both beating c
        "candidates: a b c\nvoter 2: a > b > c\nvoter: b > c > a\nvoter: c > b > a\n",
        # strict Condorcet winner among four candidates
        "candidates: a b c d\nvoter: a > b > c > d\nvoter: a > c > d > b\nvoter: b > a > c > d\n",
        # two candidates, odd electorate
        "candidates: x y\nvoter 2: x > y\nvoter: y > x\n",
        # four voters, four candidates, no Condorcet winner
        "candidates: a b c d\nvoter: d > c > b > a\nvoter: c > a > d > b\nvoter: b > d > a > c\nvoter: a > b > c > d\n",
    )
]


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_dodgson_oracle_equivalence():
    rng = random.Random(1001)
    start = time.monotonic()
    checked = 0
    for _ in range(200):
        p = random_profile(rng, max_candidates=4, max_voters=5)
        c = rng.choice(p.candidates)
        assert dodgson_score(p, c) == dodgson_score_bruteforce(p, c)
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        checked == 200 and elapsed < 60.0,
        f"dodgson ILP == swap-search oracle on {checked} profiles in {elapsed:.1f}s",
    )


def test_criterion_2_young_oracle_equivalence():
    rng = random.Random(2002)
    checked = 0
    for _ in range(200):
        p = random_profile(rng, max_candidates=5, max_voters=12)
        c = rng.choice(p.candidates)
        assert young_score(p, c) == young_score_bruteforce(p, c)
        checked += 1
    _report(2, checked == 200, f"young ILP == subset-enumeration oracle on {checked} profiles")


def test_criterion_3_young_ranking_construction():
    rng = random.Random(3003)
    checked = 0
    for _ in range(30):
        s1 = random_packing_family(rng, rng.choice((3, 4)))
        s2 = random_packing_family(rng, rng.choice((3, 4)))
        k1, k2 = kappa(s1), kappa(s2)
        out = mspc_to_young_ranking(MSPCInstance(s1, s2))
        assert out.profile.num_voters <= 18
        assert young_score_bruteforce(out.profile, out.c) == 2 * k1 + 1
        assert young_score_bruteforce(out.profile, out.d) == 2 * k2 + 1
        assert young_ranking(out.profile, out.c, out.d) == (k1 >= k2)
        checked += 1
    _report(3, checked == 30, f"young scores are 2*kappa+1 and ranking matches on {checked} instances")


def test_criterion_4_incident_edge_reduction():
    rng = random.Random(4004)
    checked = 0
    for _ in range(50):
        g1 = random_graph(rng, max_vertices=8)
        g2 = random_graph(rng, max_vertices=8)
        inst = inc_to_mspc(g1, g2)
        assert alpha(g1) == kappa(inst.first)
        assert alpha(g2) == kappa(inst.second)
        checked += 1
    _report(4, checked == 50, f"alpha(G) == kappa(incident-edge family) on {checked} graph pairs")


def test_criterion_5_candidate_rotation():
    rng = random.Random(5005)
    checked = 0
    while checked < 20:
        p = random_profile(rng, max_candidates=4, max_voters=3, min_voters=2)
        c, d = rng.sample(p.candidates, 2)
        amp = amplify_for_winner(p, c, d)
        assert len(amp.candidates) <= 8
        before = young_scores_bruteforce_all(p)
        after = young_scores_bruteforce_all(amp)
        assert after[c] == before[c]
        assert after[d] == before[d]
        assert all(score <= 1 for name, score in after.items() if name not in (c, d))
        checked += 1
    _report(5, checked == 20, f"amplification preserves c,d scores and caps others at 1 on {checked} profiles")


def test_criterion_6_fishburn_limit_convergence():
    cycle = SUITE[0]
    for c in cycle.candidates:
        assert dodgson_star_score(cycle, c) == F(1, 2)
        assert young_star_score(cycle, c) == F(2)
    pairs = 0
    for p in SUITE:
        for c in p.candidates:
            star_d = dodgson_star_score(p, c)
            star_y = young_star_score(p, c)
            for q in (1, 2, 4, 8, 16):
                big = replicate(p, q)
                ratio_d = F(dodgson_score(big, c), q)
                ratio_y = F(young_score(big, c), q)
                assert ratio_d >= star_d
                assert ratio_y <= star_y
                if q == 16:
                    assert ratio_d - star_d <= F(1, 2)
                    assert star_y - ratio_y <= F(1, 2)
            pairs += 1
    _report(
        6,
        pairs == sum(len(p.candidates) for p in SUITE),
        f"score(qV)/q brackets the starred LP values and is within 1/2 at q=16 "
        f"({pairs} candidate series; cycle values 1/2 and 2 exact)",
    )


def test_criterion_7_starred_scale_invariance():
    pairs = 0
    for p in SUITE:
        for q in (2, 3):
            big = replicate(p, q)
            for c in p.candidates:
                assert dodgson_star_score(big, c) == q * dodgson_star_score(p, c)
                assert young_star_score(big, c) == q * young_star_score(p, c)
                pairs += 1
            for scheme in (DODGSON_STAR, YOUNG_STAR):
                assert scheme.winners(big) == scheme.winners(p)
    _report(7, pairs > 0, f"starred scores scale exactly by q and winner sets match ({pairs} checks)")


def _verify_exact(lp, assignment):
    assert list(assignment) == list(range(len(lp.variables)))
    values = list(assignment.values())
    for var, val in zip(lp.variables, values):
        assert var.lower <= val <= var.upper
    for con in lp.constraints:
        lhs = sum(a * x for a, x in zip(dense(con, len(values)), values))
        assert lhs <= con.rhs if con.relation == "<=" else lhs >= con.rhs


def _solve_ilp_checked(lp):
    sol = solve_ilp(lp)
    if sol.status == "optimal":
        _verify_exact(lp, sol.assignment)
        assert all(value.denominator == 1 for value in sol.assignment.values())
    return sol


def test_criterion_8_lp_ilp_engine():
    rng = random.Random(8008)
    grid_checked = 0
    for _ in range(100):
        lp = random_bounded_ilp(rng)
        expected = grid_solve_ilp(lp)
        got = _solve_ilp_checked(lp)
        if expected is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.objective_value == expected
        grid_checked += 1
    feasibility_checked = 0
    for _ in range(60):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        if sol.status == "optimal":
            _verify_exact(lp, sol.assignment)
            feasibility_checked += 1
    beale = linear_program(  # boxed at 10, as in test_lp.BEALE
        "min",
        [(0, 10)] * 4,
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            (sparse([F(1, 4), -60, F(-1, 25), 9]), "<=", 0),
            (sparse([F(1, 2), -90, F(-1, 50), 3]), "<=", 0),
            (sparse([0, 0, 1, 0]), "<=", 1),
        ],
    )
    sol = solve_lp(beale)
    assert sol.status == "optimal" and sol.objective_value == F(-1, 20)
    _report(
        8,
        grid_checked == 100 and feasibility_checked > 20,
        f"ILP == grid enumeration on {grid_checked} programs, {feasibility_checked} exact-feasible "
        f"LP solves, Beale instance terminates at -1/20",
    )


def test_criterion_9_cli_determinism(capsys):
    checked = 0
    for name, argv in sorted(GOLDEN_CASES.items()):
        argv = _expand(argv)
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second == (GOLDEN / name).read_text()
        checked += 1
    with capsys.disabled():
        _report(9, checked == len(GOLDEN_CASES), f"{checked} golden CLI invocations byte-identical")
